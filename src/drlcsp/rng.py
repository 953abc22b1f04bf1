"""Deterministic 64-bit mixing generator.

A fixed splitmix64 sequence keeps generated instances and seeded strategy
choices bit-identical across platforms and Python versions.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64), the generator's state space.

    Reducing it modulo 2**64 instead would give two distinct seeds the
    same sequence.
    """
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed {seed} lies outside [0, 2**64)")


class SplitMix64:
    def __init__(self, seed: int):
        check_seed(seed)
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw from range(n) via rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n
