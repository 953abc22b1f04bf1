"""Deterministic 64-bit mixing generator.

A fixed splitmix64 sequence keeps generated instances and seeded strategy
choices bit-identical across platforms and Python versions.

Splitmix64 is counter-based (Steele, Lea & Flood, OOPSLA 2014): the
state after i steps is seed + i*gamma mod 2**64, and output i is
mix(seed + i*gamma). So `below_many` computes a whole block of outputs
with wrapping `uint64` array arithmetic and gets exactly the values the
scalar `next_u64` would, and `skip` advances the state by any number of
steps at once. The state is the single source of truth: a read-ahead
block is a cache of outputs keyed by the state it starts from, and the
scalar methods never look at it.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# gamma is odd, so it is invertible mod 2**64: two states lie
# (b - a) * _GAMMA_INV steps apart.
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)


def check_seed(seed: int) -> None:
    """Refuse a seed that is not an int in [0, 2**64), the generator's state space.

    Reducing it modulo 2**64 instead would give two distinct seeds the
    same sequence; a bool, float or numpy integer is refused rather than
    truncated or promoted.
    """
    if type(seed) is not int:
        raise ValueError(f"seed {seed!r} is not an int")
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed {seed} lies outside [0, 2**64)")


def _outputs(state: int, count: int) -> np.ndarray:
    """The `count` outputs that follow `state`, as a `uint64` array.

    Every constant is an `np.uint64`: under numpy < 2, a `uint64` array
    combined with a Python int promotes to float64.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    def __init__(self, seed: int):
        check_seed(seed)
        self._state = seed
        self._ahead: tuple[int, np.ndarray] | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
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

    def skip(self, count: int) -> None:
        """Advance the state as `count` calls of `next_u64` (or `below(1)`) would."""
        self._state = (self._state + count * _GAMMA) & _MASK

    def read_ahead(self, count: int) -> None:
        """Compute the next `count` outputs in one block.

        Later `below_many` calls whose outputs lie inside the block slice
        it instead of computing their own, which saves the fixed cost of
        a numpy call on short draws.
        """
        self._ahead = (self._state, _outputs(self._state, count))

    def _next_block(self, count: int) -> np.ndarray:
        """The next `count` outputs of `next_u64`, with the state advanced past them."""
        block = None
        if self._ahead is not None:
            start, ahead = self._ahead
            offset = ((self._state - start) * _GAMMA_INV) & _MASK
            if offset + count <= len(ahead):
                block = ahead[offset:offset + count]
        if block is None:
            block = _outputs(self._state, count)
        self.skip(count)
        return block

    def below_many(self, n: int, count: int) -> np.ndarray:
        """`count` draws of `below(n)` at once, as a `uint64` array.

        The values and the final state are those of `count` successive
        `below(n)` calls: a raw output at or above the rejection limit is
        skipped and the next one taken.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = _MASK + 1 - ((_MASK + 1) % n)

        def accepted(raw: np.ndarray) -> np.ndarray:
            if limit > _MASK:
                return raw
            keep = raw < np.uint64(limit)
            return raw if keep.all() else raw[keep]

        # Each block holds only outputs the scalar loop would read too.
        drawn = accepted(self._next_block(count))
        while len(drawn) < count:
            drawn = np.concatenate([drawn, accepted(self._next_block(count - len(drawn)))])
        return drawn % np.uint64(n)
