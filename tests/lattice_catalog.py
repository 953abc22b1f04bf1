"""Enumerate all finite lattices, and all finite distributive lattices,
up to a size bound.

Every finite distributive lattice is the lattice of down-sets of the
poset of its join-irreducible elements, so enumerating posets on at
most size-1 points and deduplicating the resulting down-set lattices
up to isomorphism yields the complete catalog. The expected counts by
size are 1, 1, 1, 2, 3, 5 for sizes 1..6.

Every finite lattice of size n >= 2 is a poset on n-2 points with a new
bottom and top that has binary joins; the expected counts by size are
1, 1, 1, 2, 5, 15 for sizes 1..6.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

BoolRows = tuple[tuple[bool, ...], ...]


def _posets_on(k: int):
    """All strict orders on range(k) that respect the numeric order.

    Every poset on k points can be relabeled this way, so the list is
    complete up to isomorphism (with duplicates).
    """
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, bits) if b}
        if all(
            (a, c) in rel
            for (a, b) in rel
            for (b2, c) in rel
            if b == b2
        ):
            yield rel


def _downsets(k: int, rel: set[tuple[int, int]]) -> list[frozenset[int]]:
    below = {j: {i for i in range(k) if (i, j) in rel} for j in range(k)}
    out = []
    for bits in itertools.product((False, True), repeat=k):
        s = {i for i, b in enumerate(bits) if b}
        if all(below[j] <= s for j in s):
            out.append(frozenset(s))
    return out


def _canonical(leq: BoolRows) -> BoolRows:
    n = len(leq)
    best = None
    for perm in itertools.permutations(range(n)):
        image = tuple(tuple(leq[perm[i]][perm[j]] for j in range(n)) for i in range(n))
        if best is None or image < best:
            best = image
    return best


@lru_cache(maxsize=None)
def distributive_lattices(max_size: int = 6) -> tuple[tuple[str, BoolRows], ...]:
    """Return (name, leq) for every distributive lattice with <= max_size elements."""
    seen: dict[BoolRows, str] = {}
    max_points = max_size - 1
    for k in range(max_points + 1):
        for rel in _posets_on(k):
            downsets = _downsets(k, rel)
            if len(downsets) > max_size:
                continue
            downsets.sort(key=lambda s: (len(s), sorted(s)))
            leq = tuple(
                tuple(a <= b for b in downsets) for a in downsets
            )
            key = _canonical(leq)
            if key not in seen:
                seen[key] = f"dlat(n={len(downsets)},#{len(seen)})"
    ordered = sorted(seen.items(), key=lambda item: (len(item[0]), item[0]))
    return tuple((name, leq) for leq, name in ordered)


def _has_binary_joins(leq: BoolRows) -> bool:
    n = len(leq)
    for x, y in itertools.combinations(range(n), 2):
        upper = [z for z in range(n) if leq[x][z] and leq[y][z]]
        if not any(all(leq[u][v] for v in upper) for u in upper):
            return False
    return True


@lru_cache(maxsize=None)
def lattices(max_size: int = 6) -> tuple[tuple[str, BoolRows], ...]:
    """Return (name, leq) for every lattice with <= max_size elements.

    Element 0 is the bottom, element n-1 the top, and the ids follow a
    linear extension of the order. A finite bounded poset with binary
    joins is a lattice.
    """
    seen: set[BoolRows] = set()
    out = []
    for n in range(1, max_size + 1):
        for rel in _posets_on(max(n - 2, 0)):
            leq = tuple(
                tuple(x == y or x == 0 or y == n - 1 or (x - 1, y - 1) in rel for y in range(n))
                for x in range(n)
            )
            key = _canonical(leq)
            if key not in seen and _has_binary_joins(leq):
                seen.add(key)
                out.append((f"lat(n={n},#{len(out)})", leq))
    return tuple(out)
