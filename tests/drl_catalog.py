"""Enumerate every finite divisible residuated lattice (DRL) of carrier
2..max_size, up to isomorphism.

The lattice reduct of a DRL is distributive (GJKO07), so its order is
one of `lattice_catalog.distributive_lattices`. Its product is
residuated, so it preserves joins and has bottom as annihilator. In a
finite distributive lattice every element is the join of the
join-irreducibles J below it, and each of them is join-prime, so a
join-preserving commutative product is the join extension of its values
on J x J, and every such extension preserves joins. With top as its
identity and monotone, the product has x * y <= x meet y. So the search
runs over the symmetric J x J tables with j * k <= j meet k (and
j * top = j when top is in J), keeps the extensions that are
associative and have top as identity, takes each residuum pointwise as
the join of the z with x * z <= y, and keeps the products that are
divisible. Two products that a lattice automorphism
maps onto each other give one DRL. Nothing here calls the library's
law checker or derivations: meets, joins and residua are computed from
the order directly.

The expected counts by carrier are 1, 2, 5, 10 and 23 for 2..6, of
which 2**(n-2) are chains.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

import drlcsp as d
from lattice_catalog import distributive_lattices


def lattice_ops(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(meet, join) of the lattice order L, each bound read off the order
    point by point."""
    n = len(L)

    def bound(x: int, y: int, lower: bool) -> int:
        common = np.flatnonzero(L[:, x] & L[:, y]) if lower else np.flatnonzero(L[x] & L[y])
        return int(next(b for b in common if all(L[c, b] if lower else L[b, c] for c in common)))

    return tuple(np.array([[bound(x, y, lower) for y in range(n)] for x in range(n)])
                 for lower in (True, False))


def _products(L: np.ndarray, meet: np.ndarray, join: np.ndarray, top: int, bottom: int) -> np.ndarray:
    """Every associative, join-preserving commutative product with identity
    `top` on the lattice L, as a stack of n x n tables (duplicates removed)."""
    n = len(L)
    strict = L & ~np.eye(n, dtype=bool)
    covers = strict & ~((strict.astype(int) @ strict.astype(int)) > 0)
    J = np.flatnonzero(covers.sum(axis=0) == 1)
    pairs = [(j, k) for j in J for k in J if j <= k]
    # top * k = k when top is join-irreducible, as in a chain.
    choices = [[meet[j, k]] if top in (j, k) else np.flatnonzero(L[:, meet[j, k]]) for j, k in pairs]
    values = np.array(list(itertools.product(*choices)), dtype=np.intp).reshape(-1, len(pairs))
    on_j = {}
    for (j, k), column in zip(pairs, values.T):
        on_j[j, k] = on_j[k, j] = column
    full = np.full((len(values), n, n), bottom, dtype=np.intp)
    for x, y in itertools.product(range(n), repeat=2):
        for j, k in itertools.product(J[L[J, x]], J[L[J, y]]):
            full[:, x, y] = join[full[:, x, y], on_j[j, k]]
    full = np.unique(full[(full[:, top] == np.arange(n)).all(axis=1)], axis=0)
    r = np.arange(len(full))[:, None, None, None]
    x, y, z = np.ogrid[:n, :n, :n]
    left = full[r, full[r, x, y], z]
    right = full[r, x, full[r, y, z]]
    return full[(left == right).reshape(len(full), -1).all(axis=1)]


def _residuum(L: np.ndarray, join: np.ndarray, otimes: np.ndarray, bottom: int) -> np.ndarray:
    n = len(L)
    R = np.full((n, n), bottom, dtype=np.intp)
    for x, y, z in itertools.product(range(n), repeat=3):
        if L[otimes[x, z], y]:
            R[x, y] = join[R[x, y], z]
    return R


def _canonical(table: np.ndarray, automorphisms: list[np.ndarray]) -> bytes:
    return min(p[table][np.ix_(np.argsort(p), np.argsort(p))].tobytes() for p in automorphisms)


@lru_cache(maxsize=None)
def drls(max_size: int = 6) -> tuple[d.FiniteDRL, ...]:
    """Every DRL of carrier 2..max_size up to isomorphism, each on the order
    of its `distributive_lattices` entry, named after it."""
    out = []
    for lattice_name, rows in distributive_lattices(max_size):
        L = np.array(rows, dtype=bool)
        n = len(L)
        if n < 2:
            continue
        bottom = int(np.flatnonzero(L.all(axis=1))[0])
        top = int(np.flatnonzero(L.all(axis=0))[0])
        meet, join = lattice_ops(L)
        automorphisms = [np.array(p) for p in itertools.permutations(range(n))
                         if (L[np.ix_(p, p)] == L).all()]
        seen = set()
        for otimes in _products(L, meet, join, top, bottom):
            key = _canonical(otimes, automorphisms)
            if key in seen:
                continue
            seen.add(key)
            R = _residuum(L, join, otimes, bottom)
            if all(meet[x, y] == otimes[x, R[x, y]] for x, y in itertools.product(range(n), repeat=2)):
                name = f"{lattice_name}*{len(out)}"
                out.append(d.FiniteDRL(n, L, meet, join, otimes, R, top, bottom, name))
    return tuple(out)
