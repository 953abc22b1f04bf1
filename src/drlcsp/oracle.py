"""Brute-force ground truth: optimal solutions, equivalence, maximality.

Everything here enumerates every full assignment; the enforcement
algorithm is validated against it. `model.combined_value`, which folds
the combination product over the constraints one assignment at a time,
is the reference. Here the same fold runs over many assignments at once:
starting from top, each constraint table, reshaped so that its axes line
up with the variables of its scope and broadcast over the rest, is
combined in with `acc = otimes[acc, table]`, in `iter_constraints`
order. The values of the assignments come out in canonical row-major
order, in chunks of at most `_CHUNK` assignments: the leading variables
are enumerated in Python, so memory stays bounded whatever the size of
the problem. The fold indexes the algebra's own `intp` table, so tables
and values are `intp` arrays. A variable with one value adds no axis.
Before any of that, the number of assignments is checked against
DEFAULT_TUPLE_CAP, which raises TooLarge; so the fold over a problem
with any assignment has at most 19 axes (2**20 > 10**6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator

import numpy as np

from .algebra import FiniteDRL
from .errors import ShapeMismatch, TooLarge
from .model import Assignment, Problem, RawProblem, iter_constraints

DEFAULT_TUPLE_CAP = 1_000_000
# Most assignments evaluated by one broadcast fold.
_CHUNK = 4096


@dataclass(frozen=True)
class Counterexample:
    """Full assignment on which two problems disagree."""

    assignment: Assignment
    value_a: int
    value_b: int


@dataclass
class SolutionSet:
    """Maximal achievable values (an antichain) and the tuples achieving them."""

    optimal_values: list[int]
    solutions: list[Assignment]
    inconsistent: bool


def maximal_elements(algebra: FiniteDRL, values: Iterable[int]) -> list[int]:
    """Distinct input values with no other input value strictly above them."""
    vs = sorted(set(values))
    if not vs:
        raise ValueError("maximal_elements needs a nonempty input")
    v = np.array(vs)
    below = algebra.leq[v[:, None], v] & (v[:, None] != v)  # [i, j]: vs[i] < vs[j]
    return v[~below.any(axis=1)].tolist()


def iter_full_assignments(domain_sizes: tuple[int, ...]) -> Iterator[Assignment]:
    return itertools.product(*(range(size) for size in domain_sizes))


def _check_size(domain_sizes: tuple[int, ...]) -> None:
    if prod(domain_sizes) > DEFAULT_TUPLE_CAP:
        raise TooLarge(f"{prod(domain_sizes)} assignments exceed the cap {DEFAULT_TUPLE_CAP}")


def _value_chunks(problem: Problem | RawProblem) -> Iterator[np.ndarray]:
    """Combined values of all full assignments, in canonical order, chunk by chunk.

    Variable `cut`, the first whose successors together have at most
    `_CHUNK` assignments, is split into blocks of values; the variables
    before it are fixed one combination at a time, and the variables
    after it span their whole domains, so each chunk is a contiguous run
    of at most `_CHUNK` assignments.
    """
    alg = problem.algebra
    # A variable with one value gets no axis: its coordinate is always 0, so
    # every table keeps its row-major layout without it. With no axis left
    # there is one assignment.
    axis = {}
    for v, size in enumerate(problem.domain_sizes):
        if size != 1:
            axis[v] = len(axis)
    sizes = tuple(problem.domain_sizes[v] for v in axis) or (1,)
    n = len(sizes)
    cut = 0
    while prod(sizes[cut + 1:]) > _CHUNK:
        cut += 1
    block = _CHUNK // max(1, prod(sizes[cut + 1:]))  # the product is 0 for an empty domain

    # Each table gets one axis per leading variable of its scope, then one
    # axis per variable from `cut` on: its own size in the scope, else 1.
    tables = []
    for c in iter_constraints(problem):
        scope = [axis[v] for v in c.scope if v in axis]
        lead = tuple(v for v in scope if v < cut)
        shape = [sizes[v] for v in lead]
        shape += [sizes[v] if v in scope else 1 for v in range(cut, n)]
        table = np.array(c.values, dtype=np.intp).reshape(shape)
        tables.append((table, lead, cut in scope))

    for fixed in itertools.product(*(range(size) for size in sizes[:cut])):
        for lo in range(0, sizes[cut], block):
            hi = min(lo + block, sizes[cut])
            acc = np.full((hi - lo, *sizes[cut + 1:]), alg.top, dtype=np.intp)
            for table, lead, spans_cut in tables:
                index = tuple(fixed[v] for v in lead)
                index += (slice(lo, hi) if spans_cut else slice(None),)
                acc = alg.otimes[acc, table[index]]
            yield acc.ravel()


def brute_force_solve(problem: Problem | RawProblem) -> SolutionSet:
    """Enumerate every full assignment and collect the maximal outcomes."""
    _check_size(problem.domain_sizes)
    alg = problem.algebra
    # The empty leading array keeps the concatenation valid when there is no assignment.
    values = np.concatenate([np.empty(0, np.intp), *_value_chunks(problem)])
    occurring = np.flatnonzero(np.bincount(values, minlength=alg.size)).tolist()
    optimal = maximal_elements(alg, occurring)
    mask = np.zeros(alg.size, dtype=bool)
    mask[optimal] = True
    solutions = list(
        itertools.compress(iter_full_assignments(problem.domain_sizes), mask[values].tolist())
    )
    return SolutionSet(optimal, solutions, inconsistent=(optimal == [alg.bottom]))


def check_equivalent(a: Problem | RawProblem, b: Problem | RawProblem) -> Counterexample | None:
    """Compare combined values on every full assignment.

    Returns None when the problems agree everywhere, else the first
    disagreeing assignment in canonical enumeration order.
    """
    if a.domain_sizes != b.domain_sizes:
        raise ShapeMismatch("problems have different domains")
    if a.algebra != b.algebra:
        raise ShapeMismatch("problems use different algebras")
    _check_size(a.domain_sizes)
    start = 0
    for va, vb in zip(_value_chunks(a), _value_chunks(b)):
        differ = np.flatnonzero(va != vb)
        if differ.size:
            i = int(differ[0])
            assignment = np.unravel_index(start + i, a.domain_sizes)
            return Counterexample(tuple(map(int, assignment)), int(va[i]), int(vb[i]))
        start += va.size
    return None
