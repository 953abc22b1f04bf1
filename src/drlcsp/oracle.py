"""Brute-force ground truth: optimal solutions, equivalence, maximality.

Everything here enumerates every full assignment; the enforcement
algorithm is validated against it. `model.combined_value`, which folds
the combination product over the constraints one assignment at a time,
in `iter_constraints` order, is the reference. Here the same product is
taken over all assignments at once. Each constraint table, reshaped so
that its axes line up with the variables of its scope and broadcast over
the rest, is combined in with `acc = otimes[acc, table]`, starting from
the scalar top. The tables go in a stable sort by their last variable,
an empty scope first. On a DRL, ⊗ is a commutative monoid (the validated
load checks `otimes-commutative` and `otimes-associative`), so the order
does not change any assignment's product. It does bound the work: after
the tables whose last variable is k, `acc` spans at most the variables
0..k, so only the tables ending at the last variables are combined at
full size. One broadcast assignment then writes `acc` over all
assignments, which also covers the variables no table mentions. The
values of the assignments come out in canonical row-major order. The
fold indexes the algebra's own `intp` table, so tables and values are
`intp` arrays. A variable with one value adds no axis. Before any of
that, the number of assignments is checked against DEFAULT_TUPLE_CAP,
which raises TooLarge. So one fold covers the whole problem in at most
10**6 `intp` values (about 8 MB per array), and has at most 19 axes
(2**20 > 10**6); `check_equivalent` holds the values of both problems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator

import numpy as np

from .algebra import FiniteDRL
from .errors import ShapeMismatch, TooLarge
from .model import Assignment, Problem, RawProblem, _not_ids, iter_constraints

DEFAULT_TUPLE_CAP = 1_000_000


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


def _values(problem: Problem | RawProblem) -> np.ndarray:
    """Combined values of all full assignments, in canonical row-major order.

    A table holding a value that is not an element id raises ValueError
    naming the first such scope in store order.
    """
    alg = problem.algebra
    # A variable with one value gets no axis: its coordinate is always 0, so
    # every table keeps its row-major layout without it. With no axis left
    # the fold is 0-d: one assignment.
    axis = {}
    for v, size in enumerate(problem.domain_sizes):
        if size != 1:
            axis[v] = len(axis)
    sizes = [problem.domain_sizes[v] for v in axis]
    constraints = sorted(iter_constraints(problem), key=lambda c: c.scope[-1:])

    def past(values: np.ndarray) -> bool:
        # Read unsigned, a negative id, which would read otimes from its end,
        # is past the carrier too.
        return values.view(np.uintp).max(initial=0) >= alg.size

    # Every table's values in one array, range-tested once.
    flat = np.fromiter(itertools.chain.from_iterable(c.values for c in constraints), np.intp)
    if past(flat):
        store = problem.constraints
        raise _not_ids(next(c.scope for c in (store.values() if isinstance(store, dict) else store)
                            if past(np.fromiter(c.values, np.intp))))
    acc, start = np.intp(alg.top), 0
    for c in constraints:
        shape = [1] * len(sizes)
        for v in c.scope:
            if v in axis:
                shape[axis[v]] = sizes[axis[v]]
        table, start = flat[start:start + len(c.values)], start + len(c.values)
        acc = alg.otimes[acc, table.reshape(shape)]
    out = np.empty(sizes, dtype=np.intp)
    out[...] = acc
    return out.ravel()


def brute_force_solve(problem: Problem | RawProblem) -> SolutionSet:
    """Enumerate every full assignment and collect the maximal outcomes."""
    _check_size(problem.domain_sizes)
    alg = problem.algebra
    values = _values(problem)
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
    va, vb = _values(a), _values(b)
    differ = va != vb
    if not differ.any():
        return None
    i = int(differ.argmax())
    # Unravel i over the domain sizes, last variable fastest. numpy's
    # unravel_index would refuse more than 64 variables.
    rest, assignment = i, []
    for size in reversed(a.domain_sizes):
        rest, x = divmod(rest, size)
        assignment.append(x)
    return Counterexample(tuple(reversed(assignment)), int(va[i]), int(vb[i]))
