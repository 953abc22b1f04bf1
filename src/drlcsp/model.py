"""Soft CSP instances over a finite valuation algebra.

A problem holds one dense value table per constraint scope, as a
Python list of ints. Tables are indexed in row-major order: the last
variable of the (sorted) scope varies fastest, and `rows` views a table
as one row per value of one of its variables. Raw inputs may repeat
scopes; `normalize` merges them, fills in missing unary constraints,
and drops domain values whose unary value is bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import prod
from typing import Iterator

import numpy as np

from .algebra import FiniteDRL

Scope = tuple[int, ...]
Assignment = tuple[int, ...]


@dataclass
class Constraint:
    """A scope (strictly increasing variable ids) plus its value table."""

    scope: Scope
    values: list[int]


@dataclass
class Problem:
    """Normalized instance: at most one constraint per scope, keyed by scope."""

    algebra: FiniteDRL
    domain_sizes: tuple[int, ...]
    constraints: dict[Scope, Constraint] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.domain_sizes)

    def unary(self, var: int) -> Constraint:
        return self.constraints[(var,)]


@dataclass
class RawProblem:
    """Ingestion form: a plain list of constraints, duplicate scopes allowed."""

    algebra: FiniteDRL
    domain_sizes: tuple[int, ...]
    constraints: list[Constraint] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.domain_sizes)


@dataclass(frozen=True)
class Violation:
    """First point where the local consistency equation has no witness."""

    scope: Scope
    variable: int
    value: int


# ---------------------------------------------------------------------------
# Table layout


def scope_sizes(scope: Scope, domain_sizes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(domain_sizes[v] for v in scope)


def table_len(scope: Scope, domain_sizes: tuple[int, ...]) -> int:
    return prod(scope_sizes(scope, domain_sizes))


def intp_array(values: list[int]) -> np.ndarray:
    """A new `intp` array holding a table's values."""
    return np.fromiter(values, np.intp, len(values))


def rows(table: np.ndarray, sizes: tuple[int, ...], pos: int) -> np.ndarray:
    """A flat row-major table as one row per value of coordinate `pos`.

    `sizes` are the scope's domain sizes. The table is reshaped to them
    and axis `pos` is moved to the front, so row a holds the entries
    whose coordinate `pos` is a, in the canonical order of the other
    coordinates. The result may be a copy; to write through it, take the
    rows of `np.arange(len(table))` as indices.
    """
    order = (pos, *range(pos), *range(pos + 1, len(sizes)))
    return table.reshape(sizes).transpose(order).reshape(sizes[pos], -1)


@dataclass
class TableGroup:
    """The stored scopes of one table shape, with their tables stacked.

    `stack[j]` is a new `intp` copy of the table of `scopes[j]`, and
    `all_top[pos, j]` says whether every row of that table at coordinate
    `pos` (see `rows`) holds top. A row that holds top has the witness
    top, since u * top = u and top -> v = v, so where the flag is set a
    projection onto that coordinate, or a witness test there, is a
    no-op; this flag is the one place that decides it.
    """

    sizes: tuple[int, ...]
    scopes: list[Scope]
    stack: np.ndarray
    all_top: np.ndarray


def table_groups(problem: Problem, k: int) -> list[TableGroup]:
    """The stored scopes of arity 2..k, grouped by their `sizes`.

    Each group's tables are read with one `np.fromiter` into an
    `[m, prod(sizes)]` array, and `all_top` is found with one reduction
    per coordinate, so the cost per group does not grow with m in numpy
    calls. Scopes keep the constraint store's order.
    """
    by_sizes: dict[tuple[int, ...], list[Scope]] = {}
    for scope in problem.constraints:
        if 2 <= len(scope) <= k:
            by_sizes.setdefault(scope_sizes(scope, problem.domain_sizes), []).append(scope)
    top = problem.algebra.top
    groups = []
    for sizes, scopes in by_sizes.items():
        m, length = len(scopes), prod(sizes)
        values = chain.from_iterable([problem.constraints[s].values for s in scopes])
        stack = np.fromiter(values, np.intp, m * length).reshape(m, length)
        held = (stack == top).reshape(m, *sizes)
        axes = range(1, len(sizes) + 1)  # those of the coordinates in `held`
        all_top = np.array([
            held.any(axis=tuple(a for a in axes if a != pos + 1)).all(axis=1) for pos in range(len(sizes))
        ])
        groups.append(TableGroup(sizes, scopes, stack, all_top))
    return groups


# ---------------------------------------------------------------------------
# Normalization


def normalize(problem: RawProblem) -> Problem | None:
    """Collapse a raw constraint list into a normalized problem.

    Duplicate scopes merge pointwise under the combination product,
    missing unary constraints are added as constant top, and domain
    values whose unary value is bottom are removed (all tables are
    re-projected onto the surviving values). Returns None when a domain
    empties, which makes the instance unsatisfiable outright.
    """
    alg = problem.algebra
    merged: dict[Scope, list[int]] = {}
    for c in problem.constraints:
        prior = merged.get(c.scope)
        merged[c.scope] = list(c.values) if prior is None else alg.otimes[prior, c.values].tolist()

    sizes = problem.domain_sizes
    for var, size in enumerate(sizes):
        merged.setdefault((var,), [alg.top] * size)

    keep = [
        [a for a in range(size) if merged[(var,)][a] != alg.bottom]
        for var, size in enumerate(sizes)
    ]
    if any(not k for k in keep):
        return None

    new_sizes = tuple(len(k) for k in keep)
    shrunk = {var for var, size in enumerate(sizes) if new_sizes[var] != size}
    constraints = {}
    for scope, vals in merged.items():
        if not shrunk.isdisjoint(scope):
            table = np.reshape(vals, scope_sizes(scope, sizes))
            vals = table[np.ix_(*(keep[v] for v in scope))].ravel().tolist()
        constraints[scope] = Constraint(scope, vals)
    return Problem(alg, new_sizes, constraints)


# ---------------------------------------------------------------------------
# Valuation


def iter_constraints(problem: Problem | RawProblem) -> Iterator[Constraint]:
    store = problem.constraints
    if isinstance(store, dict):
        for scope in sorted(store):
            yield store[scope]
    else:
        yield from store


def combined_value(problem: Problem | RawProblem, assignment: Assignment) -> int:
    """Fold the combination product over every constraint's value at the tuple."""
    if len(assignment) != problem.n:
        raise ValueError("assignment must cover every variable")
    sizes = problem.domain_sizes
    # A negative value would index a table from its end.
    if any(not 0 <= v < size for v, size in zip(assignment, sizes)):
        raise ValueError("assignment has a value outside its variable's domain")
    otimes = problem.algebra.otimes
    acc = problem.algebra.top
    for c in iter_constraints(problem):
        index = 0
        for var in c.scope:
            index = index * sizes[var] + assignment[var]
        acc = otimes[acc, c.values[index]]
    return int(acc)


# ---------------------------------------------------------------------------
# Local consistency predicate


def is_k_hyperarc_consistent(problem: Problem, k: int) -> Violation | None:
    """Check the consistency equation on every stored scope of arity 2..k.

    For each variable i of such a scope and each domain value a with a
    non-bottom unary value, some extension tuple t must satisfy
    C_i(a) = C_i(a) * C_scope(t . a). Returns None when every point has
    a witness, else the first violation in canonical order (scopes
    sorted, then variable, then value).

    A scope whose rows all hold top at every coordinate
    (`TableGroup.all_top`) has the witness top everywhere, so it is
    settled with no gather. The other scopes are visited one by one, in
    sorted order, with one witness test per variable.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    alg = problem.algebra
    unsettled = []
    for group in table_groups(problem, k):
        settled = group.all_top.all(axis=0)
        unsettled += [(group.scopes[j], group.stack[j]) for j in np.flatnonzero(~settled).tolist()]
    unsettled.sort(key=lambda item: item[0])
    unary: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for scope, table in unsettled:
        sizes = scope_sizes(scope, problem.domain_sizes)
        for pos, var in enumerate(scope):
            if var not in unary:
                u = intp_array(problem.unary(var).values)
                unary[var] = (u[:, None], u == alg.bottom)
            u, dead = unary[var]
            witnessed = dead | (alg.otimes[u, rows(table, sizes, pos)] == u).any(axis=1)
            if not witnessed.all():
                return Violation(scope, var, int(witnessed.argmin()))
    return None
