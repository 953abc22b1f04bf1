"""Soft CSP instances over a finite valuation algebra.

A problem holds one dense value table per constraint scope, as a
Python list of ints. Tables are indexed in row-major order: the last
variable of the (sorted) scope varies fastest, and `row_index` lays a
table out as one row per value of one of its variables. Raw inputs may
repeat scopes; `normalize` merges them, fills in missing unary
constraints, and drops domain values whose unary value is bottom.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from math import prod
from typing import Iterator

import numpy as np

from .algebra import FiniteDRL, _in_carrier

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


def _not_ids(scope) -> ValueError:
    return ValueError(f"scope {scope} has values that are not element ids")


def _packed_ids(scope, values) -> bytes:
    """The table `values` of `scope` as little-endian 16-bit element ids,
    packed by one struct call.

    CARRIER_CAP (4096) keeps every element id below 2**16. Raises
    ValueError naming the scope for a value struct refuses: a float,
    a string, None, a list, or an int outside [0, 2**16). struct takes
    True and False as 1 and 0, so a caller that must refuse booleans
    tests for them itself.
    """
    try:
        return struct.pack(f"<{len(values)}H", *values)
    except struct.error:
        raise _not_ids(scope) from None


def _first_past(packed: list[bytes], size: int) -> int | None:
    """The index of the first of the packed tables (`_packed_ids`) that
    holds an id >= `size`, or None; one range test covers every table."""
    ids = np.frombuffer(b"".join(packed), "<u2")
    if ids.max(initial=0) < size:
        return None
    ends = np.cumsum([len(p) // 2 for p in packed])
    return int(np.searchsorted(ends, np.argmax(ids >= size), side="right"))


def _refuse_past(packed: dict[Scope, bytes], size: int) -> None:
    first = _first_past(list(packed.values()), size)
    if first is not None:
        raise _not_ids(list(packed)[first])


def row_index(sizes: tuple[int, ...], pos: int, live: np.ndarray | None = None) -> np.ndarray:
    """Flat row-major positions of a table of `sizes`, one row per value of
    coordinate `pos` in the canonical order of the other coordinates, and
    only the rows of the values set in the bool mask `live` when given.
    """
    order = (pos, *range(pos), *range(pos + 1, len(sizes)))
    index = np.arange(prod(sizes)).reshape(sizes).transpose(order).reshape(sizes[pos], -1)
    return index if live is None else index[live]


@dataclass
class TableGroup:
    """The stored scopes of one table shape, with their tables stacked.

    `stack[j]` is a new `intp` copy of the table of `scopes[j]`, read
    from its packed ids (`_packed_ids`), and
    `all_top[pos, j]` says whether every row of that table at coordinate
    `pos` (see `row_index`) holds top. A row that holds top has the witness
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

    Each of these tables and each unary table is packed to 16-bit ids
    with one struct call (`_packed_ids`), in store order, and all of them
    are range-tested with one `max`; a value that is not an element id
    below the algebra's size raises ValueError naming the first such
    scope in store order. Each group's packed tables are then read with
    one `np.frombuffer` and widened into an `[m, prod(sizes)]` `intp`
    array. `all_top` is found with one row gather and reduction per
    coordinate, so the cost per group does not grow with m in numpy
    calls. Scopes keep the constraint store's order.
    """
    by_sizes: dict[tuple[int, ...], list[Scope]] = {}
    packed: dict[Scope, bytes] = {}
    size, top = problem.algebra.size, problem.algebra.top
    try:
        for scope, c in problem.constraints.items():
            if 1 <= len(scope) <= k:
                packed[scope] = _packed_ids(scope, c.values)
                if len(scope) > 1:
                    by_sizes.setdefault(scope_sizes(scope, problem.domain_sizes), []).append(scope)
    except ValueError:
        _refuse_past(packed, size)  # an earlier table past the carrier is named first
        raise
    _refuse_past(packed, size)
    groups = []
    for sizes, scopes in by_sizes.items():
        m, length = len(scopes), prod(sizes)
        ids = np.frombuffer(b"".join([packed[s] for s in scopes]), "<u2")
        stack = ids.astype(np.intp).reshape(m, length)
        held = stack == top
        all_top = np.array([
            held.take(row_index(sizes, pos), axis=1).any(axis=2).all(axis=1) for pos in range(len(sizes))
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
    empties, which makes the instance unsatisfiable outright. A merged
    table holding a value that is not an element id raises ValueError
    naming its scope.
    """
    alg = problem.algebra
    merged: dict[Scope, list[int]] = {}
    for c in problem.constraints:
        prior = merged.get(c.scope)
        if prior is None:
            merged[c.scope] = list(c.values)
            continue
        pair = np.array((prior, c.values))
        if not _in_carrier(pair, alg.size):  # a negative id would read otimes from its end
            raise _not_ids(c.scope)
        merged[c.scope] = alg.otimes[pair[0], pair[1]].tolist()

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
    """Fold the combination product over every constraint's value at the tuple.

    ValueError is raised for an assignment outside the domains, and for
    a value read that is not an element id, naming its scope.
    """
    if len(assignment) != problem.n:
        raise ValueError("assignment must cover every variable")
    sizes = problem.domain_sizes
    # A negative value would index a table from its end.
    if any(not 0 <= v < size for v, size in zip(assignment, sizes)):
        raise ValueError("assignment has a value outside its variable's domain")
    otimes, ids = problem.algebra.otimes, problem.algebra.size
    acc = problem.algebra.top
    for c in iter_constraints(problem):
        index = 0
        for var in c.scope:
            index = index * sizes[var] + assignment[var]
        value = c.values[index]
        if not 0 <= value < ids:  # likewise a table value, which indexes otimes
            raise _not_ids(c.scope)
        acc = otimes[acc, value]
    return int(acc)


# ---------------------------------------------------------------------------
# Local consistency predicate


def is_k_hyperarc_consistent(problem: Problem, k: int) -> Violation | None:
    """Check the consistency equation on every stored scope of arity 2..k.

    Every variable must keep a live value (unary value not bottom), else
    its unary scope fails at value 0. For each variable i of a scope of
    arity 2..k and each live value a, some extension tuple t must satisfy
    C_i(a) = C_i(a) * C_scope(t . a). Returns None when every point has
    a witness, else the first violation in canonical order (scopes
    sorted, unary ones among them, then variable, then value).

    A scope whose rows all hold top at every coordinate
    (`TableGroup.all_top`) has the witness top everywhere, so it is
    settled with no gather. The other scopes are visited one by one, in
    sorted order, with one witness test per variable.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    alg = problem.algebra
    unsettled = [((v,), None) for v, size in enumerate(problem.domain_sizes)
                 if problem.unary(v).values.count(alg.bottom) == size]  # no live value
    for group in table_groups(problem, k):
        settled = group.all_top.all(axis=0)
        unsettled += [(group.scopes[j], group.stack[j]) for j in np.flatnonzero(~settled).tolist()]
    unsettled.sort(key=lambda item: item[0])
    unary: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for scope, table in unsettled:
        if table is None:
            return Violation(scope, scope[0], 0)
        sizes = scope_sizes(scope, problem.domain_sizes)
        for pos, var in enumerate(scope):
            if var not in unary:
                u = intp_array(problem.unary(var).values)
                live = u != alg.bottom
                unary[var] = (live, u[live, None])
            live, u = unary[var]
            witnessed = (alg.otimes[u, table[row_index(sizes, pos, live)]] == u).any(axis=1)
            if not witnessed.all():
                return Violation(scope, var, int(np.flatnonzero(live)[witnessed.argmin()]))
    return None
