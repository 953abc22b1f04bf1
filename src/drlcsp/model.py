"""Soft CSP instances over a finite valuation algebra.

A problem holds one dense value table per constraint scope. Tables are
indexed in row-major order: the last variable of the (sorted) scope
varies fastest. Raw inputs may repeat scopes; `normalize` merges them,
fills in missing unary constraints, and drops domain values whose unary
value is bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterator

from .algebra import FiniteDRL

Scope = tuple[int, ...]
Assignment = tuple[int, ...]


@dataclass
class Constraint:
    """A scope (strictly increasing variable ids) plus its value table."""

    scope: Scope
    values: list[int]

    def copy(self) -> "Constraint":
        return Constraint(self.scope, list(self.values))


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

    def copy(self) -> "Problem":
        return Problem(
            self.algebra,
            self.domain_sizes,
            {scope: c.copy() for scope, c in self.constraints.items()},
        )


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


def fiber(scope: Scope, domain_sizes: tuple[int, ...], pos: int) -> tuple[list[int], int]:
    """Row-major layout of the fibers of coordinate `pos` of a scope's table.

    Returns (offsets, stride): the assignments fixing coordinate `pos` to
    value a sit at indices `off + a * stride` for `off` in offsets. The
    offsets follow the canonical order of the assignments to the other
    coordinates, and `stride` is the product of the sizes after `pos`,
    so consecutive runs of `stride` offsets share the coordinates before
    `pos`.
    """
    offsets = [0]
    acc = 1
    for j in range(len(scope) - 1, -1, -1):
        size = domain_sizes[scope[j]]
        if j == pos:
            stride = acc
        else:
            offsets = [v * acc + off for v in range(size) for off in offsets]
        acc *= size
    return offsets, stride


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
    otimes = alg.otimes
    merged: dict[Scope, list[int]] = {}
    for c in problem.constraints:
        prior = merged.get(c.scope)
        if prior is None:
            merged[c.scope] = list(c.values)
        else:
            for i, v in enumerate(c.values):
                prior[i] = otimes[prior[i]][v]

    sizes = problem.domain_sizes
    for var, size in enumerate(sizes):
        merged.setdefault((var,), [alg.top] * size)

    keep = [
        [a for a in range(size) if merged[(var,)][a] != alg.bottom]
        for var, size in enumerate(sizes)
    ]
    if any(not k for k in keep):
        return None

    if all(len(k) == s for k, s in zip(keep, sizes)):
        constraints = {scope: Constraint(scope, vals) for scope, vals in merged.items()}
        return Problem(alg, sizes, constraints)

    new_sizes = tuple(len(k) for k in keep)
    constraints = {}
    for scope, vals in merged.items():
        for pos, var in enumerate(scope):
            kept = keep[var]
            if len(kept) == sizes[var]:
                continue
            # Scopes are sorted, so the coordinates before `pos` are restricted already.
            offsets, stride = fiber(scope, new_sizes[:var] + sizes[var:], pos)
            vals = [
                vals[off + a * stride]
                for start in range(0, len(offsets), stride)
                for a in kept
                for off in offsets[start:start + stride]
            ]
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
    otimes = problem.algebra.otimes
    acc = problem.algebra.top
    for c in iter_constraints(problem):
        index = 0
        for var in c.scope:
            index = index * sizes[var] + assignment[var]
        acc = otimes[acc][c.values[index]]
    return acc


# ---------------------------------------------------------------------------
# Local consistency predicate


def is_k_hyperarc_consistent(problem: Problem, k: int) -> Violation | None:
    """Check the consistency equation on every stored scope of arity 2..k.

    For each variable i of such a scope and each domain value a with a
    non-bottom unary value, some extension tuple t must satisfy
    C_i(a) = C_i(a) * C_scope(t . a). Returns None when every point has
    a witness, else the first violation in canonical order (scopes
    sorted, then variable, then value).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    alg = problem.algebra
    otimes = alg.otimes
    for scope in sorted(problem.constraints):
        if not 2 <= len(scope) <= k:
            continue
        table = problem.constraints[scope].values
        for pos, var in enumerate(scope):
            unary = problem.unary(var).values
            offsets, stride = fiber(scope, problem.domain_sizes, pos)
            for a in range(problem.domain_sizes[var]):
                ua = unary[a]
                if ua == alg.bottom:
                    continue
                base = a * stride
                if not any(otimes[ua][table[off + base]] == ua for off in offsets):
                    return Violation(scope, var, a)
    return None
