"""k-hyperarc consistency enforcement.

The algorithm visits the variables once, in id order. For each stored
constraint of arity 2..k containing the visited variable, in sorted
scope order, it projects costs from the constraint table onto the
variable's unary constraint: a value x is chosen from the table entries
compatible with each domain value, the unary entry is multiplied by x,
and each of those table entries v is replaced by the residuum x -> v.
The run aborts as inconsistent as soon as every unary value of the
visited variable is bottom.

`project` works on a row view of the table (`model.rows`): one row per
domain value of the variable, holding the entries compatible with it in
canonical tuple order. It chooses x for all live values (unary value
not bottom) at once and updates the rows with one residuum gather. The
maximal candidates of each row come from the strict order among the
distinct candidates, tested against a presence mask per row.

The worklist form of the algorithm re-queues a variable after one of
its unary values drops to bottom. Over a divisible residuated lattice
that second visit changes nothing, so one sweep reaches the same
result. Projections only raise table entries (x -> v >= v) and only
lower unary values. Take a repeated projection of a scope onto a
variable, at a value whose unary value u is not bottom:

- maximal-lex and maximal-seeded: the first projection rewrote its
  chosen entry to x -> x = top, and later rewrites z -> top keep it top.
  Top is then the only maximal candidate, and u * top = u, top -> v = v.
- join: the first projection chose x = join of the v_t and left the
  entries x -> v_t. Multiplication distributes over joins, divisibility
  gives x * (x -> v) = x meet v, and the lattice is distributive, so
  x * join(x -> v_t) = join(x meet v_t) = x. The elements y with
  y * x = x form an up-set closed under *. Projections onto the other
  variables of the scope turn each entry into (w_t * x) -> v_t, since
  z -> (a -> b) = (z * a) -> b, and only raise it, so the repeat's join
  y still satisfies y * x = x. Hence y -> ((w_t * x) -> v_t) =
  (w_t * x) -> v_t, and u, which has x as a factor, satisfies u * y = u.

A FIFO worklist makes every repeat visit after every first visit, so
the sweep also consumes the maximal-seeded random draws of the first
visits in the same order, and its outputs match the worklist's exactly.

A projection in which every live row already holds top changes
nothing. Top is above every candidate, so it is the only maximal one
and the join of its row: every strategy chooses x = top, and
maximal-seeded spends one draw, below(1), per live value. Then
u * top = u leaves the unary values and top -> v = v leaves the table.
Entries only rise, and x -> top = top, so a row that holds top keeps
it, and live sets only shrink: a pair (scope, variable) whose rows all
hold top in the input (`TableGroup.all_top`, found once per table
shape by `model.table_groups`) stays a no-op whenever the sweep gets
to it. That mask is the only skip. The sweep does not call `project`
on a marked pair and does only its bookkeeping: `project_calls`,
`inner_tuple_iterations` over the live rows, and under maximal-seeded
one skipped draw per live value. `project` itself has one path per
strategy. Outputs, counters and the seeded stream are those of calling
`project` on every pair; on randomly generated instances most pairs
are marked.

The sweep runs on a working copy whose tables are owned `intp` arrays,
converted once from the input's lists, those of one shape with one
`np.fromiter` into a stack whose rows are the tables; `project` updates
them in place and they go back to lists of Python ints at the end.

How x is chosen is configurable. On totally ordered algebras every
choice coincides (the candidate set has a maximum); on general lattices
the paired regression tests in the suite show that maximal-element
choices can break equivalence while the join choice can stall short of
consistency, so both are provided explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .model import Constraint, Problem, Scope, intp_array, rows, scope_sizes, table_groups
from .rng import SplitMix64, check_seed

_STRATEGY_KINDS = ("maximal-lex", "maximal-seeded", "join")


@dataclass(frozen=True)
class Strategy:
    """Rule for choosing x among the candidate table entries.

    maximal-lex: the maximal element first achieved in canonical tuple
    order. maximal-seeded: uniform among maximal elements, driven by a
    deterministic seeded generator. join: the join of all candidates.
    """

    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in _STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if (self.kind == "maximal-seeded") != (self.seed is not None):
            raise ValueError("exactly the maximal-seeded strategy takes a seed")
        if self.seed is not None:
            check_seed(self.seed)


MAXIMAL_LEX = Strategy("maximal-lex")
JOIN = Strategy("join")


def maximal_seeded(seed: int) -> Strategy:
    return Strategy("maximal-seeded", seed)


def parse_strategy(text: str) -> Strategy:
    """Parse 'maximal-lex', 'join', or 'maximal-seeded:SEED'."""
    if text == "maximal-lex":
        return MAXIMAL_LEX
    if text == "join":
        return JOIN
    if text.startswith("maximal-seeded:"):
        try:
            return maximal_seeded(int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise ValueError(f"cannot parse strategy {text!r}")


@dataclass
class Counters:
    main_loop_iterations: int = 0
    project_calls: int = 0
    inner_tuple_iterations: int = 0


@dataclass
class EnforcementOutcome:
    """Either an inconsistency verdict or the transformed problem."""

    inconsistent: bool
    problem: Problem | None
    counters: Counters = field(default_factory=Counters)


def project(
    problem: Problem,
    scope: Scope,
    var: int,
    strategy: Strategy = MAXIMAL_LEX,
    *,
    rng: SplitMix64 | None = None,
    counters: Counters | None = None,
) -> bool:
    """Project one constraint onto one of its variables, in place.

    Returns True iff some unary value of `var` dropped to bottom. The
    caller must hold exclusive access to the problem. Tables may be
    lists or `intp` arrays; an array is updated in place, a list gets
    its new values written back. There is one path per strategy: on
    rows that all hold top it chooses top and leaves both tables as they
    were, which is why the sweep may skip such a call (module docstring).
    """
    scope = tuple(scope)
    constraint = problem.constraints.get(scope)
    if constraint is None:
        raise ValueError(f"no constraint with scope {scope}")
    if var not in scope:
        raise ValueError(f"variable {var} is not in scope {scope}")
    if len(scope) < 2:
        raise ValueError("projection needs a scope of arity at least 2")
    if rng is None and strategy.kind == "maximal-seeded":
        rng = SplitMix64(strategy.seed)

    alg = problem.algebra
    unary_c = problem.unary(var)
    table = np.asarray(constraint.values)
    unary = np.asarray(unary_c.values)
    live = unary != alg.bottom
    sizes = scope_sizes(scope, problem.domain_sizes)
    index = rows(np.arange(table.size), sizes, scope.index(var))[live]
    cand = table[index]  # cand[r, t]: entry of tuple t at the r-th live value
    if counters is not None:
        counters.inner_tuple_iterations += 2 * cand.size

    if strategy.kind == "join":
        acc = cand
        while acc.shape[1] > 1:
            # For an odd width the halves share the middle column; join is idempotent.
            half = (acc.shape[1] + 1) // 2
            acc = alg.join[acc[:, :half], acc[:, -half:]]
        x = acc[:, 0]
    else:
        seen = np.zeros(alg.size, dtype=bool)
        seen[cand] = True
        vals = np.flatnonzero(seen)  # the distinct candidates, ascending
        inv = np.searchsorted(vals, cand)  # cand == vals[inv]
        leq = alg.leq[vals[:, None], vals]
        r = np.arange(len(cand))[:, None]
        present = np.zeros((len(cand), len(vals)), dtype=bool)
        present[r, inv] = True
        maximal = present & ~(present @ (leq & ~leq.T).T)  # [r, i]: vals[i] is maximal in row r
        if strategy.kind == "maximal-lex":
            x = cand[r[:, 0], maximal[r, inv].argmax(axis=1)]  # first maximal in tuple order
        else:
            # One draw per live value, in value order, over its ascending maximal values.
            maxima = [vals[row] for row in maximal]
            x = np.array([m[rng.below(len(m))] for m in maxima], dtype=np.intp)

    lowered = alg.otimes[unary[live], x]
    unary[live] = lowered
    table[index] = alg.residuum[x[:, None], cand]
    if table is not constraint.values:
        constraint.values[:] = table.tolist()
    if unary is not unary_c.values:
        unary_c.values[:] = unary.tolist()
    return bool((lowered == alg.bottom).any())


def enforce_k_hyperarc(
    problem: Problem, k: int, strategy: Strategy = MAXIMAL_LEX
) -> EnforcementOutcome:
    """Run one sweep of the enforcement algorithm on a copy of the problem.

    Variables are visited once in id order, each projected against its
    stored scopes of arity 2..k in sorted scope order; the module
    docstring shows why a second visit would change nothing.
    Inconsistency is reported as soon as the visited variable has only
    bottom unary values: after the projection that leaves it none, or at
    the end of its visit if it has no stored scope of arity 2..k.
    `main_loop_iterations` counts the visited variables,
    which is n on every run that ends consistent.

    The pairs flagged in `TableGroup.all_top` are skipped with their
    counters and draws; the module docstring shows that such a call
    could change nothing.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    groups = table_groups(problem, k)
    tables = {scope: table for group in groups for scope, table in zip(group.scopes, group.stack)}
    work = Problem(problem.algebra, problem.domain_sizes, {
        scope: Constraint(scope, tables[scope] if scope in tables else intp_array(c.values))
        for scope, c in problem.constraints.items()
    })
    bottom = work.algebra.bottom
    counters = Counters()
    rng = SplitMix64(strategy.seed) if strategy.kind == "maximal-seeded" else None

    # pairs[i]: (scope, whether all its rows at i hold top, row length), in sorted scope order
    pairs: list[list[tuple[Scope, bool, int]]] = [[] for _ in range(work.n)]
    for group in groups:
        for pos, marks in enumerate(group.all_top.tolist()):
            row_len = prod(group.sizes[:pos] + group.sizes[pos + 1:])
            for scope, skip in zip(group.scopes, marks):
                pairs[scope[pos]].append((scope, skip, row_len))
    for var_pairs in pairs:
        var_pairs.sort()

    for i in range(work.n):
        counters.main_loop_iterations += 1
        live = int(np.count_nonzero(work.unary(i).values != bottom))
        for scope, skip, row_len in pairs[i]:
            if skip:
                counters.inner_tuple_iterations += 2 * live * row_len
                if rng is not None:
                    rng.skip(live)
            elif project(work, scope, i, strategy, rng=rng, counters=counters):
                live = int(np.count_nonzero(work.unary(i).values != bottom))
            counters.project_calls += 1
            if not live:
                break
        if not live:
            return EnforcementOutcome(True, None, counters)
    for c in work.constraints.values():
        c.values = c.values.tolist()
    return EnforcementOutcome(False, work, counters)
