"""k-hyperarc consistency enforcement.

The algorithm visits the variables once, in id order. For each stored
constraint of arity 2..k containing the visited variable, in sorted
scope order, it projects costs from the constraint table onto the
variable's unary constraint: a value x is chosen from the table entries
compatible with each domain value, the unary entry is multiplied by x,
and each of those table entries v is replaced by the residuum x -> v.
The run aborts as inconsistent as soon as every unary value of the
visited variable is bottom.

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

How x is chosen is configurable. On totally ordered algebras every
choice coincides (the candidate set has a maximum); on general lattices
the paired regression tests in the suite show that maximal-element
choices can break equivalence while the join choice can stall short of
consistency, so both are provided explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Problem, Scope, fiber
from .oracle import maximal_elements
from .rng import SplitMix64

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
        return maximal_seeded(int(text.split(":", 1)[1]))
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


def _select(algebra, candidates: list[int], strategy: Strategy, rng: SplitMix64 | None) -> int:
    if strategy.kind == "join":
        join = algebra.join
        acc = candidates[0]
        for v in candidates[1:]:
            acc = join[acc][v]
        return acc
    maximals = maximal_elements(algebra, candidates)
    if strategy.kind == "maximal-lex":
        chosen = set(maximals)
        return next(v for v in candidates if v in chosen)
    assert rng is not None
    return maximals[rng.below(len(maximals))]


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
    caller must hold exclusive access to the problem.
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
    bottom = alg.bottom
    otimes = alg.otimes
    residuum = alg.residuum
    offsets, stride = fiber(scope, problem.domain_sizes, scope.index(var))

    table = constraint.values
    unary = problem.unary(var).values
    shrank = False
    for a in range(problem.domain_sizes[var]):
        if unary[a] == bottom:
            continue
        indices = [off + a * stride for off in offsets]
        candidates = [table[i] for i in indices]
        x = _select(alg, candidates, strategy, rng)
        unary[a] = otimes[unary[a]][x]
        if unary[a] == bottom:
            shrank = True
        imp_x = residuum[x]
        for i in indices:
            table[i] = imp_x[table[i]]
        if counters is not None:
            counters.inner_tuple_iterations += 2 * len(indices)
    return shrank


def enforce_k_hyperarc(
    problem: Problem, k: int, strategy: Strategy = MAXIMAL_LEX
) -> EnforcementOutcome:
    """Run one sweep of the enforcement algorithm on a copy of the problem.

    Variables are visited once in id order, each projected against its
    stored scopes of arity 2..k in sorted scope order; the module
    docstring shows why a second visit would change nothing.
    Inconsistency is reported as soon as some variable has only bottom
    unary values. `main_loop_iterations` counts the visited variables,
    which is n on every run that ends consistent.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    work = problem.copy()
    bottom = work.algebra.bottom
    counters = Counters()
    rng = SplitMix64(strategy.seed) if strategy.kind == "maximal-seeded" else None

    scopes_by_var: dict[int, list[Scope]] = {i: [] for i in range(work.n)}
    for scope in sorted(work.constraints):
        if 2 <= len(scope) <= k:
            for v in scope:
                scopes_by_var[v].append(scope)

    for i in range(work.n):
        counters.main_loop_iterations += 1
        for scope in scopes_by_var[i]:
            project(work, scope, i, strategy, rng=rng, counters=counters)
            counters.project_calls += 1
            if all(v == bottom for v in work.unary(i).values):
                return EnforcementOutcome(True, None, counters)
    return EnforcementOutcome(False, work, counters)


def check_counter_bound(counters: Counters, n: int, d: int, e: int) -> bool:
    """Verify the sweep's bounds: at most n visits and n*e projections.

    The sweep visits each variable once and projects each stored scope
    at most once per visited variable. These bounds are stricter than
    the worklist form's n(d+1) visits and n(d+1)e projections, which
    allow d re-queues per variable. `d` is kept so that callers can pass
    the instance shape unchanged.
    """
    return counters.main_loop_iterations <= n and counters.project_calls <= n * e
