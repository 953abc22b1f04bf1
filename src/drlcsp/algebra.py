"""Finite divisible residuated lattices as dense operation tables.

Elements are integer ids 0..size-1 and every operation is a full table,
so all laws can be checked exhaustively and bit-exactly. A `FiniteDRL`
holds its tables as read-only numpy arrays (`leq` bool, the others
`intp`), checked for shape and range once, when it is built; every
layer indexes those arrays directly. Constructors cover the standard
chain families (Goedel, Lukasiewicz, weighted cost chains), Heyting
algebras over finite distributive lattices, and direct products. The
residuum table is never taken on trust: it is derived from the order
and the product as x -> y = the greatest z with x * z <= y, taken as the
admitted z of highest linear-extension rank (one row gather per x), and
validated by the law checker's residuation decision, the Galois
connection x * _ -| x -> _ decided on a partial order in O(n**2 + n *
|covers|) (`_residuated`); the blocked evaluator runs on another order
and to find a failing triple. Heyting distributivity is decided that
way too: a finite lattice is distributive exactly when its meet has a
residuum. An algebra keeps that proof as its `residuation` fact. The
chains, the weighted chains and every loaded algebra are built by one
completion step, `_completed`, which keeps it when it derived the
residuum; `heyting_from_lattice` keeps its own. The order and lattice
proofs of `derive_lattice` are not kept, since no workload loads a file
without a lattice.

The law check decides most laws on whole tables, each from a premise
that every DRL meets, read off facts that one check computes at most
once each, on first use. The boolean facts (the partial-order test,
the glb and lub decisions, commutativity, residuation, divisibility and
associativity of the product) are kept with the algebra, whose tables
are read-only, and later checks of it read them; the n x n arrays
behind them are rebuilt. One count product `between = L @ L` gives
the partial-order test and the covering pairs; reflexivity,
antisymmetry, transitivity and the bounds read the diagonal, that
test, one row or one column; the identity and divisibility laws read
the tables. Meets and joins are decided by counting common bounds, on
a partial order; monotonicity from residuation and
commutativity on a partial order (residuation gives y <= z -> (z*y),
so x <= y gives z*x <= z*y); distributivity over joins from
residuation on a partial order; `join`'s associativity from `join`
giving the lubs of a partial order. After a `drl` check, whose kept
facts hold these premises, the other profiles of a DRL run no count
product. Associativity of the product is checked on the
join-irreducibles J alone (the elements with exactly one lower cover)
when the order is partial, `bottom` is least, `join` gives the lubs,
the product commutes and residuation holds: x * _ is then a left
adjoint, so it preserves every join, the empty one included, and so
does _ * x; both sides of the law preserve joins in each argument, and
every element is the join of the members of J below it. The residuum
exchange law follows for y <= z from associativity, divisibility and
z meet y = y, as (x*z)*(z->y) = x*(z*(z->y)) = x*(z meet y) = x*y.
Each of these returns True only when its law holds at every point.
Every other law, and a law whose premise fails, goes to the blocked
evaluator, which visits all size**3 points in blocks of
max(1, 2**18 // size**2) leading x values and returns the
lexicographically least failing point. Every `drl` law has a decision,
so a `drl` check of a DRL runs no evaluator. No temporary array exceeds
max(2**18, size**2) entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import (
    NotALattice,
    NotBounded,
    NotDistributive,
    ResiduationFails,
    SizeOverflow,
)

# The largest carrier a constructor builds or a file may declare.
CARRIER_CAP = 4096

# Laws are evaluated on blocks of about this many (x, y, z) points.
_POINT_BUDGET = 1 << 18

_TABLES = ("leq", "meet", "join", "otimes", "residuum")


def _in_carrier(table: np.ndarray, n: int) -> bool:
    """Whether every entry is an integer id below n; fractions and ints too
    large for a machine integer are not."""
    # Read as unsigned, a negative id (or a uint64 past 2**63 - 1, which the
    # cast wraps to one) is at least 2**63, so one pass tests both ends.
    return table.dtype.kind in "biu" and (
        table.astype(np.intp, copy=False).view(np.uintp).max() < n
    )


def _element_id(v, n: int) -> int:
    # A bool would index numpy arrays as a mask and pass every law vacuously.
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < n:
        raise ValueError("top/bottom out of range")
    return int(v)


@dataclass(frozen=True, eq=False)
class FiniteDRL:
    """A finite valuation structure: bounded lattice + residuated monoid.

    `leq` is the order relation, `meet`/`join` its lattice operations,
    `otimes` the combination monoid with identity `top` and annihilator
    `bottom`, and `residuum` the adjoint of `otimes`. Any nested
    sequences are accepted; they are stored as read-only n x n arrays,
    and ValueError is raised unless each is n x n with integer entries
    in the carrier and `top`/`bottom` are element ids. A fresh read-only
    array of the stored dtype, such as `load_algebra` builds, is kept
    without a copy, as is the array built here from a sequence; a
    writable array is copied. The laws are not checked here (see
    `check_axioms`). The label `name` does not take part in equality.
    """

    size: int
    leq: np.ndarray
    meet: np.ndarray
    join: np.ndarray
    otimes: np.ndarray
    residuum: np.ndarray
    top: int
    bottom: int
    name: str = ""
    # The boolean law-check facts decided on these tables, by name; see `_Facts`.
    _facts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n = self.size
        if n < 1:
            raise ValueError("carrier must have at least one element")
        for key in ("top", "bottom"):
            object.__setattr__(self, key, _element_id(getattr(self, key), n))
        arrays = {}
        for key in _TABLES:
            table = getattr(self, key)
            try:
                arr = np.asarray(table)  # no dtype: fractions and huge ints must not be cast away
            except ValueError:  # ragged rows
                arr = None
            if arr is None or arr.shape != (n, n):
                raise ValueError(f"{key} table is not {n}x{n}")
            arrays[key] = arr
        for key, arr in arrays.items():
            if key != "leq" and not _in_carrier(arr, n):
                raise ValueError(f"{key} table has entries outside the carrier")
            # Copy what the caller could still write to; keep fresh and read-only arrays.
            copy = arr is getattr(self, key) and arr.flags.writeable
            arr = arr.astype(bool if key == "leq" else np.intp, copy=copy)
            arr.flags.writeable = False
            object.__setattr__(self, key, arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteDRL):
            return NotImplemented
        if self is other:
            return True
        return (self.size, self.top, self.bottom) == (other.size, other.top, other.bottom) and all(
            np.array_equal(getattr(self, key), getattr(other, key)) for key in _TABLES
        )

    def __hash__(self) -> int:
        return hash((self.size, self.top, self.bottom, self.otimes.tobytes()))

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return f"FiniteDRL({label}, size={self.size})"


@dataclass(frozen=True)
class VarietyFlags:
    """Outcome of exhaustively evaluating the subvariety equations."""

    prelinear: bool
    idempotent: bool
    involutive: bool
    chain: bool
    variety_name: str


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    counterexample: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class AxiomReport:
    profile: str
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


# ---------------------------------------------------------------------------
# The exhaustive law checker


def _first_failure(a, law: Callable) -> tuple[int, int, int] | None:
    """The lexicographically least (x, y, z) falsifying `law`, or None, by the
    blocked evaluator. `a` is an algebra, or any object with the `size`, tables
    and elements that the law reads. A law is written with numpy-compatible
    operations, so it evaluates pointwise on ints and broadcast on index grids.
    """
    n = a.size
    ids = np.arange(n)
    ys, zs = ids[None, :, None], ids[None, None, :]
    block = _block_rows(n)
    for start in range(0, n, block):
        xs = ids[start:start + block, None, None]
        res = np.asarray(law(a, xs, ys, zs))
        if not res.all():
            full = np.broadcast_to(res, (len(xs), n, n))
            x, y, z = np.unravel_index(np.argmin(full), full.shape)  # first False
            return start + int(x), int(y), int(z)
    return None


def _block_rows(n: int) -> int:
    """Leading x values per block, so a block holds about _POINT_BUDGET points."""
    return max(1, _POINT_BUDGET // (n * n))


def _implies(p, q):
    return ~np.asarray(p) | np.asarray(q)


# Core laws: bounded lattice induced by leq plus the residuated monoid.

def _law_leq_reflexive(a, x, y, z):
    return a.leq[x, x]


def _law_leq_antisymmetric(a, x, y, z):
    return _implies(a.leq[x, y] & a.leq[y, x], x == y)


def _law_leq_transitive(a, x, y, z):
    return _implies(a.leq[x, y] & a.leq[y, z], a.leq[x, z])


def _law_bottom_least(a, x, y, z):
    return a.leq[a.bottom, x]


def _law_top_greatest(a, x, y, z):
    return a.leq[x, a.top]


def _law_meet_is_glb(a, x, y, z):
    m = a.meet[x, y]
    lower = a.leq[z, x] & a.leq[z, y]
    return a.leq[m, x] & a.leq[m, y] & _implies(lower, a.leq[z, m])


def _law_join_is_lub(a, x, y, z):
    j = a.join[x, y]
    upper = a.leq[x, z] & a.leq[y, z]
    return a.leq[x, j] & a.leq[y, j] & _implies(upper, a.leq[j, z])


def _law_otimes_commutative(a, x, y, z):
    return a.otimes[x, y] == a.otimes[y, x]


def _law_otimes_associative(a, x, y, z):
    return a.otimes[a.otimes[x, y], z] == a.otimes[x, a.otimes[y, z]]


def _law_otimes_identity(a, x, y, z):
    return a.otimes[x, a.top] == x


def _law_residuation(a, x, y, z):
    return a.leq[a.otimes[x, z], y] == a.leq[z, a.residuum[x, y]]


def _law_divisibility(a, x, y, z):
    return a.meet[x, y] == a.otimes[x, a.residuum[x, y]]


# Derived laws: consequences of the core laws, checked to validate tables
# (and the checker itself) independently.

def _law_otimes_annihilator(a, x, y, z):
    return a.otimes[x, a.bottom] == a.bottom


def _law_otimes_monotone(a, x, y, z):
    return _implies(a.leq[x, y], a.leq[a.otimes[x, z], a.otimes[y, z]])


def _law_residuum_characterizes_order(a, x, y, z):
    return a.leq[x, y] == (a.residuum[x, y] == a.top)


def _law_residuum_restores(a, x, y, z):
    return _implies(a.leq[y, x], a.otimes[x, a.residuum[x, y]] == y)


def _law_residuum_exchange(a, x, y, z):
    return _implies(a.leq[y, z], a.otimes[a.otimes[x, z], a.residuum[z, y]] == a.otimes[x, y])


def _law_otimes_distributes_join(a, x, y, z):
    return a.otimes[x, a.join[y, z]] == a.join[a.otimes[x, y], a.otimes[x, z]]


# Semiring laws on the (join, otimes, top, bottom) reduct.

def _law_join_commutative(a, x, y, z):
    return a.join[x, y] == a.join[y, x]


def _law_join_associative(a, x, y, z):
    return a.join[a.join[x, y], z] == a.join[x, a.join[y, z]]


def _law_join_idempotent(a, x, y, z):
    return a.join[x, x] == x


def _law_join_identity_bottom(a, x, y, z):
    return a.join[x, a.bottom] == x


def _law_join_absorbs_top(a, x, y, z):
    return a.join[x, a.top] == a.top


def _law_otimes_idempotent(a, x, y, z):
    return a.otimes[x, x] == x


# ---------------------------------------------------------------------------
# Whole-table decisions. Each confirms its law from a premise that every DRL
# meets, and returns True only when the law holds at every point; every
# decision that reads the order needs a partial order. A False only says the
# premise failed: the blocked evaluator then finds the verdict and the witness.


def _count_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """C[i, j] = the number of k with A[i, k] and B[k, j], for boolean A, B.

    Computed with float32 BLAS. That is exact because every entry and
    partial sum is at most the carrier size, which stays below 2**24
    for any carrier whose tables fit in memory.
    """
    return A.astype(np.float32) @ B.astype(np.float32)


def _common_bounds(L: np.ndarray, lower: bool) -> np.ndarray:
    """[x, y]: the number of z below (lower) or above both x and y."""
    return _count_product(L.T, L) if lower else _count_product(L, L.T)


def _order_defect(L: np.ndarray, between: np.ndarray | None = None) -> str | None:
    """The first partial-order property that L lacks, or None.

    `between` is L @ L as counts, [x, z]: the number of y with x <= y <= z.
    On a reflexive order its diagonal counts x itself and every y with
    x <= y <= x, so it is all 1 exactly when L is antisymmetric.
    """
    if not L.diagonal().all():
        return "reflexive"
    if between is None:
        between = _count_product(L, L)
    if (between.diagonal() != 1).any():
        return "antisymmetric"
    if (~L & (between > 0)).any():
        return "transitive"
    return None


class _Facts:
    """The whole-table facts that the decisions of one law check share.

    Each is computed at most once, and only when some decision reads it.
    A True fact holds at every point; a False one means only that its
    premise did not prove it, and no code reads a False fact as a
    refutation. A `FiniteDRL`'s tables are read-only, so `check_axioms`
    keeps every boolean fact with it, and they seed every later check of
    it: validating an algebra on load and then checking the `derived`
    profile runs the residuation decision once. `residuation` holds only
    on a partial order, where `_residuated` decides it; the evaluator
    decides the law on another. The n x n arrays `between` and `covers`
    (64 MB for `between` at carrier 4096) live for one check.
    """

    def __init__(self, a: FiniteDRL):
        self.a = a
        # A cached_property reads an instance attribute of its name first.
        self.__dict__.update(a._facts)

    @cached_property
    def between(self) -> np.ndarray:
        return _count_product(self.a.leq, self.a.leq)

    @cached_property
    def partial(self) -> bool:
        return _order_defect(self.a.leq, self.between) is None

    @cached_property
    def covers(self) -> np.ndarray:
        # [x, y]: y covers x. On a partial order x < y has x and y between
        # them, and nothing else exactly when y covers x.
        return self.between == 2

    # With m = x meet y below both x and y and the order partial, every
    # element below m is a common lower bound; so all common lower bounds are
    # below m exactly when there are as many of them as elements below m.
    # Joins dually.

    @cached_property
    def meet_is_glb(self) -> bool:
        L, M, ids = self.a.leq, self.a.meet, np.arange(self.a.size)
        return bool(L[M, ids[:, None]].all() and L[M, ids].all() and self.partial
                    and (_common_bounds(L, lower=True) == L.sum(axis=0)[M]).all())

    @cached_property
    def join_is_lub(self) -> bool:
        L, J, ids = self.a.leq, self.a.join, np.arange(self.a.size)
        return bool(L[ids[:, None], J].all() and L[ids, J].all() and self.partial
                    and (_common_bounds(L, lower=False) == L.sum(axis=1)[J]).all())

    @cached_property
    def commutative(self) -> bool:
        return bool((self.a.otimes == self.a.otimes.T).all())

    @cached_property
    def residuation(self) -> bool:
        return self.partial and _residuated(self.a.leq, self.a.otimes, self.a.residuum, self.covers)

    @cached_property
    def divisible(self) -> bool:
        a = self.a
        return np.array_equal(a.meet, a.otimes[np.arange(a.size)[:, None], a.residuum])

    @cached_property
    def otimes_associative(self) -> bool:
        # On a partial order with least element `bottom` whose binary lubs
        # `join` gives, residuation makes x * _ a left adjoint, so it
        # preserves every join, the empty one (bottom) included; with
        # commutativity so does _ * x. Then both (x*y)*z and x*(y*z)
        # preserve joins in each argument, and every element is the join of
        # the join-irreducibles below it (those with exactly one lower
        # cover), so the law holds when it holds on those alone.
        a = self.a
        return bool(self.partial and a.leq[a.bottom].all() and self.commutative and self.join_is_lub
                    and self.residuation
                    and _associative_on(a.otimes, np.flatnonzero(self.covers.sum(axis=0) == 1)))


def _residuated(L: np.ndarray, O: np.ndarray, R: np.ndarray, covers: np.ndarray) -> bool:
    """Whether x * z <= y exactly when z <= x -> y, for all x, y, z, where L
    is a partial order and covers[lo, hi] says that hi covers lo.

    It decides the Galois connection x * _ -| x -> _ for each x: both maps
    are monotone on every covering pair, z <= x -> (x*z) (the unit) and
    x * (x->y) <= y (the counit). The unit and a monotone x -> _ give
    x*z <= y => z <= x -> (x*z) <= x -> y; a monotone x * _ and the counit
    give z <= x -> y => x*z <= x * (x->y) <= y. Residuation gives all four,
    and a map monotone on the covering pairs of a finite partial order is
    monotone. No temporary exceeds max(_POINT_BUDGET, size**2) entries.
    """
    # Flat positions: L[u, v] is Lf[u * n + v], and T[x, y] is T.ravel()[x * n + y].
    n, Lf = len(L), L.ravel()
    ids = np.arange(n)
    rows = ids[:, None] * n
    if not (Lf[R.ravel()[O + rows] + ids * n].all() and Lf[O.ravel()[R + rows] * n + ids].all()):
        return False
    lo, hi = np.nonzero(covers)
    block = max(1, _POINT_BUDGET // max(1, len(lo)))
    for start in range(0, n, block):
        for T in (O[start:start + block], R[start:start + block]):
            if not Lf[T[:, lo] * n + T[:, hi]].all():
                return False
    return True


def _narrow(T: np.ndarray) -> np.ndarray:
    """T in the narrowest unsigned type that holds its ids; gathers of it move
    less memory. The indices stay `intp`."""
    return T.astype(np.min_scalar_type(len(T) - 1))


def _associative_on(T: np.ndarray, J) -> bool:
    """Whether (x*y)*z == x*(y*z) for all x, y, z in J, an array of ids."""
    values = _narrow(T)
    TJ, left, right = T[J][:, J], values[:, J], values[J]  # TJ[y, z]: y * z
    block = _block_rows(len(TJ) or 1)
    for start in range(0, len(TJ), block):
        # [x, y, z]: (x*y)*z and x*(y*z)
        if (left[TJ[start:start + block]] != np.take(right[start:start + block], TJ, axis=1)).any():
            return False
    return True


def _decide_otimes_monotone(f: _Facts) -> bool:
    # Residuation gives y <= z -> (z*y), so on a partial order x <= y gives
    # z*x <= z*y, and x*z <= y*z when the product commutes.
    return f.partial and f.commutative and f.residuation


def _decide_otimes_distributes_join(f: _Facts) -> bool:
    # When residuation holds on a partial order whose joins `join` gives,
    # x * _ has the upper adjoint x -> _ and so preserves joins.
    return f.partial and f.join_is_lub and f.residuation


def _decide_join_associative(f: _Facts) -> bool:
    # Binary lubs in a partial order are associative: both sides are the lub
    # of {x, y, z}.
    return f.partial and f.join_is_lub


def _decide_residuum_exchange(f: _Facts) -> bool:
    # For y <= z: (x*z)*(z->y) = x*(z*(z->y)) = x*(z meet y) = x*y, by
    # associativity, divisibility and z meet y = y.
    a = f.a
    return bool(f.otimes_associative and f.divisible and (a.meet.T == np.arange(a.size)[:, None])[a.leq].all())


_DECISIONS: dict[Callable, Callable[[_Facts], bool]] = {
    _law_leq_reflexive: lambda f: bool(f.a.leq.diagonal().all()),
    _law_leq_antisymmetric: lambda f: f.partial,
    _law_leq_transitive: lambda f: f.partial,
    _law_bottom_least: lambda f: bool(f.a.leq[f.a.bottom].all()),
    _law_top_greatest: lambda f: bool(f.a.leq[:, f.a.top].all()),
    _law_meet_is_glb: lambda f: f.meet_is_glb,
    _law_join_is_lub: lambda f: f.join_is_lub,
    _law_otimes_commutative: lambda f: f.commutative,
    _law_otimes_associative: lambda f: f.otimes_associative,
    _law_otimes_identity: lambda f: bool((f.a.otimes[:, f.a.top] == np.arange(f.a.size)).all()),
    _law_join_associative: _decide_join_associative,
    _law_residuation: lambda f: f.residuation,
    _law_divisibility: lambda f: f.divisible,
    _law_otimes_monotone: _decide_otimes_monotone,
    _law_otimes_distributes_join: _decide_otimes_distributes_join,
    _law_residuum_exchange: _decide_residuum_exchange,
}


_DRL_LAWS: tuple[tuple[str, Callable], ...] = (
    ("leq-reflexive", _law_leq_reflexive),
    ("leq-antisymmetric", _law_leq_antisymmetric),
    ("leq-transitive", _law_leq_transitive),
    ("bottom-least", _law_bottom_least),
    ("top-greatest", _law_top_greatest),
    ("meet-is-glb", _law_meet_is_glb),
    ("join-is-lub", _law_join_is_lub),
    ("otimes-commutative", _law_otimes_commutative),
    ("otimes-associative", _law_otimes_associative),
    ("otimes-identity", _law_otimes_identity),
    ("residuation", _law_residuation),
    ("divisibility", _law_divisibility),
)

_DERIVED_LAWS: tuple[tuple[str, Callable], ...] = (
    ("otimes-associative", _law_otimes_associative),
    ("otimes-commutative", _law_otimes_commutative),
    ("otimes-identity", _law_otimes_identity),
    ("otimes-annihilator", _law_otimes_annihilator),
    ("otimes-monotone", _law_otimes_monotone),
    ("residuum-characterizes-order", _law_residuum_characterizes_order),
    ("residuum-restores", _law_residuum_restores),
    ("residuum-exchange", _law_residuum_exchange),
    ("otimes-distributes-join", _law_otimes_distributes_join),
)

_CIS_LAWS: tuple[tuple[str, Callable], ...] = (
    ("join-commutative", _law_join_commutative),
    ("join-associative", _law_join_associative),
    ("join-idempotent", _law_join_idempotent),
    ("join-identity-bottom", _law_join_identity_bottom),
    ("join-absorbs-top", _law_join_absorbs_top),
    ("otimes-commutative", _law_otimes_commutative),
    ("otimes-associative", _law_otimes_associative),
    ("otimes-idempotent", _law_otimes_idempotent),
    ("otimes-identity", _law_otimes_identity),
    ("otimes-annihilator", _law_otimes_annihilator),
    ("otimes-distributes-join", _law_otimes_distributes_join),
)

PROFILES: dict[str, tuple[tuple[str, Callable], ...]] = {
    "drl": _DRL_LAWS,
    "derived": _DERIVED_LAWS,
    "cis-reduct": _CIS_LAWS,
}


def check_axioms(algebra: FiniteDRL, profile: str = "drl") -> AxiomReport:
    """Exhaustively evaluate one law profile over the whole carrier.

    Failures are report entries, never exceptions; each failing entry
    carries the lexicographically least (x, y, z) falsifying the law. A
    law that its decision in `_DECISIONS`, read off one `_Facts`, does
    not confirm goes to the blocked evaluator, `_first_failure`. The
    boolean facts are kept with the algebra.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    facts = _Facts(algebra)
    checks = []
    for axiom, law in PROFILES[profile]:
        decide = _DECISIONS.get(law)
        witness = None if decide is not None and decide(facts) else _first_failure(algebra, law)
        checks.append(AxiomCheck(axiom, witness is None, witness))
    algebra._facts.update((name, value) for name, value in vars(facts).items() if type(value) is bool)
    return AxiomReport(profile, tuple(checks))


# ---------------------------------------------------------------------------
# Lattice and residuum derivation


def _as_bool_matrix(leq) -> np.ndarray:
    L = np.asarray(leq, dtype=bool)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("order table must be square")
    return L


def _require_partial_order(L: np.ndarray) -> None:
    defect = _order_defect(L)
    if defect is not None:
        raise ValueError(f"order is not {defect}")


def _bounds(L: np.ndarray) -> tuple[int, int]:
    bottoms = np.where(L.all(axis=1))[0]
    tops = np.where(L.all(axis=0))[0]
    if len(tops) != 1 or len(bottoms) != 1:
        raise NotBounded()
    return int(tops[0]), int(bottoms[0])


def _rank(L: np.ndarray) -> np.ndarray:
    """Linear-extension rank: x < y forces strictly fewer elements below x,
    so a subset's greatest (least) element, if any, has the extreme rank."""
    rank = np.empty(L.shape[0], dtype=np.int64)
    rank[np.argsort(L.sum(axis=0), kind="stable")] = np.arange(L.shape[0])
    return rank


def derive_lattice(leq) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Compute (meet, join, top, bottom) induced by a partial order.

    The order must be bounded and every pair must have a greatest lower
    and least upper bound; otherwise NotBounded / NotALattice is raised.
    x meet y is taken as the common lower bound of highest
    linear-extension rank. Everything below it is a common lower bound,
    so it is the greatest one exactly when x and y have no more common
    lower bounds than it has elements below it. Joins are found dually.
    """
    L = _as_bool_matrix(leq)
    _require_partial_order(L)
    top, bottom = _bounds(L)
    n = L.shape[0]

    desc = np.argsort(-_rank(L))
    asc = desc[::-1]
    # C order, so that each argmax along a row stops at the row's first True.
    down = np.ascontiguousarray(L.T[:, desc])  # down[y, k]: desc[k] <= y
    up = np.ascontiguousarray(L[:, asc])  # up[y, k]: y <= asc[k]
    meet = np.empty((n, n), dtype=np.intp)
    join = np.empty((n, n), dtype=np.intp)
    for x in range(n):
        meet[x] = desc[(down & down[x]).argmax(axis=1)]  # first common lower bound by rank
        join[x] = asc[(up & up[x]).argmax(axis=1)]

    bad_meet = _common_bounds(L, lower=True) != L.sum(axis=0)[meet]
    bad_join = _common_bounds(L, lower=False) != L.sum(axis=1)[join]
    bad = bad_meet.any(axis=1) | bad_join.any(axis=1)
    if bad.any():
        x = int(np.argmax(bad))
        row = bad_meet[x] if bad_meet[x].any() else bad_join[x]
        raise NotALattice((x, int(np.argmax(row))))
    return meet, join, top, bottom


def residuum_from_tables(leq, otimes) -> np.ndarray:
    """Derive the residuum as the greatest admitted element and validate it.

    x -> y is the rank-maximal z with x * z <= y, validated by the
    residuation decision on a partial order and by the evaluator on
    another. Raises ResiduationFails, with the lexicographically least
    failing triple, when the result violates the residuation law, which
    signals that the inputs were not a bounded lattice with a monotone
    product distributing over joins, and ValueError unless `otimes` is
    an n x n table over the carrier.
    """
    L = _as_bool_matrix(leq)
    if L.all(axis=1).sum() != 1:
        raise NotBounded()
    O = np.asarray(otimes)
    if O.shape != L.shape or not _in_carrier(O, len(L)):
        raise ValueError(f"otimes table is not {len(L)}x{len(L)} over the carrier")
    O = O.astype(np.intp, copy=False)
    R = _greatest_admitted(L, O)
    between = _count_product(L, L)
    if _order_defect(L, between) is not None or not _residuated(L, O, R, between == 2):
        witness = _first_failure(SimpleNamespace(size=len(L), leq=L, otimes=O, residuum=R), _law_residuation)
        if witness is not None:
            raise ResiduationFails(witness)
    return R


def _greatest_admitted(L: np.ndarray, O: np.ndarray) -> np.ndarray:
    """[x, y]: the rank-maximal z with x * z <= y, the residuum if there is one."""
    by_rank = np.argsort(-_rank(L))
    R = np.empty_like(O)
    for x in range(len(L)):
        R[x] = by_rank[L[O[x, by_rank]].argmax(axis=0)]  # first admitted z by rank
    return R


def _completed(size, leq, otimes, top, bottom, name, meet=None, join=None, residuum=None) -> FiniteDRL:
    """The algebra on these tables, each one given as None derived first.

    A derived residuum has passed the residuation check of
    `residuum_from_tables` on these very tables, so the algebra keeps
    that fact and its first law check reads it.
    """
    if meet is None or join is None:
        lattice = derive_lattice(leq)
        meet = lattice[0] if meet is None else meet
        join = lattice[1] if join is None else join
    derived = residuum is None
    if derived:
        residuum = residuum_from_tables(leq, otimes)
    algebra = FiniteDRL(size, leq, meet, join, otimes, residuum, top, bottom, name)
    if derived:
        algebra._facts["residuation"] = True
    return algebra


# ---------------------------------------------------------------------------
# Classification


def classify(algebra: FiniteDRL) -> VarietyFlags:
    """Evaluate the subvariety equations exhaustively and name the result.

    The name is the most specific of Boolean, Goedel (prelinear and
    idempotent), MV (prelinear and involutive), Heyting (idempotent),
    BL (prelinear), or GBL.
    """
    ids = np.arange(algebra.size)
    R = algebra.residuum
    prelinear = bool((algebra.join[R, R.T] == algebra.top).all())
    idempotent = bool((algebra.otimes[ids, ids] == ids).all())
    neg = R[:, algebra.bottom]
    involutive = bool((neg[neg] == ids).all())
    chain = bool((algebra.leq | algebra.leq.T).all())
    if involutive and idempotent:
        name = "Boolean"
    elif prelinear and idempotent:
        name = "Godel"
    elif prelinear and involutive:
        name = "MV"
    elif idempotent:
        name = "Heyting"
    elif prelinear:
        name = "BL"
    else:
        name = "GBL"
    return VarietyFlags(prelinear, idempotent, involutive, chain, name)


# ---------------------------------------------------------------------------
# Builtin families


def _require_within_cap(size: int) -> None:
    if size > CARRIER_CAP:
        raise SizeOverflow(size, CARRIER_CAP)


def _chain_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ids = np.arange(n)
    return np.less_equal.outer(ids, ids), np.minimum.outer(ids, ids), np.maximum.outer(ids, ids)


def _build_chain(n: int, product: Callable, name: str) -> FiniteDRL:
    """Chain 0 < 1 < ... < n-1; `product` maps two index grids to the otimes table."""
    _require_within_cap(n)
    leq, meet, join = _chain_tables(n)
    ids = np.arange(n)
    return _completed(n, leq, product(ids[:, None], ids[None, :]), n - 1, 0, name, meet, join)


def boolean() -> FiniteDRL:
    """The two-element algebra with product = meet."""
    return _build_chain(2, np.minimum, "boolean")


def godel_chain(n: int) -> FiniteDRL:
    """Ascending n-chain with product = min; ids 0 (bottom) .. n-1 (top)."""
    if n < 2:
        raise ValueError("chain needs at least 2 elements")
    return _build_chain(n, np.minimum, f"godel({n})")


def lukasiewicz_chain(n: int) -> FiniteDRL:
    """Ascending n-chain with the truncated-addition product max(0, i+j-(n-1))."""
    if n < 2:
        raise ValueError("chain needs at least 2 elements")
    return _build_chain(n, lambda i, j: np.maximum(0, i + j - (n - 1)), f"lukasiewicz({n})")


def weighted(n: int) -> FiniteDRL:
    """Cost chain {0..n}: id k means cost k, lower cost is better.

    The order is reversed relative to ids (i <= j in the lattice iff
    i >= j as costs), top is cost 0, bottom is the saturation cost n,
    and the product is saturating addition min(n, i + j).
    """
    if n < 1:
        raise ValueError("cost bound must be at least 1")
    size = n + 1
    _require_within_cap(size)
    # The chain on ids reversed: its order is the transpose, meet and join swap.
    leq, meet, join = _chain_tables(size)
    ids = np.arange(size)
    otimes = np.minimum(n, np.add.outer(ids, ids))
    return _completed(size, np.ascontiguousarray(leq.T), otimes, 0, n, f"weighted({n})", join, meet)


def heyting_from_lattice(leq, name: str = "") -> FiniteDRL:
    """Heyting algebra over a finite distributive lattice order.

    The product is the meet. A finite lattice is distributive exactly
    when its meet is residuated (GJKO07), so the residuation decision on
    the meet's derived residuum decides distributivity. When it fails,
    NotDistributive is raised with the least triple at which the meet
    does not distribute over the join, the only law evaluated point by
    point.
    """
    _require_within_cap(len(leq))
    L = _as_bool_matrix(leq)
    meet, join, top, bottom = derive_lattice(L)
    n = len(L)
    residuum = _greatest_admitted(L, meet)
    if not _residuated(L, meet, residuum, _count_product(L, L) == 2):
        semiring = SimpleNamespace(size=n, join=join, otimes=meet)
        raise NotDistributive(_first_failure(semiring, _law_otimes_distributes_join))
    h = FiniteDRL(n, L, meet, join, meet, residuum, top, bottom, name or f"heyting({n})")
    h._facts["residuation"] = True  # the decision above proved it
    return h


def direct_product(a: FiniteDRL, b: FiniteDRL) -> FiniteDRL:
    """Componentwise product; the pair (x, y) gets id x * |b| + y."""
    size = a.size * b.size
    _require_within_cap(size)
    nb = b.size

    def combine(A, B):
        return (A[:, None, :, None] * nb + B[None, :, None, :]).reshape(size, size)

    return FiniteDRL(
        size=size,
        leq=np.kron(a.leq, b.leq),
        meet=combine(a.meet, b.meet),
        join=combine(a.join, b.join),
        otimes=combine(a.otimes, b.otimes),
        residuum=combine(a.residuum, b.residuum),
        top=a.top * nb + b.top,
        bottom=a.bottom * nb + b.bottom,
        name=f"product({a.name or '?'},{b.name or '?'})",
    )
