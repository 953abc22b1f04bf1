"""Finite divisible residuated lattices as dense operation tables.

Elements are integer ids 0..size-1 and every operation is a full table,
so all laws can be checked exhaustively and bit-exactly. Constructors
cover the standard chain families (Goedel, Lukasiewicz, weighted cost
chains), Heyting algebras over finite distributive lattices, and direct
products. The residuum table is never taken on trust: it is derived from
the order and the product as x -> y = the greatest z with x * z <= y,
taken as the admitted z of highest linear-extension rank, and validated
against the residuation law at every triple. Law checks visit all
size**3 points in blocks of max(1, 2**18 // size**2) leading x values,
so no temporary array exceeds max(2**18, size**2) entries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    NotACIS,
    NotALattice,
    NotBounded,
    NotDistributive,
    ResiduationFails,
    SizeOverflow,
)

Table = tuple[tuple[int, ...], ...]
BoolTable = tuple[tuple[bool, ...], ...]

DEFAULT_CARRIER_CAP = 4096
CARRIER_CAP_ENV = "DRL_SOFT_CARRIER_CAP"

# Laws are evaluated on blocks of about this many (x, y, z) points.
_POINT_BUDGET = 1 << 18


def carrier_cap() -> int:
    raw = os.environ.get(CARRIER_CAP_ENV, "").strip()
    return int(raw) if raw else DEFAULT_CARRIER_CAP


@dataclass(frozen=True)
class FiniteDRL:
    """A finite valuation structure: bounded lattice + residuated monoid.

    `leq` is the order relation, `meet`/`join` its lattice operations,
    `otimes` the combination monoid with identity `top` and annihilator
    `bottom`, and `residuum` the adjoint of `otimes`. The label `name`
    does not take part in equality.
    """

    size: int
    leq: BoolTable
    meet: Table
    join: Table
    otimes: Table
    residuum: Table
    top: int
    bottom: int
    name: str = field(default="", compare=False)

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
# numpy views and the exhaustive law checker


class _Tables(NamedTuple):
    n: int
    L: np.ndarray | None
    M: np.ndarray | None
    J: np.ndarray | None
    O: np.ndarray | None
    R: np.ndarray | None
    top: int
    bottom: int


def _np_view(a: FiniteDRL) -> _Tables:
    """Array view of the tables; ValueError unless each is n x n over the carrier."""
    n = a.size
    if n < 1:
        raise ValueError("carrier must have at least one element")
    # A bool would index numpy arrays as a mask and pass every law vacuously.
    for v in (a.top, a.bottom):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < n:
            raise ValueError("top/bottom out of range")
    for label, table in (
        ("leq", a.leq), ("meet", a.meet), ("join", a.join),
        ("otimes", a.otimes), ("residuum", a.residuum),
    ):
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"{label} table is not {n}x{n}")
    arrs = []
    for label, table in (
        ("meet", a.meet), ("join", a.join), ("otimes", a.otimes), ("residuum", a.residuum),
    ):
        arr = np.asarray(table)  # no dtype: fractions and huge ints must not be cast away
        if arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"{label} table has entries outside the carrier")
        arrs.append(arr.astype(np.int64, copy=False))
    return _Tables(n, np.asarray(a.leq, dtype=bool), *arrs, a.top, a.bottom)


def _first_failure(t: _Tables, law: Callable) -> tuple[int, int, int] | None:
    """Lexicographically least (x, y, z) falsifying `law`, or None.

    `law` must be written with numpy-compatible operations so the same
    code evaluates pointwise on ints and broadcast on index grids.
    """
    n = t.n
    ids = np.arange(n)
    ys, zs = ids[None, :, None], ids[None, None, :]
    block = max(1, _POINT_BUDGET // (n * n))
    for start in range(0, n, block):
        xs = ids[start:start + block, None, None]
        res = np.asarray(law(t, xs, ys, zs))
        if not res.all():
            full = np.broadcast_to(res, (len(xs), n, n))
            x, y, z = np.unravel_index(np.argmin(full), full.shape)  # first False
            return start + int(x), int(y), int(z)
    return None


def _implies(p, q):
    return ~np.asarray(p) | np.asarray(q)


# Core laws: bounded lattice induced by leq plus the residuated monoid.

def _law_leq_reflexive(t, x, y, z):
    return t.L[x, x]


def _law_leq_antisymmetric(t, x, y, z):
    return _implies(t.L[x, y] & t.L[y, x], x == y)


def _law_leq_transitive(t, x, y, z):
    return _implies(t.L[x, y] & t.L[y, z], t.L[x, z])


def _law_bottom_least(t, x, y, z):
    return t.L[t.bottom, x]


def _law_top_greatest(t, x, y, z):
    return t.L[x, t.top]


def _law_meet_is_glb(t, x, y, z):
    m = t.M[x, y]
    lower = t.L[z, x] & t.L[z, y]
    return t.L[m, x] & t.L[m, y] & _implies(lower, t.L[z, m])


def _law_join_is_lub(t, x, y, z):
    j = t.J[x, y]
    upper = t.L[x, z] & t.L[y, z]
    return t.L[x, j] & t.L[y, j] & _implies(upper, t.L[j, z])


def _law_otimes_commutative(t, x, y, z):
    return t.O[x, y] == t.O[y, x]


def _law_otimes_associative(t, x, y, z):
    return t.O[t.O[x, y], z] == t.O[x, t.O[y, z]]


def _law_otimes_identity(t, x, y, z):
    return t.O[x, t.top] == x


def _law_residuation(t, x, y, z):
    return t.L[t.O[x, z], y] == t.L[z, t.R[x, y]]


def _law_divisibility(t, x, y, z):
    return t.M[x, y] == t.O[x, t.R[x, y]]


# Derived laws: consequences of the core laws, checked to validate tables
# (and the checker itself) independently.

def _law_otimes_annihilator(t, x, y, z):
    return t.O[x, t.bottom] == t.bottom


def _law_otimes_monotone(t, x, y, z):
    return _implies(t.L[x, y], t.L[t.O[x, z], t.O[y, z]])


def _law_residuum_characterizes_order(t, x, y, z):
    return t.L[x, y] == (t.R[x, y] == t.top)


def _law_residuum_restores(t, x, y, z):
    return _implies(t.L[y, x], t.O[x, t.R[x, y]] == y)


def _law_residuum_exchange(t, x, y, z):
    return _implies(t.L[y, z], t.O[t.O[x, z], t.R[z, y]] == t.O[x, y])


def _law_otimes_distributes_join(t, x, y, z):
    return t.O[x, t.J[y, z]] == t.J[t.O[x, y], t.O[x, z]]


# Semiring laws on the (join, otimes, top, bottom) reduct.

def _law_join_commutative(t, x, y, z):
    return t.J[x, y] == t.J[y, x]


def _law_join_associative(t, x, y, z):
    return t.J[t.J[x, y], z] == t.J[x, t.J[y, z]]


def _law_join_idempotent(t, x, y, z):
    return t.J[x, x] == x


def _law_join_identity_bottom(t, x, y, z):
    return t.J[x, t.bottom] == x


def _law_join_absorbs_top(t, x, y, z):
    return t.J[x, t.top] == t.top


def _law_otimes_idempotent(t, x, y, z):
    return t.O[x, x] == x


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
    carries the lexicographically least (x, y, z) falsifying the law,
    replayable with `replay_axiom`.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    t = _np_view(algebra)
    checks = []
    for axiom, law in PROFILES[profile]:
        witness = _first_failure(t, law)
        checks.append(AxiomCheck(axiom, witness is None, witness))
    return AxiomReport(profile, tuple(checks))


def replay_axiom(algebra: FiniteDRL, profile: str, axiom: str, triple: tuple[int, int, int]) -> bool:
    """Re-evaluate a single law at one point; used to confirm counterexamples."""
    laws = dict(PROFILES[profile])
    t = _np_view(algebra)
    x, y, z = triple
    return bool(np.asarray(laws[axiom](t, x, y, z)))


# ---------------------------------------------------------------------------
# Lattice and residuum derivation


def _as_bool_matrix(leq) -> np.ndarray:
    L = np.asarray(leq, dtype=bool)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("order table must be square")
    return L


def _require_partial_order(L: np.ndarray) -> None:
    n = L.shape[0]
    if not L.diagonal().all():
        raise ValueError("order is not reflexive")
    sym = L & L.T
    if (sym & ~np.eye(n, dtype=bool)).any():
        raise ValueError("order is not antisymmetric")
    reach = (L.astype(np.float32) @ L.astype(np.float32)) > 0.5
    if (reach & ~L).any():
        raise ValueError("order is not transitive")


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


def derive_lattice(leq) -> tuple[Table, Table, int, int]:
    """Compute (meet, join, top, bottom) induced by a partial order.

    The order must be bounded and every pair must have a greatest lower
    and least upper bound; otherwise NotBounded / NotALattice is raised.
    """
    L = _as_bool_matrix(leq)
    _require_partial_order(L)
    top, bottom = _bounds(L)
    n = L.shape[0]

    rank = _rank(L)
    meet = np.empty((n, n), dtype=np.int64)
    join = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        cand = L[:, x][:, None] & L  # cand[z, y]: z below both x and y
        zstar = np.where(cand, rank[:, None], -1).argmax(axis=0)
        bad = (cand & ~L[:, zstar]).any(axis=0)
        if bad.any():
            raise NotALattice((x, int(np.argmax(bad))))
        meet[x] = zstar

        cand = L[x][:, None] & L.T  # cand[z, y]: z above both x and y
        zstar = np.where(cand, rank[:, None], n + 1).argmin(axis=0)
        bad = (cand & ~L[zstar].T).any(axis=0)
        if bad.any():
            raise NotALattice((x, int(np.argmax(bad))))
        join[x] = zstar

    return _to_table(meet), _to_table(join), top, bottom


def residuum_from_tables(leq, join, otimes) -> Table:
    """Derive the residuum as the greatest admitted element and validate it.

    x -> y is the rank-maximal z with x * z <= y; `join` is not needed.
    Raises ResiduationFails when the result violates the residuation law
    at some triple, which signals that the inputs were not a bounded
    lattice with a monotone product distributing over joins.
    """
    L = _as_bool_matrix(leq)
    O = np.asarray(otimes, dtype=np.int64)
    if L.all(axis=1).sum() != 1:
        raise NotBounded()

    by_rank = np.argsort(-_rank(L))
    LT = np.ascontiguousarray(L.T)  # LT[y, z]: z <= y
    R = np.empty_like(O)
    for x in range(len(L)):
        R[x] = by_rank[LT[:, O[x, by_rank]].argmax(axis=1)]  # first admitted z by rank
        neq = LT[:, O[x]] != LT[R[x]]  # [y, z]: x * z <= y differs from z <= x -> y
        if neq.any():
            y, z = np.argwhere(neq)[0]
            raise ResiduationFails((x, int(y), int(z)))
    return _to_table(R)


def _to_table(arr: np.ndarray) -> Table | BoolTable:
    return tuple(map(tuple, arr.tolist()))


# ---------------------------------------------------------------------------
# Classification


def classify(algebra: FiniteDRL) -> VarietyFlags:
    """Evaluate the subvariety equations exhaustively and name the result.

    The name is the most specific of Boolean, Goedel (prelinear and
    idempotent), MV (prelinear and involutive), Heyting (idempotent),
    BL (prelinear), or GBL.
    """
    t = _np_view(algebra)
    ids = np.arange(t.n)
    prelinear = bool((t.J[t.R, t.R.T] == t.top).all())
    idempotent = bool((t.O[ids, ids] == ids).all())
    neg = t.R[:, t.bottom]
    involutive = bool((neg[neg] == ids).all())
    chain = bool((t.L | t.L.T).all())
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


def _require_within_cap(size: int, cap: int | None = None) -> None:
    limit = carrier_cap() if cap is None else cap
    if size > limit:
        raise SizeOverflow(size, limit)


def _chain_tables(n: int) -> tuple[BoolTable, Table, Table]:
    leq = tuple(tuple(i <= j for j in range(n)) for i in range(n))
    meet = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    join = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    return leq, meet, join


def _build_chain(n: int, product: Callable[[int, int], int], name: str) -> FiniteDRL:
    _require_within_cap(n)
    leq, meet, join = _chain_tables(n)
    otimes = tuple(tuple(product(i, j) for j in range(n)) for i in range(n))
    residuum = residuum_from_tables(leq, join, otimes)
    return FiniteDRL(n, leq, meet, join, otimes, residuum, n - 1, 0, name)


def boolean() -> FiniteDRL:
    """The two-element algebra with product = meet."""
    return _build_chain(2, min, "boolean")


def godel_chain(n: int) -> FiniteDRL:
    """Ascending n-chain with product = min; ids 0 (bottom) .. n-1 (top)."""
    if n < 2:
        raise ValueError("chain needs at least 2 elements")
    return _build_chain(n, min, f"godel({n})")


def lukasiewicz_chain(n: int) -> FiniteDRL:
    """Ascending n-chain with the truncated-addition product max(0, i+j-(n-1))."""
    if n < 2:
        raise ValueError("chain needs at least 2 elements")
    return _build_chain(n, lambda i, j: max(0, i + j - (n - 1)), f"lukasiewicz({n})")


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
    leq = tuple(tuple(i >= j for j in range(size)) for i in range(size))
    meet = tuple(tuple(max(i, j) for j in range(size)) for i in range(size))
    join = tuple(tuple(min(i, j) for j in range(size)) for i in range(size))
    otimes = tuple(tuple(min(n, i + j) for j in range(size)) for i in range(size))
    residuum = residuum_from_tables(leq, join, otimes)
    return FiniteDRL(size, leq, meet, join, otimes, residuum, 0, n, f"weighted({n})")


def heyting_from_lattice(leq, name: str = "") -> FiniteDRL:
    """Heyting algebra over a finite distributive lattice order.

    The product is the meet; NotDistributive is raised when the order is
    a lattice but fails distributivity (a residuum cannot exist then).
    """
    _require_within_cap(len(leq))
    meet, join, top, bottom = derive_lattice(leq)
    n = len(meet)
    M = np.asarray(meet, dtype=np.int64)
    J = np.asarray(join, dtype=np.int64)
    t = _Tables(n=n, L=None, M=M, J=J, O=M, R=None, top=top, bottom=bottom)
    witness = _first_failure(t, _law_otimes_distributes_join)
    if witness is not None:
        raise NotDistributive(witness)
    L = _to_table(_as_bool_matrix(leq))
    residuum = residuum_from_tables(L, join, meet)
    return FiniteDRL(n, L, meet, join, meet, residuum, top, bottom, name or f"heyting({n})")


def direct_product(a: FiniteDRL, b: FiniteDRL, cap: int | None = None) -> FiniteDRL:
    """Componentwise product; the pair (x, y) gets id x * |b| + y."""
    size = a.size * b.size
    _require_within_cap(size, cap)
    na, nb = a.size, b.size

    def combine(ta, tb):
        A = np.asarray(ta, dtype=np.int64)
        B = np.asarray(tb, dtype=np.int64)
        out = (A[:, None, :, None] * nb + B[None, :, None, :]).reshape(size, size)
        return _to_table(out)

    leq = _to_table(np.kron(np.asarray(a.leq, dtype=bool), np.asarray(b.leq, dtype=bool)))
    return FiniteDRL(
        size=size,
        leq=leq,
        meet=combine(a.meet, b.meet),
        join=combine(a.join, b.join),
        otimes=combine(a.otimes, b.otimes),
        residuum=combine(a.residuum, b.residuum),
        top=a.top * nb + b.top,
        bottom=a.bottom * nb + b.bottom,
        name=f"product({a.name or '?'},{b.name or '?'})",
    )


def expand_cis(join, otimes, top: int, bottom: int, name: str = "") -> FiniteDRL:
    """Expand a commutative idempotent semiring into its Heyting algebra.

    The semiring laws are checked first (NotACIS on failure); the meet is
    the semiring product and the residuum comes from the adjunction
    formula.
    """
    J = np.asarray(join, dtype=np.int64)
    O = np.asarray(otimes, dtype=np.int64)
    if J.ndim != 2 or J.shape != O.shape or J.shape[0] != J.shape[1]:
        raise ValueError("join/otimes tables must be square and equally sized")
    n = J.shape[0]
    if not (0 <= top < n and 0 <= bottom < n):
        raise ValueError("top/bottom out of range")
    t = _Tables(n=n, L=None, M=None, J=J, O=O, R=None, top=top, bottom=bottom)
    for axiom, law in _CIS_LAWS:
        witness = _first_failure(t, law)
        if witness is not None:
            raise NotACIS(axiom, witness)

    leq = _to_table(J == np.arange(n))  # x <= y iff x v y = y
    meet = _to_table(O)
    join_t = _to_table(J)
    residuum = residuum_from_tables(leq, join_t, meet)
    return FiniteDRL(n, leq, meet, join_t, meet, residuum, top, bottom, name or f"cis({n})")


_BUILTIN_KINDS = ("boolean", "godel", "lukasiewicz", "weighted", "heyting", "product")


def make_builtin(kind: str, **params) -> FiniteDRL:
    """Dispatch helper for the CLI: build one of the named families."""
    if kind == "boolean":
        return boolean()
    if kind == "godel":
        return godel_chain(_require_param(params, "n"))
    if kind == "lukasiewicz":
        return lukasiewicz_chain(_require_param(params, "n"))
    if kind == "weighted":
        return weighted(_require_param(params, "n"))
    if kind == "heyting":
        leq = params.get("leq")
        if leq is None:
            raise ValueError("heyting needs leq=<order table>")
        return heyting_from_lattice(leq)
    if kind == "product":
        left, right = params.get("left"), params.get("right")
        if left is None or right is None:
            raise ValueError("product needs left=<algebra> and right=<algebra>")
        return direct_product(left, right, cap=params.get("cap"))
    raise ValueError(f"unknown builtin kind {kind!r}; expected one of {_BUILTIN_KINDS}")


def _require_param(params: dict, key: str) -> int:
    value = params.get(key)
    if value is None:
        raise ValueError(f"missing parameter {key!r}")
    return int(value)
