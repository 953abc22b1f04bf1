import dataclasses
import hashlib
import itertools
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import orjson
import pytest

import drlcsp as d
from conftest import law_holds_at, semiring_payload
from drlcsp import algebra
from drl_catalog import drls, lattice_ops
from lattice_catalog import _canonical, distributive_lattices, lattices

BUILTIN_SAMPLE = [
    lambda: d.boolean(),
    lambda: d.godel_chain(3),
    lambda: d.godel_chain(5),
    lambda: d.lukasiewicz_chain(3),
    lambda: d.lukasiewicz_chain(4),
    lambda: d.weighted(1),
    lambda: d.weighted(4),
]

DIAMOND = [
    [1, 1, 1, 1],
    [0, 1, 0, 1],
    [0, 0, 1, 1],
    [0, 0, 0, 1],
]


class TestDeriveLattice:
    def test_two_chain(self):
        meet, join, top, bottom = d.derive_lattice([[1, 1], [0, 1]])
        assert meet.tolist() == [[0, 0], [0, 1]]
        assert join.tolist() == [[0, 1], [1, 1]]
        assert (top, bottom) == (1, 0)

    def test_diamond(self):
        meet, join, top, bottom = d.derive_lattice(DIAMOND)
        assert meet[1][2] == 0
        assert join[1][2] == 3
        assert (top, bottom) == (3, 0)

    def test_two_maximal_elements_is_unbounded(self):
        # 0 < 1 and 0 < 2 with 1, 2 incomparable: no greatest element
        leq = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(d.NotBounded):
            d.derive_lattice(leq)

    def test_bounded_non_lattice(self):
        # bottom < a,b < c,d < top: meet(c,d) has two maximal lower bounds
        leq = [
            [1, 1, 1, 1, 1, 1],
            [0, 1, 0, 1, 1, 1],
            [0, 0, 1, 1, 1, 1],
            [0, 0, 0, 1, 0, 1],
            [0, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 1],
        ]
        with pytest.raises(d.NotALattice):
            d.derive_lattice(leq)

    @pytest.mark.parametrize("leq,message", [
        ([[0, 1], [0, 1]], "reflexive"),
        ([[1, 1], [1, 1]], "antisymmetric"),
        ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], "transitive"),
    ])
    def test_rejects_non_partial_orders(self, leq, message):
        with pytest.raises(ValueError, match=message):
            d.derive_lattice(leq)


def _reference_derive_lattice(leq):
    """The per-x `np.where` grid derivation that the rank-order argmax replaced."""
    L = algebra._as_bool_matrix(leq)
    algebra._require_partial_order(L)
    top, bottom = algebra._bounds(L)
    n = L.shape[0]
    rank = algebra._rank(L)
    meet = np.empty((n, n), dtype=np.int64)
    join = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        cand = L[:, x][:, None] & L  # cand[z, y]: z below both x and y
        zstar = np.where(cand, rank[:, None], -1).argmax(axis=0)
        bad = (cand & ~L[:, zstar]).any(axis=0)
        if bad.any():
            raise d.NotALattice((x, int(np.argmax(bad))))
        meet[x] = zstar

        cand = L[x][:, None] & L.T  # cand[z, y]: z above both x and y
        zstar = np.where(cand, rank[:, None], n + 1).argmin(axis=0)
        bad = (cand & ~L[zstar].T).any(axis=0)
        if bad.any():
            raise d.NotALattice((x, int(np.argmax(bad))))
        join[x] = zstar
    return meet, join, top, bottom


def _random_partial_order(rng: random.Random) -> list[list[bool]]:
    """A random partial order on 1..8 points, relabelled: the transitive
    closure of a random DAG, or two layers joined by random edges, most
    often with a new bottom and top so that lattices and bounded
    non-lattices occur as well as unbounded orders."""
    if rng.random() < 0.5:
        k = rng.randint(1, 6)
        p = rng.uniform(0.2, 0.7)
        rel = [[i == j or (i < j and rng.random() < p) for j in range(k)] for i in range(k)]
        for m in range(k):
            for i in range(k):
                if rel[i][m]:
                    rel[i] = [a or b for a, b in zip(rel[i], rel[m])]
    else:
        low, high = rng.randint(2, 3), rng.randint(2, 3)
        k = low + high
        rel = [[i == j or (i < low <= j and rng.random() < 0.6) for j in range(k)]
               for i in range(k)]
    if rng.random() < 0.7:
        rel = [[True] * (k + 1)] + [[False] + row for row in rel]  # new bottom
        rel = [row + [True] for row in rel] + [[False] * (k + 1) + [True]]  # new top
        k += 2
    perm = list(range(k))
    rng.shuffle(perm)
    return [[rel[perm[i]][perm[j]] for j in range(k)] for i in range(k)]


def _derivation_outcome(derive, leq):
    try:
        meet, join, top, bottom = derive(leq)
    except (d.AlgebraError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    assert type(top) is int and type(bottom) is int
    return np.asarray(meet).tolist(), np.asarray(join).tolist(), top, bottom


class TestDeriveLatticeAgainstReference:
    M3 = [[1, 1, 1, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]
    # N5: 0 < a < c < 1 and 0 < b < 1 with b incomparable to a and c
    N5 = [[1, 1, 1, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]

    @staticmethod
    def _row_with_both_failures():
        """Element 0 has no meet with 2 and no join with 1, so the witness
        shows which of the two is tested first."""
        m, r, n, bot, p, q, s, t, top = range(9)
        below = {(p, m), (q, m), (p, n), (q, n), (m, s), (m, t), (r, s), (r, t)}
        leq = [[i == j or i == bot or j == top or (i, j) in below for j in range(9)]
               for i in range(9)]
        for k in range(9):  # transitive closure
            for i in range(9):
                if leq[i][k]:
                    leq[i] = [a or b for a, b in zip(leq[i], leq[k])]
        return leq

    def test_meet_failure_is_reported_before_join_failure(self):
        outcome = self._agree(self._row_with_both_failures())
        assert outcome == ("NotALattice", str(d.NotALattice((0, 2))))

    def _agree(self, leq):
        expected = _derivation_outcome(_reference_derive_lattice, leq)
        assert _derivation_outcome(d.derive_lattice, leq) == expected
        return expected

    def test_builtins_and_named_lattices(self):
        orders = [make().leq for make in BUILTIN_SAMPLE]
        orders += [d.direct_product(d.godel_chain(3), d.weighted(3)).leq, DIAMOND, self.M3, self.N5]
        orders += [leq for _, leq in distributive_lattices(6)]
        for leq in orders:
            assert isinstance(self._agree(leq)[0], list)

    def test_random_partial_orders(self):
        rng = random.Random(8128)
        kinds = {}
        for _ in range(600):
            outcome = self._agree(_random_partial_order(rng))
            kind = outcome[0] if isinstance(outcome[0], str) else "lattice"
            kinds[kind] = kinds.get(kind, 0) + 1
        # lattices, unbounded orders and bounded non-lattices all occur
        assert kinds.keys() == {"lattice", "NotBounded", "NotALattice"}
        assert min(kinds.values()) > 50, kinds


class TestResiduumDerivation:
    def test_boolean_bottom_implies_everything(self, boolean_alg):
        assert boolean_alg.residuum[0].tolist() == [1, 1]

    def test_lukasiewicz3_half_to_zero(self, luk3):
        # brute-force sup over {z : max(0, 1+z-2) <= 0} = {0, 1}
        assert luk3.residuum[1][0] == 1

    def test_godel3_examples(self, godel3):
        assert godel3.residuum[2][1] == 1
        assert godel3.residuum[1][2] == 2

    def test_godel_closed_form(self):
        # top when x <= y, else y
        for n in (2, 3, 5, 7):
            g = d.godel_chain(n)
            expected = [[n - 1 if x <= y else y for y in range(n)] for x in range(n)]
            assert g.residuum.tolist() == expected

    def test_lukasiewicz_closed_form(self):
        for n in (2, 3, 5, 7):
            luk = d.lukasiewicz_chain(n)
            expected = [[min(n - 1, n - 1 - x + y) for y in range(n)] for x in range(n)]
            assert luk.residuum.tolist() == expected

    def test_weighted_closed_form(self):
        # truncated cost difference
        for n in (1, 4, 10):
            w = d.weighted(n)
            expected = [[max(0, y - x) for y in range(n + 1)] for x in range(n + 1)]
            assert w.residuum.tolist() == expected

    def test_weighted4_worked_values(self, w4):
        assert w4.otimes[1][3] == 4  # saturates at bottom
        assert w4.residuum[1][3] == 2

    def test_repair_is_idempotent(self):
        for make in BUILTIN_SAMPLE:
            a = make()
            rederived = d.residuum_from_tables(a.leq, a.otimes)
            assert np.array_equal(rederived, a.residuum)

    def test_non_residuable_product_rejected(self):
        # a product that is not monotone over the chain order
        n = 3
        leq = [[i <= j for j in range(n)] for i in range(n)]
        otimes = [[(i + j) % n for j in range(n)] for i in range(n)]
        with pytest.raises(d.ResiduationFails):
            d.residuum_from_tables(leq, otimes)

    @pytest.mark.parametrize("otimes", [
        [[0, 0], [0, 5]],  # past the carrier
        [[0, 0], [0, -1]],  # would index from the end
        [[0, 0], [0, 0.5]],  # would be truncated to 0
        [[0, 0, 0], [0, 1, 1]],  # 2x3
    ], ids=["too-large", "negative", "fraction", "not-square"])
    def test_otimes_outside_the_carrier_rejected(self, otimes):
        with pytest.raises(ValueError, match="otimes table is not 2x2 over the carrier"):
            d.residuum_from_tables([[1, 1], [0, 1]], otimes)


def _sup_residuum(leq, join, otimes):
    """Reference: x -> y as the join of {z : x * z <= y}, folded from bottom."""
    L = np.asarray(leq, dtype=bool)
    J = np.asarray(join, dtype=np.int64)
    O = np.asarray(otimes, dtype=np.int64)
    n = L.shape[0]
    bottom = int(np.where(L.all(axis=1))[0][0])
    R = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        admits = L[O[x]]  # admits[z, y]: x * z <= y
        acc = np.full(n, bottom, dtype=np.int64)
        for z in range(n):
            sel = admits[z]
            acc[sel] = J[acc[sel], z]
        R[x] = acc
    for x in range(n):
        if (L[O[x]].T != L[:, R[x]].T).any():
            raise d.ResiduationFails((x, 0, 0))
    return tuple(tuple(int(v) for v in row) for row in R)


def _random_monoid_table(meet, top, bottom, rng):
    """Commutative table with bottom annihilating and top the identity.

    Each other entry is the meet or, one time in three, a random element,
    so that residuated and non-residuated tables both occur.
    """
    n = len(meet)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            v = rng.randrange(n) if rng.randrange(3) == 0 else meet[x][y]
            if bottom in (x, y):
                v = bottom
            elif x == top or y == top:
                v = y if x == top else x
            table[x][y] = table[y][x] = v
    return table


class TestResiduumAgainstSupFormula:
    def _agree(self, leq, join, otimes) -> bool:
        """True when a residuum exists; asserts both derivations agree."""
        try:
            expected = _sup_residuum(leq, join, otimes)
        except d.ResiduationFails:
            with pytest.raises(d.ResiduationFails):
                d.residuum_from_tables(leq, otimes)
            return False
        assert np.array_equal(d.residuum_from_tables(leq, otimes), expected)
        return True

    def test_builtins_and_heyting_algebras(self):
        algebras = [make() for make in BUILTIN_SAMPLE]
        algebras += [d.weighted(9), d.lukasiewicz_chain(8), d.godel_chain(8)]
        algebras += [d.heyting_from_lattice(leq) for _, leq in distributive_lattices(6)]
        for a in algebras:
            assert self._agree(a.leq, a.join, a.otimes), a.name

    def test_products(self, boolean_alg, godel3, luk3, w4):
        diamond = d.heyting_from_lattice(DIAMOND)
        for a, b in [(godel3, w4), (luk3, godel3), (boolean_alg, diamond),
                     (d.lukasiewicz_chain(4), luk3), (diamond, w4)]:
            p = d.direct_product(a, b)
            assert self._agree(p.leq, p.join, p.otimes), p.name

    def test_random_tables_over_distributive_lattices(self):
        rng = random.Random(20081)
        outcomes = set()
        for _, leq in distributive_lattices(6):
            meet, join, top, bottom = d.derive_lattice(leq)
            for _ in range(300):
                otimes = _random_monoid_table(meet, top, bottom, rng)
                outcomes.add((len(leq) > 4, self._agree(leq, join, otimes)))
        # residuated and non-residuated tables occur, on small and larger carriers
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


class TestCheckAxioms:
    @pytest.mark.parametrize("profile", ["drl", "derived"])
    def test_builtins_pass(self, profile):
        for make in BUILTIN_SAMPLE:
            report = d.check_axioms(make(), profile)
            assert report.ok, (make().name, report.failures())

    def test_boolean_cis_reduct_passes(self, boolean_alg):
        assert d.check_axioms(boolean_alg, "cis-reduct").ok

    def test_lukasiewicz_cis_reduct_fails_idempotency(self, luk3):
        # Every semiring law but idempotency holds: 1 * 1 = 0 in Luk(3).
        failures = d.check_axioms(luk3, "cis-reduct").failures()
        assert [(c.axiom, c.counterexample) for c in failures] == [("otimes-idempotent", (1, 0, 0))]

    def test_mixed_tables_fail_with_replayable_counterexample(self, luk3, godel3):
        # Goedel product with the Lukasiewicz residuum left in place
        mixed = d.FiniteDRL(
            size=3,
            leq=godel3.leq,
            meet=godel3.meet,
            join=godel3.join,
            otimes=godel3.otimes,
            residuum=luk3.residuum,
            top=2,
            bottom=0,
            name="mixed",
        )
        report = d.check_axioms(mixed, "drl")
        failed = {c.axiom for c in report.failures()}
        assert failed & {"residuation", "divisibility"}
        for check in report.failures():
            assert not law_holds_at(mixed, "drl", check.axiom, check.counterexample)

    def test_counterexample_is_lexicographically_least(self, godel3):
        report = d.check_axioms(godel3, "drl")
        assert report.ok
        # corrupt one monoid entry and confirm the first failing triple
        otimes = [list(row) for row in godel3.otimes]
        otimes[0][1] = 1
        bad = d.FiniteDRL(3, godel3.leq, godel3.meet, godel3.join,
                          tuple(tuple(r) for r in otimes), godel3.residuum, 2, 0)
        failure = next(c for c in d.check_axioms(bad, "drl").failures()
                       if c.axiom == "otimes-commutative")
        assert failure.counterexample == (0, 1, 0)

    def test_unknown_profile_rejected(self, boolean_alg):
        with pytest.raises(ValueError):
            d.check_axioms(boolean_alg, "nope")

    def test_malformed_table_rejected(self, boolean_alg):
        # An algebra with a malformed table cannot be built, so no law check sees one.
        with pytest.raises(ValueError):
            d.FiniteDRL(2, boolean_alg.leq, boolean_alg.meet, boolean_alg.join,
                        ((0, 5), (0, 1)), boolean_alg.residuum, 1, 0)

    @pytest.mark.parametrize("entry", [-1, -0.5, 0.5, 2**63, 2**64, -(2**63) - 1])
    def test_out_of_range_or_fractional_entry_rejected(self, boolean_alg, entry):
        # Refused when the algebra is built, so check_axioms and classify
        # never see the entry wrap round or truncate.
        with pytest.raises(ValueError, match="'?otimes'? table has entries outside"):
            d.FiniteDRL(2, boolean_alg.leq, boolean_alg.meet, boolean_alg.join,
                        ((0, entry), (0, 1)), boolean_alg.residuum, 1, 0)
        with pytest.raises(ValueError, match="'?otimes'? table has entries outside"):
            dataclasses.replace(boolean_alg, otimes=((0, entry), (0, 1)))

    @pytest.mark.parametrize("field", ["top", "bottom"])
    def test_boolean_top_or_bottom_rejected(self, field):
        # As a numpy index False is an empty mask, so the laws on top and
        # bottom would hold vacuously; 0 is weighted(4)'s top, not its bottom.
        # Such an algebra cannot be built, so no law check sees one.
        w = d.weighted(4)
        with pytest.raises(ValueError, match="top/bottom out of range"):
            dataclasses.replace(w, **{field: False})


class TestTables:
    def test_stored_as_read_only_arrays(self, godel3):
        for key in ("leq", "meet", "join", "otimes", "residuum"):
            table = getattr(godel3, key)
            assert table.shape == (3, 3) and not table.flags.writeable
            assert table.dtype == (bool if key == "leq" else np.intp)
        with pytest.raises(ValueError, match="read-only"):
            godel3.otimes[0, 0] = 1
        assert d.godel_chain(3) == godel3

    def test_built_from_a_caller_array_copies_it(self, godel3):
        otimes = np.array(godel3.otimes)
        a = dataclasses.replace(godel3, otimes=otimes)
        otimes[0, 0] = 2
        assert a == godel3 and a.otimes[0, 0] == 0

    def test_equality_ignores_name_and_hash_agrees(self, godel3):
        renamed = dataclasses.replace(godel3, name="other")
        assert renamed == godel3 and hash(renamed) == hash(godel3)
        assert godel3 != d.lukasiewicz_chain(3)
        assert godel3 != dataclasses.replace(godel3, top=1)

    @pytest.mark.parametrize("table,message", [
        ([[0, 0], [0]], "meet table is not 2x2"),
        ([[0, 0, 0], [0, 1, 0]], "meet table is not 2x2"),
        ([[0, 0], [0, 2]], "meet table has entries outside the carrier"),
    ])
    def test_shape_and_range_refused_when_built(self, boolean_alg, table, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(boolean_alg, meet=table)


class TestClassify:
    def test_godel_chain(self, godel3):
        flags = d.classify(godel3)
        assert flags == d.VarietyFlags(True, True, False, True, "Godel")

    def test_lukasiewicz_chain(self, luk3):
        flags = d.classify(luk3)
        assert flags == d.VarietyFlags(True, False, True, True, "MV")

    def test_boolean(self, boolean_alg):
        flags = d.classify(boolean_alg)
        assert flags == d.VarietyFlags(True, True, True, True, "Boolean")

    def test_weighted_is_mv_chain(self, w4):
        flags = d.classify(w4)
        assert flags.variety_name == "MV" and flags.chain

    def test_product_of_distinct_chains(self, luk3, godel3):
        flags = d.classify(d.direct_product(luk3, godel3))
        assert not flags.idempotent and not flags.chain

    def test_square_with_pendant_top_is_properly_heyting(self):
        # bottom < a, b < m < top; prelinearity fails at (a, b)
        leq = [
            [1, 1, 1, 1, 1],
            [0, 1, 0, 1, 1],
            [0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
        ]
        h = d.heyting_from_lattice(leq)
        flags = d.classify(h)
        assert flags.variety_name == "Heyting"
        assert not flags.prelinear and flags.idempotent and not flags.chain


class TestBuiltins:
    def test_godel2_equals_boolean_tables(self, boolean_alg):
        assert d.godel_chain(2) == boolean_alg

    @pytest.mark.parametrize("bad_call", [
        lambda: d.godel_chain(1),
        lambda: d.lukasiewicz_chain(0),
        lambda: d.weighted(0),
    ])
    def test_bad_params(self, bad_call):
        with pytest.raises(ValueError):
            bad_call()

    @pytest.mark.parametrize("build", [
        d.godel_chain,
        d.lukasiewicz_chain,
        lambda size: d.weighted(size - 1),
        lambda size: d.heyting_from_lattice([[i <= j for j in range(size)] for i in range(size)]),
    ], ids=["godel", "lukasiewicz", "weighted", "heyting"])
    def test_carrier_cap(self, build, monkeypatch):
        monkeypatch.setattr(algebra, "CARRIER_CAP", 8)
        assert build(8).size == 8
        with pytest.raises(d.SizeOverflow) as info:
            build(9)
        assert (info.value.size, info.value.cap) == (9, 8)

    def test_over_the_default_cap_refused_before_building(self):
        # each table of a million-element chain would hold 10^12 entries
        tracemalloc.start()
        try:
            for build in (d.godel_chain, d.lukasiewicz_chain, d.weighted):
                with pytest.raises(d.SizeOverflow):
                    build(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_heyting_diamond_residuum(self):
        h = d.heyting_from_lattice(DIAMOND)
        assert h.residuum[1][2] == 2  # a -> b is b
        assert np.array_equal(h.otimes, h.meet)

    def test_heyting_rejects_non_distributive(self):
        # M3: three incomparable atoms is a lattice but not distributive
        leq = [
            [1, 1, 1, 1, 1],
            [0, 1, 0, 0, 1],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
        ]
        with pytest.raises(d.NotDistributive):
            d.heyting_from_lattice(leq)


class TestDirectProduct:
    def test_pairing_and_bounds(self, boolean_alg, bb_square):
        assert bb_square.size == 4
        assert bb_square.top == 3 and bb_square.bottom == 0
        # (t,b) and (b,t) are incomparable
        assert not bb_square.leq[1][2] and not bb_square.leq[2][1]

    def test_componentwise_operations(self, godel3, luk3):
        p = d.direct_product(godel3, luk3)
        nb = luk3.size
        for x1, y1, x2, y2 in itertools.product(range(3), repeat=4):
            i, j = x1 * nb + y1, x2 * nb + y2
            assert p.otimes[i][j] == godel3.otimes[x1][x2] * nb + luk3.otimes[y1][y2]
            assert p.residuum[i][j] == godel3.residuum[x1][x2] * nb + luk3.residuum[y1][y2]

    def test_product_passes_drl(self, godel3, luk3):
        assert d.check_axioms(d.direct_product(godel3, luk3), "drl").ok

    def test_componentwise_residuum_matches_derivation(self, godel3, w4):
        p = d.direct_product(godel3, w4)
        assert np.array_equal(d.residuum_from_tables(p.leq, p.otimes), p.residuum)

    def test_size_overflow(self, w10, monkeypatch):
        monkeypatch.setattr(algebra, "CARRIER_CAP", 120)
        with pytest.raises(d.SizeOverflow) as info:
            d.direct_product(w10, w10)
        assert (info.value.size, info.value.cap) == (121, 120)


def _forbid_laws(monkeypatch):
    """No law may run: neither a decision, nor the blocked evaluator, nor the
    residuation gather of `residuum_from_tables`."""
    for name in ("_Facts", "_first_failure", "_residuated"):
        monkeypatch.setattr(algebra, name, None)


class TestExpandCIS:
    """A commutative idempotent semiring expands to a Heyting algebra
    through `load_algebra`, given its order (read off its join) and its
    product."""

    def test_diamond_round_trip(self):
        h = d.heyting_from_lattice(DIAMOND)
        payload = semiring_payload(h.join, h.otimes, h.top, h.bottom, h.name)
        assert d.load_algebra(payload) == h

    def test_boolean_reduct_round_trip(self, boolean_alg):
        payload = semiring_payload(boolean_alg.join, boolean_alg.otimes,
                                   boolean_alg.top, boolean_alg.bottom, boolean_alg.name)
        assert d.load_algebra(payload) == boolean_alg

    def test_output_is_idempotent_with_meet_product(self):
        h = d.heyting_from_lattice(DIAMOND)
        out = d.load_algebra(semiring_payload(h.join, h.meet, h.top, h.bottom, "diamond"))
        assert np.array_equal(out.otimes, out.meet)
        assert d.classify(out).idempotent
        assert d.check_axioms(out, "drl").ok

    def test_non_idempotent_product_rejected(self, luk3):
        # Luk(3)'s (join, otimes) reduct loads, but as the MV-algebra it is:
        # not idempotent, so the semiring laws refuse it at 1 * 1 = 0.
        out = d.load_algebra(semiring_payload(luk3.join, luk3.otimes, luk3.top, luk3.bottom, "luk3"))
        assert out == luk3
        assert not d.classify(out).idempotent
        failures = d.check_axioms(out, "cis-reduct").failures()
        assert [(c.axiom, c.counterexample) for c in failures] == [("otimes-idempotent", (1, 0, 0))]

    @pytest.mark.parametrize("top,bottom", [
        (0, False), (True, 1), (0, 1.0), (0.0, 1), (0, 2), (-1, 1),
    ], ids=["bool-bottom", "bool-top", "float-bottom", "float-top", "out-of-range", "negative"])
    def test_non_element_top_or_bottom_refused_before_any_law(self, top, bottom, monkeypatch):
        # top 0 and bottom 1; as a numpy index False is an empty mask, so the
        # laws on bottom would hold vacuously and the result would carry
        # bottom=False, which brute_force_solve then takes for element 0.
        h = d.heyting_from_lattice([[1, 0], [1, 1]])
        assert (h.top, h.bottom) == (0, 1)
        payload = semiring_payload(h.join, h.otimes, h.top, h.bottom, "two")
        payload.update(top=top, bottom=bottom)
        _forbid_laws(monkeypatch)
        with pytest.raises(d.ParseError, match="must be an element id below 2"):
            d.load_algebra(payload)
        with pytest.raises(ValueError, match="top/bottom out of range"):
            dataclasses.replace(h, top=top, bottom=bottom)

    @pytest.mark.parametrize("join,otimes,message", [
        ([[0, 5], [5, 1]], [[0, 0], [0, 1]], "'join' has entries outside the carrier"),
        ([[0, 1], [1, 1]], [[0, 0], [0, -1]], "'otimes' has entries outside the carrier"),
        ([[0, 1], [1, 1]], [[0, 0.5], [0.5, 1]], "'otimes' must be a 2x2 integer table"),
    ], ids=["too-large", "negative", "fractional"])
    def test_out_of_carrier_entry_refused_before_any_law(self, join, otimes, message, monkeypatch):
        # 5 would index past the tables in the law checker, and -1 would wrap
        # round to element 1.
        payload = {"size": 2, "top": 1, "bottom": 0, "leq": [[1, 1], [0, 1]],
                   "join": join, "otimes": otimes}
        _forbid_laws(monkeypatch)
        with pytest.raises(d.ParseError, match=message):
            d.load_algebra(payload)


def _tensor_first_failure(a, law):
    """Reference: evaluate `law` on the whole n**3 grid at once."""
    ids = np.arange(a.size)
    res = np.asarray(law(a, ids[:, None, None], ids[None, :, None], ids[None, None, :]))
    res = np.broadcast_to(res, (a.size,) * 3)
    if res.all():
        return None
    return tuple(int(v) for v in np.argwhere(~res)[0])


@pytest.fixture(scope="module")
def luk12_godel12():
    return d.direct_product(d.lukasiewicz_chain(12), d.godel_chain(12))


class TestBlockedEvaluator:
    # Carrier 144 is checked in blocks of 2**18 // 144**2 = 12 values of x;
    # each planted failure first shows at an x in the last block.
    # Every law with a whole-table decision has a row, so the evaluator that
    # runs after the decision refuses the law finds the same witness.
    @pytest.mark.parametrize("profile,axiom,table,cell,value,witness", [
        ("drl", "meet-is-glb", "meet", (140, 141), 0, (140, 141, 1)),
        ("derived", "residuum-characterizes-order", "residuum", (137, 137), 0, (137, 137, 0)),
        ("cis-reduct", "join-idempotent", "join", (141, 141), 0, (141, 0, 0)),
        ("drl", "leq-transitive", "leq", (135, 142), 0, (135, 136, 142)),
        ("drl", "join-is-lub", "join", (134, 137), 30, (134, 137, 0)),
        ("drl", "otimes-associative", "otimes", (132, 0), 12, (132, 0, 0)),
        ("drl", "residuation", "residuum", (136, 141), 108, (136, 141, 1)),
        ("derived", "otimes-monotone", "otimes", (137, 143), 130, (132, 137, 143)),
        ("derived", "residuum-exchange", "residuum", (12, 0), 143, (132, 0, 12)),
        ("derived", "otimes-distributes-join", "otimes", (133, 135), 83, (133, 3, 132)),
        ("cis-reduct", "join-associative", "join", (132, 0), 133, (132, 0, 12)),
        ("drl", "leq-reflexive", "leq", (137, 137), 0, (137, 0, 0)),
        ("drl", "leq-antisymmetric", "leq", (140, 139), 1, (139, 140, 0)),
        ("drl", "bottom-least", "leq", (0, 135), 0, (135, 0, 0)),
        ("drl", "top-greatest", "leq", (133, 143), 0, (133, 0, 0)),
        ("drl", "otimes-commutative", "otimes", (134, 135), 0, (134, 135, 0)),
    ])
    def test_failure_in_last_block(self, luk12_godel12, profile, axiom, table, cell,
                                   value, witness):
        a = luk12_godel12
        rows = [list(row) for row in getattr(a, table)]
        rows[cell[0]][cell[1]] = value
        bad = dataclasses.replace(a, **{table: tuple(map(tuple, rows))})
        block = algebra._POINT_BUDGET // a.size ** 2
        assert witness[0] >= a.size - block

        check = next(c for c in d.check_axioms(bad, profile).checks if c.axiom == axiom)
        law = dict(algebra.PROFILES[profile])[axiom]
        decide = algebra._DECISIONS.get(law)
        assert decide is None or decide(algebra._Facts(bad)) is False
        assert check.counterexample == witness
        assert _tensor_first_failure(bad, law) == witness
        assert not law_holds_at(bad, profile, axiom, witness)

    def test_clean_algebra_agrees_with_whole_grid(self):
        a = d.direct_product(d.godel_chain(9), d.weighted(8))  # three blocks
        for profile, laws in algebra.PROFILES.items():
            report = d.check_axioms(a, profile)
            for (axiom, law), check in zip(laws, report.checks):
                assert check.counterexample == _tensor_first_failure(a, law), (profile, axiom)

    def test_peak_memory_is_bounded(self):
        self._assert_peak_memory_is_bounded("drl")

    def test_derived_peak_memory_is_bounded(self):
        self._assert_peak_memory_is_bounded("derived")

    @staticmethod
    def _assert_peak_memory_is_bounded(profile):
        a = d.direct_product(d.lukasiewicz_chain(11), d.godel_chain(11))
        tracemalloc.start()
        try:
            report = d.check_axioms(a, profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole 121**3 grid of int64 indices alone would need 14 MB
        assert report.ok
        assert peak < 12_000_000


def _mutated(a: d.FiniteDRL, rng: random.Random) -> d.FiniteDRL:
    """`a` with one to three of these changes, built without any law check:
    a flipped order entry, on the diagonal or off it; two distinct elements
    made mutually below (the order is then not antisymmetric); two order
    entries added or one removed (most often the order is then not
    transitive); a meet, join, otimes or residuum entry set to another
    element, now and then at both (x, y) and (y, x); two entries of one
    row of those tables swapped."""
    tables = {key: np.array(getattr(a, key)) for key in ("leq", "meet", "join", "otimes", "residuum")}
    L, n = tables["leq"], a.size
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["flip", "mutual", "add-two", "remove", "meet", "join", "otimes",
                           "residuum", "otimes", "swap"])
        x, y = rng.sample(range(n), 2)
        if kind == "flip":
            x = rng.choice([x, y])
            L[x, y] = not L[x, y]
        elif kind == "swap":
            T = tables[rng.choice(["meet", "join", "otimes", "residuum"])]
            z = rng.randrange(n)
            T[x, y], T[x, z] = T[x, z], T[x, y]
        elif kind == "mutual":
            L[x, y] = L[y, x] = True
        elif kind == "add-two":
            L[x, y] = L[rng.randrange(n), rng.randrange(n)] = True
        elif kind == "remove":
            xs, ys = np.nonzero(L)
            i = rng.randrange(len(xs))
            L[xs[i], ys[i]] = False
        else:
            T = tables[kind]
            T[x, y] = rng.randrange(n)
            if rng.random() < 0.5:
                T[y, x] = T[x, y]
    return dataclasses.replace(a, **tables)


class TestDecisions:
    """The whole-table decisions against the whole-grid reference."""

    def test_mutated_algebras_agree_with_whole_grid(self):
        bases = [make() for make in BUILTIN_SAMPLE] + [
            d.direct_product(d.godel_chain(3), d.lukasiewicz_chain(3)),
            d.direct_product(d.boolean(), d.heyting_from_lattice(DIAMOND)),
            d.direct_product(d.lukasiewicz_chain(4), d.weighted(4)),
            d.direct_product(d.lukasiewicz_chain(6), d.godel_chain(6)),
        ]
        bases += [d.heyting_from_lattice(leq) for _, leq in distributive_lattices(6) if len(leq) > 2]
        rng = random.Random(20081018)
        outcomes = {law: set() for law in algebra._DECISIONS}
        for _ in range(500):
            a = _mutated(rng.choice(bases), rng)
            partial_order = algebra._order_defect(a.leq) is None
            for profile, laws in algebra.PROFILES.items():
                for (axiom, law), check in zip(laws, d.check_axioms(a, profile).checks):
                    witness = _tensor_first_failure(a, law)
                    assert check.counterexample == witness, (a.name, profile, axiom)
                    decide = algebra._DECISIONS.get(law)
                    if decide is not None:
                        decided = decide(algebra._Facts(a))
                        # a decision confirms only a law that holds
                        assert not decided or witness is None, (profile, axiom)
                        outcomes[law].add((decided, witness is None, partial_order))
        for law, seen in outcomes.items():
            # each decision confirms its law on some algebras and refuses it on others
            assert {(True, True), (False, False)} <= {s[:2] for s in seen}, (law.__name__, seen)
        # a law that holds without a partial order, which these decisions refuse
        for law in (algebra._law_meet_is_glb, algebra._law_otimes_monotone):
            assert (False, True, False) in outcomes[law], law.__name__

    # Found by search over all reflexive relations on four elements. The
    # order is not transitive and the law fails at (3, 3, 3), yet the count
    # form alone would confirm it: 3 and 3 have three common lower bounds,
    # and three elements lie below their meet 1. With the transposed order
    # and the same table as join, the dual holds for joins.
    @pytest.mark.parametrize("axiom,leq", [
        ("meet-is-glb", [[1, 1, 1, 1], [1, 1, 1, 1], [0, 1, 1, 0], [0, 0, 0, 1]]),
        ("join-is-lub", [[1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 0, 1]]),
    ])
    def test_count_form_needs_a_transitive_order(self, axiom, leq):
        table = [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
        zeros = [[0] * 4] * 4
        a = d.FiniteDRL(4, leq, table, table, zeros, zeros, 0, 0)
        law = dict(algebra.PROFILES["drl"])[axiom]
        assert algebra._DECISIONS[law](algebra._Facts(a)) is False
        check = next(c for c in d.check_axioms(a, "drl").checks if c.axiom == axiom)
        assert check.counterexample == _tensor_first_failure(a, law) == (3, 3, 3)


def _grid(rows: int, cols: int, new_top: bool = False) -> list[list[bool]]:
    """The order of the product of two chains, optionally under a new top."""
    points = list(itertools.product(range(rows), range(cols)))
    leq = [[p[0] <= q[0] and p[1] <= q[1] for q in points] for p in points]
    if new_top:
        leq = [row + [True] for row in leq] + [[False] * len(points) + [True]]
    return leq


def _non_associative_products(leq):
    """Every commutative, non-associative product on the lattice `leq` that
    preserves binary joins and has bottom as annihilator, as
    (meet, join, top, bottom, otimes).

    Such a product is the join extension of its values on the
    join-irreducibles J, so the search runs over all symmetric J x J tables
    and keeps the extensions that preserve joins and are not associative."""
    L = np.asarray(leq, dtype=bool)
    meet, join, top, bottom = d.derive_lattice(L)
    n = len(L)
    strict = L & ~np.eye(n, dtype=bool)
    covers = strict & ~(strict.astype(int) @ strict.astype(int) > 0)
    J = np.flatnonzero(covers.sum(axis=0) == 1)
    pairs = [(j, k) for j in J for k in J if j <= k]
    values = np.array(list(itertools.product(range(n), repeat=len(pairs))))
    on_j = {}
    for (j, k), column in zip(pairs, values.T):
        on_j[j, k] = on_j[k, j] = column
    full = np.full((len(values), n, n), bottom)
    for x, y in itertools.product(range(n), repeat=2):
        for j, k in itertools.product(J[L[J, x]], J[L[J, y]]):
            full[:, x, y] = join[full[:, x, y], on_j[j, k]]
    keep = np.ones(len(values), dtype=bool)
    associative = np.ones(len(values), dtype=bool)
    rows = np.arange(len(values))
    for x, y, z in itertools.product(range(n), repeat=3):
        keep &= full[:, x, join[y, z]] == join[full[:, x, y], full[:, x, z]]
        associative &= full[rows, full[:, x, y], z] == full[rows, x, full[:, y, z]]
    return [(meet, join, top, bottom, otimes) for otimes in full[keep & ~associative]]


def _evaluate_undecided_only(monkeypatch):
    """Refuse the blocked evaluator for any law with a whole-table decision."""
    evaluate = algebra._first_failure

    def undecided_only(a, law):
        assert law not in algebra._DECISIONS, law.__name__
        return evaluate(a, law)

    monkeypatch.setattr(algebra, "_first_failure", undecided_only)


class TestJoinIrreduciblePath:
    """`otimes-associative` on the join-irreducibles, and `residuum-exchange`
    from associativity, divisibility and the meet."""

    @pytest.mark.parametrize("make", [
        lambda: d.direct_product(d.lukasiewicz_chain(6), d.godel_chain(6)),
        lambda: d.direct_product(d.heyting_from_lattice(_grid(2, 3)),
                                 d.heyting_from_lattice(_grid(3, 3, new_top=True))),
        lambda: d.direct_product(d.boolean(), d.heyting_from_lattice(DIAMOND)),
    ], ids=["luk6xgodel6", "grid-x-grid", "boolean-x-diamond"])
    def test_laws_confirmed_without_the_full_gathers(self, make, monkeypatch):
        # Each decided law is confirmed from its premise; no law with a
        # decision reaches the blocked evaluator.
        a = make()
        _evaluate_undecided_only(monkeypatch)
        for profile in ("drl", "derived"):
            assert d.check_axioms(a, profile).ok, profile

    def test_drls_decided_by_their_premises(self, monkeypatch):
        # Every DRL meets each decision's premise, so in either profile order
        # the blocked evaluator runs only for the laws without a decision.
        algebras = list(drls(6)) + [
            d.direct_product(d.lukasiewicz_chain(6), d.godel_chain(6)),
            d.direct_product(d.heyting_from_lattice(_grid(2, 3)),
                             d.heyting_from_lattice(_grid(3, 3, new_top=True))),
            d.direct_product(d.boolean(), d.heyting_from_lattice(DIAMOND)),
            d.direct_product(d.lukasiewicz_chain(16), d.godel_chain(16)),
        ]
        assert len(algebras) == 45
        _evaluate_undecided_only(monkeypatch)
        for a in algebras:
            for order in (("drl", "derived", "cis-reduct"), ("cis-reduct", "derived", "drl")):
                fresh = dataclasses.replace(a)
                for profile in order:
                    assert d.check_axioms(fresh, profile).ok or profile == "cis-reduct", (a.name, profile)

    @pytest.mark.parametrize("leq", [
        [[i <= j for j in range(4)] for i in range(4)], DIAMOND, _grid(2, 2, new_top=True),
    ], ids=["chain4", "grid2x2", "diamond+top"])
    def test_non_associative_products_refused_on_join_irreducibles(self, leq):
        # The witness comes from the blocked evaluator after the J path
        # returned False.
        law = algebra._law_otimes_associative
        products = _non_associative_products(leq)
        assert products
        for meet, join, top, bottom, otimes in products:
            residuum = d.residuum_from_tables(leq, otimes)
            a = d.FiniteDRL(len(leq), leq, meet, join, otimes, residuum, top, bottom)
            check = next(c for c in d.check_axioms(a, "drl").checks if c.axiom == "otimes-associative")
            assert check.counterexample == _tensor_first_failure(a, law)

    # Each product is associative on J (the elements with one lower cover)
    # but not everywhere, and only the named premise fails: 1 and 2 are
    # mutually below each other, so J is empty; or 0 * 2 = 1 but 2 * 0 = 0.
    @pytest.mark.parametrize("premise,leq,otimes", [
        ("partial", [[1, 1, 1], [0, 1, 1], [0, 1, 1]], [[0, 0, 0], [0, 2, 1], [0, 1, 1]]),
        ("commutative", [[1, 1, 1], [0, 1, 1], [0, 0, 1]], [[0, 0, 1], [0, 1, 1], [0, 1, 2]]),
    ])
    def test_associativity_on_join_irreducibles_needs_its_premise(self, premise, leq, otimes):
        ids = np.arange(3)
        join = np.where(np.asarray(leq, dtype=bool), ids, ids[:, None])  # x <= y gives y
        # No premise reads the meet table.
        a = d.FiniteDRL(3, leq, join, join, otimes, d.residuum_from_tables(leq, otimes), 2, 0)
        facts = algebra._Facts(a)
        premises = {"partial": facts.partial, "commutative": facts.commutative,
                    "join-is-lub": facts.join_is_lub, "residuation": facts.residuation}
        # join-is-lub reads the partial-order test, so it fails with it.
        failing = [premise] + ["join-is-lub"] * (premise == "partial")
        assert [name for name, holds in premises.items() if not holds] == failing
        assert algebra._associative_on(a.otimes, np.flatnonzero(facts.covers.sum(axis=0) == 1))
        law = algebra._law_otimes_associative
        assert algebra._DECISIONS[law](facts) is False
        check = next(c for c in d.check_axioms(a, "drl").checks if c.axiom == "otimes-associative")
        assert check.counterexample == _tensor_first_failure(a, law) is not None

    def test_declared_bottom_not_least_takes_the_full_gather(self):
        # Every other premise holds: a partial order with binary lubs, a
        # commutative product and its residuum. The declared bottom is 1.
        leq = [[i <= j for j in range(4)] for i in range(4)]
        meet, join, _, _, otimes = _non_associative_products(leq)[0]
        a = d.FiniteDRL(4, leq, meet, join, otimes, d.residuum_from_tables(leq, otimes), 3, 1)
        facts = algebra._Facts(a)
        assert facts.partial and facts.join_is_lub and facts.commutative and facts.residuation
        law = algebra._law_otimes_associative
        assert algebra._DECISIONS[law](facts) is False
        check = next(c for c in d.check_axioms(a, "drl").checks if c.axiom == "otimes-associative")
        assert check.counterexample == _tensor_first_failure(a, law) is not None


class TestFactsKept:
    """The boolean law-check facts are kept with the algebra that was checked."""

    _KEPT = {"partial", "meet_is_glb", "join_is_lub", "commutative",
             "residuation", "otimes_associative"}

    @pytest.fixture()
    def gathers(self, monkeypatch):
        """The number of residuation gathers run."""
        counted = []
        gather = algebra._residuated
        monkeypatch.setattr(algebra, "_residuated", lambda *tables: counted.append(1) or gather(*tables))
        return counted

    def test_derived_check_after_a_validated_load_runs_no_gather(self, gathers):
        text = d.save_algebra(d.direct_product(d.lukasiewicz_chain(5), d.godel_chain(4)))
        gathers.clear()  # the chain constructors validate their residua
        loaded = d.load_algebra(text)
        assert len(gathers) == 1
        assert d.check_axioms(loaded, "derived").ok
        assert d.check_axioms(loaded, "drl").ok
        assert len(gathers) == 1
        assert set(loaded._facts) == self._KEPT
        assert all(type(value) is bool for value in loaded._facts.values())

    def test_a_derived_residuum_is_gathered_once(self, gathers):
        # residuum_from_tables validates its table; that gather is the
        # residuation fact of the loaded algebra, which the drl check reads.
        a = d.direct_product(d.lukasiewicz_chain(16), d.godel_chain(16))
        obj = orjson.loads(d.save_algebra(a))
        del obj["residuum"]
        gathers.clear()
        loaded = d.load_algebra(orjson.dumps(obj).decode())
        assert loaded == a and len(gathers) == 1
        assert loaded._facts["residuation"] is True

    def test_a_derived_residuum_never_changes_a_report(self):
        # Loads without a residuum, of algebras that break laws: each report
        # is that of a copy that keeps no facts; the refusals are those of
        # residuum_from_tables on the loaded order and product.
        rng = random.Random(2026)
        bases = [d.direct_product(d.lukasiewicz_chain(4), d.godel_chain(3)),
                 d.direct_product(d.boolean(), d.heyting_from_lattice(DIAMOND))]
        loaded_count = 0
        for _ in range(60):
            obj = orjson.loads(d.save_algebra(_mutated(rng.choice(bases), rng)))
            del obj["residuum"]
            text = orjson.dumps(obj).decode()
            try:
                expected = d.residuum_from_tables(obj["leq"], obj["otimes"])
            except (d.AlgebraError, ValueError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    d.load_algebra(text, validate=False)
                continue
            loaded = d.load_algebra(text, validate=False)
            assert np.array_equal(loaded.residuum, expected)
            for profile in ("drl", "derived"):
                assert d.check_axioms(loaded, profile) == d.check_axioms(dataclasses.replace(loaded), profile)
            loaded_count += 1
        assert 0 < loaded_count < 60

    def test_an_equal_algebra_shares_no_facts(self, gathers):
        a = d.direct_product(d.lukasiewicz_chain(4), d.weighted(3))
        gathers.clear()
        assert d.check_axioms(a, "drl").ok and len(gathers) == 1
        for twin in (dataclasses.replace(a), d.load_algebra(d.save_algebra(a), validate=False)):
            assert twin == a and twin._facts == {}
            assert d.check_axioms(twin, "derived").ok
            assert twin._facts is not a._facts
        assert len(gathers) == 3

    def test_kept_facts_never_change_a_report(self):
        # Algebras that break laws, loaded without validation: every report,
        # in either profile order, is that of a fresh copy checked once.
        rng = random.Random(2008)
        bases = [d.direct_product(d.lukasiewicz_chain(4), d.godel_chain(3)),
                 d.direct_product(d.boolean(), d.heyting_from_lattice(DIAMOND))]
        false_facts = set()
        for _ in range(40):
            text = d.save_algebra(_mutated(rng.choice(bases), rng))
            fresh = {profile: d.check_axioms(d.load_algebra(text, validate=False), profile)
                     for profile in ("drl", "derived")}
            for order in (("drl", "derived"), ("derived", "drl")):
                loaded = d.load_algebra(text, validate=False)
                for profile in order:
                    assert d.check_axioms(loaded, profile) == fresh[profile], (text, order)
                assert all(type(value) is bool for value in loaded._facts.values())
                false_facts |= {name for name, value in loaded._facts.items() if not value}
        assert not fresh["drl"].ok or not fresh["derived"].ok
        # the kept facts that were False cover most kinds
        assert {"partial", "commutative", "residuation", "otimes_associative"} <= false_facts

    def test_later_profiles_decide_from_the_kept_facts(self, monkeypatch):
        # After a drl check, otimes-monotone follows from the kept partial,
        # commutative and residuation facts, and join-associative from the
        # partial and join-is-lub ones: no count product.
        algebras = list(drls(6)) + [d.direct_product(d.lukasiewicz_chain(6), d.godel_chain(6))]
        assert len(algebras) == 42
        for a in algebras:
            assert d.check_axioms(a, "drl").ok, a.name

        def refused(*args):
            raise AssertionError("a law loop ran that the kept facts prove")

        monkeypatch.setattr(algebra, "_count_product", refused)
        for a in algebras:
            for profile in ("derived", "cis-reduct"):
                for (axiom, law), check in zip(algebra.PROFILES[profile], d.check_axioms(a, profile).checks):
                    assert check.counterexample == _tensor_first_failure(a, law), (a.name, axiom)


def _pinned_chains() -> list:
    """boolean, Goedel 2-12, Lukasiewicz 2-12 and weighted 1-12, in this order."""
    return ([d.boolean()] + [d.godel_chain(n) for n in range(2, 13)]
            + [d.lukasiewicz_chain(n) for n in range(2, 13)] + [d.weighted(n) for n in range(1, 13)])


# The sha256 of the concatenated `save_algebra` texts of `_pinned_chains()`.
_PINNED_CHAINS_DIGEST = "f3bf731560692c2b36db7cb98d384e3832bda0208e0ffae1f0255bb33dfd0411"


class TestConstructorsKeepResiduation:
    """Each constructor keeps the residuation fact that its own gather proved,
    and the loader keeps the one of a residuum it derived."""

    gathers = TestFactsKept.gathers

    @staticmethod
    def _constructed() -> list:
        heyting = [d.heyting_from_lattice(leq, name) for name, leq in distributive_lattices(6)]
        return _pinned_chains() + heyting

    def test_the_first_drl_check_runs_no_gather(self, gathers):
        for a in self._constructed():
            assert a._facts == {"residuation": True}, a.name
            gathers.clear()
            assert d.check_axioms(a, "drl").ok and gathers == [], a.name

    def test_the_kept_fact_never_changes_a_report(self):
        for a in self._constructed():
            for profile in algebra.PROFILES:
                bare = dataclasses.replace(a)
                assert bare._facts == {}
                assert d.check_axioms(a, profile) == d.check_axioms(bare, profile), (a.name, profile)

    def test_saved_chains_are_pinned(self):
        text = "".join(d.save_algebra(a) for a in _pinned_chains())
        assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_CHAINS_DIGEST

    @pytest.mark.parametrize("absent", [("residuum",), ("meet", "join", "residuum")])
    def test_every_catalog_drl_loads_without_derived_tables(self, gathers, absent):
        for a in drls(6):
            obj = {key: value for key, value in orjson.loads(d.save_algebra(a)).items()
                   if key not in absent}
            gathers.clear()
            loaded = d.load_algebra(orjson.dumps(obj).decode())
            # one gather derives the residuum; the validating drl check reads it
            assert loaded == a and len(gathers) == 1, a.name
            for profile in ("drl", "derived"):
                assert d.check_axioms(loaded, profile) == d.check_axioms(dataclasses.replace(a), profile)


class TestRefusals:
    """Refusals, each with its exception type and message."""

    def test_empty_carrier(self):
        with pytest.raises(ValueError) as info:
            d.FiniteDRL(0, [], [], [], [], [], 0, 0)
        assert type(info.value) is ValueError
        assert str(info.value) == "carrier must have at least one element"

    def test_order_not_square(self):
        with pytest.raises(ValueError) as info:
            d.derive_lattice([[1, 1]])
        assert type(info.value) is ValueError and str(info.value) == "order table must be square"

    def test_equality_and_repr(self):
        g = d.godel_chain(3)
        assert g.__eq__(3) is NotImplemented and (g == 3) is False
        assert repr(g) == "FiniteDRL(godel(3), size=3)"
        assert repr(dataclasses.replace(g, name="")) == "FiniteDRL(anonymous, size=3)"


def _chain(a: d.FiniteDRL) -> bool:
    return bool((a.leq | a.leq.T).all())


class TestDRLCatalog:
    """Every DRL of carrier 2..6 up to isomorphism (`tests/drl_catalog.py`)."""

    def test_counts(self):
        assert Counter(a.size for a in drls(6)) == {2: 1, 3: 2, 4: 5, 5: 10, 6: 23}
        assert Counter(a.size for a in drls(6) if _chain(a)) == {n: 2 ** (n - 2) for n in range(2, 7)}

    def test_varieties_of_the_non_chains(self):
        varieties = Counter((a.size, d.classify(a).variety_name) for a in drls(6) if not _chain(a))
        assert varieties == {(4, "Boolean"): 1, (5, "Godel"): 1, (5, "Heyting"): 1, (6, "Heyting"): 2,
                             (6, "Godel"): 2, (6, "MV"): 1, (6, "BL"): 1, (6, "GBL"): 1}
        # The GBL one is the Boolean square under a 3-chain.
        (gbl,) = (a for a in drls(6) if d.classify(a).variety_name == "GBL")
        square_under_chain = [row + [True, True] for row in _grid(2, 2)] + [
            [False] * 4 + [True, True], [False] * 5 + [True]]
        assert _canonical(tuple(map(tuple, gbl.leq.tolist()))) == _canonical(
            tuple(map(tuple, square_under_chain)))

    def test_every_report_matches_the_whole_grid(self):
        for a in drls(6):
            for profile, laws in algebra.PROFILES.items():
                report = d.check_axioms(a, profile)
                expected = [_tensor_first_failure(a, law) for _, law in laws]
                assert [c.counterexample for c in report.checks] == expected, (a.name, profile)
            assert d.check_axioms(a, "drl").ok and d.check_axioms(a, "derived").ok, a.name

    def test_classify_matches_the_equations_pointwise(self):
        for a in drls(6):
            n, R, J, O = a.size, a.residuum.tolist(), a.join.tolist(), a.otimes.tolist()
            pairs = list(itertools.product(range(n), repeat=2))
            prelinear = all(J[R[x][y]][R[y][x]] == a.top for x, y in pairs)
            idempotent = all(O[x][x] == x for x in range(n))
            involutive = all(R[R[x][a.bottom]][a.bottom] == x for x in range(n))
            chain = all(a.leq[x, y] or a.leq[y, x] for x, y in pairs)
            name = ("Boolean" if involutive and idempotent else "Godel" if prelinear and idempotent
                    else "MV" if prelinear and involutive else "Heyting" if idempotent
                    else "BL" if prelinear else "GBL")
            assert d.classify(a) == d.VarietyFlags(prelinear, idempotent, involutive, chain, name), a.name

    def test_residuum_from_tables_rederives_each_residuum(self):
        for a in drls(6):
            assert np.array_equal(d.residuum_from_tables(a.leq, a.otimes), a.residuum), a.name

    def test_heyting_from_lattice_is_the_idempotent_member(self):
        for _, leq in distributive_lattices(6):
            if len(leq) < 2:
                continue
            on_it = [a for a in drls(6) if np.array_equal(a.leq, leq)]
            (idempotent,) = (a for a in on_it if (np.diagonal(a.otimes) == np.arange(a.size)).all())
            assert d.heyting_from_lattice(leq) == idempotent


# M3 (three atoms) and N5 (0 < 1 < 2 < 4 and 0 < 3 < 4), with bottom 0 and top 4.
M3 = [[x == y or x == 0 or y == 4 for y in range(5)] for x in range(5)]
N5 = [[x == y or x == 0 or y == 4 or (x, y) == (1, 2) for y in range(5)] for x in range(5)]


def _distributivity_failure(leq):
    """The least (x, y, z) with x meet (y join z) != (x meet y) join (x meet z),
    or None, with meets and joins read off the order point by point."""
    meet, join = lattice_ops(np.array(leq, dtype=bool))
    return next(((x, y, z) for x, y, z in itertools.product(range(len(leq)), repeat=3)
                 if meet[x, join[y, z]] != join[meet[x, y], meet[x, z]]), None)


class TestHeytingOnEveryLattice:
    """`heyting_from_lattice` on every lattice of size <= 6: distributivity is
    decided by the residuation gather of the meet's derived residuum."""

    def test_catalog(self):
        catalog = lattices(6)
        assert Counter(len(leq) for _, leq in catalog) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
        assert all(all(leq[0]) and all(row[-1] for row in leq) for _, leq in catalog)

    def test_distributive_ones_build_and_the_others_name_the_pointwise_triple(self, monkeypatch):
        gathers, evaluated = [], []
        gather, evaluate = algebra._residuated, algebra._first_failure
        monkeypatch.setattr(algebra, "_residuated", lambda *tables: gathers.append(1) or gather(*tables))
        monkeypatch.setattr(algebra, "_first_failure",
                            lambda a, law: evaluated.append(law) or evaluate(a, law))
        outcomes = Counter()
        for name, leq in lattices(6):
            gathers.clear()
            evaluated.clear()
            witness = _distributivity_failure(leq)
            if witness is None:
                h = d.heyting_from_lattice(leq)
                # one residuation gather, and no law evaluated point by point
                assert (len(gathers), evaluated) == (1, []), name
                assert np.array_equal(h.otimes, h.meet) and d.check_axioms(h).ok, name
            else:
                with pytest.raises(d.NotDistributive) as info:
                    d.heyting_from_lattice(leq)
                assert info.value.triple == witness, name
                assert evaluated == [algebra._law_otimes_distributes_join], name
                # residuum_from_tables, called directly, names the least
                # triple at which the meet's derived residuum fails.
                L = np.array(leq, dtype=bool)
                meet, join = lattice_ops(L)
                with pytest.raises(d.ResiduationFails) as info:
                    d.residuum_from_tables(L, meet)
                tables = d.FiniteDRL(len(L), L, meet, join, meet, algebra._greatest_admitted(L, meet), len(L) - 1, 0)
                assert info.value.triple == _tensor_first_failure(tables, algebra._law_residuation), name
            outcomes[witness is None] += 1
        assert outcomes == {True: 13, False: 12}

    @pytest.mark.parametrize("leq,triple", [(M3, (1, 2, 3)), (N5, (2, 1, 3))], ids=["M3", "N5"])
    def test_pinned_triples(self, leq, triple):
        assert _distributivity_failure(leq) == triple
        with pytest.raises(d.NotDistributive, match=re.escape(f"lattice is not distributive at {triple}")):
            d.heyting_from_lattice(leq)
