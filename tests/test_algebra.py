import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import drlcsp as d
from drlcsp import algebra
from lattice_catalog import distributive_lattices

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
        assert meet == ((0, 0), (0, 1))
        assert join == ((0, 1), (1, 1))
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


class TestResiduumDerivation:
    def test_boolean_bottom_implies_everything(self, boolean_alg):
        assert boolean_alg.residuum[0] == (1, 1)

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
            expected = tuple(
                tuple(n - 1 if x <= y else y for y in range(n)) for x in range(n)
            )
            assert g.residuum == expected

    def test_lukasiewicz_closed_form(self):
        for n in (2, 3, 5, 7):
            luk = d.lukasiewicz_chain(n)
            expected = tuple(
                tuple(min(n - 1, n - 1 - x + y) for y in range(n)) for x in range(n)
            )
            assert luk.residuum == expected

    def test_weighted_closed_form(self):
        # truncated cost difference
        for n in (1, 4, 10):
            w = d.weighted(n)
            expected = tuple(
                tuple(max(0, y - x) for y in range(n + 1)) for x in range(n + 1)
            )
            assert w.residuum == expected

    def test_weighted4_worked_values(self, w4):
        assert w4.otimes[1][3] == 4  # saturates at bottom
        assert w4.residuum[1][3] == 2

    def test_repair_is_idempotent(self):
        for make in BUILTIN_SAMPLE:
            a = make()
            rederived = d.residuum_from_tables(a.leq, a.join, a.otimes)
            assert rederived == a.residuum

    def test_non_residuable_product_rejected(self):
        # a product that is not monotone over the chain order
        n = 3
        leq = [[i <= j for j in range(n)] for i in range(n)]
        join = [[max(i, j) for j in range(n)] for i in range(n)]
        otimes = [[(i + j) % n for j in range(n)] for i in range(n)]
        with pytest.raises(d.ResiduationFails):
            d.residuum_from_tables(leq, join, otimes)


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
                d.residuum_from_tables(leq, join, otimes)
            return False
        assert d.residuum_from_tables(leq, join, otimes) == expected
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
        report = d.check_axioms(luk3, "cis-reduct")
        failed = {c.axiom for c in report.failures()}
        assert "otimes-idempotent" in failed

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
            assert d.replay_axiom(mixed, "drl", check.axiom, check.counterexample) is False

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
        bad = d.FiniteDRL(2, boolean_alg.leq, boolean_alg.meet, boolean_alg.join,
                          ((0, 5), (0, 1)), boolean_alg.residuum, 1, 0)
        with pytest.raises(ValueError):
            d.check_axioms(bad, "drl")

    @pytest.mark.parametrize("entry", [-1, -0.5, 0.5, 2**63, 2**64, -(2**63) - 1])
    def test_out_of_range_or_fractional_entry_rejected(self, boolean_alg, entry):
        bad = d.FiniteDRL(2, boolean_alg.leq, boolean_alg.meet, boolean_alg.join,
                          ((0, entry), (0, 1)), boolean_alg.residuum, 1, 0)
        with pytest.raises(ValueError, match="'?otimes'? table has entries outside"):
            d.check_axioms(bad, "drl")
        with pytest.raises(ValueError, match="'?otimes'? table has entries outside"):
            d.classify(bad)
        with pytest.raises(ValueError, match="'?otimes'? table has entries outside"):
            d.replay_axiom(bad, "drl", "otimes-commutative", (0, 1, 0))

    @pytest.mark.parametrize("field", ["top", "bottom"])
    def test_boolean_top_or_bottom_rejected(self, field):
        # As a numpy index False is an empty mask, so the laws on top and
        # bottom would hold vacuously; 0 is weighted(4)'s top, not its bottom.
        w = d.weighted(4)
        bad = dataclasses.replace(w, **{field: False})
        for call in (lambda: d.check_axioms(bad, "drl"), lambda: d.classify(bad),
                     lambda: d.replay_axiom(bad, "drl", "top-greatest", (0, 0, 0))):
            with pytest.raises(ValueError, match="top/bottom out of range"):
                call()


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
        lambda: d.make_builtin("godel"),
        lambda: d.make_builtin("mystery"),
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
        monkeypatch.setenv("DRL_SOFT_CARRIER_CAP", "8")
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
        assert h.otimes == h.meet

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

    def test_make_builtin_dispatch(self):
        assert d.make_builtin("weighted", n=4) == d.weighted(4)
        assert d.make_builtin("lukasiewicz", n=3) == d.lukasiewicz_chain(3)
        assert d.make_builtin("heyting", leq=DIAMOND) == d.heyting_from_lattice(DIAMOND)
        prod = d.make_builtin("product", left=d.boolean(), right=d.boolean())
        assert prod.size == 4


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
        assert d.residuum_from_tables(p.leq, p.join, p.otimes) == p.residuum

    def test_size_overflow(self, w10):
        with pytest.raises(d.SizeOverflow):
            d.direct_product(w10, w10, cap=100)

    def test_cap_env_override(self, w10, monkeypatch):
        monkeypatch.setenv("DRL_SOFT_CARRIER_CAP", "100")
        with pytest.raises(d.SizeOverflow):
            d.direct_product(w10, w10)
        monkeypatch.setenv("DRL_SOFT_CARRIER_CAP", "200")
        assert d.direct_product(w10, w10).size == 121


class TestExpandCIS:
    def test_diamond_round_trip(self):
        h = d.heyting_from_lattice(DIAMOND)
        expanded = d.expand_cis(h.join, h.otimes, h.top, h.bottom)
        assert expanded == h

    def test_boolean_reduct_round_trip(self, boolean_alg):
        expanded = d.expand_cis(boolean_alg.join, boolean_alg.otimes,
                                boolean_alg.top, boolean_alg.bottom)
        assert expanded == boolean_alg

    def test_output_is_idempotent_with_meet_product(self):
        h = d.heyting_from_lattice(DIAMOND)
        out = d.expand_cis(h.join, h.meet, h.top, h.bottom)
        assert out.otimes == out.meet
        assert d.classify(out).idempotent
        assert d.check_axioms(out, "drl").ok

    def test_non_idempotent_product_rejected(self, luk3):
        with pytest.raises(d.NotACIS) as info:
            d.expand_cis(luk3.join, luk3.otimes, luk3.top, luk3.bottom)
        assert info.value.axiom == "otimes-idempotent"


def _tensor_first_failure(t, law):
    """Reference: evaluate `law` on the whole n**3 grid at once."""
    ids = np.arange(t.n)
    res = np.asarray(law(t, ids[:, None, None], ids[None, :, None], ids[None, None, :]))
    res = np.broadcast_to(res, (t.n,) * 3)
    if res.all():
        return None
    return tuple(int(v) for v in np.argwhere(~res)[0])


@pytest.fixture(scope="module")
def luk12_godel12():
    return d.direct_product(d.lukasiewicz_chain(12), d.godel_chain(12))


class TestBlockedEvaluator:
    # Carrier 144 is checked in blocks of 2**18 // 144**2 = 12 values of x;
    # each planted failure first shows at an x in the last block.
    @pytest.mark.parametrize("profile,axiom,table,cell,value,witness", [
        ("drl", "meet-is-glb", "meet", (140, 141), 0, (140, 141, 1)),
        ("derived", "residuum-characterizes-order", "residuum", (137, 137), 0, (137, 137, 0)),
        ("cis-reduct", "join-idempotent", "join", (141, 141), 0, (141, 0, 0)),
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
        assert check.counterexample == witness
        assert _tensor_first_failure(algebra._np_view(bad), law) == witness
        assert d.replay_axiom(bad, profile, axiom, witness) is False

    def test_clean_algebra_agrees_with_whole_grid(self):
        a = d.direct_product(d.godel_chain(9), d.weighted(8))  # three blocks
        t = algebra._np_view(a)
        for profile, laws in algebra.PROFILES.items():
            report = d.check_axioms(a, profile)
            for (axiom, law), check in zip(laws, report.checks):
                assert check.counterexample == _tensor_first_failure(t, law), (profile, axiom)

    def test_peak_memory_is_bounded(self):
        a = d.direct_product(d.lukasiewicz_chain(11), d.godel_chain(11))
        tracemalloc.start()
        try:
            report = d.check_axioms(a, "drl")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole 121**3 grid of int64 indices alone would need 14 MB
        assert report.ok
        assert peak < 12_000_000
