import hashlib
import random
from math import comb

import numpy as np
import pytest

import drlcsp as d
from conftest import clone, within_counter_bound
from drlcsp.model import iter_constraints, table_groups
from drlcsp.rng import SplitMix64


class TestStrategy:
    def test_parse_round_trips(self):
        assert d.parse_strategy("maximal-lex") is d.MAXIMAL_LEX
        assert d.parse_strategy("join") is d.JOIN
        assert d.parse_strategy("maximal-seeded:17") == d.maximal_seeded(17)

    @pytest.mark.parametrize("text", [
        "", "max", "maximal-seeded", "maximal-seeded:x",
        "maximal-seeded:-1", "maximal-seeded:18446744073709551616",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError) as exc:
            d.parse_strategy(text)
        assert str(exc.value) == f"cannot parse strategy {text!r}"

    def test_seed_required_exactly_for_seeded(self):
        with pytest.raises(ValueError):
            d.Strategy("maximal-lex", seed=1)
        with pytest.raises(ValueError):
            d.Strategy("maximal-seeded")


class TestProject:
    def test_weighted_worked_example(self, weighted_example):
        p = clone(weighted_example)
        shrank = d.project(p, (0, 1), 0)
        assert shrank is False
        assert p.unary(0).values == [2, 1]
        assert p.constraints[(0, 1)].values == [0, 3, 0, 3]

    def test_constant_top_table_is_noop(self, godel3):
        raw = d.RawProblem(godel3, (2, 2), [
            d.Constraint((0,), [1, 2]),
            d.Constraint((0, 1), [2, 2, 2, 2]),
        ])
        p = d.normalize(raw)
        before = clone(p)
        assert d.project(p, (0, 1), 0) is False
        assert p == before

    def test_two_maximal_candidates_witness_becomes_top(self, bb_square):
        raw = d.RawProblem(bb_square, (1, 2), [
            d.Constraint((0,), [3]),
            d.Constraint((0, 1), [2, 1]),
        ])
        p = d.normalize(raw)
        assert d.project(p, (0, 1), 0) is False
        # lex rule picks the value achieved first, which gets rewritten to top
        assert p.unary(0).values == [2]
        assert p.constraints[(0, 1)].values == [3, 1]

    def test_seeded_choice_can_differ(self, bb_square):
        raw = d.RawProblem(bb_square, (1, 2), [
            d.Constraint((0,), [3]),
            d.Constraint((0, 1), [2, 1]),
        ])
        results = set()
        for seed in range(12):
            p = d.normalize(raw)
            d.project(p, (0, 1), 0, d.maximal_seeded(seed))
            results.add(tuple(p.constraints[(0, 1)].values))
        assert results == {(3, 1), (2, 3)}

    def test_errors(self, weighted_example):
        with pytest.raises(ValueError, match="no constraint"):
            d.project(weighted_example, (0, 2), 0)
        with pytest.raises(ValueError, match="not in scope"):
            d.project(weighted_example, (0, 1), 5)
        with pytest.raises(ValueError, match="arity"):
            d.project(weighted_example, (0,), 0)

    def test_counters_track_tuple_visits(self, weighted_example):
        counters = d.Counters()
        d.project(clone(weighted_example), (0, 1), 0, counters=counters)
        # 2 domain values x 2 extension tuples, visited once to choose and once to rewrite
        assert counters.inner_tuple_iterations == 8


def _top_in_every_live_row(bb_square):
    """Bool x Bool rows 3|1, 2|2 and 3|1 for values 0, 1, 2 of variable 0.

    Value 1 is dead (unary bottom) and its row lacks top; the live rows
    mix top with other values, so the projection onto variable 0 is a
    no-op under every strategy. Column 1 of the table holds the
    incomparable 1 and 2 but not top, so a seeded projection onto
    variable 1 draws between them.
    """
    return d.Problem(bb_square, (3, 2), {
        (0,): d.Constraint((0,), [1, 0, 3]),
        (1,): d.Constraint((1,), [3, 3]),
        (0, 1): d.Constraint((0, 1), [3, 1, 2, 2, 3, 1]),
    })


class TestNoopProjection:
    @pytest.mark.parametrize("strategy", [d.MAXIMAL_LEX, d.JOIN, d.maximal_seeded(3)])
    def test_problem_left_unchanged(self, bb_square, strategy):
        p = _top_in_every_live_row(bb_square)
        before = clone(p)
        counters = d.Counters()
        assert d.project(p, (0, 1), 0, strategy, counters=counters) is False
        assert p == before
        # the no-op projection still counts the entries of its two live rows
        assert counters.inner_tuple_iterations == 2 * 2 * 2

    def test_seeded_skip_draws_once_per_live_value(self, bb_square):
        moved = 0
        for seed in range(12):
            p = _top_in_every_live_row(bb_square)
            rng = SplitMix64(seed)
            d.project(p, (0, 1), 0, d.maximal_seeded(seed), rng=rng)
            expected = SplitMix64(seed)
            for _ in range(2):  # the full path draws below(1) for each live value
                assert expected.below(1) == 0
            d.project(p, (0, 1), 1, d.maximal_seeded(seed), rng=rng)

            full = _top_in_every_live_row(bb_square)
            d.project(full, (0, 1), 1, d.maximal_seeded(seed), rng=expected)
            assert p == full
            assert rng.next_u64() == expected.next_u64()

            unmoved = _top_in_every_live_row(bb_square)
            d.project(unmoved, (0, 1), 1, d.maximal_seeded(seed), rng=SplitMix64(seed))
            moved += unmoved != full
        # the draws matter: without them some later choice would differ
        assert moved > 0


def _output_cases(algebras):
    for alg in algebras:
        for seed in range(6):
            problem = d.gen_random_problem(alg, 4, 3, 7, 3, seed)
            for strategy in (d.MAXIMAL_LEX, d.maximal_seeded(seed), d.JOIN):
                for k in (2, 3):
                    yield problem, k, strategy


class TestOutputTables:
    def test_lists_of_python_ints_and_no_aliasing(self, luk3, bb_square):
        kinds = set()
        for problem, k, strategy in _output_cases([luk3, bb_square]):
            before = clone(problem)
            out = d.enforce_k_hyperarc(problem, k, strategy)
            assert problem == before
            if out.inconsistent:
                continue
            kinds.add((problem.algebra.size, k, strategy.kind))
            for scope, c in out.problem.constraints.items():
                assert type(c.values) is list
                assert all(type(v) is int for v in c.values)
                assert c.values is not problem.constraints[scope].values
            raw = d.load_problem_raw(d.save_problem(out.problem), algebra=problem.algebra)
            assert raw.domain_sizes == out.problem.domain_sizes
            assert [(c.scope, c.values) for c in raw.constraints] == [
                (c.scope, c.values) for c in iter_constraints(out.problem)
            ]
        assert len(kinds) == 2 * 2 * 3  # every algebra, k and strategy ended consistent at least once

    def test_public_project_keeps_lists(self, luk3, bb_square):
        for problem, k, strategy in _output_cases([luk3, bb_square]):
            for scope in sorted(problem.constraints):
                if len(scope) >= 2:
                    d.project(problem, scope, scope[0], strategy)
            for c in problem.constraints.values():
                assert type(c.values) is list
                assert all(type(v) is int for v in c.values)


class TestEnforce:
    def test_fixpoint_input_left_unchanged(self, godel3):
        raw = d.RawProblem(godel3, (2, 2, 2), [
            d.Constraint((0, 1), [2, 2, 2, 2]),
            d.Constraint((1, 2), [2, 2, 2, 2]),
        ])
        p = d.normalize(raw)
        out = d.enforce_k_hyperarc(p, 2)
        assert not out.inconsistent
        assert out.problem == p
        assert out.counters.main_loop_iterations == 3
        assert out.counters.project_calls == 4  # sum of scope arities

    def test_input_problem_is_not_mutated(self, weighted_example):
        snapshot = clone(weighted_example)
        d.enforce_k_hyperarc(weighted_example, 2)
        assert weighted_example == snapshot

    def test_weighted_example_equivalent_and_consistent(self, weighted_example):
        out = d.enforce_k_hyperarc(weighted_example, 2)
        assert not out.inconsistent
        assert d.check_equivalent(weighted_example, out.problem) is None
        assert d.is_k_hyperarc_consistent(out.problem, 2) is None
        assert within_counter_bound(out.counters, 2, 3)

    def test_projection_can_prove_inconsistency(self, w4):
        # both values of variable 0 pick up cost 4 from the binary table
        raw = d.RawProblem(w4, (2, 2), [
            d.Constraint((0,), [1, 1]),
            d.Constraint((0, 1), [4, 4, 4, 4]),
        ])
        p = d.normalize(raw)
        out = d.enforce_k_hyperarc(p, 2)
        assert out.inconsistent
        assert out.problem is None
        assert d.brute_force_solve(p).inconsistent

    def test_bad_k(self, weighted_example):
        with pytest.raises(ValueError):
            d.enforce_k_hyperarc(weighted_example, 1)

    def test_strategies_coincide_on_chains(self, w10):
        for seed in range(8):
            p = d.gen_random_problem(w10, 4, 3, 7, 3, seed)
            lex = d.enforce_k_hyperarc(p, 3, d.MAXIMAL_LEX)
            seeded = d.enforce_k_hyperarc(p, 3, d.maximal_seeded(seed * 31 + 5))
            joined = d.enforce_k_hyperarc(p, 3, d.JOIN)
            assert lex.inconsistent == seeded.inconsistent == joined.inconsistent
            if not lex.inconsistent:
                assert lex.problem == seeded.problem == joined.problem

    def test_counter_bound_holds_on_batches(self, w4):
        for seed in range(25):
            p = d.gen_random_problem(w4, 4, 3, 8, 3, seed)
            out = d.enforce_k_hyperarc(p, 2)
            assert within_counter_bound(out.counters, 4, 8)

    def test_counter_bound_is_the_sweeps(self):
        n, e = 4, 8
        assert within_counter_bound(d.Counters(n, n * e), n, e)
        assert not within_counter_bound(d.Counters(n + 1, n * e), n, e)
        assert not within_counter_bound(d.Counters(n, n * e + 1), n, e)

    def test_requeue_on_shrink_reaches_fixpoint(self, w4):
        # variable 0 loses a value only after costs accumulate over two scopes
        raw = d.RawProblem(w4, (2, 2, 2), [
            d.Constraint((0,), [2, 1]),
            d.Constraint((0, 1), [2, 2, 0, 0]),
            d.Constraint((0, 2), [3, 3, 0, 0]),
        ])
        p = d.normalize(raw)
        out = d.enforce_k_hyperarc(p, 2)
        assert not out.inconsistent
        assert d.is_k_hyperarc_consistent(out.problem, 2) is None
        assert d.check_equivalent(p, out.problem) is None
        # each variable is visited once, even after its domain shrinks
        assert out.counters.main_loop_iterations == 3


class TestNonChainRegressions:
    """Fixed witnesses for the behavior gap on non-total orders."""

    def test_maximal_lex_breaks_equivalence(self, crisscross):
        out = d.enforce_k_hyperarc(crisscross, 2, d.MAXIMAL_LEX)
        assert not out.inconsistent
        counterexample = d.check_equivalent(crisscross, out.problem)
        assert counterexample is not None
        # the combined value of one assignment drops from an atom to bottom
        assert counterexample.value_a in (1, 2)
        assert counterexample.value_b == crisscross.algebra.bottom
        # the output is still locally consistent
        assert d.is_k_hyperarc_consistent(out.problem, 2) is None

    def test_join_preserves_equivalence_but_stalls(self, crisscross):
        out = d.enforce_k_hyperarc(crisscross, 2, d.JOIN)
        assert not out.inconsistent
        assert d.check_equivalent(crisscross, out.problem) is None
        assert out.problem == crisscross  # the run is a no-op fixpoint
        violation = d.is_k_hyperarc_consistent(out.problem, 2)
        assert violation == d.Violation((0, 1), 0, 0)

    def test_join_equivalence_on_single_row_instance(self, bb_square):
        raw = d.RawProblem(bb_square, (1, 2), [
            d.Constraint((0,), [3]),
            d.Constraint((0, 1), [2, 1]),
        ])
        p = d.normalize(raw)
        out = d.enforce_k_hyperarc(p, 2, d.JOIN)
        assert d.check_equivalent(p, out.problem) is None


# Bottom < a, b < m < top: a Heyting algebra that is not prelinear.
_DIAMOND_UNDER_TOP = [
    [1, 1, 1, 1, 1],
    [0, 1, 0, 1, 1],
    [0, 0, 1, 1, 1],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
]
_SWEEP_CORPUS_DIGEST = "1889d0743a069f66b141697a9290c4e1b655552b0a9ee119cdb278112507dd3a"


def _non_chain_corpus():
    """Seeded runs over four non-chain algebras, all strategies, k in {2, 3}."""
    boolean = d.boolean()
    luk3 = d.lukasiewicz_chain(3)
    diamond = d.heyting_from_lattice(_DIAMOND_UNDER_TOP, "diamond-under-top")
    algebras = [
        d.direct_product(boolean, boolean),
        d.direct_product(luk3, d.godel_chain(3)),
        diamond,
        d.direct_product(diamond, luk3),
    ]
    for algebra in algebras:
        for seed in range(100):
            rng = SplitMix64(seed)
            n = 2 + rng.below(3)
            dsz = 1 + rng.below(3)
            max_arity = 2 if n == 2 else 3
            pool = sum(comb(n, a) for a in range(2, max_arity + 1))
            e = n + 1 + rng.below(min(5, pool))
            problem = d.gen_random_problem(algebra, n, dsz, e, max_arity, seed)
            for strategy in (d.MAXIMAL_LEX, d.maximal_seeded(seed), d.JOIN):
                for k in (2, 3):
                    yield k, strategy, d.enforce_k_hyperarc(problem, k, strategy)


class TestSweepOnNonChains:
    def test_outputs_frozen_and_second_pass_is_noop(self):
        digest = hashlib.sha256()
        runs = changed = 0
        for k, strategy, out in _non_chain_corpus():
            runs += 1
            if out.inconsistent:
                digest.update(b"inconsistent\n")
                continue
            digest.update(d.save_problem(out.problem).encode())
            # Entries only rise and unary values only fall, so an unchanged
            # problem means every projection of the second pass was a no-op.
            again = d.enforce_k_hyperarc(out.problem, k, strategy)
            if again.inconsistent or again.problem != out.problem:
                changed += 1
        assert runs == 2400
        assert changed == 0
        assert digest.hexdigest() == _SWEEP_CORPUS_DIGEST


# ---------------------------------------------------------------------------
# The sweep's skip mask against a sweep that projects every pair


def _reference_sweep(problem, k, strategy, after_project=None):
    """The sweep as it reads: `project` on every pair, on list tables.

    Variables in id order, each against its stored scopes of arity 2..k
    in sorted order; after each call, and at the end of each visit, stop
    if every unary value of the visited variable is bottom.
    `after_project(before, after)` sees the problem around each call.
    """
    work = clone(problem)
    bottom = work.algebra.bottom
    counters = d.Counters()
    rng = SplitMix64(strategy.seed) if strategy.kind == "maximal-seeded" else None
    for i in range(work.n):
        counters.main_loop_iterations += 1
        for scope in sorted(work.constraints):
            if 2 <= len(scope) <= k and i in scope:
                before = clone(work) if after_project else None
                d.project(work, scope, i, strategy, rng=rng, counters=counters)
                if after_project:
                    after_project(before, work)
                counters.project_calls += 1
                if all(v == bottom for v in work.unary(i).values):
                    return d.EnforcementOutcome(True, None, counters)
        if all(v == bottom for v in work.unary(i).values):
            return d.EnforcementOutcome(True, None, counters)
    return d.EnforcementOutcome(False, work, counters)


def _with_dead_values(problem, seed):
    """A copy, not normalized, in which about half the unary tables lose one value to bottom."""
    p = clone(problem)
    rng = random.Random(seed)
    for var in range(p.n):
        if rng.random() < 0.5:
            values = p.unary(var).values
            values[rng.randrange(len(values))] = p.algebra.bottom
    return p


def _mask_corpus():
    """Chains and non-chains, with and without dead values, every k and strategy."""
    b = d.boolean()
    algebras = [
        d.direct_product(b, b),
        d.direct_product(d.lukasiewicz_chain(3), d.godel_chain(3)),
        d.weighted(4),
    ]
    for alg in algebras:
        for seed in range(16):
            n = 3 + seed % 3
            problem = d.gen_random_problem(alg, n, 2 + seed % 2, n + 2 + seed % 3, 3, seed)
            for instance in (problem, _with_dead_values(problem, seed)):
                for strategy in (d.MAXIMAL_LEX, d.maximal_seeded(seed), d.JOIN):
                    for k in (2, 3):
                        yield instance, k, strategy


def _marked_pairs(problem, k) -> int:
    """How many (scope, variable) pairs have all their rows holding top."""
    return sum(int(group.all_top.sum()) for group in table_groups(problem, k))


class TestSkipMask:
    def test_matches_the_reference_sweep(self):
        runs = marked = inconsistent = dead = 0
        for problem, k, strategy in _mask_corpus():
            out = d.enforce_k_hyperarc(problem, k, strategy)
            ref = _reference_sweep(problem, k, strategy)
            assert out.inconsistent == ref.inconsistent
            assert out.counters == ref.counters
            if not out.inconsistent:
                assert out.problem == ref.problem
            runs += 1
            marked += _marked_pairs(problem, k) > 0
            inconsistent += out.inconsistent
            dead += any(problem.algebra.bottom in problem.unary(v).values for v in range(problem.n))
        assert runs == 3 * 16 * 2 * 3 * 2
        # the mask, the inconsistent exit and the dead values are all exercised
        assert marked and inconsistent and dead

    def test_projection_only_raises_entries_and_keeps_top(self):
        """The invariant the mask rests on, after every `project` call."""
        calls = 0

        def check(before, after):
            nonlocal calls
            alg = after.algebra
            calls += 1
            for scope, c in after.constraints.items():
                old = np.array(before.constraints[scope].values)
                new = np.array(c.values)
                if len(scope) == 1:
                    assert alg.leq[new, old].all()  # unary values only fall
                    assert (new[old == alg.bottom] == alg.bottom).all()  # live sets only shrink
                else:
                    assert alg.leq[old, new].all()  # entries only rise
                    assert (new[old == alg.top] == alg.top).all()  # top stays top

        for problem, k, strategy in _mask_corpus():
            if k == 3:
                _reference_sweep(problem, k, strategy, after_project=check)
        assert calls > 1000


class TestAllBottomUnary:
    """A hand-built problem, not normalized, whose variable 1 has only bottom unary values."""

    @pytest.mark.parametrize("strategy", [d.MAXIMAL_LEX, d.maximal_seeded(5), d.JOIN])
    @pytest.mark.parametrize("table_01", [
        [1, 2, 0, 3],  # at variable 1 the row of value 1 lacks top (cost 0): `project` runs
        [0, 2, 1, 0],  # every row at either variable holds top: the pair is skipped
    ])
    def test_ends_inconsistent_at_that_variable(self, w4, strategy, table_01):
        problem = d.Problem(w4, (2, 2, 2), {
            (0,): d.Constraint((0,), [1, 0]),
            (1,): d.Constraint((1,), [4, 4]),
            (2,): d.Constraint((2,), [0, 2]),
            (0, 1): d.Constraint((0, 1), table_01),
            (1, 2): d.Constraint((1, 2), [1, 3, 2, 1]),
        })
        out = d.enforce_k_hyperarc(problem, 2, strategy)
        assert out.inconsistent
        assert out.problem is None
        # Variables 0 and 1 are visited. (0, 1) is projected onto 0 (two
        # live rows of two entries), then onto 1, which has no live value,
        # and the run stops there, before (1, 2).
        assert out.counters == d.Counters(2, 2, 2 * 2 * 2)
        assert out.counters == _reference_sweep(problem, 2, strategy).counters

    @pytest.mark.parametrize("strategy", [d.MAXIMAL_LEX, d.maximal_seeded(5), d.JOIN])
    def test_variable_in_no_stored_scope(self, w4, strategy):
        """Variable 2 has only bottom unary values and no scope of arity 2..k to project."""
        problem = d.Problem(w4, (2, 2, 2), {
            (0,): d.Constraint((0,), [1, 0]),
            (1,): d.Constraint((1,), [0, 0]),
            (2,): d.Constraint((2,), [4, 4]),
            (0, 1): d.Constraint((0, 1), [1, 2, 0, 3]),
        })
        out = d.enforce_k_hyperarc(problem, 2, strategy)
        assert out.inconsistent
        assert d.brute_force_solve(problem).inconsistent
        assert out.problem is None
        # (0, 1) is projected onto 0 and onto 1, two live rows of two
        # entries each time; the visit of variable 2 then ends the run.
        assert out.counters == d.Counters(3, 2, 16)
        assert out.counters == _reference_sweep(problem, 2, strategy).counters
