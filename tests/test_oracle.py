import itertools
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import drlcsp as d
from conftest import clone
from drlcsp.model import table_len
from drlcsp.rng import SplitMix64


def _dominated_filter(algebra, values):
    """Independent quadratic implementation: drop anything strictly below another."""
    vs = set(values)
    dominated = set()
    for a in vs:
        for b in vs:
            if a != b and algebra.leq[a][b]:
                dominated.add(a)
    return sorted(vs - dominated)


class TestMaximalElements:
    def test_chain_subset_has_its_maximum(self, godel3):
        assert d.maximal_elements(godel3, [0, 2, 1]) == [2]

    def test_incomparable_pair_kept(self, bb_square):
        assert d.maximal_elements(bb_square, [1, 2]) == [1, 2]

    def test_singleton_bottom(self, godel3):
        assert d.maximal_elements(godel3, [0]) == [0]

    def test_duplicates_ignored(self, godel3):
        assert d.maximal_elements(godel3, [1, 1, 0, 0]) == [1]

    def test_empty_input_rejected(self, godel3):
        with pytest.raises(ValueError):
            d.maximal_elements(godel3, [])

    def test_agrees_with_domination_filter(self, bb_square, w10, godel3):
        rng = SplitMix64(99)
        for algebra in (bb_square, w10, godel3, d.direct_product(godel3, w10)):
            for _ in range(40):
                count = 1 + rng.below(algebra.size)
                values = [rng.below(algebra.size) for _ in range(count)]
                assert d.maximal_elements(algebra, values) == _dominated_filter(algebra, values)

    def test_result_is_an_antichain(self, bb_square):
        rng = SplitMix64(3)
        for _ in range(30):
            values = [rng.below(4) for _ in range(1 + rng.below(6))]
            out = d.maximal_elements(bb_square, values)
            for a, b in itertools.combinations(out, 2):
                assert not bb_square.leq[a][b] and not bb_square.leq[b][a]


class TestBruteForceSolve:
    def test_all_top_problem(self, godel3):
        raw = d.RawProblem(godel3, (2, 2), [d.Constraint((0, 1), [2, 2, 2, 2])])
        p = d.normalize(raw)
        result = d.brute_force_solve(p)
        assert result.optimal_values == [2]
        assert result.solutions == list(itertools.product(range(2), range(2)))
        assert not result.inconsistent

    def test_constant_bottom_unary_is_inconsistent_pre_normalize(self, godel3):
        raw = d.RawProblem(godel3, (2, 2), [
            d.Constraint((0,), [0, 0]),
            d.Constraint((0, 1), [2, 2, 1, 2]),
        ])
        result = d.brute_force_solve(raw)
        assert result.inconsistent
        assert result.optimal_values == [0]

    def test_antichain_of_optimal_values(self, bb_square):
        raw = d.RawProblem(bb_square, (2,), [d.Constraint((0,), [2, 1])])
        p = d.normalize(raw)
        result = d.brute_force_solve(p)
        assert result.optimal_values == [1, 2]
        assert result.solutions == [(0,), (1,)]

    def test_weighted_example(self, weighted_example):
        result = d.brute_force_solve(weighted_example)
        assert result.optimal_values == [1]
        assert result.solutions == [(1, 0)]

    def test_cap(self, godel3):
        # 101 * 100 * 100 assignments, one more percent than DEFAULT_TUPLE_CAP
        raw = d.RawProblem(godel3, (101, 100, 100), [])
        with pytest.raises(d.TooLarge):
            d.brute_force_solve(d.normalize(raw))

    def test_one_value_variables_add_no_axis(self, godel3):
        # 70 variables would need 70 broadcast axes; numpy allows 64.
        p = d.gen_random_problem(godel3, 70, 1, 75, 2, seed=0)
        assert _assert_matches_reference(p, p)
        assert d.brute_force_solve(p).solutions == [(0,) * 70]

    def test_chain_optimum_is_singleton(self, w10):
        for seed in range(10):
            p = d.gen_random_problem(w10, 3, 3, 6, 2, seed)
            assert len(d.brute_force_solve(p).optimal_values) == 1


    @pytest.mark.parametrize("bad", [-1, 5, 7, 65535])
    def test_values_that_are_not_element_ids_are_refused(self, w4, bad):
        # otimes[·, -1] would read bottom; 5 and above index past the row.
        # The fold takes (0, 1) before (1,), but (1,) is stored first.
        raw = d.RawProblem(w4, (2, 2), [
            d.Constraint((1,), [0, bad]),
            d.Constraint((0,), [0, 0]),
            d.Constraint((0, 1), [0, 1, 2, bad]),
        ])
        problem = d.Problem(w4, (2, 2), {c.scope: c for c in raw.constraints})
        for p in (raw, problem):
            for run in (lambda: d.brute_force_solve(p), lambda: d.check_equivalent(p, p)):
                with pytest.raises(ValueError) as info:
                    run()
                assert str(info.value) == "scope (1,) has values that are not element ids"


class TestCheckEquivalent:
    def test_reflexive(self, weighted_example):
        assert d.check_equivalent(weighted_example, weighted_example) is None

    def test_enforcement_output_on_chain(self, weighted_example):
        out = d.enforce_k_hyperarc(weighted_example, 2)
        assert d.check_equivalent(weighted_example, out.problem) is None

    def test_regression_counterexample(self, crisscross):
        out = d.enforce_k_hyperarc(crisscross, 2, d.MAXIMAL_LEX)
        counterexample = d.check_equivalent(crisscross, out.problem)
        assert counterexample is not None
        assert counterexample.assignment == (0, 1)

    def test_first_counterexample_in_canonical_order(self, w10):
        a = d.normalize(d.RawProblem(w10, (2, 2), [d.Constraint((0, 1), [1, 1, 1, 1])]))
        b = d.normalize(d.RawProblem(w10, (2, 2), [d.Constraint((0, 1), [1, 2, 2, 2])]))
        counterexample = d.check_equivalent(a, b)
        assert counterexample == d.Counterexample((0, 1), 1, 2)

    def test_shape_mismatch(self, w10, godel3, weighted_example):
        other_domains = d.normalize(d.RawProblem(w10, (2, 3), []))
        with pytest.raises(d.ShapeMismatch):
            d.check_equivalent(weighted_example, other_domains)
        other_algebra = d.normalize(d.RawProblem(godel3, (2, 2), []))
        with pytest.raises(d.ShapeMismatch):
            d.check_equivalent(weighted_example, other_algebra)

    def test_equivalence_implies_same_solutions(self, w10):
        for seed in range(8):
            p = d.gen_random_problem(w10, 3, 3, 6, 2, seed)
            out = d.enforce_k_hyperarc(p, 2)
            if out.inconsistent:
                continue
            assert d.check_equivalent(p, out.problem) is None
            a = d.brute_force_solve(p)
            b = d.brute_force_solve(out.problem)
            assert a.optimal_values == b.optimal_values
            assert a.solutions == b.solutions


# ---------------------------------------------------------------------------
# Cross-check against a scalar loop over combined_value


# Bottom < a, b < m < top: a Heyting algebra that is not prelinear.
_DIAMOND_UNDER_TOP = [
    [1, 1, 1, 1, 1],
    [0, 1, 0, 1, 1],
    [0, 0, 1, 1, 1],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
]
_ALGEBRAS = (
    d.direct_product(d.boolean(), d.boolean()),
    d.direct_product(d.lukasiewicz_chain(3), d.godel_chain(3)),
    d.heyting_from_lattice(_DIAMOND_UNDER_TOP, "diamond-under-top"),
    d.weighted(6),
)


def _reference_solve(problem):
    assignments = list(itertools.product(*(range(s) for s in problem.domain_sizes)))
    values = [d.combined_value(problem, t) for t in assignments]
    optimal = _dominated_filter(problem.algebra, values)
    solutions = [t for t, v in zip(assignments, values) if v in optimal]
    return optimal, solutions, optimal == [problem.algebra.bottom]


def _reference_counterexample(a, b):
    for t in itertools.product(*(range(s) for s in a.domain_sizes)):
        va, vb = d.combined_value(a, t), d.combined_value(b, t)
        if va != vb:
            return (t, va, vb)
    return None


def _assert_matches_reference(a, b):
    result = d.brute_force_solve(a)
    assert (result.optimal_values, result.solutions, result.inconsistent) == _reference_solve(a)
    assert all(type(v) is int for v in result.optimal_values)
    assert all(type(v) is int for t in result.solutions for v in t)
    cex = d.check_equivalent(a, b)
    expected = _reference_counterexample(a, b)
    if expected is None:
        assert cex is None
    else:
        assert (cex.assignment, cex.value_a, cex.value_b) == expected
        assert all(type(v) is int for v in (*cex.assignment, cex.value_a, cex.value_b))
    return expected is None


@st.composite
def _problem_pairs(draw, shapes=None, max_constraints=6):
    """A raw problem (duplicate and empty scopes allowed) and a copy with one entry redrawn."""
    algebra = draw(st.sampled_from(_ALGEBRAS))
    if shapes is None:
        sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    else:
        sizes = draw(st.sampled_from(shapes))
    n = len(sizes)
    constraints = []
    for _ in range(draw(st.integers(0, max_constraints))):
        scope = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(3, n)))))
        length = table_len(scope, sizes)
        values = draw(st.lists(st.integers(0, algebra.size - 1), min_size=length, max_size=length))
        constraints.append(d.Constraint(scope, values))
    a = d.RawProblem(algebra, sizes, constraints)
    altered = clone(a).constraints
    if altered and draw(st.booleans()):
        c = altered[draw(st.integers(0, len(altered) - 1))]
        c.values[draw(st.integers(0, len(c.values) - 1))] = draw(
            st.integers(0, algebra.size - 1)
        )
    return a, d.RawProblem(algebra, sizes, altered)


class TestScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(_problem_pairs())
    def test_small_problems(self, pair):
        _assert_matches_reference(*pair)

    # Shapes of 5k-15k assignments: many small axes (2^13), five distinct
    # sizes (3*5*7*11*13), one large domain behind two of size 1 whose
    # tables have up to 4100 entries, and nine equal axes (3^9).
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_problem_pairs(
        shapes=[(2,) * 13, (3, 5, 7, 11, 13), (1, 1, 4100), (3,) * 9], max_constraints=4
    ))
    def test_problems_of_thousands_of_assignments(self, pair):
        _assert_matches_reference(*pair)

    def test_seeded_batch_with_enforcement_outputs(self):
        """2,000 generated instances, each compared with its enforced output."""
        equal = differ = 0
        for seed in range(2000):
            rng = SplitMix64(seed)
            algebra = _ALGEBRAS[seed % len(_ALGEBRAS)]
            n = 2 + rng.below(3)
            dsz = 1 + rng.below(3)
            e = 3 if n == 2 else n + 1 + rng.below(4)
            problem = d.gen_random_problem(algebra, n, dsz, e, 2 if n == 2 else 3, seed)
            strategy = (d.MAXIMAL_LEX, d.JOIN, d.maximal_seeded(seed))[seed % 3]
            out = d.enforce_k_hyperarc(problem, 2, strategy)
            other = problem if out.inconsistent else out.problem
            if _assert_matches_reference(problem, other):
                equal += 1
            else:
                differ += 1
        assert equal and differ

    def test_big_certify_shape_with_enforcement_outputs(self):
        """4^7 assignments and 16 tables: the fold runs most tables below full size."""
        equal = differ = 0
        for seed, algebra in enumerate(_ALGEBRAS):
            problem = d.gen_random_problem(algebra, 7, 4, 16, 3, seed)
            for strategy in (d.MAXIMAL_LEX, d.JOIN, d.maximal_seeded(seed)):
                out = d.enforce_k_hyperarc(problem, 2, strategy)
                other = problem if out.inconsistent else out.problem
                if _assert_matches_reference(other, problem):
                    equal += 1
                else:
                    differ += 1
        assert equal and differ

    def test_tables_listed_against_last_variable_order(self):
        # Sizes 2, 1, 3, 4, 2: variable 1 has one value and variable 3 is in
        # no table. The list runs from the last variable down to the empty
        # scope, with (0, 2) twice, so the fold reorders nearly every table.
        # Half the entries are top, so few assignments combine to bottom; a
        # bottom empty-scope table then changes every assignment that does not.
        scopes = [(2, 4), (0, 1, 4), (0, 2), (1, 2), (0, 2), (0, 1), (0,), ()]
        sizes = (2, 1, 3, 4, 2)
        keys = [scope[-1:] for scope in scopes]
        assert keys == sorted(keys, reverse=True)
        differ = 0
        for seed, algebra in enumerate(_ALGEBRAS):
            rng = SplitMix64(seed)
            constraints = []
            for scope in scopes:
                values = [rng.below(algebra.size) for _ in range(table_len(scope, sizes))]
                top_mask = [rng.below(2) for _ in values]
                constraints.append(d.Constraint(
                    scope, [algebra.top if m else v for v, m in zip(values, top_mask)]
                ))
            raw = d.RawProblem(algebra, sizes, constraints)
            altered = clone(raw)
            altered.constraints[-1].values[0] = algebra.bottom
            assert _assert_matches_reference(raw, raw)
            differ += not _assert_matches_reference(raw, altered)
            _assert_matches_reference(altered, raw)
        assert differ

    def test_counterexample_near_the_end(self, w10):
        # The only difference is at (2, 4, *): flat index 14014 of 15015.
        sizes = (3, 5, 7, 11, 13)
        a = d.RawProblem(w10, sizes, [d.Constraint((0, 1), [1] * 15)])
        b = d.RawProblem(w10, sizes, [d.Constraint((0, 1), [1] * 14 + [3])])
        assert d.check_equivalent(a, b) == d.Counterexample((2, 4, 0, 0, 0), 1, 3)
        assert d.brute_force_solve(b).solutions == list(
            itertools.product(range(2), range(5), range(7), range(11), range(13))
        ) + list(itertools.product([2], range(4), range(7), range(11), range(13)))

    def test_duplicate_scopes_fold_in_order(self, bb_square):
        raw = d.RawProblem(bb_square, (2, 1, 2), [
            d.Constraint((0, 2), [3, 1, 2, 3]),
            d.Constraint((1,), [2]),
            d.Constraint((0, 2), [1, 3, 3, 2]),
        ])
        merged = d.normalize(raw)
        _assert_matches_reference(raw, raw)
        _assert_matches_reference(merged, merged)
        assert d.brute_force_solve(raw).solutions == d.brute_force_solve(merged).solutions

    def test_counterexample_over_more_than_64_variables(self, godel3):
        # Seventy variables exceed the 64 dimensions numpy can unravel over.
        a = d.RawProblem(godel3, (1,) * 70, [d.Constraint((0,), [2])])
        b = d.RawProblem(godel3, (1,) * 70, [d.Constraint((0,), [1])])
        assert d.check_equivalent(a, b) == d.Counterexample((0,) * 70, 2, 1)

    def test_equivalence_at_the_cap_holds_both_value_arrays(self, w10):
        # 10^6 assignments: the two folds hold 8 MB of values each.
        sizes = (10,) * 6
        a = d.RawProblem(w10, sizes, [d.Constraint((0, 5), list(range(10)) * 10)])
        b = d.RawProblem(w10, sizes, [d.Constraint((0, 5), list(range(10)) * 9 + [0] * 10)])
        tracemalloc.start()
        try:
            cex = d.check_equivalent(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cex == d.Counterexample((9, 0, 0, 0, 0, 1), 1, 0)
        assert peak < 40_000_000

    @pytest.mark.parametrize("call", [
        lambda p: d.brute_force_solve(p),
        lambda p: d.check_equivalent(p, p),
    ], ids=["solve", "equivalent"])
    def test_one_over_the_cap_refused_before_allocating(self, godel3, call):
        # 101 * 9901 = DEFAULT_TUPLE_CAP + 1
        problem = d.RawProblem(godel3, (101, 9901), [d.Constraint((0,), [2] * 101)])
        tracemalloc.start()
        try:
            with pytest.raises(d.TooLarge):
                call(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
