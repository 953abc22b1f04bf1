import itertools
import random

import numpy as np
import pytest

import drlcsp as d
from conftest import clone
from drlcsp.model import row_index, table_groups


class TestNormalize:
    def test_duplicate_unary_merges_pointwise(self, w10):
        raw = d.RawProblem(w10, (2,), [
            d.Constraint((0,), [0, 0]),
            d.Constraint((0,), [3, 0]),
        ])
        p = d.normalize(raw)
        assert p.unary(0).values == [3, 0]

    def test_top_is_neutral_in_merge(self, godel3):
        raw = d.RawProblem(godel3, (2,), [
            d.Constraint((0,), [2, 2]),
            d.Constraint((0,), [1, 2]),
        ])
        assert d.normalize(raw).unary(0).values == [1, 2]

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("bad", [-1, 5, 7, 65535])
    def test_merged_values_that_are_not_element_ids_are_refused(self, w4, bad, first):
        # otimes[0, -1] would read otimes[0, 4]; 5 and above index past the row.
        tables = [d.Constraint((0, 1), [0, bad, 1, 2]), d.Constraint((0, 1), [0, 0, 0, 0])]
        raw = d.RawProblem(w4, (2, 2), tables if first else tables[::-1])
        with pytest.raises(ValueError) as info:
            d.normalize(raw)
        assert str(info.value) == "scope (0, 1) has values that are not element ids"

    def test_missing_unary_filled_with_top(self, w10):
        raw = d.RawProblem(w10, (2, 3), [d.Constraint((0,), [1, 2])])
        p = d.normalize(raw)
        assert p.unary(1).values == [0, 0, 0]

    def test_bottom_valued_domain_element_removed(self, w4):
        raw = d.RawProblem(w4, (3, 2), [
            d.Constraint((0,), [1, 4, 2]),  # cost 4 is bottom: value 1 dies
            d.Constraint((0, 1), [0, 1, 2, 3, 4, 4]),
        ])
        p = d.normalize(raw)
        assert p.domain_sizes == (2, 2)
        assert p.unary(0).values == [1, 2]
        # rows for surviving values 0 and 2 of the old table
        assert p.constraints[(0, 1)].values == [0, 1, 4, 4]

    def test_every_shrunk_coordinate_restricted(self, w4):
        raw = d.RawProblem(w4, (3, 3), [
            d.Constraint((0,), [1, 4, 2]),  # value 1 of variable 0 dies
            d.Constraint((1,), [4, 0, 1]),  # value 0 of variable 1 dies
            d.Constraint((0, 1), [0, 1, 2, 3, 0, 1, 2, 3, 0]),
        ])
        p = d.normalize(raw)
        assert p.domain_sizes == (2, 2)
        # rows for surviving values 0 and 2, columns for 1 and 2
        assert p.constraints[(0, 1)].values == [1, 2, 3, 0]

    def test_all_values_bottom_is_inconsistent(self, w4):
        raw = d.RawProblem(w4, (2,), [d.Constraint((0,), [4, 4])])
        assert d.normalize(raw) is None

    def test_idempotent(self, w4):
        raw = d.RawProblem(w4, (3, 2), [
            d.Constraint((0,), [1, 4, 2]),
            d.Constraint((0, 1), [0, 1, 2, 3, 4, 4]),
            d.Constraint((0, 1), [1, 0, 0, 0, 0, 0]),
        ])
        once = d.normalize(raw)
        again = d.normalize(d.RawProblem(once.algebra, once.domain_sizes,
                                         list(clone(once).constraints.values())))
        assert again == once

    def test_preserves_surviving_combined_values(self, w4):
        raw = d.RawProblem(w4, (3, 2), [
            d.Constraint((0,), [1, 4, 2]),
            d.Constraint((0, 1), [0, 1, 2, 3, 4, 4]),
            d.Constraint((0, 1), [1, 0, 0, 0, 0, 0]),
        ])
        p = d.normalize(raw)
        survivors = {0: 0, 1: 2}  # new id -> old id for variable 0
        for new_t in itertools.product(range(2), range(2)):
            old_t = (survivors[new_t[0]], new_t[1])
            assert d.combined_value(p, new_t) == d.combined_value(raw, old_t)


class TestCombinedValue:
    def test_empty_store_is_top(self, godel3):
        raw = d.RawProblem(godel3, (2, 2), [])
        assert d.combined_value(raw, (0, 1)) == godel3.top

    def test_bottom_annihilates(self, godel3):
        raw = d.RawProblem(godel3, (2,), [
            d.Constraint((0,), [0, 2]),
            d.Constraint((0,), [2, 2]),
        ])
        assert d.combined_value(raw, (0,)) == 0

    def test_weighted_costs_add(self, w10):
        raw = d.RawProblem(w10, (2, 2), [
            d.Constraint((0,), [0, 0]),
            d.Constraint((1,), [1, 1]),
            d.Constraint((0, 1), [3, 3, 3, 3]),
        ])
        assert d.combined_value(raw, (0, 0)) == 4

    def test_invariant_under_store_permutation(self, w10):
        constraints = [
            d.Constraint((0,), [0, 1]),
            d.Constraint((1,), [2, 0]),
            d.Constraint((0, 1), [2, 5, 0, 3]),
            d.Constraint((0, 1), [1, 1, 1, 1]),
        ]
        rng = random.Random(7)
        reference = None
        for _ in range(6):
            shuffled = constraints[:]
            rng.shuffle(shuffled)
            raw = d.RawProblem(d.weighted(10), (2, 2), shuffled)
            values = [d.combined_value(raw, t) for t in itertools.product(range(2), range(2))]
            if reference is None:
                reference = values
            assert values == reference

    def test_wrong_arity_rejected(self, godel3):
        raw = d.RawProblem(godel3, (2, 2), [])
        with pytest.raises(ValueError):
            d.combined_value(raw, (0,))

    @pytest.mark.parametrize("assignment", [(1, -2), (0, -1), (2, 0), (0, 2)])
    def test_value_outside_domain_rejected(self, godel3, assignment):
        p = d.gen_random_problem(godel3, 2, 2, 3, 2, seed=1)
        with pytest.raises(ValueError, match="outside its variable's domain"):
            d.combined_value(p, assignment)

    @pytest.mark.parametrize("bad", [-1, 5, 65535])
    def test_table_value_that_is_not_an_element_id_rejected_when_read(self, w4, bad):
        # otimes[0, -1] would read otimes[0, 4], the last entry of its row.
        raw = d.RawProblem(w4, (2, 2), [d.Constraint((0, 1), [0, bad, 1, 2])])
        assert d.combined_value(raw, (0, 0)) == 0
        with pytest.raises(ValueError) as info:
            d.combined_value(raw, (0, 1))
        assert str(info.value) == "scope (0, 1) has values that are not element ids"


class TestRowIndex:
    @pytest.mark.parametrize("sizes", [(1, 3), (3, 1), (1, 1), (2, 3), (2, 1, 3), (3, 2, 2), (1, 2, 1, 3)])
    def test_rows_match_combined_value(self, sizes):
        # One table holding its own flat positions: under weighted(L), whose
        # top is 0, combined_value reads back a tuple's row-major position.
        length = int(np.prod(sizes))
        scope = tuple(range(len(sizes)))
        raw = d.RawProblem(d.weighted(length), sizes, [d.Constraint(scope, list(range(length)))])
        rng = random.Random(len(sizes) * 10 + length)
        for pos, size in enumerate(sizes):
            others = [range(s) for s in sizes[:pos] + sizes[pos + 1:]]
            expected = [
                [d.combined_value(raw, (*t[:pos], a, *t[pos:])) for t in itertools.product(*others)]
                for a in range(size)
            ]
            assert row_index(sizes, pos).tolist() == expected
            for _ in range(4):
                live = np.array([rng.random() < 0.5 for _ in range(size)])
                got = row_index(sizes, pos, live)
                assert got.shape == (int(live.sum()), length // size)
                assert got.tolist() == [row for row, keep in zip(expected, live) if keep]


class TestTableGroups:
    def test_all_top_flags_the_coordinates_whose_rows_all_hold_top(self):
        b = d.boolean()
        flags = set()
        for alg in (d.lukasiewicz_chain(4), d.direct_product(b, b)):
            for seed in range(10):
                raw = d.gen_random_problem(alg, 4, 2 + seed % 2, 8, 3, seed)
                dead = clone(raw)
                dead.unary(seed % 4).values[0] = alg.bottom
                for problem in (raw, dead):
                    for k in (2, 3):
                        grouped = []
                        for group in table_groups(problem, k):
                            assert group.all_top.shape == (len(group.sizes), len(group.scopes))
                            for j, scope in enumerate(group.scopes):
                                table = np.array(problem.constraints[scope].values)
                                sizes = tuple(problem.domain_sizes[v] for v in scope)
                                assert sizes == group.sizes
                                assert group.stack[j].tolist() == table.tolist()
                                for pos in range(len(scope)):
                                    expected = (table[row_index(sizes, pos)] == alg.top).any(axis=1).all()
                                    assert group.all_top[pos, j] == expected
                                    flags.add(bool(expected))
                            grouped += group.scopes
                        # every stored scope of arity 2..k, and no other, in exactly one group
                        assert sorted(grouped) == sorted(s for s in problem.constraints if 2 <= len(s) <= k)
        assert flags == {True, False}

    def test_stacks_match_the_fromiter_reference(self, w10):
        for seed in range(6):
            p = d.gen_random_problem(w10, 5, 2 + seed % 3, 12, 3, seed)
            arrays = d.Problem(w10, p.domain_sizes, {
                s: d.Constraint(s, np.array(c.values, dtype=np.intp)) for s, c in p.constraints.items()
            })
            for problem in (p, arrays):
                for group in table_groups(problem, 3):
                    reference = np.stack([
                        np.fromiter(problem.constraints[s].values, np.intp, len(problem.constraints[s].values))
                        for s in group.scopes
                    ])
                    assert group.stack.dtype == np.intp and group.stack.flags.writeable
                    assert np.array_equal(group.stack, reference)

    @pytest.mark.parametrize("bad", [1.5, -1, 65536, 5, 7, 65535])
    def test_values_that_are_not_element_ids_are_refused(self, w4, bad):
        # np.fromiter would read 1.5 as 1 and -1 as an index from the end;
        # ids from the carrier's size up to 2**16 pack, but index past otimes.
        p = d.Problem(w4, (2, 2), {
            (0,): d.Constraint((0,), [0, 0]),
            (1,): d.Constraint((1,), [0, 0]),
            (0, 1): d.Constraint((0, 1), [0, 1, bad, 2]),
        })
        for run in (lambda: table_groups(p, 2), lambda: d.enforce_k_hyperarc(p, 2),
                    lambda: d.is_k_hyperarc_consistent(p, 2)):
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == "scope (0, 1) has values that are not element ids"

    @pytest.mark.parametrize("table", [[0, 1, 2, 0], [1, 2, 3, 1]])
    @pytest.mark.parametrize("bad", [-1, 5, 7, 65535])
    def test_unary_values_that_are_not_element_ids_are_refused(self, w4, bad, table):
        # Every row of the first table holds top, so no projection or witness
        # test reads the unary table; with the second, -1 would be read as 4.
        p = d.Problem(w4, (2, 2), {
            (0,): d.Constraint((0,), [0, bad]),
            (1,): d.Constraint((1,), [0, 0]),
            (0, 1): d.Constraint((0, 1), table),
        })
        for run in (lambda: table_groups(p, 2), lambda: d.enforce_k_hyperarc(p, 2),
                    lambda: d.is_k_hyperarc_consistent(p, 2)):
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == "scope (0,) has values that are not element ids"

    @pytest.mark.parametrize("bad", [-1, 1.5, 7])
    def test_a_table_past_the_carrier_is_named_before_a_later_unary_one(self, w4, bad):
        # -1 and 1.5 fail to pack, 7 packs; (0, 1), stored first, is named.
        p = d.Problem(w4, (2, 2), {
            (0, 1): d.Constraint((0, 1), [0, 1, 9, 0]),
            (0,): d.Constraint((0,), [0, 0]),
            (1,): d.Constraint((1,), [bad, 0]),
        })
        for run in (lambda: table_groups(p, 2), lambda: d.enforce_k_hyperarc(p, 2),
                    lambda: d.is_k_hyperarc_consistent(p, 2)):
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == "scope (0, 1) has values that are not element ids"

    def test_the_first_refused_scope_in_store_order_is_named(self, w4):
        # (0, 1) and (0, 3) share a group, which comes first, but (0, 2),
        # stored between them, is the first with an id past the carrier.
        p = d.Problem(w4, (2, 2, 3, 2), {
            **{(v,): d.Constraint((v,), [0] * size) for v, size in enumerate((2, 2, 3, 2))},
            (0, 1): d.Constraint((0, 1), [0, 1, 2, 3]),
            (0, 2): d.Constraint((0, 2), [0, 1, 2, 3, 9, 4]),
            (0, 3): d.Constraint((0, 3), [0, 7, 2, 3]),
        })
        for run in (lambda: table_groups(p, 2), lambda: d.enforce_k_hyperarc(p, 2),
                    lambda: d.is_k_hyperarc_consistent(p, 2)):
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == "scope (0, 2) has values that are not element ids"


class TestConsistencyPredicate:
    def test_all_top_tables_are_consistent(self, godel3):
        raw = d.RawProblem(godel3, (2, 2), [
            d.Constraint((0, 1), [2, 2, 2, 2]),
        ])
        p = d.normalize(raw)
        assert d.is_k_hyperarc_consistent(p, 2) is None

    def test_weighted_example_violation(self, weighted_example):
        violation = d.is_k_hyperarc_consistent(weighted_example, 2)
        assert violation == d.Violation((0, 1), 0, 0)

    def test_weighted_example_consistent_after_enforcement(self, weighted_example):
        out = d.enforce_k_hyperarc(weighted_example, 2)
        assert not out.inconsistent
        assert d.is_k_hyperarc_consistent(out.problem, 2) is None

    def test_bottom_unary_values_are_skipped(self, w4):
        # the dead value's row is all bottom yet the problem stays consistent
        p = d.Problem(w4, (2, 2), {
            (0,): d.Constraint((0,), [1, 4]),
            (1,): d.Constraint((1,), [0, 0]),
            (0, 1): d.Constraint((0, 1), [0, 0, 4, 4]),
        })
        assert d.is_k_hyperarc_consistent(p, 2) is None

    def test_variable_without_live_value_is_a_violation(self, w4):
        # the binary table is all top, so only the node condition can fail
        p = d.Problem(w4, (2, 2, 2), {
            (0,): d.Constraint((0,), [1, 0]),
            (1,): d.Constraint((1,), [0, 0]),
            (2,): d.Constraint((2,), [4, 4]),
            (0, 1): d.Constraint((0, 1), [0, 0, 0, 0]),
        })
        assert d.is_k_hyperarc_consistent(p, 2) == d.Violation((2,), 2, 0)
        assert d.brute_force_solve(p).inconsistent
        assert d.enforce_k_hyperarc(p, 2).inconsistent
        # in canonical order the unary scope (0,) precedes (0, 1)
        p.unary(0).values[:] = [4, 4]
        assert d.is_k_hyperarc_consistent(p, 2) == d.Violation((0,), 0, 0)

    def test_scopes_above_k_ignored(self, godel3):
        raw = d.RawProblem(godel3, (2, 2, 2), [
            d.Constraint((0, 1, 2), [1] * 8),
        ])
        p = d.normalize(raw)
        assert d.is_k_hyperarc_consistent(p, 2) is None
        assert d.is_k_hyperarc_consistent(p, 3) is not None

    def test_bad_k(self, weighted_example):
        with pytest.raises(ValueError):
            d.is_k_hyperarc_consistent(weighted_example, 1)

    def test_consistency_at_k_implies_lower_k_on_binary_stores(self, w10):
        for seed in range(12):
            p = d.gen_random_problem(w10, 4, 3, 7, 2, seed)
            out = d.enforce_k_hyperarc(p, 3)
            if out.inconsistent:
                continue
            if d.is_k_hyperarc_consistent(out.problem, 3) is None:
                assert d.is_k_hyperarc_consistent(out.problem, 2) is None


def _assert_python_ints(value):
    """Every number inside `value` is a Python int (or bool), as json.dumps needs."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _assert_python_ints(item)
    else:
        assert type(value) in (int, bool), (type(value), value)


class TestPublicResultsArePythonInts:
    """The tables are numpy arrays; nothing the API returns may leak numpy scalars."""

    def _algebras(self):
        b = d.boolean()
        diamond_under_top = d.heyting_from_lattice([
            [1, 1, 1, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 1, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1],
        ])
        return [d.godel_chain(4), d.weighted(5), d.lukasiewicz_chain(4),
                d.direct_product(b, b), d.direct_product(d.lukasiewicz_chain(3), d.godel_chain(3)),
                diamond_under_top]

    def test_seeded_runs(self):
        violations = inconsistent = counterexamples = 0
        for alg in self._algebras():
            _assert_python_ints([alg.size, alg.top, alg.bottom])
            for seed in range(12):
                raw = d.RawProblem(alg, (3, 2, 2), [
                    d.Constraint((0,), [alg.bottom, seed % alg.size, alg.top]),
                    d.Constraint((0, 1), [(seed + i) % alg.size for i in range(6)]),
                    d.Constraint((0, 1), [(seed * i) % alg.size for i in range(6)]),
                    d.Constraint((1, 2), [(seed + 3 * i) % alg.size for i in range(4)]),
                ])
                problem = d.normalize(raw)
                solved = d.brute_force_solve(raw)
                _assert_python_ints([solved.optimal_values, solved.solutions, solved.inconsistent])
                _assert_python_ints(d.maximal_elements(alg, range(alg.size)))
                _assert_python_ints(d.combined_value(raw, (seed % 3, 1, 0)))
                if problem is None:
                    continue
                _assert_python_ints([c.values for c in problem.constraints.values()])
                for strategy in (d.MAXIMAL_LEX, d.maximal_seeded(seed), d.JOIN):
                    out = d.enforce_k_hyperarc(problem, 2, strategy)
                    if out.inconsistent:
                        inconsistent += 1
                        continue
                    _assert_python_ints([c.values for c in out.problem.constraints.values()])
                    violation = d.is_k_hyperarc_consistent(out.problem, 2)
                    if violation is None:
                        violation = d.is_k_hyperarc_consistent(problem, 2)
                    if violation is not None:
                        violations += 1
                        _assert_python_ints([violation.scope, violation.variable, violation.value])
                    cex = d.check_equivalent(problem, out.problem)
                    if cex is not None:
                        _assert_python_ints([cex.assignment, cex.value_a, cex.value_b])
                    counterexamples += cex is not None
        assert violations and inconsistent and counterexamples


def _reference_predicate(problem, k):
    """The predicate one scope at a time, with a gather for every row."""
    alg = problem.algebra
    for scope in sorted(problem.constraints):
        if len(scope) == 1 and all(v == alg.bottom for v in problem.unary(scope[0]).values):
            return d.Violation(scope, scope[0], 0)
        if not 2 <= len(scope) <= k:
            continue
        table = np.array(problem.constraints[scope].values)
        sizes = tuple(problem.domain_sizes[v] for v in scope)
        for pos, var in enumerate(scope):
            u = np.array(problem.unary(var).values)[:, None]
            witnessed = (alg.otimes[u, table[row_index(sizes, pos)]] == u).any(axis=1) | (u[:, 0] == alg.bottom)
            if not witnessed.all():
                return d.Violation(scope, var, int(witnessed.argmin()))
    return None


class TestPredicateAgainstReference:
    def test_raw_and_enforced_instances(self):
        b = d.boolean()
        algebras = [
            d.direct_product(b, b),
            d.direct_product(d.lukasiewicz_chain(3), d.godel_chain(3)),
            d.weighted(4),
            d.godel_chain(5),
        ]
        verdicts = {"raw": set(), "enforced": set()}
        node_violations = 0
        for alg in algebras:
            for seed in range(20):
                n = 3 + seed % 3
                raw = d.gen_random_problem(alg, n, 2 + seed % 2, n + 2 + seed % 3, 3, seed)
                dead = clone(raw)
                dead.unary(seed % n).values[0] = alg.bottom
                emptied = clone(raw)
                emptied.unary((seed + 1) % n).values[:] = [alg.bottom] * raw.domain_sizes[(seed + 1) % n]
                for k in (2, 3):
                    for problem in (raw, dead, emptied):
                        got = d.is_k_hyperarc_consistent(problem, k)
                        assert got == _reference_predicate(problem, k)
                        verdicts["raw"].add(got is None)
                        node_violations += got is not None and len(got.scope) == 1
                    for strategy in (d.MAXIMAL_LEX, d.maximal_seeded(seed), d.JOIN):
                        out = d.enforce_k_hyperarc(raw, k, strategy)
                        if out.inconsistent:
                            continue
                        for k2 in (2, 3):
                            got = d.is_k_hyperarc_consistent(out.problem, k2)
                            assert got == _reference_predicate(out.problem, k2)
                            verdicts["enforced"].add(got is None)
        # both verdicts occur on raw inputs and on enforced outputs
        assert verdicts == {"raw": {True, False}, "enforced": {True, False}}
        assert node_violations
