"""Acceptance suite: one test per shipped guarantee.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL
line per criterion on stdout.
"""

import hashlib
import itertools
import json
import time
from dataclasses import dataclass
from math import comb

import numpy as np
import pytest

import drlcsp as d
from drlcsp.cli import main as cli_main
from conftest import semiring_payload, within_counter_bound
from drlcsp.rng import SplitMix64
from lattice_catalog import distributive_lattices


def _report(num: int, label: str, ok: bool) -> None:
    print(f"acceptance {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# Shared corpora


@pytest.fixture(scope="session")
def suite():
    """All builtins plus every pairwise product with carrier <= 64."""
    t0 = time.perf_counter()
    base = [d.boolean()]
    base += [d.godel_chain(n) for n in range(2, 9)]
    base += [d.lukasiewicz_chain(n) for n in range(2, 9)]
    base += [d.weighted(n) for n in range(1, 11)]
    base += [d.heyting_from_lattice(leq, name) for name, leq in distributive_lattices(6)]
    algebras = list(base)
    for a, b in itertools.combinations_with_replacement(base, 2):
        if a.size * b.size <= 64:
            algebras.append(d.direct_product(a, b))
    return algebras, time.perf_counter() - t0


@dataclass
class BatchRun:
    family: str
    k: int
    n: int
    d: int
    e: int
    problem: d.Problem
    outcome: d.EnforcementOutcome


_FAMILIES = ("boolean", "godel", "lukasiewicz", "weighted")
_RUNS_PER_FAMILY = 500


def _family_algebra(family: str, rng: SplitMix64, cache: dict) -> d.FiniteDRL:
    if family == "boolean":
        key = 0
    elif family == "weighted":
        key = 1 + rng.below(6)
    else:
        key = 2 + rng.below(5)
    if key not in cache:
        if family == "boolean":
            cache[key] = d.boolean()
        elif family == "godel":
            cache[key] = d.godel_chain(key)
        elif family == "lukasiewicz":
            cache[key] = d.lukasiewicz_chain(key)
        else:
            cache[key] = d.weighted(key)
    return cache[key]


@pytest.fixture(scope="session")
def batches():
    """500 seeded random runs per chain family: n<=5, d<=4, e<=8, arity<=3, k in {2,3}."""
    t0 = time.perf_counter()
    runs = []
    for family_index, family in enumerate(_FAMILIES):
        cache = {}
        for run_index in range(_RUNS_PER_FAMILY):
            rng = SplitMix64(family_index * 100_000 + run_index)
            n = 2 + rng.below(4)
            dsz = 1 + rng.below(4)
            max_arity = 2 if n == 2 else 2 + rng.below(2)
            pool = sum(comb(n, a) for a in range(2, max_arity + 1))
            e = n + rng.below(min(8, n + pool) - n + 1)
            k = 2 + rng.below(2)
            algebra = _family_algebra(family, rng, cache)
            problem = d.gen_random_problem(algebra, n, dsz, e, max_arity, seed=run_index)
            outcome = d.enforce_k_hyperarc(problem, k, d.MAXIMAL_LEX)
            runs.append(BatchRun(family, k, n, dsz, e, problem, outcome))
    return runs, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_algebra_axiom_suite(suite):
    algebras, build_seconds = suite
    t0 = time.perf_counter()
    failures = []
    for algebra in algebras:
        for profile in ("drl", "derived"):
            report = d.check_axioms(algebra, profile)
            if not report.ok:
                failures.append((algebra.name, profile, report.failures()))
    elapsed = build_seconds + time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(1, f"axiom suite over {len(algebras)} algebras in {elapsed:.1f}s", ok)
    assert not failures, failures[:3]
    assert elapsed < 60.0


def test_criterion_02_residuum_uniqueness(suite):
    algebras, _ = suite
    mismatched = [
        a.name
        for a in algebras
        if not np.array_equal(d.residuum_from_tables(a.leq, a.otimes), a.residuum)
    ]
    _report(2, f"residuum rederivation over {len(algebras)} algebras", not mismatched)
    assert not mismatched, mismatched[:5]


def test_criterion_03_semiring_expansion(boolean_alg):
    # Bistarelli, Montanari & Rossi's commutative idempotent semirings are
    # Heyting algebras: each loads, under the drl law check, as the Heyting
    # algebra over the order its join induces.
    cases = []
    for name, leq in distributive_lattices(6):
        meet, join, top, bottom = d.derive_lattice(leq)
        cases.append((semiring_payload(join, meet, top, bottom, name), d.heyting_from_lattice(leq, name)))
    # Round trips: an algebra's (join, otimes) reduct loads back as the algebra.
    diamond = d.heyting_from_lattice([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    for algebra in (boolean_alg, diamond):
        cases.append((semiring_payload(algebra.join, algebra.otimes, algebra.top,
                                       algebra.bottom, algebra.name), algebra))
    failures = []
    for payload, expected in cases:
        try:
            loaded = d.load_algebra(payload, validate=True)
        except (d.AlgebraError, d.FormatError) as exc:
            failures.append((payload["name"], str(exc)))
            continue
        flags = d.classify(loaded)
        if loaded != expected:
            failures.append((payload["name"], "load differs from direct construction"))
        if not flags.idempotent or flags.variety_name not in ("Heyting", "Boolean", "Godel"):
            failures.append((payload["name"], flags))
    if not d.check_axioms(boolean_alg, "cis-reduct").ok:
        failures.append(("boolean", "reduct fails the semiring profile"))
    _report(3, f"{len(cases)} idempotent semirings load as Heyting algebras", not failures)
    assert not failures, failures


def test_criterion_04_chains_are_prelinear_with_sup_residuum(suite):
    algebras, _ = suite
    failures = []
    chains = 0
    for algebra in algebras:
        flags = d.classify(algebra)
        if not flags.chain:
            continue
        chains += 1
        if not flags.prelinear:
            failures.append((algebra.name, "chain is not prelinear"))
        rederived = d.residuum_from_tables(algebra.leq, algebra.otimes)
        if not np.array_equal(rederived, algebra.residuum):
            failures.append((algebra.name, "residuum differs from the sup formula"))
    ok = not failures and chains > 20
    _report(4, f"{chains} chains prelinear with adjoint residuum", ok)
    assert chains > 20
    assert not failures, failures


def test_criterion_05_chain_batches_equivalent_and_consistent(batches):
    runs, gen_seconds = batches
    t0 = time.perf_counter()
    failures = []
    for i, run in enumerate(runs):
        if run.outcome.inconsistent:
            continue
        if d.check_equivalent(run.problem, run.outcome.problem) is not None:
            failures.append((run.family, i, "not equivalent"))
        if d.is_k_hyperarc_consistent(run.outcome.problem, run.k) is not None:
            failures.append((run.family, i, "not consistent"))
    elapsed = gen_seconds + time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(5, f"{len(runs)} chain runs equivalent+consistent in {elapsed:.1f}s", ok)
    assert not failures, failures[:5]
    assert elapsed < 120.0


# sha256 over the canonical output of every batch run, in run order.
_BATCH_OUTPUT_DIGEST = "48ea00e46ac7c778d3758c8891b67e03cd064ed7b71943618a79713198f8f9e1"


def test_batch_outputs_match_frozen_digest(batches):
    runs, _ = batches
    digest = hashlib.sha256()
    for run in runs:
        if run.outcome.inconsistent:
            digest.update(b"inconsistent\n")
        else:
            digest.update(d.save_problem(run.outcome.problem).encode())
    assert len(runs) == 2000
    assert digest.hexdigest() == _BATCH_OUTPUT_DIGEST


def test_criterion_06_inconsistent_outcomes_confirmed(batches):
    runs, _ = batches
    flagged = [run for run in runs if run.outcome.inconsistent]
    unconfirmed = [
        (run.family, run.n, run.d)
        for run in flagged
        if not d.brute_force_solve(run.problem).inconsistent
    ]
    _report(6, f"{len(flagged)} inconsistent outcomes confirmed by brute force", not unconfirmed)
    assert flagged, "batches produced no inconsistent outcome to confirm"
    assert not unconfirmed, unconfirmed[:5]


def test_criterion_07_counter_bounds_and_scaling(batches):
    runs, _ = batches
    over_budget = [
        (run.family, run.n, run.d, run.e, run.outcome.counters)
        for run in runs
        if not within_counter_bound(run.outcome.counters, run.n, run.e)
    ]

    # wall-time ladder at fixed n, e, k: growth no faster than d^(k+1) within 3x
    algebra = d.weighted(6)
    k = 2

    def ladder_time(dsz: int) -> float:
        problems = [d.gen_random_problem(algebra, 4, dsz, 8, 2, seed) for seed in range(60)]
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            for p in problems:
                d.enforce_k_hyperarc(p, k, d.MAXIMAL_LEX)
            took = time.perf_counter() - t0
            best = took if best is None else min(best, took)
        return best

    times = {dsz: ladder_time(dsz) for dsz in range(2, 9)}
    base = max(times[2], 1e-4)
    ladder_breaks = [
        (dsz, t, 3 * base * (dsz / 2) ** (k + 1))
        for dsz, t in times.items()
        if t > 3 * base * (dsz / 2) ** (k + 1)
    ]
    ok = not over_budget and not ladder_breaks
    _report(7, "worklist counter bounds and d^(k+1) wall-time band", ok)
    assert not over_budget, over_budget[:5]
    assert not ladder_breaks, ladder_breaks


def test_criterion_08_non_chain_regression(crisscross):
    failures = []

    lex = d.enforce_k_hyperarc(crisscross, 2, d.MAXIMAL_LEX)
    if lex.inconsistent or d.check_equivalent(crisscross, lex.problem) is None:
        failures.append("maximal-lex should break equivalence on the antichain instance")

    join = d.enforce_k_hyperarc(crisscross, 2, d.JOIN)
    if join.inconsistent or d.check_equivalent(crisscross, join.problem) is not None:
        failures.append("join should preserve equivalence")
    if d.is_k_hyperarc_consistent(join.problem, 2) is None:
        failures.append("join output should still violate consistency")

    _report(8, "non-total-order witnesses: lex loses equivalence, join stalls", not failures)
    assert not failures, failures


def test_criterion_09_closure_non_uniqueness():
    # Frozen witness found by seeded search: two seeds, both sound, different tables.
    algebra = d.direct_product(d.lukasiewicz_chain(3), d.godel_chain(3))
    problem = d.gen_random_problem(algebra, 3, 2, 5, 2, seed=0)
    seeds = (0, 1)
    outputs = []
    failures = []
    for seed in seeds:
        out = d.enforce_k_hyperarc(problem, 2, d.maximal_seeded(seed))
        if out.inconsistent:
            failures.append((seed, "unexpectedly inconsistent"))
            continue
        if d.check_equivalent(problem, out.problem) is not None:
            failures.append((seed, "not equivalent"))
        if d.is_k_hyperarc_consistent(out.problem, 2) is not None:
            failures.append((seed, "not consistent"))
        outputs.append({s: tuple(c.values) for s, c in out.problem.constraints.items()})
    if len(outputs) == 2 and outputs[0] == outputs[1]:
        failures.append("closures are table-identical")
    _report(9, "two seeds give distinct sound closures", not failures)
    assert not failures, failures


def test_criterion_10_cli_weighted_worked_example(tmp_path, capsys):
    failures = []
    algebra_file = tmp_path / "w10.json"
    problem_file = tmp_path / "prob.json"
    enforced_file = tmp_path / "enforced.json"

    if cli_main(["algebra", "make", "--kind", "weighted", "--n", "10",
                 "-o", str(algebra_file)]) != 0:
        failures.append("algebra make failed")
    problem_file.write_text(json.dumps({
        "algebra": algebra_file.name,
        "domains": [2, 2],
        "constraints": [
            {"scope": [0], "values": [0, 1]},
            {"scope": [0, 1], "values": [2, 5, 0, 3]},
        ],
    }))
    if cli_main(["enforce", "--problem", str(problem_file), "--k", "2",
                 "-o", str(enforced_file)]) != 0:
        failures.append("enforce exited nonzero")
    if cli_main(["consistency", "--problem", str(enforced_file), "--k", "2"]) != 0:
        failures.append("enforced output is not consistent")
    if cli_main(["equiv", "--a", str(problem_file), "--b", str(enforced_file)]) != 0:
        failures.append("enforced output is not equivalent to the input")
    capsys.readouterr()

    # The hand-derived tables arise from the projection onto variable 0;
    # replay it on the same hand-written file and compare exactly.
    problem = d.read_problem(problem_file)
    d.project(problem, (0, 1), 0)
    if problem.unary(0).values != [2, 1]:
        failures.append(f"unary after projection: {problem.unary(0).values}")
    binary = problem.constraints[(0, 1)].values
    if binary[0] != 0 or binary[1] != 3:
        failures.append(f"binary after projection: {binary}")

    _report(10, "CLI pipeline reproduces the hand-derived weighted tables", not failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# Result (i), second half: fair valuation structures are BL-algebras


def _cost_monoids(m: int):
    """Every commutative monotone monoid on the costs 0 < 1 < ... < m-1.

    0 is the identity and m-1, the top cost, is absorbing. Monotonicity
    and the identity give a + b >= max(a, b), so only the entries with
    both costs strictly between 0 and m-1 are free, each in [max(a, b), m-1].
    """
    top = m - 1
    cells = [(a, b) for a in range(1, top) for b in range(a, top)]
    for choice in itertools.product(*(range(b, m) for _, b in cells)):
        table = np.zeros((m, m), dtype=int)
        table[0, :] = table[:, 0] = range(m)
        table[top, :] = table[:, top] = top
        for (a, b), v in zip(cells, choice):
            table[a, b] = table[b, a] = v
        monotone = (np.diff(table, axis=0) >= 0).all()
        if monotone and (table[table, :] == table[:, table]).all():
            yield table


def _differences(table: np.ndarray, alpha: int, beta: int) -> list[int]:
    """The costs g with alpha + g = beta (the differences of beta and alpha)."""
    return [g for g in range(len(table)) if table[alpha, g] == beta]


def _valuation_structure(table: np.ndarray, name: str) -> dict:
    """A cost monoid as an algebra payload: the cost order reversed, otimes the sum."""
    m = len(table)
    return {
        "name": name, "size": m, "top": 0, "bottom": m - 1,
        "leq": [[int(x >= y) for y in range(m)] for x in range(m)],
        "otimes": table.tolist(),
    }


def test_criterion_11_fair_valuation_structures_are_bl():
    # Cooper & Schiex call a valuation structure fair when every beta >= alpha
    # has a maximum difference g (alpha + g = beta). On a finite chain that
    # is the existence of a difference. The fair difference compared with the
    # residuum is the greatest difference in the loaded order: the least cost.
    failures = []
    counts = {}
    for m in range(1, 6):
        monoids = fair = 0
        pairs = [(a, b) for a in range(m) for b in range(a, m)]
        for i, table in enumerate(_cost_monoids(m)):
            monoids += 1
            is_fair = all(_differences(table, a, b) for a, b in pairs)
            fair += is_fair
            try:
                algebra = d.load_algebra(_valuation_structure(table, f"costs{m}-{i}"))
            except d.AxiomViolation as exc:
                if is_fair:
                    failures.append((m, table.tolist(), str(exc)))
                    continue
                # The witness is an unfair pair: cost y above x with no difference.
                [check] = exc.report.failures()
                x, y, _ = check.counterexample
                if check.axiom != "divisibility" or x >= y or _differences(table, x, y):
                    failures.append((m, table.tolist(), check))
                continue
            if not is_fair:
                failures.append((m, table.tolist(), "unfair monoid loaded"))
                continue
            if not d.classify(algebra).prelinear:
                failures.append((m, table.tolist(), "not BL"))
            # alpha -> beta is top (cost 0) when beta costs no more than alpha.
            minus = [[min(_differences(table, a, b)) if a <= b else 0 for b in range(m)]
                     for a in range(m)]
            if algebra.residuum.tolist() != minus:
                failures.append((m, table.tolist(), "residuum differs from the fair difference"))
        counts[m] = (monoids, fair)

    truncated = np.minimum(np.add.outer(range(4), range(4)), 3)
    mv = d.load_algebra(_valuation_structure(truncated, "truncated-sum-4"))
    if d.classify(mv).variety_name != "MV":
        failures.append(("truncated sum", d.classify(mv)))
    if mv.residuum.tolist() != [[max(0, b - a) for b in range(4)] for a in range(4)]:
        failures.append(("truncated sum", "residuum is not max(0, b - a)"))

    costs = np.arange(4)
    drastic = np.where(np.minimum.outer(costs, costs) == 0, np.maximum.outer(costs, costs), 3)
    try:
        d.load_algebra(_valuation_structure(drastic, "drastic-4"))
        failures.append(("drastic", "loaded"))
    except d.AxiomViolation as exc:
        if str(exc) != "axiom check failed: divisibility":
            failures.append(("drastic", str(exc)))

    ok = not failures and counts[5] == (22, 8)
    _report(11, f"fair cost monoids load as BL-algebras {counts}", ok)
    assert counts[5] == (22, 8)
    assert not failures, failures
