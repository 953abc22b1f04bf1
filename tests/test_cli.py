import json
from pathlib import Path

import numpy as np
import pytest

import cli_corpus
import drlcsp as d
from drlcsp import algebra, formats
from drlcsp.cli import main

# Computed by `cli_corpus.run` when a non-integer `maximal-seeded` seed began
# to get "cannot parse strategy"; that record's stderr is the only change.
CORPUS_DIGEST = "ba8064b73c8ab14c56dd04ba2441dca43f3cf33460f9a89d831e51e3abcf2279"

DIAMOND = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]

# `algebra make` arguments and the constructor each kind must match.
MAKE_KINDS = {
    "boolean": ([], d.boolean),
    "godel": (["--n", "4"], lambda: d.godel_chain(4)),
    "lukasiewicz": (["--n", "5"], lambda: d.lukasiewicz_chain(5)),
    "weighted": (["--n", "3"], lambda: d.weighted(3)),
    "heyting": (["--lattice", "diamond.json"], lambda: d.heyting_from_lattice(DIAMOND)),
    "product": (["--left", "l3.json", "--right", "w2.json"],
                lambda: d.direct_product(d.lukasiewicz_chain(3), d.weighted(2))),
}


@pytest.fixture()
def w10_file(tmp_path):
    path = tmp_path / "w10.json"
    path.write_text(d.save_algebra(d.weighted(10)))
    return path


@pytest.fixture()
def weighted_problem_file(tmp_path, w10_file):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({
        "algebra": w10_file.name,
        "domains": [2, 2],
        "constraints": [
            {"scope": [0], "values": [0, 1]},
            {"scope": [0, 1], "values": [2, 5, 0, 3]},
        ],
    }))
    return path


class TestAlgebraCommands:
    def test_make_and_classify(self, tmp_path, capsys):
        out = tmp_path / "g4.json"
        assert main(["algebra", "make", "--kind", "godel", "--n", "4", "-o", str(out)]) == 0
        assert d.read_algebra(out) == d.godel_chain(4)
        assert main(["algebra", "classify", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["variety"] == "Godel" and payload["chain"] is True

    @pytest.mark.parametrize("kind", list(MAKE_KINDS))
    def test_make_each_kind(self, tmp_path, monkeypatch, capsys, kind):
        args, build = MAKE_KINDS[kind]
        monkeypatch.chdir(tmp_path)
        Path("diamond.json").write_text(json.dumps(DIAMOND))
        Path("l3.json").write_text(d.save_algebra(d.lukasiewicz_chain(3)))
        Path("w2.json").write_text(d.save_algebra(d.weighted(2)))
        assert main(["algebra", "make", "--kind", kind, *args, "-o", "made.json"]) == 0
        expected = build()
        made = d.read_algebra("made.json")
        assert made == expected and made.name == expected.name
        assert capsys.readouterr().out == f"wrote {expected.name} (size {expected.size}) to made.json\n"

    def test_make_product(self, tmp_path):
        left = tmp_path / "b.json"
        left.write_text(d.save_algebra(d.boolean()))
        out = tmp_path / "bb.json"
        code = main(["algebra", "make", "--kind", "product",
                     "--left", str(left), "--right", str(left), "-o", str(out)])
        assert code == 0
        assert d.read_algebra(out).size == 4

    def test_make_heyting_from_lattice_file(self, tmp_path):
        lattice = tmp_path / "diamond.json"
        lattice.write_text(json.dumps({"leq": [
            [1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1],
        ]}))
        out = tmp_path / "h.json"
        assert main(["algebra", "make", "--kind", "heyting",
                     "--lattice", str(lattice), "-o", str(out)]) == 0
        assert np.array_equal(d.read_algebra(out).otimes, d.read_algebra(out).meet)

    @pytest.mark.parametrize("table,message", [
        ([[1, 2], [0, 1]], "'leq' entries must be 0 or 1"),
        ([[1, 1], [0]], "'leq' must be a 2x2 integer table"),
        ({"leq": [[1, 1, 1], [0, 1], [0, 0, 1]]}, "'leq' must be a 3x3 integer table"),
    ], ids=["not-0-1", "ragged", "ragged-object"])
    def test_make_heyting_refuses_malformed_lattice(self, tmp_path, capsys, table, message):
        lattice = tmp_path / "bad.json"
        lattice.write_text(json.dumps(table))
        out = tmp_path / "h.json"
        assert main(["algebra", "make", "--kind", "heyting",
                     "--lattice", str(lattice), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind,n", [("godel", 9), ("lukasiewicz", 9), ("weighted", 8)])
    def test_make_obeys_carrier_cap(self, tmp_path, capsys, monkeypatch, kind, n):
        monkeypatch.setattr(algebra, "CARRIER_CAP", 8)
        out = tmp_path / "big.json"
        assert main(["algebra", "make", "--kind", kind, "--n", str(n), "-o", str(out)]) == 3
        assert "carrier of size 9 exceeds the cap 8" in capsys.readouterr().err
        assert not out.exists()

    def test_make_product_obeys_carrier_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(algebra, "CARRIER_CAP", 8)
        left, right = tmp_path / "b.json", tmp_path / "g5.json"
        left.write_text(d.save_algebra(d.boolean()))
        right.write_text(d.save_algebra(d.godel_chain(5)))
        out = tmp_path / "big.json"
        argv = ["algebra", "make", "--kind", "product",
                "--left", str(left), "--right", str(right), "-o", str(out)]
        assert main(argv) == 3
        assert "carrier of size 10 exceeds the cap 8" in capsys.readouterr().err
        assert not out.exists()
        # The cap is a constant; there is no flag to raise it.
        assert main(argv + ["--cap", "100"]) == 1
        assert "unrecognized arguments: --cap 100" in capsys.readouterr().err
        assert not out.exists()

    def test_make_heyting_obeys_carrier_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(algebra, "CARRIER_CAP", 8)
        lattice = tmp_path / "chain9.json"
        lattice.write_text(json.dumps([[int(i <= j) for j in range(9)] for i in range(9)]))
        out = tmp_path / "h.json"
        assert main(["algebra", "make", "--kind", "heyting",
                     "--lattice", str(lattice), "-o", str(out)]) == 3
        assert not out.exists()

    def test_check_passes(self, w10_file, capsys):
        assert main(["algebra", "check", str(w10_file)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_check_corrupt_monoid_exits_3_with_counterexample(self, tmp_path, capsys):
        obj = json.loads(d.save_algebra(d.godel_chain(3)))
        obj["otimes"][0][1] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["algebra", "check", str(path)]) == 3
        out = capsys.readouterr().out
        assert "FAIL otimes-commutative at (0, 1, 0)" in out

    def test_order_that_is_not_partial_exits_3(self, tmp_path, capsys):
        obj = json.loads(d.save_algebra(d.godel_chain(3)))
        obj["leq"][2][0] = 1  # 0 <= 2 and 2 <= 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["algebra", "classify", str(path)]) == 3
        assert "leq-antisymmetric" in capsys.readouterr().err
        assert main(["algebra", "check", str(path)]) == 3

    def test_check_profiles(self, tmp_path, capsys):
        path = tmp_path / "luk.json"
        path.write_text(d.save_algebra(d.lukasiewicz_chain(3)))
        assert main(["algebra", "check", str(path), "--profile", "derived"]) == 0
        assert main(["algebra", "check", str(path), "--profile", "cis-reduct"]) == 3
        assert "otimes-idempotent" in capsys.readouterr().out

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["algebra", "check", str(tmp_path / "nope.json")]) == 1


class TestPipeline:
    def test_enforce_then_consistency_then_equiv(self, tmp_path, weighted_problem_file, capsys):
        out = tmp_path / "enforced.json"
        assert main(["enforce", "--problem", str(weighted_problem_file),
                     "--k", "2", "--counters", "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "project_calls=2" in stdout
        assert main(["consistency", "--problem", str(out), "--k", "2"]) == 0
        assert main(["consistency", "--problem", str(weighted_problem_file), "--k", "2"]) == 2
        assert main(["equiv", "--a", str(weighted_problem_file), "--b", str(out)]) == 0

    def test_enforce_counters_json_is_one_object(self, tmp_path, weighted_problem_file, capsys):
        out = tmp_path / "enforced.json"
        assert main(["enforce", "--problem", str(weighted_problem_file), "--k", "2",
                     "--counters", "--json", "-o", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "counters": {"inner_tuple_iterations": 16, "main_loop_iterations": 2,
                         "project_calls": 2},
            "inconsistent": False,
            "output": str(out),
        }

    def test_enforce_inconsistent_instance_exits_2(self, tmp_path, w10_file):
        # the only variable has a constant-bottom unary constraint
        prob = tmp_path / "dead.json"
        prob.write_text(json.dumps({
            "algebra": w10_file.name,
            "domains": [2],
            "constraints": [{"scope": [0], "values": [10, 10]}],
        }))
        out = tmp_path / "out.json"
        assert main(["enforce", "--problem", str(prob), "--k", "2", "-o", str(out)]) == 2
        assert not out.exists()

    def test_enforce_strategies_accepted(self, tmp_path, weighted_problem_file):
        for strategy in ("maximal-lex", "maximal-seeded:9", "join"):
            out = tmp_path / f"out-{strategy.replace(':', '-')}.json"
            assert main(["enforce", "--problem", str(weighted_problem_file),
                         "--k", "2", "--strategy", strategy, "-o", str(out)]) == 0

    def test_equiv_detects_difference(self, tmp_path, w10_file, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = {"algebra": w10_file.name, "domains": [2]}
        a.write_text(json.dumps({**base, "constraints": [{"scope": [0], "values": [0, 1]}]}))
        b.write_text(json.dumps({**base, "constraints": [{"scope": [0], "values": [0, 2]}]}))
        assert main(["equiv", "--a", str(a), "--b", str(b), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload == {"assignment": [1], "equal": False, "value_a": 1, "value_b": 2}

    def test_equiv_counterexample_over_seventy_variables(self, tmp_path, w10_file, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = {"algebra": w10_file.name, "domains": [1] * 70}
        a.write_text(json.dumps({**base, "constraints": [{"scope": [0], "values": [4]}]}))
        b.write_text(json.dumps({**base, "constraints": [{"scope": [0], "values": [3]}]}))
        assert main(["equiv", "--a", str(a), "--b", str(b), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"assignment": [0] * 70, "equal": False, "value_a": 4, "value_b": 3}

    def test_solve_output(self, weighted_problem_file, capsys):
        assert main(["solve", "--problem", str(weighted_problem_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload == {"inconsistent": False, "optimal_values": [1], "solutions": [[1, 0]]}

    def test_gen_output_loads_and_enforces(self, tmp_path, w10_file):
        prob = tmp_path / "gen.json"
        assert main(["gen", "--algebra", str(w10_file), "--vars", "4", "--dom", "3",
                     "--constraints", "7", "--max-arity", "3", "--seed", "11",
                     "-o", str(prob)]) == 0
        assert d.read_problem(prob) == d.gen_random_problem(d.weighted(10), 4, 3, 7, 3, 11)

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_gen_refuses_a_seed_outside_64_bits(self, tmp_path, w10_file, capsys, seed):
        prob = tmp_path / "gen.json"
        assert main(["gen", "--algebra", str(w10_file), "--vars", "4", "--dom", "3",
                     "--constraints", "7", "--max-arity", "3", "--seed", seed,
                     "-o", str(prob)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: seed {seed} lies outside [0, 2**64)\n"
        assert not prob.exists()

    def test_seventy_one_value_variables(self, tmp_path, w10_file, capsys):
        prob = tmp_path / "wide.json"
        assert main(["gen", "--algebra", str(w10_file), "--vars", "70", "--dom", "1",
                     "--constraints", "75", "--max-arity", "2", "--seed", "0",
                     "-o", str(prob)]) == 0
        capsys.readouterr()
        assert main(["solve", "--problem", str(prob), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["solutions"] == [[0] * 70]
        assert main(["equiv", "--a", str(prob), "--b", str(prob), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"equal": True}

    def test_failed_enforce_write_prints_nothing(self, tmp_path, weighted_problem_file, capsys):
        out = tmp_path / "missing" / "enforced.json"
        for flags in ([], ["--counters"], ["--json"], ["--counters", "--json"]):
            assert main(["enforce", "--problem", str(weighted_problem_file), "--k", "2",
                         *flags, "-o", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: [Errno 2] No such file or directory")

    def test_enforce_refuses_domains_past_the_unary_cap(self, tmp_path, w10_file, capsys):
        prob = tmp_path / "wide.json"
        prob.write_text(json.dumps({
            "algebra": w10_file.name, "domains": [600_000, 600_000], "constraints": [],
        }))
        out = tmp_path / "enforced.json"
        assert main(["enforce", "--problem", str(prob), "--k", "2", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unary tables of 1200000 entries exceed the cap 1000000\n"
        assert not out.exists()

    def test_matches_library_results(self, tmp_path, weighted_problem_file, capsys):
        out = tmp_path / "enf.json"
        main(["enforce", "--problem", str(weighted_problem_file), "--k", "2", "-o", str(out)])
        capsys.readouterr()
        library = d.enforce_k_hyperarc(d.read_problem(weighted_problem_file), 2)
        assert d.read_problem(out) == library.problem


def _set_symmetric_pair_to_bottom(obj):
    otimes = obj["algebra"]["otimes"]
    otimes[1][2] = otimes[2][1] = 0


def _set_one_entry_true(obj):
    obj["algebra"]["otimes"][1][2] = True


class TestEquivValidatesOnce:
    """`equiv` checks the laws of one algebra when both files embed or name
    equal ones; every other file b gets the output it got when both were
    checked."""

    @pytest.fixture()
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        alg = d.direct_product(d.lukasiewicz_chain(3), d.godel_chain(3))
        problem = json.loads(d.save_problem(d.gen_random_problem(alg, 3, 2, 5, 2, 4)))
        Path("a.json").write_text(json.dumps(problem))
        Path("alg.json").write_text(d.save_algebra(alg))
        return problem

    @pytest.fixture()
    def checks(self, monkeypatch):
        """The algebras the loaders put through the drl law check."""
        checked = []
        check = formats.check_axioms
        monkeypatch.setattr(formats, "check_axioms", lambda a, *rest: checked.append(a) or check(a, *rest))
        return checked

    @pytest.mark.parametrize("change,out,err,code,checked", [
        (lambda obj: obj["algebra"].update(name="renamed"), '{"equal": true}\n', "", 0, 1),
        (lambda obj: obj.update(algebra="alg.json"), '{"equal": true}\n', "", 0, 1),
        (_set_symmetric_pair_to_bottom, "",
         "error: axiom check failed: otimes-associative, residuation\n", 3, 2),
        (lambda obj: obj.update(algebra=json.loads(d.save_algebra(
            d.direct_product(d.godel_chain(3), d.lukasiewicz_chain(3))))),
         "", "error: problems use different algebras\n", 1, 2),
        (_set_one_entry_true, "", "error: 'otimes' must be a 9x9 integer table\n", 1, 1),
    ], ids=["renamed", "named-file", "not-associative", "other-algebra", "boolean-entry"])
    def test_file_b(self, files, checks, capsys, change, out, err, code, checked):
        change(files)
        Path("b.json").write_text(json.dumps(files))
        assert main(["equiv", "--a", "a.json", "--b", "b.json", "--json"]) == code
        assert capsys.readouterr() == (out, err)
        assert len(checks) == checked

    def test_b_shares_a_s_algebra(self, files, checks):
        Path("b.json").write_text(json.dumps(files))
        a = d.read_problem_raw("a.json")
        b = formats._read_problem_raw_sharing("b.json", a.algebra)
        assert b.algebra is a.algebra and b == d.read_problem_raw("b.json")
        assert len(checks) == 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self):
        assert main(["enforce", "--k", "2", "-o", "x.json"]) == 1

    def test_bad_strategy_string(self, weighted_problem_file, tmp_path):
        assert main(["enforce", "--problem", str(weighted_problem_file), "--k", "2",
                     "--strategy", "bogus", "-o", str(tmp_path / "o.json")]) == 1

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "deep.json"],
        ["algebra", "make", "--kind", "heyting", "--lattice", "deep.json", "-o", "h.json"],
    ], ids=["problem", "lattice"])
    def test_deeply_nested_file_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("deep.json").write_text("[" * 200_000 + "]" * 200_000)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1
        assert "maximum recursion depth exceeded" in err


def test_frozen_corpus(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def set_cap(cap):
        monkeypatch.setattr(algebra, "CARRIER_CAP", d.CARRIER_CAP if cap is None else cap)

    count, digest = cli_corpus.run(main, set_cap, lambda: tuple(capsys.readouterr()))
    assert count >= 1000
    assert digest == CORPUS_DIGEST
