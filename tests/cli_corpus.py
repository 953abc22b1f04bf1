"""A fixed corpus of CLI commands over seeded inputs, and its digest.

`write_inputs` writes the lattice, algebra and problem files that the
commands read into the current directory; `commands` then yields
(carrier cap, argv) pairs. The corpus covers every subcommand, text and
`--json`, `--counters`, all three strategies, k = 2 and 3, and the error
paths (usage, parse, I/O, law failures, the carrier cap, failed writes).
Later commands read what earlier ones wrote, so the commands run in
order, in one directory, with relative paths.

`run` digests, for each command, its argv, exit code, stdout, stderr and
the file it names with `-o` (or None when there is none). argparse's own
usage errors are digested as "usage" only: their wording belongs to the
Python version, not to this package.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import drlcsp as d

LATTICES = {
    "chain3.json": [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
    "diamond.json": {"leq": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]},
    # 2 x 3 grid: (i, j) <= (k, l) iff i <= k and j <= l, id 3i + j.
    "grid.json": [[int(i <= k and j <= l) for k in range(2) for l in range(3)]
                  for i in range(2) for j in range(3)],
    "chain9.json": [[int(i <= j) for j in range(9)] for i in range(9)],
    "m3.json": [[1, 1, 1, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1],
                [0, 0, 0, 0, 1]],
    "n5.json": [[1, 1, 1, 1, 1], [0, 1, 1, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1],
                [0, 0, 0, 0, 1]],
    "twotops.json": [[1, 1, 1], [0, 1, 0], [0, 0, 1]],
    "cycle.json": [[1, 1, 1], [1, 1, 1], [0, 0, 1]],
    "not01.json": [[1, 2], [0, 1]],
    "ragged.json": {"leq": [[1, 1, 1], [0, 1], [0, 0, 1]]},
    "noleq.json": {"order": [[1]]},
}

# (file, `algebra make` arguments); carriers stay small so the corpus runs fast.
ALGEBRAS = [
    ("b.json", ["--kind", "boolean"]),
    *((f"g{n}.json", ["--kind", "godel", "--n", str(n)]) for n in range(2, 6)),
    *((f"l{n}.json", ["--kind", "lukasiewicz", "--n", str(n)]) for n in range(2, 6)),
    *((f"w{n}.json", ["--kind", "weighted", "--n", str(n)]) for n in range(1, 6)),
    ("h3.json", ["--kind", "heyting", "--lattice", "chain3.json"]),
    ("hd.json", ["--kind", "heyting", "--lattice", "diamond.json"]),
    ("hg.json", ["--kind", "heyting", "--lattice", "grid.json"]),
    ("bb.json", ["--kind", "product", "--left", "b.json", "--right", "b.json"]),
    ("bg3.json", ["--kind", "product", "--left", "b.json", "--right", "g3.json"]),
    ("g3l3.json", ["--kind", "product", "--left", "g3.json", "--right", "l3.json"]),
    ("w2hd.json", ["--kind", "product", "--left", "w2.json", "--right", "hd.json"]),
]

PROBLEM_ALGEBRAS = ["b.json", "g3.json", "l4.json", "w3.json", "bg3.json", "hd.json",
                    "g3l3.json", "w2hd.json"]
# (vars, dom, constraints, max arity); the last has one-value domains.
GEN_PARAMS = [(3, 2, 5, 2), (4, 3, 7, 3), (5, 2, 9, 3), (4, 2, 6, 2), (10, 1, 12, 2)]
STRATEGIES = ["maximal-lex", "maximal-seeded", "join"]
MODES = [[], ["--counters"], ["--json"], ["--counters", "--json"]]


def _mutants(rng: random.Random) -> dict[str, str]:
    """Algebra files that break a law, leave tables out, or are malformed."""
    bases = {"g3": d.godel_chain(3), "l4": d.lukasiewicz_chain(4), "w3": d.weighted(3),
             "bg3": d.direct_product(d.boolean(), d.godel_chain(3)),
             "hd": d.heyting_from_lattice(LATTICES["diamond.json"]["leq"])}
    files = {}
    for name, base in bases.items():
        n = base.size
        for kind in ("otimes", "leq", "residuum", "join", "meet"):
            obj = json.loads(d.save_algebra(base))
            i, j = rng.randrange(n), rng.randrange(n)
            if kind == "leq":
                obj["leq"][i][j] = 1 - obj["leq"][i][j]
            else:
                obj[kind][i][j] = (obj[kind][i][j] + 1 + rng.randrange(n - 1)) % n
            files[f"mut_{name}_{kind}.json"] = json.dumps(obj)
        obj = json.loads(d.save_algebra(base))
        del obj["residuum"]
        files[f"nores_{name}.json"] = json.dumps(obj)
        for key in ("meet", "join"):
            del obj[key]
        files[f"bare_{name}.json"] = json.dumps(obj)
        obj["top"], obj["bottom"] = obj["bottom"], obj["top"]
        files[f"swapped_{name}.json"] = json.dumps(obj)
    g3 = json.loads(d.save_algebra(d.godel_chain(3)))
    files.update({
        "notjson.json": "{nope",
        "list.json": "[1, 2]",
        "one.json": json.dumps({"name": "one", "size": 1, "top": 0, "bottom": 0,
                                "leq": [[1]], "otimes": [[0]]}),
        "size0.json": json.dumps({**g3, "size": 0}),
        "booltop.json": json.dumps({**g3, "top": True}),
        "outside.json": json.dumps({**g3, "otimes": [[0, 0, 0], [0, 1, 7], [0, 1, 2]]}),
        "raggedalg.json": json.dumps({**g3, "otimes": [[0, 0, 0], [0, 1], [0, 1, 2]]}),
        "nameint.json": json.dumps({**g3, "name": 3}),
    })
    return files


def _problems() -> dict[str, dict]:
    """Hand-written problem files for the error and normalization paths."""
    def problem(alg, domains, *constraints):
        return {"algebra": alg, "domains": domains,
                "constraints": [{"scope": s, "values": v} for s, v in constraints]}

    inline = json.loads(d.save_algebra(d.lukasiewicz_chain(3)))
    return {
        "hw_ok.json": problem("w3.json", [2, 2], ([0], [0, 1]), ([0, 1], [2, 1, 0, 3])),
        "hw_dup.json": problem("bb.json", [2, 2], ([0, 1], [3, 1, 2, 3]), ([0, 1], [1, 3, 3, 2])),
        "hw_cross.json": problem("bb.json", [2, 2], ([0, 1], [2, 1, 1, 2])),
        "hw_dead.json": problem("w3.json", [2], ([0], [3, 3])),
        "hw_inline.json": problem(inline, [3, 2], ([0], [2, 1, 2]), ([0, 1], [1, 2, 0, 2, 2, 1])),
        "hw_scope.json": problem("g3.json", [2], ([0, 1], [0, 1, 2, 2])),
        "hw_order.json": problem("g3.json", [2, 2], ([1, 0], [0, 1, 2, 2])),
        "hw_values.json": problem("g3.json", [2], ([0], [0, 9])),
        "hw_bool.json": problem("g3.json", [2], ([0], [True, 2])),
        "hw_len.json": problem("g3.json", [2], ([0], [0, 1, 2])),
        "hw_domains.json": problem("g3.json", [0], ([0], [])),
        "hw_algref.json": problem(5, [2], ([0], [0, 1])),
        "hw_missing.json": problem("nope.json", [2], ([0], [0, 1])),
        "hw_lawbreak.json": problem("mut_g3_otimes.json", [2], ([0], [0, 1])),
        "hw_huge.json": problem("g3.json", [1001, 1000]),
        "hw_g3.json": problem("g3.json", [2, 2], ([0, 1], [2, 1, 0, 2])),
        "hw_l3.json": problem("l3.json", [2, 2], ([0, 1], [2, 1, 0, 2])),
        "hw_g3one.json": problem("g3.json", [2], ([0], [2, 1])),
    }


def write_inputs() -> None:
    for name, table in LATTICES.items():
        Path(name).write_text(json.dumps(table))
    Path("badlattice.json").write_text("[[1, 0]")
    for name, text in _mutants(random.Random(2024)).items():
        Path(name).write_text(text)
    for name, obj in _problems().items():
        Path(name).write_text(json.dumps(obj))
    Path("notjson_problem.json").write_text("{")
    Path("list_problem.json").write_text("[]")


def commands():
    """Yield (carrier cap or None, argv) for every command of the corpus."""
    make = ["algebra", "make"]
    for name, args in ALGEBRAS:
        yield None, [*make, *args, "-o", name]
    for args in (
        ["--kind", "godel"], ["--kind", "godel", "--n", "1"], ["--kind", "lukasiewicz", "--n", "0"],
        ["--kind", "weighted", "--n", "0"], ["--kind", "heyting"],
        ["--kind", "product", "--left", "b.json"], ["--kind", "product", "--right", "b.json"],
        ["--kind", "product", "--left", "nope.json", "--right", "b.json"],
        ["--kind", "product", "--left", "mut_g3_otimes.json", "--right", "b.json"],
        ["--kind", "mystery"], ["--kind", "godel", "--n", "three"],
        *(["--kind", "heyting", "--lattice", lat] for lat in (
            "m3.json", "n5.json", "twotops.json", "cycle.json", "not01.json", "ragged.json",
            "noleq.json", "badlattice.json", "nope.json")),
    ):
        yield None, [*make, *args, "-o", "refused.json"]
    yield None, [*make, "--kind", "godel", "--n", "3", "-o", "nodir/g3.json"]
    yield None, [*make, "--kind", "godel", "--n", "3"]
    for args in (["--kind", "godel", "--n", "9"], ["--kind", "weighted", "--n", "8"],
                 ["--kind", "godel", "--n", "8"],
                 ["--kind", "product", "--left", "g3.json", "--right", "l3.json"],
                 ["--kind", "product", "--left", "b.json", "--right", "l4.json"],
                 ["--kind", "heyting", "--lattice", "chain9.json"]):
        yield 8, [*make, *args, "-o", "capped.json"]
    yield 8, ["algebra", "check", "g3l3.json"]
    yield 8, ["gen", "--algebra", "g3l3.json", "--vars", "2", "--dom", "2",
              "--constraints", "3", "--max-arity", "2", "--seed", "1", "-o", "capped.json"]

    algebra_files = [name for name, _ in ALGEBRAS] + list(_mutants(random.Random(2024)))
    algebra_files += ["nope.json", "chain3.json"]
    for name in algebra_files:
        for profile in ("drl", "derived", "cis-reduct"):
            yield None, ["algebra", "check", name, "--profile", profile]
            yield None, ["algebra", "check", name, "--profile", profile, "--json"]
        yield None, ["algebra", "classify", name]
        yield None, ["algebra", "classify", name, "--json"]

    problems = []
    for a, alg in enumerate(PROBLEM_ALGEBRAS):
        for g, (n, dom, e, arity) in enumerate(GEN_PARAMS):
            out = f"p_{a}_{g}.json"
            yield None, ["gen", "--algebra", alg, "--vars", str(n), "--dom", str(dom),
                         "--constraints", str(e), "--max-arity", str(arity),
                         "--seed", str(100 * a + g), "-o", out]
            problems.append(out)
    gen = ["gen", "--algebra", "g3.json"]
    for args in (["0", "2", "1", "2"], ["3", "0", "3", "2"], ["3", "2", "2", "2"],
                 ["3", "2", "5", "1"], ["3", "2", "5", "4"], ["3", "2", "10", "2"]):
        n, dom, e, arity = args
        yield None, [*gen, "--vars", n, "--dom", dom, "--constraints", e,
                     "--max-arity", arity, "--seed", "1", "-o", "refused.json"]
    for alg in ("one.json", "nope.json", "mut_l4_leq.json", "notjson.json"):
        yield None, ["gen", "--algebra", alg, "--vars", "2", "--dom", "2", "--constraints", "3",
                     "--max-arity", "2", "--seed", "1", "-o", "refused.json"]
    yield None, [*gen, "--vars", "2", "--dom", "2", "--constraints", "3", "--max-arity", "2",
                 "--seed", "1", "-o", "nodir/p.json"]
    yield None, [*gen, "--vars", "2", "--dom", "2", "--constraints", "3", "--seed", "1",
                 "-o", "refused.json"]

    runs = 0
    for p in problems:
        for k in ("2", "3"):
            for strategy in STRATEGIES:
                if strategy == "maximal-seeded":
                    strategy = f"maximal-seeded:{runs * 7919 % 1000}"
                out = f"e_{runs}.json"
                yield None, ["enforce", "--problem", p, "--k", k, "--strategy", strategy,
                             *MODES[runs % 4], "-o", out]
                yield None, ["consistency", "--problem", out, "--k", k,
                             *(["--json"] if runs % 2 else [])]
                yield None, ["equiv", "--a", p, "--b", out, *(["--json"] if runs // 2 % 2 else [])]
                runs += 1

    handwritten = list(_problems()) + ["notjson_problem.json", "list_problem.json", "nope.json"]
    for p in problems + handwritten:
        for k in ("2", "3"):
            yield None, ["consistency", "--problem", p, "--k", k]
            yield None, ["consistency", "--problem", p, "--k", k, "--json"]
        yield None, ["solve", "--problem", p]
        yield None, ["solve", "--problem", p, "--json"]
    for i, p in enumerate(handwritten):
        for mode in MODES:
            yield None, ["enforce", "--problem", p, "--k", "2", *mode, "-o", f"hw_e_{i}.json"]
        yield None, ["equiv", "--a", p, "--b", p]
        yield None, ["equiv", "--a", p, "--b", p, "--json"]

    for a, b in (("hw_g3.json", "hw_l3.json"), ("hw_g3.json", "hw_g3one.json"),
                 ("hw_ok.json", "hw_huge.json"), ("p_0_0.json", "p_1_0.json"),
                 ("hw_dup.json", "hw_cross.json"), ("nope.json", "hw_ok.json")):
        yield None, ["equiv", "--a", a, "--b", b]
        yield None, ["equiv", "--a", a, "--b", b, "--json"]

    enforce = ["enforce", "--problem", "hw_ok.json"]
    for args in (["--k", "1"], ["--k", "2", "--strategy", "bogus"],
                 ["--k", "2", "--strategy", "maximal-seeded:x"],
                 ["--k", "2", "--strategy", "join:3"], ["--k", "2", "--strategy", "maximal-lex:1"],
                 ["--k", "two"]):
        yield None, [*enforce, *args, "-o", "refused.json"]
    # A failed write. Text mode with --counters is left out: it printed its
    # counters line before the write failed, and now prints nothing.
    for mode in ([], ["--json"], ["--counters", "--json"]):
        yield None, [*enforce, "--k", "2", *mode, "-o", "nodir/out.json"]
    yield None, ["consistency", "--problem", "hw_ok.json", "--k", "1"]
    for argv in ([], ["frobnicate"], ["algebra"], ["algebra", "check"],
                 ["algebra", "check", "g3.json", "--profile", "nope"],
                 ["enforce", "--k", "2", "-o", "x.json"], ["solve"], ["solve", "--problem"],
                 ["consistency", "--problem", "hw_ok.json"], ["equiv", "--a", "hw_ok.json"],
                 ["gen", "--algebra", "g3.json"], ["solve", "--problem", "hw_ok.json", "--k", "2"]):
        yield None, argv


def _output(argv: list[str]) -> str | None:
    if "-o" not in argv:
        return None
    path = Path(argv[argv.index("-o") + 1])
    return path.read_text() if path.exists() else None


def run(main, set_cap, readouterr) -> tuple[int, str]:
    """Run the corpus in the current directory: (number of commands, digest).

    `set_cap(value)` sets the carrier cap, or restores the default for None;
    `readouterr()` returns and clears what the command wrote to stdout
    and stderr.
    """
    write_inputs()
    digest = hashlib.sha256()
    count = 0
    for cap, argv in commands():
        set_cap(cap)
        for stale in ("refused.json", "capped.json"):
            Path(stale).unlink(missing_ok=True)
        code = main(argv)
        out, err = readouterr()
        if err.startswith("usage:"):
            err = "usage"
        digest.update(repr((argv, code, out, err, _output(argv))).encode())
        count += 1
    return count, digest.hexdigest()
