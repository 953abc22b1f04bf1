"""The four seeded workloads.

Each workload builds its inputs from the seed in `setup`, runs one
operation per call to `op` (the timed part), and checks that
operation's output in `check`, outside the timed part. The first time
an input is seen, `check` also spot-checks the oracle's answers against
`model.combined_value`. `audit` runs once after the loop.

`op` looks every drlcsp function up on its module at call time, so a
traced pass sees the wrappers. `check` and `audit` call the originals
captured below at import, and in a traced pass they run only after the
wrappers are gone, so their work is never traced.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from drlcsp import algebra, cli, enforce, formats, model, oracle

_combined_value = model.combined_value
_load_algebra = formats.load_algebra
_load_problem_raw = formats.load_problem_raw

MAXIMAL = ("maximal-lex", "maximal-seeded")
SAMPLE = 16  # assignments per instance in the oracle spot-check


@dataclass
class OpResult:
    """Verdict accounting for one operation."""

    verdicts: int = 0
    unsound: int = 0
    outputs: int = 0
    nonequiv: int = 0
    failed: str | None = None
    nonjson: int = 0


@dataclass
class Inputs:
    """Generated inputs, plus what `check` remembers about inputs already seen."""

    seed: int
    cases: list
    algebras: list = field(default_factory=list)
    texts: list = field(default_factory=list)
    max_ops: float = float("inf")
    seen: dict = field(default_factory=dict)
    workdir: Path | None = None

    def rng(self, idx: int) -> random.Random:
        """Generator for the spot-check sample of case `idx`."""
        return random.Random(self.seed * 1_000_003 + idx)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode() if not isinstance(part, str) else part.encode())
    return h.hexdigest()


def _strategy(kind: str, seed: int):
    return enforce.maximal_seeded(seed) if kind == "maximal-seeded" else enforce.parse_strategy(kind)


def _grid_heyting(rows: int, cols: int, new_top: bool = False):
    """Heyting algebra over the product of two chains, optionally under a new top."""
    points = list(itertools.product(range(rows), range(cols)))
    leq = [[a[0] <= b[0] and a[1] <= b[1] for b in points] for a in points]
    if new_top:
        leq = [row + [True] for row in leq] + [[False] * len(points) + [True]]
    name = f"heyting({rows}x{cols}{'+top' if new_top else ''})"
    return algebra.heyting_from_lattice(leq, name)


def _spot_check(problem, result, other, cex, rng) -> str | None:
    """Check an oracle result against combined_value; None when it holds.

    `result` is the brute_force_solve outcome on `problem`; when `other`
    is given, `cex` is check_equivalent(problem, other).
    """
    alg = problem.algebra
    optimal = list(result.optimal_values)
    if not optimal or not result.solutions:
        return "oracle returned no optimum"
    if any(a != b and alg.leq[a][b] for a in optimal for b in optimal):
        return f"optimal values {optimal} are not an antichain"
    if result.inconsistent != (optimal == [alg.bottom]):
        return "inconsistent flag disagrees with the optimal values"
    for t in result.solutions:
        if _combined_value(problem, tuple(t)) not in optimal:
            return f"solution {t} does not reach an optimal value"
    sizes = problem.domain_sizes
    for _ in range(SAMPLE):
        t = tuple(rng.randrange(s) for s in sizes)
        v = _combined_value(problem, t)
        if not any(alg.leq[v][m] for m in optimal):
            return f"value {v} at {t} lies under no optimum"
        if other is not None and cex is None and _combined_value(other, t) != v:
            return f"'equal' verdict refuted at {t}"
    if cex is not None:
        t = tuple(cex.assignment)
        a, b = _combined_value(problem, t), _combined_value(other, t)
        if (a, b) != (cex.value_a, cex.value_b) or a == b:
            return f"counterexample at {t} does not hold"
    return None


class Workload:
    """Defaults shared by the workloads."""

    name = ""

    def checked(self, inputs: Inputs, i: int, raw) -> OpResult:
        """`check`, with an exception from the op or the check as a failed op."""
        if isinstance(raw, Exception):
            return OpResult(failed=f"{type(raw).__name__}: {raw}")
        try:
            return self.check(inputs, i, raw)
        except Exception as exc:  # a malformed output is a failed operation
            return OpResult(failed=f"output check raised {type(exc).__name__}: {exc}")

    def digest(self, inputs: Inputs) -> str:
        return _digest(*(text + kind for text, kind, _ in inputs.cases))

    def warmup(self, inputs: Inputs) -> None:
        self.op(inputs, 0, None)

    def audit(self, inputs: Inputs) -> list[str]:
        return []

    def close(self, inputs: Inputs) -> None:
        pass


# ---------------------------------------------------------------------------
# certify-small


class CertifySmall(Workload):
    """load -> enforce (k=2) -> consistency -> brute force -> equivalence."""

    name = "certify-small"
    cases_per_run = 600

    def algebras(self):
        b = algebra.boolean()
        return [
            algebra.direct_product(b, b),
            algebra.direct_product(algebra.lukasiewicz_chain(3), algebra.godel_chain(3)),
            _grid_heyting(2, 2, new_top=True),
            algebra.lukasiewicz_chain(5),
        ]

    def setup(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        algs = self.algebras()
        kinds = ("maximal-lex", "maximal-seeded", "join")
        shapes = ((2, 2), (2, 3), (3, 2), (3, 3))
        cases = []
        tiny = big = 0
        for i in range(self.cases_per_run):
            if i == 0:
                # Pinned witness of a false 'inconsistent' verdict.
                alg, n, d, e, arity, gen_seed, kind = algs[0], 2, 2, 3, 2, 18, "maximal-lex"
            elif i == 3:
                # One 4^8 instance per run. The join strategy preserves
                # equivalence, so check_equivalent always scans all 65,536
                # assignments and the op's cost does not depend on the seed.
                alg, n, d, e, arity = algs[1], 8, 4, 17, 3
                gen_seed, kind = rng.randrange(2**31), "join"
            elif i % 10 == 9:
                # Constraint counts are fixed so the oracle's work per big
                # instance depends on its size, not on the seed.
                alg, n, d = algs[big % 4], (6, 7)[(big // 4) % 2], 4
                e, arity = n + 9, 3
                gen_seed, kind = rng.randrange(2**31), kinds[(big // 8) % 3]
                big += 1
            else:
                alg, (n, d) = algs[tiny % 4], shapes[(tiny // 12) % 4]
                kind = kinds[(tiny // 4) % 3]
                if n == 2:
                    e, arity = 3, 2
                else:
                    arity = rng.choice((2, 3))
                    e = rng.randint(4, 6 if arity == 2 else 7)
                gen_seed = rng.randrange(2**31)
                tiny += 1
            problem = formats.gen_random_problem(alg, n, d, e, arity, gen_seed)
            cases.append((formats.save_problem(problem), kind, gen_seed))
        return Inputs(seed, cases)

    def op(self, inputs: Inputs, i: int, tracer):
        text, kind, gen_seed = inputs.cases[i % len(inputs.cases)]
        problem = formats.load_problem(text)
        out = enforce.enforce_k_hyperarc(problem, 2, _strategy(kind, gen_seed))
        violation = None if out.inconsistent else model.is_k_hyperarc_consistent(out.problem, 2)
        solved = oracle.brute_force_solve(problem)
        cex = None if out.inconsistent else oracle.check_equivalent(problem, out.problem)
        return problem, out, violation, solved, cex

    def check(self, inputs: Inputs, i: int, raw) -> OpResult:
        problem, out, violation, solved, cex = raw
        idx = i % len(inputs.cases)
        kind = inputs.cases[idx][1]
        if out.inconsistent != (out.problem is None):
            return OpResult(failed="outcome carries a problem iff it is consistent")
        r = OpResult(verdicts=2 if out.inconsistent else 4)
        if out.inconsistent:
            r.unsound = int(not solved.inconsistent)
        else:
            if out.problem.domain_sizes != problem.domain_sizes:
                return OpResult(failed="enforcement changed the domains")
            r.unsound = int(kind in MAXIMAL and violation is not None)
            r.outputs, r.nonequiv = 1, int(cex is not None)
        if idx not in inputs.seen:
            inputs.seen[idx] = None
            err = _spot_check(problem, solved, out.problem, cex, inputs.rng(idx))
            if err:
                return OpResult(failed=f"oracle spot-check: {err}")
        return r

# ---------------------------------------------------------------------------
# enforce-large


class EnforceLarge(Workload):
    """load -> enforce (k=3) -> consistency -> save, at n=30, d=10, e=200."""

    name = "enforce-large"

    def setup(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        w = algebra.weighted(10)
        p = algebra.direct_product(algebra.lukasiewicz_chain(3), algebra.godel_chain(4))
        g = algebra.godel_chain(11)
        # Twelve distinct instances, two thirds on weighted(10), so the
        # median and the tail rest on several instances of one algebra
        # rather than on the luck of a single draw.
        plan = [
            (w, "maximal-lex"), (p, "maximal-seeded"), (w, "join"), (w, "maximal-seeded"),
            (g, "maximal-lex"), (w, "maximal-lex"), (w, "join"), (p, "maximal-lex"),
            (w, "maximal-seeded"), (w, "maximal-lex"), (g, "join"), (w, "join"),
        ]
        cases = []
        for alg, kind in plan:
            gen_seed = rng.randrange(2**31)
            problem = formats.gen_random_problem(alg, 30, 10, 200, 3, gen_seed)
            cases.append((formats.save_problem(problem), kind, gen_seed))
        return Inputs(seed, cases, algebras=[alg for alg, _ in plan])

    def op(self, inputs: Inputs, i: int, tracer):
        text, kind, gen_seed = inputs.cases[i % len(inputs.cases)]
        problem = formats.load_problem(text)
        out = enforce.enforce_k_hyperarc(problem, 3, _strategy(kind, gen_seed))
        if out.inconsistent:
            return out, None, None
        violation = model.is_k_hyperarc_consistent(out.problem, 3)
        return out, violation, formats.save_problem(out.problem)

    def check(self, inputs: Inputs, i: int, raw) -> OpResult:
        out, violation, saved = raw
        idx = i % len(inputs.cases)
        kind = inputs.cases[idx][1]
        if out.inconsistent:
            # No oracle reaches 10^30 assignments, so the verdict stays unchecked.
            return OpResult(verdicts=1)
        first = inputs.seen.get(idx)
        if first is None:
            raw_out = _load_problem_raw(saved, algebra=inputs.algebras[idx])
            expected = [out.problem.constraints[s] for s in sorted(out.problem.constraints)]
            if (raw_out.domain_sizes != out.problem.domain_sizes
                    or [(c.scope, c.values) for c in raw_out.constraints]
                    != [(c.scope, c.values) for c in expected]):
                return OpResult(failed="saved problem does not match the enforced one")
            inputs.seen[idx] = saved
        elif saved != first:
            return OpResult(failed="the same input gave a different saved output")
        return OpResult(verdicts=2, unsound=int(kind in MAXIMAL and violation is not None))

# ---------------------------------------------------------------------------
# algebra-validate


def _equational_flags(a) -> tuple[bool, bool, bool]:
    """(prelinear, idempotent, involutive), read straight off the tables."""
    ids = range(a.size)
    r, j, o = a.residuum, a.join, a.otimes
    prelinear = all(j[r[x][y]][r[y][x]] == a.top for x in ids for y in ids)
    idempotent = all(o[x][x] == x for x in ids)
    involutive = all(r[r[x][a.bottom]][a.bottom] == x for x in ids)
    return prelinear, idempotent, involutive


class AlgebraValidate(Workload):
    """direct_product -> save -> validated load -> derived laws -> classify."""

    name = "algebra-validate"
    # Carriers in the repeating cycle; one 256-element product runs once, as op big_at.
    cycle = (16, 36, 64, 100, 100, 144, 144)
    big, big_at = 256, 5

    def factors(self):
        """Factor algebras by carrier size: Goedel, Lukasiewicz, weighted, Heyting."""
        sizes = sorted({s for c in set(self.cycle) | {self.big}
                        for s in range(2, c // 2 + 1) if c % s == 0 and s <= 72})
        by_size = {}
        for s in sizes:
            algs = [algebra.godel_chain(s)]
            if s > 2:
                algs += [algebra.lukasiewicz_chain(s), algebra.weighted(s - 1)]
            algs += [_grid_heyting(r, s // r) for r in range(2, int(s ** 0.5) + 1) if s % r == 0]
            algs += [_grid_heyting(r, (s - 1) // r, new_top=True)
                     for r in range(2, int((s - 1) ** 0.5) + 1) if (s - 1) % r == 0]
            by_size[s] = algs
        return by_size

    def setup(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        by_size = self.factors()
        pools = {}
        for c in sorted(set(self.cycle) | {self.big}):
            # Every carrier is a square. Pairs of equal-sized factors are used
            # first: the residuum derivation's cost depends on the factors'
            # shape, so this keeps a run's cost from depending on the seed.
            root = math.isqrt(c)
            square = [(a, b) for a in by_size[root] for b in by_size[root]]
            other = [(a, b) for s in by_size if s != root and c % s == 0 and c // s in by_size
                     for a in by_size[s] for b in by_size[c // s]]
            rng.shuffle(square)
            rng.shuffle(other)
            pools[c] = other + square  # pop() takes from the end
        cases = []
        slot = 0
        while True:
            if len(cases) == self.big_at:
                c = self.big
            else:
                c, slot = self.cycle[slot % len(self.cycle)], slot + 1
            if not pools[c]:
                break
            a, b = pools[c].pop()
            cases.append((a, b, _equational_flags(a), _equational_flags(b)))
        return Inputs(seed, cases, max_ops=len(cases))

    def digest(self, inputs: Inputs) -> str:
        return _digest(*(f"{a.name}*{b.name};" for a, b, _, _ in inputs.cases))

    def warmup(self, inputs: Inputs) -> None:
        b = algebra.boolean()
        self.op(Inputs(0, [(b, b, None, None)]), 0, None)

    def op(self, inputs: Inputs, i: int, tracer):
        a, b = inputs.cases[i][:2]
        product = algebra.direct_product(a, b)
        loaded = formats.load_algebra(formats.save_algebra(product))
        report = algebra.check_axioms(loaded, "derived")
        return product, loaded, report, algebra.classify(loaded)

    def check(self, inputs: Inputs, i: int, raw) -> OpResult:
        product, loaded, report, flags = raw
        _, _, fa, fb = inputs.cases[i]
        if loaded != product:
            return OpResult(failed="save/load round trip changed the algebra")
        # Equations hold in a product iff they hold in both factors, and a
        # product of two nontrivial algebras is never a chain.
        expected = tuple(x and y for x, y in zip(fa, fb)) + (False,)
        got = (flags.prelinear, flags.idempotent, flags.involutive, flags.chain)
        return OpResult(verdicts=3, unsound=int(not report.ok) + int(got != expected))


# ---------------------------------------------------------------------------
# cli-pipeline


class CliPipeline(Workload):
    """cli.main in process over files: gen, enforce, consistency, equiv, solve."""

    name = "cli-pipeline"
    cases_per_run = 400
    n, d, e, arity, k = 6, 3, 12, 3, 2

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        algs = [
            algebra.direct_product(algebra.lukasiewicz_chain(6), algebra.godel_chain(6)),
            algebra.direct_product(algebra.godel_chain(7), algebra.weighted(6)),
            algebra.direct_product(algebra.godel_chain(8), algebra.lukasiewicz_chain(8)),
        ]
        texts = []
        for idx, alg in enumerate(algs):
            text = formats.save_algebra(alg)
            (self.workdir / f"algebra{idx}.json").write_text(text)
            texts.append(text)
        kinds = ("maximal-lex", "maximal-seeded", "join")
        cases = []
        for i in range(self.cases_per_run):
            gen_seed = rng.randrange(2**31)
            kind = kinds[(i // 4) % 3]
            strategy = f"maximal-seeded:{gen_seed}" if kind == "maximal-seeded" else kind
            # Carriers 36, 49, 49, 64: the median falls inside the 49 group
            # and the tail inside the 64 group, not on a group boundary.
            cases.append(((0, 1, 1, 2)[i % 4], gen_seed, strategy))
        return Inputs(seed, cases, algebras=algs, texts=texts, workdir=self.workdir)

    def digest(self, inputs: Inputs) -> str:
        return _digest(*inputs.texts, inputs.cases)

    @staticmethod
    def _cli(argv: list[str], tracer):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span(f"cli.{argv[0]}", cli.main, argv)
        return rc, out.getvalue(), err.getvalue()

    def op(self, inputs: Inputs, i: int, tracer):
        alg_idx, gen_seed, strategy = inputs.cases[i % len(inputs.cases)]
        wd = inputs.workdir
        src, dst = str(wd / "in.json"), str(wd / "out.json")
        Path(dst).unlink(missing_ok=True)
        runs = {"gen": self._cli([
            "gen", "--algebra", str(wd / f"algebra{alg_idx}.json"), "--vars", str(self.n),
            "--dom", str(self.d), "--constraints", str(self.e), "--max-arity", str(self.arity),
            "--seed", str(gen_seed), "-o", src], tracer)}
        runs["enforce"] = self._cli([
            "enforce", "--problem", src, "--k", str(self.k), "--strategy", strategy,
            "--counters", "--json", "-o", dst], tracer)
        if runs["enforce"][0] == 0:
            runs["consistency"] = self._cli(
                ["consistency", "--problem", dst, "--k", str(self.k), "--json"], tracer)
            runs["equiv"] = self._cli(["equiv", "--a", src, "--b", dst, "--json"], tracer)
        runs["solve"] = self._cli(["solve", "--problem", src, "--json"], tracer)
        texts = (Path(src).read_text() if Path(src).exists() else None,
                 Path(dst).read_text() if Path(dst).exists() else None)
        return runs, texts

    def check(self, inputs: Inputs, i: int, raw) -> OpResult:
        runs, texts = raw
        for cmd, (rc, _, err) in runs.items():
            if rc not in (0, 2) or (cmd in ("gen", "solve") and rc != 0):
                return OpResult(failed=f"{cmd} exited {rc}: {err.strip()}")
        nonjson = 0
        docs = {}
        for cmd, (_, out, _) in runs.items():
            if cmd == "gen":
                continue
            try:
                docs[cmd] = json.loads(out)
            except json.JSONDecodeError:
                nonjson += 1
                try:
                    docs[cmd] = json.loads(out.strip().splitlines()[-1])
                except (json.JSONDecodeError, IndexError):
                    return OpResult(failed=f"{cmd} printed no JSON result", nonjson=nonjson)
        strategy = inputs.cases[i % len(inputs.cases)][2]
        solved = docs["solve"]
        if docs["enforce"].get("inconsistent"):
            r = OpResult(verdicts=2, unsound=int(not solved["inconsistent"]), nonjson=nonjson)
        else:
            if texts[1] is None or docs["consistency"].get("ok") != (runs["consistency"][0] == 0):
                return OpResult(failed="enforce or consistency output is malformed", nonjson=nonjson)
            maximal = strategy.split(":")[0] in MAXIMAL
            r = OpResult(verdicts=4, nonjson=nonjson,
                         unsound=int(maximal and runs["consistency"][0] == 2),
                         outputs=1, nonequiv=int(runs["equiv"][0] == 2))
        idx = i % len(inputs.cases)
        if idx not in inputs.seen:
            inputs.seen[idx] = None
            err = self._spot_check(inputs, idx, texts, docs)
            if err:
                return OpResult(failed=f"oracle spot-check: {err}", nonjson=nonjson)
        return r

    @staticmethod
    def _spot_check(inputs: Inputs, idx: int, texts, docs) -> str | None:
        alg = inputs.algebras[inputs.cases[idx][0]]
        problem = _load_problem_raw(texts[0], algebra=alg)
        other = _load_problem_raw(texts[1], algebra=alg) if "equiv" in docs else None
        eq = docs.get("equiv", {})
        cex = None if eq.get("equal", True) else oracle.Counterexample(
            tuple(eq["assignment"]), eq["value_a"], eq["value_b"])
        solve = docs["solve"]
        solved = oracle.SolutionSet(solve["optimal_values"],
                                    [tuple(t) for t in solve["solutions"]], solve["inconsistent"])
        return _spot_check(problem, solved, other, cex, inputs.rng(idx))

    def audit(self, inputs: Inputs) -> list[str]:
        return [f"algebra file {idx} does not load back to the same algebra"
                for idx, text in enumerate(inputs.texts)
                if _load_algebra(text) != inputs.algebras[idx]]

    def close(self, inputs: Inputs) -> None:
        shutil.rmtree(inputs.workdir, ignore_errors=True)


def make(name: str, workdir: Path):
    if name == CliPipeline.name:
        return CliPipeline(workdir)
    for cls in (CertifySmall, EnforceLarge, AlgebraValidate):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (CertifySmall.name, EnforceLarge.name, AlgebraValidate.name, CliPipeline.name)
