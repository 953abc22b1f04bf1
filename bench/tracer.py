"""Spans and counts around drlcsp's public functions, installed from outside.

`Tracer.install` rebinds every wrapped function's name in each loaded
`drlcsp` module that holds it (for example `formats.check_axioms` and
`enforce.project`), so calls made inside the package are traced too;
`uninstall` puts the originals back. Nothing under `src/` changes.

A span is (name, start, end, parent, op, enter, leave): `start`/`end`
bracket the original call, `enter`/`leave` the whole wrapper including
its bookkeeping. A span's self time is its duration minus the wrapper
intervals of its children, so the tracer's own work is charged to no
layer.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from math import prod
from pathlib import Path
from time import perf_counter

WRAPPED = {
    "formats": ("load_algebra", "save_algebra", "load_problem_raw", "load_problem",
                "save_problem", "gen_random_problem"),
    "algebra": ("direct_product", "derive_lattice", "residuum_from_tables",
                "check_axioms", "classify"),
    "model": ("normalize", "is_k_hyperarc_consistent"),
    "enforce": ("enforce_k_hyperarc", "project"),
    "oracle": ("brute_force_solve", "check_equivalent"),
}
CLI_COMMANDS = ("gen", "enforce", "consistency", "equiv", "solve")
MODULES = ("algebra", "model", "enforce", "oracle", "formats", "cli")
COUNTS = (
    "formats.bytes_in", "formats.bytes_out", "algebra.law_points", "model.table_entries",
    "enforce.main_loop_iterations", "enforce.project_calls", "enforce.inner_tuple_iterations",
    "enforce.project_useful", "oracle.assignments", "cli.nonjson_stdout",
)

# Text-in and text-out functions of the formats layer; bytes count only at
# the outermost formats call so nested loads are not counted twice.
_TEXT_IN = {"formats.load_algebra", "formats.load_problem_raw", "formats.load_problem"}
_TEXT_OUT = {"formats.save_algebra", "formats.save_problem"}


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]
    return names + [f"cli.{cmd}" for cmd in CLI_COMMANDS]


def bindings() -> list[tuple[object, str, object]]:
    """Every (module, attribute, original) binding of a wrapped function."""
    import drlcsp

    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "drlcsp" or name.startswith("drlcsp."))]
    out = []
    for mod_name, fns in WRAPPED.items():
        home = getattr(drlcsp, mod_name)
        for fn in fns:
            original = getattr(home, fn)
            for mod in mods:
                for attr, value in vars(mod).items():
                    if value is original:
                        out.append((mod, attr, original))
    return out


def unwrapped(binds) -> list[str]:
    """Names of bindings that no longer hold their original function."""
    return [f"{mod.__name__}.{attr}" for mod, attr, orig in binds if getattr(mod, attr) is not orig]


def _problem_entries(problem) -> int:
    if problem is None:
        return 0
    store = problem.constraints
    constraints = store.values() if isinstance(store, dict) else store
    return sum(len(c.values) for c in constraints)


def _assignment_rank(assignment, domain_sizes) -> int:
    rank = 0
    for value, size in zip(assignment, domain_sizes):
        rank = rank * size + value
    return rank


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, binds):
        self.binds = binds
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)
        self.formats_depth = 0
        self.op = -1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for mod, attr, orig in self.binds:
            if id(orig) not in wrappers:
                name = f"{orig.__module__.rsplit('.', 1)[-1]}.{orig.__name__}"
                wrappers[id(orig)] = self._wrap(name, orig)
            setattr(mod, attr, wrappers[id(orig)])

    def uninstall(self) -> None:
        for mod, attr, orig in self.binds:
            setattr(mod, attr, orig)

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, enter: float) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append((name, enter, enter, parent, self.op, enter, enter))
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self.stack.pop()
        name, _, _, parent, op, enter, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op, enter, end)

    def _leave(self, idx: int) -> None:
        self.spans[idx] = self.spans[idx][:6] + (perf_counter(),)

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span; used for cli.<subcommand>."""
        idx = self._open(name, perf_counter())
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, start, perf_counter())

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.split(".")[1], None)
        after = getattr(self, "_after_" + name.split(".")[1], None)
        is_formats = name.startswith("formats.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            if is_formats:
                if self.formats_depth == 0 and name in _TEXT_IN:
                    self.counts["formats.bytes_in"] += len(args[0])
                self.formats_depth += 1
            state = before(*args, **kwargs) if before else None
            idx = self._open(name, enter)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, perf_counter())
                if is_formats:
                    self.formats_depth -= 1
            if is_formats and self.formats_depth == 0 and name in _TEXT_OUT:
                self.counts["formats.bytes_out"] += len(result)
            if after:
                after(result, state, *args, **kwargs)
            self._leave(idx)
            return result

        return wrapper

    # -- counters read from outside each call ---------------------------------

    def _after_check_axioms(self, report, _state, algebra, *args, **kwargs):
        self.counts["algebra.law_points"] += algebra.size ** 3 * len(report.checks)

    def _after_normalize(self, problem, _state, *args, **kwargs):
        self.counts["model.table_entries"] += _problem_entries(problem)

    def _before_is_k_hyperarc_consistent(self, problem, *args, **kwargs):
        self.counts["model.table_entries"] += _problem_entries(problem)

    def _after_enforce_k_hyperarc(self, outcome, *_args, **_kwargs):
        c = outcome.counters
        self.counts["enforce.main_loop_iterations"] += c.main_loop_iterations
        self.counts["enforce.project_calls"] += c.project_calls
        self.counts["enforce.inner_tuple_iterations"] += c.inner_tuple_iterations

    def _before_project(self, problem, scope, var, *args, **kwargs):
        table = problem.constraints.get(tuple(scope))
        return (list(table.values) if table else None, list(problem.unary(var).values))

    def _after_project(self, _shrank, state, problem, scope, var, *args, **kwargs):
        table = problem.constraints.get(tuple(scope))
        if state != (list(table.values) if table else None, list(problem.unary(var).values)):
            self.counts["enforce.project_useful"] += 1

    def _before_brute_force_solve(self, problem, *args, **kwargs):
        self.counts["oracle.assignments"] += prod(problem.domain_sizes)

    def _after_check_equivalent(self, cex, _state, a, *args, **kwargs):
        if cex is None:
            self.counts["oracle.assignments"] += prod(a.domain_sizes)
        else:
            self.counts["oracle.assignments"] += _assignment_rank(cex.assignment, a.domain_sizes) + 1

    # -- results ------------------------------------------------------------

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent, op, enter, leave in self.spans:
            if parent >= 0:
                child_cover[parent] += leave - enter
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in span_names()}
        for (name, start, end, *_), cover in zip(self.spans, child_cover):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - cover
        return out

    def write(self, path: Path) -> None:
        """Write the spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, traced_s: float, plain_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    rows = tracer.per_function()
    metrics: dict[str, tuple[float, str]] = {}
    module_self = defaultdict(float)
    for name in span_names():
        row = rows[name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.total_s"] = (row["total_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        module_self[name.split(".")[0]] += row["self_s"]
    for module in MODULES:
        metrics[f"{module}.self_share"] = (module_self[module] / traced_s, "ratio")
    counts = tracer.counts
    for key in COUNTS:
        if key != "enforce.project_useful":
            metrics[key] = (counts[key], "count")
    calls = rows["enforce.project"]["calls"]
    metrics["enforce.project_useful_ratio"] = (
        counts["enforce.project_useful"] / calls if calls else 0.0, "ratio")
    oracle_s = module_self["oracle"]
    metrics["oracle.assignments_per_s"] = (
        counts["oracle.assignments"] / oracle_s if oracle_s else 0.0, "1/s")
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / traced_s, "ratio")
    return metrics
