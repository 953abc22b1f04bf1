"""Benchmark of the drlcsp pipeline: four seeded workloads, one process each.

Usage (from the repository root):

    python3 bench/run.py --workload certify-small --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client: the next operation
starts when the previous one returns. `--trace 0` times the loop with
nothing wrapped and prints the end-to-end metrics; `--trace 1` runs the
same operations once plain and once with every public drlcsp function
wrapped, and prints the per-layer metrics. End-to-end times are scaled
to a reference host speed by a calibration kernel timed between
operations (see hostspeed.py); the raw wall times are in the report. A
human-readable report goes to stdout first; the last line is one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Speed, calibrate, factor
from tracer import Tracer, bindings, layer_metrics, unwrapped

# One BLAS thread, set before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up is timed in samples of at least SETUP_SAMPLE_S (one or more whole
# set-ups each, averaged), at least MIN_SETUP_SAMPLES of them and until
# SETUP_BUDGET_S is spent; setup_s is their median, each scaled to the
# reference host speed by the calibrations just before and after it.
SETUP_SAMPLE_S, MIN_SETUP_SAMPLES, SETUP_BUDGET_S = 0.2, 3, 2.0


def _import_program():
    """Import drlcsp from this checkout's src/ and nowhere else."""
    if not (SRC / "drlcsp" / "__init__.py").is_file():
        raise SystemExit(f"error: no drlcsp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import drlcsp

    if Path(drlcsp.__file__).resolve().parent != SRC / "drlcsp":
        raise SystemExit(f"error: drlcsp was imported from {drlcsp.__file__}, not {SRC}")


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Closed-loop operations on one workload: per-op wall times and verdicts.

    With a tracer, the wrappers are installed for exactly the duration of
    each operation, so output checks never run traced.
    """

    def __init__(self, wl, inputs, binds, tracer=None):
        self.wl, self.inputs, self.binds, self.tracer = wl, inputs, binds, tracer
        self.times: list[float] = []
        self.results = []
        self.identity_errors: list[str] = []
        self.busy = 0.0

    def step(self, i: int) -> None:
        if self.tracer is not None:
            self.tracer.op = i
            self.tracer.install()
        try:
            t0 = perf_counter()
            try:
                raw = self.wl.op(self.inputs, i, self.tracer)
            except Exception as exc:  # one failed operation must not end the run
                raw = exc
            dt = perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.busy += dt
        self.times.append(dt)
        self.results.append(self.wl.checked(self.inputs, i, raw))
        if unwrapped(self.binds):
            self.identity_errors.append(f"op {i}: {unwrapped(self.binds)}")

    def run(self, seconds: float, limit: float = float("inf"), speed: Speed | None = None) -> "Loop":
        """Operations until `seconds` of busy time; with `speed`, calibrate between them."""
        i = 0
        while self.busy < seconds and i < min(limit, self.inputs.max_ops):
            if speed is not None:
                speed.due(self.busy)
            self.step(i)
            i += 1
        if speed is not None:
            speed.close()
        return self


def accounting(results) -> dict[str, int]:
    return {
        "ops": len(results),
        "failed": sum(r.failed is not None for r in results),
        "verdicts": sum(r.verdicts for r in results),
        "unsound": sum(r.unsound for r in results),
        "outputs": sum(r.outputs for r in results),
        "nonequiv": sum(r.nonequiv for r in results),
        "nonjson": sum(r.nonjson for r in results),
    }


def _share(num: int, den: int) -> float:
    return num / den if den else 0.0


def time_setup(wl, seed: int):
    """The inputs, and the per-set-up time of each sample, raw and scaled."""
    raw: list[float] = []
    scaled: list[float] = []
    spent = 0.0
    inputs = None
    before = calibrate()
    while len(raw) < MIN_SETUP_SAMPLES or spent < SETUP_BUDGET_S:
        del inputs
        gc.collect()
        count = 0
        t0 = perf_counter()
        while True:
            inputs = wl.setup(seed)
            count += 1
            elapsed = perf_counter() - t0
            if elapsed >= SETUP_SAMPLE_S:
                break
        after = calibrate()
        raw.append(elapsed / count)
        scaled.append(raw[-1] * factor(before, after))
        spent += elapsed
        before = after
    gc.collect()
    return inputs, raw, scaled


def run_plain(wl, seed: int, seconds: float, binds) -> tuple[dict, dict, list[str]]:
    inputs, raw_setups, setups = time_setup(wl, seed)
    errors = [f"wrapped before the run: {unwrapped(binds)}"] if unwrapped(binds) else []
    speed = Speed()
    try:
        wl.warmup(inputs)
        loop = Loop(wl, inputs, binds).run(seconds, speed=speed)
        errors += loop.identity_errors + wl.audit(inputs)
    finally:
        wl.close(inputs)
    acc = accounting(loop.results)
    errors += [f"op {i}: {r.failed}" for i, r in enumerate(loop.results) if r.failed][:5]
    times = speed.scale(loop.times)
    pct, tail_s = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_tail": (tail_s, "s"),
        "verdicts_per_s": (acc["ops"] / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_share": (1.0 - _share(acc["failed"], acc["ops"]), "ratio"),
        "sound_share": (1.0 - _share(acc["unsound"], acc["verdicts"]), "ratio"),
        "equiv_share": (1.0 - _share(acc["nonequiv"], acc["verdicts"]), "ratio"),
    }
    kernel = [k for _, k in speed.marks]
    info = dict(acc, setup_samples=len(setups), tail_percentile=pct, busy_s=loop.busy,
                calibrations=len(kernel), kernel_s_median=statistics.median(kernel),
                kernel_s_min=min(kernel), kernel_s_max=max(kernel),
                raw_setup_s=statistics.median(raw_setups),
                raw_verdict_s_p50=statistics.median(loop.times),
                raw_verdict_s_tail=tail(loop.times)[1],
                raw_verdicts_per_s=acc["ops"] / loop.busy,
                failed_share=_share(acc["failed"], acc["ops"]),
                unsound_share=_share(acc["unsound"], acc["verdicts"]),
                nonequiv_share=_share(acc["nonequiv"], acc["outputs"]))
    return metrics, info, errors


def run_traced(wl, seed: int, seconds: float, binds) -> tuple[dict, dict, list[str]]:
    """Each operation runs twice in a row, once plain and once traced.

    The order alternates between operations, so both passes see the same
    inputs, machine state and warm caches; the difference in their total
    time is the tracing overhead.
    """
    inputs = wl.setup(seed)
    tracer = Tracer(binds)
    plain, traced = Loop(wl, inputs, binds), Loop(wl, inputs, binds, tracer)
    try:
        wl.warmup(inputs)
        i = 0
        while plain.busy < seconds / 2 and i < inputs.max_ops:
            for loop in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                loop.step(i)
            i += 1
        errors = plain.identity_errors + traced.identity_errors + wl.audit(inputs)
    finally:
        wl.close(inputs)
    results = plain.results + traced.results
    acc = accounting(results)
    errors += [f"op: {r.failed}" for r in results if r.failed][:5]
    tracer.counts["cli.nonjson_stdout"] = accounting(traced.results)["nonjson"]
    metrics = layer_metrics(tracer, traced.busy, plain.busy)
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
    info = dict(acc, traced_ops=len(traced.times), plain_s=plain.busy, traced_s=traced.busy,
                spans=len(tracer.spans))
    return metrics, info, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, OUT / f"work-{os.getpid()}")
    binds = bindings()
    run = run_traced if args.trace else run_plain
    metrics, info, errors = run(wl, args.seed, args.seconds, binds)

    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          "closed-loop clients=1 blas_threads=1")
    for key, value in info.items():
        print(f"  {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    for err in errors:
        print(f"  CHECK FAILED: {err}")
    result = {
        "correct": not errors,
        "attempted": info["ops"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
