"""Self-tests of the benchmark itself.

Run from the repository root:

    python3 bench/selftest.py

Checks that
- the same seed gives the same input digest, counts and verdict shares,
  and a different seed gives different inputs;
- a traced pass rebinds every wrapped drlcsp name, reaches calls made
  inside the package, and leaves every name identical (`is`) to its
  original afterwards; an untraced pass never sees a wrapper;
- the tail statistic keeps ten samples beyond it;
- host-speed scaling gives each operation the factor of the
  calibrations that bracket it.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

import run

run._import_program()

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Operations per determinism check; small enough to keep the test short.
OPS = {"certify-small": 40, "enforce-large": 2, "algebra-validate": 4, "cli-pipeline": 3}

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def _pass(wl, seed: int, ops: int, binds):
    inputs = wl.setup(seed)
    try:
        loop = run.Loop(wl, inputs, binds).run(float("inf"), limit=ops)
    finally:
        wl.close(inputs)
    return wl.digest(inputs), run.accounting(loop.results), loop


def test_determinism() -> None:
    binds = tracer.bindings()
    for name in workloads.NAMES:
        wl = workloads.make(name, run.OUT / f"selftest-{os.getpid()}")
        digest_a, acc_a, _ = _pass(wl, 7, OPS[name], binds)
        digest_b, acc_b, _ = _pass(wl, 7, OPS[name], binds)
        other = wl.setup(8)
        digest_c = wl.digest(other)
        wl.close(other)
        check(digest_a == digest_b, f"{name}: same seed, same input digest")
        check(acc_a == acc_b, f"{name}: same seed, same counts and verdict shares {acc_a}")
        check(acc_a["failed"] == 0, f"{name}: no operation failed")
        check(digest_a != digest_c, f"{name}: different seed, different inputs")


def test_identity() -> None:
    binds = tracer.bindings()
    modules = {mod.__name__ for mod, _, _ in binds}
    check({"drlcsp", "drlcsp.formats", "drlcsp.cli", "drlcsp.enforce"} <= modules,
          f"bindings cover the package and the modules that import wrapped names ({len(binds)})")
    check(not tracer.unwrapped(binds), "every name is original before tracing")

    probe = tracer.Tracer(binds)
    probe.install()
    try:
        wrapped_all = len(tracer.unwrapped(binds)) == len(binds)
    finally:
        probe.uninstall()
    check(wrapped_all, "install rebinds every binding")
    check(not tracer.unwrapped(binds), "uninstall restores every binding")

    wl = workloads.make("certify-small", run.OUT / f"selftest-{os.getpid()}")
    metrics, info, errors = run.run_traced(wl, 3, 0.5, binds)
    check(not errors, f"traced pass reports no errors {errors}")
    check(not tracer.unwrapped(binds), "every name is original after a traced pass")
    check(metrics["formats.load_algebra.calls"][0] > 0 and metrics["enforce.project.calls"][0] > 0,
          "wrappers reach calls made inside the package")
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_share"))
    check(0.5 < self_total <= 1.0, f"layer self times cover the traced time ({self_total:.3f})")

    _, _, loop = _pass(wl, 3, 20, binds)
    check(not loop.identity_errors, "every name stays original throughout an untraced pass")


def test_tail() -> None:
    pct, value = run.tail([float(v) for v in range(100)])
    check((pct, value) == (90.0, 89.0), "tail of 100 samples is p90 with ten samples beyond")


def test_speed() -> None:
    speed = hostspeed.Speed()
    ref = hostspeed.CAL_REF_S
    speed.marks = [(0, ref / 2), (2, 3 * ref / 2), (3, ref)]
    scaled = speed.scale([1.0, 2.0, 1.0])
    check(all(abs(a - b) < 1e-12 for a, b in zip(scaled, [1.0, 2.0, 0.8])),
          f"scaled times use the bracketing calibrations {scaled}")

    wl = workloads.make("certify-small", run.OUT / f"selftest-{os.getpid()}")
    inputs = wl.setup(3)
    speed = hostspeed.Speed()
    loop = run.Loop(wl, inputs, tracer.bindings()).run(float("inf"), limit=30, speed=speed)
    factors = speed.factors()
    check(len(factors) == len(loop.times) == 30 and all(f > 0 for f in factors),
          f"a calibrated pass gives one factor per operation ({len(speed.marks)} calibrations)")


def main() -> int:
    test_tail()
    test_speed()
    test_identity()
    test_determinism()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
