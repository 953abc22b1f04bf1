"""Reference figures: the single-run layer timings the roadmap quotes, traced once.

Run from the repository root:

    python3 bench/reference.py

It times, once each and with every public drlcsp function wrapped:
- the algebra layer on Lukasiewicz x Goedel products of carrier 64 and 256
  (direct_product, save_algebra, a validated load_algebra, which runs
  check_axioms("drl") inside, and one more check_axioms("drl"));
- weighted(10) enforcement at n=30, d=10, e=200, arity <= 3, k=3;
- brute_force_solve and check_equivalent on a 5^8 instance.

It writes bench/reference.json: per-span self and total times, the
roadmap's own single-run figures beside them, and the machine. These are
reference points, not a workload, and no gate reads them.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import run

run._import_program()

import numpy  # noqa: E402

import tracer  # noqa: E402
from drlcsp import algebra, enforce, formats, oracle  # noqa: E402

ROADMAP = {
    "algebra@64": {"load_algebra": 0.035, "check_axioms(drl)": 0.013, "derive_lattice": 0.005,
                   "residuum_from_tables": 0.011, "direct_product": 0.005},
    "algebra@256": {"load_algebra": 1.6, "check_axioms(drl)": 1.1, "derive_lattice": 0.158,
                    "residuum_from_tables": 0.394, "direct_product": 0.045},
    "enforce weighted(10) n=30 d=10 e=200": {"enforce_k_hyperarc": 0.197, "project_calls": 725},
    "oracle 5^8": {"check_equivalent": 5.6, "brute_force_solve": 3.9},
}


def traced(label: str, fn) -> dict:
    t = tracer.Tracer(tracer.bindings())
    t.install()
    try:
        fn()
    finally:
        t.uninstall()
    rows = {name: dict(row, mean_s=row["total_s"] / row["calls"])
            for name, row in t.per_function().items() if row["calls"]}
    return {"label": label, "spans": rows,
            "counts": {k: v for k, v in t.counts.items() if v}}


def algebra_case(n: int):
    luk, godel = algebra.lukasiewicz_chain(n), algebra.godel_chain(n)

    def go():
        a = algebra.direct_product(luk, godel)
        loaded = formats.load_algebra(formats.save_algebra(a))
        algebra.check_axioms(loaded, "drl")
    return go


def enforce_case():
    problem = formats.gen_random_problem(algebra.weighted(10), 30, 10, 200, 3, 1)
    return lambda: enforce.enforce_k_hyperarc(problem, 3, enforce.MAXIMAL_LEX)


def oracle_case():
    problem = formats.gen_random_problem(algebra.weighted(10), 8, 5, 20, 3, 1)
    out = enforce.enforce_k_hyperarc(problem, 3, enforce.JOIN).problem

    def go():
        oracle.brute_force_solve(problem)
        oracle.check_equivalent(problem, out)
    return go


def main() -> int:
    cases = [
        traced("algebra@64", algebra_case(8)),
        traced("algebra@256", algebra_case(16)),
        traced("enforce weighted(10) n=30 d=10 e=200", enforce_case()),
        traced("oracle 5^8", oracle_case()),
    ]
    report = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "blas_threads": os.environ["OMP_NUM_THREADS"]},
        "roadmap_single_run": ROADMAP,
        "traced_single_run": cases,
    }
    out = run.BENCH / "reference.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for case in cases:
        print(case["label"])
        for name, row in case["spans"].items():
            print(f"  {name}: calls={row['calls']} mean_s={row['mean_s']:.4f} "
                  f"total_s={row['total_s']:.4f} self_s={row['self_s']:.4f}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
