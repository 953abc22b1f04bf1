"""Command-line front end.

Each subcommand returns (exit code, JSON payload, text) and `main`
prints its result once, after it has returned: the payload under
`--json`, else the text. A command that fails prints nothing to
stdout, only an error line to stderr.

Exit codes: 0 success; 2 detected inconsistency (`enforce`), consistency
violation (`consistency`), or inequality (`equiv`); 3 failed axiom
check; 1 usage, I/O, or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .algebra import (
    boolean,
    check_axioms,
    classify,
    direct_product,
    godel_chain,
    heyting_from_lattice,
    lukasiewicz_chain,
    weighted,
)
from .enforce import enforce_k_hyperarc, parse_strategy
from .errors import AlgebraError, FormatError, ParseError
from .formats import (
    _read_problem_raw_sharing,
    gen_random_problem,
    load_algebra,
    read_algebra,
    read_lattice,
    read_problem,
    read_problem_raw,
    write_algebra,
    write_problem,
)
from .model import is_k_hyperarc_consistent
from .oracle import brute_force_solve, check_equivalent

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DETECTED = 2
EXIT_AXIOM = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drlcsp",
        description="Soft constraint solving over finite divisible residuated lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_algebra = sub.add_parser("algebra", help="build, check, or classify algebras")
    alg_sub = p_algebra.add_subparsers(dest="algebra_command", required=True)

    p_make = alg_sub.add_parser("make", help="construct a builtin algebra")
    p_make.add_argument("--kind", required=True,
                        choices=["boolean", "godel", "lukasiewicz", "weighted", "heyting", "product"])
    p_make.add_argument("--n", type=int, help="chain length or cost bound")
    p_make.add_argument("--lattice", help="JSON file with the order table for heyting")
    p_make.add_argument("--left", help="left factor algebra file for product")
    p_make.add_argument("--right", help="right factor algebra file for product")
    p_make.add_argument("-o", "--output", required=True)
    p_make.set_defaults(run=_cmd_algebra_make)

    p_check = alg_sub.add_parser("check", help="run one exhaustive law profile")
    p_check.add_argument("file")
    p_check.add_argument("--profile", default="drl", choices=["drl", "derived", "cis-reduct"])
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(run=_cmd_algebra_check)

    p_classify = alg_sub.add_parser("classify", help="evaluate the subvariety equations")
    p_classify.add_argument("file")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(run=_cmd_algebra_classify)

    p_enforce = sub.add_parser("enforce", help="enforce k-hyperarc consistency")
    p_enforce.add_argument("--problem", required=True)
    p_enforce.add_argument("--k", type=int, required=True)
    p_enforce.add_argument("--strategy", default="maximal-lex",
                           help="maximal-lex, maximal-seeded:SEED, or join")
    p_enforce.add_argument("--counters", action="store_true")
    p_enforce.add_argument("-o", "--output", required=True)
    p_enforce.add_argument("--json", action="store_true")
    p_enforce.set_defaults(run=_cmd_enforce)

    p_solve = sub.add_parser("solve", help="brute-force optimal solutions")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(run=_cmd_solve)

    p_cons = sub.add_parser("consistency", help="check k-hyperarc consistency")
    p_cons.add_argument("--problem", required=True)
    p_cons.add_argument("--k", type=int, required=True)
    p_cons.add_argument("--json", action="store_true")
    p_cons.set_defaults(run=_cmd_consistency)

    p_equiv = sub.add_parser("equiv", help="compare two problems on every assignment")
    p_equiv.add_argument("--a", required=True)
    p_equiv.add_argument("--b", required=True)
    p_equiv.add_argument("--json", action="store_true")
    p_equiv.set_defaults(run=_cmd_equiv)

    p_gen = sub.add_parser("gen", help="generate a seeded random problem")
    p_gen.add_argument("--algebra", required=True)
    p_gen.add_argument("--vars", type=int, required=True)
    p_gen.add_argument("--dom", type=int, required=True)
    p_gen.add_argument("--constraints", type=int, required=True)
    p_gen.add_argument("--max-arity", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(run=_cmd_gen)

    return parser


def _cmd_algebra_make(args):
    if args.kind == "product":
        if not args.left or not args.right:
            raise ParseError("product needs --left and --right")
        made = direct_product(read_algebra(args.left), read_algebra(args.right))
    elif args.kind == "heyting":
        if not args.lattice:
            raise ParseError("heyting needs --lattice")
        made = heyting_from_lattice(read_lattice(args.lattice))
    elif args.kind == "boolean":
        made = boolean()
    else:
        if args.n is None:
            raise ParseError(f"{args.kind} needs --n")
        chain = {"godel": godel_chain, "lukasiewicz": lukasiewicz_chain, "weighted": weighted}
        made = chain[args.kind](args.n)
    write_algebra(made, args.output)
    return EXIT_OK, None, f"wrote {made.name} (size {made.size}) to {args.output}"


def _cmd_algebra_check(args):
    # Load without the built-in validation so the report can show failures.
    algebra = load_algebra(Path(args.file).read_text(), validate=False)
    report = check_axioms(algebra, args.profile)
    payload = {
        "profile": report.profile,
        "ok": report.ok,
        "checks": [
            {"axiom": c.axiom, "passed": c.passed,
             "counterexample": list(c.counterexample) if c.counterexample else None}
            for c in report.checks
        ],
    }
    text = "\n".join(f"ok   {c.axiom}" if c.passed else f"FAIL {c.axiom} at {c.counterexample}"
                     for c in report.checks)
    return (EXIT_OK if report.ok else EXIT_AXIOM), payload, text


def _cmd_algebra_classify(args):
    flags = classify(read_algebra(args.file))
    payload = {
        "prelinear": flags.prelinear,
        "idempotent": flags.idempotent,
        "involutive": flags.involutive,
        "chain": flags.chain,
        "variety": flags.variety_name,
    }
    text = (f"variety={flags.variety_name} prelinear={flags.prelinear} "
            f"idempotent={flags.idempotent} involutive={flags.involutive} chain={flags.chain}")
    return EXIT_OK, payload, text


def _cmd_enforce(args):
    strategy = parse_strategy(args.strategy)
    problem = read_problem(args.problem)
    if problem is None:
        return (EXIT_DETECTED, {"inconsistent": True, "stage": "normalize"},
                "inconsistent (a domain emptied during normalization)")
    outcome = enforce_k_hyperarc(problem, args.k, strategy)
    if outcome.inconsistent:
        code, text = EXIT_DETECTED, "inconsistent"
        payload = {"inconsistent": True, "stage": "enforce"}
    else:
        write_problem(outcome.problem, args.output)
        payload = {"inconsistent": False, "output": args.output}
        code, text = EXIT_OK, f"wrote consistent problem to {args.output}"
    if args.counters:
        c = outcome.counters
        payload["counters"] = asdict(c)
        text = (f"main_loop_iterations={c.main_loop_iterations} "
                f"project_calls={c.project_calls} "
                f"inner_tuple_iterations={c.inner_tuple_iterations}\n{text}")
    return code, payload, text


def _cmd_solve(args):
    result = brute_force_solve(read_problem_raw(args.problem))
    payload = {
        "optimal_values": result.optimal_values,
        "solutions": [list(t) for t in result.solutions],
        "inconsistent": result.inconsistent,
    }
    lines = [f"optimal values: {result.optimal_values}"]
    if result.inconsistent:
        lines.append("inconsistent (only bottom is achievable)")
    lines += [f"  {t}" for t in result.solutions]
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_consistency(args):
    problem = read_problem(args.problem)
    if problem is None:
        return (EXIT_DETECTED, {"ok": False, "stage": "normalize"},
                "inconsistent (a domain emptied during normalization)")
    violation = is_k_hyperarc_consistent(problem, args.k)
    if violation is None:
        return EXIT_OK, {"ok": True}, "ok"
    payload = {
        "ok": False,
        "scope": list(violation.scope),
        "variable": violation.variable,
        "value": violation.value,
    }
    text = (f"violation scope={violation.scope} variable={violation.variable} "
            f"value={violation.value}")
    return EXIT_DETECTED, payload, text


def _cmd_equiv(args):
    a = read_problem_raw(args.a)
    # When b embeds or names an algebra equal to a's, a's validation serves both.
    counterexample = check_equivalent(a, _read_problem_raw_sharing(args.b, a.algebra))
    if counterexample is None:
        return EXIT_OK, {"equal": True}, "equal"
    payload = {
        "equal": False,
        "assignment": list(counterexample.assignment),
        "value_a": counterexample.value_a,
        "value_b": counterexample.value_b,
    }
    text = (f"different at {counterexample.assignment}: "
            f"{counterexample.value_a} vs {counterexample.value_b}")
    return EXIT_DETECTED, payload, text


def _cmd_gen(args):
    algebra = read_algebra(args.algebra)
    problem = gen_random_problem(
        algebra, args.vars, args.dom, args.constraints, args.max_arity, args.seed
    )
    write_problem(problem, args.output)
    return (EXIT_OK, None,
            f"wrote {args.constraints} constraints over {args.vars} variables to {args.output}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0, usage errors exit 2
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        code, payload, text = args.run(args)
        print(json.dumps(payload, sort_keys=True) if getattr(args, "json", False) else text)
    except (AlgebraError, FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AXIOM if isinstance(exc, AlgebraError) else EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
