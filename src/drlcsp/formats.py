"""JSON interchange for algebras and problems, plus random instances.

Canonical output is a single line of JSON with sorted keys and no
floats, terminated by a newline, so round-trips are byte-identical.
"""

from __future__ import annotations

import itertools
import json
from math import comb
from pathlib import Path

import numpy as np

from .algebra import (
    FiniteDRL,
    _require_within_cap,
    check_axioms,
    derive_lattice,
    residuum_from_tables,
)
from .errors import (
    AxiomViolation,
    NotEnoughScopes,
    ParseError,
    ScopeError,
    TooLarge,
    ValueOutOfRange,
)
from .model import Constraint, Problem, RawProblem, iter_constraints, normalize, table_len
from .rng import SplitMix64, check_seed

MAX_TABLE_ENTRIES = 1_000_000
# Upper bound on the scopes of arity 2..max_arity that the generator lists
# before drawing; it keeps the pool to tens of megabytes.
MAX_SCOPE_POOL = 1_000_000


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Algebras


def _algebra_payload(algebra: FiniteDRL) -> dict:
    return {
        "name": algebra.name,
        "size": algebra.size,
        "top": algebra.top,
        "bottom": algebra.bottom,
        "leq": algebra.leq.astype(np.uint8).tolist(),
        "meet": algebra.meet.tolist(),
        "join": algebra.join.tolist(),
        "otimes": algebra.otimes.tolist(),
        "residuum": algebra.residuum.tolist(),
    }


def save_algebra(algebra: FiniteDRL) -> str:
    return _canonical(_algebra_payload(algebra))


def _int_table(table, key: str, size: int) -> list[list[int]]:
    if (
        not isinstance(table, list)
        or len(table) != size
        or any(not isinstance(row, list) or len(row) != size for row in table)
        # The exact type test also rejects JSON booleans.
        or set(map(type, itertools.chain.from_iterable(table))) != {int}
    ):
        raise ParseError(f"{key!r} must be a {size}x{size} integer table")
    return table


def parse_leq(table, size: int) -> np.ndarray:
    """Check a parsed `leq` table (size x size, entries 0 or 1); return it as bools."""
    rows = _int_table(table, "leq", size)
    if not {0, 1}.issuperset(itertools.chain.from_iterable(rows)):
        raise ParseError("'leq' entries must be 0 or 1")
    return np.array(rows, dtype=bool)


def load_algebra(source: str | dict, *, validate: bool = True) -> FiniteDRL:
    """Parse an algebra, deriving any absent meet/join/residuum tables.

    `source` is the JSON text, or the dict that `json.loads` made of it
    (an inline algebra of a problem file). Only absent tables are
    derived: `derive_lattice` when meet or join is missing,
    `residuum_from_tables` when the residuum is. With validate=True (the
    default) the result, with the file's own tables and declared top and
    bottom, must pass the exhaustive `drl` law check, else AxiomViolation
    is raised. Those laws force each table to be the unique one the order
    and the product determine. With validate=False the tables are taken
    as given, which lets `algebra check` report law failures instead of
    refusing to load.
    """
    if isinstance(source, dict):
        obj = source
    else:
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("algebra payload must be an object")
    size = obj.get("size")
    # Exact type tests refuse JSON booleans, as for the tables.
    if type(size) is not int or size < 1:
        raise ParseError("'size' must be a positive integer")
    _require_within_cap(size)
    for key in ("top", "bottom"):
        v = obj.get(key)
        if type(v) is not int or not 0 <= v < size:
            raise ParseError(f"{key!r} must be an element id below {size}")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")

    leq = parse_leq(obj.get("leq"), size)
    otimes = _int_table(obj.get("otimes"), "otimes", size)
    _check_entries(otimes, size, "otimes")
    tables = {}
    for key in ("meet", "join", "residuum"):
        if key in obj:
            tables[key] = _int_table(obj[key], key, size)
            _check_entries(tables[key], size, key)

    if "meet" not in tables or "join" not in tables:
        meet, join, _, _ = derive_lattice(leq)
        tables.setdefault("meet", meet)
        tables.setdefault("join", join)
    if "residuum" not in tables:
        tables["residuum"] = residuum_from_tables(leq, otimes)

    algebra = FiniteDRL(
        size, leq, tables["meet"], tables["join"], otimes, tables["residuum"],
        obj["top"], obj["bottom"], name,
    )
    if validate:
        report = check_axioms(algebra, "drl")
        if not report.ok:
            raise AxiomViolation(report)
    return algebra


def _check_entries(table, size: int, key: str) -> None:
    if not frozenset(range(size)).issuperset(itertools.chain.from_iterable(table)):
        raise ParseError(f"{key!r} has entries outside the carrier")


def read_algebra(path: str | Path) -> FiniteDRL:
    return load_algebra(Path(path).read_text())


def write_algebra(algebra: FiniteDRL, path: str | Path) -> None:
    Path(path).write_text(save_algebra(algebra))


# ---------------------------------------------------------------------------
# Problems


def save_problem(problem: Problem | RawProblem) -> str:
    # Tuples encode as the same JSON arrays as lists.
    payload = {
        "algebra": _algebra_payload(problem.algebra),
        "domains": problem.domain_sizes,
        "constraints": [
            {"scope": c.scope, "values": c.values} for c in iter_constraints(problem)
        ],
    }
    return _canonical(payload)


def load_problem_raw(
    text: str, algebra: FiniteDRL | None = None, base_dir: str | Path | None = None
) -> RawProblem:
    """Parse a problem without normalizing; duplicate scopes survive.

    The algebra comes from the `algebra` argument when given, otherwise
    from the payload's "algebra" field (an inline object or a path to an
    algebra file, resolved against `base_dir`).
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("problem payload must be an object")

    if algebra is None:
        ref = obj.get("algebra")
        if isinstance(ref, str):
            path = Path(ref)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            algebra = read_algebra(path)
        elif isinstance(ref, dict):
            algebra = load_algebra(ref)
        else:
            raise ParseError("'algebra' must be an inline object or a file path")

    domains = obj.get("domains")
    if (
        not isinstance(domains, list)
        or not domains
        or any(type(d) is not int or d < 1 for d in domains)
    ):
        raise ParseError("'domains' must be a nonempty list of positive sizes")
    domain_sizes = tuple(domains)
    n = len(domain_sizes)
    # `normalize` builds a unary table for every variable, so the sizes
    # together bound the entries it allocates before any constraint is read.
    unary_entries = sum(domain_sizes)
    if unary_entries > MAX_TABLE_ENTRIES:
        raise TooLarge(f"unary tables of {unary_entries} entries exceed the cap {MAX_TABLE_ENTRIES}")

    entries = obj.get("constraints")
    if not isinstance(entries, list):
        raise ParseError("'constraints' must be a list")
    elements = frozenset(range(algebra.size))
    constraints = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ParseError("each constraint must be an object")
        scope = entry.get("scope")
        if not isinstance(scope, list) or any(type(v) is not int for v in scope):
            raise ScopeError("'scope' must be a list of variable ids")
        if any(not 0 <= v < n for v in scope):
            raise ScopeError(f"scope {scope} mentions unknown variables")
        if any(a >= b for a, b in zip(scope, scope[1:])):
            raise ScopeError(f"scope {scope} must be strictly increasing")
        scope_t = tuple(scope)
        expected = table_len(scope_t, domain_sizes)
        if expected > MAX_TABLE_ENTRIES:
            raise TooLarge(f"table for scope {scope} needs {expected} entries")
        values = entry.get("values")
        if not isinstance(values, list) or len(values) != expected:
            raise ParseError(f"scope {scope} needs exactly {expected} values")
        # Two passes in C; the type test also rejects JSON booleans, which
        # the set lookup alone would take for 0 and 1.
        if set(map(type, values)) != {int} or not elements.issuperset(values):
            raise ValueOutOfRange(f"scope {scope} has values outside the algebra")
        constraints.append(Constraint(scope_t, values))
    return RawProblem(algebra, domain_sizes, constraints)


def load_problem(
    text: str, algebra: FiniteDRL | None = None, base_dir: str | Path | None = None
) -> Problem | None:
    """Parse and normalize; returns None when normalization empties a domain."""
    return normalize(load_problem_raw(text, algebra, base_dir))


def read_problem(path: str | Path) -> Problem | None:
    p = Path(path)
    return load_problem(p.read_text(), base_dir=p.parent)


def read_problem_raw(path: str | Path) -> RawProblem:
    p = Path(path)
    return load_problem_raw(p.read_text(), base_dir=p.parent)


def write_problem(problem: Problem | RawProblem, path: str | Path) -> None:
    Path(path).write_text(save_problem(problem))


# ---------------------------------------------------------------------------
# Random instances


def gen_random_problem(
    algebra: FiniteDRL, n: int, d: int, e: int, max_arity: int, seed: int
) -> Problem:
    """Deterministic random instance: n variables of size d, e constraints.

    All n unary constraints are present with values drawn uniformly over
    the non-bottom elements; the remaining e - n scopes are drawn
    uniformly without replacement from the scopes of arity 2..max_arity,
    with table values uniform over the whole carrier. The same inputs
    always produce the identical problem. TooLarge is raised, before the
    work it bounds, when the scope pool exceeds MAX_SCOPE_POOL, or a
    table or the n unary tables together exceed MAX_TABLE_ENTRIES (which
    the loader would refuse).
    """
    if n < 1 or d < 1:
        raise ValueError("need at least one variable and one domain value")
    if not 2 <= max_arity <= n:
        raise ValueError("max_arity must lie in [2, n]")
    if e < n:
        raise ValueError("e must cover the n unary constraints")
    if algebra.size < 2:
        raise ValueError("algebra must have a non-bottom element")
    check_seed(seed)

    need = e - n
    pool_size = sum(comb(n, arity) for arity in range(2, max_arity + 1))
    if need > pool_size:
        raise NotEnoughScopes(f"{need} scopes requested, only {pool_size} exist")
    if pool_size > MAX_SCOPE_POOL:
        raise TooLarge(f"{pool_size} candidate scopes exceed the cap {MAX_SCOPE_POOL}")
    if d > MAX_TABLE_ENTRIES:
        raise TooLarge(f"table for scope [0] needs {d} entries")
    if n * d > MAX_TABLE_ENTRIES:
        raise TooLarge(f"unary tables of {n * d} entries exceed the cap {MAX_TABLE_ENTRIES}")

    rng = SplitMix64(seed)
    domain_sizes = (d,) * n
    non_bottom = [v for v in range(algebra.size) if v != algebra.bottom]

    constraints = [
        Constraint((i,), [non_bottom[rng.below(len(non_bottom))] for _ in range(d)])
        for i in range(n)
    ]

    pool = [
        scope
        for arity in range(2, max_arity + 1)
        for scope in itertools.combinations(range(n), arity)
    ]
    for _ in range(need):
        scope = pool.pop(rng.below(len(pool)))
        length = d ** len(scope)
        if length > MAX_TABLE_ENTRIES:
            raise TooLarge(f"table for scope {list(scope)} needs {length} entries")
        constraints.append(
            Constraint(scope, [rng.below(algebra.size) for _ in range(length)])
        )

    problem = normalize(RawProblem(algebra, domain_sizes, constraints))
    assert problem is not None  # unary values are never bottom by construction
    return problem
