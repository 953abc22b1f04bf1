"""JSON interchange for algebras and problems, plus random instances.

Canonical output is a single line of JSON with sorted keys and no
floats, terminated by a newline, so round-trips are byte-identical:
the text `json.dumps(payload, sort_keys=True, separators=(",", ":"))`
writes, plus the newline. orjson reads and writes every file; the
stdlib json module handles only the documents orjson would treat
differently.
"""

from __future__ import annotations

import itertools
import json
import re
from math import comb
from pathlib import Path

import numpy as np
import orjson

from .algebra import FiniteDRL, _completed, _in_carrier, _require_within_cap, check_axioms
from .errors import (
    AxiomViolation,
    FormatError,
    NotEnoughScopes,
    ParseError,
    ScopeError,
    TooLarge,
    ValueOutOfRange,
)
from .model import (
    Constraint,
    Problem,
    RawProblem,
    _first_past,
    _packed_ids,
    iter_constraints,
    normalize,
    table_len,
)
from .rng import SplitMix64, check_seed

MAX_TABLE_ENTRIES = 1_000_000
# Upper bound on the scopes of arity 2..max_arity that the generator lists
# before drawing; it keeps the pool to tens of megabytes.
MAX_SCOPE_POOL = 1_000_000


# orjson 3.8 decodes nested arrays and objects by recursion with no depth
# limit, taking about 64 bytes of C stack per array level and 160 per
# object level, so a deeply nested text overflows the stack and kills the
# process where json raises RecursionError. Every level opens a bracket,
# so a text whose "[" count plus three times its "{" count is at most this
# bound needs at most 512 KiB of stack in orjson; json alone decodes any
# other text.
_ORJSON_MAX_NESTING = 8192

_ORJSON_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


def _plain(obj):
    """json's fallback for what orjson writes natively: arrays and numpy scalars."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _canonical(payload) -> str:
    # orjson escapes quotes, backslashes and control characters as json
    # does, but writes U+007F and up as UTF-8 where json writes \uXXXX;
    # only a `name` can hold such a character. So orjson's text is json's
    # when it is ASCII without U+007F. json also writes what orjson
    # refuses: integers outside 64 bits, lone surrogates and
    # non-contiguous arrays.
    try:
        text = orjson.dumps(payload, option=_ORJSON_OPTIONS).decode()
    except orjson.JSONEncodeError:
        pass
    else:
        if text.isascii() and "\x7f" not in text:
            return text
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_plain) + "\n"


def _decoded(text: str, build, where: str = ""):
    """`build(obj, typed)` for the JSON value `obj` that `text` holds.

    `typed` is `_may_hold_booleans(text)`: every reader's scan for JSON
    booleans runs here, once per text, whichever decoder reads it.

    orjson decodes first. It reads integers outside [-2**63, 2**64) as
    floats and refuses NaN, the infinities, 1e400 and lone surrogates,
    where json accepts them; on anything else the two agree. The schema
    refuses all of those values and type-tests every field before its
    range. So when orjson refuses, json decodes the text. When `build`
    refuses (with a FormatError), json decodes it and `build` runs again
    only if the text holds a run of 19 digits, as every integer outside
    orjson's range does. Either way a refused document gets the same
    exception and message as with json alone. Text that is not JSON, or
    is nested too deeply for json, raises ParseError ("invalid JSON"
    plus `where`).
    """
    typed = _may_hold_booleans(text)
    if text.count("[") + 3 * text.count("{") <= _ORJSON_MAX_NESTING:
        try:
            return build(orjson.loads(text), typed)
        except orjson.JSONDecodeError:
            pass
        except FormatError:
            if not re.search(r"\d{19}", text):
                raise
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON{where}: {exc}") from exc
    return build(obj, typed)


# ---------------------------------------------------------------------------
# Algebras


def _algebra_payload(algebra: FiniteDRL) -> dict:
    return {
        "name": algebra.name,
        "size": algebra.size,
        "top": algebra.top,
        "bottom": algebra.bottom,
        "leq": algebra.leq.view(np.uint8),
        "meet": algebra.meet,
        "join": algebra.join,
        "otimes": algebra.otimes,
        "residuum": algebra.residuum,
    }


def save_algebra(algebra: FiniteDRL) -> str:
    return _canonical(_algebra_payload(algebra))


def _is_int_table(table, size: int) -> bool:
    return (
        isinstance(table, list)
        and len(table) == size
        and all(isinstance(row, list) and len(row) == size for row in table)
        # The exact type test also rejects JSON booleans.
        and set(map(type, itertools.chain.from_iterable(table))) == {int}
    )


def _table(table, key: str, size: int, typed: bool) -> np.ndarray:
    """A decoded table as a read-only size x size array of ids below
    `size` (`intp`), or of 0 and 1 for "leq" (bool).

    One np.array call builds it, and its shape, integer dtype and range
    are tested on the array. np.array reads a JSON boolean among ints as
    an int, so when `typed` the entries' exact types are tested as well.
    Pass typed=False only for a table decoded from text that holds
    neither `true` nor `false`, the only words JSON writes a boolean as.
    A refused table raises ParseError, worded by the entry-by-entry type
    test.
    """
    try:
        arr = np.array(table)
    except ValueError:  # ragged rows, or nesting past numpy's dimension limit
        arr = None
    if (
        arr is not None
        and arr.shape == (size, size)
        and arr.dtype.kind == "i"
        and (not typed or _is_int_table(table, size))
        and _in_carrier(arr, 2 if key == "leq" else size)
    ):
        arr = arr.astype(bool if key == "leq" else np.intp, copy=False)
        arr.flags.writeable = False
        return arr
    if not _is_int_table(table, size):
        raise ParseError(f"{key!r} must be a {size}x{size} integer table")
    # A size x size table of ints that np.array did not read as an array of
    # type "i" in range holds an entry out of range.
    if key == "leq":
        raise ParseError("'leq' entries must be 0 or 1")
    raise ParseError(f"{key!r} has entries outside the carrier")


def _may_hold_booleans(text: str) -> bool:
    """Whether `text` holds `true` or `false`, the only words JSON writes
    a boolean as: `"true" in text or "false" in text`.

    str's substring search steps one character at a time over the digits
    2, 4 and 5 and commas, which share bloom-mask bits with the needles'
    letters. So each "u" and each "f" is found with str.find instead, and
    the word around it compared; of the schema's keys only "values" and
    "residuum" hold a "u", and none holds an "f".
    """
    for letter, word, offset in (("u", "true", 2), ("f", "false", 0)):
        at = text.find(letter, offset)
        while at != -1:
            if text.startswith(word, at - offset):
                return True
            at = text.find(letter, at + 1)
    return False


class _BooleanFree(dict):
    """An algebra object decoded from a text that holds neither `true` nor
    `false`, so that `load_algebra` skips the exact type test on it."""


def load_algebra(source: str | dict, *, validate: bool = True) -> FiniteDRL:
    """Parse an algebra, deriving any absent meet/join/residuum tables.

    `source` is the JSON text, or the object decoded from it (an inline
    algebra of a problem file). Only absent tables are derived, by the
    algebra module's completion step, which keeps the residuation fact of
    a derived residuum. With validate=True (the default) the result, with
    the file's own tables and declared top and bottom, must pass the
    exhaustive `drl` law check, else AxiomViolation is raised. Those laws force each table to be the unique one the order
    and the product determine. With validate=False the tables are taken
    as given, which lets `algebra check` report law failures instead of
    refusing to load.
    """
    if isinstance(source, dict):
        algebra = _algebra_from_obj(source, typed=not isinstance(source, _BooleanFree))
    else:
        algebra = _decoded(source, _algebra_from_obj)
    return _validated(algebra) if validate else algebra


def _validated(algebra: FiniteDRL, known: FiniteDRL | None = None) -> FiniteDRL:
    """`algebra` once it passes the `drl` law check, else AxiomViolation.

    `known` is an algebra that already passed it; when `algebra` equals
    it, `known` is returned unchecked, since the check reads only what
    equality compares.
    """
    if known is not None and algebra == known:
        return known
    report = check_axioms(algebra, "drl")
    if not report.ok:
        raise AxiomViolation(report)
    return algebra


def _algebra_from_obj(obj, typed: bool) -> FiniteDRL:
    """The algebra `obj` describes, not yet law-checked; `typed` as for `_table`."""
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

    leq = _table(obj.get("leq"), "leq", size, typed)
    otimes = _table(obj.get("otimes"), "otimes", size, typed)
    tables = {key: _table(obj[key], key, size, typed)
              for key in ("meet", "join", "residuum") if key in obj}
    return _completed(size, leq, otimes, obj["top"], obj["bottom"], name, **tables)


def read_lattice(path: str | Path) -> np.ndarray:
    """Read an order table, bare or under "leq", from a JSON file; return it as bools."""
    def build(obj, typed: bool) -> np.ndarray:
        if isinstance(obj, dict):
            obj = obj.get("leq")
        if not isinstance(obj, list):
            raise ParseError(f"{path} must hold an order table (or an object with 'leq')")
        return _table(obj, "leq", len(obj), typed)

    return _decoded(Path(path).read_text(), build, f" in {path}")


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
    algebra file, resolved against `base_dir`). An inline algebra's
    tables and the constraint tables get the exact type test only when
    `text` holds `true` or `false`.
    """
    return _decoded(text, lambda obj, typed: _problem_from_obj(obj, typed, algebra, base_dir))


def _read_problem_raw_sharing(path: str | Path, known: FiniteDRL) -> RawProblem:
    """`read_problem_raw`, except that an algebra the file embeds or names
    that equals `known`, an algebra that passed the `drl` law check, is
    taken as `known` and not checked again. Any other algebra is checked,
    so every result and refusal is that of `read_problem_raw`.
    """
    p = Path(path)
    return _decoded(
        p.read_text(), lambda obj, typed: _problem_from_obj(obj, typed, None, p.parent, known)
    )


def _values_outside(scope) -> ValueOutOfRange:
    return ValueOutOfRange(f"scope {list(scope)} has values outside the algebra")


def _refuse_ids_past(constraints: list[Constraint], packed: list[bytes], size: int) -> None:
    """Refuse the first of `constraints` whose table, packed in `packed`,
    holds an id >= `size`; one range test covers every table."""
    first = _first_past(packed, size)
    if first is not None:
        raise _values_outside(constraints[first].scope) from None


def _problem_from_obj(
    obj,
    typed: bool,
    algebra: FiniteDRL | None,
    base_dir: str | Path | None,
    known: FiniteDRL | None = None,
) -> RawProblem:
    """The problem `obj` describes, not yet normalized.

    `typed` says whether its text may hold a boolean (`_may_hold_booleans`),
    and `known` is as for `_read_problem_raw_sharing`. Each table's values
    are packed to 16-bit ids by one struct call, which refuses every
    value but an int in [0, 2**16) or a boolean; so the exact type test
    runs only when `typed`, and one range test after the loop covers
    every table. A table holding an id >= size is refused before any
    later constraint, as a check table by table would.
    """
    if not isinstance(obj, dict):
        raise ParseError("problem payload must be an object")

    if algebra is None:
        # What load_algebra takes: a path's file text (an absolute path
        # ignores `base_dir`), or the inline object, a _BooleanFree if untyped.
        ref = obj.get("algebra")
        if isinstance(ref, str):
            ref = Path(base_dir or "", ref).read_text()
        elif not isinstance(ref, dict):
            raise ParseError("'algebra' must be an inline object or a file path")
        elif not typed:
            ref = _BooleanFree(ref)
        algebra = _validated(load_algebra(ref, validate=False), known)

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
    constraints: list[Constraint] = []
    packed: list[bytes] = []
    try:
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
            if typed and set(map(type, values)) != {int}:
                raise _values_outside(scope)
            try:
                packed.append(_packed_ids(scope, values))
            except ValueError:
                raise _values_outside(scope) from None
            constraints.append(Constraint(scope_t, values))
    except (ParseError, TooLarge):
        # An earlier table holding an id >= size is refused first.
        _refuse_ids_past(constraints, packed, algebra.size)
        raise
    _refuse_ids_past(constraints, packed, algebra.size)
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
    work it bounds, when the scope pool exceeds MAX_SCOPE_POOL, or when
    the n unary tables together, or the e - n drawn tables together at
    their largest, could exceed MAX_TABLE_ENTRIES.
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
    if n * d > MAX_TABLE_ENTRIES:
        raise TooLarge(f"unary tables of {n * d} entries exceed the cap {MAX_TABLE_ENTRIES}")
    # The drawn tables are largest when they take the highest arities first.
    worst, left = 0, need
    for arity in range(max_arity, 1, -1):
        take = min(left, comb(n, arity))
        worst, left = worst + take * d ** arity, left - take
    if worst > MAX_TABLE_ENTRIES:
        raise TooLarge(f"drawn tables of up to {worst} entries exceed the cap {MAX_TABLE_ENTRIES}")

    rng = SplitMix64(seed)
    # Without a rejection the draws read n*d + need + (the drawn tables'
    # entries) <= n*d + need + worst outputs, so one block serves every
    # table; a draw that runs past it computes its own outputs.
    rng.read_ahead(n * d + need + worst)
    domain_sizes = (d,) * n
    non_bottom = np.array([v for v in range(algebra.size) if v != algebra.bottom])

    unary = non_bottom[rng.below_many(len(non_bottom), n * d)].tolist()
    constraints = [Constraint((i,), unary[i * d:(i + 1) * d]) for i in range(n)]

    pool = [
        scope
        for arity in range(2, max_arity + 1)
        for scope in itertools.combinations(range(n), arity)
    ]
    for _ in range(need):
        scope = pool.pop(rng.below(len(pool)))
        values = rng.below_many(algebra.size, d ** len(scope)).tolist()
        constraints.append(Constraint(scope, values))

    # Already normalized: the scopes are distinct, every variable has a
    # unary table, and no unary value is bottom.
    return Problem(algebra, domain_sizes, {c.scope: c for c in constraints})
