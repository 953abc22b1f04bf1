import dataclasses
import itertools
import json
import random
import threading
import tracemalloc

import numpy as np
import orjson
import pytest

import drlcsp as d
from drlcsp import algebra, formats
from drlcsp.cli import main
from conftest import scalar_gen_random_problem
from drlcsp.model import iter_constraints
from lattice_catalog import distributive_lattices

_BIG_INTS = (2**63, 2**64, -(2**63) - 1)


class TestAlgebraRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: d.boolean(),
        lambda: d.lukasiewicz_chain(5),
        lambda: d.weighted(4),
        lambda: d.direct_product(d.godel_chain(3), d.weighted(2)),
    ])
    def test_save_load_identity(self, make):
        algebra = make()
        text = d.save_algebra(algebra)
        loaded = d.load_algebra(text)
        assert loaded == algebra
        assert loaded.name == algebra.name
        assert d.save_algebra(loaded) == text

    def test_canonical_output_shape(self, boolean_alg):
        text = d.save_algebra(boolean_alg)
        assert text.endswith("\n") and "\n" not in text[:-1]
        obj = json.loads(text)
        assert set(obj) == {"name", "size", "top", "bottom", "leq", "meet",
                            "join", "otimes", "residuum"}

    def test_minimal_file_gets_derived_tables(self, boolean_alg):
        minimal = json.dumps({
            "name": "boolean", "size": 2, "top": 1, "bottom": 0,
            "leq": [[1, 1], [0, 1]], "otimes": [[0, 0], [0, 1]],
        })
        assert d.load_algebra(minimal) == boolean_alg

    def test_supplied_residuum_must_match_derivation(self):
        bad = json.dumps({
            "name": "x", "size": 2, "top": 1, "bottom": 0,
            "leq": [[1, 1], [0, 1]], "otimes": [[0, 0], [0, 1]],
            "residuum": [[1, 1], [1, 1]],
        })
        with pytest.raises(d.AxiomViolation) as info:
            d.load_algebra(bad)
        assert "residuation" in {c.axiom for c in info.value.report.failures()}

    def test_supplied_meet_must_match_derivation(self, boolean_alg):
        obj = json.loads(d.save_algebra(boolean_alg))
        obj["meet"][1][1] = 0
        with pytest.raises(d.AxiomViolation):
            d.load_algebra(json.dumps(obj))

    def test_declared_top_must_match(self, boolean_alg):
        obj = json.loads(d.save_algebra(boolean_alg))
        obj["top"], obj["bottom"] = 0, 1
        with pytest.raises(d.AxiomViolation):
            d.load_algebra(json.dumps(obj))

    def test_corrupt_monoid_detected_on_validated_load(self, godel3):
        obj = json.loads(d.save_algebra(godel3))
        obj["otimes"][0][1] = 1
        with pytest.raises(d.AlgebraError):
            d.load_algebra(json.dumps(obj))
        as_given = d.load_algebra(json.dumps(obj), validate=False)
        assert not d.check_axioms(as_given, "drl").ok

    @pytest.mark.parametrize("mutate", [
        lambda o: o.pop("size"),
        lambda o: o.update(size=-1),
        lambda o: o.update(top=9),
        lambda o: o.update(leq=[[1, 2], [0, 1]]),
        lambda o: o.update(otimes=[[0, 7], [0, 1]]),
        lambda o: o.update(otimes=[[0], [0, 1]]),
    ])
    def test_parse_errors(self, boolean_alg, mutate):
        obj = json.loads(d.save_algebra(boolean_alg))
        mutate(obj)
        with pytest.raises(d.ParseError):
            d.load_algebra(json.dumps(obj))

    @pytest.mark.parametrize("key,entry,message", [
        ("otimes", True, "'otimes' must be a 2x2 integer table"),
        ("otimes", 2, "'otimes' has entries outside the carrier"),
        ("otimes", -1, "'otimes' has entries outside the carrier"),
        ("leq", False, "'leq' must be a 2x2 integer table"),
        ("leq", 2, "'leq' entries must be 0 or 1"),
        # integers outside the int64 and uint64 ranges
        *(("otimes", big, "'otimes' has entries outside the carrier") for big in _BIG_INTS),
        *(("leq", big, "'leq' entries must be 0 or 1") for big in _BIG_INTS),
    ])
    def test_table_entry_messages(self, boolean_alg, key, entry, message):
        obj = json.loads(d.save_algebra(boolean_alg))
        obj[key][1][0] = entry
        with pytest.raises(d.ParseError) as info:
            d.load_algebra(json.dumps(obj))
        assert str(info.value) == message

    def test_invalid_json(self):
        with pytest.raises(d.ParseError):
            d.load_algebra("{nope")


# The table checks of the entry-by-entry parse, kept as the reference for
# the one-array parse: each table's refusal, or its accepted value.


def _reference_int_table(table, key: str, size: int) -> list[list[int]]:
    if (
        not isinstance(table, list)
        or len(table) != size
        or any(not isinstance(row, list) or len(row) != size for row in table)
        # The exact type test also rejects JSON booleans.
        or set(map(type, itertools.chain.from_iterable(table))) != {int}
    ):
        raise d.ParseError(f"{key!r} must be a {size}x{size} integer table")
    return table


def _reference_parse_leq(table, size: int) -> np.ndarray:
    rows = _reference_int_table(table, "leq", size)
    if not {0, 1}.issuperset(itertools.chain.from_iterable(rows)):
        raise d.ParseError("'leq' entries must be 0 or 1")
    return np.array(rows, dtype=bool)


def _reference_check_entries(table, size: int, key: str) -> None:
    if not frozenset(range(size)).issuperset(itertools.chain.from_iterable(table)):
        raise d.ParseError(f"{key!r} has entries outside the carrier")


def _reference_algebra(obj: dict) -> d.FiniteDRL:
    """What an unvalidated load of `obj`, which has every table, gives."""
    size = obj["size"]
    leq = _reference_parse_leq(obj["leq"], size)
    tables = {}
    for key in ("otimes", "meet", "join", "residuum"):
        tables[key] = _reference_int_table(obj[key], key, size)
        _reference_check_entries(tables[key], size, key)
    return d.FiniteDRL(size, leq, tables["meet"], tables["join"], tables["otimes"],
                       tables["residuum"], obj["top"], obj["bottom"], obj["name"])


def _table_mutation(obj: dict, rng: random.Random) -> str:
    """Change one entry, row or table of one of `obj`'s tables; name the change."""
    key = rng.choice(["leq", "meet", "join", "otimes", "residuum"])
    table, n = obj[key], obj["size"]
    x, y = rng.randrange(n), rng.randrange(n)
    kind = rng.choice(["true", "false", "1.0", "-1", "size", "2**63", "2**64", "None",
                       "string", "nested", "ragged", "short", "in range"])
    if kind == "ragged":
        table[x].append(0) if rng.random() < 0.5 else table[x].pop()
    elif kind == "short":
        table.pop(x)
    else:
        table[x][y] = {
            "true": True, "false": False, "1.0": 1.0, "-1": -1, "size": n, "2**63": 2**63,
            "2**64": 2**64, "None": None, "string": "1", "nested": [table[x][y]],
            "in range": rng.randrange(2 if key == "leq" else n),
        }[kind]
    return f"{kind} in {key}"


def _parse_outcome(parse):
    try:
        return parse()
    except (d.FormatError, d.AlgebraError, d.TooLarge) as exc:  # a refusal is compared by class and message
        return type(exc), str(exc)


class TestOneArrayParse:
    """Each table is parsed by one np.array call, with the outcome of the
    entry-by-entry checks: the same refusal, or an equal algebra."""

    def test_mutated_tables_match_the_entry_checks(self, tmp_path):
        rng = random.Random(1997)
        bases = [json.loads(d.save_algebra(a)) for a in (
            d.boolean(), d.direct_product(d.lukasiewicz_chain(3), d.godel_chain(3)),
            d.direct_product(d.boolean(), d.heyting_from_lattice(
                [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])),
        )]
        path = tmp_path / "a.json"
        kinds = set()
        for _ in range(400):
            obj = json.loads(json.dumps(rng.choice(bases)))
            change = _table_mutation(obj, rng)
            kinds.add(change.split(" in ")[0])
            text = json.dumps(obj)
            path.write_text(text)
            expected = _parse_outcome(lambda: _reference_algebra(obj))
            assert _parse_outcome(lambda: d.load_algebra(text, validate=False)) == expected, change
            assert _parse_outcome(lambda: d.load_algebra(obj, validate=False)) == expected, change

            # A problem's inline algebra is validated as well.
            payload = json.dumps({"algebra": obj, "domains": [1], "constraints": []})
            if isinstance(expected, d.FiniteDRL):
                report = d.check_axioms(expected, "drl")
                if not report.ok:
                    expected = d.AxiomViolation, str(d.AxiomViolation(report))
            assert _parse_outcome(lambda: d.load_problem_raw(payload).algebra) == expected, change

            leq = obj["leq"]
            expected_leq = _parse_outcome(lambda: _reference_parse_leq(leq, len(leq)))
            got_leq = _parse_outcome(lambda: formats.read_lattice(path))
            if isinstance(expected_leq, np.ndarray):
                assert got_leq.dtype == bool and np.array_equal(got_leq, expected_leq), change
            else:
                assert got_leq == expected_leq, change
        assert len(kinds) == 13

    def test_a_name_holding_true_loads_and_refuses_booleans(self):
        a = dataclasses.replace(d.boolean(), name="true-false")
        text = d.save_algebra(a)
        assert d.load_algebra(text) == a and d.load_algebra(text).name == "true-false"
        obj = json.loads(text)
        obj["otimes"][1][1] = True
        with pytest.raises(d.ParseError) as info:
            d.load_algebra(json.dumps(obj))
        assert str(info.value) == "'otimes' must be a 2x2 integer table"

    def test_text_without_booleans_skips_the_type_test(self, monkeypatch):
        calls = []
        typed = formats._is_int_table
        monkeypatch.setattr(formats, "_is_int_table", lambda *args: calls.append(1) or typed(*args))
        a = d.godel_chain(4)
        assert d.load_algebra(d.save_algebra(a)) == a and calls == []
        assert d.load_algebra(json.loads(d.save_algebra(a))) == a and len(calls) == 5

    def test_a_problem_text_without_booleans_skips_the_type_test(self, monkeypatch):
        calls = []
        typed = formats._is_int_table
        monkeypatch.setattr(formats, "_is_int_table", lambda *args: calls.append(1) or typed(*args))
        p = d.gen_random_problem(d.direct_product(d.lukasiewicz_chain(3), d.godel_chain(3)), 3, 2, 5, 2, 4)
        assert d.load_problem_raw(d.save_problem(p)).algebra == p.algebra and calls == []

    def test_boolean_scan_matches_substring_search(self):
        # Every text of up to five of the needles' letters, so each letter
        # sits at each of the indices 0-4, then longer random texts that
        # mix in JSON punctuation and digits.
        texts = ["".join(letters) for k in range(6) for letters in itertools.product("truefals", repeat=k)]
        rng = random.Random(2008)
        texts += ["".join(rng.choices("truefals ,[0", k=rng.randrange(6, 24))) for _ in range(20000)]
        for text in texts:
            assert formats._may_hold_booleans(text) == ("true" in text or "false" in text), text

    def test_an_inline_algebra_follows_its_problem_text(self):
        a = dataclasses.replace(d.direct_product(d.lukasiewicz_chain(3), d.godel_chain(3)), name="true-false")
        obj = json.loads(d.save_problem(d.gen_random_problem(a, 3, 2, 5, 2, 4)))
        loaded = d.load_problem_raw(json.dumps(obj)).algebra
        assert loaded == a and loaded.name == "true-false"
        obj["algebra"]["otimes"][1][2] = True
        with pytest.raises(d.ParseError) as info:
            d.load_problem_raw(json.dumps(obj))
        assert str(info.value) == "'otimes' must be a 9x9 integer table"


class TestSingleScan:
    """The decode step scans each text it reads for JSON booleans once."""

    @pytest.fixture()
    def scanned(self, monkeypatch):
        texts = []
        scan = formats._may_hold_booleans
        monkeypatch.setattr(formats, "_may_hold_booleans", lambda text: texts.append(text) or scan(text))
        return texts

    @pytest.fixture()
    def files(self, tmp_path):
        a = d.lukasiewicz_chain(3)
        algebra_text, problem_text = d.save_algebra(a), d.save_problem(d.gen_random_problem(a, 3, 2, 5, 2, 4))
        (tmp_path / "a.json").write_text(algebra_text)
        (tmp_path / "p.json").write_text(problem_text)
        return a, algebra_text, problem_text, tmp_path

    def test_each_reader_scans_its_text_once(self, scanned, files):
        a, algebra_text, problem_text, tmp_path = files
        for text, read in (
            (algebra_text, lambda: d.load_algebra(algebra_text)),
            (algebra_text, lambda: d.read_algebra(tmp_path / "a.json")),
            (algebra_text, lambda: formats.read_lattice(tmp_path / "a.json")),
            (problem_text, lambda: d.load_problem_raw(problem_text)),
            (problem_text, lambda: d.read_problem_raw(tmp_path / "p.json")),
            (problem_text, lambda: formats._read_problem_raw_sharing(tmp_path / "p.json", a)),
        ):
            scanned.clear()
            read()
            assert scanned == [text]

    def test_a_problem_naming_its_algebra_scans_both_texts_once(self, scanned, files):
        a, algebra_text, problem_text, tmp_path = files
        obj = json.loads(problem_text)
        obj["algebra"] = "a.json"
        by_path = json.dumps(obj)
        assert d.load_problem_raw(by_path, base_dir=tmp_path).algebra == a
        assert scanned == [by_path, algebra_text]

    def test_a_refused_text_is_scanned_once_across_the_json_retry(self, scanned, files, monkeypatch):
        obj = json.loads(files[2])
        obj["constraints"][0]["values"][0] = 10**19  # 20 digits, so json decodes it again
        text = json.dumps(obj)
        decodes = []
        loads = json.loads
        monkeypatch.setattr(formats.json, "loads", lambda s: decodes.append(s) or loads(s))
        with pytest.raises(d.ValueOutOfRange):
            d.load_problem_raw(text)
        assert decodes == [text] and scanned == [text]


def _reference_load(text: str) -> d.FiniteDRL | None:
    """The derive-and-compare load that the single law check replaced.

    Derives every table from `leq` and `otimes`, requires the declared
    top and bottom and each supplied table to equal its derivation, then
    runs the `drl` laws on the derived tables. Returns None on refusal.
    """
    obj = json.loads(text)
    leq = tuple(tuple(map(bool, row)) for row in obj["leq"])
    otimes = tuple(map(tuple, obj["otimes"]))
    try:
        meet, join, top, bottom = d.derive_lattice(leq)
        residuum = d.residuum_from_tables(leq, otimes)
    except (d.AlgebraError, ValueError):
        return None
    derived = {"meet": meet, "join": join, "residuum": residuum}
    if (obj["top"], obj["bottom"]) != (top, bottom) or any(
        key in obj and not np.array_equal(obj[key], table) for key, table in derived.items()
    ):
        return None
    algebra = d.FiniteDRL(obj["size"], leq, meet, join, otimes, residuum, top, bottom,
                          obj["name"])
    return algebra if d.check_axioms(algebra, "drl").ok else None


def _mutate(obj: dict, rng: random.Random) -> None:
    """Change one table entry, top or bottom, drop a derivable table, or
    write top or bottom as a JSON boolean (rarely)."""
    n = obj["size"]
    kind = rng.choice([0, 0, 0, 1, 1, 1, 2, 2, 2, 3])
    if kind == 0:
        key = rng.choice(["leq", "meet", "join", "otimes", "residuum"])
        if key in obj:
            x, y = rng.randrange(n), rng.randrange(n)
            old = obj[key][x][y]
            obj[key][x][y] = 1 - old if key == "leq" else (old + rng.randrange(1, n)) % n
    elif kind == 1:
        key = rng.choice(["top", "bottom"])
        obj[key] = (obj[key] + rng.randrange(1, n)) % n
    elif kind == 2:
        obj.pop(rng.choice(["meet", "join", "residuum"]), None)
    else:
        obj[rng.choice(["top", "bottom"])] = rng.choice([False, True])


def _load_or_none(text: str) -> d.FiniteDRL | None:
    try:
        return d.load_algebra(text)
    except (d.AlgebraError, ValueError):
        return None


class TestSingleValidator:
    """A validated load runs the drl laws on the file's own tables."""

    @pytest.fixture(scope="class")
    def bases(self):
        b, g3, l3, w4 = d.boolean(), d.godel_chain(3), d.lukasiewicz_chain(3), d.weighted(4)
        diamond = d.heyting_from_lattice(
            [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
        algebras = [b, g3, l3, w4, d.godel_chain(5), d.lukasiewicz_chain(4), d.weighted(1),
                    d.direct_product(b, b), d.direct_product(g3, l3),
                    d.direct_product(b, diamond), d.direct_product(l3, w4)]
        algebras += [d.heyting_from_lattice(leq) for _, leq in distributive_lattices(6)]
        return [a for a in algebras if a.size > 1]

    def test_accepts_what_derive_and_compare_accepts(self, bases):
        rng = random.Random(5005)
        accepted = refused = dropped = booleans = 0
        for _ in range(2000):
            obj = json.loads(d.save_algebra(rng.choice(bases)))
            for _ in range(rng.randrange(3)):
                _mutate(obj, rng)
            text = json.dumps(obj)
            if bool in (type(obj["top"]), type(obj["bottom"])):
                # The derive-and-compare load took false for 0 and true for 1.
                with pytest.raises(d.ParseError, match="must be an element id"):
                    d.load_algebra(text)
                booleans += 1
                continue
            expected, loaded = _reference_load(text), _load_or_none(text)
            if expected is None:
                assert loaded is None, text
                refused += 1
            else:
                assert loaded == expected, text
                assert d.save_algebra(loaded) == d.save_algebra(expected)
                accepted += 1
                dropped += len(obj) < 9
        assert accepted > 800 and refused > 800 and dropped > 200 and booleans > 50

    def test_full_file_derives_nothing(self, bases, monkeypatch):
        def derivation(*args):
            raise AssertionError("a table was derived on load")

        # Built before the patch: the weighted chain derives its own residuum.
        problem = d.gen_random_problem(d.weighted(4), 3, 2, 4, 2, seed=3)
        monkeypatch.setattr(algebra, "derive_lattice", derivation)
        monkeypatch.setattr(algebra, "residuum_from_tables", derivation)
        for a in bases:
            assert d.load_algebra(d.save_algebra(a)) == a
        assert d.load_problem(d.save_problem(problem)) == problem

    @pytest.mark.parametrize("base,field,message", [
        (d.boolean(), "top", "'top' must be an element id below 2"),
        (d.weighted(4), "bottom", "'bottom' must be an element id below 5"),
        (d.boolean(), "size", "'size' must be a positive integer"),
    ])
    def test_boolean_element_id_refused(self, base, field, message):
        # Each `false` would pass every drl law: as a numpy index it is an
        # empty mask, so top-greatest and bottom-least hold vacuously.
        obj = json.loads(d.save_algebra(base))
        obj[field] = False if field != "size" else True
        for validate in (True, False):
            with pytest.raises(d.ParseError) as from_file:
                d.load_algebra(json.dumps(obj), validate=validate)
            assert str(from_file.value) == message
        payload = json.dumps({"algebra": obj, "domains": [1], "constraints": []})
        with pytest.raises(d.ParseError) as inline_error:
            d.load_problem_raw(payload)
        assert str(inline_error.value) == message

    @pytest.mark.parametrize("inline,message", [
        ({"size": 0}, "'size' must be a positive integer"),
        ({"size": 2, "top": 1, "bottom": 0, "leq": [[1, 1], [0, 2]]},
         "'leq' entries must be 0 or 1"),
    ])
    def test_inline_algebra_errors_match_file_errors(self, inline, message):
        with pytest.raises(d.ParseError) as from_file:
            d.load_algebra(json.dumps(inline))
        payload = json.dumps({"algebra": inline, "domains": [1], "constraints": []})
        with pytest.raises(d.ParseError) as inline_error:
            d.load_problem_raw(payload)
        assert str(inline_error.value) == str(from_file.value) == message


# The constraint checks of the entry-by-entry loader, kept as the reference
# for the packed value check: each problem's refusal, or its tables.


def _reference_constraints(obj: dict, size: int) -> list[tuple[tuple, list]]:
    """The (scope, values) pairs of `obj`, whose algebra has `size`
    elements and whose domains are valid, or the loader's refusal."""
    domain_sizes = tuple(obj["domains"])
    n = len(domain_sizes)
    elements = frozenset(range(size))
    constraints = []
    for entry in obj["constraints"]:
        if not isinstance(entry, dict):
            raise d.ParseError("each constraint must be an object")
        scope = entry.get("scope")
        if not isinstance(scope, list) or any(type(v) is not int for v in scope):
            raise d.ScopeError("'scope' must be a list of variable ids")
        if any(not 0 <= v < n for v in scope):
            raise d.ScopeError(f"scope {scope} mentions unknown variables")
        if any(a >= b for a, b in zip(scope, scope[1:])):
            raise d.ScopeError(f"scope {scope} must be strictly increasing")
        expected = int(np.prod([domain_sizes[v] for v in scope]))
        if expected > formats.MAX_TABLE_ENTRIES:
            raise d.TooLarge(f"table for scope {scope} needs {expected} entries")
        values = entry.get("values")
        if not isinstance(values, list) or len(values) != expected:
            raise d.ParseError(f"scope {scope} needs exactly {expected} values")
        if set(map(type, values)) != {int} or not elements.issuperset(values):
            raise d.ValueOutOfRange(f"scope {scope} has values outside the algebra")
        constraints.append((tuple(scope), values))
    return constraints


# JSON tokens put in place of one table value; "size" is the algebra's size.
_VALUE_FAULTS = ["1.0", "1.5", "1e2", "true", "false", '"1"', "null", "[1]", "-1", "size",
                 "65535", "65536", str(2**63), str(2**64)]
# Faults of a whole constraint, refused after its values would be read;
# each takes the constraint list and the index of the one it changes.
_ENTRY_FAULTS = {
    "scope": lambda entries, i: entries[i].update(scope=entries[i]["scope"][::-1] + [0]),
    "unknown": lambda entries, i: entries[i].update(scope=[0, 9]),
    "length": lambda entries, i: entries[i]["values"].pop(),
    "object": lambda entries, i: entries.__setitem__(i, 1),
    "too large": lambda entries, i: entries[i].update(scope=[3, 4], values=[]),
    "boolean": lambda entries, i: entries[i]["values"].__setitem__(0, True),
}


def _value_fault_text(obj: dict, rng: random.Random, size: int) -> tuple[str, str]:
    """JSON text of `obj` with one or two faults in different constraints; name them."""
    entries = obj["constraints"]
    first, later = sorted(rng.sample(range(len(entries)), 2))
    if rng.random() < 0.5:  # an id out of range before a later refusal
        picks = [(first, rng.choice(["size", "65535"]))]
        kind = rng.choice(list(_ENTRY_FAULTS))
        _ENTRY_FAULTS[kind](entries, later)
        change = f"{picks[0][1]} before {kind}"
    else:
        picks = sorted((i, rng.choice(_VALUE_FAULTS)) for i in rng.sample([first, later], rng.randint(1, 2)))
        change = " then ".join(token for _, token in picks)
    for i, _ in picks:
        values = entries[i]["values"]
        values[rng.randrange(len(values))] = "@@"
    text = json.dumps(obj)
    for _, token in picks:  # the markers appear in constraint order
        text = text.replace('"@@"', str(size) if token == "size" else token, 1)
    return text, change


class TestPackedValueCheck:
    """Each table's values are packed by one struct call and range-tested
    once per load, with the outcome of the entry-by-entry checks: the same
    refusal, first in file order, or the same tables."""

    def test_mutated_values_match_the_entry_checks(self, tmp_path):
        rng = random.Random(2024)
        domains = [2, 3, 2, 1001, 1000]
        scopes = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2)]
        kinds = set()
        for alg in (d.boolean(), d.direct_product(d.lukasiewicz_chain(3), d.godel_chain(3))):
            algebra_obj = json.loads(d.save_algebra(alg))
            (tmp_path / "a.json").write_text(d.save_algebra(alg))
            for _ in range(150):
                named = rng.random() < 0.25  # a name holding `true`, with integer values
                inline = dict(algebra_obj, name="true-false") if named else algebra_obj
                known = dataclasses.replace(alg, name="true-false") if named else alg
                constraints = [
                    {"scope": list(s), "values": [rng.randrange(alg.size)
                                                  for _ in range(int(np.prod([domains[v] for v in s])))]}
                    for s in rng.sample(scopes, rng.randint(2, len(scopes)))
                ]
                obj = {"algebra": inline, "domains": domains, "constraints": constraints}
                if rng.random() < 0.9:
                    text, change = _value_fault_text(obj, rng, alg.size)
                else:
                    text, change = json.dumps(obj), "none"
                kinds.add(change)
                kinds.update(change.replace(" before ", " then ").split(" then "))
                decoded = json.loads(text)
                expected = _parse_outcome(lambda: _reference_constraints(decoded, alg.size))
                by_path = text.replace(json.dumps(inline), '"a.json"')
                (tmp_path / "p.json").write_text(by_path)
                for route, load in (
                    ("inline", lambda: d.load_problem_raw(text)),
                    ("path", lambda: d.load_problem_raw(by_path, base_dir=tmp_path)),
                    ("argument", lambda: d.load_problem_raw(text, known)),
                    ("sharing", lambda: formats._read_problem_raw_sharing(tmp_path / "p.json", alg)),
                ):
                    got = _parse_outcome(load)
                    if isinstance(got, d.RawProblem):
                        assert all(type(v) is int for c in got.constraints for v in c.values)
                        got = [(c.scope, c.values) for c in got.constraints]
                    assert got == expected, (route, change)
        assert {f"{t} before {k}" for t in ("size", "65535") for k in _ENTRY_FAULTS} <= kinds
        assert set(_VALUE_FAULTS) <= kinds and "none" in kinds

    def test_one_range_test_per_load(self, monkeypatch):
        calls = []
        frombuffer = np.frombuffer
        monkeypatch.setattr(formats.np, "frombuffer", lambda *args: calls.append(1) or frombuffer(*args))
        p = d.gen_random_problem(d.weighted(10), 6, 3, 12, 3, 5)
        assert d.load_problem_raw(d.save_problem(p)).algebra == p.algebra
        assert len(calls) == 1


class TestProblemRefusals:
    """Refusals of a problem's constraints, each with its exception type and message."""

    @staticmethod
    def _load(domains, constraints):
        text = json.dumps({"algebra": json.loads(d.save_algebra(d.boolean())),
                           "domains": domains, "constraints": constraints})
        return d.load_problem_raw(text)

    @pytest.mark.parametrize("constraints,message", [
        ({}, "'constraints' must be a list"),
        ([1], "each constraint must be an object"),
    ])
    def test_constraints_not_a_list_of_objects(self, constraints, message):
        with pytest.raises(d.ParseError) as info:
            self._load([2], constraints)
        assert type(info.value) is d.ParseError and str(info.value) == message

    def test_a_table_too_large_is_refused_before_its_values_are_read(self):
        with pytest.raises(d.TooLarge) as info:
            self._load([1001, 1000], [{"scope": [0, 1], "values": "unread"}])
        assert type(info.value) is d.TooLarge
        assert str(info.value) == "table for scope [0, 1] needs 1001000 entries"


class TestProblemRoundTrip:
    def test_save_load_identity(self, weighted_example):
        text = d.save_problem(weighted_example)
        loaded = d.load_problem(text)
        assert loaded == weighted_example
        assert d.save_problem(loaded) == text

    def test_raw_problem_saved_in_list_order(self, w10):
        raw = d.RawProblem(w10, (2, 2, 2), [
            d.Constraint((1, 2), [0, 1, 2, 3]),
            d.Constraint((0,), [0, 1]),
            d.Constraint((1, 2), [4, 5, 6, 7]),
            d.Constraint((0, 1), [8, 9, 10, 0]),
        ])
        text = d.save_problem(raw)
        obj = json.loads(text)
        assert [c["scope"] for c in obj["constraints"]] == [[1, 2], [0], [1, 2], [0, 1]]
        assert obj["algebra"] == json.loads(d.save_algebra(w10))
        loaded = d.load_problem_raw(text)
        assert loaded.constraints == raw.constraints
        assert d.save_problem(loaded) == text

    def test_duplicate_scopes_preserved_in_raw_mode(self, w10):
        payload = json.dumps({
            "algebra": json.loads(d.save_algebra(w10)),
            "domains": [2],
            "constraints": [
                {"scope": [0], "values": [0, 1]},
                {"scope": [0], "values": [2, 0]},
            ],
        })
        raw = d.load_problem_raw(payload)
        assert len(raw.constraints) == 2
        merged = d.load_problem(payload)
        assert merged.unary(0).values == [2, 1]

    def test_missing_unary_filled(self, w10):
        payload = json.dumps({
            "algebra": json.loads(d.save_algebra(w10)),
            "domains": [2, 2],
            "constraints": [{"scope": [0, 1], "values": [0, 1, 2, 3]}],
        })
        problem = d.load_problem(payload)
        assert problem.unary(0).values == [0, 0]
        assert problem.unary(1).values == [0, 0]

    def test_normalization_can_report_inconsistency(self, w4):
        payload = json.dumps({
            "algebra": json.loads(d.save_algebra(w4)),
            "domains": [2],
            "constraints": [{"scope": [0], "values": [4, 4]}],
        })
        assert d.load_problem(payload) is None
        assert len(d.load_problem_raw(payload).constraints) == 1

    def test_algebra_by_file_reference(self, tmp_path, w10, weighted_example):
        (tmp_path / "alg.json").write_text(d.save_algebra(w10))
        payload = json.dumps({
            "algebra": "alg.json",
            "domains": [2, 2],
            "constraints": [
                {"scope": [0], "values": [0, 1]},
                {"scope": [0, 1], "values": [2, 5, 0, 3]},
            ],
        })
        (tmp_path / "prob.json").write_text(payload)
        assert d.read_problem(tmp_path / "prob.json") == weighted_example

    def test_explicit_algebra_argument_wins(self, w10):
        payload = json.dumps({
            "domains": [2],
            "constraints": [{"scope": [0], "values": [0, 1]}],
        })
        problem = d.load_problem(payload, algebra=w10)
        assert problem.algebra == w10

    @pytest.mark.parametrize("constraint,error", [
        ({"scope": [1, 0], "values": [0, 0, 0, 0]}, d.ScopeError),
        ({"scope": [0, 0], "values": [0, 0, 0, 0]}, d.ScopeError),
        ({"scope": [0, 9], "values": [0, 0, 0, 0]}, d.ScopeError),
        ({"scope": [0], "values": [0]}, d.ParseError),
        ({"scope": [0], "values": [0, 99]}, d.ValueOutOfRange),
        ({"scope": [0], "values": [-1, 0]}, d.ValueOutOfRange),
        ({"scope": [0], "values": [0, 1.0]}, d.ValueOutOfRange),
    ])
    def test_constraint_validation(self, w10, constraint, error):
        payload = json.dumps({
            "algebra": json.loads(d.save_algebra(w10)),
            "domains": [2, 2],
            "constraints": [constraint],
        })
        with pytest.raises(error):
            d.load_problem(payload)

    @pytest.mark.parametrize("field,value,error,message", [
        ("values", [True, 2], d.ValueOutOfRange, "scope [0] has values outside the algebra"),
        ("scope", [True], d.ScopeError, "'scope' must be a list of variable ids"),
        ("domains", [True, 2], d.ParseError,
         "'domains' must be a nonempty list of positive sizes"),
    ])
    def test_json_booleans_rejected(self, w10, field, value, error, message):
        obj = {
            "algebra": json.loads(d.save_algebra(w10)),
            "domains": [2, 2],
            "constraints": [{"scope": [0], "values": [0, 1]}],
        }
        if field == "domains":
            obj["domains"] = value
        else:
            obj["constraints"][0][field] = value
        with pytest.raises(error) as info:
            d.load_problem_raw(json.dumps(obj))
        assert str(info.value) == message

    def test_domains_past_the_unary_cap_refused_before_allocating(self, w10):
        # Normalizing would build a top-filled unary table of 1.2 * 10^6
        # entries in all, for two variables no constraint mentions.
        text = json.dumps({
            "algebra": json.loads(d.save_algebra(w10)),
            "domains": [600_000, 600_000],
            "constraints": [],
        })
        for load in (d.load_problem_raw, d.load_problem):
            tracemalloc.start()
            try:
                with pytest.raises(d.TooLarge) as info:
                    load(text)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
            assert str(info.value) == "unary tables of 1200000 entries exceed the cap 1000000"

    def test_domains_at_the_unary_cap_load(self, w10):
        text = json.dumps({
            "algebra": json.loads(d.save_algebra(w10)),
            "domains": [500_000, 500_000],
            "constraints": [],
        })
        assert d.load_problem_raw(text).domain_sizes == (500_000, 500_000)


class TestCarrierCap:
    def test_oversized_algebra_refused_before_tables_are_read(self, godel3, monkeypatch):
        monkeypatch.setattr(algebra, "CARRIER_CAP", 2)
        with pytest.raises(d.SizeOverflow):
            d.load_algebra(d.save_algebra(godel3))
        # The cap is checked first: malformed tables are never looked at.
        with pytest.raises(d.SizeOverflow):
            d.load_algebra(json.dumps({"size": 3, "top": 2, "bottom": 0}), validate=False)
        # orjson reads a size past 64 bits as a float; it is still over the cap.
        with pytest.raises(d.SizeOverflow):
            d.load_algebra(json.dumps({"size": 2**64, "top": 0, "bottom": 0}))
        monkeypatch.setattr(algebra, "CARRIER_CAP", 3)
        assert d.load_algebra(d.save_algebra(godel3)) == godel3

    def test_cli_exits_with_the_algebra_error_code(self, godel3, tmp_path, monkeypatch, capsys):
        path = tmp_path / "godel3.json"
        path.write_text(d.save_algebra(godel3))
        monkeypatch.setattr(algebra, "CARRIER_CAP", 2)
        assert main(["algebra", "check", str(path)]) == 3
        assert "exceeds the cap 2" in capsys.readouterr().err


class TestGenerator:
    def test_same_seed_same_problem(self, w10):
        a = d.gen_random_problem(w10, 4, 3, 7, 3, 42)
        b = d.gen_random_problem(w10, 4, 3, 7, 3, 42)
        assert a == b
        assert a != d.gen_random_problem(w10, 4, 3, 7, 3, 43)

    def test_unary_only_problem_is_vacuously_consistent(self, w10):
        p = d.gen_random_problem(w10, 3, 2, 3, 2, 5)
        assert sorted(p.constraints) == [(0,), (1,), (2,)]
        assert d.is_k_hyperarc_consistent(p, 2) is None

    def test_unary_values_never_bottom(self, w4):
        for seed in range(20):
            p = d.gen_random_problem(w4, 4, 3, 8, 3, seed)
            for var in range(4):
                assert all(v != w4.bottom for v in p.unary(var).values)

    def test_not_enough_scopes(self, w10):
        with pytest.raises(d.NotEnoughScopes):
            d.gen_random_problem(w10, 2, 2, 5, 2, 0)

    # Each case is refused before the work it bounds: the peak allocation
    # stays far below one table of over 10^6 entries, four tables of
    # exactly 10^6, or a pool of about 10^9 scopes.
    @pytest.mark.parametrize("args", [
        (2, 1001, 3, 2, 0),
        (2, 1_000_001, 2, 2, 0),
        (3, 400_000, 3, 2, 0),
        (400, 2, 401, 4, 0),
        (1000, 1000, 1004, 2, 0),
    ], ids=["table", "unary-table", "unary-tables", "scope-pool", "drawn-tables"])
    def test_too_large_refused_before_allocating(self, w10, args):
        tracemalloc.start()
        try:
            with pytest.raises(d.TooLarge):
                d.gen_random_problem(w10, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("args", [
        (0, 2, 3, 2, 0),
        (3, 0, 3, 2, 0),
        (3, 2, 2, 2, 0),
        (3, 2, 5, 1, 0),
        (3, 2, 5, 4, 0),
        (3, 2, 5, 2, -1),
        (3, 2, 5, 2, 2**64),
    ])
    def test_bad_params(self, w10, args):
        with pytest.raises(ValueError):
            d.gen_random_problem(w10, *args)

    # Algebra size 2 (one non-bottom element), d=1, max_arity == n, seeds
    # at both ends of the state space, and the enforce-large shape.
    @pytest.mark.parametrize("make, shapes", [
        (d.boolean, [(3, 2, 6, 3), (4, 1, 9, 4), (2, 3, 3, 2)]),
        (lambda: d.weighted(3), [(5, 1, 12, 3), (3, 4, 7, 3)]),
        (lambda: d.lukasiewicz_chain(6), [(4, 3, 11, 4), (6, 2, 20, 3)]),
        (lambda: d.direct_product(d.godel_chain(3), d.weighted(4)), [(4, 3, 8, 3), (5, 2, 15, 5)]),
        (lambda: d.weighted(10), [(30, 10, 200, 3)]),
    ])
    def test_block_draws_match_the_scalar_reference(self, make, shapes):
        algebra = make()
        for n, dom, e, max_arity in shapes:
            for seed in (0, 1, 17, 2**63, 2**64 - 1):
                problem = d.gen_random_problem(algebra, n, dom, e, max_arity, seed)
                reference = scalar_gen_random_problem(algebra, n, dom, e, max_arity, seed)
                assert d.save_problem(problem) == d.save_problem(reference)

    def test_largest_table_matches_the_reference_within_memory(self):
        # One 10^6-entry table: the read-ahead block, the drawn values and
        # the list of Python ints are alive together.
        algebra = d.weighted(3)
        tracemalloc.start()
        try:
            problem = d.gen_random_problem(algebra, 2, 1000, 3, 2, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20
        assert problem == scalar_gen_random_problem(algebra, 2, 1000, 3, 2, 0)

    def test_generated_batch_round_trips_through_loader(self):
        algebra = d.weighted(8)
        for seed in range(10):
            p = d.gen_random_problem(algebra, 4, 3, 7, 3, seed)
            text = d.save_problem(p)
            assert d.load_problem(text) == p


# ---------------------------------------------------------------------------
# The orjson codec against stdlib json

_DEEP = "[" * 200_000 + "]" * 200_000


def _json_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _list_payload(algebra: d.FiniteDRL) -> dict:
    """The algebra payload with every table as nested lists of ints."""
    payload = {key: getattr(algebra, key) for key in ("name", "size", "top", "bottom")}
    payload["leq"] = algebra.leq.astype(np.uint8).tolist()
    for key in ("meet", "join", "otimes", "residuum"):
        payload[key] = getattr(algebra, key).tolist()
    return payload


def _codec_algebras():
    b, g3, l4, w3 = d.boolean(), d.godel_chain(3), d.lukasiewicz_chain(4), d.weighted(3)
    return [
        b, g3, l4, w3, d.godel_chain(2), d.lukasiewicz_chain(7), d.weighted(1),
        *(d.heyting_from_lattice(leq) for _, leq in distributive_lattices(5)),
        d.direct_product(b, b), d.direct_product(g3, l4), d.direct_product(l4, w3),
        d.direct_product(d.direct_product(b, g3), w3),
    ]


_NAMES = ["Łuk", "é", "\x7f", "😀", "\ud800", "\x00\x01\x1f\b\t\n\f\r", 'a "quoted" \\ name', "~"]


class TestCanonicalWriter:
    """orjson writes the text json.dumps would, byte for byte."""

    @pytest.mark.parametrize("algebra", _codec_algebras(), ids=lambda a: a.name)
    def test_algebras(self, algebra):
        assert d.save_algebra(algebra) == _json_canonical(_list_payload(algebra))

    @pytest.mark.parametrize("name", _NAMES, ids=ascii)
    def test_names(self, name):
        algebra = dataclasses.replace(d.lukasiewicz_chain(3), name=name)
        text = d.save_algebra(algebra)
        assert text == _json_canonical(_list_payload(algebra))
        assert text.isascii()
        assert d.load_algebra(text).name == name

    def test_generated_problems(self):
        for seed, algebra in enumerate(_codec_algebras()):
            if algebra.size < 2:
                continue
            problem = d.gen_random_problem(algebra, 4, 3, 8, 3, seed)
            payload = {
                "algebra": _list_payload(algebra),
                "domains": list(problem.domain_sizes),
                "constraints": [{"scope": list(c.scope), "values": list(c.values)}
                                for c in iter_constraints(problem)],
            }
            assert d.save_problem(problem) == _json_canonical(payload)

    @pytest.mark.parametrize("big", _BIG_INTS)
    def test_integers_past_64_bits(self, big):
        payload = {"size": big, "rows": [[0, big], [-big, 1]], "name": "x"}
        assert formats._canonical(payload) == _json_canonical(payload)

    def test_non_contiguous_array(self):
        table = np.arange(6).reshape(2, 3).T
        assert not table.flags.c_contiguous
        assert formats._canonical({"t": table}) == _json_canonical({"t": table.tolist()})

    def test_unserialisable_value_raises_type_error(self):
        with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
            formats._canonical({"values": {1}})


def _marked(obj: dict, path: tuple) -> str:
    """JSON text of `obj` with the value at `path` replaced by the marker @@."""
    obj = json.loads(json.dumps(obj))
    *head, last = path
    inner = obj
    for key in head:
        inner = inner[key]
    inner[last] = "@@"
    return json.dumps(obj)


def _outcome(load, text: str):
    """The loaded value with its algebra's name, or the exception type and message."""
    try:
        value = load(text)
    except Exception as exc:  # every refusal is compared
        return type(exc), str(exc)
    algebra = value if isinstance(value, d.FiniteDRL) else value.algebra
    return value, algebra.name


def _refuse(*args, **kwargs):
    raise orjson.JSONDecodeError("refused", "", 0)


# JSON tokens that orjson and json decode differently, plus two that
# they decode alike (2**63 and 1.5) as a control.
_TOKENS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", str(2**64), str(-(2**63) - 1),
           str(10**30), str(2**63), "1.5", '"\\ud800"']

_BASE_ALGEBRA = d.save_algebra(d.direct_product(d.boolean(), d.godel_chain(3)))
_BASE_PROBLEM = {
    "algebra": json.loads(_BASE_ALGEBRA),
    "domains": [2, 3],
    "constraints": [{"scope": [0], "values": [1, 5]}, {"scope": [0, 1], "values": [0, 1, 2, 3, 4, 5]}],
}


class TestStdlibReference:
    """Each load gives what it would with json alone: the same value, or
    the same exception and message."""

    def _assert_same(self, monkeypatch, load, texts):
        outcomes = [_outcome(load, text) for text in texts]
        with monkeypatch.context() as m:
            m.setattr(formats.orjson, "loads", _refuse)
            reference = [_outcome(load, text) for text in texts]
        for text, got, want in zip(texts, outcomes, reference):
            assert got == want, text

    @pytest.mark.parametrize("path", [
        ("size",), ("top",), ("bottom",), ("name",), ("leq", 1, 0), ("meet", 0, 0),
        ("join", 2, 3), ("otimes", 5, 5), ("residuum", 0, 1), ("extra",),
    ], ids=str)
    def test_algebra_fields(self, monkeypatch, path):
        marked = _marked(json.loads(_BASE_ALGEBRA), path)
        self._assert_same(monkeypatch, d.load_algebra,
                          [marked.replace('"@@"', token) for token in _TOKENS])

    @pytest.mark.parametrize("path", [
        ("domains", 0), ("domains", 1), ("constraints", 0, "scope", 0),
        ("constraints", 1, "scope", 1), ("constraints", 0, "values", 1),
        ("constraints", 1, "values", 0), ("algebra", "size"), ("algebra", "name"),
        ("algebra", "otimes", 1, 1), ("algebra", "leq", 0, 5), ("extra",),
    ], ids=str)
    def test_problem_fields(self, monkeypatch, path):
        marked = _marked(_BASE_PROBLEM, path)
        self._assert_same(monkeypatch, d.load_problem_raw,
                          [marked.replace('"@@"', token) for token in _TOKENS])

    @pytest.mark.parametrize("load,text", [
        (d.load_algebra, _BASE_ALGEBRA), (d.load_problem_raw, json.dumps(_BASE_PROBLEM)),
    ], ids=["algebra", "problem"])
    def test_whole_texts(self, monkeypatch, load, text):
        texts = [
            text, "  \n" + text + "\t", text[:-10], "{nope", "", "null", "[]", "1",
            text + " x", text + "{}", text.rstrip() + "]", "﻿" + text,
            text.replace('"', "'"), text.replace(":", ": ", 3), text.replace("1", "\ud800", 1),
            text.replace("[", "[\x00", 1),
        ]
        self._assert_same(monkeypatch, load, texts)

    def test_refused_document_builds_once(self, monkeypatch):
        # Without a run of 19 digits json would decode the text alike, so a
        # refusal is not retried and the inline algebra is validated once.
        calls = []

        def counted(*args):
            calls.append(args)
            return d.check_axioms(*args)

        monkeypatch.setattr(formats, "check_axioms", counted)
        obj = json.loads(json.dumps(_BASE_PROBLEM))
        obj["constraints"][0]["values"] = [1]
        with pytest.raises(d.ParseError, match="needs exactly 2 values"):
            d.load_problem_raw(json.dumps(obj))
        assert len(calls) == 1


class TestDeepNesting:
    def test_api_refuses_with_a_parse_error(self):
        for load in (d.load_problem_raw, d.load_algebra):
            with pytest.raises(d.ParseError, match="^invalid JSON: maximum recursion depth"):
                load(_DEEP)

    def test_too_many_brackets_never_reach_orjson(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("orjson decoded a text past the bracket bound")

        expected = d.load_problem_raw(json.dumps(_BASE_PROBLEM))
        monkeypatch.setattr(formats.orjson, "loads", fail)
        wide = dict(_BASE_PROBLEM, extra=[[]] * formats._ORJSON_MAX_NESTING)
        assert d.load_problem_raw(json.dumps(wide)) == expected
        with pytest.raises(d.ParseError, match="^invalid JSON: maximum recursion depth"):
            d.load_problem_raw(_DEEP)

    @pytest.mark.parametrize("depth,open_,close", [
        (formats._ORJSON_MAX_NESTING, "[", "]"),
        (formats._ORJSON_MAX_NESTING // 3, '{"a":', "}"),
    ], ids=["arrays", "objects"])
    def test_bound_fits_half_a_small_thread_stack(self, depth, open_, close):
        # The deepest texts orjson may decode, in a thread with a 1 MiB
        # stack, twice what the bound allows for.
        text = open_ * depth + "0" + close * depth
        depths = []

        def decode():
            obj, level = formats._decoded(text, lambda obj, typed: obj), 0
            while obj != 0:
                obj, level = (obj[0] if isinstance(obj, list) else obj["a"]), level + 1
            depths.append(level)

        old = threading.stack_size(1 << 20)
        try:
            thread = threading.Thread(target=decode)
            thread.start()
            thread.join()
        finally:
            threading.stack_size(old)
        assert depths == [depth]
