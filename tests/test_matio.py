import functools
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import census_json

from yangbaxter import matrices, oracle
from yangbaxter.errors import ParseError
from yangbaxter.matio import (
    census_from_json,
    census_to_json,
    dumps_census,
    dumps_json,
    dumps_matrix,
    format_jordan,
    load_matrix,
    loads_matrix,
    matrix_from_json,
    matrix_to_json,
    parse_jordan,
    save_matrix,
)
from yangbaxter.fields import Field
from yangbaxter.matrices import Matrix, jordan_matrix


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=30)


@settings(max_examples=100, deadline=None)
@given(value=JSON_VALUES)
def test_dumps_json_is_the_stdlib_indented_encoding(value):
    """Nested dicts with str keys, lists, tuples, empty containers, strings
    with non-ASCII and escaped characters, ints, floats (nan and infinities
    included), bools and None come out as json.dumps(indent=2) writes them."""
    assert dumps_json(value) == json.dumps(value, indent=2)


def test_dumps_json_refuses_what_it_cannot_write():
    with pytest.raises(TypeError):
        dumps_json({1: "int key"})
    with pytest.raises(TypeError):
        dumps_json([{1, 2}])


def test_matrix_round_trip_all_fields(rat, gf5, quad2):
    samples = [
        Matrix.from_rows(rat, [[1, 2], [3, 4]]),
        Matrix.from_rows(rat, [[rat.parse("-3/4"), rat.parse("10/7")]]),
        Matrix.from_rows(gf5, [[0, 1], [4, 2]]),
        Matrix.from_rows(quad2, [[quad2.parse("1/2+3*s"), quad2.parse("-2*s")]]),
    ]
    for m in samples:
        assert loads_matrix(dumps_matrix(m)) == m


@pytest.mark.parametrize("spec, rows", [
    ("rat", [["1", "-3/4", "0"], ["1000003/7", "2", "-1"]]),
    ("gf:5", [["0", "4"], ["3", "1"]]),
    ("quad:1/2", [["1/2+3*s", "-2*s"], ["0", "-7/3-1/5*s"]]),
])
def test_save_and_load_matrix_round_trip(tmp_path, spec, rows):
    field = Field.from_spec(spec)
    m = Matrix.from_rows(field, [[field.parse(v) for v in row] for row in rows])
    path = tmp_path / "m.json"
    save_matrix(str(path), m)
    assert path.read_text(encoding="utf-8") == dumps_matrix(m)
    again = load_matrix(str(path))
    assert again == m and again.field is field


@pytest.mark.parametrize("text", ['{"field": "rat", "rows": [["1", "2"]', '{"field": "quad:1/2"}',
                                  '{"field": "gf:5", "rows": [["1/2"]]}',
                                  '{"field": 5, "rows": [["1"]]}'])
def test_load_matrix_of_a_malformed_file_is_a_parse_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        load_matrix(str(path))


def test_load_and_save_on_a_missing_path_are_parse_errors(tmp_path, rat):
    with pytest.raises(ParseError, match="cannot read"):
        load_matrix(str(tmp_path / "missing.json"))
    with pytest.raises(ParseError, match="cannot write"):
        save_matrix(str(tmp_path / "nowhere" / "m.json"), Matrix.identity(rat, 1))


def test_matrix_json_shape(rat):
    doc = matrix_to_json(Matrix.from_rows(rat, [[1, rat.parse("-3/4")]]))
    assert doc == {"field": "rat", "rows": [["1", "-3/4"]]}


def test_malformed_json_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        loads_matrix('{"field": "rat",\n "rows": [[}')
    assert err.value.line == 2 and err.value.column is not None


def test_bad_entry_reports_row_and_col():
    with pytest.raises(ParseError) as err:
        loads_matrix('{"field": "rat", "rows": [["1", "x"], ["2", "3"]]}')
    assert (err.value.row, err.value.col) == (0, 1)


def test_strictness():
    with pytest.raises(ParseError):
        matrix_from_json({"field": "rat", "rows": [["1"]], "extra": 1})
    with pytest.raises(ParseError):
        matrix_from_json({"field": "rat"})
    with pytest.raises(ParseError):
        matrix_from_json({"field": "rat", "rows": [["1"], ["2", "3"]]})
    with pytest.raises(ParseError):
        matrix_from_json({"field": "rat", "rows": [[1]]})
    for spec, message in (("gf:6", "modulus must be prime"), ("quad:4", "degenerate")):
        with pytest.raises(ParseError, match=message):  # a FieldError of Field.from_spec
            matrix_from_json({"field": spec, "rows": [["1"]]})


@pytest.mark.parametrize("spec, rows, message", [
    ("rat", [["1", "1/0"]], "bad rational '1/0' (row 0, col 1)"),
    ("rat", [["1.5"]], "bad rational '1.5' (row 0, col 0)"),
    ("rat", [["0", "--1"]], "bad rational '--1' (row 0, col 1)"),
    ("rat", [["1/-2"]], "bad rational '1/-2' (row 0, col 0)"),
    ("rat", [["2"], ["+"]], "bad rational '+' (row 1, col 0)"),
    ("rat", [["1_0"]], "bad rational '1_0' (row 0, col 0)"),
    ("rat", [["1 2"]], "bad rational '1 2' (row 0, col 0)"),
    ("rat", [["1", 2]], "entry must be a string, got 2 (row 0, col 1)"),
    ("rat", [[None]], "entry must be a string, got None (row 0, col 0)"),
    ("rat", [[1.5]], "entry must be a string, got 1.5 (row 0, col 0)"),
    ("rat", [["1", "2"], ["3"]], "ragged rows (row 1, col 1)"),
    ("rat", [["1"], ["2", "3"]], "ragged rows (row 1, col 2)"),
    ("gf:5", [["1", "1/2"]], "bad residue '1/2' (row 0, col 1)"),
    ("gf:7", [["\u2212"]], "bad residue '\u2212' (row 0, col 0)"),
    ("quad:2", [["0", "1+s+s"]], "bad quadratic scalar '1+s+s' (row 0, col 1)"),
    ("quad:2", [["1/0*s"]], "bad quadratic scalar '1/0*s' (row 0, col 0)"),
])
def test_matrix_loader_rejects_with_message_row_and_col(spec, rows, message):
    """Each cell is parsed once, straight to its raw value; what fails names
    the entry's row and column, as it did when cells were boxed as scalars."""
    with pytest.raises(ParseError) as err:
        matrix_from_json({"field": spec, "rows": rows})
    assert str(err.value) == message
    assert f"(row {err.value.row}, col {err.value.col})" in message


@pytest.mark.parametrize("spec, cell, raw", [
    ("rat", "+3", Fraction(3)), ("rat", "007", Fraction(7)), ("rat", "\u22123/4", Fraction(-3, 4)),
    ("rat", " 7/14 ", Fraction(1, 2)), ("gf:5", "\u22121", 4), ("gf:5", "+007", 2),
    ("quad:2", "\u22121/2\u22123*s", (Fraction(-1, 2), Fraction(-3))),
    ("quad:2", "+3*s", (Fraction(0), Fraction(3))),
])
def test_matrix_loader_accepts_signs_leading_zeros_and_the_unicode_minus(spec, cell, raw):
    """Raw values compare by repr, so an int where a Fraction belongs fails."""
    m = matrix_from_json({"field": spec, "rows": [[cell]]})
    assert repr(m.raw) == repr((raw,))


@functools.cache
def raw_values(spec: str):
    """Raw inputs of ``Field.scalar`` in this field."""
    fractions = st.builds(Fraction, st.integers(-10**7, 10**7), st.integers(1, 10**6))
    if spec.startswith("gf:"):
        return st.integers(-10**12, 10**12)
    return fractions if spec == "rat" else st.tuples(fractions, fractions)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_loader_equals_the_scalar_path(data):
    """A matrix written by ``dumps_matrix`` loads as ``from_rows`` over the
    cells' parsed scalars builds it, on every field kind."""
    spec = data.draw(st.sampled_from(["rat", "gf:2", "gf:5", "gf:1000000007",
                                      "quad:2", "quad:-1", "quad:1/2"]))
    field = Field.from_spec(spec)
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    cells = data.draw(st.lists(raw_values(spec), min_size=nrows * ncols, max_size=nrows * ncols))
    m = Matrix(field, nrows, ncols, cells)
    text = dumps_matrix(m)
    scalar_path = Matrix.from_rows(field, [[field.parse(cell) for cell in row]
                                           for row in json.loads(text)["rows"]])
    loaded = loads_matrix(text)
    assert loaded == scalar_path == m and loaded.field is field
    assert repr(loaded.raw) == repr(scalar_path.raw)


def test_jordan_shorthand(gf3, rat):
    spec = parse_jordan(gf3, "0^3,1^2")
    assert spec.dimension == 5
    assert format_jordan(spec) == "0^3,1^2"
    single = parse_jordan(rat, "2")
    assert single.blocks[0][1] == 1
    with pytest.raises(ParseError):
        parse_jordan(rat, "1^0")
    with pytest.raises(ParseError):
        parse_jordan(rat, "")


def pinned_censuses():
    """Censuses of one block over GF(5), of two blocks of distinct sizes,
    of the centralizer, of a coefficient with no block structure, of 2^1,
    whose nonzero solution has an empty kernel, and a report with no
    solutions at all."""
    gf3 = Field.gf(3)
    yield small_census("gf:5", "1^3", False)
    yield small_census("gf:3", "1^1,2^2", False)
    yield small_census("gf:3", "1^2,1^2", True)
    yield oracle.enumerate_solutions(Matrix.from_rows(gf3, [[1, 1], [0, 2]]))
    yield small_census("gf:3", "2^1", False)
    yield oracle.CensusReport(Matrix.zero(gf3, 2), False, ())


def test_census_writer_is_the_stdlib_writer_of_one_document_per_solution():
    """The census text written from the row table is byte for byte the
    stdlib's indented JSON of the document that holds one matrix_to_json
    per solution, with and without extra keys; the census/1 document is
    that text parsed."""
    totals = []
    for report in pinned_censuses():
        checks = {"run": 3, "failed": 1, "failures": [{"name": "x", "note": "y"}]}
        assert dumps_census(report) == census_json(report)
        assert dumps_census(report, theorem_checks=checks) == census_json(
            report, theorem_checks=checks)
        assert dumps_json(census_to_json(report)) == census_json(report)
        totals.append(report.total)
    assert totals == [27, 30, 110, 8, 2, 0]


def test_census_round_trip(gf2):
    spec = parse_jordan(gf2, "0^2")
    rep = oracle.enumerate_solutions(jordan_matrix(gf2, spec), jordan=spec)
    doc = json.loads(json.dumps(census_to_json(rep)))
    again = census_from_json(doc)
    assert again == rep and again.solutions == rep.solutions
    assert again.by_rank == rep.by_rank
    assert again.by_kernel == rep.by_kernel
    assert again.family_tallies == rep.family_tallies
    assert again.commuting_only == rep.commuting_only
    assert census_from_json(dict(doc, theorem_checks={"run": 0})) == rep
    with pytest.raises(ParseError, match="census extra does not match"):
        census_from_json(dict(doc, extra=1))


def test_census_schema_is_stable(gf2):
    spec = parse_jordan(gf2, "0^2")
    rep = oracle.enumerate_solutions(jordan_matrix(gf2, spec), jordan=spec)
    doc = census_to_json(rep)
    assert doc["schema"] == "census/1"
    assert doc["total"] == 6
    assert set(doc) >= {"field", "coefficient", "by_rank", "by_kernel", "solutions"}
    with pytest.raises(ParseError):
        census_from_json({"schema": "census/2"})


@pytest.mark.parametrize("key", ["field", "coefficient", "commuting_only", "solutions",
                                 "by_rank", "by_kernel", "total"])
def test_census_missing_key_is_a_parse_error(gf2, key):
    """A document without a key that the report writes is not what the
    report writes; one without its coefficient has no census to search."""
    spec = parse_jordan(gf2, "0^2")
    doc = census_to_json(oracle.enumerate_solutions(jordan_matrix(gf2, spec), jordan=spec))
    del doc[key]
    message = {"coefficient": "matrix document must be a JSON object",
               "commuting_only": "census commuting_only has the wrong JSON type"}
    with pytest.raises(ParseError, match=message.get(key, f"census {key} does not match")):
        census_from_json(doc)


def test_census_family_tags_must_match_the_solutions(gf2):
    """A census/1 document with one tag dropped would load as 6 solutions
    with 5 tags and be written back misaligned; it is refused instead."""
    spec = parse_jordan(gf2, "0^2")
    rep = oracle.enumerate_solutions(jordan_matrix(gf2, spec), jordan=spec)
    doc = census_to_json(rep)
    assert census_from_json(doc).family_tags == tuple(doc["family_tags"])
    doc["family_tags"] = doc["family_tags"][:-1]
    with pytest.raises(ParseError, match="family_tags"):
        census_from_json(doc)


def test_census_family_tallies_must_match_the_tags(gf2):
    """A report's family tallies are derived from its tags, so a document
    whose tallies say otherwise would be written back with other tallies;
    it is refused instead, and so is one with tallies but no tags, which
    the report derives from its solutions."""
    spec = parse_jordan(gf2, "0^2")
    rep = oracle.enumerate_solutions(jordan_matrix(gf2, spec), jordan=spec)
    doc = census_to_json(rep)
    assert census_from_json(doc).family_tallies == doc["family_tallies"]
    for key, forged in (("family_tallies", dict(doc, family_tallies={"jordan2-nilpotent": 99})),
                        ("family_tags", {k: v for k, v in doc.items() if k != "family_tags"})):
        with pytest.raises(ParseError, match=f"census {key} does not match"):
            census_from_json(forged)


def test_census_coefficient_must_lie_over_the_census_field(gf2, gf3):
    """A gf:2 document whose coefficient is over gf:3 is not a census: its
    block structure is read over the coefficient's field, so the census of
    gf:3 is searched, and the document's field is not that census's."""
    spec = parse_jordan(gf2, "0^2")
    rep = oracle.enumerate_solutions(jordan_matrix(gf2, spec), jordan=spec)
    coefficient = matrix_to_json(jordan_matrix(gf3, parse_jordan(gf3, "0^2")))
    doc = dict(census_to_json(rep), coefficient=coefficient)
    assert doc["jordan"] == "0^2"
    with pytest.raises(ParseError, match="census field does not match"):
        census_from_json(doc)


def test_census_rank_and_kernel_tallies_must_be_the_solutions(gf2):
    """A gf:2 0^2 document whose by_rank and by_kernel were forged, with
    every tag set to zero and its family tallies adjusted to match, would
    be written back with the forged tallies; it is refused instead. So is
    a document listing a non-solution in place of a solution."""
    spec = parse_jordan(gf2, "0^2")
    rep = oracle.enumerate_solutions(jordan_matrix(gf2, spec), jordan=spec)
    doc = census_to_json(rep)
    assert census_from_json(doc).by_rank == rep.by_rank
    forged = dict(doc, by_rank={"0": 99}, by_kernel={"other": 7},
                  family_tags=["zero"] * doc["total"],
                  family_tallies={"unmatched": 0, "zero": doc["total"]})
    with pytest.raises(ParseError, match="census by_rank does not match"):
        census_from_json(forged)
    for key, value in (("by_rank", {"0": 99}), ("by_kernel", {"other": 7})):
        with pytest.raises(ParseError, match=f"census {key} does not match"):
            census_from_json(dict(doc, **{key: value}))
    identity = matrix_to_json(Matrix.identity(gf2, 2))
    with pytest.raises(ParseError, match="census solutions does not match"):
        census_from_json(dict(doc, solutions=[identity, *doc["solutions"][1:]]))


@pytest.mark.parametrize("key, value", [
    ("jordan", 5), ("jordan", ["0^2"]), ("solutions", 5), ("solutions", {"0": 1}),
    ("commuting_only", "no"), ("commuting_only", 0), ("field", 5),
    ("by_rank", {"x": 1}), ("by_rank", {"0": 1.0, "1": 5.0}), ("by_kernel", 5),
    ("total", "6"), ("total", 6.0),
])
def test_census_document_of_a_wrong_type_is_a_parse_error(gf2, key, value):
    """A census document whose key holds a value of the wrong JSON type,
    a float for an int included, is refused with a ParseError, never loaded
    through a cast or an equal number, nor crashed on."""
    spec = parse_jordan(gf2, "0^2")
    doc = census_to_json(oracle.enumerate_solutions(jordan_matrix(gf2, spec), jordan=spec))
    with pytest.raises(ParseError, match=key):
        census_from_json(dict(doc, **{key: value}))


@functools.cache
def small_census(spec: str, shorthand: str, commuting: bool):
    field = Field.from_spec(spec)
    jordan = parse_jordan(field, shorthand)
    enum = oracle.enumerate_commuting_solutions if commuting else oracle.enumerate_solutions
    return enum(jordan_matrix(field, jordan), jordan=jordan)


@st.composite
def small_censuses(draw):
    """A census over GF(2) or GF(3) of a block structure of dimension at
    most 3, full or commuting."""
    p = draw(st.sampled_from([2, 3]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                 .filter(lambda s: sum(s) <= 3))
    shorthand = ",".join(f"{draw(st.integers(0, p - 1))}^{k}" for k in sizes)
    return small_census(f"gf:{p}", shorthand, draw(st.booleans()))


def forge(value):
    """A JSON value other than ``value``, of its type where it has one."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        return {**value, "forged": 1}
    if isinstance(value, list):
        return [*value[:-1], "forged"]
    return ["forged"]


@settings(max_examples=40, deadline=None)
@given(rep=small_censuses(), data=st.data())
def test_census_document_is_loaded_by_rederiving_it(rep, data):
    """A census document round-trips through JSON to an equal report, and a
    document with any one derived key forged, two differing tags swapped, a
    solution dropped or listed twice, or the commuting flag set on a census
    with a non-commuting solution is refused; set on one whose solutions
    all commute, it is that census. A 5 x 5 coefficient is refused by the
    budget before any screen, and a block structure of another dimension
    before its Jordan matrix is built."""
    doc = json.loads(json.dumps(census_to_json(rep)))
    assert census_from_json(doc) == rep
    key = data.draw(st.sampled_from(
        ["total", "by_rank", "by_kernel", "family_tallies", "family_tags"]))
    with pytest.raises(ParseError, match=f"census {key} does not match"):
        census_from_json(dict(doc, **{key: forge(doc.get(key))}))
    tags = doc.get("family_tags") or []
    if len(set(tags)) > 1:
        i = next(k for k, t in enumerate(tags) if t != tags[0])
        swapped = [tags[i], *tags[1:i], tags[0], *tags[i + 1:]]
        with pytest.raises(ParseError, match="census family_tags does not match"):
            census_from_json(dict(doc, family_tags=swapped))
    for solutions in (rep.solutions[1:], rep.solutions + rep.solutions[-1:]):
        with pytest.raises(ParseError, match="census total does not match"):
            census_from_json(census_to_json(replace(rep, solutions=solutions)))
    if not rep.commuting_only:
        a = rep.coefficient
        flagged = dict(doc, commuting_only=True)
        if all(a * x == x * a for x in rep.solutions):
            assert census_from_json(flagged) == small_census(
                rep.field.spec(), format_jordan(rep.jordan), True)
        else:
            with pytest.raises(ParseError, match="census total does not match"):
                census_from_json(flagged)
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((oracle, "_screen_batch"), (oracle, "jordan_matrix"),
                             (matrices, "jordan_block")):
            patch.setattr(module, name, None)  # a call would raise TypeError
        big = dict(doc, coefficient=matrix_to_json(Matrix.zero(rep.field, 5)), jordan=None)
        with pytest.raises(ParseError, match=f"{rep.field.p ** 25} (centralizer )?candidates exceed"):
            census_from_json(big)
        with pytest.raises(ParseError, match="not the Jordan matrix"):
            census_from_json(dict(doc, jordan="0^2000"))
