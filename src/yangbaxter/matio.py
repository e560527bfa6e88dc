"""Textual interchange formats.

A matrix file is a JSON document::

    {"field": "rat" | "gf:<p>" | "quad:<a>", "rows": [["1/2", "-3"], ...]}

Entries are always strings in the scalar grammar of the field: rationals
like "-3/4", prime-field residues like "2", quadratic elements like
"1/2+3*s". Parsing is strict; malformed JSON reports line and column,
bad entries report their row and column.

A census file records a census in the same dialect (schema in the README);
:func:`census_from_json` loads one by searching that census again.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import BudgetError, FieldError, ParseError, PreconditionError
from .fields import Field
from .matrices import JordanSpec, Matrix
from .oracle import CensusReport, _unique_rows, enumerate_commuting_solutions, enumerate_solutions

_MATRIX_KEYS = {"field", "rows"}
_CENSUS_INPUTS = {"commuting_only": bool, "jordan": (str, type(None))}


def matrix_to_json(m: Matrix) -> dict:
    fmt = m.field.format
    return {"field": m.field.spec(), "rows": [list(map(fmt, row)) for row in m._raw_rows()]}


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    extra = set(obj) - _MATRIX_KEYS
    if extra:
        raise ParseError(f"unknown matrix keys {sorted(extra)}")
    if "field" not in obj or "rows" not in obj:
        raise ParseError("matrix document needs 'field' and 'rows'")
    try:
        field = Field.from_spec(obj["field"])
    except FieldError as exc:
        raise ParseError(str(exc)) from exc
    rows = obj["rows"]
    if (not isinstance(rows, list) or not rows
            or any(not isinstance(r, list) or not r for r in rows)):
        raise ParseError("'rows' must be a non-empty list of non-empty lists")
    width, parse, raw, seen = len(rows[0]), field.parse_raw, [], {}
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError("ragged rows", row=i, col=len(row))
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise ParseError(f"entry must be a string, got {cell!r}", row=i, col=j)
            if cell not in seen:
                try:
                    seen[cell] = parse(cell)
                except ParseError as exc:
                    raise ParseError(str(exc), row=i, col=j) from exc
            raw.append(seen[cell])
    return Matrix._make(field, len(rows), width, raw)


def _loads_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc


def loads_matrix(text: str) -> Matrix:
    return matrix_from_json(_loads_json(text))


def dumps_matrix(m: Matrix) -> str:
    return dumps_json(matrix_to_json(m)) + "\n"


def dumps_json(value) -> str:
    """``json.dumps(value, indent=2)`` byte for byte, for dicts with str keys,
    lists, tuples, strings, ints, floats, bools and None. The stdlib falls
    back to its pure-Python encoder whenever ``indent`` is set; this writer
    collects the pieces in one list and joins them once."""
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


_FLOAT_WORDS = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _write_json(v, newline: str, out: list[str]) -> None:
    """Append the pieces of ``v``; ``newline`` is a line break plus the
    indent of the line ``v`` starts on. A list of strings is one join."""
    if isinstance(v, str):
        out.append(_quote(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = newline + "  "
        if all(isinstance(item, str) for item in v):
            out.append("[" + inner + ("," + inner).join(map(_quote, v)) + newline + "]")
            return
        sep = "["
        for item in v:
            out.append(sep + inner)
            _write_json(item, inner, out)
            sep = ","
        out.append(newline + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{"
        for key, item in v.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep + inner + _quote(key) + ": ")
            _write_json(item, inner, out)
            sep = ","
        out.append(newline + "}")
    elif v is None or v is True or v is False:
        out.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, float):
        out.append("NaN" if v != v else _FLOAT_WORDS.get(v) or float.__repr__(v))
    else:
        raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for '-'."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def save_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def load_json(path: str):
    """The JSON document in a file, or on stdin for '-'."""
    return _loads_json(_read_text(path))


def load_matrix(path: str) -> Matrix:
    """The matrix in a file, or on stdin for '-'."""
    return loads_matrix(_read_text(path))


def save_matrix(path: str, m: Matrix) -> None:
    save_text(path, dumps_matrix(m))


# -- Jordan shorthand ----------------------------------------------------------


def parse_jordan(field: Field, text: str) -> JordanSpec:
    """Shorthand "lam^k,lam^k,..." for a block list, e.g. "0^3" or "1^2,1^2"."""
    blocks = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ParseError(f"empty block in Jordan shorthand {text!r}")
        if "^" in part:
            lam_text, _, size_text = part.partition("^")
            if not size_text.isdecimal() or int(size_text) < 1:
                raise ParseError(f"bad block size in {part!r}")
            size = int(size_text)
        else:
            lam_text, size = part, 1
        blocks.append((field.parse(lam_text), size))
    return JordanSpec(tuple(blocks))


def format_jordan(spec: JordanSpec) -> str:
    return ",".join(f"{lam}^{size}" for lam, size in spec.blocks)


# -- census serialization --------------------------------------------------------


def dumps_census(report: CensusReport, **extra) -> str:
    """``dumps_json`` of the census/1 document of a report and ``extra`` keys,
    each distinct row of the residue stack formatted once, in a row table."""
    import numpy as np

    n, spec = report.coefficient.nrows, report.field.spec()
    doc = {
        "schema": "census/1",
        "field": spec,
        "coefficient": matrix_to_json(report.coefficient),
        "commuting_only": report.commuting_only,
        "jordan": format_jordan(report.jordan) if report.jordan else None,
        "total": report.total,
        "by_rank": {str(k): v for k, v in sorted(report.by_rank.items())},
        "by_kernel": dict(sorted(report.by_kernel.items())),
        "solutions": [],
    }
    if report.family_tallies is not None:
        doc["family_tallies"] = dict(sorted(report.family_tallies.items()))
        doc["family_tags"] = list(report.family_tags)
    rows, keys = _unique_rows(report.stack.reshape(-1, n))
    i1, i2, i3, i4 = ("\n" + "  " * k for k in range(2, 6))  # the solutions' indents
    texts = np.array([i3 + "[" + i4 + ("," + i4).join(_quote(report.field.format(v)) for v in row)
                      + i3 + "]" for row in rows.tolist()], dtype=object)
    pieces = np.full((report.total, 2 * n + 1), ",", dtype=object)  # rows between commas
    pieces[:, 0] = f',{i1}{{{i2}"field": {_quote(spec)},{i2}"rows": ['
    pieces[:, 1::2] = texts[keys.reshape(-1, n)]
    pieces[:, -1] = i2 + "]" + i1 + "}"
    solutions = "[" + "".join(pieces.ravel().tolist())[1:] + "\n  ]" if report.total else "[]"
    return dumps_json({**doc, **extra}).replace('"solutions": []', '"solutions": ' + solutions, 1)


def census_to_json(report: CensusReport) -> dict:  # the census/1 document: its text, parsed
    return json.loads(dumps_census(report))


def census_from_json(obj) -> CensusReport:
    """The census of a census/1 document's inputs searched again, within the
    default budget; the document must be, key for key, what the report
    writes, and a command's ``theorem_checks``."""
    if not isinstance(obj, dict) or obj.get("schema") != "census/1":
        raise ParseError("not a census/1 document")
    if wrong := [key for key, kind in _CENSUS_INPUTS.items() if not isinstance(obj.get(key), kind)]:
        raise ParseError(f"census {wrong[0]} has the wrong JSON type")
    a, jordan = matrix_from_json(obj.get("coefficient")), obj.get("jordan")
    search = enumerate_commuting_solutions if obj["commuting_only"] else enumerate_solutions
    try:
        report = search(a, None if jordan is None else parse_jordan(a.field, jordan))
    except (BudgetError, PreconditionError) as exc:
        raise ParseError(str(exc)) from exc
    written = dict(census_to_json(report), theorem_checks=obj.get("theorem_checks"))  # not read
    for key in [*written, *obj]:  # as JSON text, so that neither 6.0 nor true passes for 6 or 1
        if json.dumps(obj.get(key), sort_keys=True) != json.dumps(written.get(key), sort_keys=True):
            raise ParseError(f"census {key} does not match the census of its inputs")
    return report
