"""The names the benchmark's tracer reads exist in the package.

perfbench/tracer.py wraps functions and methods by name; a name that no
longer exists is skipped without an error, and the per-layer metric that
reads its spans silently drops to 0. The constants, and the span names its
metrics read, are read from the file's source, without importing or
changing it.
"""

import ast
import importlib
import inspect
from pathlib import Path

from yangbaxter.matrices import Matrix

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def tracer_constants():
    """The tracer's PRIVATE, NOTED, CORE_CHECKS and MATRIX_METHODS, by name."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
            and target.id in ("PRIVATE", "NOTED", "CORE_CHECKS", "MATRIX_METHODS")}


def traced(dotted):
    """The package attribute that a "layer.name" of the tracer names, or None."""
    layer, name = dotted.split(".")
    return getattr(importlib.import_module(f"yangbaxter.{layer}"), name, None)


def test_every_traced_name_exists():
    constants = tracer_constants()
    named = [f"{layer}.{name}" for layer, names in constants["PRIVATE"].items() for name in names]
    named += [*constants["NOTED"], *(f"core.check_{name}" for name in constants["CORE_CHECKS"])]
    methods = constants["MATRIX_METHODS"]
    assert constants["PRIVATE"] and constants["NOTED"] and constants["CORE_CHECKS"] and methods
    assert [name for name in named if not callable(traced(name))] == []
    assert [name for name in methods if not callable(vars(Matrix).get(name))] == []


def metric_span_names():
    """The span names tracer.py reads as string literals: the first argument
    of every call of incl, count, notes and per_solution, and every string
    a span name is compared with, alone or in a tuple."""
    names = set()
    for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("incl", "count", "notes", "per_solution"):
            values = node.args[:1]
        elif isinstance(node, ast.Compare):
            values = [v for side in (node.left, *node.comparators)
                      for v in (side.elts if isinstance(side, ast.Tuple) else [side])]
        else:
            continue
        names.update(v.value for v in values
                     if isinstance(v, ast.Constant) and isinstance(v.value, str))
    return names


def is_traced(dotted, constants):
    """Whether the tracer wraps a function under the span name ``dotted``:
    a Matrix method it lists, or a function defined in its layer module that
    is public or listed as PRIVATE."""
    layer, _, attr = dotted.partition(".")
    if attr.startswith("Matrix."):
        method = attr.removeprefix("Matrix.")
        return (layer == "matrices" and method in constants["MATRIX_METHODS"]
                and callable(vars(Matrix).get(method)))
    fn = traced(dotted)
    return (inspect.isfunction(fn) and fn.__module__ == f"yangbaxter.{layer}"
            and (not attr.startswith("_") or attr in constants["PRIVATE"].get(layer, ())))


def test_every_span_name_a_metric_reads_is_traced():
    constants, names = tracer_constants(), metric_span_names()
    assert {"cli.main", "families.build_family", "matrices.Matrix.rank"} <= names
    assert sorted(name for name in names if not is_traced(name, constants)) == []
