"""The names the benchmark's tracer reads exist in the package.

perfbench/tracer.py wraps functions and methods by name; a name that no
longer exists is skipped without an error, and the per-layer metric that
reads its spans silently drops to 0. The constants are read from the
file's source, without importing or changing it.
"""

import ast
import importlib
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
