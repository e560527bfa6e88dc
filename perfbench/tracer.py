"""Span tracing of the package's layers, installed from outside.

:func:`install` wraps the public functions of each layer module, the
``Matrix`` methods that do the arithmetic and elimination, and the two
private census phases that have no public boundary (the mod-p screen and
the exact re-verification). A function bound elsewhere by ``from .x
import y`` is replaced in every module that holds it, so calls through
any name are counted. Scalar arithmetic in ``fields`` is not wrapped: a
span per scalar operation would cost more than the operation, so that
layer is measured by the seeded microbenchmarks instead.

Each span records (name, start, end, parent, operation, note); spans stay
in memory and :meth:`Tracer.dump` writes them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("fields", "matrices", "unipoly", "core", "families", "sylvester",
          "groebner", "oracle", "matio", "cli")
MATRIX_METHODS = ("__add__", "__sub__", "__mul__", "__pow__", "transpose", "apply",
                  "rref", "rank", "kernel_basis", "inverse", "det", "is_invertible")
PRIVATE = {"oracle": ("_screen_batch", "_census_from_matrices")}
CORE_CHECKS = ("power_identities", "charpoly_annihilation", "disjoint_spectra_dichotomy",
               "kernel_invariance", "spectrum_inclusion", "kernel_classification_two_blocks",
               "eigenvalue_transfer", "pencil_condition")
NOTED = ("oracle._screen_batch", "oracle.enumerate_solutions",
         "oracle.enumerate_commuting_solutions", "groebner.normal_form",
         "groebner.buchberger", "sylvester.kronecker_lift")


def _note(name: str, result, args):
    """A small fact about a call that a metric needs beyond its timing."""
    if name == "oracle._screen_batch":
        return [len(args[1]), int(result.sum())]
    if name in ("oracle.enumerate_solutions", "oracle.enumerate_commuting_solutions"):
        return result.total
    if name == "groebner.normal_form":
        return result.is_zero
    if name == "groebner.buchberger":
        return len(result)
    if name == "sylvester.kronecker_lift":
        return result.nrows
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        noted = name in NOTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name_id, start, end, parent, self.op, None)
            if noted:
                spans[sid] = (name_id, start, end, parent, self.op, _note(name, result, args))
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"yangbaxter.{layer}") for layer in LAYERS}
        holders = list(modules.values()) + [importlib.import_module("yangbaxter")]
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if public and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replaced[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
        matrix_cls = modules["matrices"].Matrix
        for attr in MATRIX_METHODS:
            setattr(matrix_cls, attr, self.wrap(f"matrices.Matrix.{attr}", vars(matrix_cls)[attr]))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent", "op", "note"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer, rounds: int, nops: int) -> dict:
    """Per-layer metrics from the spans of ``rounds`` traced rounds of
    ``nops`` operations each. Times are shares of traced command time or
    rates, so a layer the workload never calls reads 0 without a clock."""
    names, spans = tracer.names, tracer.spans
    own = self_times(spans)
    name_of = [names[s[0]] for s in spans]
    total_ns = sum(e - s for n, (_, s, e, _, _, _) in zip(name_of, spans) if n == "cli.main")

    def incl(name):
        """Total duration of the spans of one function, nested calls included."""
        return sum(s[2] - s[1] for n, s in zip(name_of, spans) if n == name)

    def pct(ns):
        return 100.0 * ns / total_ns if total_ns else 0.0

    def count(name):
        return sum(1 for n in name_of if n == name)

    def notes(name):
        return [s[5] for n, s in zip(name_of, spans) if n == name]

    m: dict = {}
    cli_self = sum(t for n, t in zip(name_of, own) if n.startswith("cli."))
    m["cli.traced_command_ms"] = total_ns / 1e6 / (rounds * nops)
    m["cli.self_ms"] = cli_self / 1e6 / (rounds * nops)
    for layer in LAYERS[1:]:
        m[f"{layer}.self_pct"] = pct(sum(t for n, t in zip(name_of, own)
                                         if n.startswith(layer + ".")))
    m["matrices.rank_calls"] = count("matrices.Matrix.rank") / rounds
    m["matrices.kernel_basis_calls"] = count("matrices.Matrix.kernel_basis") / rounds

    solutions = sum(notes("oracle.enumerate_solutions")
                    + notes("oracle.enumerate_commuting_solutions"))
    in_census = {s[4] for n, s in zip(name_of, spans) if n.startswith("oracle.enumerate_")}

    def per_solution(name):
        calls = sum(1 for n, s in zip(name_of, spans) if n == name and s[4] in in_census)
        return calls / solutions if solutions else 0.0

    m["unipoly.char_poly_per_solution"] = per_solution("unipoly.char_poly")
    m["core.residual_per_solution"] = per_solution("core.residual")
    m["core.checks_run"] = sum(1 for n in name_of if n.startswith("core.check_")) / rounds
    for name in CORE_CHECKS:
        m[f"core.check_pct.{name}"] = pct(incl(f"core.check_{name}"))

    screen = notes("oracle._screen_batch")
    screen_ns = incl("oracle._screen_batch")
    cands = sum(c for c, _ in screen)
    survivors = sum(s for _, s in screen)
    sweep_ns = incl("oracle.verify_theorems_on_census")
    m["oracle.screen_pct"] = pct(screen_ns)
    m["oracle.screen_mcands_per_s"] = cands / screen_ns * 1e3 if screen_ns else 0.0
    m["oracle.candidates"] = cands / rounds
    m["oracle.survivors"] = survivors / rounds
    m["oracle.survivor_ratio"] = survivors / cands if cands else 0.0
    m["oracle.reverify_pct"] = pct(incl("oracle._census_from_matrices"))
    m["oracle.classify_pct"] = pct(incl("oracle.classify_against_families"))
    m["oracle.sweep_pct"] = pct(sweep_ns)
    m["oracle.sweep_solutions_per_s"] = solutions / sweep_ns * 1e9 if sweep_ns else 0.0

    bb = {i for i, n in enumerate(name_of) if n == "groebner.buchberger"}
    reductions = [s[5] for n, s in zip(name_of, spans)
                  if n == "groebner.normal_form" and s[3] in bb]
    m["groebner.buchberger_pct"] = pct(incl("groebner.buchberger"))
    m["groebner.pair_select_pct"] = pct(sum(own[i] for i in bb))
    m["groebner.normal_form_pct"] = pct(sum(
        s[2] - s[1] for n, s in zip(name_of, spans)
        if n == "groebner.normal_form" and s[3] in bb))
    m["groebner.interreduce_pct"] = pct(incl("groebner.interreduce"))
    m["groebner.probe_pct"] = pct(sum(
        s[2] - s[1] for n, s in zip(name_of, spans)
        if n == "groebner.normal_form" and s[3] >= 0 and name_of[s[3]].startswith("cli.")))
    m["groebner.s_polys"] = count("groebner.s_polynomial") / rounds
    m["groebner.normal_form_calls"] = len(reductions) / rounds
    m["groebner.zero_reductions"] = sum(1 for z in reductions if z) / rounds
    m["groebner.useful_reduction_ratio"] = (
        sum(1 for z in reductions if not z) / len(reductions) if reductions else 0.0)
    m["groebner.basis_len"] = sum(notes("groebner.buchberger")) / rounds

    dims = notes("sylvester.kronecker_lift")
    m["sylvester.system_dim"] = sum(dims) / len(dims) if dims else 0.0
    m["sylvester.kronecker_lift_pct"] = pct(incl("sylvester.kronecker_lift"))
    m["sylvester.solve_pct"] = pct(incl("sylvester.sylvester_solve"))
    m["sylvester.unique_pct"] = pct(incl("sylvester.sylvester_unique"))
    m["families.build_pct"] = pct(incl("families.build_family"))
    m["trace.spans_per_round"] = len(spans) / rounds
    return m
