"""Tests of the benchmark itself: the checker accepts the program's real
outputs and rejects mutated ones, and the harness keeps its contracts.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def run_cli(argv):
    from yangbaxter import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def verdict(op, rc, doc):
    return checker.check(op, rc, json.dumps(doc), {})


def first_with_coefficient(basis):
    """Index of a basis element with a printed coefficient to perturb."""
    return next(k for k, g in enumerate(basis) if " - " in g or " + " in g)


# -- census ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_block_census():
    op = workloads.census_op("gf:3", "1^1,1^1")
    rc, out = run_cli(op["argv"])
    return op, rc, json.loads(out)


def test_census_output_passes(two_block_census):
    op, rc, doc = two_block_census
    assert verdict(op, rc, doc) is None


@pytest.mark.parametrize("mutation", ["drop", "alter", "duplicate", "exit", "rank", "failure"])
def test_census_mutations_are_rejected(two_block_census, mutation):
    op, rc, doc = two_block_census
    doc = json.loads(json.dumps(doc))
    sols = doc["solutions"]
    if mutation == "drop":
        del sols[len(sols) // 2]
        doc["total"] -= 1
    elif mutation == "alter":
        row = sols[-1]["rows"][0]
        row[0] = str((int(row[0]) + 1) % 3)
    elif mutation == "duplicate":
        sols.insert(1, sols[1])
        doc["total"] += 1
    elif mutation == "exit":
        rc = 1 - rc
    elif mutation == "rank":
        key = next(iter(doc["by_rank"]))
        doc["by_rank"][key] += 1
    else:
        checks = doc["theorem_checks"]
        if checks["failures"]:
            checks["failures"].pop()
            checks["failed"] -= 1
        else:
            checks["failures"].append({"name": "power-identities", "note": ""})
            checks["failed"] += 1
    assert verdict(op, rc, doc) is not None


def test_census_brute_force_matches_known_count():
    # 15 solutions for the 2x2 nilpotent block over GF(3), as in the README
    import numpy as np
    assert len(checker.brute_force(np.array([[0, 1], [0, 0]]), 3, False)) == 15


# -- groebner ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def groebner_run():
    op = workloads.groebner_ops(random.Random(1))[1]
    op["argv"] = op["argv"] + ["--probe", "i^2"]
    op["check"]["probes"] = {"i^2": "i^2"}
    rc, out = run_cli(op["argv"])
    return op, rc, json.loads(out)


def test_groebner_output_passes(groebner_run):
    op, rc, doc = groebner_run
    assert verdict(op, rc, doc) is None


@pytest.mark.parametrize("mutation", ["coefficient", "drop", "probe"])
def test_groebner_mutations_are_rejected(groebner_run, mutation):
    op, rc, doc = groebner_run
    doc = json.loads(json.dumps(doc))
    if mutation == "coefficient":
        k = first_with_coefficient(doc["basis"])
        head, sep, tail = doc["basis"][k].partition(" - " if " - " in doc["basis"][k] else " + ")
        doc["basis"][k] = f"{head}{sep}2*{tail}"
    elif mutation == "drop":
        doc["basis"].pop(0)
    else:
        doc["probes"]["i^2"] = "i^2"
    assert verdict(op, rc, doc) is not None


# -- exact desk --------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_ops(tmp_path_factory):
    work = tmp_path_factory.mktemp("desk")
    return {op["id"]: op for op in workloads.build("exact-desk", 7, str(work))}


@pytest.fixture(scope="module")
def desk_outputs(desk_ops):
    return {name: run_cli(desk_ops[name]["argv"]) for name in DESK_MUTATIONS}


def test_generated_constructions_meet_their_side_conditions(tmp_path):
    for seed in range(1, 31):
        for op in workloads.build("exact-desk", seed, str(tmp_path)):
            if op["argv"][0] == "construct":
                rc, out = run_cli(op["argv"])
                assert rc == 0 and checker.check(op, rc, out, {}) is None, (seed, op["id"])


def test_desk_outputs_pass(desk_ops, desk_outputs):
    for name, (rc, out) in desk_outputs.items():
        assert checker.check(desk_ops[name], rc, out, {}) is None, name


def bump(matrix_doc, i=0, j=0):
    """Add one to an entry, keeping the document well formed."""
    rows = matrix_doc["rows"]
    rows[i][j] = exact.format_scalar(exact.parse_scalar(matrix_doc["field"], rows[i][j]) + 1)


def duplicate_first(doc):
    doc["basis"].append(doc["basis"][0])
    doc["dimension"] += 1


DESK_MUTATIONS = {
    "sylvester rat n=3 unique #1": lambda d: bump(d["particular"], 1, 0),
    "sylvester rat n=4 homogeneous #1": lambda d: bump(d["kernel"][0]),
    "sylvester quad:2 n=3 homogeneous #1": lambda d: d["kernel"].pop(),
    "centralizer rat": duplicate_first,
    "annihilator quad:2": duplicate_first,
    "construct quad:2 two-block-case": lambda d: bump(d["solution"], 0, 0),
    "verify rat perturbed": lambda d: d.update(is_solution=True),
    "pencil quad:2 coefficient": lambda d: bump(d["witness"]),
}


@pytest.mark.parametrize("name", sorted(DESK_MUTATIONS))
def test_desk_mutations_are_rejected(desk_ops, desk_outputs, name):
    rc, out = desk_outputs[name]
    doc = json.loads(out)
    DESK_MUTATIONS[name](doc)
    assert verdict(desk_ops[name], rc, doc) is not None


@pytest.mark.parametrize("text,c0,c1", [
    ("12*s", 0, 12), ("1/32*s", 0, Fraction(1, 32)), ("-3*s", 0, -3),
    ("0+12*s", 0, 12), ("5-12*s", 5, -12), ("-7/3", Fraction(-7, 3), 0),
])
def test_quadratic_entries_read_as_printed(text, c0, c1):
    assert exact.parse_scalar("quad:2", text) == exact.Quad2(c0, c1)
    assert exact.parse_scalar("quad:2", exact.format_scalar(exact.Quad2(c0, c1))) \
        == exact.Quad2(c0, c1)


# -- harness -----------------------------------------------------------------------


def test_checker_does_not_import_the_package():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import checker, workloads, run; "
            "print(any(m.split('.')[0] == 'yangbaxter' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, BENCH], capture_output=True,
                         text=True, check=True, cwd=ROOT)
    assert out.stdout.strip() == "False"


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = workloads.build("exact-desk", 3, str(a))
    ops_b = workloads.build("exact-desk", 3, str(b))
    assert [op["id"] for op in ops_a] == [op["id"] for op in ops_b]
    for fa in sorted(os.listdir(a)):
        assert (a / fa).read_text() == (b / fa).read_text()


def test_traced_worker_reports_every_per_layer_metric(tmp_path):
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps([["census", "--field", "gf:3", "--jordan", "0^2", "--json"]]))
    out = tmp_path / "result.json"
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), "--src",
                    os.path.join(ROOT, "src"), "--ops", str(ops), "--seed", "1",
                    "--seconds", "0", "--trace", "1", "--out", str(out)], check=True)
    layer = json.loads(out.read_text())["layer"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["per_layer"]} == set(layer) | {"trace.slowdown"}
    reported = run.per_layer(layer, 1.0)
    assert reported["oracle.candidates"]["value"] == 81
    assert reported["oracle.survivors"]["value"] == 15


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "groebner",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
