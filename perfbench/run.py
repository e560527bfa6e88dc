"""Benchmark entry point: one workload (or all of them), checked and measured.

    python3 perfbench/run.py --workload census-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/yangbaxter``. The
workload's inputs are generated from the seed into ``.perfbench/`` under
the checkout, set-up time is sampled in fresh interpreters, the
operations run in a worker process of their own (closed loop, one client,
no threads), and every output is then judged by :mod:`checker`, which
imports nothing from the package. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. Exits 2 without a result when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import workloads  # noqa: E402

# Time of worker.calibrate() on the reference machine (2 cores, Python
# 3.11.7) when no other tenant loads it. Every time metric is divided by the
# run's slowdown, its mean calibration time over this, so a run made while
# the shared machine is contended reads as if made at the reference speed.
REFERENCE_CALIBRATION_S = 0.0065
SETUP_SAMPLES = 9
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import yangbaxter.cli\n"
    "yangbaxter.cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from worker import calibrate\n"
    "print(elapsed, sum(calibrate() for _ in range(10)) / 10)\n"
)
TIME_UNITS = ("ns", "us", "ms", "s")


def metric_spec(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def measure_setup(src: str) -> float:
    """Median import-plus-parser time over fresh interpreters. Each sample
    is scaled by calibration run in the same interpreter right after the
    import: over eight repetitions that cut the spread from 0.087 to 0.018,
    where calibration in this process, possibly on the other core, had made
    it worse."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, src, HERE],
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, calib = map(float, proc.stdout.split())
        samples.append(elapsed * REFERENCE_CALIBRATION_S / calib)
    return statistics.median(samples)


def judge(ops: list[dict], rounds: list[list[dict]]) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations; list the outputs that fail
    their checks. Identical outputs of one operation share one verdict."""
    cache: dict = {}
    verdicts: dict = {}
    attempted = failed = 0
    wrong = []
    for results in rounds:
        for op, res in zip(ops, results):
            attempted += 1
            if res["error"] is not None or res["rc"] not in (0, 1):
                failed += 1
                sys.stderr.write(f"FAILED {op['id']}: rc={res['rc']} "
                                 f"{res['error'] or res['stderr'].strip()}\n")
                continue
            key = (op["id"], res["rc"], res["stdout"])
            if key not in verdicts:
                verdicts[key] = checker.check(op, res["rc"], res["stdout"], cache)
            if verdicts[key] is not None:
                failed += 1
                wrong.append(f"{op['id']}: {verdicts[key]}")
    return attempted, failed, wrong


def end_to_end(ops, rounds, setup_s: float, slowdown: float, peak_rss_kb: int) -> dict:
    """Times at the reference speed: raw times over the run's slowdown.

    A run has only 3 to 20 rounds, and the median of so few samples jumps
    between them. Over eight seeds, means over rounds spread 0.026 (groebner)
    and 0.049 (census-screen) where medians spread 0.083 and 0.071.
    """
    per_op = [statistics.fmean(rnd[k]["wall_s"] for rnd in rounds) for k in range(len(ops))]
    geomean = math.exp(sum(math.log(t) for t in per_op) / len(per_op))
    round_s = statistics.fmean(sum(r["wall_s"] for r in rnd) for rnd in rounds)
    sys.stderr.write(f"unscaled command_ms {geomean * 1e3:.4f} workload_s {round_s:.4f} "
                     f"slowdown {slowdown:.4f}\n")
    values = {
        "setup_s": setup_s,
        "command_ms": geomean * 1e3 / slowdown,
        "workload_s": round_s / slowdown,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metric_spec("end_to_end")}


def per_layer(layer: dict, slowdown: float) -> dict:
    """The metrics BENCHMARK.json lists, times scaled to the reference speed."""
    layer = dict(layer, **{"trace.slowdown": slowdown})

    def scaled(value, unit):
        if unit in TIME_UNITS:
            return value / slowdown
        return value * slowdown if unit.endswith("/s") else value

    return {m["name"]: {"value": scaled(layer[m["name"]], m["unit"]), "unit": m["unit"]}
            for m in metric_spec("per_layer")}


def run_workload(root: str, name: str, seed: int, seconds: float, trace: int) -> dict:
    src = os.path.join(root, "src")
    out_dir = os.path.join(root, ".perfbench")
    work = os.path.join(out_dir, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        ops = workloads.build(name, seed, work)
        with open(os.path.join(work, "ops.json"), "w", encoding="utf-8") as fh:
            json.dump([op["argv"] for op in ops], fh)
        setup_s = None if trace else measure_setup(src)
        result_path = os.path.join(work, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", src,
               "--ops", os.path.join(work, "ops.json"), "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out", result_path]
        if trace:
            cmd += ["--spans", os.path.join(out_dir, f"spans-{name}-seed{seed}.json")]
        subprocess.run(cmd, check=True, timeout=seconds + 120)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rounds = result["rounds"]
    attempted, failed, wrong = judge(ops, rounds)
    for line in wrong:
        sys.stderr.write(f"WRONG {line}\n")
    slowdown = statistics.fmean(result["calibration_s"]) / REFERENCE_CALIBRATION_S
    if trace:
        metrics = per_layer(result["layer"], slowdown)
    else:
        metrics = end_to_end(ops, rounds, setup_s, slowdown, result["peak_rss_kb"])
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "yangbaxter", "__init__.py")):
        sys.stderr.write("run from the root of a checkout that holds src/yangbaxter\n")
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(root, name, args.seed, args.seconds, args.trace)
                   for name in names}
    except (subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: {json.dumps(res)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, res in results.items()
                    for metric, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
