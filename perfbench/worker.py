"""One workload's closed loop, in a process of its own.

Imports ``yangbaxter`` from the checkout's ``src`` directory, runs whole
rounds of the operation list through ``yangbaxter.cli.main`` until the
run length is reached, and writes each operation's exit code, wall time
and output to a JSON file for the parent to check. With ``--trace 1`` it
first runs a warm-up round, one measured untraced round and the seeded
microbenchmarks, then installs the tracer and runs traced rounds.

    python3 perfbench/worker.py --src SRC --ops OPS --seed N --seconds S \
        --trace 0|1 --out RESULT [--spans SPANS]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

# The contention seen on a shared machine switches on and off within
# milliseconds, so one sample is either slow or fast; the mean of many
# samples tracks the share of time the interpreter ran slowed down.
CALIBRATION_PER_ROUND = 24


def run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the invocation
        error = f"SystemExit({exc.code})"
    except Exception:  # a crash is a failed operation, not the end of the run
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    return {"rc": rc, "wall_s": wall, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of Fraction, int and dict work,
    the kind of work the package does. It tracks how fast this interpreter
    runs at the moment, which on a shared machine swings with the load of
    other tenants. The collector is off so the package's heap cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc, s, seen = Fraction(0), 0, {}
        for k in range(1, 1200):
            acc += Fraction(k, k + 1) * Fraction(3, 7)
            seen[k % 97] = (k, s)
            s += k * k % 7
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_rounds(cli, ops, seconds: float, calib: list, tracer=None) -> list[list[dict]]:
    """Whole rounds until ``seconds`` have passed; at least one. About
    CALIBRATION_PER_ROUND calibration samples are appended to ``calib`` per
    round, spread over the gaps before the operations."""
    rounds = []
    per_op = -(-CALIBRATION_PER_ROUND // len(ops))
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        results = []
        for argv in ops:
            calib.extend(calibrate() for _ in range(per_op))
            if tracer is not None:
                tracer.op += 1
            results.append(run_op(cli, argv))
        rounds.append(results)
    return rounds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import yangbaxter
    from yangbaxter import cli

    if not os.path.realpath(yangbaxter.__file__).startswith(src + os.sep):
        sys.stderr.write(f"yangbaxter imported from {yangbaxter.__file__}, not {src}\n")
        return 2
    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)

    calib: list[float] = []
    result: dict = {"calibration_s": calib}
    if args.trace:
        import microbench
        from tracer import Tracer, layer_metrics

        plain_calib: list[float] = []
        warm = run_rounds(cli, ops, 0, [])
        untraced = run_rounds(cli, ops, 0, plain_calib)
        layer = microbench.run(args.seed)
        tracer = Tracer()
        tracer.install()
        traced = run_rounds(cli, ops, args.seconds, calib, tracer)
        layer.update(layer_metrics(tracer, len(traced), len(ops)))
        # both sides scaled by their own calibration, so the machine's
        # swings between the two phases do not read as tracing cost
        plain = sum(r["wall_s"] for r in untraced[0]) / statistics.fmean(plain_calib)
        with_spans = (sum(sum(r["wall_s"] for r in rnd) for rnd in traced) / len(traced)
                      / statistics.fmean(calib))
        layer["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0)
        calib.extend(plain_calib)
        if args.spans:
            tracer.dump(args.spans)
        result["layer"] = layer
        result["rounds"] = warm + untraced + traced
    else:
        result["rounds"] = run_rounds(cli, ops, args.seconds, calib)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
