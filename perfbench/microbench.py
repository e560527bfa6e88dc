"""Seeded microbenchmarks of single layers, run untraced in the traced mode.

Operands come from the workload seed; each figure is the median over
``REPEATS`` timed batches, divided by the batch size.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REPEATS = 5
FIELDS = {"gf": "gf:7", "rat": "rat", "quad": "quad:2"}


def _per_call(fn, calls: int) -> float:
    """Median seconds per call over REPEATS batches of ``calls`` calls."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _scalar_values(rng, tag: str, count: int):
    if tag == "gf":
        return [rng.randint(1, 6) for _ in range(count)]
    if tag == "rat":
        return [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(count)]
    return [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
             Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))
            for _ in range(count)]


def run(seed: int) -> dict:
    from yangbaxter import matio, oracle, sylvester
    from yangbaxter.families import build_family
    from yangbaxter.fields import Field
    from yangbaxter.matrices import Matrix, jordan_matrix
    from yangbaxter.unipoly import char_poly

    rng = random.Random(f"microbench/{seed}")
    m: dict = {}
    n_ops = 2000
    fields = {tag: Field.from_spec(spec) for tag, spec in FIELDS.items()}
    for tag, field in fields.items():
        xs = [field.scalar(v) for v in _scalar_values(rng, tag, n_ops)]
        ys = [field.scalar(v) for v in _scalar_values(rng, tag, n_ops)]
        pairs = list(zip(xs, ys))
        for op, fn in (("mul", lambda: [x * y for x, y in pairs]),
                       ("add", lambda: [x + y for x, y in pairs]),
                       ("inv", lambda: [x.inverse() for x in xs])):
            m[f"fields.{op}_ns.{tag}"] = _per_call(fn, 1) / n_ops * 1e9

    def random_matrix(tag, n):
        return Matrix.from_rows(fields[tag], [_scalar_values(rng, tag, n) for _ in range(n)])

    for tag in ("gf", "rat", "quad"):
        a, b = random_matrix(tag, 4), random_matrix(tag, 4)
        m[f"matrices.matmul4_us.{tag}"] = _per_call(lambda: a * b, 50) * 1e6
    for tag in ("gf", "rat"):
        a = random_matrix(tag, 4)
        m[f"matrices.rref_us.{tag}"] = _per_call(a.rref, 20) * 1e6
    a = random_matrix("gf", 4)
    m["matrices.det_us.gf"] = _per_call(a.det, 50) * 1e6
    for tag in ("gf", "rat"):
        a = random_matrix(tag, 4)
        m[f"unipoly.char_poly_us.{tag}"] = _per_call(lambda: char_poly(a), 10) * 1e6

    rat = fields["rat"]
    sa = jordan_matrix(rat, [(1, 2), (2, 2)]) + random_matrix("rat", 4)
    sb = jordan_matrix(rat, [(-1, 2), (3, 2)]) + random_matrix("rat", 4)
    problem = sylvester.SylvesterProblem(sa, sb, random_matrix("rat", 4))
    lift = sylvester.kronecker_lift(sa, sb)
    m["matrices.rref_kron_ms.rat"] = _per_call(lift.rref, 2) * 1e3
    m["sylvester.kronecker_lift_ms"] = _per_call(lambda: sylvester.kronecker_lift(sa, sb), 5) * 1e3
    m["sylvester.solve_ms"] = _per_call(lambda: sylvester.sylvester_solve(problem), 2) * 1e3
    m["sylvester.unique_ms"] = _per_call(lambda: sylvester.sylvester_unique(sa, sb), 5) * 1e3

    builds = [
        ("jordan2-invertible", {"lam": rat.scalar(2), "branch": "plus", "a": rat.scalar(9)}),
        ("jordan3-nilpotent", {k: rat.scalar(v) for k, v in
                               zip("abcfi", (2, 3, 1, -3, 2))}),
        ("nilpotent-general", {"n": 5, "a": [rat.scalar(v) for v in (1, 2, 3)],
                               "b": [rat.scalar(v) for v in (4, 5, 6)],
                               "alpha": rat.scalar(7)}),
        ("commuting-nilpotent", {"n": 4, "variant": "with_B", "alpha": rat.scalar(2),
                                 "beta": rat.scalar(3)}),
    ]
    m["families.build_ms"] = _per_call(
        lambda: [build_family(rat, name, params) for name, params in builds], 5
    ) / len(builds) * 1e3

    big = random_matrix("rat", 6)
    text = matio.dumps_matrix(big)
    m["matio.load_ms"] = _per_call(lambda: matio.loads_matrix(text), 20) * 1e3
    m["matio.dump_ms"] = _per_call(lambda: matio.dumps_matrix(big), 20) * 1e3
    gf3 = Field.gf(3)
    jordan = matio.parse_jordan(gf3, "0^2")
    report = oracle.enumerate_solutions(jordan_matrix(gf3, jordan), jordan=jordan)
    m["matio.census_to_json_ms"] = _per_call(lambda: matio.census_to_json(report), 20) * 1e3
    return m
