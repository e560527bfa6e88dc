"""The benchmark's workloads: fixed operation lists and their seeded inputs.

Each operation is one ``ybx`` invocation (an argv list for
``yangbaxter.cli.main``) plus the facts the independent checker needs to
judge its output. The census and Groebner workloads run fixed invocations;
the seed only picks the closed-form sample points the Groebner check
evaluates. The exact-desk workload is built entirely from the seed: every
matrix file is ``P J P^-1`` for a Jordan matrix ``J`` whose blocks the
generator chose and a unimodular integer conjugator ``P``, so the checker
knows the spectral data the program must rediscover.

The program sees only the generated matrix files and the arguments.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

from exact import (Quad2, block_diag, format_scalar, identity, jordan, mat_mul,
                   matrix_doc, zeros)

WORKLOADS = ("census-sweep", "census-screen", "groebner", "exact-desk")

CONJUGATOR_STEPS = 3  # elementary row operations per unimodular conjugator
MULTIPLIERS = (-1, 1)


def census_op(field: str, shorthand: str, commuting: bool = False) -> dict:
    argv = ["census", "--field", field, "--jordan", shorthand, "--json"]
    if commuting:
        argv.append("--commuting")
    blocks = []
    for part in shorthand.split(","):
        lam, _, size = part.partition("^")
        blocks.append((int(lam), int(size)))
    op_id = f"census {field} {shorthand}" + (" --commuting" if commuting else "")
    return {"id": op_id, "kind": "census", "argv": argv,
            "check": {"p": int(field[3:]), "blocks": blocks, "commuting": commuting}}


# -- groebner -----------------------------------------------------------------------


def _nilpotent3_points(rng) -> list:
    """Members [[a,b,c],[0,0,f],[0,0,i]] with af + bi = 0 of the 3x3 shift family."""
    pts = []
    for _ in range(3):
        a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        b, c, i = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        f = -b * i / a
        pts.append([[a, b, c], [0, 0, f], [0, 0, i]])
    pts.append(jordan([(0, 3)]))
    return pts


def _nilpotent2_plus_one_points(rng) -> list:
    """Block-diagonal members diag(X1, x) for diag(J2(0), 1): X1 = [[a, t], [0, b]]
    with ab = 0 and x in {0, 1}."""
    pts = []
    for k in range(4):
        a, b, t = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        if k % 2:
            a = Fraction(0)
        else:
            b = Fraction(0)
        pts.append(block_diag([[[a, t], [0, b]], [[Fraction(k // 2)]]]))
    pts.append(jordan([(0, 2), (1, 1)]))
    return pts


def groebner_ops(rng) -> list[dict]:
    probes = {"d^2": "d^2", "e^4": "e^4", "g^2": "g^2", "h^2": "h^2", "af+bi": "a*f + b*i"}
    argv = ["groebner", "--ideal", "ybe", "--jordan", "0^3", "--json"]
    for text in probes:
        argv += ["--probe", text]
    return [
        {"id": "groebner ybe 0^3", "kind": "groebner", "argv": argv,
         "check": {"blocks": [(0, 3)], "probes": probes,
                   "points": _nilpotent3_points(rng)}},
        {"id": "groebner ybe 0^2,1^1", "kind": "groebner",
         "argv": ["groebner", "--ideal", "ybe", "--jordan", "0^2,1^1", "--json"],
         "check": {"blocks": [(0, 2), (1, 1)], "probes": {},
                   "points": _nilpotent2_plus_one_points(rng)}},
    ]


# -- exact desk ---------------------------------------------------------------------


def unimodular(rng, n: int):
    """A random integer matrix of determinant 1 and its integer inverse."""
    p, pinv = identity(n), identity(n)
    for _ in range(CONJUGATOR_STEPS):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(MULTIPLIERS)
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= c * row[i]
    return p, pinv


class Desk:
    """Writes the seeded matrix files of the exact-desk workload."""

    def __init__(self, rng, workdir: str):
        self.rng = rng
        self.workdir = workdir
        self.count = 0

    def write(self, field: str, rows) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"m{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(matrix_doc(field, rows), fh)
        return path

    def conjugated(self, blocks, zero):
        n = sum(size for _, size in blocks)
        p, pinv = unimodular(self.rng, n)
        return mat_mul(mat_mul(p, jordan(blocks, zero=zero, one=zero + 1)), pinv), p, pinv

    def scalar(self, field: str, nonzero=False):
        while True:
            v = Fraction(self.rng.randint(-4, 4), self.rng.randint(1, 2))
            if field != "rat" and self.rng.random() < 0.5:
                v = Quad2(v, self.rng.choice([-1, 1]))
            if v or not nonzero:
                return v


def _field_zero(field):
    return Fraction(0) if field == "rat" else Quad2(0)


def sylvester_ops(desk: Desk, field: str, sizes) -> list[dict]:
    """Unique systems (spectra of A and -B disjoint) and homogeneous systems
    whose spectra meet, two instances each per n; B has A's block sizes.
    Two instances halve the spread that one seed's entry sizes add."""
    rng = desk.rng
    zero = _field_zero(field)
    ops = []
    for n, homogeneous, copy in itertools.product(sizes, (False, True), (1, 2)):
        split = {3: [2, 1], 4: [2, 2], 5: [3, 2], 6: [3, 2, 1]}[n]
        if field == "rat":
            pool = [Fraction(v) for v in range(1, 5)]
        else:
            pool = [Quad2(a, b) for a in (1, 2, 3) for b in (-1, 1)]
        lams = [rng.choice(pool) for _ in split]
        if homogeneous:
            perm = rng.sample(range(len(split)), len(split))
            mus = [-lams[k] for k in perm]
        else:
            mus = [rng.choice(pool) for _ in split]  # lam + mu != 0: both positive
        a_blocks = list(zip(lams, split))
        b_blocks = list(zip(mus, split))
        a, _, _ = desk.conjugated(a_blocks, zero)
        b, _, _ = desk.conjugated(b_blocks, zero)
        if homogeneous:
            c = zeros(n, n, zero)
        else:
            c = [[desk.scalar(field) for _ in range(n)] for _ in range(n)]
        kernel_dim = sum(min(ni, mj) for lam, ni in a_blocks for mu, mj in b_blocks
                         if lam + mu == zero)
        kind = "homogeneous" if homogeneous else "unique"
        ops.append({
            "id": f"sylvester {field} n={n} {kind} #{copy}", "kind": "sylvester",
            "argv": ["sylvester", "--A", desk.write(field, a), "--B", desk.write(field, b),
                     "--C", desk.write(field, c), "--json"],
            "check": {"field": field, "a": a, "b": b, "c": c, "kernel_dim": kernel_dim,
                      "unique": kernel_dim == 0},
        })
    return ops


def space_ops(desk: Desk, field: str) -> list[dict]:
    """Centralizer of a matrix with a repeated eigenvalue; annihilator of a
    singular one."""
    zero = _field_zero(field)
    lam = desk.scalar(field, nonzero=True)
    mu = lam + 1
    if field == "rat":
        cent_blocks = [(lam, 2), (lam, 1), (mu, 2)]
        ann_blocks = [(zero, 2), (zero, 1), (mu, 2)]
    else:
        cent_blocks = [(lam, 2), (lam, 1), (mu, 1)]
        ann_blocks = [(zero, 2), (zero, 1), (mu, 1)]
    cent_dim = sum(min(ni, nj) for li, ni in cent_blocks for lj, nj in cent_blocks
                   if li == lj)
    a_cent, _, _ = desk.conjugated(cent_blocks, zero)
    a_ann, _, _ = desk.conjugated(ann_blocks, zero)
    return [
        {"id": f"centralizer {field}", "kind": "query",
         "argv": ["centralizer", "--A", desk.write(field, a_cent), "--json"],
         "check": {"what": "centralizer", "field": field, "a": a_cent, "dim": cent_dim}},
        {"id": f"annihilator {field}", "kind": "query",
         "argv": ["centralizer", "--A", desk.write(field, a_ann), "--annihilator", "--json"],
         "check": {"what": "annihilator", "field": field, "a": a_ann}},
    ]


def construct_ops(desk: Desk, field: str) -> list[dict]:
    """One member of every family the command line can construct."""
    rng = desk.rng
    zero = _field_zero(field)
    one = zero + 1

    fmt = format_scalar

    def scal(nonzero=False):
        return desk.scalar(field, nonzero)

    def op(family, params, coefficient):
        argv = ["construct", "--family", family, "--field", field, "--json"]
        for name, value in params:
            argv += ["--param", f"{name}={value}"]
        return {"id": f"construct {field} {family}", "kind": "query", "argv": argv,
                "check": {"what": "construct", "field": field, "family": family,
                          "coefficient": coefficient}}

    def square():
        r = Fraction(rng.choice([2, 3, 5]), rng.choice([1, 4]))  # never 1: cases ii, iii
        return r * r if field == "rat" else Quad2(2 * r * r)

    ops = []
    lam = scal(nonzero=True)
    ops.append(op("jordan2-invertible",
                  [("lam", fmt(lam)), ("branch", rng.choice(["plus", "minus"])),
                   ("a", fmt(square()))],
                  jordan([(lam, 2)], one, zero)))
    a, b = scal(), scal()
    if rng.random() < 0.5:
        a = zero
    else:
        b = zero
    ops.append(op("jordan2-nilpotent", [("a", fmt(a)), ("b", fmt(b)), ("alpha", fmt(scal()))],
                  jordan([(zero, 2)], one, zero)))
    a, b, c, i = scal(nonzero=True), scal(), scal(), scal()
    f = -(b * i) / a
    ops.append(op("jordan3-nilpotent",
                  [("a", fmt(a)), ("b", fmt(b)), ("c", fmt(c)), ("f", fmt(f)), ("i", fmt(i))],
                  jordan([(zero, 3)], one, zero)))
    n = 5
    ops.append(op("nilpotent-general",
                  [("n", str(n)), ("a", ",".join(fmt(scal()) for _ in range(n - 2))),
                   ("b", ",".join(fmt(scal()) for _ in range(n - 2))),
                   ("alpha", fmt(scal()))],
                  jordan([(zero, n)], one, zero)))
    n = 4
    ops.append(op("commuting-nilpotent",
                  [("n", str(n)), ("variant", rng.choice(["with_B", "without_B"])),
                   ("alpha", fmt(scal())), ("beta", fmt(scal()))],
                  jordan([(zero, n + 1)], one, zero)))
    lam = scal(nonzero=True)
    c0, c1 = scal(nonzero=True), scal()
    s_path = desk.write(field, [[c0, c1], [zero, c0]])  # c0 I + c1 N commutes with J2(lam)
    ops.append(op("two-block-offdiag",
                  [("lam", fmt(lam)), ("k", "2"), ("z", f"{fmt(scal())},{fmt(scal())}"),
                   ("s", s_path), ("side", rng.choice(["upper", "lower"]))],
                  jordan([(lam, 2), (lam, 2)], one, zero)))
    ops.append(_two_block_case(desk, field, op, square))
    ops.extend(_file_families(desk, field, op))
    return ops


def _two_block_case(desk, field, op, square):
    rng = desk.rng
    zero = _field_zero(field)
    one = zero + 1
    case = rng.choice(["i", "ii", "iii", "iv", "v"])
    lam = one if case in ("ii", "v") else desk.scalar(field, nonzero=True)
    while case in ("iii", "iv") and lam == one:
        lam = desk.scalar(field, nonzero=True)
    params = [("case", case), ("lam", format_scalar(lam))]
    if case in ("ii", "iii"):
        params.append(("a", format_scalar(square())))
    for name in {"i": "be", "ii": "ce", "iii": "e", "iv": "b", "v": "bc"}[case]:
        params.append((name, format_scalar(desk.scalar(field))))
    return op("two-block-case", params, jordan([(lam, 2), (lam, 2)], one, zero))


def _solution_setup(desk: Desk, field: str):
    """A = P diag(J2(lam), 0) P^-1 with a known solution X, an annihilator
    element M (AM = MA = 0) and a centralizer element g."""
    zero = _field_zero(field)
    one = zero + 1
    lam = desk.scalar(field, nonzero=True)
    blocks = [(lam, 2), (zero, 1)]
    a, p, pinv = desk.conjugated(blocks, zero)
    # the plus branch of the 2x2 invertible family with a = r^2, root r
    r = Fraction(desk.rng.choice([2, 3]))
    x1 = [[lam + lam * r, r * r], [-(lam * lam), lam - lam * r]]
    t = desk.scalar(field)
    xj = block_diag([x1, [[t]]], zero)
    x = mat_mul(mat_mul(p, xj), pinv)
    e33 = zeros(3, 3, zero)
    e33[2][2] = desk.scalar(field, nonzero=True)
    m = mat_mul(mat_mul(p, e33), pinv)
    c0, c1, d = (desk.scalar(field, nonzero=True) for _ in range(3))
    gj = block_diag([[[c0, c1], [zero, c0]], [[d]]], zero)
    g = mat_mul(mat_mul(p, gj), pinv)
    return {"a": a, "x": x, "m": m, "g": g, "one": one, "zero": zero}


def _file_families(desk, field, op):
    s = _solution_setup(desk, field)
    a_path = desk.write(field, s["a"])
    x_path = desk.write(field, s["x"])
    return [
        op("pencil", [("A", a_path), ("X", x_path), ("M", desk.write(field, s["m"])),
                      ("alpha", format_scalar(desk.scalar(field, nonzero=True)))], s["a"]),
        op("conjugate", [("A", a_path), ("X", x_path), ("g", desk.write(field, s["g"]))],
           s["a"]),
    ]


def verify_pencil_ops(desk: Desk, field: str) -> list[dict]:
    """verify on a solution and a non-solution; pencil on a direction that
    keeps the pencil inside the solution set and on one that leaves it."""
    s = _solution_setup(desk, field)
    a, x, m = s["a"], s["x"], s["m"]
    bumped = [row[:] for row in x]
    bumped[0][0] = bumped[0][0] + s["one"]
    a_path = desk.write(field, a)
    x_path = desk.write(field, x)
    ops = []
    for label, cand in (("solution", x), ("perturbed", bumped)):
        ops.append({"id": f"verify {field} {label}", "kind": "query",
                    "argv": ["verify", "--A", a_path, "--X", desk.write(field, cand), "--json"],
                    "check": {"what": "verify", "field": field, "a": a, "x": cand}})
    for label, x1 in (("annihilator", m), ("coefficient", a)):
        ops.append({"id": f"pencil {field} {label}", "kind": "query",
                    "argv": ["pencil", "--A", a_path, "--X0", x_path,
                             "--X1", desk.write(field, x1), "--json"],
                    "check": {"what": "pencil", "field": field, "a": a, "x0": x, "x1": x1}})
    return ops


# -- assembly -----------------------------------------------------------------------


def build(name: str, seed: int, workdir: str) -> list[dict]:
    """The fixed operation list of one workload, with its inputs written to
    ``workdir``. The same seed gives the same inputs."""
    rng = random.Random(f"{name}/{seed}")
    if name == "census-sweep":
        return [census_op("gf:2", "1^2,1^2"), census_op("gf:2", "0^4"),
                census_op("gf:3", "1^2,1^2", commuting=True)]
    if name == "census-screen":
        return [census_op("gf:5", "1^3"), census_op("gf:5", "1^2,2^1")]
    if name == "groebner":
        return groebner_ops(rng)
    if name == "exact-desk":
        desk = Desk(rng, workdir)
        ops = sylvester_ops(desk, "rat", (3, 4, 5, 6))
        ops += sylvester_ops(desk, "quad:2", (3, 4))
        for field in ("rat", "quad:2"):
            ops += space_ops(desk, field)
            ops += construct_ops(desk, field)
            ops += verify_pencil_ops(desk, field)
        return ops
    raise ValueError(f"unknown workload {name!r}")
