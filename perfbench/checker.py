"""Independent checks of every operation's output.

This module imports nothing from ``yangbaxter``. Each check recomputes
what the answer must satisfy with its own arithmetic (numpy residues mod
p, ``Fraction`` and :class:`exact.Quad2`) and a polynomial reducer of its
own, or compares against facts the input generator fixed (Jordan data of
the conjugated inputs). It never compares against a stored copy of an
earlier output.

``check(op, rc, stdout, cache)`` returns ``None`` when the output passes
and a one-line reason when it does not.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

import numpy as np

from exact import (flatten, is_zero_matrix, jordan, mat_add, mat_mul,
                   mat_sub, nullspace_mod, rank, read_matrix_doc)


class CheckFailed(Exception):
    pass


def require(cond, reason: str):
    if not cond:
        raise CheckFailed(reason)


def _residual(a, x):
    """AXA - XAX in exact arithmetic."""
    return mat_sub(mat_mul(mat_mul(a, x), a), mat_mul(mat_mul(x, a), x))


def check(op: dict, rc: int, stdout: str, cache: dict) -> str | None:
    try:
        doc = json.loads(stdout)
        kind = op["kind"]
        if kind == "census":
            check_census(op["check"], rc, doc, cache.setdefault(op["id"], {}))
        elif kind == "groebner":
            check_groebner(op["check"], rc, doc)
        elif kind == "sylvester":
            check_sylvester(op["check"], rc, doc)
        else:
            check_query(op["check"], rc, doc)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


# -- census over GF(p) ------------------------------------------------------------


def _residual_zero(a, xs, p):
    axa = np.matmul(np.matmul(a, xs) % p, a) % p
    xax = np.matmul(np.matmul(xs, a) % p, xs) % p
    return (axa == xax).all(axis=(1, 2))


def brute_force(a: np.ndarray, p: int, commuting: bool) -> list[tuple]:
    """Every solution mod p, sorted; commuting ones range over the
    centralizer, found as the kernel of M -> AM - MA."""
    n = a.shape[0]
    if commuting:
        rows = []
        for i in range(n):
            for j in range(n):
                coeff = [0] * (n * n)
                for k in range(n):
                    coeff[k * n + j] += int(a[i, k])
                    coeff[i * n + k] -= int(a[k, j])
                rows.append(coeff)
        basis = np.array(nullspace_mod(rows, p), dtype=np.int64)
    else:
        basis = np.eye(n * n, dtype=np.int64)
    dim = basis.shape[0]
    weights = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    found = []
    chunk = 1 << 16
    for start in range(0, p ** dim, chunk):
        idx = np.arange(start, min(start + chunk, p ** dim), dtype=np.int64)
        coeffs = (idx[:, None] // weights[None, :]) % p
        xs = (coeffs @ basis % p).reshape(-1, n, n)
        found.extend(map(tuple, xs[_residual_zero(a, xs, p)].reshape(-1, n * n).tolist()))
    return sorted(found)


def census_kernel_label(kernel, ranges) -> str:
    """The block span the kernel equals, as the census tallies it."""
    if not kernel:
        return "trivial"
    support = {j for v in kernel for j, c in enumerate(v) if c}
    covering = [k for k, (lo, hi) in enumerate(ranges) if any(lo <= j < hi for j in support)]
    if len(kernel) == sum(ranges[k][1] - ranges[k][0] for k in covering):
        return "+".join(f"P{k + 1}" for k in covering)
    return "other"


def two_block_kernel_ok(kernel, n1: int, n: int) -> bool:
    """A singular nonzero solution's kernel must be the first block span,
    the second, or the whole space."""
    dim = len(kernel)
    in_first = all(not any(v[n1:]) for v in kernel)
    in_second = all(not any(v[:n1]) for v in kernel)
    return dim == n or (dim == n1 and in_first) or (dim == n - n1 and in_second)


def check_census(chk: dict, rc: int, doc: dict, memo: dict):
    p, blocks, commuting = chk["p"], chk["blocks"], chk["commuting"]
    n = sum(size for _, size in blocks)
    field = f"gf:{p}"
    a = np.array([[int(v) % p for v in row] for row in jordan(blocks)], dtype=np.int64)
    require(doc["schema"] == "census/1" and doc["field"] == field, "wrong schema or field")
    require(doc["commuting_only"] is commuting, "wrong commuting flag")
    require(read_matrix_doc(doc["coefficient"], field) == a.tolist(),
            "coefficient is not the requested Jordan matrix")
    sols = []
    for s in doc["solutions"]:
        require(s["field"] == field, "solution over the wrong field")
        require(all(0 <= int(e) < p for row in s["rows"] for e in row),
                "entry is not a canonical residue")
        sols.append(tuple(int(e) for row in s["rows"] for e in row))
    require(doc["total"] == len(sols), "total differs from the solution list")
    require(all(s < t for s, t in zip(sols, sols[1:])), "solutions not sorted and unique")
    xs = np.array(sols, dtype=np.int64).reshape(-1, n, n)
    if sols:
        require(_residual_zero(a, xs, p).all(), "a reported solution fails the residual mod p")
        if commuting:
            require(((np.matmul(a, xs) - np.matmul(xs, a)) % p == 0).all(),
                    "a reported solution does not commute")
    if "solutions" not in memo:
        memo["solutions"] = brute_force(a, p, commuting)
    require(sols == memo["solutions"],
            f"solution set differs from brute force ({len(sols)} vs {len(memo['solutions'])})")

    if "facts" not in memo:
        ranges, at = [], 0
        for _, size in blocks:
            ranges.append((at, at + size))
            at += size
        ranks, labels, straddles = Counter(), Counter(), 0
        two_block = len(blocks) == 2 and all(lam % p for lam, _ in blocks)
        for x in xs.tolist():
            kernel = nullspace_mod(x, p)
            ranks[str(n - len(kernel))] += 1
            labels[census_kernel_label(kernel, ranges)] += 1
            if two_block and any(map(any, x)) and kernel:
                straddles += not two_block_kernel_ok(kernel, blocks[0][1], n)
        memo["facts"] = (dict(ranks), dict(labels), straddles)
    ranks, labels, straddles = memo["facts"]
    require(doc["by_rank"] == ranks, "by_rank differs from the checker's ranks mod p")
    require(doc["by_kernel"] == labels, "by_kernel differs from the checker's kernels")

    checks = doc["theorem_checks"]
    failures = checks["failures"]
    require(checks["failed"] == len(failures) <= checks["run"], "inconsistent theorem counts")
    require(all(f["name"] == "two-block-kernel-classification" for f in failures),
            "a failing verdict the checker cannot confirm")
    require(len(failures) == straddles,
            f"{len(failures)} kernel-classification failures, {straddles} genuine")
    require(rc == (1 if failures else 0), f"exit code {rc} disagrees with the verdicts")
    if "family_tallies" in doc:
        tags = doc["family_tags"]
        require(len(tags) == len(sols), "family tags not aligned with solutions")
        require(Counter(t.split("[", 1)[0] for t in tags) + Counter()
                == Counter({k: v for k, v in doc["family_tallies"].items() if v}),
                "family tallies disagree with the tags")


# -- Groebner bases over Q --------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?((?:[a-z](?:\^\d+)?\*?)*)$")


def parse_poly(text: str, variables: str) -> dict:
    """Read the printed form '2*a^2*b - c + 3' into {exponents: Fraction}."""
    poly: dict = {}
    if text.strip() == "0":
        return poly
    body = text.strip()
    sign = 1
    if body.startswith("-"):
        sign, body = -1, body[1:]
    pieces = re.split(r" ([+-]) ", body)
    signs = [sign] + [1 if s == "+" else -1 for s in pieces[1::2]]
    for sgn, term in zip(signs, pieces[0::2]):
        m = _TERM.match(term.replace(" ", ""))
        if not m or not term:
            raise ValueError(f"bad term {term!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        exps = [0] * len(variables)
        for fm in re.finditer(r"([a-z])(?:\^(\d+))?", m.group(2)):
            exps[variables.index(fm.group(1))] += int(fm.group(2) or 1)
        key = tuple(exps)
        poly[key] = poly.get(key, Fraction(0)) + sgn * coeff
    return {k: v for k, v in poly.items() if v}


def _add_scaled(f: dict, g: dict, c: Fraction, shift) -> None:
    """f += c * x^shift * g, in place."""
    for m, v in g.items():
        key = tuple(a + b for a, b in zip(m, shift))
        w = f.get(key, 0) + c * v
        if w:
            f[key] = w
        else:
            f.pop(key, None)


def reduce_poly(f: dict, basis: list[dict]) -> dict:
    """Full reduction of f modulo the basis under lex order."""
    work, rem = dict(f), {}
    leads = [(max(g), g) for g in basis if g]
    while work:
        m = max(work)
        c = work[m]
        for lm, g in leads:
            if all(a <= b for a, b in zip(lm, m)):
                _add_scaled(work, g, -c / g[lm], tuple(b - a for a, b in zip(lm, m)))
                break
        else:
            rem[m] = c
            del work[m]
    return rem


def s_poly(f: dict, g: dict) -> dict:
    lf, lg = max(f), max(g)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    out: dict = {}
    _add_scaled(out, f, 1 / f[lf], tuple(a - b for a, b in zip(lcm, lf)))
    _add_scaled(out, g, -1 / g[lg], tuple(a - b for a, b in zip(lcm, lg)))
    return out


def ideal_generators(blocks) -> tuple[list[dict], str]:
    """Entries of AXA - XAX as polynomials in the row-major unknowns a, b, ..."""
    a = jordan(blocks)
    n = len(a)
    variables = "abcdefghijklmnop"[:n * n]

    def var(k):
        return {tuple(1 if t == k else 0 for t in range(n * n)): Fraction(1)}

    def pmul(f, g):
        out: dict = {}
        for m1, c1 in f.items():
            _add_scaled(out, g, c1, m1)
        return out

    def padd(f, g):
        out = dict(f)
        _add_scaled(out, g, Fraction(1), (0,) * (n * n))
        return out

    def const(c):
        return {(0,) * (n * n): Fraction(c)} if c else {}

    x = [[var(i * n + j) for j in range(n)] for i in range(n)]
    am = [[const(v) for v in row] for row in a]

    def mm(p, q):
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc: dict = {}
                for k in range(n):
                    acc = padd(acc, pmul(p[i][k], q[k][j]))
                row.append(acc)
            out.append(row)
        return out

    axa, xax = mm(mm(am, x), am), mm(mm(x, am), x)
    gens = []
    for i in range(n):
        for j in range(n):
            diff = dict(axa[i][j])
            _add_scaled(diff, xax[i][j], Fraction(-1), (0,) * (n * n))
            if diff:
                gens.append(diff)
    return gens, variables


def evaluate(f: dict, point: list) -> Fraction:
    total = Fraction(0)
    for m, c in f.items():
        term = c
        for v, e in zip(point, m):
            if e:
                term *= v ** e
        total += term
    return total


def check_groebner(chk: dict, rc: int, doc: dict):
    require(rc == 0, f"exit code {rc}")
    gens, variables = ideal_generators(chk["blocks"])
    basis = [parse_poly(t, variables) for t in doc["basis"]]
    require(basis and all(basis), "empty basis or zero element")
    leads = [max(g) for g in basis]
    require(all(g[lm] == 1 for g, lm in zip(basis, leads)), "basis element not monic")
    for i, g in enumerate(basis):
        for j, lm in enumerate(leads):
            if i != j:
                require(not any(all(a <= b for a, b in zip(lm, m)) for m in g),
                        "basis is not reduced")
    for i in range(len(basis)):
        for j in range(i):
            li, lj = leads[i], leads[j]
            if any(a and b for a, b in zip(li, lj)):  # coprime leads reduce to zero
                require(not reduce_poly(s_poly(basis[i], basis[j]), basis),
                        "an S-polynomial does not reduce to zero (Buchberger criterion)")
    require(all(not reduce_poly(g, basis) for g in gens),
            "an ideal generator does not reduce to zero")
    a = jordan(chk["blocks"])
    for x in chk["points"]:
        require(is_zero_matrix(_residual(a, x)), "sample point is not a solution")
        point = flatten(x)
        require(all(evaluate(g, point) == 0 for g in basis),
                "basis does not vanish at a closed-form solution")
    require(set(doc["probes"]) == set(chk["probes"]), "probe set differs")
    for text, checker_form in chk["probes"].items():
        want = reduce_poly(parse_poly(checker_form, variables), basis)
        require(parse_poly(doc["probes"][text], variables) == want,
                f"normal form of {text} differs from the checker's reduction")


# -- exact desk ---------------------------------------------------------------------


def _independent(mats) -> bool:
    return rank([flatten(m) for m in mats]) == len(mats)


def check_sylvester(chk: dict, rc: int, doc: dict):
    field, a, b, c = chk["field"], chk["a"], chk["b"], chk["c"]
    require(doc["unique_for_every_rhs"] is chk["unique"], "wrong uniqueness verdict")
    require(not doc.get("inconsistent") and rc == 0, "consistent system reported inconsistent")
    x = read_matrix_doc(doc["particular"], field)
    require(mat_add(mat_mul(a, x), mat_mul(x, b)) == c, "particular solution fails AX + XB = C")
    kernel = [read_matrix_doc(k, field) for k in doc["kernel"]]
    require(len(kernel) == chk["kernel_dim"],
            f"kernel dimension {len(kernel)}, Jordan data gives {chk['kernel_dim']}")
    for k in kernel:
        require(is_zero_matrix(mat_add(mat_mul(a, k), mat_mul(k, b))),
                "kernel element fails AK + KB = 0")
    require(_independent(kernel), "kernel basis is dependent")


def check_query(chk: dict, rc: int, doc: dict):
    what, field = chk["what"], chk["field"]
    if what in ("centralizer", "annihilator"):
        a = chk["a"]
        n = len(a)
        require(rc == 0 and doc["kind"] == what, "wrong kind or exit code")
        basis = [read_matrix_doc(m, field) for m in doc["basis"]]
        require(doc["dimension"] == len(basis), "dimension differs from the basis")
        if what == "centralizer":
            require(len(basis) == chk["dim"],
                    f"centralizer dimension {len(basis)}, Jordan data gives {chk['dim']}")
            require(all(mat_mul(a, m) == mat_mul(m, a) for m in basis),
                    "basis element does not commute")
        else:
            want = (n - rank(a)) ** 2
            require(len(basis) == want, f"annihilator dimension {len(basis)}, expected {want}")
            require(all(is_zero_matrix(mat_mul(a, m)) and is_zero_matrix(mat_mul(m, a))
                        for m in basis), "basis element is not annihilated")
        require(_independent(basis), "basis is dependent")
    elif what == "construct":
        require(rc == 0, f"exit code {rc}")
        require(doc["family"] == chk["family"], "wrong family")
        coeff = read_matrix_doc(doc["coefficient"], field)
        x = read_matrix_doc(doc["solution"], field)
        require(coeff == chk["coefficient"], "coefficient differs from the family's")
        require(is_zero_matrix(_residual(coeff, x)), "constructed member fails the residual")
    elif what == "verify":
        res = _residual(chk["a"], chk["x"])
        holds = is_zero_matrix(res)
        require(doc["is_solution"] is holds, "wrong verdict")
        require(read_matrix_doc(doc["residual"], field) == res, "wrong residual")
        require(rc == (0 if holds else 1), f"exit code {rc} disagrees with the verdict")
    elif what == "pencil":
        a, x0, x1 = chk["a"], chk["x0"], chk["x1"]
        conds = [mat_mul(mat_mul(a, x1), a), mat_mul(mat_mul(x1, a), x1),
                 mat_add(mat_mul(mat_mul(x0, a), x1), mat_mul(mat_mul(x1, a), x0))]
        bad = [m for m in conds if not is_zero_matrix(m)]
        require(doc["holds"] is (not bad), "wrong pencil verdict")
        if bad:
            require(read_matrix_doc(doc["witness"], field) == bad[0], "wrong witness")
        require(rc == (1 if bad else 0), f"exit code {rc} disagrees with the verdict")
    else:
        raise CheckFailed(f"unknown query {what!r}")

