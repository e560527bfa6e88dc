"""Exact arithmetic for the benchmark's generator and checker.

Nothing here imports the package under test: the checker must reach its
verdicts with code of its own. Rationals are ``fractions.Fraction``;
elements of Q(s) with s^2 = 2 are :class:`Quad2`; residues mod p are
plain ints handled by the ``*_mod`` helpers. Matrices are lists of rows.
"""

from __future__ import annotations

import re
from fractions import Fraction

RADICAND = 2


class Quad2:
    """c0 + c1*s with s^2 = 2 and rational c0, c1."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0, c1=0):
        self.c0 = Fraction(c0)
        self.c1 = Fraction(c1)

    @staticmethod
    def lift(v) -> "Quad2":
        return v if isinstance(v, Quad2) else Quad2(v)

    def __add__(self, o):
        o = Quad2.lift(o)
        return Quad2(self.c0 + o.c0, self.c1 + o.c1)

    __radd__ = __add__

    def __neg__(self):
        return Quad2(-self.c0, -self.c1)

    def __sub__(self, o):
        return self + (-Quad2.lift(o))

    def __rsub__(self, o):
        return Quad2.lift(o) - self

    def __mul__(self, o):
        o = Quad2.lift(o)
        return Quad2(self.c0 * o.c0 + RADICAND * self.c1 * o.c1,
                     self.c0 * o.c1 + self.c1 * o.c0)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Quad2.lift(o)
        norm = o.c0 * o.c0 - RADICAND * o.c1 * o.c1
        return self * Quad2(o.c0 / norm, -o.c1 / norm)

    def __rtruediv__(self, o):
        return Quad2.lift(o) / self

    def __eq__(self, o):
        o = Quad2.lift(o)
        return self.c0 == o.c0 and self.c1 == o.c1

    def __hash__(self):
        return hash((self.c0, self.c1))

    def __bool__(self):
        return bool(self.c0) or bool(self.c1)

    def __repr__(self):
        return f"Quad2({self.c0}, {self.c1})"


# -- scalar text --------------------------------------------------------------

# c0 must end at a sign or at the end, so "12*s" reads as c1 = 12 rather
# than c0 = 1, c1 = 2.
_QUAD_TEXT = re.compile(
    r"^(?:(?P<c0>[+-]?\d+(?:/\d+)?)(?=[+-]|$))?(?:(?P<sign>[+-])?(?P<c1>\d+(?:/\d+)?)\*s)?$")


def parse_scalar(field: str, text: str):
    """Read one entry of a matrix document in the given field tag."""
    if field == "rat":
        return Fraction(text)
    if field.startswith("gf:"):
        return int(text) % int(field[3:])
    if field == f"quad:{RADICAND}":
        m = _QUAD_TEXT.match(text)
        if not m or (m.group("c0") is None and m.group("c1") is None):
            raise ValueError(f"bad quadratic scalar {text!r}")
        c1 = Fraction(m.group("c1") or 0)
        if m.group("sign") == "-":
            c1 = -c1
        return Quad2(Fraction(m.group("c0") or 0), c1)
    raise ValueError(f"unsupported field {field!r}")


def format_scalar(v) -> str:
    """Text the program's parser accepts for a rational or Quad2 value.

    A Quad2 with c1 != 0 always carries its c0, even 0: the program's
    parser rejects a bare "12*s" or "1/32*s" (it reads "1" as c0), though
    it prints pure multiples of s that way.
    """
    if isinstance(v, Quad2):
        if not v.c1:
            return str(v.c0)
        return f"{v.c0}{'+' if v.c1 > 0 else '-'}{abs(v.c1)}*s"
    return str(Fraction(v))


def matrix_doc(field: str, rows) -> dict:
    return {"field": field, "rows": [[format_scalar(v) for v in row] for row in rows]}


def read_matrix_doc(doc: dict, field: str | None = None):
    if field is not None and doc["field"] != field:
        raise ValueError(f"matrix over {doc['field']}, expected {field}")
    return [[parse_scalar(doc["field"], e) for e in row] for row in doc["rows"]]


# -- dense matrices over Q or Q(s) ---------------------------------------------------


def zeros(n, m=None, zero=Fraction(0)):
    return [[zero] * (n if m is None else m) for _ in range(n)]


def identity(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    k, m = len(b), len(b[0])
    return [[sum((row[t] * b[t][j] for t in range(k)), 0 * row[0]) for j in range(m)]
            for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero_matrix(a) -> bool:
    return all(not x for row in a for x in row)


def block_diag(blocks, zero=Fraction(0)):
    n = sum(len(b) for b in blocks)
    out = zeros(n, n, zero)
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[at + i][at + j] = v
        at += len(b)
    return out


def jordan(blocks, one=Fraction(1), zero=Fraction(0)):
    """Block-diagonal Jordan matrix for [(eigenvalue, size), ...]."""
    parts = []
    for lam, size in blocks:
        parts.append([[lam if i == j else (one if j == i + 1 else zero)
                       for j in range(size)] for i in range(size)])
    return block_diag(parts, zero)


def rank(rows) -> int:
    """Rank by Gauss-Jordan elimination over a field (Fraction or Quad2)."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    r = 0
    for c in range(len(work[0])):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [inv * e for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [e - f * g for e, g in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def flatten(m):
    return [v for row in m for v in row]


# -- residues mod p ------------------------------------------------------------------


def nullspace_mod(rows, p: int) -> list[list[int]]:
    """Basis of the right kernel of an integer matrix mod p."""
    work = [[v % p for v in r] for r in rows]
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [e * inv % p for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(e - f * g) % p for e, g in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, pc in enumerate(pivots):
            v[pc] = -work[row][free] % p
        basis.append(v)
    return basis
