"""Exact univariate polynomials and characteristic polynomials.

The characteristic polynomial det(xI - M) comes from a Hessenberg form
of M and the recurrence over its leading blocks, for every field: O(n^3)
operations on the field's raw values.

Spectral questions need no root finding: :func:`unsplit_part` divides out
the linear factors at roots a caller supplies and leaves the rest.
"""

from __future__ import annotations

from itertools import accumulate, starmap, zip_longest

from .errors import DimensionError, FieldMismatchError
from .fields import Field, Scalar
from .matrices import Matrix


class UniPoly:
    """A univariate polynomial, coefficients lowest degree first.

    Coefficients are stored as the field's raw values in ``raw``, without
    trailing zeros; ``coeffs`` boxes them as scalars.
    """

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, coeffs):
        raw = list(map(field.coerce, coeffs))
        while raw and raw[-1] == field.ZERO:
            raw.pop()
        self.field = field
        self.raw = tuple(raw)

    @classmethod
    def _make(cls, field: Field, raw) -> "UniPoly":
        """A polynomial over raw coefficients this module computed."""
        raw = list(raw)
        while raw and raw[-1] == field.ZERO:
            raw.pop()
        p = object.__new__(cls)
        p.field, p.raw = field, tuple(raw)
        return p

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls._make(field, [])

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(self.field, c) for c in self.raw)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.raw) - 1

    @property
    def is_zero(self) -> bool:
        return not self.raw

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.raw[-1] == self.field.ONE

    def _check(self, other: "UniPoly"):
        if self.field is not other.field:
            raise FieldMismatchError("polynomials over different fields")

    def __eq__(self, other) -> bool:
        return (isinstance(other, UniPoly) and self.field is other.field
                and self.raw == other.raw)

    def __hash__(self) -> int:
        return hash(self.raw)

    def _termwise(self, op, other: "UniPoly") -> "UniPoly":
        self._check(other)
        pairs = zip_longest(self.raw, other.raw, fillvalue=self.field.ZERO)
        return UniPoly._make(self.field, starmap(op, pairs))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return self._termwise(self.field.add, other)

    def __neg__(self) -> "UniPoly":
        return UniPoly._make(self.field, map(self.field.neg, self.raw))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self._termwise(self.field.sub, other)

    def __mul__(self, other):
        f = self.field
        if not isinstance(other, UniPoly):
            return UniPoly._make(f, f.scale(f.coerce(other), self.raw))
        self._check(other)
        a, b = self.raw, other.raw
        if not a or not b:
            return UniPoly.zero(f)
        out = [f.ZERO] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c != f.ZERO:
                out[i:i + len(b)] = map(f.add, out[i:i + len(b)], f.scale(c, b))
        return UniPoly._make(f, out)

    __rmul__ = __mul__

    def monic(self) -> "UniPoly":
        if self.is_zero or self.is_monic:
            return self
        f = self.field
        return UniPoly._make(f, f.scale(f.inv(self.raw[-1]), self.raw))

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        f = self.field
        rem = list(self.raw)
        d = other.degree
        dq = len(rem) - 1 - d
        if dq < 0:
            return UniPoly.zero(f), self
        quo = [f.ZERO] * (dq + 1)
        inv = f.inv(other.raw[-1])
        for k in range(dq, -1, -1):
            c = quo[k] = f.mul(rem[k + d], inv)
            if c != f.ZERO:
                rem[k:k + d + 1] = f.sub_scaled(rem[k:k + d + 1], c, other.raw)
        return UniPoly._make(f, quo), UniPoly._make(f, rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor via the Euclidean algorithm."""
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def __call__(self, point) -> Scalar:
        f = self.field
        point = f.coerce(point)
        acc = f.ZERO
        for c in reversed(self.raw):
            acc = f.add(f.mul(acc, point), c)
        return Scalar(f, acc)

    def at_matrix(self, m: Matrix) -> Matrix:
        """Horner evaluation of this polynomial at a square matrix."""
        if not m.is_square:
            raise DimensionError("polynomial evaluation needs a square matrix")
        if m.field is not self.field:
            raise FieldMismatchError("matrix field differs from coefficient field")
        ident = Matrix.identity(self.field, m.nrows)
        acc = ident.scale(self.raw[-1]) if self.raw else Matrix.zero(self.field, m.nrows)
        for c in reversed(self.raw[:-1]):
            acc = acc * m + ident.scale(c)
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        f = self.field
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.raw[k]
            if c == f.ZERO:
                continue
            coeff = "" if c == f.ONE and k else f.format(c) + ("*" if k else "")
            parts.append(coeff + ("" if k == 0 else "x" if k == 1 else f"x^{k}"))
        return parts[0] + "".join(" - " + t[1:] if t.startswith("-") else " + " + t
                                  for t in parts[1:])

    def __repr__(self) -> str:
        return f"UniPoly({self.field.spec()}, {self})"


def char_poly(m: Matrix) -> UniPoly:
    """Monic characteristic polynomial det(xI - m) (Cohen, GTM 138, 2.2.9).

    Similarities bring m to upper Hessenberg form H, with a row and column
    swap for a zero pivot; the leading blocks of H then satisfy
    p_k = (x - h_kk) p_(k-1) - sum_i h_ik (h_(i+1)i ... h_k(k-1)) p_(i-1).
    """
    if not m.is_square:
        raise DimensionError("characteristic polynomial needs a square matrix")
    f, n, z = m.field, m.nrows, m.field.ZERO
    h = m._raw_rows()
    for c in range(n - 2):
        r = next((i for i in range(c + 1, n) if h[i][c] != z), None)
        if r is None:
            continue
        if r != c + 1:
            h[r], h[c + 1] = h[c + 1], h[r]
            for row in h:
                row[r], row[c + 1] = row[c + 1], row[r]
        inv = f.inv(h[c + 1][c])
        for i in range(c + 2, n):
            if (u := f.mul(h[i][c], inv)) != z:
                h[i] = f.sub_scaled(h[i], u, h[c + 1])
                for row in h:
                    row[c + 1] = f.add(row[c + 1], f.mul(u, row[i]))
    polys = [[f.ONE]]
    for k in range(n):
        pk = [z, *polys[k]]
        pk[:k + 1] = f.sub_scaled(pk[:k + 1], h[k][k], polys[k])
        t = f.ONE
        for i in range(k - 1, -1, -1):
            t = f.mul(t, h[i + 1][i])
            if t == z:
                break
            pk[:i + 1] = f.sub_scaled(pk[:i + 1], f.mul(t, h[i][k]), polys[i])
        polys.append(pk)
    return UniPoly._make(f, polys[n])


def unsplit_part(p: UniPoly, roots) -> UniPoly:
    """What is left of a nonzero p once every factor x - r, for r among
    ``roots``, is divided out to its full multiplicity: one synthetic
    division by x - r after another while r is a root. Constant exactly
    when every root of p is among ``roots``."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no unsplit part")
    f, raw = p.field, p.raw
    for r in dict.fromkeys(map(f.coerce, roots)):
        while len(raw) > 1:  # Horner's partial sums: the quotient, then p(r)
            quo = list(accumulate(reversed(raw), lambda acc, c: f.add(f.mul(acc, r), c)))
            if quo[-1] != f.ZERO:
                break
            raw = quo[-2::-1]
    return UniPoly._make(f, raw)
