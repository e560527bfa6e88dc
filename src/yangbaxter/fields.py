"""Exact coefficient fields and their elements.

Each field kind is a :class:`Field` subclass that owns the arithmetic on
its raw values: ``Fraction`` for the rationals, int residues in ``[0, p)``
for GF(p), and Fraction pairs ``(c0, c1)`` meaning ``c0 + c1*s`` for Q(s),
``s**2 = a`` with ``a`` a rational non-square. Matrices and polynomials
compute on raw values; a :class:`Scalar` boxes one at public interfaces.
Over Q and Q(s) matrix products and Gauss-Jordan elimination run on one
integer model, the rows ``lift_rows`` scales to integers: a product sums
the lifted rows of one factor against the lifted columns of the other, and
elimination is fraction-free (Bareiss, Math. Comp. 22, 1968), so a
Fraction is built once per result entry.

Fields are interned: ``Field.rationals``, ``gf``, ``quadratic`` and
``from_spec`` return one object per field, even to racing threads, so
fields compare by identity. Scalars are immutable and hashable; two are
equal when they share a field and a raw value. An int or Fraction equals
a scalar only when it is the scalar's canonical value, which is also its
hash: the Fraction for ``rat``, the residue in ``[0, p)`` for ``gf:p``,
and ``c0`` for ``quad:a`` when ``c1 == 0``. In GF(5), 2 equals 2, not 7.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .errors import DegenerateExtensionError, FieldError, FieldMismatchError, ParseError

_RAT_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")
# c0 +/- c1*s, with either part optional but not both absent; c0 is only
# taken when a sign or the end follows it, so "12*s" is a pure multiple of s
_QUAD_RE = re.compile(
    r"^(?:(?P<c0>[+-]?\d+(?:/[1-9]\d*)?)(?=[+-]|$))?"
    r"(?:(?P<sign>[+-])?(?P<c1>\d+(?:/[1-9]\d*)?)\*s)?$"
)

_INTERNED: dict[str, "Field"] = {}


def _intern(spec: str, make) -> "Field":
    """The one field object for ``spec``; ``setdefault`` keeps it unique
    when two threads build the same field at once."""
    return _INTERNED.get(spec) or _INTERNED.setdefault(spec, make())


def power(base, k: int, one, mul=operator.mul):
    """base**k for an int k >= 0 by repeated squaring under ``mul``, from
    the lowest set bit: no product with ``one``, no square after the last bit."""
    out = None
    while k:
        if k & 1:
            out = base if out is None else mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return one if out is None else out


# Miller-Rabin to these bases decides primality below the bound (Sorenson
# and Webster, Math. Comp. 86, 2017); larger moduli are refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below _PRIME_BOUND: with n - 1 = d * 2^s,
    d odd, n is prime when each base b has b^d = 1 or b^(d * 2^r) = -1
    mod n for some r < s."""
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False
    return True


def _rational_sqrt(a: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if it is not a square."""
    if a < 0:
        return None
    rn = math.isqrt(a.numerator)
    rd = math.isqrt(a.denominator)
    if rn * rn == a.numerator and rd * rd == a.denominator:
        return Fraction(rn, rd)
    return None


class Field:
    """A coefficient field: rationals, GF(p) or a quadratic extension of Q,
    built by :meth:`rationals`, :meth:`gf`, :meth:`quadratic` or :meth:`from_spec`,
    told apart by ``p`` (GF(p) only) and ``radicand`` (Q(s) only). Its
    methods on raw values (``add``, ``mul``, ...) check nothing."""

    __slots__ = ("p", "radicand", "_spec")

    def __init__(self, spec: str, p: int | None = None, radicand: Fraction | None = None):
        self._spec = spec
        self.p = p
        self.radicand = radicand

    @classmethod
    def rationals(cls) -> "Field":
        return _intern("rat", lambda: _Rationals("rat"))

    @classmethod
    def gf(cls, p: int) -> "Field":
        p = operator.index(p)
        return _intern(f"gf:{p}", lambda: _PrimeField(p))

    @classmethod
    def quadratic(cls, a) -> "Field":
        a = Fraction(a)
        return _intern(f"quad:{a}", lambda: _QuadraticField(a))

    @classmethod
    def from_spec(cls, text: str) -> "Field":
        if not isinstance(text, str):
            raise ParseError(f"field spec must be a string, not {text!r}")
        text = text.strip()
        if text == "rat":
            return cls.rationals()
        if text.startswith("gf:"):
            body = text[3:]
            if not _INT_RE.match(body):
                raise ParseError(f"bad prime field spec {text!r}")
            return cls.gf(int(body))
        if text.startswith("quad:"):
            body = text[5:]
            if not _RAT_RE.match(body):
                raise ParseError(f"bad quadratic field spec {text!r}")
            return cls.quadratic(Fraction(body))
        raise ParseError(f"unknown field spec {text!r}")

    def __reduce__(self):
        return (Field.from_spec, (self._spec,))

    def __repr__(self) -> str:
        return f"Field({self._spec!r})"

    def spec(self) -> str:
        """The textual field tag used by the matrix file format."""
        return self._spec

    # -- element construction -------------------------------------------------

    def coerce(self, value):
        """The raw value of a scalar of this field, an int, a Fraction or,
        in a quadratic field, a (c0, c1) pair."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatchError(f"scalar from {value.field.spec()} used in {self._spec}")
            return value.v
        return self._coerce(value)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, Scalar or (c0, c1) pair into this field."""
        return Scalar(self, self.coerce(value))

    def zero(self) -> "Scalar":
        return Scalar(self, self.ZERO)

    def one(self) -> "Scalar":
        return Scalar(self, self.ONE)

    def symbol(self) -> "Scalar":
        """The adjoined square root s of a quadratic extension."""
        raise FieldError(f"{self._spec} has no adjoined symbol")

    def elements(self):
        """All field elements; only available for prime fields."""
        raise FieldError(f"cannot enumerate {self._spec}")

    def sqrt(self, s) -> "Scalar | None":
        """An exact square root of ``s`` in this field, or None."""
        r = self._sqrt(self.coerce(s))
        return None if r is None else Scalar(self, r)

    def parse(self, text: str) -> "Scalar":
        """Parse one scalar in the strict textual grammar of this field."""
        v = self._parse(text.strip().replace("−", "-"))
        if v is None:
            raise ParseError(f"bad {self._noun} {text!r}")
        return Scalar(self, v)

    # -- arithmetic on raw values ------------------------------------------------
    # Each field kind supplies add, sub, neg, mul, inv and matmul(rows,
    # cols), the row-major raw entries of each row (read once) times each
    # column (a list): the lifted rows times the lifted columns, over the
    # product of two scales.

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def scale(self, c, xs) -> list:
        return [self.mul(c, x) for x in xs]

    def sub_scaled(self, xs, c, ys) -> list:
        """[x - c*y] over two equal-length raw sequences."""
        return [self.sub(x, self.mul(c, y)) for x, y in zip(xs, ys)]

    # -- Gauss-Jordan elimination ----------------------------------------------
    # Matrix._rref runs the one loop over pivot columns; each field kind
    # supplies the row arithmetic: WORK_ZERO and WORK_ONE, the zero of its
    # working rows and the ``prev`` of the first step, and
    #   lift_rows(rows) -> the working rows and each row's scale, an int
    #       that the raw row is multiplied by,
    #   clear_column(rows, r, c, prev) -> clears column c of every row but
    #       the pivot row r, in place, and returns the next step's prev,
    #   reduced_rows(rows, prev) -> the raw rows of the reduced echelon form.

    def canonical(self, a):
        """The number a scalar with raw value ``a`` equals and hashes as."""
        return a

    def format(self, a) -> str:
        return str(a)


class _Rationals(Field):
    __slots__ = ()
    ZERO, ONE = Fraction(0), Fraction(1)
    _noun = "rational"
    add, sub, mul, div = operator.add, operator.sub, operator.mul, operator.truediv
    neg = operator.neg

    def inv(self, a):
        return 1 / a

    # Products and fraction-free Gauss-Jordan (Bareiss) on int rows: each
    # row is scaled by the lcm of its denominators. In elimination every
    # entry after a step is a minor of the scaled matrix, so the division
    # by ``prev`` is exact.
    WORK_ZERO, WORK_ONE = 0, 1

    def lift_rows(self, rows):
        out, scales = [], []
        for row in rows:
            m = math.lcm(*(x.denominator for x in row))
            out.append([x.numerator * (m // x.denominator) for x in row])
            scales.append(m)
        return out, scales

    def matmul(self, rows, cols):
        cols = list(zip(*self.lift_rows(cols)))
        return [Fraction(sum(map(operator.mul, r, c)), a * b)
                for r, a in zip(*self.lift_rows(rows)) for c, b in cols]

    def clear_column(self, rows, r, c, prev):
        """row_i <- (p*row_i - e*row_r) / prev for every i != r, with p the
        pivot and e row i's entry in column c. Rows with e = 0 are scaled
        by p/prev too, so all rows stay on one scale: every pivot ends
        equal to the last, which reduced_rows divides by."""
        pivot = rows[r]
        p = pivot[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            e = row[c]
            if e:
                rows[i] = [(p * x - e * y) // prev for x, y in zip(row, pivot)]
            elif p != prev:
                rows[i] = [p * x // prev for x in row]
        return p

    def reduced_rows(self, rows, prev):
        zero = self.ZERO
        return [[Fraction(x, prev) if x else zero for x in row] for row in rows]

    def _coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise FieldError(f"cannot coerce {value!r} into {self._spec}")

    def _parse(self, text):
        return Fraction(text) if _RAT_RE.match(text) else None

    _sqrt = staticmethod(_rational_sqrt)


class _PrimeField(Field):
    __slots__ = ()
    ZERO, ONE = WORK_ZERO, WORK_ONE = 0, 1
    _noun = "residue"

    def __init__(self, p: int):
        if p >= _PRIME_BOUND:
            raise FieldError(f"modulus {p} is too large: primality is decided below "
                             f"{_PRIME_BOUND}")
        if not _is_prime(p):
            raise FieldError(f"modulus must be prime, got {p!r}")
        super().__init__(f"gf:{p}", p=p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("scalar is zero")
        return pow(a, -1, self.p)

    def matmul(self, rows, cols):
        """The lift is the identity, with scale 1: the sums run on residues."""
        p = self.p
        return [sum(map(operator.mul, r, c)) % p for r in rows for c in cols]

    def sub_scaled(self, xs, c, ys) -> list:
        p = self.p
        return [(x - c * y) % p for x, y in zip(xs, ys)]

    # textbook Gauss-Jordan on residues: each pivot row is scaled to 1, and
    # prev carries the product of the pivots
    def lift_rows(self, rows):
        return rows, [1] * len(rows)

    def clear_column(self, rows, r, c, prev):
        e = rows[r][c]
        pivot = rows[r] = self.scale(self.inv(e), rows[r])
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = self.sub_scaled(row, row[c], pivot)
        return self.mul(prev, e)

    def reduced_rows(self, rows, prev):
        return rows

    def elements(self):
        return (Scalar(self, v) for v in range(self.p))

    def _coerce(self, value):
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if not den:
                raise FieldError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        if isinstance(value, int):
            return value % self.p
        raise FieldError(f"cannot coerce {value!r} into {self._spec}")

    def _parse(self, text):
        return int(text) % self.p if _INT_RE.match(text) else None

    def _sqrt(self, a):
        """Euler's criterion, then Tonelli-Shanks; the smaller of the two
        roots r and p - r, as an exhaustive scan would find first."""
        p = self.p
        if not a or p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2**s with q odd
        q = (p - 1) >> s
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
            b = pow(c, 1 << (s - i - 1), p)
            s, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return min(r, p - r)


class _QuadraticField(Field):
    __slots__ = ()
    ZERO, ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    _noun = "quadratic scalar"

    def __init__(self, radicand: Fraction):
        if _rational_sqrt(radicand) is not None:
            raise DegenerateExtensionError(
                f"radicand {radicand} is a square in Q; the extension is degenerate"
            )
        super().__init__(f"quad:{radicand}", radicand=radicand)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        return (a[0] * b[0] + a[1] * b[1] * self.radicand, a[0] * b[1] + a[1] * b[0])

    def inv(self, a):
        c0, c1 = a
        norm = c0 * c0 - c1 * c1 * self.radicand
        return (c0 / norm, -c1 / norm)

    # Products and fraction-free Gauss-Jordan as over the rationals, on
    # pairs (x0, x1) meaning x0 + x1*t in Z[t], with t = v*s and t^2 = u*v
    # for a = u/v. Division by prev multiplies by its conjugate, then
    # divides exactly by its norm.
    WORK_ZERO, WORK_ONE = (0, 0), (1, 0)

    def lift_rows(self, rows):
        v = self.radicand.denominator
        out, scales = [], []
        for row in rows:
            m = math.lcm(*(c0.denominator for c0, _ in row),
                         *(c1.denominator * v for _, c1 in row))
            out.append([(c0.numerator * (m // c0.denominator),
                         c1.numerator * (m // (c1.denominator * v))) for c0, c1 in row])
            scales.append(m)
        return out, scales

    def matmul(self, rows, cols):
        """(x0 + x1*t)(y0 + y1*t) = x0*y0 + w*x1*y1 + (x0*y1 + x1*y0)*t with
        w = t^2, so a row's x0s then x1s meet a column's y0s then w*y1s in
        s0 and its y1s then y0s in s1. The entry (s0 + s1*t)/d, d the product
        of the scales, is (s0/d, s1*v/d)."""
        v, mul = self.radicand.denominator, operator.mul
        w = self.radicand.numerator * v
        rows = [([x0 for x0, _ in r] + [x1 for _, x1 in r], a)
                for r, a in zip(*self.lift_rows(rows))]
        cols = [([y0 for y0, _ in c] + [w * y1 for _, y1 in c],
                 [y1 for _, y1 in c] + [y0 for y0, _ in c], b)
                for c, b in zip(*self.lift_rows(cols))]
        return [(Fraction(sum(map(mul, x, y0)), a * b), Fraction(sum(map(mul, x, y1)) * v, a * b))
                for x, a in rows for y0, y1, b in cols]

    def clear_column(self, rows, r, c, prev):
        w = self.radicand.numerator * self.radicand.denominator
        pivot = rows[r]
        p = p0, p1 = pivot[c]
        q0, q1 = prev
        norm, wp1, wq1 = q0 * q0 - w * q1 * q1, w * p1, w * q1

        def div(d0, d1):  # (d0 + d1*t) / prev, exact
            return ((d0 * q0 - d1 * wq1) // norm, (d1 * q0 - d0 * q1) // norm)

        for i, row in enumerate(rows):
            if i == r:
                continue
            e0, e1 = row[c]
            if e0 or e1:
                we1 = w * e1
                rows[i] = [div(p0 * x0 + wp1 * x1 - e0 * y0 - we1 * y1,
                               p0 * x1 + p1 * x0 - e0 * y1 - e1 * y0)
                           for (x0, x1), (y0, y1) in zip(row, pivot)]
            elif p != prev:
                rows[i] = [div(p0 * x0 + wp1 * x1, p0 * x1 + p1 * x0) if x0 or x1 else (0, 0)
                           for x0, x1 in row]
        return p

    def reduced_rows(self, rows, prev):
        """x / prev = x * conj(prev) / norm(prev), and x1*t = x1*v*s."""
        w, v = self.radicand.numerator * self.radicand.denominator, self.radicand.denominator
        q0, q1 = prev
        norm = q0 * q0 - w * q1 * q1
        zero = self.ZERO
        return [[(Fraction(x0 * q0 - w * x1 * q1, norm), Fraction((x1 * q0 - x0 * q1) * v, norm))
                 if x0 or x1 else zero for x0, x1 in row] for row in rows]

    def symbol(self) -> "Scalar":
        return Scalar(self, (Fraction(0), Fraction(1)))

    def canonical(self, a):
        return a if a[1] else a[0]

    def format(self, a) -> str:
        c0, c1 = a
        if not c1:
            return str(c0)
        if not c0:
            return f"{c1}*s"
        return f"{c0}-{-c1}*s" if c1 < 0 else f"{c0}+{c1}*s"

    def _coerce(self, value):
        if isinstance(value, (int, Fraction)):
            value = (value, 0)
        if isinstance(value, tuple) and len(value) == 2:
            return (Fraction(value[0]), Fraction(value[1]))
        raise FieldError(f"cannot coerce {value!r} into {self._spec}")

    def _parse(self, text):
        m = _QUAD_RE.match(text)
        if not m or (m["c0"] is None and m["c1"] is None):
            return None
        c1 = Fraction(m["c1"] or 0)
        return (Fraction(m["c0"] or 0), -c1 if m["sign"] == "-" else c1)

    def _sqrt(self, a):
        """A rational element has a root exactly when it or its quotient by
        the radicand is a rational square; otherwise solve the biquadratic
        that (x + y*s)^2 = a gives for x^2."""
        c0, c1 = a
        if not c1:
            r = _rational_sqrt(c0)
            if r is not None:
                return (r, Fraction(0))
            r = _rational_sqrt(c0 / self.radicand)
            return None if r is None else (Fraction(0), r)
        # (x + y*s)^2 = a needs x*y = c1/2 and x^2 + y^2*radicand = c0
        half = Fraction(1, 2)
        rd = _rational_sqrt((c0 * half) ** 2 - self.radicand * (c1 * half) ** 2)
        if rd is None:
            return None
        for x2 in (c0 * half + rd, c0 * half - rd):
            rx = _rational_sqrt(x2)
            if rx:
                cand = (rx, c1 * half / rx)
                if self.mul(cand, cand) == a:
                    return cand
        return None


class Scalar:
    """An immutable element of a :class:`Field`: one raw value and its field."""

    __slots__ = ("field", "v")

    def __init__(self, field: Field, v):
        self.field = field
        self.v = v

    def _apply(self, op, other, reflected: bool = False):
        """Box ``op`` applied to this raw value and ``other``'s, or
        NotImplemented when ``other`` is neither a scalar nor a number."""
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatchError(f"cannot combine {self.field.spec()} "
                                         f"with {other.field.spec()}")
            o = other.v
        elif isinstance(other, (int, Fraction)):
            o = self.field.coerce(other)
        else:
            return NotImplemented
        return Scalar(self.field, op(o, self.v) if reflected else op(self.v, o))

    @property
    def is_zero(self) -> bool:
        return self.v == self.field.ZERO

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        return self._apply(self.field.add, other)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.v))

    def __sub__(self, other):
        return self._apply(self.field.sub, other)

    def __rsub__(self, other):
        return self._apply(self.field.sub, other, reflected=True)

    def __mul__(self, other):
        return self._apply(self.field.mul, other)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise ZeroDivisionError("scalar is zero")
        return Scalar(self.field, self.field.inv(self.v))

    def __truediv__(self, other):
        return self._apply(self.field.div, other)

    def __rtruediv__(self, other):
        return self._apply(self.field.div, other, reflected=True)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return Scalar(self.field, power(self.v, k, self.field.ONE, self.field.mul))

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.field is other.field and self.v == other.v
        if isinstance(other, (int, Fraction)):
            return self.field.canonical(self.v) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.field.canonical(self.v))

    def __str__(self) -> str:
        return self.field.format(self.v)

    def __repr__(self) -> str:
        return f"Scalar({self.field.spec()}, {self})"
