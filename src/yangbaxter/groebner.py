"""Multivariate polynomials over Q and Buchberger's algorithm.

Monomials over a fixed, ordered variable list are packed into ints, one
16-bit field per variable with the first variable in the most significant
field, so the lexicographic order with the first variable strongest is int
comparison, a product is a sum and divisibility one subtraction and a mask
test (see ``PolyRing``). An exponent may not exceed ``EXPONENT_LIMIT``
(32,767): input beyond it, and any product that would carry past it, raise
``SideConditionError``. Coefficients are exact rationals, kept as ints
while integral. ``MultiPoly.terms`` gives the exponent tuples and
Fraction coefficients.

``buchberger`` keeps its S-pairs in a heap keyed once, on insertion, by
lcm degree and then lcm, prunes them with the Gebauer-Moeller update each
time a polynomial joins the basis (its chain criterion tests the new lcms
in ascending order against the minimal ones alone), and interreduces the
result into the reduced, hence canonical, basis.
``normal_form`` reduces into a dict of terms with a heap of pending
monomials. A hard cap on the S-pairs taken off the queue turns runaway
inputs into an error rather than a silently truncated basis.
``ybe_ideal`` writes its generators straight into dicts of packed terms.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import re
from fractions import Fraction

from .errors import DimensionError, PairCapError, ParseError, SideConditionError
from .fields import Field, Scalar
from .matrices import Matrix

_TERM_COEFF_RE = re.compile(r"^(\d+)(?:/(\d+))?")
_FACTOR_RE = re.compile(r"^([A-Za-z])(?:\^(\d+))?")


_FIELD_BITS = 16
EXPONENT_LIMIT = (1 << (_FIELD_BITS - 1)) - 1  # the top bit of each field is its guard


def _exponent_error() -> SideConditionError:
    return SideConditionError(f"exponents must lie in 0..{EXPONENT_LIMIT}")


def _exact(c):
    """A coefficient as an int when it is integral, else as a Fraction.

    Every coefficient a polynomial stores passes through here; inside the
    algorithms only division by a leading coefficient makes a Fraction.
    """
    if type(c) is not int:
        c = c if type(c) is Fraction else Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


class PolyRing:
    """A polynomial ring Q[x1, ..., xk] with lex order, x1 strongest.

    A monomial is packed into one int, a 16-bit field per variable with x1
    in the most significant. An exponent is at most ``EXPONENT_LIMIT``, so
    the top bit of every field, its guard, stays clear: lex comparison is
    int comparison, a product is a sum whose guard bits must stay clear,
    and m1 divides m2 when m2 - m1 has no guard bit set.
    """

    __slots__ = ("variables", "guard")

    def __init__(self, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise SideConditionError("duplicate ring variables")
        for v in variables:
            if not re.fullmatch(r"[A-Za-z]", v):
                raise SideConditionError(f"variables must be single letters, got {v!r}")
        self.variables = variables
        self.guard = sum(1 << (_FIELD_BITS * k + _FIELD_BITS - 1) for k in range(len(variables)))

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"PolyRing({','.join(self.variables)})"

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def pack(self, m) -> int:
        """The packed key of an exponent tuple."""
        if len(m) != self.nvars:
            raise DimensionError("monomial arity does not match the ring")
        key = 0
        for e in m:
            if not 0 <= e <= EXPONENT_LIMIT:
                raise _exponent_error()
            key = key << _FIELD_BITS | e
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        mask = (1 << _FIELD_BITS) - 1
        return tuple(key >> (_FIELD_BITS * k) & mask for k in range(self.nvars - 1, -1, -1))

    def mul(self, m1: int, m2: int) -> int:
        key = m1 + m2
        if key & self.guard:
            raise _exponent_error()
        return key

    def degree(self, key: int) -> int:
        """The total degree of a packed monomial, the sum of its fields."""
        raw = key.to_bytes(2 * self.nvars, "big")  # two bytes per 16-bit field
        return (sum(raw[::2]) << 8) + sum(raw[1::2])

    def divides(self, m1: int, m2: int) -> bool:
        return not (m2 - m1) & self.guard

    def lcm(self, m1: int, m2: int) -> int:
        ge = ((m1 | self.guard) - m2) & self.guard  # the guard bits of the fields where m1 >= m2
        ge -= ge >> (_FIELD_BITS - 1)  # widened to those fields' exponent bits
        return m1 & ge | m2 & ~ge

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return MultiPoly(self, {(0,) * self.nvars: Fraction(1)})

    def parse(self, text: str) -> "MultiPoly":
        """Parse the textual term format; single-letter variables may be
        juxtaposed ("af" means a*f) and an omitted exponent means 1."""
        src = text.strip().replace("−", "-").replace(" ", "")
        if not src:
            raise ParseError("empty polynomial")
        terms: dict[tuple[int, ...], Fraction] = {}
        pos = 0
        while pos < len(src):
            sign = Fraction(1)
            while pos < len(src) and src[pos] in "+-":
                if src[pos] == "-":
                    sign = -sign
                pos += 1
            if pos >= len(src):
                raise ParseError(f"dangling sign in {text!r}")
            chunk_end = pos
            while chunk_end < len(src) and src[chunk_end] not in "+-":
                chunk_end += 1
            chunk = src[pos:chunk_end]
            pos = chunk_end
            coeff = sign
            m = _TERM_COEFF_RE.match(chunk)
            if m:
                if m.group(2) and not int(m.group(2)):
                    raise ParseError(f"zero denominator in {text!r}")
                coeff *= Fraction(int(m.group(1)), int(m.group(2) or 1))
                chunk = chunk[m.end():]
                if chunk.startswith("*"):
                    chunk = chunk[1:]
            exps = [0] * self.nvars
            while chunk:
                if chunk.startswith("*"):
                    chunk = chunk[1:]
                fm = _FACTOR_RE.match(chunk)
                if not fm:
                    raise ParseError(f"bad factor near {chunk!r} in {text!r}")
                name = fm.group(1)
                if name not in self.variables:
                    raise ParseError(f"unknown variable {name!r} in {text!r}")
                exp = int(fm.group(2)) if fm.group(2) else 1
                exps[self.variables.index(name)] += exp
                chunk = chunk[fm.end():]
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return MultiPoly(self, terms)


class MultiPoly:
    """A multivariate polynomial with rational coefficients.

    Built from a dict of exponent tuples, each exponent at most
    ``EXPONENT_LIMIT``, to coefficients. ``_terms`` holds (packed monomial,
    coefficient) pairs, leading term first, each coefficient an int when it
    is integral; ``terms`` gives them back as exponent tuples with Fraction
    coefficients.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self._terms = _sorted_terms({ring.pack(m): c for m, c in terms.items()})

    @classmethod
    def _of(cls, ring: PolyRing, packed: dict) -> "MultiPoly":
        """The polynomial of a dict keyed by packed monomials."""
        poly = cls.__new__(cls)
        poly.ring = ring
        poly._terms = _sorted_terms(packed)
        return poly

    @property
    def terms(self) -> tuple:
        unpack = self.ring.unpack
        return tuple((unpack(m), Fraction(c)) for m, c in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def lm(self) -> tuple[int, ...]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return self.ring.unpack(self._terms[0][0])

    def lc(self) -> Fraction:
        return Fraction(self._terms[0][1])

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self._terms)
        for m, c in other._terms:
            out[m] = out.get(m, 0) + c
        return MultiPoly._of(self.ring, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.ring, {m: -c for m, c in self._terms})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            out: dict = {}
            for m1, c1 in self._terms:
                for m2, c2 in other._terms:
                    key = self.ring.mul(m1, m2)
                    out[key] = out.get(key, 0) + c1 * c2
            return MultiPoly._of(self.ring, out)
        k = _exact(other)
        return MultiPoly._of(self.ring, {m: c * k for m, c in self._terms})

    __rmul__ = __mul__

    def monic(self) -> "MultiPoly":
        if self.is_zero or self._terms[0][1] == 1:
            return self
        lc = self._terms[0][1]
        return MultiPoly._of(self.ring, {m: Fraction(c, lc) for m, c in self._terms})

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.ring == other.ring
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash(self._terms)

    def evaluate(self, field: Field, values) -> Scalar:
        """Exact evaluation at a point; values align with the ring variables."""
        values = [field.scalar(v) for v in values]
        if len(values) != self.ring.nvars:
            raise DimensionError("point arity does not match the ring")
        acc = field.zero()
        for m, c in self._terms:
            term = field.scalar(c)
            for v, e in zip(values, self.ring.unpack(m)):
                if e:
                    term = term * v ** e
            acc = acc + term
        return acc

    def _term_str(self, m, c) -> str:
        factors = []
        for name, e in zip(self.ring.variables, self.ring.unpack(m)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            return str(abs(c))
        body = "*".join(factors)
        mag = abs(c)
        return body if mag == 1 else f"{mag}*{body}"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for idx, (m, c) in enumerate(self._terms):
            piece = self._term_str(m, c)
            if idx == 0:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _sorted_terms(packed: dict) -> tuple:
    return tuple(sorted(((m, _exact(c)) for m, c in packed.items() if c),
                        key=operator.itemgetter(0), reverse=True))


def _lead(g: MultiPoly) -> int:
    return g._terms[0][0]


def normal_form(p: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
    """Remainder of multivariate division of p by the basis, in basis order.

    The running polynomial is a dict of terms; a heap of negated packed
    monomials yields its leading monomial next. Every key of the dict has
    exactly one heap entry, and a monomial once taken never reappears,
    because each reduction step only adds terms below the one it removes.
    """
    guard = p.ring.guard
    # Tails are sliced per reduction step, not up front: there are far fewer
    # steps than divisors (788 against 8,231 over groebner --ideal ybe on
    # 0^3 and 0^2,1^1 with their probes).
    divisors = [(g._terms[0][0], g._terms[0][1], g._terms) for g in basis if g._terms]
    work = dict(p._terms)
    pending = [-m for m in work]
    heapq.heapify(pending)
    rem = {}
    while pending:
        m = -heapq.heappop(pending)
        c = work.pop(m)
        if not c:
            continue
        for lm, lc, terms in divisors:
            shift = m - lm
            if not shift & guard:  # lm divides m
                q = c if lc == 1 else _exact(Fraction(c, lc))
                for tm, tc in terms[1:]:
                    t = tm + shift
                    if t & guard:
                        raise _exponent_error()
                    old = work.get(t)
                    if old is None:
                        work[t] = -q * tc
                        heapq.heappush(pending, -t)
                    else:
                        work[t] = old - q * tc
                break
        else:
            rem[m] = c
    return MultiPoly._of(p.ring, rem)


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    ring = f.ring
    lcm = ring.lcm(f._terms[0][0], g._terms[0][0])
    out: dict = {}
    for poly, sign in ((f, 1), (g, -1)):
        lm, lc = poly._terms[0]
        scale = sign if lc == 1 else _exact(Fraction(sign, lc))
        for m, c in poly._terms:
            t = ring.mul(m, lcm - lm)
            out[t] = out.get(t, 0) + scale * c
    return MultiPoly._of(ring, out)


def interreduce(basis: list[MultiPoly]) -> list[MultiPoly]:
    """Autoreduce into the reduced basis: monic, minimal, tails reduced.

    One pass suffices: in a minimal set no leading monomial divides
    another, so reduction never touches a leading term, and a tail reduced
    once stays irreducible by leading monomials that no longer change.
    """
    work = [g.monic() for g in basis if not g.is_zero]
    # minimality: drop any element whose leading monomial another one divides
    minimal: list[MultiPoly] = []
    for g in sorted(work, key=_lead):
        if not any(g.ring.divides(_lead(h), _lead(g)) for h in minimal):
            minimal.append(g)
    for idx, g in enumerate(minimal):
        minimal[idx] = normal_form(g, minimal[:idx] + minimal[idx + 1:])
    return sorted(minimal, key=_lead, reverse=True)


def buchberger(gens: list[MultiPoly], pair_cap: int = 100_000) -> list[MultiPoly]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    The next S-pair (i, j), i < j indexing the basis in order of arrival,
    is the one with the smallest lcm: by total degree, then by the order,
    then the smallest (i, j).

    Generators and nonzero S-polynomial remainders join the basis through
    the Gebauer-Moeller update: it drops the new pairs that the product or
    chain criterion makes redundant and the queued pairs that the new
    leading monomial makes redundant. Every element stays in the basis,
    for pairing and for reduction: retiring the elements whose leading
    monomial a later one divides, and reducing by the rest, lets
    coefficients swell on the ``1^3`` Jordan-block ideal.

    ``pair_cap`` bounds the pairs taken off the queue for reduction; pairs
    the update drops never count.
    """
    basis: list[MultiPoly] = []
    leads: list[int] = []  # packed leading monomials
    queue: list = []  # heap of (lcm degree, lcm, i, j)

    def update(h: MultiPoly) -> None:
        new, ring, lh, guard = len(basis), h.ring, _lead(h), h.ring.guard
        lcms = [ring.lcm(lk, lh) for lk in leads]
        # a queued pair (i, j) with lcm L is redundant when lh divides L and
        # neither lcm(lm_i, lh) nor lcm(lm_j, lh) equals L
        queue[:] = [e for e in queue if (e[1] - lh) & guard or e[1] in (lcms[e[2]], lcms[e[3]])]
        # new pairs: the last of each lcm class, unless one in it has coprime
        # leads (the sum is only compared) or another class's lcm properly
        # divides its own; a proper divisor is a smaller int and a multiple
        # of a minimal one, so ascending order tests the minimal lcms alone
        last = {lcm: k for k, lcm in enumerate(lcms)}
        coprime = {lcm for lcm, lk in zip(lcms, leads) if lcm == lk + lh}
        minimal: list[int] = []
        for lcm in sorted(last):
            for m in minimal:
                if not (lcm - m) & guard:
                    break
            else:
                minimal.append(lcm)
                if lcm not in coprime:
                    queue.append((ring.degree(lcm), lcm, last[lcm], new))
        heapq.heapify(queue)
        basis.append(h)
        leads.append(lh)

    for g in gens:
        if not g.is_zero:
            update(g.monic())
    processed = 0
    while queue:
        _, _, i, j = heapq.heappop(queue)
        processed += 1
        if processed > pair_cap:
            raise PairCapError(f"S-pair cap of {pair_cap} exceeded")
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero:
            update(r.monic())
    return interreduce(basis)


# -- the equation ideal ----------------------------------------------------------


def ybe_variables(n: int) -> tuple[str, ...]:
    """Row-major single-letter names for the n*n unknown entries."""
    if n * n > 26:
        raise DimensionError("too many unknowns for single-letter naming")
    return tuple(chr(ord("a") + k) for k in range(n * n))


def ybe_ring(n: int) -> PolyRing:
    """The ring of the equation ideal of an n x n coefficient, refused
    beyond the scale guard before any coefficient is built."""
    if n * n > 16:
        raise SideConditionError("scale guard: n*n must stay at or below 16")
    return PolyRing(ybe_variables(n))


def ybe_ideal(a: Matrix, n: int) -> list[MultiPoly]:
    """The n*n entrywise polynomials of AXA - XAX in the unknown entries of X.

    The coefficient matrix must be rational and small (n*n <= 16, the guard
    of ``ybe_ring``); the unknowns are named row-major a, b, c, ...
    """
    if a.field is not Field.rationals():
        raise SideConditionError("equation ideal is generated over the rationals")
    if not a.is_square or a.nrows != n:
        raise DimensionError("coefficient matrix must be n x n")
    ring = ybe_ring(n)
    c = [[_exact(a[i, j].v) for j in range(n)] for i in range(n)]
    x = [1 << _FIELD_BITS * v for v in range(n * n - 1, -1, -1)]  # x_ij packed, at i*n + j
    gens = []
    for i, j in itertools.product(range(n), repeat=2):
        # (AXA)_ij: a_ik*a_lj on x_kl; (XAX)_ij: -a_kl on x_ik*x_lj, unique to (k, l)
        terms: dict = {}
        for k, l in itertools.product(range(n), repeat=2):
            terms[x[k * n + l]] = c[i][k] * c[l][j]
            terms[x[i * n + k] + x[l * n + j]] = -c[k][l]
        gens.append(MultiPoly._of(ring, terms))
    return gens
