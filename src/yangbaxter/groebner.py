"""Multivariate polynomials over Q and Buchberger's algorithm.

Monomials are exponent tuples over a fixed, ordered variable list; the
order is lexicographic with the first variable strongest, which is what
tuple comparison gives directly. Coefficients are exact rationals.

``buchberger`` keeps its S-pairs in a heap keyed once, on insertion, by
lcm degree and then lcm, prunes them with the Gebauer-Moeller update each
time a polynomial joins the basis, and interreduces the result into the
reduced, hence canonical, basis.
``normal_form`` reduces into a dict of terms with a heap of pending
monomials. A hard cap on the S-pairs taken off the queue turns runaway
inputs into an error rather than a silently truncated basis.
"""

from __future__ import annotations

import heapq
import operator
import re
from fractions import Fraction

from .errors import DimensionError, PairCapError, ParseError, SideConditionError
from .fields import Field, Scalar
from .matrices import Matrix

_TERM_COEFF_RE = re.compile(r"^(\d+)(?:/(\d+))?")
_FACTOR_RE = re.compile(r"^([A-Za-z])(?:\^(\d+))?")


class PolyRing:
    """A polynomial ring Q[x1, ..., xk] with lex order, x1 strongest."""

    __slots__ = ("variables",)

    def __init__(self, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise SideConditionError("duplicate ring variables")
        for v in variables:
            if not re.fullmatch(r"[A-Za-z]", v):
                raise SideConditionError(f"variables must be single letters, got {v!r}")
        self.variables = variables

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"PolyRing({','.join(self.variables)})"

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return MultiPoly(self, {(0,) * self.nvars: Fraction(1)})

    def constant(self, c) -> "MultiPoly":
        return MultiPoly(self, {(0,) * self.nvars: Fraction(c)})

    def var(self, name: str) -> "MultiPoly":
        idx = self.variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(self.nvars))
        return MultiPoly(self, {exps: Fraction(1)})

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


def _monomial_mul(m1, m2):
    return tuple(map(operator.add, m1, m2))


def _monomial_divides(m1, m2) -> bool:
    return all(map(operator.le, m1, m2))


def _monomial_div(m1, m2):
    return tuple(map(operator.sub, m1, m2))


def _monomial_lcm(m1, m2):
    return tuple(map(max, m1, m2))


class MultiPoly:
    """A multivariate polynomial with rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        cleaned = {m: c if type(c) is Fraction else Fraction(c)
                   for m, c in terms.items() if c != 0}
        self.terms = tuple(sorted(cleaned.items(), key=lambda t: t[0], reverse=True))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lm(self) -> tuple[int, ...]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self) -> Fraction:
        return self.terms[0][1]

    def _as_dict(self) -> dict:
        return dict(self.terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = self._as_dict()
        for m, c in other.terms:
            out[m] = out.get(m, Fraction(0)) + c
        return MultiPoly(self.ring, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ring, {m: -c for m, c in self.terms})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            out: dict = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    key = _monomial_mul(m1, m2)
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return MultiPoly(self.ring, out)
        return MultiPoly(self.ring, {m: c * Fraction(other) for m, c in self.terms})

    __rmul__ = __mul__

    def monic(self) -> "MultiPoly":
        if self.is_zero or self.lc() == 1:
            return self
        inv = 1 / self.lc()
        return MultiPoly(self.ring, {m: c * inv for m, c in self.terms})

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash(self.terms)

    def evaluate(self, field: Field, values) -> Scalar:
        """Exact evaluation at a point; values align with the ring variables."""
        values = [field.scalar(v) for v in values]
        if len(values) != self.ring.nvars:
            raise DimensionError("point arity does not match the ring")
        acc = field.zero()
        for m, c in self.terms:
            term = field.scalar(c)
            for v, e in zip(values, m):
                if e:
                    term = term * v ** e
            acc = acc + term
        return acc

    def _term_str(self, m, c) -> str:
        factors = []
        for name, e in zip(self.ring.variables, m):
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
        for idx, (m, c) in enumerate(self.terms):
            piece = self._term_str(m, c)
            if idx == 0:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def normal_form(p: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
    """Remainder of multivariate division of p by the basis, in basis order.

    The running polynomial is a dict of terms; a heap of negated monomials
    yields its leading monomial next. Every key of the dict has exactly one
    heap entry, and a monomial once taken never reappears, because each
    reduction step only adds terms below the one it removes.
    """
    divisors = [(g.terms[0][0], g.terms[0][1], g.terms[1:]) for g in basis if g.terms]
    work = dict(p.terms)
    pending = [tuple(map(operator.neg, m)) for m in work]
    heapq.heapify(pending)
    rem = {}
    while pending:
        m = tuple(map(operator.neg, heapq.heappop(pending)))
        c = work.pop(m)
        if not c:
            continue
        for lm, lc, tail in divisors:
            if all(map(operator.le, lm, m)):  # _monomial_divides, inlined
                q = c / lc
                shift = _monomial_div(m, lm)
                for tm, tc in tail:
                    t = _monomial_mul(tm, shift)
                    old = work.get(t)
                    if old is None:
                        work[t] = -q * tc
                        heapq.heappush(pending, tuple(map(operator.neg, t)))
                    else:
                        work[t] = old - q * tc
                break
        else:
            rem[m] = c
    return MultiPoly(p.ring, rem)


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    lcm = _monomial_lcm(f.lm(), g.lm())
    out: dict = {}
    for poly, scale in ((f, 1 / f.lc()), (g, -1 / g.lc())):
        shift = _monomial_div(lcm, poly.lm())
        for m, c in poly.terms:
            t = _monomial_mul(m, shift)
            out[t] = out.get(t, 0) + scale * c
    return MultiPoly(f.ring, out)


def interreduce(basis: list[MultiPoly]) -> list[MultiPoly]:
    """Autoreduce into the reduced basis: monic, minimal, tails reduced.

    One pass suffices: in a minimal set no leading monomial divides
    another, so reduction never touches a leading term, and a tail reduced
    once stays irreducible by leading monomials that no longer change.
    """
    work = [g.monic() for g in basis if not g.is_zero]
    # minimality: drop any element whose leading monomial another one divides
    minimal: list[MultiPoly] = []
    for g in sorted(work, key=lambda q: q.lm()):
        if not any(_monomial_divides(h.lm(), g.lm()) for h in minimal):
            minimal.append(g)
    for idx, g in enumerate(minimal):
        minimal[idx] = normal_form(g, minimal[:idx] + minimal[idx + 1:])
    return sorted(minimal, key=lambda q: q.lm(), reverse=True)


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
    leads: list[tuple[int, ...]] = []
    queue: list = []  # heap of (lcm degree, lcm, i, j)

    def update(h: MultiPoly) -> None:
        new = len(basis)
        lh = h.lm()
        # new pairs: keep one per minimal lcm; a product-criterion pair is
        # dropped but still prunes the pairs whose lcm its own divides
        cand = [(_monomial_lcm(lk, lh), k) for k, lk in enumerate(leads)]
        kept = []
        for pos, (lcm, k) in enumerate(cand):
            if lcm == _monomial_mul(leads[k], lh):
                kept.append((lcm, None))
            elif not any(_monomial_divides(other, lcm)
                         for other, _ in cand[pos + 1:] + kept):
                kept.append((lcm, k))
        # a queued pair (i, j) with lcm L is redundant when lh divides L and
        # neither lcm(lm_i, lh) nor lcm(lm_j, lh) equals L
        queue[:] = [e for e in queue
                    if not (_monomial_divides(lh, e[1])
                            and _monomial_lcm(leads[e[2]], lh) != e[1]
                            and _monomial_lcm(leads[e[3]], lh) != e[1])]
        queue.extend((sum(lcm), lcm, k, new) for lcm, k in kept if k is not None)
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
    return PolyRing(ybe_variables(n))


def ybe_ideal(a: Matrix, n: int) -> list[MultiPoly]:
    """The n*n entrywise polynomials of AXA - XAX in the unknown entries of X.

    The coefficient matrix must be rational and small (n*n <= 16); the
    unknowns are named row-major a, b, c, ...
    """
    if a.field.kind != "rat":
        raise SideConditionError("equation ideal is generated over the rationals")
    if not a.is_square or a.nrows != n:
        raise DimensionError("coefficient matrix must be n x n")
    if n * n > 16:
        raise SideConditionError("scale guard: n*n must stay at or below 16")
    ring = ybe_ring(n)
    consts = [[ring.constant(a[i, j].v) for j in range(n)] for i in range(n)]
    unknowns = [[ring.var(ring.variables[i * n + j]) for j in range(n)]
                for i in range(n)]

    def matmul(p, q):
        return [[sum((p[i][k] * q[k][j] for k in range(n)), ring.zero())
                 for j in range(n)] for i in range(n)]

    axa = matmul(matmul(consts, unknowns), consts)
    xax = matmul(matmul(unknowns, consts), unknowns)
    return [axa[i][j] - xax[i][j] for i in range(n) for j in range(n)]
