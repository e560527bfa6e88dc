"""References that only the tests use: the rank-profile similarity test,
the trace, span membership, the unit-vector search for a Jordan chain, the
minimal polynomial, the commuting-Sylvester check, the census/1 writer
that builds one matrix document per solution and the equation ideal by
polynomial matrix products, each checked against the package's own
answers or used as an oracle for them."""

import json
from fractions import Fraction

from yangbaxter.core import PropertyVerdict, is_solution
from yangbaxter.errors import AlgebraError, DimensionError, FieldMismatchError, PreconditionError
from yangbaxter.fields import Scalar
from yangbaxter.groebner import MultiPoly, ybe_ring
from yangbaxter.matio import format_jordan, matrix_to_json
from yangbaxter.matrices import Matrix
from yangbaxter.unipoly import UniPoly, char_poly, unsplit_part


class InconclusiveError(AlgebraError):
    """Similarity test cannot decide: candidate eigenvalues miss a spectrum."""


def trace(m: Matrix) -> Scalar:
    if not m.is_square:
        raise DimensionError("trace needs a square matrix")
    f = m.field
    acc = f.ZERO
    for v in m.raw[::m.ncols + 1]:
        acc = f.add(acc, v)
    return Scalar(f, acc)


def is_similar(x: Matrix, y: Matrix, candidate_eigenvalues) -> bool:
    """Similarity test over a caller-supplied candidate eigenvalue list.

    Compares rank((m - lam I)^k) profiles for both matrices. Raises
    :class:`InconclusiveError` when the candidates fail to exhaust either
    spectrum, that is when either characteristic polynomial has an
    :func:`unsplit_part` of positive degree.
    """
    if not x.is_square or not y.is_square:
        raise DimensionError("similarity needs square matrices")
    if x.field is not y.field:
        raise FieldMismatchError("matrices over different fields")
    if x.nrows != y.nrows:
        return False
    field, n = x.field, x.nrows
    cands = list(dict.fromkeys(map(field.scalar, candidate_eigenvalues)))
    for m in (x, y):
        if unsplit_part(char_poly(m), cands).degree > 0:
            raise InconclusiveError("candidate eigenvalues do not exhaust the spectrum")
    ident = Matrix.identity(field, n)
    for lam in cands:
        dx = x - ident.scale(lam)
        dy = y - ident.scale(lam)
        px, py = ident, ident
        for _ in range(n):
            px = px * dx
            py = py * dy
            if px.rank() != py.rank():
                return False
    return True


def span_contains(basis: list[Matrix], m: Matrix) -> bool:
    """Whether ``m`` lies in the span of the given matrices: exactly when
    its column is not a pivot of [b_1 ... b_k m]."""
    columns = Matrix.from_rows(m.field, [b.raw for b in basis] + [m.raw]).transpose()
    return len(basis) not in columns._rref()[1]


def jordan_chain_search(x: Matrix, lam) -> Matrix | None:
    """Reference conjugator: the first unit vector v with (x - lam I)^(k-1) v
    nonzero, when (x - lam I)^k = 0, starts a chain v, Nv, ..., N^(k-1) v;
    S has the chain reversed as its columns and is returned if invertible."""
    if not x.is_square:
        raise DimensionError("conjugator needs a square matrix")
    field, k = x.field, x.nrows
    ident = Matrix.identity(field, k)
    nil = x - ident.scale(lam)
    if not (nil ** k).is_zero:
        return None
    top = nil ** (k - 1)
    units = ident.entries
    for idx in range(k):
        v = units[idx * k:(idx + 1) * k]
        if any(not c.is_zero for c in top.apply(v)):
            chain = [v]
            for _ in range(k - 1):
                chain.append(nil.apply(chain[-1]))
            chain.reverse()
            s = Matrix.from_rows(field, zip(*chain))
            if s.is_invertible():
                return s
    return None


def min_poly(m: Matrix) -> UniPoly:
    """Monic minimal polynomial, from one elimination on the columns
    vec(I), vec(M), ..., vec(M^n): the first non-pivot column is M^d for
    d the number of pivots, and its reduced entries write M^d in the
    lower powers."""
    if not m.is_square:
        raise DimensionError("minimal polynomial needs a square matrix")
    field, n = m.field, m.nrows
    powers = [Matrix.identity(field, n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    rows, pivots = Matrix._make(field, n * n, n + 1,
                                [v for row in zip(*(p.raw for p in powers)) for v in row])._rref()
    d = len(pivots)
    return UniPoly._make(field, [field.neg(row[d]) for row in rows[:d]] + [field.ONE])


def check_commuting_sylvester(a: Matrix, x: Matrix) -> PropertyVerdict:
    """A commuting solution with A - X invertible satisfies AX = 0."""
    if not is_solution(a, x):
        raise PreconditionError("commuting-sylvester: candidate is not a solution")
    if a * x != x * a:
        raise PreconditionError("commuting-sylvester: candidate does not commute with A")
    if not (a - x).is_invertible():
        raise PreconditionError("commuting-sylvester: A - X is singular")
    prod = a * x
    holds = prod.is_zero
    return PropertyVerdict(
        "commuting-sylvester", holds,
        witness=None if holds else prod,
        note="" if holds else "AX is nonzero",
    )


def census_json(report, **extra) -> str:
    """The census/1 text of a report as the stdlib writes it: json.dumps with
    indent=2 of a dict holding one matrix_to_json document per solution,
    and ``extra`` keys after the report's own."""
    doc = {
        "schema": "census/1",
        "field": report.field.spec(),
        "coefficient": matrix_to_json(report.coefficient),
        "commuting_only": report.commuting_only,
        "jordan": format_jordan(report.jordan) if report.jordan else None,
        "total": report.total,
        "by_rank": {str(k): v for k, v in sorted(report.by_rank.items())},
        "by_kernel": dict(sorted(report.by_kernel.items())),
        "solutions": [matrix_to_json(x) for x in report.solutions],
    }
    if report.family_tallies is not None:
        doc["family_tallies"] = dict(sorted(report.family_tallies.items()))
        doc["family_tags"] = list(report.family_tags)
    return json.dumps({**doc, **extra}, indent=2)


def ybe_ideal(a: Matrix, n: int) -> list[MultiPoly]:
    """The entries of AXA - XAX, row-major, from products of n x n matrices
    of polynomials: constants for A and one variable per entry of X."""
    ring = ybe_ring(n)
    unit = [tuple(int(v == w) for w in range(n * n)) for v in range(n * n)]
    consts = [[MultiPoly(ring, {(0,) * (n * n): Fraction(a[i, j].v)}) for j in range(n)]
              for i in range(n)]
    unknowns = [[MultiPoly(ring, {unit[i * n + j]: Fraction(1)}) for j in range(n)]
                for i in range(n)]

    def matmul(p, q):
        return [[sum((p[i][k] * q[k][j] for k in range(n)), ring.zero())
                 for j in range(n)] for i in range(n)]

    axa = matmul(matmul(consts, unknowns), consts)
    xax = matmul(matmul(unknowns, consts), unknowns)
    return [axa[i][j] - xax[i][j] for i in range(n) for j in range(n)]
