"""Property-based tests of the field kernel and the matrices built on it.

Scalars are checked against the field axioms, their own printed form and
the equality/hash contract. Matrix products, determinants, ranks and
characteristic polynomials are checked against a small reference written
here: ints mod p, Fractions and (c0, c1) pairs with their textbook
operations, Leibniz expansion for the determinant, over the field and over
its polynomial ring, and textbook Gauss-Jordan elimination for the reduced
echelon form, rank, kernel, inverse and determinant. Entries with
denominators near 10^6 and rank-deficient matrices exercise the exact
divisions of the fraction-free elimination over Q and Q(s), and sparse
operator matrices shaped like the Sylvester lift exercise its rows that
stay at an old level across pivot steps. The spectral
primitives are checked against repeated linear division, the defining
properties of the minimal polynomial, and rank-profile similarity. The
Sylvester solver and span membership, one elimination each, are checked
against two-elimination references.

The examples are not shrunk: a shrink of quadratic-field inputs can run
for minutes before a failure is reported, and an unshrunk example
reproduces the failure just as well.
"""

from fractions import Fraction
from functools import cache
from itertools import permutations, zip_longest

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from references import is_similar, jordan_chain_search, min_poly, span_contains

from yangbaxter.fields import Field
from yangbaxter.matrices import (
    Matrix,
    jordan_block,
    jordan_chain_conjugator,
    operator_matrix,
)
from yangbaxter.sylvester import (
    SylvesterProblem,
    kronecker_lift,
    sylvester_solve,
    sylvester_unique,
)
from yangbaxter.unipoly import UniPoly, char_poly, unsplit_part

SPECS = ["rat", "gf:2", "gf:3", "gf:5", "gf:7", "gf:1000000007",
         "quad:2", "quad:-1", "quad:1/2"]

small_fractions = st.integers(1, 9).flatmap(
    lambda d: st.integers(-20 * d, 20 * d).map(lambda n: Fraction(n, d)))
# denominators near 10^6, whose products the exact divisions of the
# fraction-free elimination must carry
large_fractions = st.builds(Fraction, st.integers(-10**7, 10**7),
                            st.integers(10**6 - 99, 10**6 + 99))


@cache  # building a strategy anew for every draw costs more than drawing from it
def values(spec: str):
    """Strategy for the raw inputs ``Field.scalar`` accepts in this field."""
    if spec == "rat":
        return small_fractions
    if spec.startswith("gf:"):
        p = int(spec[3:])
        return st.integers(min_value=-3 * p, max_value=3 * p) | st.integers(0, p - 1)
    return st.tuples(small_fractions, small_fractions)


class Ref:
    """Textbook arithmetic on plain Python values of one field."""

    def __init__(self, spec: str):
        self.p = int(spec[3:]) if spec.startswith("gf:") else None
        self.a = Fraction(spec[5:]) if spec.startswith("quad:") else None

    def lift(self, v):
        if self.p is not None:
            return v % self.p
        if self.a is not None:
            return (Fraction(v[0]), Fraction(v[1]))
        return Fraction(v)

    def zero(self):
        return self.lift((0, 0) if self.a is not None else 0)

    def one(self):
        return self.lift((1, 0) if self.a is not None else 1)

    def add(self, x, y):
        if self.p is not None:
            return (x + y) % self.p
        if self.a is not None:
            return (x[0] + y[0], x[1] + y[1])
        return x + y

    def neg(self, x):
        if self.p is not None:
            return (self.p - x) % self.p
        if self.a is not None:
            return (-x[0], -x[1])
        return -x

    def mul(self, x, y):
        if self.p is not None:
            return x * y % self.p
        if self.a is not None:
            return (x[0] * y[0] + self.a * x[1] * y[1], x[0] * y[1] + x[1] * y[0])
        return x * y

    def inv(self, x):
        if self.p is not None:
            return pow(x, self.p - 2, self.p)  # Fermat
        if self.a is not None:
            norm = x[0] * x[0] - self.a * x[1] * x[1]
            return (x[0] / norm, -x[1] / norm)
        return 1 / x

    def det(self, rows):
        """Leibniz expansion over all permutations."""
        n = len(rows)
        total = self.zero()
        for perm in permutations(range(n)):
            term = self.one()
            for i, j in enumerate(perm):
                term = self.mul(term, rows[i][j])
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            total = self.add(total, self.neg(term) if inversions % 2 else term)
        return total

    def gauss_jordan(self, rows):
        """Textbook Gauss-Jordan: reduced row-echelon rows, the pivot
        columns and, for a square matrix, the determinant."""
        rows = [list(r) for r in rows]
        pivots, det = [], self.one()
        for c in range(len(rows[0])):
            r = len(pivots)
            pr = next((i for i in range(r, len(rows)) if rows[i][c] != self.zero()), None)
            if pr is None:
                continue
            if pr != r:
                rows[r], rows[pr] = rows[pr], rows[r]
                det = self.neg(det)
            det = self.mul(det, rows[r][c])
            inv = self.inv(rows[r][c])
            rows[r] = [self.mul(inv, x) for x in rows[r]]
            for i in range(len(rows)):
                if i != r:
                    factor = self.neg(rows[i][c])
                    rows[i] = [self.add(x, self.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
        return rows, tuple(pivots), det if len(pivots) == len(rows) else self.zero()


class PolyRef:
    """Ref arithmetic on polynomials: coefficient lists, lowest degree first."""

    def __init__(self, ref: Ref):
        self.ref = ref

    def zero(self):
        return []

    def one(self):
        return [self.ref.one()]

    def add(self, f, g):
        return [self.ref.add(a, b) for a, b in zip_longest(f, g, fillvalue=self.ref.zero())]

    def neg(self, f):
        return [self.ref.neg(a) for a in f]

    def mul(self, f, g):
        out = [self.ref.zero()] * max(len(f) + len(g) - 1, 0)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = self.ref.add(out[i + j], self.ref.mul(a, b))
        return out

    det = Ref.det


@cache
def entries(spec: str):
    """Entries for the reduction tests: residues as in ``values``, and
    rationals whose denominator is below 10 or, in a quarter of them,
    near 10^6."""
    if spec.startswith("gf:"):
        return values(spec)
    small = st.builds(Fraction, st.integers(-180, 180), st.integers(1, 9))
    rational = st.one_of(small, small, small, large_fractions)
    return rational if spec == "rat" else st.tuples(rational, rational)


def matrices(spec: str, nrows, ncols):
    return st.lists(st.lists(values(spec), min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


fields = pytest.mark.parametrize("spec", SPECS)
quick = settings(max_examples=40, deadline=None,
                 phases=[phase for phase in Phase if phase is not Phase.shrink])


@fields
@quick
@given(data=st.data())
def test_field_axioms(spec, data):
    field = Field.from_spec(spec)
    a, b, c = (field.scalar(data.draw(values(spec))) for _ in range(3))
    zero, one = field.zero(), field.one()
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    if not b.is_zero:
        assert b * b.inverse() == one
        assert (a / b) * b == a
        assert b ** -2 == (b * b).inverse()
    assert a ** 3 == a * a * a


@fields
@quick
@given(data=st.data())
def test_parse_round_trip(spec, data):
    field = Field.from_spec(spec)
    x = field.scalar(data.draw(values(spec)))
    assert field.parse(str(x)) == x


@fields
@quick
@given(data=st.data())
def test_equal_scalars_hash_equally(spec, data):
    field = Field.from_spec(spec)
    x = field.scalar(data.draw(values(spec)))
    y = field.scalar(data.draw(values(spec)))
    rational_part = x.v[0] if spec.startswith("quad:") else x.v
    numbers = [data.draw(st.integers(-10, 10)), data.draw(small_fractions), rational_part]
    for other in [y, x + field.zero(), *numbers]:
        if x == other:
            assert hash(x) == hash(other)


@fields
@quick
@given(data=st.data())
def test_matmul_det_rank_against_reference(spec, data):
    field, ref = Field.from_spec(spec), Ref(spec)
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a_rows = data.draw(matrices(spec, n, k))
    b_rows = data.draw(matrices(spec, k, m))
    a, b = Matrix.from_rows(field, a_rows), Matrix.from_rows(field, b_rows)
    ra = [[ref.lift(v) for v in row] for row in a_rows]
    rb = [[ref.lift(v) for v in row] for row in b_rows]

    product = a * b
    for i in range(n):
        for j in range(m):
            expected = ref.zero()
            for t in range(k):
                expected = ref.add(expected, ref.mul(ra[i][t], rb[t][j]))
            assert product[i, j] == field.scalar(expected)
    for j in range(m):
        assert a.apply([b[t, j] for t in range(k)]) == tuple(product[i, j] for i in range(n))

    assert a.rank() == len(ref.gauss_jordan(ra)[1])
    s = data.draw(st.integers(1, 4))
    sq_rows = data.draw(matrices(spec, s, s))
    sq = Matrix.from_rows(field, sq_rows)
    det = ref.det([[ref.lift(v) for v in row] for row in sq_rows])
    assert sq.det() == field.scalar(det)
    assert sq.is_invertible() == (det != ref.zero())


def leibniz_char_poly(spec: str, rows):
    """The coefficients of det(xI - M), lowest degree first, by Leibniz
    expansion of xI - M with each entry a reference coefficient list."""
    ref = Ref(spec)
    x_minus_m = [[[ref.neg(ref.lift(v))] + ([ref.one()] if i == j else [])
                  for j, v in enumerate(row)] for i, row in enumerate(rows)]
    return PolyRef(ref).det(x_minus_m)


@pytest.mark.parametrize("spec", ["rat", "gf:2", "gf:3", "gf:5", "quad:2", "quad:-1"])
@quick
@given(data=st.data())
def test_char_poly_against_leibniz_reference(spec, data):
    field = Field.from_spec(spec)
    n = data.draw(st.integers(1, 4))
    rows = data.draw(matrices(spec, n, n))
    expected = leibniz_char_poly(spec, rows)
    chi = char_poly(Matrix.from_rows(field, rows))
    assert chi.coeffs == tuple(field.scalar(c) for c in expected)


@pytest.mark.parametrize("spec", ["rat", "gf:5", "quad:2"])
@quick
@given(data=st.data())
def test_operator_matrix_applies_left_right_map(spec, data):
    """operator_matrix(L, R) sends row-major vec(M) to vec(LM + MR), for
    square and rectangular M."""
    field = Field.from_spec(spec)
    p, q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    left, right, m = (Matrix.from_rows(field, data.draw(matrices(spec, r, c)))
                      for r, c in ((p, p), (q, q), (p, q)))
    assert operator_matrix(left, right).apply(m.entries) == (left * m + m * right).entries


spectral_fields = pytest.mark.parametrize("spec", ["rat", "gf:2", "gf:3", "gf:5", "quad:2"])


def triangular(field, spec, data, diagonal):
    """An upper triangular matrix with the given diagonal and drawn entries above it."""
    n = len(diagonal)
    above = iter(data.draw(st.lists(values(spec), min_size=n * (n - 1) // 2,
                                    max_size=n * (n - 1) // 2)))
    return Matrix.from_rows(field, [[diagonal[i] if i == j else next(above) if j > i
                                     else field.zero() for j in range(n)] for i in range(n)])


def spectral_matrix(field, spec, data):
    """A random n <= 4 matrix and its diagonal; half the time upper
    triangular, so that its eigenvalues, the diagonal, lie in the field."""
    n = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        m = triangular(field, spec, data, [field.scalar(data.draw(values(spec)))
                                           for _ in range(n)])
    else:
        m = Matrix.from_rows(field, data.draw(matrices(spec, n, n)))
    return m, [m[i, i] for i in range(n)]


def divide_out_roots(p, roots):
    """Reference for unsplit_part: divide p by x - r for any listed root r
    that divides it, until none does."""
    progress = True
    while p.degree > 0 and progress:
        progress = False
        for r in roots:
            q, rest = p.divmod(UniPoly(p.field, [-r, 1]))
            if rest.is_zero:
                p, progress = q, True
                break
    return p


@spectral_fields
@quick
@given(data=st.data())
def test_unsplit_part_against_repeated_division(spec, data):
    field = Field.from_spec(spec)
    m, diagonal = spectral_matrix(field, spec, data)
    roots = data.draw(st.lists(st.sampled_from(diagonal) | values(spec).map(field.scalar),
                               max_size=6))
    chi = char_poly(m)
    assert unsplit_part(chi, roots) == divide_out_roots(chi, roots)


@spectral_fields
@quick
@given(data=st.data())
def test_min_poly_annihilates_divides_char_poly_and_is_minimal(spec, data):
    field = Field.from_spec(spec)
    m, _ = spectral_matrix(field, spec, data)
    mp = min_poly(m)
    d = mp.degree
    assert mp.is_monic and mp.at_matrix(m).is_zero
    assert (char_poly(m) % mp).is_zero
    assert Matrix.from_rows(field, [(m ** k).entries for k in range(d)]).rank() == d


@spectral_fields
@quick
@given(data=st.data())
def test_jordan_chain_agrees_with_rank_profile_similarity(spec, data):
    """x ~ J_n(lam) by a Jordan chain exactly when is_similar says so, on
    triangular matrices whose diagonal is all lam half the time, with rows
    and columns permuted alike so that the chain can start at any unit
    vector; a returned S conjugates J_n(lam) to x and is the S of the
    reference search."""
    field = Field.from_spec(spec)
    n = data.draw(st.integers(1, 4))
    lam = field.scalar(data.draw(values(spec)))
    if data.draw(st.booleans()):
        diagonal = [lam] * n
    else:
        diagonal = [lam if data.draw(st.booleans()) else field.scalar(data.draw(values(spec)))
                    for _ in range(n)]
    t = triangular(field, spec, data, diagonal)
    perm = data.draw(st.permutations(range(n)))
    m = Matrix.from_rows(field, [[t[perm[i], perm[j]] for j in range(n)] for i in range(n)])
    block = jordan_block(field, lam, n)
    similar = is_similar(m, block, [lam, *diagonal])
    s = jordan_chain_conjugator(m, lam)
    assert (s is not None) == similar
    assert s == jordan_chain_search(m, lam)
    if s is not None:
        assert s * block * s.inverse() == m


def solve_and_kernel_by_two_eliminations(a, b, c):
    """Reference Sylvester solver: a particular solution, free unknowns at
    zero, from the rref of [lift | vec C], and the kernel from a second
    rref of the lift alone."""
    lift = kronecker_lift(a, b)
    f, k, n, m = lift.field, lift.ncols, a.nrows, b.nrows
    rhs = c.transpose().raw
    rows, pivots = Matrix._make(f, lift.nrows, k + 1, [
        v for i, r in enumerate(rhs) for v in lift.raw[i * k:(i + 1) * k] + (r,)])._rref()
    particular = None
    if k not in pivots:
        sol = [f.ZERO] * k
        for row, pc in zip(rows, pivots):
            sol[pc] = row[k]
        particular = Matrix(f, m, n, sol).transpose()
    kernel = tuple(Matrix(f, m, n, v).transpose() for v in lift.kernel_basis())
    return particular, kernel


@spectral_fields
@quick
@given(data=st.data())
def test_sylvester_solve_against_two_eliminations(spec, data):
    """Half the time B = -A, so AX + XB = AX - XA has X = I in its kernel
    and most right-hand sides are inconsistent."""
    field = Field.from_spec(spec)
    n = data.draw(st.integers(1, 3))
    a = Matrix.from_rows(field, data.draw(matrices(spec, n, n)))
    if data.draw(st.booleans()):
        m, b = n, -a
    else:
        m = data.draw(st.integers(1, 3))
        b = Matrix.from_rows(field, data.draw(matrices(spec, m, m)))
    c = Matrix.from_rows(field, data.draw(matrices(spec, n, m)))
    sol = sylvester_solve(SylvesterProblem(a, b, c))
    assert (sol.particular, sol.kernel) == solve_and_kernel_by_two_eliminations(a, b, c)
    assert sol.unique == sylvester_unique(a, b)


@spectral_fields
@quick
@given(data=st.data())
def test_span_contains_against_two_ranks(spec, data):
    """Half the time m is a combination of the basis, so both answers occur."""
    field = Field.from_spec(spec)
    p, q, k = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)),
               data.draw(st.integers(0, 3)))
    basis = [Matrix.from_rows(field, data.draw(matrices(spec, p, q))) for _ in range(k)]
    m = Matrix.from_rows(field, data.draw(matrices(spec, p, q)))
    if basis and data.draw(st.booleans()):
        m = Matrix.zero(field, p, q)
        for b in basis:
            m = m + b.scale(field.scalar(data.draw(values(spec))))
    if basis:
        rows = [b.raw for b in basis]
        expected = (Matrix.from_rows(field, rows).rank()
                    == Matrix.from_rows(field, rows + [m.raw]).rank())
    else:
        expected = m.is_zero
    assert span_contains(basis, m) == expected


@cache
def entry_lists(spec: str, size: int):
    return st.lists(entries(spec), min_size=size, max_size=size)


def reduction_rows(spec, data, nrows, ncols):
    """Reference rows of a drawn matrix; half the time one row is a
    combination of the others, so the matrix is rank-deficient."""
    ref = Ref(spec)
    flat = [ref.lift(v) for v in data.draw(entry_lists(spec, nrows * ncols))]
    rows = [flat[i:i + ncols] for i in range(0, len(flat), ncols)]
    if nrows > 1 and data.draw(st.booleans()):
        k = data.draw(st.integers(0, nrows - 1))
        combination = [ref.zero()] * ncols
        for i, row in enumerate(rows):
            if i != k:
                c = ref.lift(data.draw(values(spec)))
                combination = [ref.add(x, ref.mul(c, y)) for x, y in zip(combination, row)]
        rows[k] = combination
    return rows


def kronecker_rows(spec, data):
    """Reference rows of the operator matrix of M -> AM + MB, the shape of a
    Sylvester lift, for p x p and q x q factors, p, q <= 3, mostly zero: a
    row has at most p + q - 1 nonzeros among p*q. Half the time B = -A, so
    the rows are dependent (M = I lies in the kernel). The rows come in a
    drawn order, so most pivots lie below their step's row. Elimination
    skips most rows at each step and meets pivot rows left stale over several."""
    ref = Ref(spec)
    sparse = st.one_of(st.none(), st.none(), entries(spec))

    def square(n):
        flat = data.draw(st.lists(sparse, min_size=n * n, max_size=n * n))
        flat = [ref.zero() if v is None else ref.lift(v) for v in flat]
        return [flat[i * n:(i + 1) * n] for i in range(n)]

    p = data.draw(st.integers(1, 3))
    a = square(p)
    if data.draw(st.booleans()):
        q, b = p, [[ref.neg(v) for v in row] for row in a]
    else:
        q = data.draw(st.integers(1, 3))
        b = square(q)
    rows = []
    for i in range(p):
        for j in range(q):
            row = [ref.zero()] * (p * q)
            for k in range(p):  # a[i][k] multiplies M[k, j], b[l][j] multiplies M[i, l]
                row[k * q + j] = ref.add(row[k * q + j], a[i][k])
            for l in range(q):
                row[i * q + l] = ref.add(row[i * q + l], b[l][j])
            rows.append(row)
    return [rows[i] for i in data.draw(st.permutations(range(p * q)))]


def check_rref_rank_and_kernel(spec, rows):
    """Raw rows compare by repr, so a value of the wrong type (an int for a
    Fraction) fails as a wrong value does."""
    field, ref = Field.from_spec(spec), Ref(spec)
    ncols = len(rows[0])
    m = Matrix.from_rows(field, rows)
    expected, pivots, _ = ref.gauss_jordan(rows)
    got, got_pivots = m._rref()
    assert (repr(got), got_pivots) == (repr(expected), pivots)
    assert m.rank() == len(pivots)
    kernel = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [ref.zero()] * ncols
        v[fc] = ref.one()
        for row, pc in zip(expected, pivots):
            v[pc] = ref.neg(row[fc])
        kernel.append(tuple(map(field.scalar, v)))
    assert m.kernel_basis() == kernel


@fields
@quick
@given(data=st.data())
def test_rref_rank_and_kernel_against_textbook_gauss_jordan(spec, data):
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 7))
    check_rref_rank_and_kernel(spec, reduction_rows(spec, data, nrows, ncols))


@fields
@quick
@given(data=st.data())
def test_sparse_rref_rank_and_kernel_against_textbook_gauss_jordan(spec, data):
    check_rref_rank_and_kernel(spec, kronecker_rows(spec, data))


def check_inverse_and_det(spec, rows):
    """[M | I] reduces to [I | M^-1] exactly when M is invertible."""
    field, ref = Field.from_spec(spec), Ref(spec)
    n = len(rows)
    m = Matrix.from_rows(field, rows)
    augmented = [row + [ref.one() if i == j else ref.zero() for j in range(n)]
                 for i, row in enumerate(rows)]
    expected, pivots, det = ref.gauss_jordan(augmented)
    got, got_pivots = Matrix.block([[m, Matrix.identity(field, n)]])._rref()
    assert (repr(got), got_pivots) == (repr(expected), pivots)
    # the pivots all lie in M exactly when M is invertible, and then their
    # signed product is det M
    if pivots == tuple(range(n)):
        assert m.inverse() == Matrix.from_rows(field, [row[n:] for row in expected])
    else:
        assert m.inverse() is None
        det = ref.zero()
    assert m.det() == field.scalar(det)


@fields
@quick
@given(data=st.data())
def test_inverse_and_det_against_textbook_gauss_jordan(spec, data):
    n = data.draw(st.integers(1, 6))
    check_inverse_and_det(spec, reduction_rows(spec, data, n, n))


@fields
@quick
@given(data=st.data())
def test_sparse_inverse_and_det_against_textbook_gauss_jordan(spec, data):
    check_inverse_and_det(spec, kronecker_rows(spec, data))


@fields
@quick
@given(data=st.data())
def test_dot_against_reference_sum(spec, data):
    """``Field.matmul`` on one row and one column is their dot product,
    also over an empty inner dimension."""
    field, ref = Field.from_spec(spec), Ref(spec)
    k = data.draw(st.integers(0, 8))
    xs, ys = ([ref.lift(v) for v in data.draw(st.lists(entries(spec), min_size=k, max_size=k))]
              for _ in range(2))
    expected = ref.zero()
    for x, y in zip(xs, ys):
        expected = ref.add(expected, ref.mul(x, y))
    got = field.matmul([[field.coerce(x) for x in xs]], [[field.coerce(y) for y in ys]])
    assert repr(got) == repr([expected])


@pytest.mark.parametrize("spec", ["rat", "quad:2", "quad:1/2"])
def test_product_lifts_each_factor_once(spec, monkeypatch):
    """One product lifts its left rows and its right columns once each,
    not once per entry."""
    field = Field.from_spec(spec)
    a = Matrix.from_rows(field, [[Fraction(i + 1, j + 2) for j in range(4)] for i in range(3)])
    b = Matrix.from_rows(field, [[Fraction(i - j, 3 + i) for j in range(5)] for i in range(4)])
    lifted = []
    lift_rows = type(field).lift_rows

    def spy(self, rows):
        rows = list(rows)
        lifted.append(len(rows))
        return lift_rows(self, rows)

    monkeypatch.setattr(type(field), "lift_rows", spy)
    a * b
    assert sorted(lifted) == [3, 5]
