import random

import pytest
from references import InconclusiveError, is_similar, min_poly, trace
from test_kernel_properties import leibniz_char_poly

from yangbaxter.fields import Field
from yangbaxter.matrices import Matrix, jordan_block, jordan_matrix, nilpotent_block
from yangbaxter.unipoly import UniPoly, char_poly


def M(field, rows):
    return Matrix.from_rows(field, rows)


def det_cofactor_poly(m):
    """Independent oracle: det(xI - m) by direct cofactor expansion."""
    field, n = m.field, m.nrows
    x = UniPoly(field, [0, 1])
    grid = [[(x if i == j else UniPoly.zero(field)) - UniPoly(field, [m[i, j]])
             for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(cols) == 1:
            return grid[rows[0]][cols[0]]
        acc = UniPoly.zero(field)
        for pos, c in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = grid[rows[0]][c] * minor
            acc = acc + (term if pos % 2 == 0 else -term)
        return acc

    return det(tuple(range(n)), tuple(range(n)))


def test_char_poly_examples(rat):
    assert char_poly(jordan_block(rat, 1, 2)) == UniPoly(rat, [1, -2, 1])
    x = M(rat, [[3, 4], [-1, -1]])
    oracle = det_cofactor_poly(x)
    assert oracle == UniPoly(rat, [1, -2, 1])
    assert char_poly(x) == oracle
    assert char_poly(nilpotent_block(rat, 3)) == UniPoly(rat, [0, 0, 0, 1])


def test_char_poly_matches_cofactor_oracle_random(rat, gf5, quad2):
    rng = random.Random(11)
    for field in (rat, gf5, quad2):
        for _ in range(8):
            n = rng.randint(1, 4)
            m = M(field, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            chi = char_poly(m)
            assert chi == det_cofactor_poly(m)
            assert chi.is_monic and chi.degree == n
            # trace and determinant sit in the expected coefficients
            assert chi.coeffs[n - 1] == -trace(m)
            sign = field.scalar(1 if n % 2 == 0 else -1)
            assert chi.coeffs[0] == sign * m.det()


def structured_matrices(field, rng):
    """Matrices whose Hessenberg reduction needs a row and column swap or
    meets a column that is already reduced: conjugates of Jordan matrices
    by permutations, block upper triangular and strictly upper triangular
    matrices, and the cyclic shift, whose first pivot is zero."""
    def entry():
        if field.spec().startswith("quad"):
            return field.scalar((rng.randint(-2, 2), rng.randint(-2, 2)))
        return field.scalar(rng.randint(-2, 2))

    yield M(field, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for n in range(1, 6):
        blocks, room = [], n
        while room:
            size = rng.randint(1, room)
            blocks.append((entry(), size))
            room -= size
        j = jordan_matrix(field, blocks)
        perm = rng.sample(range(n), n)
        yield M(field, [[j[perm[r], perm[c]] for c in range(n)] for r in range(n)])
        k = rng.randint(1, n)
        yield M(field, [[entry() if r < k or c >= k else field.zero() for c in range(n)]
                        for r in range(n)])
        yield M(field, [[entry() if c > r else field.zero() for c in range(n)]
                        for r in range(n)])


@pytest.mark.parametrize("spec", ["gf:2", "rat", "quad:2"])
def test_char_poly_on_structured_matrices(spec):
    field = Field.from_spec(spec)
    rng = random.Random(23)
    for _ in range(4):
        for m in structured_matrices(field, rng):
            chi = char_poly(m)
            rows = [m.raw[i:i + m.ncols] for i in range(0, len(m.raw), m.ncols)]
            assert chi.coeffs == tuple(field.scalar(c) for c in leibniz_char_poly(spec, rows))
            assert chi == det_cofactor_poly(m)
            assert chi.is_monic and chi.degree == m.nrows


def test_at_matrix_of_zero_and_constant_polynomials(rat, gf5):
    for field in (rat, gf5):
        m = M(field, [[1, 2], [3, 4]])
        assert UniPoly.zero(field).at_matrix(m) == Matrix.zero(field, 2)
        assert UniPoly(field, [3]).at_matrix(m) == Matrix.identity(field, 2).scale(3)
        assert UniPoly(field, [0, 1]).at_matrix(m) == m


@pytest.mark.parametrize("spec", ["rat", "gf:5", "quad:2"])
def test_unipoly_times_a_scalar(spec):
    """UniPoly * scalar scales every coefficient, for a Scalar or a number."""
    field = Field.from_spec(spec)
    f = UniPoly(field, [1, 2, 3])
    assert f * field.scalar(2) == f * 2 == UniPoly(field, [2, 4, 6])
    assert (f * 0).is_zero


def test_cayley_hamilton(rat, gf5):
    rng = random.Random(3)
    for field in (rat, gf5):
        for _ in range(6):
            n = rng.randint(1, 4)
            m = M(field, [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)])
            assert char_poly(m).at_matrix(m).is_zero


def test_min_poly_examples(rat):
    assert min_poly(Matrix.identity(rat, 3)) == UniPoly(rat, [-1, 1])
    assert min_poly(nilpotent_block(rat, 3)) == UniPoly(rat, [0, 0, 0, 1])
    d = M(rat, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert min_poly(d) == UniPoly(rat, [2, -3, 1])  # (x-1)(x-2)


def test_min_poly_divides_char_poly(rat, gf5):
    rng = random.Random(19)
    for field in (rat, gf5):
        for _ in range(8):
            n = rng.randint(1, 4)
            m = M(field, [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
            mp, chi = min_poly(m), char_poly(m)
            assert (chi % mp).is_zero
            assert mp.at_matrix(m).is_zero


def test_eval_poly_examples(rat, gf5):
    sq = UniPoly(rat, [0, 0, 1])
    assert sq.at_matrix(nilpotent_block(rat, 2)).is_zero
    lin = UniPoly(rat, [-1, 1])
    assert lin.at_matrix(jordan_block(rat, 1, 2)) == M(rat, [[0, 1], [0, 0]])
    rng = random.Random(5)
    m = M(gf5, [[rng.randint(0, 4) for _ in range(3)] for _ in range(3)])
    assert char_poly(m).at_matrix(m).is_zero


def test_poly_divmod_and_gcd(rat):
    p = UniPoly(rat, [1, -2, 1])  # (x-1)^2
    q = UniPoly(rat, [-1, 1])
    quo, rem = p.divmod(q)
    assert rem.is_zero and quo == UniPoly(rat, [-1, 1])
    assert p.gcd(UniPoly(rat, [0, -1, 1])) == q  # gcd((x-1)^2, x(x-1))
    assert UniPoly(rat, [2, 1]).gcd(UniPoly(rat, [3])) == UniPoly(rat, [1])


def test_is_similar_examples(rat):
    cands = [rat.scalar(1), rat.scalar(0)]
    assert is_similar(M(rat, [[3, 4], [-1, -1]]), jordan_block(rat, 1, 2), cands)
    assert not is_similar(Matrix.zero(rat, 2), jordan_block(rat, 1, 2), cands)
    assert not is_similar(nilpotent_block(rat, 2), Matrix.zero(rat, 2), [rat.scalar(0)])


def test_is_similar_is_reflexive_and_symmetric(rat, gf3):
    rng = random.Random(23)
    for field in (rat, gf3):
        cands = [field.scalar(v) for v in (-2, -1, 0, 1, 2, 3)]
        for _ in range(6):
            n = rng.randint(1, 3)
            x = M(field, [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
            y = M(field, [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
            try:
                assert is_similar(x, x, cands)
                assert is_similar(x, y, cands) == is_similar(y, x, cands)
            except InconclusiveError:
                pass


def test_is_similar_inconclusive_signal(rat):
    # candidates miss the spectrum {1} of the identity
    with pytest.raises(InconclusiveError):
        is_similar(Matrix.identity(rat, 2), Matrix.identity(rat, 2), [rat.scalar(0)])
    with pytest.raises(InconclusiveError):
        is_similar(Matrix.identity(rat, 2), Matrix.identity(rat, 2), [])
    # one eigenvalue, 2, of diag(1, 2) is missed: the unsplit part x - 2 has degree 1
    with pytest.raises(InconclusiveError):
        is_similar(M(rat, [[1, 0], [0, 2]]), M(rat, [[1, 0], [0, 2]]), [rat.scalar(1)])


def test_poly_str(rat):
    assert str(UniPoly(rat, [1, -2, 1])) == "x^2 - 2*x + 1"
    assert str(UniPoly.zero(rat)) == "0"
    assert str(UniPoly(rat, [0, 0, 0, 1])) == "x^3"
