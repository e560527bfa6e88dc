import random

import pytest
from references import span_contains

from yangbaxter.errors import DimensionError, FieldMismatchError
from yangbaxter.matrices import (
    JordanSpec,
    Matrix,
    annihilator_basis,
    block_diag,
    centralizer_basis,
    jordan_block,
    jordan_chain_conjugator,
    jordan_matrix,
    nilpotent_block,
)


def M(field, rows):
    return Matrix.from_rows(field, rows)


def test_unipotent_square(rat):
    j = jordan_block(rat, 1, 2)
    assert j * j == M(rat, [[1, 2], [0, 1]])


def test_multiply_by_zero(rat):
    x = M(rat, [[3, 4], [-1, -1]])
    assert (x * Matrix.zero(rat, 2)).is_zero


def test_gf3_product(gf3):
    assert M(gf3, [[2]]) * M(gf3, [[2]]) == M(gf3, [[1]])


def test_dimension_and_field_errors(rat, gf3):
    with pytest.raises(DimensionError):
        M(rat, [[1, 2]]) * M(rat, [[1, 2]])
    with pytest.raises(FieldMismatchError):
        M(rat, [[1]]) + M(gf3, [[1]])


def test_inverse_examples(rat):
    assert M(rat, [[1, 1], [0, 1]]).inverse() == M(rat, [[1, -1], [0, 1]])
    assert M(rat, [[0, 1], [0, 0]]).inverse() is None
    half = [["1/2", "-1/4"], ["0", "1/2"]]
    expected = Matrix.from_rows(rat, [[rat.parse(c) for c in row] for row in half])
    assert M(rat, [[2, 1], [0, 2]]).inverse() == expected


def test_kernel_and_rank_examples(rat):
    assert M(rat, [[0, 1], [0, 0]]).kernel_basis() == [(rat.one(), rat.zero())]
    assert nilpotent_block(rat, 3).rank() == 2
    assert Matrix.identity(rat, 2).kernel_basis() == []


def test_rank_plus_kernel_dimension(rat, gf5):
    rng = random.Random(7)
    for field in (rat, gf5):
        for _ in range(10):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            mat = M(field, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
            kernel = mat.kernel_basis()
            assert mat.rank() + len(kernel) == m
            for v in kernel:
                assert all(c.is_zero for c in mat.apply(v))


def test_jordan_matrix_examples(rat):
    assert jordan_matrix(rat, [(1, 2)]) == M(rat, [[1, 1], [0, 1]])
    assert jordan_matrix(rat, [(0, 3)]) == M(rat, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    four = jordan_matrix(rat, [(2, 2), (2, 2)])
    assert four == M(rat, [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]])


def test_jordan_spec_helpers(rat):
    spec = JordanSpec(((rat.scalar(0), 3), (rat.scalar(2), 2)))
    assert spec.dimension == 5
    assert spec.block_ranges() == [(0, 3), (3, 5)]
    assert spec.eigenvalues() == [rat.scalar(0), rat.scalar(2)]
    repeated = JordanSpec(((rat.scalar(2), 1), (rat.scalar(0), 1), (rat.scalar(2), 2)))
    assert repeated.eigenvalues() == [rat.scalar(2), rat.scalar(0)]
    with pytest.raises(DimensionError):
        JordanSpec(((rat.scalar(0), 0),))


def test_centralizer_examples(rat):
    b3 = nilpotent_block(rat, 3)
    basis = centralizer_basis(b3)
    assert len(basis) == 3
    expected = [Matrix.identity(rat, 3), b3, b3 * b3]
    for m in expected:
        assert span_contains(basis, m)
    for m in basis:
        assert m * b3 == b3 * m

    assert len(centralizer_basis(Matrix.identity(rat, 2))) == 4
    diag = M(rat, [[1, 0], [0, 2]])
    assert centralizer_basis(diag) == [
        Matrix.unit(rat, 2, 2, 0, 0), Matrix.unit(rat, 2, 2, 1, 1)
    ]


def test_centralizer_dimension_of_single_block(rat, gf5):
    for field in (rat, gf5):
        for k in range(1, 5):
            assert len(centralizer_basis(jordan_block(field, 2, k))) == k


def test_annihilator_examples(rat):
    a = jordan_matrix(rat, [(0, 3), (2, 2)])
    basis = annihilator_basis(a)
    assert basis == [Matrix.unit(rat, 5, 5, 0, 2)]
    for m in basis:
        assert (a * m).is_zero and (m * a).is_zero

    a2 = jordan_matrix(rat, [(0, 3), (0, 2)])
    basis2 = annihilator_basis(a2)
    assert len(basis2) == 4
    positions = {(0, 2), (0, 4), (3, 2), (3, 4)}
    assert {Matrix.unit(rat, 5, 5, i, j) for i, j in positions} == set(basis2)

    assert annihilator_basis(Matrix.identity(rat, 2)) == []


def test_block_assembly(rat):
    a = jordan_block(rat, 1, 2)
    b = jordan_block(rat, 2, 3)
    d = block_diag(rat, [a, b])
    assert d.nrows == 5
    assert d == jordan_matrix(rat, [(1, 2), (2, 3)])


def test_jordan_chain_conjugator(rat, gf5):
    for field, lam in ((rat, 2), (gf5, 3)):
        a = jordan_block(field, lam, 2)
        x = M(field, [[field.scalar(lam) + field.scalar(lam) * field.scalar(2),
                       field.scalar(4)],
                      [-(field.scalar(lam) ** 2),
                       field.scalar(lam) - field.scalar(lam) * field.scalar(2)]])
        s = jordan_chain_conjugator(x, field.scalar(lam))
        assert s is not None
        assert s * a * s.inverse() == x
    assert jordan_chain_conjugator(Matrix.zero(rat, 2), rat.zero()) is None


@pytest.mark.parametrize("k, products", [(3, 2), (4, 3)])
def test_jordan_chain_takes_the_least_square_products(monkeypatch, gf5, k, products):
    """N^(k-1) and N^k = N^(k-1) N cost only the squares repeated squaring
    needs: none with the identity, none after the last bit of k - 1."""
    calls = {"square": 0}
    mul = Matrix.__mul__

    def counting(self, other):
        if isinstance(other, Matrix) and other.ncols == self.nrows == k:
            calls["square"] += 1
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    assert jordan_chain_conjugator(jordan_block(gf5, 1, k), gf5.one()) is not None
    assert calls["square"] == products


def test_det_and_invertibility(rat, gf3):
    assert M(rat, [[2, 1], [0, 2]]).det() == rat.scalar(4)
    assert M(gf3, [[1, 2], [2, 1]]).det() == gf3.scalar(0)
    assert not M(gf3, [[1, 2], [2, 1]]).is_invertible()


def test_rref_canonical_form(rat):
    m = M(rat, [[2, 4, 6], [1, 2, 4]])
    red, pivots = m.rref()
    assert pivots == (0, 2)
    assert red == M(rat, [[1, 2, 0], [0, 0, 1]])
    ident = Matrix.identity(rat, 3)
    assert ident.rref() == (ident, (0, 1, 2))


def test_matrix_hash_and_str(rat):
    a = M(rat, [[1, 2], [3, 4]])
    b = M(rat, [[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b)
    assert str(a) == "[1 2; 3 4]"
