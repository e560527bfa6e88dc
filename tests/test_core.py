import itertools
import random

import pytest
from references import check_commuting_sylvester

from yangbaxter import core
from yangbaxter.errors import DimensionError, FieldMismatchError, PreconditionError
from yangbaxter.matrices import Matrix, jordan_block, jordan_matrix, nilpotent_block


def M(field, rows):
    return Matrix.from_rows(field, rows)


def test_residual_examples(rat):
    a = nilpotent_block(rat, 2)
    assert core.residual(a, M(rat, [[1, 5], [0, 0]])).is_solution
    a1 = jordan_block(rat, 1, 2)
    rep = core.residual(a1, Matrix.identity(rat, 2))
    assert not rep.is_solution
    assert rep.residual == M(rat, [[0, 1], [0, 0]])


def test_residual_trivial_members(rat, gf5):
    rng = random.Random(2)
    for field in (rat, gf5):
        for _ in range(6):
            n = rng.randint(1, 4)
            a = M(field, [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
            assert core.residual(a, a).is_solution
            assert core.residual(a, Matrix.zero(field, n)).is_solution


def test_residual_input_errors(rat, gf3):
    with pytest.raises(DimensionError):
        core.residual(Matrix.identity(rat, 2), Matrix.identity(rat, 3))
    with pytest.raises(FieldMismatchError):
        core.residual(Matrix.identity(rat, 2), Matrix.identity(gf3, 2))


def test_conjugation_equivariance_examples(rat):
    a = nilpotent_block(rat, 2)
    x = M(rat, [[1, 5], [0, 0]])
    g = M(rat, [[1, 1], [0, 1]])
    assert core.check_conjugation_equivariance(a, x, g).holds
    a1 = jordan_block(rat, 1, 2)
    assert core.check_conjugation_equivariance(a1, a1, M(rat, [[2, 3], [1, 2]])).holds
    with pytest.raises(PreconditionError):
        core.check_conjugation_equivariance(a, x, Matrix.zero(rat, 2))


def test_conjugation_equivariance_exhaustive_gl2_gf3(gf3):
    a = jordan_block(gf3, 1, 2)
    x = M(gf3, [[1, 0], [2, 1]])
    assert core.is_solution(a, x)
    count = 0
    for entries in itertools.product(range(3), repeat=4):
        g = M(gf3, [list(entries[:2]), list(entries[2:])])
        if not g.is_invertible():
            continue
        count += 1
        assert core.check_conjugation_equivariance(a, x, g).holds
    assert count == 48  # |GL_2(GF(3))|


def test_spectrum_inclusion_examples(rat):
    a = jordan_block(rat, 1, 2)
    one = [rat.scalar(1)]
    assert core.check_spectrum_inclusion(a, M(rat, [[3, 4], [-1, -1]]), one).holds
    assert core.check_spectrum_inclusion(a, Matrix.zero(rat, 2), one).holds
    assert core.check_spectrum_inclusion(a, a, one).holds
    with pytest.raises(PreconditionError):
        core.check_spectrum_inclusion(nilpotent_block(rat, 2), Matrix.zero(rat, 2), one)


def test_kernel_invariance_examples(rat):
    a = jordan_block(rat, 1, 2)
    assert core.check_kernel_invariance(a, Matrix.zero(rat, 2)).holds
    assert core.check_kernel_invariance(a, a).holds
    two = jordan_matrix(rat, [(1, 2), (1, 2)])
    sub = jordan_block(rat, 1, 2)
    x = Matrix.block([
        [Matrix.zero(rat, 2), sub.inverse()],
        [Matrix.zero(rat, 2), sub],
    ])
    assert core.is_solution(two, x)
    assert core.check_kernel_invariance(two, x).holds


def test_power_identities_examples(rat):
    a = nilpotent_block(rat, 2)
    assert core.check_power_identities(a, M(rat, [[1, 5], [0, 0]]), 4).holds
    a1 = jordan_block(rat, 3, 2)
    assert core.check_power_identities(a1, a1, 5).holds
    v = core.check_power_identities(jordan_block(rat, 1, 2), Matrix.identity(rat, 2), 1)
    assert not v.holds and v.witness is not None and "n=1" in v.note


def test_charpoly_annihilation_examples(rat):
    a1 = jordan_block(rat, 1, 2)
    assert core.check_charpoly_annihilation(a1, M(rat, [[3, 4], [-1, -1]])).holds
    a3 = nilpotent_block(rat, 3)
    x3 = M(rat, [[1, 1, 0], [0, 0, 1], [0, 0, -1]])
    assert core.check_charpoly_annihilation(a3, x3).holds
    assert core.check_charpoly_annihilation(Matrix.zero(rat, 2),
                                            Matrix.identity(rat, 2)).holds


def test_disjoint_spectra_dichotomy_examples(rat):
    a1 = jordan_block(rat, 1, 2)
    assert core.spectra_disjoint(a1, Matrix.zero(rat, 2))
    assert core.check_disjoint_spectra_dichotomy(a1, Matrix.zero(rat, 2), True).holds
    z2 = Matrix.zero(rat, 2)
    assert core.check_disjoint_spectra_dichotomy(z2, Matrix.identity(rat, 2), True).holds
    with pytest.raises(PreconditionError):
        core.check_disjoint_spectra_dichotomy(a1, Matrix.zero(rat, 2), False)


def test_disjoint_spectra_exhaustive_gf2(gf2):
    a = jordan_block(gf2, 1, 2)
    for entries in itertools.product(range(2), repeat=4):
        x = M(gf2, [list(entries[:2]), list(entries[2:])])
        if not core.is_solution(a, x):
            continue
        if core.spectra_disjoint(a, x):
            assert x.is_zero  # A invertible forces the zero branch
            assert core.check_disjoint_spectra_dichotomy(a, x, True).holds


def test_commuting_sylvester_examples(rat):
    assert check_commuting_sylvester(jordan_block(rat, 1, 2), Matrix.zero(rat, 2)).holds
    d1 = M(rat, [[1, 0], [0, 0]])
    d2 = M(rat, [[0, 0], [0, 1]])
    assert core.is_solution(d1, d2)
    assert check_commuting_sylvester(d1, d2).holds
    b3 = nilpotent_block(rat, 3)
    with pytest.raises(PreconditionError):
        check_commuting_sylvester(b3, b3)  # A - X singular
    with pytest.raises(PreconditionError):
        # A - X = A is singular here as well, and singularity of A - X is
        # always a precondition violation, even with X = 0
        check_commuting_sylvester(nilpotent_block(rat, 2), Matrix.zero(rat, 2))


def test_kernel_classification_examples(rat):
    sub1, sub2 = jordan_block(rat, 1, 2), jordan_block(rat, 2, 2)
    a = jordan_matrix(rat, [(1, 2), (2, 2)])
    x = Matrix.block([
        [M(rat, [[3, 4], [-1, -1]]), Matrix.zero(rat, 2)],
        [Matrix.zero(rat, 2), Matrix.zero(rat, 2)],
    ])
    assert core.is_solution(a, x)
    v = core.check_kernel_classification_two_blocks(a, x, (2, 2))
    assert v.holds and "P2" in v.note

    a22 = jordan_matrix(rat, [(2, 2), (2, 2)])
    x22 = Matrix.block([
        [Matrix.zero(rat, 2), sub2.inverse()],
        [Matrix.zero(rat, 2), sub2],
    ])
    v = core.check_kernel_classification_two_blocks(a22, x22, (2, 2))
    assert v.holds and "P1" in v.note

    with pytest.raises(PreconditionError):
        core.check_kernel_classification_two_blocks(
            jordan_matrix(rat, [(1, 2), (1, 2)]), Matrix.zero(rat, 4), (2, 2))


def test_pencil_examples(rat):
    a = nilpotent_block(rat, 3)
    e11 = Matrix.unit(rat, 3, 3, 0, 0)
    e12 = Matrix.unit(rat, 3, 3, 0, 1)
    e23 = Matrix.unit(rat, 3, 3, 1, 2)
    assert core.check_pencil_condition(a, e11, e12).holds
    v = core.check_pencil_condition(a, e11, e23)
    assert not v.holds
    assert v.witness == Matrix.unit(rat, 3, 3, 0, 2)
    assert core.check_pencil_condition(a, e11, Matrix.zero(rat, 3)).holds
    with pytest.raises(PreconditionError):
        core.check_pencil_condition(a, Matrix.identity(rat, 3), e12)


def test_power_identity_invariant_over_solutions(gf3):
    # every enumerated 2x2 solution satisfies the identities up to 2n
    a = nilpotent_block(gf3, 2)
    for entries in itertools.product(range(3), repeat=4):
        x = M(gf3, [list(entries[:2]), list(entries[2:])])
        if core.is_solution(a, x):
            assert core.check_power_identities(a, x, 4).holds
            assert core.check_charpoly_annihilation(a, x).holds


def test_eigenvalue_transfer(rat):
    a = jordan_block(rat, 1, 2)
    x = M(rat, [[3, 4], [-1, -1]])
    pairs = [(rat.scalar(1), (rat.one(), rat.zero()))]
    assert core.check_eigenvalue_transfer(a, x, pairs).holds


def test_verdict_witness_contract(rat):
    a1 = jordan_block(rat, 1, 2)
    v = core.check_power_identities(a1, Matrix.identity(rat, 2), 3)
    assert not v.holds
    # the witness re-checks: it is the nonzero difference of the failing pair
    assert not v.witness.is_zero
