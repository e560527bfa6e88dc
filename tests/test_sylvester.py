import random

import pytest
from references import span_contains

from yangbaxter.errors import PreconditionError
from yangbaxter.matrices import Matrix, jordan_block, nilpotent_block
from yangbaxter.sylvester import (
    SylvesterProblem,
    kronecker_lift,
    offdiag_solution_space,
    sylvester_solve,
    sylvester_unique,
)


def M(field, rows):
    return Matrix.from_rows(field, rows)


def test_unique_examples(rat):
    assert sylvester_unique(jordan_block(rat, 1, 2), -jordan_block(rat, 2, 2))
    assert not sylvester_unique(M(rat, [[1]]), M(rat, [[-1]]))
    assert not sylvester_unique(nilpotent_block(rat, 3), nilpotent_block(rat, 3))


def test_solve_examples(rat):
    sol = sylvester_solve(SylvesterProblem(M(rat, [[1]]), M(rat, [[1]]),
                                           M(rat, [[4]])))
    assert sol.unique and sol.particular == M(rat, [[2]])

    sol = sylvester_solve(SylvesterProblem(M(rat, [[1]]), M(rat, [[-1]]),
                                           M(rat, [[0]])))
    assert not sol.unique and sol.particular == M(rat, [[0]])
    assert len(sol.kernel) == 1

    a = jordan_block(rat, 1, 2)
    sol = sylvester_solve(SylvesterProblem(a, -a, Matrix.zero(rat, 2)))
    assert len(sol.kernel) == 2  # the commutant of a nonderogatory 2x2 block


def test_solution_residual_is_exactly_zero(rat, gf5):
    rng = random.Random(47)
    for field in (rat, gf5):
        for _ in range(12):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            a = M(field, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            b = M(field, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            c = M(field, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
            sol = sylvester_solve(SylvesterProblem(a, b, c))
            if sol.inconsistent:
                continue
            assert (a * sol.particular + sol.particular * b - c).is_zero
            for k in sol.kernel:
                assert (a * k + k * b).is_zero
                combo = sol.particular + k.scale(field.scalar(rng.randint(1, 3)))
                assert (a * combo + combo * b - c).is_zero


def test_uniqueness_matches_kernel_dimension(rat, gf5):
    rng = random.Random(53)
    for field in (rat, gf5):
        for _ in range(15):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            a = M(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            b = M(field, [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
            c = M(field, [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)])
            system = kronecker_lift(a, b)
            assert sylvester_unique(a, b) == (len(system.kernel_basis()) == 0)
            assert sylvester_solve(SylvesterProblem(a, b, c)).unique == sylvester_unique(a, b)


def test_offdiag_examples(rat):
    a1, a2 = jordan_block(rat, 1, 2), jordan_block(rat, 2, 2)
    assert offdiag_solution_space(a1, a2, a2) == []

    space = offdiag_solution_space(a2, a2, a2)
    assert len(space) == 2
    a2_inv = a2.inverse()
    expected_span = [a2_inv, Matrix.identity(rat, 2)]  # {Z A^-1 : Z in K[A]}
    for m in space:
        assert span_contains(expected_span, m)
    for m in expected_span:
        assert span_contains(space, m)

    assert offdiag_solution_space(a1, a1, Matrix.zero(rat, 2)) == []


def test_offdiag_assembles_into_solutions(rat):
    from yangbaxter.core import is_solution
    from yangbaxter.matrices import block_diag

    a = jordan_block(rat, 2, 2)
    space = offdiag_solution_space(a, a, a)
    coeff = block_diag(rat, [a, a])
    zero = Matrix.zero(rat, 2)
    for y1 in space:
        x = Matrix.block([[zero, y1], [zero, a]])
        assert is_solution(coeff, x)


def test_offdiag_preconditions(rat):
    a = jordan_block(rat, 1, 2)
    with pytest.raises(PreconditionError):
        offdiag_solution_space(a, nilpotent_block(rat, 2), Matrix.zero(rat, 2))
    with pytest.raises(PreconditionError):
        offdiag_solution_space(a, a, Matrix.identity(rat, 2))


def test_inconsistent_system_is_reported(rat):
    # A = B = 0 forces AX + XB = 0, so any nonzero C is inconsistent
    sol = sylvester_solve(SylvesterProblem(Matrix.zero(rat, 2), Matrix.zero(rat, 2),
                                           Matrix.identity(rat, 2)))
    assert sol.inconsistent and sol.particular is None
    assert len(sol.kernel) == 4
