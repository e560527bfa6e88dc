"""Exact Sylvester equation machinery: AX + XB = C at desk scale.

The equation is vectorized column-major into an (n*m) x (n*m) linear
system, the Kronecker lift I_m (x) A + B^T (x) I_n, and solved by one exact
reduction of [lift | -vec C]. The column-major vector of X is the
row-major vector of X^T, and on X^T the map reads X^T -> B^T X^T + X^T A^T,
so the lift is the row-major operator matrix of that map. Non-uniqueness is
a first-class outcome: the solver returns a particular solution together
with a canonical kernel basis, because the homogeneous case C = 0 is
exactly the interesting one here.

Column-major vectorization is fixed throughout this module: the unknown
X[i, j] sits at coordinate j*n + i.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .errors import DimensionError, FieldMismatchError, PreconditionError
from .matrices import Matrix, operator_matrix


@dataclass(frozen=True)
class SylvesterProblem:
    """AX + XB = C with A n-by-n, B m-by-m and C n-by-m."""

    a: Matrix
    b: Matrix
    c: Matrix

    def __post_init__(self):
        if not self.a.is_square or not self.b.is_square:
            raise DimensionError("A and B must be square")
        if self.c.nrows != self.a.nrows or self.c.ncols != self.b.nrows:
            raise DimensionError("C must be n-by-m for A n-by-n and B m-by-m")
        if not (self.a.field is self.b.field is self.c.field):
            raise FieldMismatchError("A, B, C must share one field")


@dataclass(frozen=True)
class SylvesterSolution:
    """Solution set description: particular solution plus kernel basis.

    ``particular`` is None exactly when the system is inconsistent.
    """

    particular: Matrix | None
    kernel: tuple[Matrix, ...]

    @property
    def inconsistent(self) -> bool:
        return self.particular is None

    @property
    def unique(self) -> bool:
        """Exactly :func:`sylvester_unique`: the square lift has no kernel."""
        return self.particular is not None and not self.kernel


def sylvester_unique(a: Matrix, b: Matrix) -> bool:
    """Unique solvability for every C: A and -B share no eigenvalue,
    detected as coprimality of char(A) and char(-B)."""
    if not a.is_square or not b.is_square:
        raise DimensionError("A and B must be square")
    if a.field is not b.field:
        raise FieldMismatchError("A and B over different fields")
    return core.spectra_disjoint(a, -b)


def kronecker_lift(a: Matrix, b: Matrix) -> Matrix:
    """The (n*m) x (n*m) matrix of X -> AX + XB in column-major coordinates:
    the row-major operator Y -> B^T Y + Y A^T on Y = X^T."""
    return operator_matrix(b.transpose(), a.transpose())


def sylvester_solve(problem: SylvesterProblem) -> SylvesterSolution:
    """Solve AX + XB = C exactly; see :class:`SylvesterSolution`.

    Reducing [lift | -vec C] left to right reduces the lift as it would
    alone: of its kernel vectors, those ending in 0 are the lift's kernel,
    and the last, when it ends in 1, is the particular solution with every
    free unknown at zero. n*m rows always leave one of the n*m + 1 columns
    free, and the last is free exactly when the system is consistent.
    """
    a, b, c = problem.a, problem.b, problem.c
    field, n, m = a.field, a.nrows, b.nrows
    # a column-major vector of an n-by-m matrix is the row-major vector of its transpose
    rhs = Matrix._make(field, n * m, 1, (-c).transpose().raw)
    vectors = Matrix.block([[kronecker_lift(a, b), rhs]]).kernel_basis()
    xs = [Matrix(field, m, n, v[:-1]).transpose() for v in vectors]
    if vectors[-1][-1].is_zero:
        return SylvesterSolution(None, tuple(xs))
    return SylvesterSolution(xs[-1], tuple(xs[:-1]))


def offdiag_solution_space(a1: Matrix, a2: Matrix, x2: Matrix) -> list[Matrix]:
    """Basis of the off-diagonal blocks X1 solving A1 X1 A2 = X1 A2 X2.

    Substituting Y = X1 A2 turns the equation into the Sylvester form
    A1 Y - Y X2 = 0; the kernel is computed exactly and mapped back
    through A2^{-1}.
    """
    a2_inv = a2.inverse()
    if a2_inv is None:
        raise PreconditionError("off-diagonal space: A2 must be invertible")
    if not core.is_solution(a2, x2):
        raise PreconditionError("off-diagonal space: X2 must solve the equation for A2")
    problem = SylvesterProblem(a1, -x2, Matrix.zero(a1.field, a1.nrows, x2.nrows))
    sol = sylvester_solve(problem)
    return [y * a2_inv for y in sol.kernel]
