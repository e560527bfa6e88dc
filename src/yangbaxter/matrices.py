"""Dense exact matrices over a :class:`~yangbaxter.fields.Field`.

Matrices are immutable and store their entries row-major as raw values of
their field (``Matrix.raw``), computing on them with the field's own
arithmetic. Entries are boxed as scalars only where they leave a matrix;
the public constructors coerce their input and reject another field's
scalars, while results computed here skip that re-check. A product is
one field call on the rows and columns of its factors. Every reduction
(rref, rank, kernel, inverse, determinant, nullspace of operator
equations) is one Gauss-Jordan loop whose row arithmetic the field
supplies: fraction-free on ints over ``rat`` and ``quad:a``, and textbook
over GF(p). The reduced echelon form is unique, so results are canonical.

Whenever a basis of a matrix space is returned (kernels, centralizers,
annihilators) it is the reduced-echelon basis of the row-major
vectorization, which makes those bases canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionError, FieldMismatchError
from .fields import Field, Scalar, power


class Matrix:
    """An immutable n-by-m matrix with exact entries in one field."""

    __slots__ = ("field", "nrows", "ncols", "raw")

    def __init__(self, field: Field, nrows: int, ncols: int, entries):
        raw = tuple(map(field.coerce, entries))
        if nrows * ncols != len(raw):
            raise DimensionError(
                f"{nrows}x{ncols} matrix needs {nrows * ncols} entries, got {len(raw)}"
            )
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.raw = raw

    @classmethod
    def _make(cls, field: Field, nrows: int, ncols: int, raw) -> "Matrix":
        """A matrix over raw values this module computed, without coercion."""
        m = object.__new__(cls)
        m.field, m.nrows, m.ncols, m.raw = field, nrows, ncols, tuple(raw)
        return m

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise DimensionError("matrix needs at least one row")
        ncols = len(rows[0])
        if ncols == 0 or any(len(r) != ncols for r in rows):
            raise DimensionError("rows must be non-empty and of equal length")
        return cls(field, len(rows), ncols, [v for row in rows for v in row])

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int | None = None) -> "Matrix":
        if ncols is None:
            ncols = nrows
        return cls._make(field, nrows, ncols, [field.ZERO] * (nrows * ncols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._make(field, n, n, [field.ONE if i == j else field.ZERO
                                       for i in range(n) for j in range(n)])

    @classmethod
    def unit(cls, field: Field, nrows: int, ncols: int, i: int, j: int) -> "Matrix":
        """The matrix with a single 1 at position (i, j)."""
        return cls._make(field, nrows, ncols, [field.ONE if (r, c) == (i, j) else field.ZERO
                                               for r in range(nrows) for c in range(ncols)])

    @classmethod
    def block(cls, grid) -> "Matrix":
        """Assemble a matrix from a 2-d grid of conforming blocks."""
        grid = [list(row) for row in grid]
        field = grid[0][0].field
        row_heights = [row[0].nrows for row in grid]
        col_widths = [b.ncols for b in grid[0]]
        raw = []
        for row, h in zip(grid, row_heights):
            if len(row) != len(col_widths):
                raise DimensionError("ragged block grid")
            for b, w in zip(row, col_widths):
                if b.nrows != h or b.ncols != w:
                    raise DimensionError("block sizes do not conform")
                if b.field is not field:
                    raise FieldMismatchError("blocks over different fields")
            for i in range(h):
                for b in row:
                    raw.extend(b.raw[i * b.ncols:(i + 1) * b.ncols])
        return cls._make(field, sum(row_heights), sum(col_widths), raw)

    # -- access ----------------------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return Scalar(self.field, self.raw[i * self.ncols + j])

    def _raw_rows(self) -> list[list]:
        n = self.ncols
        return [list(self.raw[i * n:(i + 1) * n]) for i in range(self.nrows)]

    @property
    def entries(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(self.field, v) for v in self.raw)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_zero(self) -> bool:
        return self.raw.count(self.field.ZERO) == len(self.raw)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.raw == other.raw
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.raw))

    def __str__(self) -> str:
        fmt = self.field.format
        return "[" + "; ".join(" ".join(map(fmt, row)) for row in self._raw_rows()) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self.field.spec()}, {self})"

    # -- arithmetic --------------------------------------------------------------

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        if self.field is not other.field:
            raise FieldMismatchError("matrices over different fields")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError(
                f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )
        return Matrix._make(self.field, self.nrows, self.ncols, map(op, self.raw, other.raw))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.field.add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.field.sub, other)

    def __neg__(self) -> "Matrix":
        return Matrix._make(self.field, self.nrows, self.ncols, map(self.field.neg, self.raw))

    def scale(self, c) -> "Matrix":
        return Matrix._make(self.field, self.nrows, self.ncols,
                            self.field.scale(self.field.coerce(c), self.raw))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.field is not other.field:
                raise FieldMismatchError("matrices over different fields")
            if self.ncols != other.nrows:
                raise DimensionError(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            m = other.ncols  # zip over ncols copies of one iterator yields the rows
            return Matrix._make(self.field, self.nrows, m, self.field.matmul(
                zip(*[iter(self.raw)] * self.ncols), [other.raw[j::m] for j in range(m)]))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square:
            raise DimensionError("powers need a square matrix")
        if k < 0:
            inv = self.inverse()
            if inv is None:
                raise ZeroDivisionError("matrix is singular")
            return inv ** (-k)
        return power(self, k, Matrix.identity(self.field, self.nrows))

    def transpose(self) -> "Matrix":
        return Matrix._make(self.field, self.ncols, self.nrows,
                            [v for j in range(self.ncols) for v in self.raw[j::self.ncols]])

    def apply(self, vec) -> tuple[Scalar, ...]:
        """Multiply this matrix by a column vector given as a scalar sequence."""
        f = self.field
        vec = [f.coerce(v) for v in vec]
        if len(vec) != self.ncols:
            raise DimensionError("vector length does not match column count")
        return tuple(Scalar(f, v) for v in f.matmul(zip(*[iter(self.raw)] * self.ncols), [vec]))

    # -- elimination -----------------------------------------------------------

    def _eliminate(self):
        """The one Gauss-Jordan loop, on the rows the field lifts: the
        working rows, the pivot columns, the last step's prev, the number
        of row swaps and the lift scales."""
        f, nr = self.field, self.nrows
        z, prev = f.WORK_ZERO, f.WORK_ONE
        rows, scales = f.lift_rows(self._raw_rows())
        pivots = []
        r = swaps = 0
        for c in range(self.ncols):
            pr = next((i for i in range(r, nr) if rows[i][c] != z), None)
            if pr is None:
                continue
            if pr != r:
                rows[r], rows[pr] = rows[pr], rows[r]
                swaps += 1
            prev = f.clear_column(rows, r, c, prev)
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return rows, tuple(pivots), prev, swaps, scales

    def _rref(self) -> tuple[list[list], tuple[int, ...]]:
        """Raw rows of the reduced row-echelon form and the pivot columns."""
        rows, pivots, prev, _, _ = self._eliminate()
        return self.field.reduced_rows(rows, prev), pivots

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and the tuple of pivot columns."""
        rows, pivots = self._rref()
        return Matrix._make(self.field, self.nrows, self.ncols,
                            [v for row in rows for v in row]), pivots

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def kernel_basis(self) -> list[tuple[Scalar, ...]]:
        """Canonical basis of the right kernel, one vector per free column."""
        f = self.field
        rows, pivots = self._rref()
        basis = []
        for fc in sorted(set(range(self.ncols)) - set(pivots)):
            v = [f.ZERO] * self.ncols
            v[fc] = f.ONE
            for row, pc in zip(rows, pivots):
                v[pc] = f.neg(row[fc])
            basis.append(tuple(Scalar(f, e) for e in v))
        return basis

    def inverse(self) -> "Matrix | None":
        """Exact inverse, or None when the matrix is singular."""
        if not self.is_square:
            raise DimensionError("inverse needs a square matrix")
        n = self.nrows
        rows, pivots = Matrix.block([[self, Matrix.identity(self.field, n)]])._rref()
        if pivots != tuple(range(n)):
            return None
        return Matrix._make(self.field, n, n, [v for row in rows for v in row[n:]])

    def det(self) -> Scalar:
        """Determinant read off the Gauss-Jordan loop: (-1)^swaps times its
        last prev, read by reduced_rows, over the product of the lift scales."""
        if not self.is_square:
            raise DimensionError("determinant needs a square matrix")
        f = self.field
        _, pivots, prev, swaps, scales = self._eliminate()
        if len(pivots) < self.nrows:
            return Scalar(f, f.ZERO)
        det = f.div(f.reduced_rows([[prev]], f.WORK_ONE)[0][0], f.coerce(math.prod(scales)))
        return Scalar(f, f.neg(det) if swaps % 2 else det)

    def is_invertible(self) -> bool:
        return self.is_square and self.rank() == self.nrows


# -- Jordan structure ------------------------------------------------------------


@dataclass(frozen=True)
class JordanSpec:
    """An ordered list of Jordan blocks (eigenvalue, size)."""

    blocks: tuple[tuple[Scalar, int], ...]

    def __post_init__(self):
        for lam, size in self.blocks:
            if size < 1:
                raise DimensionError(f"Jordan block size must be >= 1, got {size}")

    @property
    def dimension(self) -> int:
        return sum(size for _, size in self.blocks)

    def block_ranges(self) -> list[tuple[int, int]]:
        """Half-open coordinate ranges occupied by each block."""
        out, start = [], 0
        for _, size in self.blocks:
            out.append((start, start + size))
            start += size
        return out

    def eigenvalues(self) -> list[Scalar]:
        """Distinct eigenvalues in order of first appearance."""
        return list(dict.fromkeys(lam for lam, _ in self.blocks))


def jordan_block(field: Field, eigenvalue, size: int) -> Matrix:
    lam = field.coerce(eigenvalue)
    return Matrix._make(field, size, size, [
        lam if i == j else field.ONE if j == i + 1 else field.ZERO
        for i in range(size) for j in range(size)
    ])


def nilpotent_block(field: Field, size: int) -> Matrix:
    """The shift matrix with ones on the superdiagonal."""
    return jordan_block(field, 0, size)


def jordan_matrix(field: Field, spec) -> Matrix:
    """Block-diagonal matrix of Jordan blocks, in the given order."""
    pairs = spec.blocks if isinstance(spec, JordanSpec) else spec
    return block_diag(field, [jordan_block(field, lam, size) for lam, size in pairs])


def block_diag(field: Field, blocks) -> Matrix:
    blocks = list(blocks)
    if not blocks:
        raise DimensionError("need at least one block")
    return Matrix.block([[b if i == j else Matrix.zero(field, b.nrows, c.ncols)
                          for j, c in enumerate(blocks)] for i, b in enumerate(blocks)])


# -- operator equation bases -------------------------------------------------------


def _matrix_space_basis(a: Matrix, system: Matrix) -> list[Matrix]:
    """Canonical basis of {M : system * vec(M) = 0}, via one big kernel."""
    return [Matrix(a.field, a.nrows, a.nrows, v) for v in system.kernel_basis()]


def operator_matrix(left: Matrix, right: Matrix) -> Matrix:
    """The matrix of M -> left*M + M*right on row-major vectorized M, with M
    of shape left.nrows x right.nrows: row (i, j) holds the coefficients of
    the entries M[k, l]."""
    if not left.is_square or not right.is_square:
        raise DimensionError("operator factors must be square")
    if left.field is not right.field:
        raise FieldMismatchError("operator factors over different fields")
    f, p, q = left.field, left.nrows, right.nrows
    raw = []
    for i in range(p):
        for j in range(q):
            # left[i, k] multiplies M[k, j] and right[l, j] multiplies M[i, l]
            row = [f.ZERO] * (p * q)
            row[j::q] = left.raw[i * p:(i + 1) * p]
            row[i * q:(i + 1) * q] = map(f.add, row[i * q:(i + 1) * q], right.raw[j::q])
            raw += row
    return Matrix._make(f, p * q, p * q, raw)


def centralizer_basis(a: Matrix) -> list[Matrix]:
    """Canonical basis of {M : AM = MA}."""
    if not a.is_square:
        raise DimensionError("centralizer needs a square matrix")
    return _matrix_space_basis(a, operator_matrix(a, -a))


def annihilator_basis(a: Matrix) -> list[Matrix]:
    """Canonical basis of {M : AM = 0 and MA = 0}."""
    if not a.is_square:
        raise DimensionError("annihilator needs a square matrix")
    zero = Matrix.zero(a.field, a.nrows)
    return _matrix_space_basis(a, Matrix.block([[operator_matrix(a, zero)],
                                                [operator_matrix(zero, a)]]))


def jordan_chain_conjugator(x: Matrix, lam) -> Matrix | None:
    """An invertible S with S J_k(lam) S^{-1} = x, or None when x is not
    similar to J_k(lam). With N = x - lam I, that holds exactly when N has
    index k: N^(k-1) != 0 and N^(k-1) N = 0. Then for the first nonzero
    column j of N^(k-1) the chain e_j, N e_j, ..., N^(k-1) e_j is linearly
    independent (N^(k-1-i) leaves of a vanishing combination only its
    lowest term i, at N^(k-1) e_j != 0), and S, its columns the chain from
    the highest power down, satisfies N S = S J_k(0)."""
    if not x.is_square:
        raise DimensionError("conjugator needs a square matrix")
    field, k = x.field, x.nrows
    nil = x - Matrix.identity(field, k).scale(lam)
    top = nil ** (k - 1)
    if top.is_zero or not (top * nil).is_zero:
        return None
    j = next(j for j in range(k) if top.raw[j::k].count(field.ZERO) < k)
    chain = [Matrix.unit(field, k, 1, j, 0)]
    for _ in range(k - 1):
        chain.append(nil * chain[-1])
    return Matrix.block([chain[::-1]])
