"""Closed-form solution families of AXA = XAX.

Constructors check their inputs, not their output: a violated side
condition raises :class:`~yangbaxter.errors.SideConditionError`, and a
non-solution passed as a solution raises ``PreconditionError``. That each
family built from parameters solves the equation for every parameter is
proven symbolically by ``tests/test_family_proofs.py``; a constructor that
takes solutions says in its docstring why its preconditions suffice. Only
``two_block_offdiag`` checks its residual, raising ``ConstructionError``.
The catalog at the bottom is the family listing served by the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import is_solution
from .errors import ConstructionError, ParseError, PreconditionError, SideConditionError
from .fields import Field, Scalar
from .matrices import Matrix, block_diag, jordan_block, nilpotent_block
from .unipoly import UniPoly


def family_2x2_invertible(lam: Scalar, branch: str, a: Scalar | None = None) -> Matrix:
    """Solutions for the 2x2 Jordan block with nonzero eigenvalue.

    ``toeplitz`` returns the coefficient matrix itself. ``plus`` and
    ``minus`` return the two conjugate forms built from a square root of
    ``a``; they coincide in characteristic 2, where the two roots are equal.
    """
    field = lam.field
    if lam.is_zero:
        raise SideConditionError("eigenvalue must be nonzero")
    if branch == "toeplitz":
        return jordan_block(field, lam, 2)
    if branch not in ("plus", "minus"):
        raise SideConditionError(f"unknown branch {branch!r}")
    if a is None:
        raise SideConditionError("branches plus/minus need the parameter a")
    a = field.scalar(a)
    root = field.sqrt(a)
    if root is None:
        raise SideConditionError(
            f"no square root of {a} in {field.spec()}; the branch is unrepresentable"
        )
    if branch == "minus":
        root = -root
    return Matrix.from_rows(field, [
        [lam + lam * root, a],
        [-(lam * lam), lam - lam * root],
    ])


def family_2x2_nilpotent(a: Scalar, b: Scalar, alpha: Scalar) -> Matrix:
    """Upper-triangular solutions [[a, alpha], [0, b]] of the 2x2 shift block;
    the side condition is a*b = 0."""
    field = a.field
    a, b, alpha = field.scalar(a), field.scalar(b), field.scalar(alpha)
    if not (a * b).is_zero:
        raise SideConditionError("ab=0 violated")
    return Matrix.from_rows(field, [[a, alpha], [field.zero(), b]])


def family_3x3_nilpotent(a: Scalar, b: Scalar, c: Scalar,
                         f: Scalar, i: Scalar) -> Matrix:
    """Solutions [[a,b,c],[0,0,f],[0,0,i]] of the 3x3 shift block;
    the side condition is a*f + b*i = 0."""
    field = a.field
    a, b, c = field.scalar(a), field.scalar(b), field.scalar(c)
    f, i = field.scalar(f), field.scalar(i)
    if not (a * f + b * i).is_zero:
        raise SideConditionError("af+bi=0 violated")
    z = field.zero()
    return Matrix.from_rows(field, [[a, b, c], [z, z, f], [z, z, i]])


def family_nilpotent_general(n: int, a, b, alpha: Scalar) -> Matrix:
    """The strictly upper solution pattern for the size-n shift block, n >= 4.

    Sound but not complete: for n > 3 it does not exhaust the solution set.
    Rows carry the two parameter lists along the first row and last column,
    coupled through the single interior entry sum(a_i * b_{i+1}); for every
    n, AXA and XAX both equal that sum times E_1n.
    """
    if n < 4:
        raise SideConditionError("general nilpotent pattern needs n >= 4")
    field = alpha.field
    a = [field.scalar(v) for v in a]
    b = [field.scalar(v) for v in b]
    if len(a) != n - 2 or len(b) != n - 2:
        raise SideConditionError(f"parameter lists must have length {n - 2}")
    z = field.zero()
    rows = [[z] * n for _ in range(n)]
    for j, av in enumerate(a):
        rows[0][1 + j] = av
    rows[0][n - 1] = field.scalar(alpha)
    coupling = z
    for idx in range(n - 3):
        coupling = coupling + a[idx] * b[idx + 1]
    rows[1][n - 2] = coupling
    rows[1][n - 1] = b[0]
    for r in range(2, n - 1):
        rows[r][n - 1] = b[r - 1]
    return Matrix.from_rows(field, rows)


def commuting_nilpotent(n: int, variant: str, alpha: Scalar, beta: Scalar) -> Matrix:
    """Commuting solutions for the shift block B of size n+1, n >= 3:
    B + alpha*B^(n-1) + beta*B^n, or the same without the B term. X is a
    polynomial in B and B^(n+1) = 0, so AXA = B^2 X and XAX = B X^2 are
    both B^3, or both 0 without the B term."""
    if n < 3:
        raise SideConditionError("commuting family needs ambient size n+1 >= 4")
    if variant not in ("with_B", "without_B"):
        raise SideConditionError(f"unknown variant {variant!r}")
    coefs = {1: int(variant == "with_B"), n - 1: alpha, n: beta}  # B^k: k-th superdiagonal
    return Matrix(alpha.field, n + 1, n + 1, [coefs.get(j - i, 0) for i in range(n + 1)
                                              for j in range(n + 1)])


def block_diagonal(parts) -> tuple[Matrix, Matrix]:
    """diag of coefficients and diag of per-block solutions; each part must
    already solve its own equation, and the residual is the diag of theirs."""
    parts = list(parts)
    if not parts:
        raise SideConditionError("need at least one (coefficient, solution) part")
    field = parts[0][0].field
    for k, (ak, xk) in enumerate(parts):
        if not is_solution(ak, xk):
            raise PreconditionError(f"part {k}: not a solution of its block")
    return (block_diag(field, [ak for ak, _ in parts]),
            block_diag(field, [xk for _, xk in parts]))


def two_block_offdiag(lam: Scalar, k: int, z_coeffs, s: Matrix,
                      side: str = "upper", *,
                      offdiag_uses_inverse: bool = True) -> tuple[Matrix, Matrix]:
    """Two equal Jordan blocks with an off-diagonal coupling block.

    The coefficient is diag(A, A) with A the size-k Jordan block at
    ``lam``. The diagonal solution block is Y2 = S A S^{-1}, which must
    itself pass the residual check (that is the gate; similarity alone is
    necessary but not sufficient). The off-diagonal block is
    Y1 = Z S^{-1} A^{-1} with Z the polynomial in A given by ``z_coeffs``.

    ``offdiag_uses_inverse=False`` builds the Y1 = Z S^{-1} A variant
    instead; it fails verification for generic S and exists as a
    diagnostic, not as a constructor; so this constructor alone checks its
    residual, raising ConstructionError.
    """
    field = lam.field
    if lam.is_zero:
        raise SideConditionError("eigenvalue must be nonzero")
    if side not in ("upper", "lower"):
        raise SideConditionError(f"unknown side {side!r}")
    if s.field is not field or (s.nrows, s.ncols) != (k, k):
        raise SideConditionError(f"S must be a {k}x{k} matrix over {field.spec()}")
    s_inv = s.inverse()
    if s_inv is None:
        raise SideConditionError("S must be invertible")
    a = jordan_block(field, lam, k)
    a_inv = a.inverse()
    y2 = s * a * s_inv
    if not is_solution(a, y2):
        raise SideConditionError("S A S^-1 is not a solution for the single block")
    z = UniPoly(field, z_coeffs).at_matrix(a)
    y1 = z * s_inv * (a_inv if offdiag_uses_inverse else a)
    zero = Matrix.zero(field, k)
    if side == "upper":
        x = Matrix.block([[zero, y1], [zero, y2]])
    else:
        x = Matrix.block([[y2, zero], [y1, zero]])
    coeff = block_diag(field, [a, a])
    if not is_solution(coeff, x):
        raise ConstructionError("two-block off-diagonal family fails the residual check")
    return coeff, x


def two_block_case(case: str, lam: Scalar, a: Scalar | None = None,
                   b: Scalar | None = None, c: Scalar | None = None,
                   e: Scalar | None = None) -> tuple[Matrix, Matrix]:
    """The five-case 4x4 catalog for diag(A, A) with A the 2x2 Jordan block.

    The solution is [[X1, 0], [X2, 0]] where X1 is the plus branch of the
    2x2 invertible family and X2 follows the case formula. Cases fix or
    constrain (a, lam); remaining parameters are free.
    """
    field = lam.field
    if lam.is_zero:
        raise SideConditionError("eigenvalue must be nonzero")
    zero, one = field.zero(), field.one()

    def need(value, name):
        if value is None:
            raise SideConditionError(f"case {case} needs parameter {name}")
        return field.scalar(value)

    if case == "i":
        a_val = zero
        bb, ee = need(b, "b"), need(e, "e")
        x2 = Matrix.from_rows(field, [[bb, (ee - bb) / lam], [-(ee * lam), ee]])
    elif case in ("ii", "iii"):
        a_val = need(a, "a")
        if a_val.is_zero or a_val == one:
            raise SideConditionError(f"case {case} needs a outside {{0, 1}}")
        root = field.sqrt(a_val)
        if root is None:
            raise SideConditionError(f"no square root of {a_val} in {field.spec()}")
        denom = root - one
        if case == "ii":
            if lam != one:
                raise SideConditionError("case ii needs lam = 1")
            cc, ee = need(c, "c"), need(e, "e")
            x2 = Matrix.from_rows(field, [
                [cc / denom + ee / (denom * denom), cc],
                [ee / denom, ee],
            ])
        else:
            if lam == one:
                raise SideConditionError("case iii needs lam != 1")
            ee = need(e, "e")
            x2 = Matrix.from_rows(field, [
                [ee / (denom * denom), zero],
                [ee * lam / denom, ee],
            ])
    elif case == "iv":
        if lam == one:
            raise SideConditionError("case iv needs lam != 1")
        a_val = one
        bb = need(b, "b")
        x2 = Matrix.from_rows(field, [[bb, zero], [zero, zero]])
    elif case == "v":
        if lam != one:
            raise SideConditionError("case v needs lam = 1")
        a_val = one
        bb, cc = need(b, "b"), need(c, "c")
        x2 = Matrix.from_rows(field, [[bb, cc], [-cc, zero]])
    else:
        raise SideConditionError(f"unknown case {case!r}")

    x1 = family_2x2_invertible(lam, "plus", a_val)
    coeff = block_diag(field, [jordan_block(field, lam, 2)] * 2)
    zero2 = Matrix.zero(field, 2)
    return coeff, Matrix.block([[x1, zero2], [x2, zero2]])


def pencil_extend(a: Matrix, x: Matrix, m: Matrix, alpha: Scalar) -> Matrix:
    """x + alpha*m for m in the two-sided annihilator of the coefficient:
    A(x + alpha m)A = AxA and (x + alpha m)A(x + alpha m) = xAx."""
    if not is_solution(a, x):
        raise PreconditionError("pencil extension: x is not a solution")
    if not (a * m).is_zero or not (m * a).is_zero:
        raise SideConditionError("m is not in the annihilator space (AM = MA = 0)")
    return x + m.scale(a.field.scalar(alpha))


def conjugate_solution(a: Matrix, x: Matrix, g: Matrix) -> Matrix:
    """g x g^{-1} for g in the centralizer group of the coefficient, whose
    residual is g (AxA - xAx) g^{-1}."""
    ginv = g.inverse()
    if ginv is None:
        raise SideConditionError("g must be invertible")
    if g * a != a * g:
        raise SideConditionError("g does not commute with the coefficient")
    if not is_solution(a, x):
        raise PreconditionError("conjugation: x is not a solution")
    return g * x * ginv


# -- catalog -------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # scalar | count | choice | scalars | matrix
    doc: str
    choices: tuple[str, ...] = ()


@dataclass(frozen=True)
class FamilyDescriptor:
    """Machine-readable description of one constructor family."""

    name: str
    aliases: tuple[str, ...]
    coefficient: str
    side_condition: str
    params: tuple[ParamSpec, ...]
    cli_constructible: bool = True

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "aliases": list(self.aliases),
            "coefficient": self.coefficient,
            "side_condition": self.side_condition,
            "cli_constructible": self.cli_constructible,
            "params": [
                {"name": p.name, "kind": p.kind, "doc": p.doc,
                 **({"choices": list(p.choices)} if p.choices else {})}
                for p in self.params
            ],
        }


CATALOG: tuple[FamilyDescriptor, ...] = (
    FamilyDescriptor(
        "jordan2-invertible", ("ex1",),
        "2x2 Jordan block with eigenvalue lam != 0",
        "branches plus/minus need a square root of a in the field",
        (ParamSpec("lam", "scalar", "nonzero eigenvalue"),
         ParamSpec("branch", "choice", "which closed form",
                   ("toeplitz", "plus", "minus")),
         ParamSpec("a", "scalar", "free entry; needs a square root")),
    ),
    FamilyDescriptor(
        "jordan2-nilpotent", ("ex2",),
        "2x2 shift block (eigenvalue 0)",
        "ab = 0",
        (ParamSpec("a", "scalar", "top-left entry"),
         ParamSpec("b", "scalar", "bottom-right entry"),
         ParamSpec("alpha", "scalar", "free top-right entry")),
    ),
    FamilyDescriptor(
        "jordan3-nilpotent", ("ex3",),
        "3x3 shift block (eigenvalue 0)",
        "af + bi = 0",
        (ParamSpec("a", "scalar", "entry (1,1)"),
         ParamSpec("b", "scalar", "entry (1,2)"),
         ParamSpec("c", "scalar", "entry (1,3)"),
         ParamSpec("f", "scalar", "entry (2,3)"),
         ParamSpec("i", "scalar", "entry (3,3)")),
    ),
    FamilyDescriptor(
        "nilpotent-general", ("examplenilpotent",),
        "size-n shift block, n >= 4 (sound, not complete)",
        "parameter lists sized n-2; interior entry equals sum(a_i*b_{i+1})",
        (ParamSpec("n", "count", "ambient dimension, at least 4"),
         ParamSpec("a", "scalars", "first-row parameters, length n-2"),
         ParamSpec("b", "scalars", "last-column parameters, length n-2"),
         ParamSpec("alpha", "scalar", "free corner entry")),
    ),
    FamilyDescriptor(
        "commuting-nilpotent", ("commuting",),
        "shift block of size n+1, n >= 3",
        "none (alpha, beta free)",
        (ParamSpec("n", "count", "ambient size minus one, at least 3"),
         ParamSpec("variant", "choice", "include the shift term or not",
                   ("with_B", "without_B")),
         ParamSpec("alpha", "scalar", "coefficient of B^(n-1)"),
         ParamSpec("beta", "scalar", "coefficient of B^n")),
    ),
    FamilyDescriptor(
        "block-diagonal", (),
        "diag of per-block coefficients",
        "each part must solve its own block equation",
        (ParamSpec("parts", "matrix", "list of (coefficient, solution) pairs"),),
        cli_constructible=False,
    ),
    FamilyDescriptor(
        "two-block-offdiag", ("two-block",),
        "diag(A, A) with A the size-k Jordan block at lam != 0",
        "S A S^-1 must itself pass the residual check",
        (ParamSpec("lam", "scalar", "nonzero eigenvalue"),
         ParamSpec("k", "count", "single block size"),
         ParamSpec("z", "scalars", "coefficients of the polynomial Z in A"),
         ParamSpec("s", "matrix", "invertible conjugator S"),
         ParamSpec("side", "choice", "where the coupling block sits",
                   ("upper", "lower"))),
    ),
    FamilyDescriptor(
        "two-block-case", (),
        "diag(A, A) with A the 2x2 Jordan block at lam != 0",
        "case-specific constraints on (a, lam)",
        (ParamSpec("case", "choice", "which closed form",
                   ("i", "ii", "iii", "iv", "v")),
         ParamSpec("lam", "scalar", "nonzero eigenvalue"),
         ParamSpec("a", "scalar", "branch parameter (cases ii, iii)"),
         ParamSpec("b", "scalar", "free entry (cases i, iv, v)"),
         ParamSpec("c", "scalar", "free entry (cases ii, v)"),
         ParamSpec("e", "scalar", "free entry (cases i, ii, iii)")),
    ),
    FamilyDescriptor(
        "pencil", ("pencil-extend",),
        "any coefficient; shifts a solution by an annihilator element",
        "AM = MA = 0",
        (ParamSpec("A", "matrix", "coefficient matrix file"),
         ParamSpec("X", "matrix", "base solution file"),
         ParamSpec("M", "matrix", "annihilator element file"),
         ParamSpec("alpha", "scalar", "pencil parameter")),
    ),
    FamilyDescriptor(
        "conjugate", ("conjugate-solution",),
        "any coefficient; conjugates a solution by a centralizer element",
        "g invertible and gA = Ag",
        (ParamSpec("A", "matrix", "coefficient matrix file"),
         ParamSpec("X", "matrix", "base solution file"),
         ParamSpec("g", "matrix", "centralizer element file")),
    ),
)


def find_family(name: str) -> FamilyDescriptor:
    for fam in CATALOG:
        if fam.name == name or name in fam.aliases:
            return fam
    raise SideConditionError(f"unknown family {name!r}")


def build_family(field: Field, name: str, params: dict) -> tuple[Matrix, Matrix]:
    """Uniform (coefficient, solution) entry point used by the CLI.

    ``params`` values are already typed: Scalars, ints, scalar lists or
    Matrices according to the family's parameter schema.
    """
    fam = find_family(name)
    try:
        if fam.name == "jordan2-invertible":
            lam = field.scalar(params["lam"])
            x = family_2x2_invertible(lam, params["branch"], params.get("a"))
            return jordan_block(field, lam, 2), x
        if fam.name == "jordan2-nilpotent":
            x = family_2x2_nilpotent(field.scalar(params["a"]),
                                     field.scalar(params["b"]),
                                     field.scalar(params["alpha"]))
            return nilpotent_block(field, 2), x
        if fam.name == "jordan3-nilpotent":
            x = family_3x3_nilpotent(field.scalar(params["a"]), field.scalar(params["b"]),
                                     field.scalar(params["c"]), field.scalar(params["f"]),
                                     field.scalar(params["i"]))
            return nilpotent_block(field, 3), x
        if fam.name == "nilpotent-general":
            n = params["n"]
            x = family_nilpotent_general(n, params["a"], params["b"],
                                         field.scalar(params["alpha"]))
            return nilpotent_block(field, n), x
        if fam.name == "commuting-nilpotent":
            n = params["n"]
            x = commuting_nilpotent(n, params["variant"], field.scalar(params["alpha"]),
                                    field.scalar(params["beta"]))
            return nilpotent_block(field, n + 1), x
        if fam.name == "two-block-offdiag":
            return two_block_offdiag(field.scalar(params["lam"]), params["k"],
                                     params["z"], params["s"],
                                     params.get("side", "upper"))
        if fam.name == "two-block-case":
            return two_block_case(params["case"], field.scalar(params["lam"]),
                                  params.get("a"), params.get("b"),
                                  params.get("c"), params.get("e"))
        if fam.name == "pencil":
            a = params["A"]
            x = pencil_extend(a, params["X"], params["M"], field.scalar(params["alpha"]))
            return a, x
        if fam.name == "conjugate":
            a = params["A"]
            x = conjugate_solution(a, params["X"], params["g"])
            return a, x
    except KeyError as exc:  # only the params lookups raise it
        raise ParseError(f"family {fam.name!r} needs parameter {exc.args[0]}") from None
    raise SideConditionError(f"family {fam.name!r} is not constructible from parameters")
