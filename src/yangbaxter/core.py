"""The Yang-Baxter residual AXA - XAX and the solution property checks.

Every check returns a :class:`PropertyVerdict`. A verdict that does not
hold always carries a witness that violates the property when re-checked;
a check invoked outside its hypotheses raises
:class:`~yangbaxter.errors.PreconditionError` instead of returning false.

Spectral statements are phrased through characteristic polynomials and
known linear factors: spectrum inclusion asks whether the
:func:`~yangbaxter.unipoly.unsplit_part` of char(X) is constant, and
disjointness whether two characteristic polynomials are coprime. So they
work over every supported field without any root finding.

Checks take plain matrices: each verifies its candidate's residual and
derives the char(M), kernels and invertibility it reads. The census sweep
decides what its exact GF(p) batch holds and calls a check only on a
solution that batch flags.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, FieldMismatchError, PreconditionError
from .matrices import Matrix
from .unipoly import char_poly, unsplit_part


@dataclass(frozen=True)
class ResidualReport:
    """Result of evaluating AXA - XAX for one candidate solution."""

    coefficient: Matrix
    candidate: Matrix
    residual: Matrix

    @property
    def is_solution(self) -> bool:
        return self.residual.is_zero


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of one property check, with a re-checkable failure witness."""

    name: str
    holds: bool
    witness: object = None
    note: str = ""

    def __str__(self) -> str:
        state = "holds" if self.holds else "FAILS"
        suffix = f" ({self.note})" if self.note else ""
        return f"{self.name}: {state}{suffix}"


def residual(a: Matrix, x: Matrix) -> ResidualReport:
    """Exact residual AXA - XAX, as (AX)A - X(AX): three products."""
    if not a.is_square or not x.is_square:
        raise DimensionError("coefficient and candidate must be square")
    if a.nrows != x.nrows:
        raise DimensionError(f"dimension mismatch {a.nrows} vs {x.nrows}")
    if a.field is not x.field:
        raise FieldMismatchError("coefficient and candidate over different fields")
    ax = a * x
    return ResidualReport(a, x, ax * a - x * ax)


def is_solution(a: Matrix, x: Matrix) -> bool:
    return residual(a, x).is_solution


def _require_solution(a: Matrix, x: Matrix, who: str) -> None:
    if not is_solution(a, x):
        raise PreconditionError(f"{who}: candidate is not a solution")


def check_conjugation_equivariance(a: Matrix, x: Matrix, g: Matrix) -> PropertyVerdict:
    """Conjugating a candidate by g maps solutions of A to solutions of gAg^-1."""
    ginv = g.inverse()
    if ginv is None:
        raise PreconditionError("conjugation-equivariance: g is singular")
    before = is_solution(a, x)
    after = is_solution(g * a * ginv, g * x * ginv)
    holds = before == after
    return PropertyVerdict(
        "conjugation-equivariance",
        holds,
        witness=None if holds else (g, x),
        note=f"solution before: {before}, after conjugation: {after}",
    )


def check_spectrum_inclusion(a: Matrix, x: Matrix, eigenvalues_of_a) -> PropertyVerdict:
    """With A invertible, the spectrum of a solution X lies in spec(A) union {0}.

    Checked as: the unsplit part of char(X) with respect to 0 and the
    supplied eigenvalues is constant; otherwise it is the witness.
    """
    if not a.is_invertible():
        raise PreconditionError("spectrum-inclusion: coefficient must be invertible")
    _require_solution(a, x, "spectrum-inclusion")
    rem = unsplit_part(char_poly(x), [0, *eigenvalues_of_a])
    holds = rem.degree == 0
    return PropertyVerdict("spectrum-inclusion", holds, witness=None if holds else rem,
                           note="" if holds else f"unfactored part {rem}")


def check_kernel_invariance(a: Matrix, x: Matrix) -> PropertyVerdict:
    """With A invertible, A maps the kernel of a solution X into itself."""
    if not a.is_invertible():
        raise PreconditionError("kernel-invariance: coefficient must be invertible")
    _require_solution(a, x, "kernel-invariance")
    for v in x.kernel_basis():
        if any(not c.is_zero for c in x.apply(a.apply(v))):
            return PropertyVerdict(
                "kernel-invariance", False, witness=v,
                note="A maps a kernel vector outside the kernel",
            )
    return PropertyVerdict("kernel-invariance", True)


def check_power_identities(a: Matrix, x: Matrix, up_to: int) -> PropertyVerdict:
    """AXA^n = X^n AX and A^n XA = XA X^n for n = 1 .. up_to.

    At n = 1 both identities are the equation itself, so no separate
    solution precondition is enforced. Passing this check for all n also
    certifies the exponential intertwining identity termwise, since the
    series equality is coefficientwise equality of these same products.
    Each side is carried from n - 1 to n by one product with A or X.
    """
    left = right = a * x    # AX A^0 = X^0 AX
    left2 = right2 = x * a  # A^0 XA = XA X^0
    for n in range(1, up_to + 1):
        left, right = left * a, x * right
        left2, right2 = a * left2, right2 * x
        if left != right:
            return PropertyVerdict(
                "power-identities", False, witness=left - right,
                note=f"AXA^n = X^n AX fails at n={n}",
            )
        if left2 != right2:
            return PropertyVerdict(
                "power-identities", False, witness=left2 - right2,
                note=f"A^n XA = XA X^n fails at n={n}",
            )
    return PropertyVerdict("power-identities", True)


def check_charpoly_annihilation(a: Matrix, x: Matrix) -> PropertyVerdict:
    """XA phi_A(X) = 0 and phi_A(X) AX = 0 for a solution X."""
    _require_solution(a, x, "charpoly-annihilation")
    phi_at_x = char_poly(a).at_matrix(x)
    left = x * a * phi_at_x
    right = phi_at_x * a * x
    holds = left.is_zero and right.is_zero
    return PropertyVerdict("charpoly-annihilation", holds,
                           witness=None if holds else (left if not left.is_zero else right),
                           note="" if holds else "a charpoly product is nonzero")


def spectra_disjoint(a: Matrix, x: Matrix) -> bool:
    """Whether char(A) and char(X) are coprime (no shared eigenvalue)."""
    return char_poly(a).gcd(char_poly(x)).degree == 0


def check_disjoint_spectra_dichotomy(a: Matrix, x: Matrix,
                                     spectra_disjoint: bool) -> PropertyVerdict:
    """With disjoint spectra, either A = 0 and X invertible, or X = 0 and A invertible."""
    if not spectra_disjoint:
        raise PreconditionError(
            "disjoint-spectra-dichotomy: caller must certify disjoint spectra"
        )
    _require_solution(a, x, "disjoint-spectra-dichotomy")
    holds = (a.is_zero and x.is_invertible()) or (x.is_zero and a.is_invertible())
    return PropertyVerdict("disjoint-spectra-dichotomy", holds,
                           witness=None if holds else (a, x),
                           note="" if holds else "neither branch of the dichotomy applies")


def kernel_block_label(basis, ranges) -> str:
    """Classify a kernel, given by its basis, against half-open coordinate
    block ranges: "trivial", the "+"-joined names P1, P2, ... of the blocks
    whose span it equals, or "other"."""
    if not basis:
        return "trivial"
    support = {j for v in basis for j, c in enumerate(v) if not c.is_zero}
    covering = [k for k, (lo, hi) in enumerate(ranges) if support & set(range(lo, hi))]
    if len(basis) == sum(ranges[k][1] - ranges[k][0] for k in covering):
        return "+".join(f"P{k + 1}" for k in covering)
    return "other"


def check_kernel_classification_two_blocks(a: Matrix, x: Matrix,
                                           block_split: tuple[int, int]) -> PropertyVerdict:
    """For a two-block coefficient with nonzero eigenvalues, the kernel of a
    singular nonzero solution is the first block span, the second, or both."""
    n1, n2 = block_split
    if n1 + n2 != a.nrows:
        raise DimensionError("block split does not sum to the dimension")
    if not a.is_invertible():
        raise PreconditionError("two-block-kernel: coefficient must be invertible")
    _require_solution(a, x, "two-block-kernel")
    if x.is_zero:
        raise PreconditionError("two-block-kernel: candidate is the zero matrix")
    kernel = x.kernel_basis()
    if not kernel:
        raise PreconditionError("two-block-kernel: candidate must be singular")
    label = kernel_block_label(kernel, [(0, n1), (n1, n1 + n2)])
    holds = label in ("P1", "P2", "P1+P2")
    return PropertyVerdict("two-block-kernel-classification", holds,
                           witness=None if holds else kernel, note=f"kernel is {label}")


def check_pencil_condition(a: Matrix, x0: Matrix, x1: Matrix) -> PropertyVerdict:
    """The affine family x0 + t*x1 stays inside the solution set exactly when
    AX1A = 0, X1AX1 = 0 and X0AX1 + X1AX0 = 0.

    Alongside the algebraic conditions the verdict re-checks the residual of
    x0 + t*x1 at t in {1, 2, -1}; a disagreement in the impossible direction
    is an internal error, not a verdict.
    """
    if not is_solution(a, x0):
        raise PreconditionError("pencil: x0 is not a solution")
    if not is_solution(a, x1):
        raise PreconditionError("pencil: x1 is not a solution")
    cond1 = a * x1 * a
    cond2 = x1 * a * x1
    cond3 = x0 * a * x1 + x1 * a * x0
    failed = [(name, m) for name, m in
              (("A X1 A", cond1), ("X1 A X1", cond2), ("X0 A X1 + X1 A X0", cond3))
              if not m.is_zero]
    holds = not failed
    samples = {}
    for t in (1, 2, -1):
        tval = a.field.scalar(t)
        samples[t] = is_solution(a, x0 + x1.scale(tval))
    if holds and not all(samples.values()):
        raise AssertionError("pencil conditions hold but a sampled member fails")
    note = "sampled members at t=1,2,-1: " + ", ".join(
        str(v) for v in samples.values()
    )
    if not holds:
        note = f"{failed[0][0]} is nonzero; " + note
    return PropertyVerdict(
        "pencil-conditions",
        holds,
        witness=None if holds else failed[0][1],
        note=note,
    )


def check_eigenvalue_transfer(a: Matrix, x: Matrix, eigenpairs) -> PropertyVerdict:
    """For each eigenpair (lam, v) of A and a solution X: AXv = 0 or lam is a
    root of char(X). For a Jordan-form coefficient the eigenvectors are
    standard basis vectors, which is how callers are expected to supply them."""
    _require_solution(a, x, "eigenvalue-transfer")
    chi_x = None
    for lam, v in eigenpairs:
        lam = a.field.scalar(lam)
        if all(c.is_zero for c in a.apply(x.apply(v))):
            continue
        chi_x = chi_x or char_poly(x)
        if not chi_x(lam).is_zero:
            return PropertyVerdict(
                "eigenvalue-transfer", False, witness=(lam, v),
                note="AXv is nonzero yet lam is not an eigenvalue of X",
            )
    return PropertyVerdict("eigenvalue-transfer", True)
