"""Brute-force enumeration of solution sets over small prime fields.

This is the ground truth the closed-form families and the theorem checks
are validated against. Candidates are generated in row-major lexicographic
order over canonical residues, screened in vectorized batches of integer
arithmetic mod p, and every survivor is then re-verified with the exact
scalar arithmetic of the rest of the package before it is reported.

The candidate budget is a hard error, never a sample: a partial census
would poison every completeness statement built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import core
from .errors import BudgetError, PreconditionError
from .fields import Field
from .matrices import JordanSpec, Matrix, centralizer_basis
from .unipoly import char_poly, is_similar

DEFAULT_BUDGET = 10_000_000
_CHUNK = 1 << 15
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class CensusReport:
    """Exhaustive census of the solution set of one coefficient matrix."""

    field: Field
    coefficient: Matrix
    commuting_only: bool
    solutions: tuple[Matrix, ...]
    by_rank: dict[int, int]
    by_kernel: dict[str, int]
    jordan: JordanSpec | None = None
    family_tags: tuple[str, ...] | None = None
    family_tallies: dict[str, int] | None = None

    @property
    def total(self) -> int:
        return len(self.solutions)

    @property
    def unmatched(self) -> int:
        if self.family_tallies is None:
            raise PreconditionError("census has not been classified")
        return self.family_tallies.get("unmatched", 0)


def _check_int64(p: int, terms: int, total: int) -> None:
    """Refuse a screen whose int64 arithmetic could wrap.

    Entries and digits are residues below p, every product sum in the
    screen adds at most ``terms`` products of two of them, and candidate
    indices and digit weights stay below ``total``.
    """
    if terms * (p - 1) ** 2 > _INT64_MAX or total > _INT64_MAX:
        raise BudgetError(f"GF({p}) screen of {total} candidates would overflow int64")


def _as_int_array(m: Matrix) -> np.ndarray:
    return np.array(m.raw, dtype=np.int64).reshape(m.nrows, m.ncols)


def _screen_batch(a: np.ndarray, xs: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of candidates with AXA == XAX, all arithmetic mod p."""
    ax = np.einsum("ij,bjk->bik", a, xs) % p
    axa = np.einsum("bij,jk->bik", ax, a) % p
    xa = np.einsum("bij,jk->bik", xs, a) % p
    xax = np.einsum("bij,bjk->bik", xa, xs) % p
    return (axa == xax).all(axis=(1, 2))


def _census_from_matrices(field: Field, a: Matrix, mats: list[Matrix],
                          commuting: bool, jordan: JordanSpec | None) -> CensusReport:
    solutions = []
    for x in sorted(mats, key=lambda m: m.raw):
        rep = core.residual(a, x)
        if not rep.is_solution:
            raise AssertionError("screened candidate fails the exact residual")
        if commuting and a * x != x * a:
            raise AssertionError("screened candidate fails exact commutation")
        solutions.append(x)
    by_rank: dict[int, int] = {}
    by_kernel: dict[str, int] = {}
    ranges = jordan.block_ranges() if jordan is not None else None
    for x in solutions:
        r = x.rank()
        by_rank[r] = by_rank.get(r, 0) + 1
        label = (core.kernel_block_label(x, ranges) if ranges is not None
                 else f"dim={len(x.kernel_basis())}")
        by_kernel[label] = by_kernel.get(label, 0) + 1
    return CensusReport(field, a, commuting, tuple(solutions),
                        by_rank, by_kernel, jordan=jordan)


def _enumerate(a: Matrix, jordan: JordanSpec | None, budget: int,
               commuting: bool) -> CensusReport:
    """Screen the candidates, every matrix or only the centralizer of A,
    in lexicographic order of their canonical digits."""
    field = a.field
    if field.kind != "gf":
        raise PreconditionError("census enumeration needs a prime field")
    p, n = field.p, a.nrows
    if commuting:
        basis = centralizer_basis(a)
        dim, terms, noun = len(basis), max(n, len(basis)), "centralizer candidates"
    else:
        if not a.is_square:
            raise PreconditionError("coefficient must be square")
        dim, terms, noun = n * n, n, "candidates"
    total = p ** dim
    if total > budget:
        raise BudgetError(f"{total} {noun} exceed the budget of {budget}")
    _check_int64(p, terms, total)
    a_int = _as_int_array(a)
    basis_int = np.stack([_as_int_array(b) for b in basis]) if commuting else None
    weights = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    found: list[Matrix] = []
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % p
        xs = (np.einsum("bd,dij->bij", digits, basis_int) % p if commuting
              else digits.reshape(-1, n, n))
        mask = _screen_batch(a_int, xs, p)
        for x_int in xs[mask]:
            found.append(Matrix.from_rows(field, x_int.tolist()))
    return _census_from_matrices(field, a, found, commuting, jordan)


def enumerate_solutions(a: Matrix, jordan: JordanSpec | None = None,
                        budget: int = DEFAULT_BUDGET) -> CensusReport:
    """All solutions for a coefficient matrix over GF(p), in row-major
    lexicographic order of their canonical residues."""
    return _enumerate(a, jordan, budget, commuting=False)


def enumerate_commuting_solutions(a: Matrix, jordan: JordanSpec | None = None,
                                  budget: int = DEFAULT_BUDGET) -> CensusReport:
    """Solutions that additionally commute with the coefficient.

    Commuting candidates live in the centralizer of A, so only that
    subspace is enumerated; the budget applies to its p^dim candidates.
    """
    return _enumerate(a, jordan, budget, commuting=True)


# -- family classification ---------------------------------------------------------


def _match_jordan2_invertible(a: Matrix, x: Matrix, lam) -> str | None:
    field = x.field
    if x.is_zero:
        return "zero"
    if x == a:
        return "jordan2-invertible[toeplitz]"
    if x[1, 0] != -(lam * lam):
        return None
    av = x[0, 1]
    if x[0, 0] + x[1, 1] != lam + lam:
        return None
    diff = x[0, 0] - lam
    if diff * diff != lam * lam * av:
        return None
    if x[1, 1] != lam + lam - x[0, 0]:
        return None
    return f"jordan2-invertible[a={av}]"


def _match_jordan2_nilpotent(x: Matrix) -> str | None:
    if not x[1, 0].is_zero:
        return None
    if not (x[0, 0] * x[1, 1]).is_zero:
        return None
    return f"jordan2-nilpotent[a={x[0, 0]},b={x[1, 1]},alpha={x[0, 1]}]"


def _match_jordan3_nilpotent(x: Matrix) -> str | None:
    for i, j in ((1, 0), (1, 1), (2, 0), (2, 1)):
        if not x[i, j].is_zero:
            return None
    if not (x[0, 0] * x[1, 2] + x[0, 1] * x[2, 2]).is_zero:
        return None
    return (f"jordan3-nilpotent[a={x[0, 0]},b={x[0, 1]},c={x[0, 2]},"
            f"f={x[1, 2]},i={x[2, 2]}]")


def _match_nilpotent_general(x: Matrix) -> str | None:
    n = x.nrows
    for i in range(n):
        for j in range(n):
            inside = (i == 0 and j >= 1) or (i == 1 and j >= n - 2) \
                or (2 <= i <= n - 2 and j == n - 1)
            if not inside and not x[i, j].is_zero:
                return None
    coupling = x.field.zero()
    for idx in range(n - 3):
        coupling = coupling + x[0, 1 + idx] * x[2 + idx, n - 1]
    if x[1, n - 2] != coupling:
        return None
    return "nilpotent-general"


def _match_two_block(a: Matrix, x: Matrix, k: int) -> str | None:
    field = x.field
    if x.is_zero:
        return "zero"
    blk = [[Matrix.from_rows(field, [[x[bi * k + i, bj * k + j] for j in range(k)]
                                     for i in range(k)])
            for bj in range(2)] for bi in range(2)]
    sub = Matrix.from_rows(field, [[a[i, j] for j in range(k)] for i in range(k)])
    if blk[0][1].is_zero and blk[1][0].is_zero:
        if core.is_solution(sub, blk[0][0]) and core.is_solution(sub, blk[1][1]):
            return "block-diagonal"
        return None
    if blk[0][0].is_zero and blk[1][0].is_zero:
        y1, y2 = blk[0][1], blk[1][1]
        if core.is_solution(sub, y2) and sub * y1 * sub == y1 * sub * y2:
            return "two-block-offdiag[upper]"
        return None
    if blk[0][1].is_zero and blk[1][1].is_zero:
        y2, y1 = blk[0][0], blk[1][0]
        if core.is_solution(sub, y2) and sub * y1 * sub == y1 * sub * y2:
            return "two-block-offdiag[lower]"
        return None
    return None


def classify_against_families(report: CensusReport) -> CensusReport:
    """Tag every census solution with the closed-form family producing it.

    Supported coefficients: single Jordan blocks (2x2 any eigenvalue,
    3x3 and larger nilpotent) and two equal Jordan blocks with nonzero
    eigenvalue. Solutions outside every family are tagged "unmatched";
    for the size-4 and larger nilpotent block that tag is expected, the
    closed form there is sound but not complete.
    """
    jordan = report.jordan
    if jordan is None:
        raise PreconditionError("classification needs the coefficient's block structure")
    blocks = jordan.blocks
    a = report.coefficient

    def tag_of(x: Matrix) -> str | None:
        if len(blocks) == 1:
            lam, size = blocks[0]
            if size == 2 and not lam.is_zero:
                return _match_jordan2_invertible(a, x, lam)
            if size == 2 and lam.is_zero:
                return _match_jordan2_nilpotent(x)
            if size == 3 and lam.is_zero:
                return _match_jordan3_nilpotent(x)
            if size >= 4 and lam.is_zero:
                return _match_nilpotent_general(x)
            raise PreconditionError(f"unsupported single block ({lam}, {size})")
        if (len(blocks) == 2 and blocks[0] == blocks[1]
                and not blocks[0][0].is_zero):
            return _match_two_block(a, x, blocks[0][1])
        raise PreconditionError("unsupported coefficient block structure")

    tags = []
    tallies: dict[str, int] = {}
    for x in report.solutions:
        tag = tag_of(x)
        if tag is None:
            tag = "unmatched"
        key = tag.split("[", 1)[0]
        tallies[key] = tallies.get(key, 0) + 1
        tags.append(tag)
    tallies.setdefault("unmatched", 0)
    return replace(report, family_tags=tuple(tags), family_tallies=tallies)


# -- theorem sweep -----------------------------------------------------------------


def verify_theorems_on_census(report: CensusReport) -> list[core.PropertyVerdict]:
    """Run every applicable solution property over every census entry.

    Failures are findings, not errors; the list carries one verdict per
    (solution, applicable property).
    """
    a = report.coefficient
    jordan = report.jordan
    n = a.nrows
    verdicts: list[core.PropertyVerdict] = []
    a_invertible = a.is_invertible()
    eigenvalues = jordan.eigenvalues() if jordan is not None else None
    single_block = jordan is not None and len(jordan.blocks) == 1
    two_block = (jordan is not None and len(jordan.blocks) == 2
                 and not jordan.blocks[0][0].is_zero
                 and not jordan.blocks[1][0].is_zero)
    if two_block:
        split = (jordan.blocks[0][1], jordan.blocks[1][1])
    if jordan is not None:
        z, o = a.field.zero(), a.field.one()
        eigenpairs = [(lam, tuple(o if t == lo else z for t in range(n)))
                      for (lam, _), (lo, _) in zip(jordan.blocks, jordan.block_ranges())]
        lams = [lam for lam, _ in jordan.blocks]
        # blocks whose eigenvalue has geometric multiplicity one
        simple_blocks = [(lam, lo, hi) for lam, (lo, hi) in zip(lams, jordan.block_ranges())
                         if lams.count(lam) == 1]

    for x in report.solutions:
        verdicts.append(core.check_power_identities(a, x, 2 * n))
        verdicts.append(core.check_charpoly_annihilation(a, x))
        if core.spectra_disjoint(a, x):
            verdicts.append(core.check_disjoint_spectra_dichotomy(a, x, True))
        if a_invertible:
            verdicts.append(core.check_kernel_invariance(a, x))
            if eigenvalues is not None:
                verdicts.append(core.check_spectrum_inclusion(a, x, eigenvalues))
        if single_block:
            verdicts.append(_single_block_classification(a, jordan.blocks[0][0], x))
        if two_block and not x.is_zero and not x.is_invertible():
            verdicts.append(core.check_kernel_classification_two_blocks(a, x, split))
        if jordan is not None:
            verdicts.append(core.check_eigenvalue_transfer(a, x, eigenpairs))
        if jordan is not None and a_invertible and simple_blocks:
            verdicts.extend(_kernel_eigenspace_filters(x, simple_blocks))
    return verdicts


def _single_block_classification(a: Matrix, lam, x: Matrix) -> core.PropertyVerdict:
    """For a single Jordan block: with a nonzero eigenvalue every solution is
    zero or similar to the block; with eigenvalue zero no solution is
    invertible."""
    if lam.is_zero:
        holds = not x.is_invertible()
        note = "nilpotent block admits no invertible solution"
    elif x.is_zero:
        holds, note = True, "zero solution"
    else:
        holds = x.is_invertible() and is_similar(x, a, [lam, a.field.zero()])
        note = "nonzero solution must be similar to the block"
    return core.PropertyVerdict(
        "single-block-classification", holds,
        witness=None if holds else x, note=note,
    )


def _kernel_eigenspace_filters(x: Matrix, simple_blocks):
    """Census filters for the one-dimensional-eigenspace lemmas: a kernel
    equal to such an eigenspace excludes its eigenvalue from the spectrum
    of the solution, and an excluded eigenvalue forces the solution to
    kill the whole generalized eigenspace.

    ``simple_blocks`` lists (eigenvalue, lo, hi) for the Jordan blocks of
    the coefficient whose eigenvalue labels no other block.
    """
    field, n = x.field, x.nrows
    z, o = field.zero(), field.one()
    chi_x = char_poly(x)
    kernel = x.kernel_basis()
    out = []
    for lam, lo, hi in simple_blocks:
        absent = not chi_x(lam).is_zero
        kernel_is_eigenspace = (
            len(kernel) == 1
            and all(kernel[0][t].is_zero for t in range(n) if t != lo)
            and not kernel[0][lo].is_zero
        )
        if kernel_is_eigenspace:
            out.append(core.PropertyVerdict(
                "kernel-eigenvalue-exclusion",
                absent,
                witness=None if absent else x,
                note=f"kernel equals the eigenspace of {lam}",
            ))
        if absent:
            killed = all(
                all(c.is_zero for c in x.apply(
                    tuple(o if t == col else z for t in range(n))))
                for col in range(lo, hi)
            )
            out.append(core.PropertyVerdict(
                "annihilates-generalized-eigenspace",
                killed,
                witness=None if killed else x,
                note=f"eigenvalue {lam} absent from the solution spectrum",
            ))
    return out
