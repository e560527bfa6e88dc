"""Brute-force enumeration of solution sets over small prime fields.

This is the ground truth the closed-form families and the theorem checks
are validated against. Candidates are searched depth first over the
coordinates of a basis, each residual entry screened mod p with vectorized
integer arithmetic at the stage whose coordinates fix it, so a failing
partial matrix is dropped with every extension. Each stage's table of
coordinate combinations is built once per census. Search, batch and sweep
run in the least signed integer dtype that holds their widest sums, int8
for small p and n, and reduce mod p by a table of residues. The report
built from the survivors verifies each exactly in one batch over GF(p),
kept as arrays: residues, pivots and kernel bases, which the tallies and
the sweep read.

The candidate budget is a hard error, never a sample: a partial census
would poison every completeness statement built on top of it.

One helper, which the search and CensusReport call, decides what a census
is: a square coefficient over GF(p) and the Jordan matrix of the report's
block structure, if it has one. No other report is ever built.

Classification against the single-block families holds no formula of its
own: it reads a solution's free entries, calls the family constructor on
them and compares what comes back, so a broken constructor shows up in
the census tallies. For two equal blocks the tag is the block shape of a
verified solution, which of its four blocks vanish. Any other block
structure comes back untagged.

The theorem sweep has one path: it checks the product identities, kernel
invariance, the dichotomy and, with a block structure, the spectral checks
and a single block's classification mod p on one stack of all solutions,
and builds its verdicts a property at a time from that batch's mask
arrays; only a solution the batch flags meets an exact check. What the
batch holds exactly it decides: spectral disjointness, invertibility and
each kernel's block label.

numpy is imported inside the functions that use it, so that importing the
package, and every command but a census, does not load it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial

from . import core
from .errors import BudgetError, PreconditionError, SideConditionError
from .families import (family_2x2_invertible, family_2x2_nilpotent, family_3x3_nilpotent,
                       family_nilpotent_general)
from .fields import Field, Scalar, power
from .matrices import (JordanSpec, Matrix, centralizer_basis, jordan_chain_conjugator,
                       jordan_matrix)
from .unipoly import UniPoly, char_poly

DEFAULT_BUDGET = 10_000_000
_CHUNK = 1 << 13
_INT64_MAX = 2**63 - 1
_DECIMAL_BITS = 14_284  # no int of this many bits has more than the 4,300 digits str() allows


def _check_census(a: Matrix, jordan: JordanSpec | None) -> None:
    """Refuse a coefficient that is not square over GF(p), and a block
    structure of another dimension, or whose Jordan matrix is not it."""
    if a.field.p is None or not a.is_square:
        raise PreconditionError("a census has a square coefficient over GF(p)")
    if jordan is not None and (jordan.dimension != a.nrows or a != jordan_matrix(a.field, jordan)):
        raise PreconditionError("coefficient is not the Jordan matrix of its block structure")


@dataclass(frozen=True)
class CensusReport:
    """Exhaustive census of the solution set of one coefficient matrix: its
    inputs, valid by construction. ``_check_census`` holds the rules of a
    census and one batch of ``_records`` verifies every solution, AX = XA
    too when ``commuting_only``, kept as its (S, n, n) residue ``stack``,
    ``pivots`` and ``kernels``. Tallies and tags are derived on first use."""

    coefficient: Matrix
    commuting_only: bool
    solutions: tuple[Matrix, ...]
    jordan: JordanSpec | None = None

    def __post_init__(self):
        _check_census(self.coefficient, self.jordan)
        vars(self).update(zip(("stack", "pivots", "kernels"),
                              _records(self.coefficient, self.solutions, self.commuting_only)))

    @property
    def field(self) -> Field:
        return self.coefficient.field

    @property
    def total(self) -> int:
        return len(self.solutions)

    @cached_property
    def by_rank(self) -> dict[int, int]:
        return dict(Counter(self.pivots.sum(axis=1).tolist()))

    @cached_property
    def kernel_labels(self) -> list[str] | None:  # under ``jordan``, if the report has one
        return self.jordan and _kernel_labels(self, self.jordan.block_ranges())

    @cached_property
    def by_kernel(self) -> dict[str, int]:  # by block label, or without ``jordan`` by dimension
        return (dict(Counter(self.kernel_labels)) if self.jordan is not None else
                {f"dim={self.coefficient.ncols - r}": c for r, c in self.by_rank.items()})

    @cached_property
    def family_tags(self) -> tuple[str, ...] | None:
        return classify_against_families(self)

    @cached_property
    def family_tallies(self) -> dict[str, int] | None:  # tags counted up to their [params]
        tags = self.family_tags
        return None if tags is None else {"unmatched": 0, **Counter(t.split("[")[0] for t in tags)}

    @property
    def unmatched(self) -> int:
        if self.family_tallies is None:
            raise PreconditionError("no family covers the census")
        return self.family_tallies["unmatched"]


def _narrow_dtype(p: int, terms: int, total: int = 0):
    """The least signed integer dtype holding +-terms (p - 1)^2 (its type for -v - 1 holds
    +v too); refuses a census whose int64 could wrap. Each sum of the census adds at most
    ``terms`` products of two residues below p, or two residues, reduced mod p before it is
    a factor again: n in the screen, a product and a residue in a table of combinations,
    n + 1 in the sweep's Horner step. Digits and partial matrices per stage stay below ``total``."""
    import numpy as np

    if terms * (p - 1) ** 2 > _INT64_MAX or total > _INT64_MAX:
        raise BudgetError(f"GF({p}) screen of {total} candidates would overflow int64")
    return np.min_scalar_type(-terms * (p - 1) ** 2 - 1)


def _reducer(p: int, dtype):
    """x -> x mod p on arrays of ``dtype``; wider than 16 bits by %, else by a lookup in the
    residues of all its values in the order of its unsigned view, 0 .. 2^(b-1) - 1 then
    -2^(b-1) .. -1, widened only if p - 1 does not fit: for 8 bits each value's, taken at
    once, for 16 bits two runs of the cycle 0 .. p - 1, which cost less than 2^16 remainders."""
    import numpy as np

    if dtype.itemsize > 2:
        return lambda x: x % p
    wide, unsigned = np.promote_types(dtype, np.min_scalar_type(-p)), f"u{dtype.itemsize}"
    if dtype.itemsize == 1:
        table = np.arange(256, dtype=np.uint8).view(dtype).astype(wide, copy=False) % p
    else:
        half = 1 << 15
        cycle = np.tile(np.arange(p, dtype=wide), half // p + 2)
        table = np.concatenate([cycle[:half], cycle[-half % p:][:half]])
    return lambda x: table.take(x.view(unsigned))


def _combine(coefs: list[int], rows) -> np.ndarray:
    """The sum of c * row over the nonzero coefficients c, with no product
    for c = 1; zeros when every coefficient is zero. Never writes to a row."""
    terms = [row if c == 1 else c * row for c, row in zip(coefs, rows) if c]
    return sum(terms[1:], terms[0]) if terms else 0 * rows[0]


def _screen_batch(a: np.ndarray, xs: np.ndarray, p: int, entries) -> np.ndarray:
    """Boolean mask of the candidates whose residual AXA - XAX vanishes mod p
    at ``entries``, an iterable of (i, j).

    ``xs`` is an (N, n, n) view whose entries are contiguous rows over the
    N candidates, in a signed dtype that holds +-n (p - 1)^2. The entries are tested one at a time, each on the
    survivors of the entries before it: entry (i, j) takes row i and
    column j of AX, reduced mod p before the second product.
    """
    import numpy as np

    n, mod = len(a), _reducer(p, xs.dtype)
    a_rows, a_cols = a.tolist(), a.T.tolist()
    x = xs.transpose(1, 2, 0)
    alive = np.arange(len(xs))
    for i, j in entries:
        ax_row = [mod(_combine(a_rows[i], x[:, m])) for m in range(n)]
        ax_col = [ax_row[j] if m == i else mod(_combine(a_rows[m], x[:, j]))
                  for m in range(n)]
        lhs = _combine(a_cols[j], ax_row)
        rhs = sum(x[i, m] * ax_col[m] for m in range(n))
        keep = np.flatnonzero(mod(lhs - rhs) == 0)
        x, alive = x[:, :, keep], alive[keep]
    return np.bincount(alive, minlength=len(xs)) > 0


def _gauss_jordan(m: np.ndarray, p: int):
    """Gauss-Jordan mod p, in place, on an (S, n, k) stack of residues whose
    dtype holds +-2 (p - 1)^2, as Matrix._eliminate over GF(p): the first nonzero
    pivot at or below the current row, scaled by v^(p-2), clears its column. Returns
    the reduced stack, the (S, k) pivot-column mask and, for k = n, the determinants:
    a sign per row swap times the pivots, 0 when a column has no pivot."""
    import numpy as np

    (s, n, k), mod = m.shape, _reducer(p, m.dtype)
    each, row = np.arange(s), np.zeros(s, dtype=np.int64)
    det, pivots = np.ones(s, dtype=m.dtype), np.zeros((s, k), dtype=bool)
    for c in range(k):
        here = np.minimum(row, n - 1)  # the current row; none is left once row = n
        below = (m[:, :, c] != 0) & (np.arange(n) >= row[:, None])
        found = pivots[:, c] = below.any(axis=1)
        r = np.where(found, below.argmax(axis=1), here)
        top = m[each, r]
        m[each, r], m[each, here] = m[each, here], top
        det = np.where(found, mod(np.where(r == here, det, p - det) * top[:, c]), 0)
        top = mod(top * power(top[:, c, None], p - 2, 1, lambda u, v: mod(u * v)))
        clear = np.where(found[:, None], m[:, :, c], 0)
        clear[each, here] -= found  # the pivot row, v times top, becomes top
        m[:] = mod(m - clear[:, :, None] * top[:, None])
        row += found
    return m, pivots, det


def _kernel_basis(xs: np.ndarray, p: int):
    """The (S, n) pivot masks of an (S, n, n) stack, eliminated in place, and its
    kernel bases as Matrix.kernel_basis reads them off: with row j of ``at`` the
    pivot row of pivot column j, else 0, row j of a basis is column j of I - at."""
    import numpy as np

    rref, pivots, _ = _gauss_jordan(xs, p)
    at = pivots[:, :, None] * rref[np.arange(len(xs))[:, None], pivots.cumsum(axis=1) - 1]
    basis = _reducer(p, xs.dtype)(np.eye(xs.shape[-1], dtype=xs.dtype) - at)
    return pivots, basis.transpose(0, 2, 1)


def _unique_rows(rows: np.ndarray):
    """np.unique(rows, axis=0, return_inverse=True) on each row's bytes: faster."""
    import numpy as np

    width = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    found, which = np.unique(np.ascontiguousarray(rows).view(width).ravel(), return_inverse=True)
    return found.view(rows.dtype).reshape(-1, rows.shape[1]), which.reshape(-1)


def _kernel_labels(report: CensusReport, ranges) -> list[str]:
    """core.kernel_block_label of each kernel of a report's batch: it meets the
    blocks where a basis vector is nonzero, and spans them if it is as large."""
    import numpy as np

    touched = (report.kernels != 0).any(axis=1)
    meets = np.stack([touched[:, lo:hi].any(axis=1) for lo, hi in ranges], axis=-1)
    spans = meets @ np.array([hi - lo for lo, hi in ranges]) == (~report.pivots).sum(axis=1)
    patterns, which = _unique_rows(np.column_stack([spans, meets]))
    names = ["trivial" if not row[1:].any() else "other" if not row[0]
             else "+".join(f"P{k + 1}" for k in np.flatnonzero(row[1:])) for row in patterns]
    return np.array(names, dtype=object)[which].tolist()


def _char_values(xs: np.ndarray, lam: int, p: int) -> np.ndarray:
    """det(lam I - X) mod p for each X of an (S, n, n) stack of residues."""
    import numpy as np

    shifted = lam * np.eye(xs.shape[-1], dtype=xs.dtype) - xs
    return _gauss_jordan(_reducer(p, xs.dtype)(shifted), p)[2]


def _product_masks(a: Matrix, phi: UniPoly, invertible: bool, xs: np.ndarray,
                   kernels: np.ndarray, jordan: JordanSpec | None):
    """Bool (S,) masks over an (S, n, n) stack ``xs`` of residues over GF(p),
    in the batch's dtype, keyed by verdict name, of the matrices that satisfy:
    AXA^k = X^k AX and A^k XA = XA X^k for k = 1 .. 2n; XA phi(X) = 0 =
    phi(X) AX for phi = char(A), by Horner from lead * I; with A ``invertible``,
    X A K = 0 for their ``kernels``; A = 0 and X invertible, or X = 0 and A
    invertible. Under "disjoint", det phi(X) = +-Res(char A, char X) != 0.

    With A the Jordan matrix of ``jordan``, also char_X(lam) mod p for each
    eigenvalue lam of A, returned beside the masks, and the masks of
    eigenvalue transfer (A X e_lo = 0 or char_X(lam) = 0 at each block start
    lo) and spectrum inclusion (Q^n = 0 for Q the product of X - mu I over
    mu in spec(A) and 0: char(X) splits over those mu). char(A) splits over
    those lam, so "disjoint" is then every char_X(lam) != 0. For a single
    block of eigenvalue lam != 0, X = 0 or X similar to the block. Masks and
    char values are returned as arrays."""
    import numpy as np

    phi = phi.raw
    p, n = a.field.p, a.nrows
    dtype = _narrow_dtype(p, n + 1, len(xs))
    mod, xs, kernels = _reducer(p, dtype), xs.astype(dtype), kernels.astype(dtype)
    a = np.array(a.raw, dtype=dtype).reshape(n, n)
    ident = np.eye(n, dtype=dtype)
    ax, xa = mod(a @ xs), mod(xs @ a)
    left, right, left2, right2 = ax, ax, xa, xa
    powers = np.ones(len(xs), dtype=bool)
    for _ in range(2 * n):
        left, right = mod(left @ a), mod(xs @ right)
        left2, right2 = mod(a @ left2), mod(right2 @ xs)
        powers &= ((left == right) & (left2 == right2)).all(axis=(1, 2))
    acc = np.broadcast_to(phi[-1] * ident, xs.shape)
    for c in reversed(phi[:-1]):
        acc = mod(acc @ xs + c * ident)
    annihilated = ~(mod(xa @ acc).any(axis=(1, 2)) | mod(acc @ ax).any(axis=(1, 2)))
    masks = {"power-identities": powers, "charpoly-annihilation": annihilated,
             "disjoint-spectra-dichotomy": ~kernels.any(axis=(1, 2)) if not a.any()
             else ~xs.any(axis=(1, 2)) & invertible}  # A = 0 is not invertible
    if invertible:
        masks["kernel-invariance"] = ~mod(xa @ kernels.transpose(0, 2, 1)).any(axis=(1, 2))
    chars = {}
    if jordan is None:
        masks["disjoint"] = _gauss_jordan(acc, p)[2] != 0  # acc is not read again
    else:
        chars = {lam: _char_values(xs, lam.v, p) for lam in jordan.eigenvalues()}
        masks["disjoint"] = np.logical_and.reduce([values != 0 for values in chars.values()])
        masks["eigenvalue-transfer"] = np.logical_and.reduce(
            [~ax[:, :, lo].any(axis=1) | (chars[lam] == 0)
             for (lam, _), (lo, _) in zip(jordan.blocks, jordan.block_ranges())])
        q = xs
        for lam in chars:
            if lam.v:
                q = mod(q @ mod(xs - lam.v * ident))
        for _ in range((n - 1).bit_length()):  # to Q^(2^m), 2^m >= n
            q = mod(q @ q)
        masks["spectrum-inclusion"] = ~q.any(axis=(1, 2))
        (lam, _), *rest = jordan.blocks
        if not rest and lam.v:  # N = X - lam I of index n: N^(n-1) != 0 = N^n
            nil = mod(xs - lam.v * ident)
            top = power(nil, n - 1, np.broadcast_to(ident, xs.shape), lambda u, v: mod(u @ v))
            similar = top.any(axis=(1, 2)) & ~mod(top @ nil).any(axis=(1, 2))
            masks["single-block-classification"] = similar | ~xs.any(axis=(1, 2))
    return masks, chars


def _records(a: Matrix, solutions, commuting: bool):
    """The (S, n, n) residues of the solutions of ``a`` in the sweep's dtype, verified in
    one batch mod p (AXA = XAX, and AX = XA when ``commuting``), and their kernels."""
    import numpy as np

    p, n = a.field.p, a.nrows
    dtype = _narrow_dtype(p, n + 1, len(solutions))
    mod = _reducer(p, dtype)
    a_int = np.array(a.raw, dtype=dtype).reshape(n, n)
    xs = np.array([x.raw for x in solutions if (x.field, x.nrows, x.ncols) == (a.field, n, n)],
                  dtype=dtype).reshape(-1, n, n)
    ax = mod(a_int @ xs)
    if len(xs) < len(solutions) or mod(ax @ a_int - xs @ ax).any():
        raise PreconditionError("candidate is not a solution: it fails the exact residual")
    if commuting and (ax != mod(xs @ a_int)).any():
        raise PreconditionError("candidate does not commute with A: it fails exact commutation")
    return (xs, *_kernel_basis(xs.copy(), p))


def _census_from_matrices(a: Matrix, mats: list[Matrix], commuting: bool,
                          jordan: JordanSpec | None) -> CensusReport:
    try:  # the one exact residual and kernel of each solution
        return CensusReport(a, commuting, tuple(sorted(mats, key=lambda m: m.raw)), jordan)
    except PreconditionError as err:
        raise AssertionError(f"screened {err}") from err


def _refuse_above(p: int, k: int, budget: int, commuting: bool, at_least: str = "") -> None:
    """Refuse p^k candidates above the budget. p^k >= 2^k > budget once k
    reaches the budget's bit length, so p^k is built only below that; a
    count of more than ``_DECIMAL_BITS`` bits is written p^k, not in decimal."""
    if k < budget.bit_length() and p ** k <= budget:
        return
    count = p ** k if k * (p - 1).bit_length() <= _DECIMAL_BITS else f"{p}^{k}"
    noun = "centralizer candidates" if commuting else "candidates"
    raise BudgetError(f"{at_least}{count} {noun} exceed the budget of {budget}")


def check_budget(p: int, n: int, budget: int, commuting: bool) -> None:
    """Refuse a census of an n x n coefficient over GF(p) whose basis alone
    exceeds the budget, before the coefficient or a basis is built: every
    basis has at least n elements, n^2 in full and dim C(A) >= n."""
    _refuse_above(p, n if commuting else n * n, budget, commuting,
                  "at least " if commuting else "")


def _combinations(run: np.ndarray, lo: int, hi: int, p: int, dtype) -> np.ndarray:
    """The combinations of a run of basis elements, the rows of ``run``, one
    column each, as residues in ``dtype``: the first element's digit is the
    most significant and runs over lo .. hi - 1, each later one's over
    0 .. p - 1. Built by broadcasting from the last element to the first,
    each new element the leading digit, reduced mod p at each step."""
    import numpy as np

    mod, run = _reducer(p, dtype), run.astype(dtype)
    out = np.zeros((run.shape[1], 1), dtype=dtype)
    for k in reversed(range(len(run))):
        digits = np.arange(lo, hi, dtype=dtype) if k == 0 else np.arange(p, dtype=dtype)
        out = mod(np.outer(run[k], digits)[:, :, None] + out[:, None, :]).reshape(len(out), -1)
    return out


def _enumerate(a: Matrix, jordan: JordanSpec | None, budget: int,
               commuting: bool) -> CensusReport:
    """Search every matrix, or only the centralizer of A, depth first over
    the coordinates of a basis, in pieces of at most ``_CHUNK``. A run of
    coordinates ends where one fixes a residual entry, the first run no
    sooner than ``head``, the most coordinates one piece holds. A stage is a
    run, or ``head`` coordinates of a longer one, and screens the entries
    its last coordinate fixes. Each stage's table of combinations is built
    once, before the descent, save a single coordinate with p > ``_CHUNK``,
    whose table is built a piece at a time on each visit."""
    import numpy as np

    field = a.field
    _check_census(a, jordan)
    p, n = field.p, a.nrows
    check_budget(p, n, budget, commuting)
    if commuting:
        basis = [b.raw for b in centralizer_basis(a)]
    else:
        # cross order: row s from the diagonal on, then column s below it
        cross = sorted(range(n * n), key=lambda c: (min(divmod(c, n)), c))
        basis = np.eye(n * n, dtype=np.int64)[cross]
    basis = np.array(basis, dtype=np.int64).reshape(-1, n, n)
    dim = len(basis)
    _refuse_above(p, dim, budget, commuting)
    dtype = _narrow_dtype(p, max(n, 2), p ** dim)
    mod = _reducer(p, dtype)
    a_int = np.array(a.raw, dtype=np.int64).reshape(n, n)
    last = np.where(basis != 0, np.arange(dim)[:, None, None], -1).max(axis=0)
    head = max((t for t in range(1, dim + 1) if p ** t <= _CHUNK), default=min(dim, 1))
    fixed: dict[int, list[tuple[int, int]]] = {}  # stage end -> the entries it fixes
    for i, j in itertools.product(range(n), repeat=2):
        reads = np.outer(a_int[i] != 0, a_int[:, j] != 0)  # X_kl where A_ik, A_lj != 0
        reads[i], reads[:, j] = True, True  # row i and column j of X
        if (t := last[reads].max()) >= 0:  # else X is zero on every read
            fixed.setdefault(max(t + 1, head), []).append((i, j))
    runs = sorted({head, dim, *fixed})
    cuts = (t for s, e in zip([0, *runs], runs) for t in range(s + head, e, head))
    ends = sorted({*runs, *cuts})

    # start -> stop, the entries the run sets, whether earlier coordinates set any
    # of them (else X is zero there), the run, and its table unless built per visit
    stages = {}
    for start, stop in zip([0, *ends], ends):
        on = (basis[start:stop] != 0).any(axis=0)
        run = basis[start:stop, on]
        whole = (_combinations(run, 0, p, p, dtype),) if p ** (stop - start) <= _CHUNK else ()
        stages[start] = stop, on, (basis[:start, on] != 0).any(), run, whole
    found: list[Matrix] = []

    def descend(x: np.ndarray, start: int) -> None:  # x: (n, n, S), coordinates < start set
        if start == dim:
            # residues below p already: no coercion, the census re-verifies each one
            return found.extend(Matrix._make(field, n, n, m)
                                for m in x.transpose(2, 0, 1).reshape(-1, n * n).tolist())
        stop, on, wraps, run, whole = stages[start]
        for add in whole or (_combinations(run, d, min(d + _CHUNK, p), p, dtype)
                             for d in range(0, p, _CHUNK)):
            step = max(1, _CHUNK // add.shape[1])
            for lo in range(0, x.shape[2], step):
                ext = np.repeat(x[:, :, lo:lo + step, None], add.shape[1], axis=3)
                ext[on] = mod(ext[on] + add[:, None]) if wraps else add[:, None]
                ext = ext.reshape(n, n, -1)
                if entries := fixed.get(stop):
                    ext = ext[:, :, _screen_batch(a_int, ext.transpose(2, 0, 1), p, entries)]
                descend(ext, stop)

    descend(np.zeros((n, n, 1), dtype=dtype), 0)
    return _census_from_matrices(a, found, commuting, jordan)


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


def _rebuilds(x: Matrix, construct, *params) -> bool:
    """Whether a family constructor, fed parameters read off ``x``, builds
    ``x`` itself; a violated side condition means ``x`` is not a member."""
    try:
        return construct(*params) == x
    except SideConditionError:
        return False


def classify_against_families(report: CensusReport) -> tuple[str, ...] | None:
    """The tag of every census solution: the closed-form family producing it.

    Covered: one Jordan block of size 2, one nilpotent block of size 3 or
    more, and two equal blocks with nonzero eigenvalue; for any other block
    structure, or none, there are no tags. Solutions outside every family
    are tagged "unmatched", as expected for nilpotent blocks of size 4 and
    more, whose closed form is sound but not complete. The report verified
    its solutions when it was built, and its coefficient is the Jordan
    matrix of the block structure the tags read.
    """
    import numpy as np

    jordan = report.jordan
    if jordan is None:
        return None
    (lam, n), *rest = jordan.blocks
    two_equal = rest == [(lam, n)] and not lam.is_zero
    if not (two_equal or not rest and (n == 2 or n >= 3 and lam.is_zero)):
        return None
    if two_equal:  # block by block, the residual is the equations of the shape's family
        vanish = (report.stack.reshape(-1, 2, n, 2, n) == 0).all(axis=(2, 4))
        z11, z12, z21, z22 = vanish.reshape(-1, 4).T
        return tuple(np.select([z11 & z12 & z21 & z22, z12 & z21, z11 & z21, z12 & z22],
                               ["zero", "block-diagonal", "two-block-offdiag[upper]",
                                "two-block-offdiag[lower]"], "unmatched").tolist())

    def tag_of(x: Matrix) -> str | None:
        if n == 2 and not lam.is_zero:
            if x.is_zero:
                return "zero"
            if _rebuilds(x, family_2x2_invertible, lam, "toeplitz"):
                return "jordan2-invertible[toeplitz]"
            av = x[0, 1]
            if any(_rebuilds(x, family_2x2_invertible, lam, branch, av)
                   for branch in ("plus", "minus")):
                return f"jordan2-invertible[a={av}]"
        elif n == 2:
            params = x[0, 0], x[1, 1], x[0, 1]
            if _rebuilds(x, family_2x2_nilpotent, *params):
                return "jordan2-nilpotent[a={},b={},alpha={}]".format(*params)
        elif n == 3:
            params = x[0, 0], x[0, 1], x[0, 2], x[1, 2], x[2, 2]
            if _rebuilds(x, family_3x3_nilpotent, *params):
                return "jordan3-nilpotent[a={},b={},c={},f={},i={}]".format(*params)
        elif _rebuilds(x, family_nilpotent_general, n,  # nilpotent, n >= 4
                       [x[0, j] for j in range(1, n - 1)],  # first-row parameters
                       [x[i, n - 1] for i in range(1, n - 1)], x[0, n - 1]):  # last column
            return "nilpotent-general"
        return None

    return tuple(tag_of(x) or "unmatched" for x in report.solutions)


# -- theorem sweep -----------------------------------------------------------------


def verify_theorems_on_census(report: CensusReport) -> list[core.PropertyVerdict]:
    """Run every applicable solution property over every census entry.

    Failures are findings, not errors; the list carries one verdict per
    (solution, applicable property). char(A) and the invertibility of A are
    derived once per census; each solution's invertibility, zero-ness,
    kernel and kernel label come from the report's batch.

    The mod-p batch is the one path to every verdict. The list is built a
    property at a time, a column over all solutions of where it applies
    and its verdicts, interleaved into per-solution order at the end. Where
    the batch decides a property holds, the entry is the column's one
    passing verdict for its note, so equal passing verdicts may be one
    (frozen) object. The power identities, charpoly annihilation, kernel
    invariance, the disjoint-spectra dichotomy, disjointness and a single
    block's classification are batched mod p, and only the solutions the
    batch flags meet the exact check (for the classification of a nonzero
    solution, a Jordan chain), which must fail there: one that holds is an
    internal error. Invertibility decides a nilpotent block's
    classification, and the residues pass the zero solution of any other
    block. With a block structure, A is its Jordan matrix, and the batch
    also takes char_X(lam) = det(lam I - X) at each eigenvalue lam of A and
    screens eigenvalue transfer and spectrum inclusion. The kernel labels
    decide the two-block kernel classification; a failing one's witness is
    the kernel boxed from the batch. With A invertible, for each block whose
    eigenvalue labels no other, a kernel equal to span(e_lo) excludes the
    eigenvalue from spec(X), which forces X to kill the generalized
    eigenspace.
    """
    import numpy as np

    a, jordan, sols = report.coefficient, report.jordan, report.solutions
    n = a.nrows
    a_invertible = not a.kernel_basis()
    masks, chars = _product_masks(a, char_poly(a), a_invertible, report.stack,
                                  report.kernels, jordan)
    invertible, zero = report.pivots.all(axis=1), ~report.stack.any(axis=(1, 2))
    blocks = jordan.blocks if jordan is not None else ()
    lams = [lam for lam, _ in blocks]
    columns, nowhere = [], np.zeros(len(sols), dtype=bool)

    def column(name, applies, holds, fail, note=""):  # masks, or one bool for all
        applies, holds = nowhere | applies, nowhere | holds
        verdicts = np.empty(len(sols), dtype=object)
        if (cleared := applies & holds).any():
            verdicts[cleared] = core.PropertyVerdict(name, True, note=note)
        for i in np.flatnonzero(applies & ~holds):
            verdicts[i] = fail(i)
        columns.append((applies, verdicts))

    def batched(name, applies, check, *args, note=""):  # the exact check where the batch flags
        def refuted(i):
            if (verdict := check(a, sols[i], *args)).holds:
                raise AssertionError(
                    f"{name}: exact check holds on a solution the mod-p batch flags")
            return verdict
        column(name, applies, masks[name], refuted, note)

    def decided(name, applies, holds, note, witness=sols.__getitem__):
        column(name, applies, holds,
               lambda i: core.PropertyVerdict(name, False, witness=witness(i), note=note), note)

    batched("power-identities", True, core.check_power_identities, 2 * n)
    batched("charpoly-annihilation", True, core.check_charpoly_annihilation)
    batched("disjoint-spectra-dichotomy", masks["disjoint"],
            core.check_disjoint_spectra_dichotomy, True)
    if a_invertible:
        batched("kernel-invariance", True, core.check_kernel_invariance)
        if jordan is not None:
            batched("spectrum-inclusion", True, core.check_spectrum_inclusion,
                    jordan.eigenvalues())
    if len(blocks) == 1 and (n > 1 or not lams[0].is_zero):  # A = 0 is 1x1: all solve
        name, lam = "single-block-classification", lams[0]
        if lam.is_zero:
            decided(name, True, ~invertible, "nilpotent block admits no invertible solution")
        else:
            decided(name, zero, True, "zero solution")
            batched(name, ~zero, lambda _, x: _single_block_classification(lam, x),
                    note="nonzero solution must be similar to the block")
    if len(blocks) == 2 and not lams[0].is_zero and not lams[1].is_zero:
        singular = ~zero & ~invertible  # a singular solution's kernel: a block span, or "other"
        labels = np.array(report.kernel_labels, dtype=object)
        for label in sorted(set(labels[singular])):  # a column per label: one applies per row
            decided("two-block-kernel-classification", singular & (labels == label),
                    label != "other", f"kernel is {label}", lambda i: _boxed_kernel(report, i))
    if jordan is not None:
        units, ranges = Matrix.identity(a.field, n).entries, jordan.block_ranges()
        batched("eigenvalue-transfer", True, core.check_eigenvalue_transfer,
                [(lam, units[lo * n:lo * n + n]) for lam, (lo, _) in zip(lams, ranges)])
        # each simple block, with whether each kernel is span(e_lo): e_lo its one vector
        unit, single = np.eye(n, dtype=np.int64), (~report.pivots).sum(axis=1) == 1
        for lam, (lo, hi) in zip(lams, ranges):
            if lams.count(lam) == 1 and a_invertible:
                absent = chars[lam] != 0  # char_X(lam) != 0
                decided("kernel-eigenvalue-exclusion",
                        single & (report.kernels[:, lo] == unit[lo]).all(axis=1), absent,
                        f"kernel equals the eigenspace of {lam}")
                decided("annihilates-generalized-eigenspace", absent,
                        ~report.stack[:, :, lo:hi].any(axis=(1, 2)),
                        f"eigenvalue {lam} absent from the solution spectrum")
    applies, verdicts = zip(*columns)
    return np.column_stack(verdicts)[np.column_stack(applies)].tolist()


def _boxed_kernel(report: CensusReport, i: int) -> list[tuple[Scalar, ...]]:
    """The kernel basis of solution ``i``, boxed from the report's batch as
    Matrix.kernel_basis gives it: the vectors of the free columns."""
    box = partial(Scalar, report.field)
    kernel = zip(report.kernels[i].tolist(), report.pivots[i].tolist())
    return [tuple(map(box, vec)) for vec, pivot in kernel if not pivot]


def _single_block_classification(lam, x: Matrix) -> core.PropertyVerdict:
    """The exact check of a nonzero solution ``x`` for a single Jordan block
    of nonzero eigenvalue ``lam``: ``x`` is similar to the block, which a
    Jordan chain certifies. The sweep runs it where the batch flags ``x``."""
    holds = jordan_chain_conjugator(x, lam) is not None
    return core.PropertyVerdict("single-block-classification", holds, witness=None if holds else x,
                                note="nonzero solution must be similar to the block")
