"""The census theorem sweep: its verdicts, and the work it does to get them.

The sweep derives every fact once: char(A) and the invertibility of A per
census, and per solution the residual, kernel, invertibility and
spectral disjointness from the report's own batch. These tests pin its
verdict lists to ones recorded when every check recomputed its own facts,
compare it with that loop on random censuses, count the characteristic
polynomials, residuals, kernels, exact checks and verdict objects it
computes, and make sure a non-solution smuggled into a census is still
refused. Its mod-p batch, the sweep's one path, of product identities,
kernel invariance, the disjoint-spectra dichotomy, disjointness,
eigenvalue transfer, spectrum inclusion, single-block classification and
char(X) at the eigenvalues of A is checked against the exact checks; a
solution the batch flags takes the exact check's failing verdict, and a
batch the exact check contradicts must raise.
"""

import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from test_kernel_properties import quick

from yangbaxter import core, oracle
from yangbaxter.errors import BudgetError, PreconditionError
from yangbaxter.fields import Field
from yangbaxter.matio import census_from_json, census_to_json, parse_jordan
from yangbaxter.matrices import Matrix, jordan_chain_conjugator, jordan_matrix
from yangbaxter.unipoly import UniPoly, char_poly, unsplit_part

GOLDEN = Path(__file__).parent / "data" / "census_verdicts.json"
# coefficients whose char polys have an irreducible factor of degree 2 or 3
NON_SPLIT = [(2, [[0, 1], [1, 1]]), (3, [[0, 1], [2, 0]]),
             (2, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])]  # the companion of x^3 + x + 1


def census(spec, shorthand, commuting=False, budget=oracle.DEFAULT_BUDGET):
    field = Field.from_spec(spec)
    jordan = parse_jordan(field, shorthand)
    a = jordan_matrix(field, jordan)
    enum = oracle.enumerate_commuting_solutions if commuting else oracle.enumerate_solutions
    return enum(a, jordan=jordan, budget=budget)


def rows(verdicts):
    return [[v.name, v.holds, v.note, None if v.holds else str(v.witness)] for v in verdicts]


def reference_sweep(report):
    """The sweep as a loop over the public checks on plain matrices, each
    check verifying the solution and deriving its facts on its own."""
    a, jordan = report.coefficient, report.jordan
    n = a.nrows
    out = []
    a_invertible = a.is_invertible()
    blocks = jordan.blocks if jordan is not None else ()
    ranges = jordan.block_ranges() if jordan is not None else ()
    z, o = a.field.zero(), a.field.one()
    eigenpairs = [(lam, tuple(o if t == lo else z for t in range(n)))
                  for (lam, _), (lo, _) in zip(blocks, ranges)]
    lams = [lam for lam, _ in blocks]
    simple = [(lam, lo, hi) for lam, (lo, hi) in zip(lams, ranges) if lams.count(lam) == 1]
    two_block = len(blocks) == 2 and not lams[0].is_zero and not lams[1].is_zero
    for x in report.solutions:
        out.append(core.check_power_identities(a, x, 2 * n))
        out.append(core.check_charpoly_annihilation(a, x))
        if core.spectra_disjoint(a, x):
            out.append(core.check_disjoint_spectra_dichotomy(a, x, True))
        if a_invertible:
            out.append(core.check_kernel_invariance(a, x))
            if jordan is not None:
                out.append(core.check_spectrum_inclusion(a, x, jordan.eigenvalues()))
        if len(blocks) == 1 and (n > 1 or not lams[0].is_zero):
            lam = lams[0]
            if lam.is_zero:
                holds = not x.is_invertible()
                note = "nilpotent block admits no invertible solution"
            elif x.is_zero:
                holds, note = True, "zero solution"
            else:
                holds = jordan_chain_conjugator(x, lam) is not None
                note = "nonzero solution must be similar to the block"
            out.append(core.PropertyVerdict("single-block-classification", holds,
                                            witness=None if holds else x, note=note))
        if two_block and not x.is_zero and not x.is_invertible():
            split = (blocks[0][1], blocks[1][1])
            out.append(core.check_kernel_classification_two_blocks(a, x, split))
        if jordan is not None:
            out.append(core.check_eigenvalue_transfer(a, x, eigenpairs))
        if jordan is not None and a_invertible:
            chi_x, kernel = char_poly(x), x.kernel_basis()
            for lam, lo, hi in simple:
                absent = not chi_x(lam).is_zero
                if (len(kernel) == 1 and not kernel[0][lo].is_zero
                        and all(kernel[0][t].is_zero for t in range(n) if t != lo)):
                    out.append(core.PropertyVerdict(
                        "kernel-eigenvalue-exclusion", absent, witness=None if absent else x,
                        note=f"kernel equals the eigenspace of {lam}"))
                if absent:
                    killed = all(x[i, c].is_zero for c in range(lo, hi) for i in range(n))
                    out.append(core.PropertyVerdict(
                        "annihilates-generalized-eigenspace", killed,
                        witness=None if killed else x,
                        note=f"eigenvalue {lam} absent from the solution spectrum"))
    return out


@pytest.mark.parametrize("key", json.loads(GOLDEN.read_text(encoding="utf-8")))
def test_verdict_lists_match_golden(key):
    """Every verdict, in order, with its note and failure witness, matches
    the list recorded when each check recomputed its own facts."""
    spec, shorthand, *flags = key.split()
    report = census(spec, shorthand, commuting="--commuting" in flags)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[key]
    assert rows(oracle.verify_theorems_on_census(report)) == expected


@st.composite
def shorthands(draw, p):
    blocks, room = [], 3
    while room and (not blocks or draw(st.booleans())):
        size = draw(st.integers(1, room))
        blocks.append(f"{draw(st.integers(0, p - 1))}^{size}")
        room -= size
    return ",".join(blocks)


@quick
@given(data=st.data())
def test_sweep_matches_reference_on_random_censuses(data):
    """Random Jordan coefficients of total size at most 3, and random
    coefficients without block data, over GF(2), GF(3) and GF(5)."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    field = Field.gf(p)
    commuting = data.draw(st.booleans())
    if data.draw(st.booleans()):
        jordan = parse_jordan(field, data.draw(shorthands(p)))
        a = jordan_matrix(field, jordan)
    else:
        n = data.draw(st.integers(1, 3))
        a = Matrix.from_rows(field, data.draw(st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n)))
        jordan = None
    enum = oracle.enumerate_commuting_solutions if commuting else oracle.enumerate_solutions
    try:
        report = enum(a, jordan=jordan, budget=20_000)
    except BudgetError:  # only GF(5) in size 3 has more candidates
        assume(False)
    assert rows(oracle.verify_theorems_on_census(report)) == rows(reference_sweep(report))


def test_a_coefficient_off_its_block_structure_is_refused(monkeypatch, gf3):
    """diag(1, 2) is not the Jordan matrix of 1^2, whose single-block and
    spectral results would not hold for its solutions: both searches refuse
    the pair before they screen a candidate, and so does a report built by
    hand. Without a block structure the exact gcd decides disjointness."""
    a, jordan = Matrix.from_rows(gf3, [[1, 0], [0, 2]]), parse_jordan(gf3, "1^2")
    report = oracle.enumerate_solutions(a)
    assert report.total == 8
    monkeypatch.setattr(oracle, "_screen_batch", None)  # a screen would raise TypeError
    for enum in (oracle.enumerate_solutions, oracle.enumerate_commuting_solutions):
        with pytest.raises(PreconditionError, match="not the Jordan matrix"):
            enum(a, jordan=jordan)
    with pytest.raises(PreconditionError, match="not the Jordan matrix"):
        oracle.CensusReport(a, False, report.solutions, jordan)
    assert rows(oracle.verify_theorems_on_census(report)) == rows(reference_sweep(report))


def test_sweep_derives_each_fact_once(monkeypatch):
    """On Jordan censuses over GF(p), and on censuses of coefficients whose
    char poly does not split, the sweep computes char(A) and no char(X), no
    gcd and no unsplit part, and runs no exact check and no Jordan chain,
    since the batch decides every verdict; no residual is checked twice."""
    checks = [name for name in vars(core) if name.startswith("check_")]
    checks.append("jordan_chain_conjugator")
    calls = dict.fromkeys(["char_poly", "residual", "unsplit_part", "gcd", *checks], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    reports = {key: census(*key.split()[:2], commuting="--commuting" in key)
               for key in ["gf:2 1^2,1^2", "gf:2 0^4", "gf:3 1^1,2^2", "gf:3 0^1,1^2",
                           "gf:3 1^2,1^2 --commuting", "gf:5 1^3", "gf:3 2^1"]}
    for p, entries in NON_SPLIT:
        reports[f"gf:{p} --A {entries}"] = oracle.enumerate_solutions(
            Matrix.from_rows(Field.gf(p), entries))
    for key, report in reports.items():
        with monkeypatch.context() as patch:
            for module in (core, oracle, UniPoly):
                for name in calls:
                    if hasattr(module, name):
                        patch.setattr(module, name, counting(name, getattr(module, name)))
            calls.update(dict.fromkeys(calls, 0))
            verdicts = oracle.verify_theorems_on_census(report)
        assert verdicts and report.total > 1
        assert calls["char_poly"] <= 1, key
        assert calls["unsplit_part"] == calls["gcd"] == 0, key
        assert calls["residual"] <= report.total, key
        assert not any(calls[name] for name in checks), (key, calls)


@pytest.mark.parametrize("key", ["gf:2 1^2,1^2", "gf:2 0^4", "gf:3 1^2,1^2 --commuting"])
def test_sweep_builds_each_passing_verdict_once(monkeypatch, key):
    """The sweep builds its verdicts a property at a time: every entry the
    batch clears shares the one passing verdict of its (name, note), so it
    builds no more verdicts than it returns distinct passing (name, note)
    pairs and failing verdicts, counting those the exact checks build."""
    report = census(*key.split()[:2], commuting="--commuting" in key)
    built, verdict = [], core.PropertyVerdict

    def counting(*args, **kwargs):
        built.append(verdict(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(core, "PropertyVerdict", counting)
    verdicts = oracle.verify_theorems_on_census(report)
    passing = {(v.name, v.note) for v in verdicts if v.holds}
    failing = [v for v in verdicts if not v.holds]
    assert len(built) <= len(passing) + len(failing), key
    assert len({id(v) for v in verdicts if v.holds}) == len(passing), key
    assert rows(verdicts) == json.loads(GOLDEN.read_text(encoding="utf-8"))[key]


def test_solution_heavy_sweep_matches_reference():
    """A = 0 in size 3 over GF(2): all 512 candidates solve, and every one
    of the sweep's 1,704 verdicts equals the reference loop's."""
    report = census("gf:2", "0^1,0^1,0^1")
    verdicts = oracle.verify_theorems_on_census(report)
    assert (report.total, len(verdicts)) == (512, 1704)
    assert rows(verdicts) == rows(reference_sweep(report))


def test_sweep_of_a_report_without_solutions_is_empty(gf2):
    """A report built by hand with no solution, with and without a block
    structure, gives no verdict, as a loop over its solutions would."""
    jordan = parse_jordan(gf2, "1^2,1^2")
    for a, spec in ((Matrix.zero(gf2, 2), None), (jordan_matrix(gf2, jordan), jordan)):
        assert oracle.verify_theorems_on_census(oracle.CensusReport(a, False, (), spec)) == []


def test_sweep_refuses_a_smuggled_non_solution(gf2):
    """A report whose solution list holds a non-solution is refused: each
    solution's residual is verified once, when the report is built, so the
    sweep never meets one."""
    report = census("gf:2", "1^2")
    intruder = Matrix.identity(gf2, 2)
    assert not core.is_solution(report.coefficient, intruder)
    with pytest.raises(PreconditionError, match="not a solution"):
        oracle.CensusReport(report.coefficient, False,
                            report.solutions[:2] + (intruder,) + report.solutions[2:],
                            report.jordan)


def test_solution_record_is_reverified_for_another_coefficient(gf2):
    """A solution of one coefficient is not taken on trust by a check called
    with another: each check that takes a solution verifies its residual
    and refuses it under its own name."""
    a = jordan_matrix(gf2, parse_jordan(gf2, "1^2"))
    b = Matrix.from_rows(gf2, [[0, 1], [1, 1]])  # invertible, like A
    assert core.is_solution(a, a) and not core.is_solution(b, a)
    assert core.check_charpoly_annihilation(a, a).holds
    units = [(gf2.one(), (gf2.one(), gf2.zero()))]
    for who, check in [
            ("spectrum-inclusion", lambda m, x: core.check_spectrum_inclusion(m, x, [gf2.one()])),
            ("kernel-invariance", core.check_kernel_invariance),
            ("charpoly-annihilation", core.check_charpoly_annihilation),
            ("disjoint-spectra-dichotomy",
             lambda m, x: core.check_disjoint_spectra_dichotomy(m, x, True)),
            ("two-block-kernel",
             lambda m, x: core.check_kernel_classification_two_blocks(m, x, (1, 1))),
            ("eigenvalue-transfer", lambda m, x: core.check_eigenvalue_transfer(m, x, units))]:
        with pytest.raises(PreconditionError, match=f"^{who}: candidate is not a solution$"):
            check(b, a)
    assert core.check_charpoly_annihilation(b, Matrix.zero(gf2, 2)).holds


def batch_cases(rng, p, n, a=None):
    """Random matrices over GF(p), then the zero matrix and the multiples cA,
    c != 0, which are solutions for c = 1 and, when A^3 = 0, for every c.
    A is random unless given."""
    field = Field.gf(p)
    if a is None:
        a = Matrix.from_rows(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    xs = [Matrix.from_rows(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
          for _ in range(12)]
    xs += [Matrix.zero(field, n), *(a.scale(c) for c in range(1, p))]
    return a, xs


def random_jordan(rng, field, n):
    """A block structure of total size n with random eigenvalues."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    return parse_jordan(field, ",".join(f"{rng.randrange(field.p)}^{k}" for k in sizes))


def mask_coefficients(rng, field):
    """(n, block structure, coefficient) of each case of the mask test: per
    size 1 to 4 six random coefficients (None), every other one a Jordan
    matrix, then the pinned coefficients over this field from NON_SPLIT."""
    for n in range(1, 5):
        for k in range(6):
            jordan = random_jordan(rng, field, n) if k % 2 else None
            yield n, jordan, jordan and jordan_matrix(field, jordan)
    for p, rows in NON_SPLIT:
        if p == field.p:
            yield len(rows), None, Matrix.from_rows(field, rows)


def exact_or_direct(a, x, check, direct):
    """The exact check's verdict on a solution; on a non-solution, which
    every such check refuses, the same condition computed directly."""
    return check(a, x).holds if core.is_solution(a, x) else direct(x)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_product_masks_match_exact_checks(p):
    """The mod-p batch agrees with core.check_power_identities and
    core.spectra_disjoint on every matrix, and on the solutions with
    core.check_charpoly_annihilation, check_disjoint_spectra_dichotomy,
    check_kernel_invariance for invertible A and, for a Jordan matrix A,
    check_eigenvalue_transfer and check_spectrum_inclusion; on a
    non-solution, which those checks refuse, with the same condition taken
    here. For a single block of nonzero eigenvalue lam, X = 0 or a Jordan
    chain of X at lam exists, on every matrix. char_X(lam) equals char(X)
    at each eigenvalue lam of A. Half the random coefficients are Jordan
    matrices, with their census solutions added where the census is small,
    as are those of the pinned coefficients whose char poly does not split."""
    rng = random.Random(p)
    field = Field.gf(p)
    seen = {}
    for n, jordan, given in mask_coefficients(rng, field):
        a, xs = batch_cases(rng, p, n, given)
        if given is not None and p ** (n * n) <= 3000:
            xs += oracle.enumerate_solutions(a, jordan=jordan).solutions
        phi, invertible = char_poly(a), a.is_invertible()
        stack = np.array([x.raw for x in xs], dtype=np.int64).reshape(-1, n, n)
        _, kernels = oracle._kernel_basis(stack.copy(), p)
        masks, chars = oracle._product_masks(a, phi, invertible, stack, kernels, jordan)
        assert all(m.dtype == bool and m.shape == (len(xs),) for m in masks.values())
        assert all(len(values) == len(xs) for values in chars.values())
        expected_names = {"power-identities", "charpoly-annihilation", "disjoint",
                          "disjoint-spectra-dichotomy"}
        expected_names |= {"kernel-invariance"} if invertible else set()
        expected_names |= {"eigenvalue-transfer", "spectrum-inclusion"} if jordan else set()
        single = jordan and len(jordan.blocks) == 1 and not jordan.blocks[0][0].is_zero
        expected_names |= {"single-block-classification"} if single else set()
        assert set(masks) == expected_names
        assert set(chars) == set(jordan.eigenvalues() if jordan else ())
        for i, x in enumerate(xs):
            at_x = phi.at_matrix(x)
            exact = {
                "power-identities": core.check_power_identities(a, x, 2 * n).holds,
                "charpoly-annihilation": exact_or_direct(
                    a, x, core.check_charpoly_annihilation,
                    lambda x: (x * a * at_x).is_zero and (at_x * a * x).is_zero),
                "disjoint": core.spectra_disjoint(a, x),
                "disjoint-spectra-dichotomy": exact_or_direct(
                    a, x, lambda a, x: core.check_disjoint_spectra_dichotomy(a, x, True),
                    lambda x: (a.is_zero and x.is_invertible()
                               or x.is_zero and invertible)),
            }
            if invertible:
                exact["kernel-invariance"] = exact_or_direct(
                    a, x, core.check_kernel_invariance,
                    lambda x: all(c.is_zero for v in x.kernel_basis()
                                  for c in x.apply(a.apply(v))))
            if jordan:
                chi_x, eigenvalues = char_poly(x), jordan.eigenvalues()
                assert [chars[lam][i] for lam in eigenvalues] == [chi_x(lam).v
                                                                 for lam in eigenvalues]
                eigenpairs = [(lam, Matrix.unit(field, n, 1, lo, 0).raw)
                              for (lam, _), (lo, _) in zip(jordan.blocks,
                                                           jordan.block_ranges())]
                exact["eigenvalue-transfer"] = exact_or_direct(
                    a, x, lambda a, x: core.check_eigenvalue_transfer(a, x, eigenpairs),
                    lambda x: all(all(c.is_zero for c in a.apply(x.apply(v)))
                                  or chi_x(lam).is_zero for lam, v in eigenpairs))
                splits = unsplit_part(chi_x, [0, *eigenvalues]).degree == 0
                exact["spectrum-inclusion"] = exact_or_direct(
                    a, x, lambda a, x: core.check_spectrum_inclusion(a, x, eigenvalues),
                    lambda x: splits) if invertible else splits
            if single:
                exact["single-block-classification"] = (
                    x.is_zero or jordan_chain_conjugator(x, jordan.blocks[0][0]) is not None)
            for name, holds in exact.items():
                assert masks[name][i] == holds, (name, x)
                seen.setdefault(name, set()).add(holds)
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen
    assert len(seen) == 8


@pytest.mark.parametrize("p, n, dtype", [
    (5, 3, np.int8), (7, 4, np.int16), (11, 2, np.int16), (13, 2, np.int16),
    (17, 2, np.int16), (13, 3, np.int16), (1_000_000_007, 2, np.int64),
    (1_000_000_007, 3, np.int64),
])
def test_narrow_batch_matches_int64_reference(monkeypatch, p, n, dtype):
    """On stacks whose entries are p - 1, where every sum is widest, and
    random ones, the report's batch (_records), the elimination and the
    sweep's masks run in the least dtype holding (n + 1) (p - 1)^2, every
    elimination too, through the residue table for 8 and 16 bits, and equal
    the same code run in int64 with %; at p = 1,000,000,007 that dtype is
    int64. Over GF(7) at n = 4 and GF(11) at n = 2 the products alone pass
    int8. The determinants are Matrix's. Masks and char values are compared
    as lists."""
    field = Field.gf(p)
    full = Matrix.from_rows(field, [[p - 1] * n] * n)  # A = X solves AXA = XAX, as X = 0 does
    jordan = parse_jordan(field, f"{p - 1}^{n}")
    block = jordan_matrix(field, jordan)
    mats = [full, block, block.transpose(), Matrix.identity(field, n).scale(p - 1),
            Matrix.zero(field, n), Matrix.from_rows(field, [[p - 1] * (n - 1) + [0]] * n)]
    rng = random.Random(p * n)
    mats += [Matrix.from_rows(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
             for _ in range(12)]
    xs = np.array([m.raw for m in mats], dtype=np.int64).reshape(-1, n, n)
    seen, eliminate = set(), oracle._gauss_jordan
    monkeypatch.setattr(oracle, "_gauss_jordan", lambda m, p: seen.add(m.dtype) or eliminate(m, p))

    def batch():
        narrow, out = oracle._narrow_dtype(p, n + 1), []
        seen.clear()
        for a, spec in ((full, None), (block, jordan)):
            records = oracle._records(a, [a, Matrix.zero(field, n)], True)
            kernels = oracle._kernel_basis(xs.astype(narrow), p)[1]
            seen.add(records[0].dtype)
            masks, chars = oracle._product_masks(a, char_poly(a), a.is_invertible(), xs,
                                                 kernels, spec)
            out += [[r.tolist() for r in records], {k: v.tolist() for k, v in masks.items()},
                    {k: v.tolist() for k, v in chars.items()}]
        return set(seen), [*out, [r.tolist() for r in oracle._gauss_jordan(xs.astype(narrow), p)]]

    dtypes, got = batch()
    assert dtypes == {np.dtype(dtype)}
    assert got[-1][2] == [m.det().v for m in mats]
    monkeypatch.setattr(oracle, "_narrow_dtype", lambda p, terms, total=0: np.dtype(np.int64))
    assert batch() == ({np.dtype(np.int64)}, got)


@quick
@given(data=st.data())
def test_char_values_match_char_poly(data):
    """det(lam I - X) mod p from the batched elimination equals char(X) at
    lam. lam I - X is a zero-heavy matrix with its rows permuted, so
    pivots are zero or sit below the diagonal and rows must be swapped."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 5))
    lam = data.draw(st.integers(0, p - 1))
    field, entry = Field.gf(p), st.one_of(st.just(0), st.integers(0, p - 1))
    xs = []
    for _ in range(data.draw(st.integers(1, 6))):
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        rows = [rows[i] for i in data.draw(st.permutations(range(n)))]
        xs.append(Matrix.identity(field, n).scale(lam) - Matrix.from_rows(field, rows))
    stack = np.array([x.raw for x in xs], dtype=np.int64).reshape(-1, n, n)
    values = oracle._char_values(stack, lam, p)
    assert values.tolist() == [char_poly(x)(lam).v for x in xs]


@quick
@given(data=st.data())
def test_batched_elimination_matches_matrix_reductions(data):
    """The batched Gauss-Jordan elimination that verifies census solutions
    gives every matrix of a stack the reduced echelon form, rank and
    determinant Matrix computes, and char(X) at lam through _char_values.
    A report of the stack, whose A = 0 makes every matrix a solution, keeps
    its batch as arrays: its pivots give each rank, the kernel the sweep
    boxes from them is Matrix.kernel_basis, and the vectorised labels are
    core.kernel_block_label's against random block ranges, or dimensions
    without them. Stacks hold 0 to 4 matrices, zero, identity,
    rank-deficient (the last row a combination of the others) or drawn."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 4))
    field, entry = Field.gf(p), st.one_of(st.just(0), st.integers(0, p - 1))
    mats = []
    for kind in data.draw(st.lists(st.sampled_from(["zero", "identity", "deficient", "drawn"]),
                                   max_size=4)):
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        if kind == "deficient":
            coefs = data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
            rows[-1] = [sum(c * r[j] for c, r in zip(coefs, rows)) % p for j in range(n)]
        mats.append(Matrix.zero(field, n) if kind == "zero" else Matrix.identity(field, n)
                    if kind == "identity" else Matrix.from_rows(field, rows))
    stack = np.array([m.raw for m in mats], dtype=np.int64).reshape(-1, n, n)
    rref, pivots, det = oracle._gauss_jordan(stack.copy(), p)
    assert [tuple(r.ravel().tolist()) for r in rref] == [m.rref()[0].raw for m in mats]
    assert pivots.sum(axis=1).tolist() == [m.rank() for m in mats]
    assert det.tolist() == [m.det().v for m in mats]
    lam = data.draw(st.integers(0, p - 1))
    assert oracle._char_values(stack, lam, p).tolist() == [char_poly(m)(lam).v for m in mats]
    report = oracle.CensusReport(Matrix.zero(field, n), False, tuple(mats))
    assert report.pivots.sum(axis=1).tolist() == [m.rank() for m in mats]
    assert [oracle._boxed_kernel(report, i) for i in range(len(mats))] == [m.kernel_basis()
                                                                          for m in mats]
    assert report.by_kernel == Counter(f"dim={len(m.kernel_basis())}" for m in mats)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    ranges = list(zip([0, *cuts], [*cuts, n]))
    assert (oracle._kernel_labels(report, ranges)
            == [core.kernel_block_label(m.kernel_basis(), ranges) for m in mats])


def test_sweep_boxes_only_the_kernels_it_returns_as_witnesses(monkeypatch):
    """On gf:2 1^2,1^2 the sweep boxes from the batch the kernel of each of
    the 48 solutions whose two-block kernel classification fails, the
    witness of that verdict, and no other; no kernel is eliminated again."""
    report = census("gf:2", "1^2,1^2")
    boxed, box = [], oracle._boxed_kernel
    monkeypatch.setattr(oracle, "_boxed_kernel", lambda rep, i: boxed.append(i) or box(rep, i))
    eliminated, kernel_basis = [], Matrix.kernel_basis
    monkeypatch.setattr(Matrix, "kernel_basis", lambda m: eliminated.append(m) or kernel_basis(m))
    failed = [v for v in oracle.verify_theorems_on_census(report)
              if v.name == "two-block-kernel-classification" and not v.holds]
    assert len(failed) == len(boxed) == 48
    assert eliminated == [report.coefficient]  # the kernel of A, whether it is invertible
    assert [v.witness for v in failed] == [kernel_basis(report.solutions[i]) for i in boxed]


@pytest.mark.parametrize("p, lam, rows", [
    (2, 0, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),  # a cycle: a swap at every column
    (3, 0, [[2, 2, 0], [2, 2, 0], [0, 0, 2]]),  # column 1 has no pivot left: char 0
    (3, 1, [[1, 2, 0], [0, 1, 0], [0, 0, 2]]),  # column 0 is zero
    (3, 0, [[2, 1, 0], [1, 2, 2], [0, 2, 0]]),  # row 1 is 3 at column 1 before reduction
    (5, 2, [[2, 0, 0, 1], [0, 2, 1, 0], [0, 1, 2, 0], [1, 0, 0, 2]]),  # lam I - X antidiagonal
])
def test_char_values_on_swaps_and_zero_pivots(p, lam, rows):
    """Pinned stacks that need a row swap, that run out of pivots, and
    whose elimination must reduce mod p before it picks the next pivot."""
    field = Field.gf(p)
    x = Matrix.from_rows(field, rows)
    n = len(rows)
    values = oracle._char_values(np.array(x.raw, dtype=np.int64).reshape(1, n, n), lam, p)
    assert values.tolist() == [char_poly(x)(lam).v]


EXACT_CHECKS = {"power-identities": (core, "check_power_identities"),
                "charpoly-annihilation": (core, "check_charpoly_annihilation"),
                "disjoint-spectra-dichotomy": (core, "check_disjoint_spectra_dichotomy"),
                "kernel-invariance": (core, "check_kernel_invariance"),
                "spectrum-inclusion": (core, "check_spectrum_inclusion"),
                "eigenvalue-transfer": (core, "check_eigenvalue_transfer"),
                "single-block-classification": (oracle, "_single_block_classification")}


@pytest.mark.parametrize("name", EXACT_CHECKS)
def test_sweep_takes_the_exact_refutation_where_the_batch_flags(monkeypatch, name):
    """A batch that flags one applicable nonzero solution under a name sends
    it, and it alone, to that name's exact check, stubbed to refute with the
    solution as its witness: the sweep's rows are the reference loop's with
    exactly that entry replaced by the stub's verdict. No real census has
    such a refutation. On gf:2 1^2, A is invertible and only X = 0 has a
    spectrum disjoint from A's, so the dichotomy flags X = 1 of gf:2 0^1."""
    report = census("gf:2", "0^1" if name == "disjoint-spectra-dichotomy" else "1^2")
    expected = [rows(reference_sweep(replace(report, solutions=(x,)))) for x in report.solutions]
    i, k = next((i, k) for i, found in enumerate(expected) for k, row in enumerate(found)
                if row[0] == name and not report.solutions[i].is_zero)
    x, batch = report.solutions[i], oracle._product_masks
    module, attr = EXACT_CHECKS[name]
    check, stubbed = getattr(module, attr), []

    def flag_one(*args):
        masks, chars = batch(*args)
        assert masks[name][i]
        masks[name][i] = False
        return masks, chars

    def refute(*args):
        verdict = check(*args)
        assert args[1] is x and verdict.holds
        stubbed.append(replace(verdict, holds=False, witness=x))
        return stubbed[-1]

    monkeypatch.setattr(oracle, "_product_masks", flag_one)
    monkeypatch.setattr(module, attr, refute)
    got = rows(oracle.verify_theorems_on_census(report))
    assert len(stubbed) == 1
    expected[i][k] = rows(stubbed)[0]
    assert got == [row for found in expected for row in found]


def test_sweep_refuses_a_batch_the_exact_check_contradicts(monkeypatch):
    """A batch that flags every solution under one verdict name is
    contradicted by the exact check, which finds the property holds; that
    is an internal error, for each name the batch clears."""
    report = census("gf:2", "1^2")
    batch = oracle._product_masks
    for name in ["power-identities", "charpoly-annihilation", "disjoint-spectra-dichotomy",
                 "kernel-invariance", "spectrum-inclusion", "eigenvalue-transfer",
                 "single-block-classification"]:

        def flag_all(*args):
            masks, chars = batch(*args)
            return {**masks, name: np.zeros(len(args[3]), dtype=bool)}, chars

        monkeypatch.setattr(oracle, "_product_masks", flag_all)
        with pytest.raises(AssertionError, match=f"{name}: exact check holds"):
            oracle.verify_theorems_on_census(report)


def count_batch_rows(monkeypatch):
    """The number of solutions in each exact batch of ``oracle._records``,
    in call order: each is verified there, and its kernel taken, once."""
    batches = []
    kernel_basis = oracle._kernel_basis

    def counting(xs, p):
        batches.append(len(xs))
        return kernel_basis(xs, p)

    monkeypatch.setattr(oracle, "_kernel_basis", counting)
    return batches


def test_census_and_sweep_share_one_residual_and_kernel_per_solution(monkeypatch):
    """A report verifies its solutions once, when it is built, in one exact
    batch that checks each residual and takes each kernel; the sweep reads
    those records, so census and sweep take no boxed residual and no boxed
    kernel but the kernel of A. A report read back from JSON is built, and
    so verified, again in one batch, which its sweep reads too."""
    batches = count_batch_rows(monkeypatch)
    calls = {"residual": 0, "kernel_basis": 0}
    residual, kernel_basis = core.residual, Matrix.kernel_basis

    def counting_residual(*args):
        calls["residual"] += 1
        return residual(*args)

    def counting_kernel(self):
        calls["kernel_basis"] += 1
        return kernel_basis(self)

    monkeypatch.setattr(core, "residual", counting_residual)
    monkeypatch.setattr(Matrix, "kernel_basis", counting_kernel)
    report = census("gf:3", "1^2,2^1")
    verdicts = oracle.verify_theorems_on_census(report)
    assert report.total == 30 and verdicts
    assert batches == [report.total]  # the census's batch, and none in the sweep
    assert calls == {"residual": 0, "kernel_basis": 1}
    again = census_from_json(census_to_json(report))
    assert again == report and len(again.stack) == report.total
    assert batches == [report.total, report.total]  # the load's batch
    assert rows(oracle.verify_theorems_on_census(again)) == rows(verdicts)
    assert batches == [report.total, report.total]
    assert calls == {"residual": 0, "kernel_basis": 2}


def test_records_stand_only_for_their_own_solution(gf2):
    """A report's records are made for its own solutions and coefficient,
    so a report is never built with a non-solution appended to a census,
    nor with the census's solutions under another coefficient."""
    report = census("gf:2", "1^1,1^1")
    intruder = Matrix.unit(gf2, 2, 2, 0, 1)
    assert report.total == 8 and not core.is_solution(report.coefficient, intruder)
    with pytest.raises(PreconditionError, match="not a solution"):
        replace(report, solutions=report.solutions + (intruder,))
    with pytest.raises(PreconditionError, match="not a solution"):
        replace(report, coefficient=Matrix.from_rows(gf2, [[1, 1], [0, 1]]),
                jordan=parse_jordan(gf2, "1^2"))


def test_records_refuse_a_matrix_of_another_field_or_shape(gf2):
    """A zero matrix over another field, or of another shape whose entries
    would fill the same int64 stack, is not a solution of the census: the
    report's batch refuses it, as it does a smuggled non-solution."""
    report = census("gf:2", "1^1,1^1")
    for intruder in (Matrix.zero(Field.gf(3), 2), Matrix.zero(gf2, 4, 1), Matrix.zero(gf2, 1)):
        with pytest.raises(PreconditionError, match="not a solution"):
            replace(report, solutions=report.solutions + (intruder,))


def test_reordered_solutions_keep_their_records(monkeypatch):
    """Reversing the solution list of a census gives a report whose records
    and tags are the census's, reversed, and whose verdict rows are the
    reference loop's in the new order: each record follows its matrix, and
    the new report verifies each solution once."""
    report = census("gf:2", "1^1,1^1")
    batches = count_batch_rows(monkeypatch)
    flipped = replace(report, solutions=tuple(reversed(report.solutions)))
    assert batches == [report.total]
    assert [tuple(m.ravel().tolist()) for m in flipped.stack] == [x.raw for x in flipped.solutions]
    assert ([oracle._boxed_kernel(flipped, i) for i in range(flipped.total)]
            == [oracle._boxed_kernel(report, i) for i in reversed(range(report.total))])
    assert flipped.family_tags == tuple(reversed(report.family_tags))
    assert rows(oracle.verify_theorems_on_census(flipped)) == rows(reference_sweep(flipped))
    assert batches == [report.total]
