"""The census theorem sweep: its verdicts, and the work it does to get them.

The sweep derives every fact once: char(A) and the invertibility of A per
census, and per solution one exact residual, char(X) and the kernel, the
residual and kernel kept from the census itself. These tests pin its
verdict lists to ones recorded when every check recomputed its own facts,
compare it with that loop on random censuses, count the characteristic
polynomials, residuals and kernels it computes, and make sure a
non-solution smuggled into a census is still refused. Its mod-p batch of
product identities is checked against the exact checks, with and
without a batch, and a batch the exact check contradicts must raise.
"""

import json
import random
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
from yangbaxter.unipoly import char_poly

GOLDEN = Path(__file__).parent / "data" / "census_verdicts.json"


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


def test_sweep_derives_each_fact_once(monkeypatch):
    """On a 138-solution census the sweep computes char(A) once and char(X)
    at most once per solution, and checks each residual exactly once."""
    report = census("gf:2", "1^2,1^2")
    calls = {"char_poly": 0, "residual": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (core, oracle):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    verdicts = oracle.verify_theorems_on_census(report)
    assert verdicts and report.total == 138
    assert calls["char_poly"] <= report.total + 1
    assert calls["residual"] <= report.total


def test_sweep_refuses_a_smuggled_non_solution(gf2):
    """A report whose solution list holds a non-solution is refused: each
    solution's residual is verified once by the sweep, never skipped."""
    report = census("gf:2", "1^2")
    intruder = Matrix.identity(gf2, 2)
    assert not core.is_solution(report.coefficient, intruder)
    forged = oracle.CensusReport(gf2, report.coefficient, False,
                                 report.solutions[:2] + (intruder,) + report.solutions[2:],
                                 report.by_rank, report.by_kernel, jordan=report.jordan)
    with pytest.raises(PreconditionError, match="not a solution"):
        oracle.verify_theorems_on_census(forged)


def test_solution_record_is_reverified_for_another_coefficient(gf2):
    """A record verified for one coefficient is not taken on trust by a
    check called with another: the residual is checked again and fails."""
    a = jordan_matrix(gf2, parse_jordan(gf2, "1^2"))
    x = Matrix.from_rows(gf2, [[0, 0], [0, 0]])
    b = Matrix.from_rows(gf2, [[0, 1], [1, 1]])
    record = core.solution_facts(a, a, "test")
    assert core.solution_facts(record.coefficient, record, "test") is record
    assert core.check_charpoly_annihilation(record.coefficient, record).holds
    with pytest.raises(PreconditionError, match="charpoly-annihilation: candidate is not"):
        core.check_charpoly_annihilation(b, record)
    assert core.check_charpoly_annihilation(b, core.solution_facts(b, x, "test")).holds


def batch_cases(rng, p, n):
    """Random matrices over GF(p), then the zero matrix and the multiples cA,
    c != 0, which are solutions for c = 1 and, when A^3 = 0, for every c."""
    field = Field.gf(p)
    a = Matrix.from_rows(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    xs = [Matrix.from_rows(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
          for _ in range(12)]
    xs += [Matrix.zero(field, n), *(a.scale(c) for c in range(1, p))]
    return a, xs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_product_masks_match_exact_checks(p):
    """The mod-p batch agrees with core.check_power_identities on every
    matrix and with core.check_charpoly_annihilation on the solutions; on
    a non-solution, which that check refuses, with the same two exact
    products taken here."""
    rng = random.Random(p)
    seen = set()
    for n in range(1, 5):
        for _ in range(6):
            a, xs = batch_cases(rng, p, n)
            phi = char_poly(a)
            powers, annihilated = oracle._product_masks(core.Facts(a), xs)
            for x, power_ok, annihilated_ok in zip(xs, powers, annihilated):
                assert power_ok == core.check_power_identities(a, x, 2 * n).holds
                if core.is_solution(a, x):
                    exact = core.check_charpoly_annihilation(a, x).holds
                else:
                    at_x = phi.at_matrix(x)
                    exact = (x * a * at_x).is_zero and (at_x * a * x).is_zero
                assert annihilated_ok == exact
                seen.add((bool(power_ok), bool(annihilated_ok)))
    assert {(True, True), (False, False), (False, True)} <= seen


def test_sweep_without_the_batch_runs_every_exact_check(monkeypatch):
    """With the batch forced to clear no solution, every power identity and
    charpoly annihilation comes from the exact check, and the verdict
    lists equal the reference loop's."""
    report = census("gf:2", "1^2,1^2")

    def unscreened(coeff, xs):
        return [None] * len(xs), [None] * len(xs)

    monkeypatch.setattr(oracle, "_product_masks", unscreened)
    calls = {"power": 0}
    check = core.check_power_identities

    def counting(*args):
        calls["power"] += 1
        return check(*args)

    monkeypatch.setattr(core, "check_power_identities", counting)
    assert rows(oracle.verify_theorems_on_census(report)) == rows(reference_sweep(report))
    assert calls["power"] == 2 * report.total  # the sweep's and the reference's


def test_sweep_refuses_a_batch_the_exact_check_contradicts(monkeypatch):
    """A batch that flags every solution is contradicted by the exact
    check, which finds the identities hold; that is an internal error."""
    report = census("gf:2", "1^2")

    def flag_all(coeff, xs):
        return np.zeros(len(xs), dtype=bool), np.zeros(len(xs), dtype=bool)

    monkeypatch.setattr(oracle, "_product_masks", flag_all)
    with pytest.raises(AssertionError, match="power-identities: exact check holds"):
        oracle.verify_theorems_on_census(report)


def test_census_and_sweep_share_one_residual_and_kernel_per_solution(monkeypatch):
    """The census keeps each solution's verified record, so census and
    sweep together take one exact residual and one kernel per solution,
    plus the kernel of A; a report read back from JSON keeps no records
    and is verified again in full."""
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
    assert calls == {"residual": report.total, "kernel_basis": report.total + 1}
    bare = replace(report, facts=None)
    assert bare == report and repr(bare) == repr(report)
    again = census_from_json(census_to_json(report))
    assert again == report and again.facts is None
    assert rows(oracle.verify_theorems_on_census(again)) == rows(verdicts)
    assert calls["residual"] == 2 * report.total


def test_records_stand_only_for_their_own_solution(gf2):
    """A census record vouches for the one matrix it was made for, and for
    the coefficient it was verified against: a non-solution appended to a
    census that keeps its records is refused by classification and by the
    sweep alike, and so are the records under another coefficient."""
    report = census("gf:2", "1^1,1^1")
    intruder = Matrix.unit(gf2, 2, 2, 0, 1)
    assert report.total == 8 and not core.is_solution(report.coefficient, intruder)
    forged = replace(report, solutions=report.solutions + (intruder,))
    with pytest.raises(PreconditionError, match="not a solution"):
        oracle.classify_against_families(forged)
    with pytest.raises(PreconditionError, match="not a solution"):
        oracle.verify_theorems_on_census(forged)
    moved = replace(report, coefficient=Matrix.from_rows(gf2, [[1, 1], [0, 1]]))
    with pytest.raises(PreconditionError, match="not a solution"):
        oracle.verify_theorems_on_census(moved)


def test_reordered_solutions_keep_their_records(monkeypatch):
    """Reversing the solution list of a census that keeps its records gives
    the tags and verdict rows of the same list verified afresh, in the new
    order, and takes no exact residual: each record follows its matrix."""
    report = census("gf:2", "1^1,1^1")
    flipped = replace(report, solutions=tuple(reversed(report.solutions)))
    bare = replace(flipped, facts=None)
    calls = {"residual": 0}
    residual = core.residual

    def counting_residual(*args):
        calls["residual"] += 1
        return residual(*args)

    monkeypatch.setattr(core, "residual", counting_residual)
    tags = oracle.classify_against_families(flipped).family_tags
    verdicts = rows(oracle.verify_theorems_on_census(flipped))
    assert calls["residual"] == 0
    assert tags == oracle.classify_against_families(bare).family_tags
    assert verdicts == rows(oracle.verify_theorems_on_census(bare))
    assert tags == tuple(reversed(oracle.classify_against_families(report).family_tags))
    assert calls["residual"] == 2 * report.total
