import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from references import span_contains
from test_kernel_properties import quick

from yangbaxter import oracle
from yangbaxter.core import is_solution, residual
from yangbaxter.errors import BudgetError, ParseError, PreconditionError
from yangbaxter.fields import Field
from yangbaxter.matio import census_from_json, census_to_json, matrix_to_json, parse_jordan
from yangbaxter.matrices import (Matrix, centralizer_basis, jordan_block, jordan_matrix,
                                 nilpotent_block)
from yangbaxter.sylvester import offdiag_solution_space
from yangbaxter.unipoly import char_poly


def census(field, shorthand, commuting=False, budget=oracle.DEFAULT_BUDGET):
    spec = parse_jordan(field, shorthand)
    a = jordan_matrix(field, spec)
    if commuting:
        return oracle.enumerate_commuting_solutions(a, jordan=spec, budget=budget)
    return oracle.enumerate_solutions(a, jordan=spec, budget=budget)


def naive_solutions(a):
    """Independent oracle: plain nested-loop enumeration with exact arithmetic."""
    field, n = a.field, a.nrows
    out = []
    for entries in itertools.product(range(field.p), repeat=n * n):
        x = Matrix.from_rows(field, [list(entries[i * n:(i + 1) * n])
                                     for i in range(n)])
        if is_solution(a, x):
            out.append(x)
    return out


def test_counts_match_naive_enumeration(gf2, gf3):
    cases = []
    for field, shorthand in ((gf2, "0^2"), (gf2, "1^2"), (gf3, "0^2"), (gf2, "0^3")):
        spec = parse_jordan(field, shorthand)
        cases.append((jordan_matrix(field, spec), spec))
    # dense and neither triangular nor symmetric, so A and its transpose differ
    cases.append((Matrix.from_rows(gf3, [[1, 2], [1, 1]]), None))
    for a, spec in cases:
        fast = oracle.enumerate_solutions(a, jordan=spec)
        assert list(fast.solutions) == naive_solutions(a)


def test_expected_counts(gf2, gf3):
    assert census(gf2, "0^2").total == 6
    assert census(gf3, "0^2").total == 15
    assert census(gf2, "1^2").total == 4
    assert census(gf2, "0^4", commuting=True).total == 8
    assert census(gf3, "0^4", commuting=True).total == 18


def test_census_is_deterministic(gf3):
    first = census(gf3, "0^2")
    second = census(gf3, "0^2")
    assert first.solutions == second.solutions
    assert first.by_rank == second.by_rank and first.by_kernel == second.by_kernel


def test_zero_and_coefficient_always_present(gf2, gf3):
    for field, shorthand in ((gf2, "0^3"), (gf3, "1^2"), (gf2, "1^2,1^2")):
        rep = census(field, shorthand)
        a = rep.coefficient
        assert Matrix.zero(field, a.nrows) in rep.solutions
        assert a in rep.solutions


def test_solutions_reverify_exactly(gf3):
    rep = census(gf3, "0^3")
    for x in rep.solutions:
        assert residual(rep.coefficient, x).is_solution


def test_commuting_census_members_commute(gf2):
    rep = census(gf2, "0^4", commuting=True)
    a = rep.coefficient
    for x in rep.solutions:
        assert a * x == x * a
    full = census(gf2, "0^4")
    commuting_subset = [x for x in full.solutions if a * x == x * a]
    assert list(rep.solutions) == commuting_subset


def test_conjugation_closure(gf3):
    rep = census(gf3, "1^2")
    a = rep.coefficient
    members = set(rep.solutions)
    centralizer_invertibles = []
    for entries in itertools.product(range(3), repeat=4):
        g = Matrix.from_rows(gf3, [list(entries[:2]), list(entries[2:])])
        if g.is_invertible() and g * a == a * g:
            centralizer_invertibles.append(g)
    assert centralizer_invertibles
    for x in members:
        for g in centralizer_invertibles:
            assert g * x * g.inverse() in members


def test_budget_guard(gf3):
    with pytest.raises(BudgetError):
        census(gf3, "0^4", budget=1000)
    with pytest.raises(BudgetError):
        census(gf3, "0^4", commuting=True, budget=10)


@pytest.mark.parametrize("commuting", [False, True])
def test_int64_guard_fires_within_budget(commuting):
    """(p-1)^2 exceeds int64 for p = 2^32 + 15; the budget alone would let
    the p candidates of a 1x1 coefficient through."""
    field = Field.gf(4294967311)
    with pytest.raises(BudgetError, match="int64"):
        census(field, "1^1", commuting=commuting, budget=10 ** 10)


def test_int64_max_literal_is_numpys():
    """The guard's bound is written out so that importing the module does not
    import numpy; it must still be the int64 maximum."""
    assert oracle._INT64_MAX == np.iinfo(np.int64).max


def reference_screen(a, commuting):
    """The screen as it was before blocks: every candidate's digits split
    off its index as idx // weights % p, then one batched AX = a @ xs % p
    and both sides of AXA = XAX as batched products, all candidates at once."""
    field, n, p = a.field, a.nrows, a.field.p
    a_int = np.array(a.raw, dtype=np.int64).reshape(n, n)
    basis = np.array([b.raw for b in centralizer_basis(a)], dtype=np.int64)
    dim = len(basis) if commuting else n * n
    idx = np.arange(p ** dim, dtype=np.int64)
    digits = idx[:, None] // p ** np.arange(dim - 1, -1, -1, dtype=np.int64) % p
    xs = (digits @ basis % p if commuting else digits).reshape(-1, n, n)
    ax = a_int @ xs % p
    mask = (ax @ a_int % p == xs @ ax % p).all(axis=(1, 2))
    return sorted((Matrix.from_rows(field, x.tolist()) for x in xs[mask]),
                  key=lambda m: m.raw)


def assert_screen_matches_reference(a, commuting, chunk):
    enum = oracle.enumerate_commuting_solutions if commuting else oracle.enumerate_solutions
    with mock.patch.object(oracle, "_CHUNK", chunk):
        found = enum(a).solutions
    assert list(found) == reference_screen(a, commuting)


@pytest.mark.parametrize("p, rows, commuting, chunk", [
    # all p^dim = 19,683 candidates fit one piece of 2^15: a single stage
    (3, [[1, 2, 0], [2, 0, 1], [1, 1, 2]], False, 1 << 15),
    # pieces of 16 over dim = 9: a first stage of 2^4 = 16 partial
    # matrices, then three stages of several pieces each
    (2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], False, 16),
    # p = 7 above pieces of 5: a stage's combinations are split into slices
    (7, [[3, 5], [6, 2]], False, 5),
    (7, [[3, 5], [6, 2]], True, 5),
    # centralizer of dim 3 in pieces of 10: a first stage of p^2 = 9
    (3, [[2, 1, 0], [1, 0, 2], [0, 1, 1]], True, 10),
])
def test_block_screen_matches_reference_cases(p, rows, commuting, chunk):
    assert_screen_matches_reference(Matrix.from_rows(Field.gf(p), rows), commuting, chunk)


@settings(quick, max_examples=100)
@given(data=st.data())
def test_block_screen_matches_reference_screen(data):
    """Dense coefficients over GF(2), GF(3), GF(5) and GF(7) with n <= 3 and
    at most 20,000 candidates, in pieces of the real size or of a small one
    that splits the stages into several pieces or a digit range in slices."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    n = data.draw(st.integers(1, 3), label="n")
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                              min_size=n, max_size=n), label="rows")
    a = Matrix.from_rows(Field.gf(p), rows)
    commuting = data.draw(st.booleans(), label="commuting")
    total = p ** (len(centralizer_basis(a)) if commuting else n * n)
    assume(total <= 20_000)
    low = max(2, total // 100)
    chunk = data.draw(st.just(oracle._CHUNK) | st.integers(low, low + 400), label="chunk")
    assert_screen_matches_reference(a, commuting, chunk)


# block sizes of the Jordan coefficients drawn below, summing to at most 4
PARTITIONS = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)],
              4: [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]}


@settings(quick, max_examples=100)
@given(data=st.data())
def test_staged_census_matches_reference_on_jordan_coefficients(data):
    """Jordan coefficients fix residual entries early, so the search prunes
    partial matrices long before the last stage, unlike the dense ones
    above: total size at most 3 over GF(2), GF(3), GF(5) and GF(7), or 4
    over GF(2). At most 70,000 candidates, for the reference to hold, and
    at most 1,000 solutions, whose exact re-verification would dominate."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    size = data.draw(st.integers(1, 4 if p == 2 else 3), label="size")
    sizes = data.draw(st.sampled_from(PARTITIONS[size]), label="sizes")
    lams = data.draw(st.lists(st.integers(0, p - 1), min_size=len(sizes),
                              max_size=len(sizes)), label="lams")
    a = jordan_matrix(Field.gf(p), list(zip(lams, sizes)))
    commuting = data.draw(st.booleans(), label="commuting")
    assume(p ** (len(centralizer_basis(a)) if commuting else size * size) <= 70_000)
    expected = reference_screen(a, commuting)
    assume(len(expected) <= 1000)
    chunk = data.draw(st.just(oracle._CHUNK) | st.integers(2, 256), label="chunk")
    enum = oracle.enumerate_commuting_solutions if commuting else oracle.enumerate_solutions
    with mock.patch.object(oracle, "_CHUNK", chunk):
        assert list(enum(a).solutions) == expected


def screened_states(a, commuting, chunk):
    """The number of partial matrices handed to each screen call, whose
    entries must be residues, as the int64 guard assumes."""
    sizes = []
    screen = oracle._screen_batch

    def spy(a_int, xs, p, *rest):
        assert ((0 <= xs) & (xs < p)).all()
        sizes.append(len(xs))
        return screen(a_int, xs, p, *rest)

    enum = oracle.enumerate_commuting_solutions if commuting else oracle.enumerate_solutions
    with mock.patch.object(oracle, "_screen_batch", spy), \
            mock.patch.object(oracle, "_CHUNK", chunk):
        enum(a)
    return sizes


@pytest.mark.parametrize("p, shorthand, commuting, chunk", [
    (5, "1^3", False, 1 << 14),
    (5, "1^2,2^1", True, 1 << 14),
    (5, "1^3", False, oracle._CHUNK),
    (5, "1^2,2^1", True, oracle._CHUNK),
    (2, "0^4", False, 16),
    # p = 7 above a chunk of 5: a stage's combinations are split into slices
    (7, "1^2", False, 5),
    (7, "1^2", True, 5),
    (7, "3^1,2^1", False, 5),
])
def test_screen_calls_stay_within_the_chunk(p, shorthand, commuting, chunk):
    field = Field.gf(p)
    a = jordan_matrix(field, parse_jordan(field, shorthand))
    sizes = screened_states(a, commuting, chunk)
    assert sizes and max(sizes) <= chunk


def tabled_widths(a, commuting, chunk):
    """The number of combinations in each table the census of ``a`` builds."""
    widths = []
    combinations = oracle._combinations

    def spy(*args):
        table = combinations(*args)
        widths.append(table.shape[1])
        return table

    enum = oracle.enumerate_commuting_solutions if commuting else oracle.enumerate_solutions
    with mock.patch.object(oracle, "_combinations", spy), \
            mock.patch.object(oracle, "_CHUNK", chunk):
        enum(a)
    return widths


@pytest.mark.parametrize("p, rows, commuting, chunk", [
    # every residual entry reads all nine coordinates: in pieces of 16 the
    # run after the first stage's four is five long and is cut after four
    (2, [[1, 1, 1], [1, 1, 1], [1, 1, 1]], False, 16),
    # p = 7 above pieces of 5: each coordinate's table is built in slices
    (7, [[3, 5], [6, 2]], False, 5),
    (7, [[3, 5], [6, 2]], True, 5),
    (5, [[1, 1, 0], [0, 1, 0], [0, 0, 2]], False, 1 << 13),
])
def test_tables_stay_within_the_chunk(p, rows, commuting, chunk):
    widths = tabled_widths(Matrix.from_rows(Field.gf(p), rows), commuting, chunk)
    assert widths and max(widths) <= chunk


def test_tables_are_built_once_per_census(gf5):
    """In pieces of 64 the 3x3 block over GF(5) visits its stages over a
    thousand times, yet builds one table per stage, at most one per
    coordinate."""
    a = jordan_matrix(gf5, parse_jordan(gf5, "1^3"))
    assert len(tabled_widths(a, False, 64)) <= 9
    assert len(screened_states(a, False, 64)) > 1000


@pytest.mark.parametrize("chunk", [5, 49])
def test_overlapping_basis_elements_are_reduced(chunk):
    """The centralizer basis of a dense coefficient, I and A, overlaps: in
    pieces of 5 the second stage adds to entries the first one set, and in
    one piece of p^2 = 49 a single stage sums both elements."""
    a = Matrix.from_rows(Field.gf(7), [[3, 5], [6, 2]])
    assert screened_states(a, True, chunk)


def test_census_within_one_piece_is_screened_whole(gf3):
    """The 81 candidates of the 2x2 block over GF(3) fit one piece, so the
    first stage sets every coordinate and a single screen call sees them."""
    a = jordan_matrix(gf3, parse_jordan(gf3, "0^2"))
    assert screened_states(a, False, oracle._CHUNK) == [81]


def test_cross_order_prunes_early(gf5):
    """The 1,953,125 candidates of the 3x3 block over GF(5) cost under
    100,000 partial matrices screened, because the cross order fixes the
    residual entries of a Jordan coefficient stage by stage."""
    a = jordan_matrix(gf5, parse_jordan(gf5, "1^3"))
    assert sum(screened_states(a, False, oracle._CHUNK)) < 100_000


def test_screen_reduces_ax_before_the_second_product():
    """At p = 1,000,000,007 a 2x2 screen keeps 2 (p - 1)^2 within int64, as
    the guard demands, only because AX is reduced mod p before it is
    multiplied again; unreduced, the second products reach (p - 1)^3 and
    wrap, and true solutions are lost."""
    from yangbaxter.families import family_2x2_invertible

    field = Field.gf(1_000_000_007)
    lam = field.scalar(123_456_789)
    a = jordan_block(field, lam, 2)
    cands = [family_2x2_invertible(lam, branch, field.scalar(v))
             for branch in ("plus", "minus") for v in (4, 9, 10 ** 8)]
    cands += [a, Matrix.zero(field, 2), a * a, Matrix.from_rows(field, [[1, 2], [3, 4]])]
    expected = [is_solution(a, x) for x in cands]
    assert expected.count(True) == 8
    xs = np.array([x.raw for x in cands], dtype=np.int64).reshape(-1, 2, 2)
    a_int = np.array(a.raw, dtype=np.int64).reshape(2, 2)
    entries = itertools.product(range(2), repeat=2)
    assert oracle._screen_batch(a_int, xs, field.p, entries).tolist() == expected


SIGNED = [np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)]


def test_search_dtype_is_the_least_that_holds_the_widest_screen_sum():
    """For every prime p < 2^16 and n <= 6 the search dtype holds both
    +n (p - 1)^2 and -n (p - 1)^2, and the next narrower one does not:
    int8 holds -128 but not +128, so the sign of the bound matters."""
    sieve = np.ones(1 << 16, dtype=bool)
    sieve[:2] = False
    for k in range(2, 256):
        if sieve[k]:
            sieve[k * k::k] = False
    for p in np.flatnonzero(sieve).tolist():
        for n in range(1, 7):
            v, dtype = n * (p - 1) ** 2, oracle._narrow_dtype(p, n)
            assert np.iinfo(dtype).min <= -v and v <= np.iinfo(dtype).max, (p, n)
            if dtype != SIGNED[0]:
                narrower = np.iinfo(SIGNED[SIGNED.index(dtype) - 1])
                assert not (narrower.min <= -v and v <= narrower.max), (p, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 127, 251, 32749])
def test_reducer_is_mod_p_on_every_narrow_value(p):
    """The residue table of an 8-bit dtype gives x mod p for every value
    the dtype holds, widened where p - 1 does not fit it; a wider dtype,
    16 bits included, keeps %."""
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        values = np.arange(info.min, info.max + 1, max(1, info.max >> 15), dtype=dtype)
        got = oracle._reducer(p, np.dtype(dtype))(values)
        assert np.iinfo(got.dtype).max >= p - 1
        assert got.tolist() == (values.astype(np.int64) % p).tolist(), dtype


def screened_dtypes(a, commuting):
    """The dtypes of the stacks the census of ``a`` hands its screen."""
    seen = set()
    screen = oracle._screen_batch

    def spy(a_int, xs, p, entries):
        seen.add(xs.dtype)
        return screen(a_int, xs, p, entries)

    enum = oracle.enumerate_commuting_solutions if commuting else oracle.enumerate_solutions
    with mock.patch.object(oracle, "_screen_batch", spy):
        found = enum(a).solutions
    return seen, found


BENCHMARK_CENSUSES = [
    (2, "1^2,1^2", False), (2, "0^4", False), (3, "1^2,1^2", True),
    (5, "1^3", False), (5, "1^2,2^1", False),
]


@pytest.mark.parametrize("p, shorthand, commuting", BENCHMARK_CENSUSES)
def test_benchmark_censuses_screen_int8_stacks(p, shorthand, commuting):
    """The censuses of the census-sweep and census-screen workloads keep
    every screen sum within +-127, so the search runs on int8 stacks."""
    field = Field.gf(p)
    seen, _ = screened_dtypes(jordan_matrix(field, parse_jordan(field, shorthand)), commuting)
    assert seen == {np.dtype(np.int8)}


@pytest.mark.parametrize("p, shorthand, commuting", BENCHMARK_CENSUSES)
def test_benchmark_censuses_batch_int8_stacks(monkeypatch, p, shorthand, commuting):
    """The same censuses keep every sum of their batch and sweep, up to the
    (n + 1) (p - 1)^2 of the Horner step, within +-127: the report's
    residues and kernels, and every elimination, are int8."""
    seen, eliminate = set(), oracle._gauss_jordan
    monkeypatch.setattr(oracle, "_gauss_jordan", lambda m, p: seen.add(m.dtype) or eliminate(m, p))
    report = census(Field.gf(p), shorthand, commuting)
    assert oracle.verify_theorems_on_census(report) and seen
    assert seen | {report.stack.dtype, report.kernels.dtype} == {np.dtype(np.int8)}


@pytest.mark.parametrize("a", [
    Matrix.from_rows(Field.gf(13), [[1, 1], [0, 1]]),
    Matrix.from_rows(Field.gf(13), [[12, 7], [5, 11]]),
    Matrix.from_rows(Field.gf(17), [[16, 0], [0, 2]]),
], ids=["gf13-jordan", "gf13-dense", "gf17-diagonal"])
@pytest.mark.parametrize("commuting", [False, True])
def test_int16_census_matches_reference(a, commuting):
    """Over GF(13) and GF(17) a 2x2 screen sums up to 2 (p - 1)^2, beyond
    int8: the search runs on int16 and finds what the int64 reference finds."""
    seen, found = screened_dtypes(a, commuting)
    assert seen == {np.dtype(np.int16)}
    assert list(found) == reference_screen(a, commuting)


def test_enumeration_needs_prime_field(rat):
    with pytest.raises(PreconditionError):
        oracle.enumerate_solutions(nilpotent_block(rat, 2))


@pytest.mark.parametrize("commuting", [False, True])
def test_census_refuses_candidates_the_screen_lets_through(monkeypatch, gf2, commuting):
    """With a screen that keeps every candidate, the census's exact batch
    alone meets the non-solutions among them, and must refuse them."""
    monkeypatch.setattr(oracle, "_screen_batch",
                        lambda a, xs, p, entries: np.ones(len(xs), dtype=bool))
    with pytest.raises(AssertionError, match="fails the exact residual"):
        census(gf2, "0^2", commuting)


def test_commuting_census_refuses_a_solution_that_does_not_commute(gf2):
    """The exact batch of a --commuting census also checks AX = XA: a
    solution outside the centralizer is an internal error there, and a
    census member anywhere else."""
    a = nilpotent_block(gf2, 2)
    x = Matrix.from_rows(gf2, [[1, 0], [0, 0]])
    assert is_solution(a, x) and a * x != x * a
    assert oracle._census_from_matrices(a, [x], False, None).solutions == (x,)
    with pytest.raises(AssertionError, match="fails exact commutation"):
        oracle._census_from_matrices(a, [x], True, None)


def test_a_census_is_only_taken_over_a_prime_field(rat, gf2):
    """A report over Q is never built, so neither classification nor the
    sweep meets one, and a census document over Q does not load."""
    spec = parse_jordan(rat, "0^2")
    a = jordan_matrix(rat, spec)
    with pytest.raises(PreconditionError, match=r"over GF\(p\)"):
        oracle.CensusReport(a, False, (Matrix.zero(rat, 2), a), spec)
    doc = dict(census_to_json(census(gf2, "0^2")), field="rat", coefficient=matrix_to_json(a))
    with pytest.raises(ParseError, match=r"over GF\(p\)"):
        census_from_json(doc)


def test_classification_completeness_small_blocks(gf2, gf3):
    for field in (gf2, gf3):
        for shorthand in ("0^2", "0^3", "1^2"):
            rep = census(field, shorthand)
            assert rep.unmatched == 0, (field.spec(), shorthand, rep.family_tallies)
    assert census(gf3, "2^2").unmatched == 0


def test_classification_incomplete_for_size_four(gf2):
    rep = census(gf2, "0^4")
    assert rep.unmatched > 0
    # the top-left unit matrix solves the equation but escapes the pattern
    e11 = Matrix.unit(gf2, 4, 4, 0, 0)
    assert e11 in rep.solutions
    idx = rep.solutions.index(e11)
    assert rep.family_tags[idx] == "unmatched"


def test_classification_tags_reproduce_members(gf3):
    rep = census(gf3, "0^2")
    for x, tag in zip(rep.solutions, rep.family_tags):
        assert tag.startswith("jordan2-nilpotent")


def test_classification_checks_no_family_residual(monkeypatch, gf2, gf3):
    """The census verified every solution, so a family member rebuilt only
    to be compared with one needs no residual of its own."""
    from yangbaxter import core
    reports = [census(gf3, "1^2"), census(gf3, "0^2"), census(gf3, "0^3"),
               census(gf2, "0^4")]
    calls = []
    monkeypatch.setattr(core, "residual", lambda a, x: calls.append(x) or residual(a, x))
    tagged = [oracle.classify_against_families(rep) for rep in reports]
    assert calls == []
    assert all(tags.count("unmatched") < rep.total for tags, rep in zip(tagged, reports))


@pytest.mark.parametrize("spec, shorthand, commuting", [
    ("gf:2", "1^2,1^2", False), ("gf:3", "1^2,1^2", True), ("gf:5", "1^1,1^1", False),
])
def test_two_block_tags_hold_by_the_block_equations(spec, shorthand, commuting):
    """A shape tag for diag(J, J) holds by a path that shares nothing with
    the shape: the diagonal blocks of a block-diagonal solution solve the
    equation for J, and the off-diagonal block Y1 of an off-diagonal one
    lies in the span of the solutions of J Y1 J = Y1 J Y2 that the
    Sylvester solver gives for its diagonal block Y2."""
    field = Field.from_spec(spec)
    rep = census(field, shorthand, commuting)
    (lam, k), _ = rep.jordan.blocks
    j = jordan_block(field, lam, k)

    def block(x, bi, bj):
        return Matrix.from_rows(field, [[x[bi * k + r, bj * k + c] for c in range(k)]
                                        for r in range(k)])

    seen = set()
    for x, tag in zip(rep.solutions, rep.family_tags):
        (x11, x12), (x21, x22) = [[block(x, bi, bj) for bj in range(2)] for bi in range(2)]
        seen.add(tag)
        if tag == "zero":
            assert x.is_zero
        elif tag == "block-diagonal":
            assert x12.is_zero and x21.is_zero
            assert is_solution(j, x11) and is_solution(j, x22)
        elif tag == "unmatched":
            assert not (x12.is_zero and x21.is_zero)
            assert not (x11.is_zero and x21.is_zero) and not (x12.is_zero and x22.is_zero)
        else:
            zeros, y1, y2 = {"two-block-offdiag[upper]": ((x11, x21), x12, x22),
                             "two-block-offdiag[lower]": ((x12, x22), x21, x11)}[tag]
            assert all(z.is_zero for z in zeros) and not y1.is_zero
            assert span_contains(offdiag_solution_space(j, j, y2), y1)
    assert {"zero", "block-diagonal", "two-block-offdiag[upper]",
            "two-block-offdiag[lower]"} <= seen


def test_classification_refuses_a_coefficient_other_than_its_jordan_matrix(gf3):
    """The transposed Jordan block is similar to the block but is not its
    Jordan matrix, so tags read off the spec would not describe it: no
    report pairs the two, so classification never meets one."""
    spec = parse_jordan(gf3, "1^2")
    transposed = jordan_matrix(gf3, spec).transpose()
    with pytest.raises(PreconditionError, match="not the Jordan matrix"):
        oracle.enumerate_solutions(transposed, jordan=spec)
    rep = census(gf3, "1^2")
    with pytest.raises(PreconditionError, match="not the Jordan matrix"):
        replace(rep, coefficient=transposed)


@pytest.mark.parametrize("spec, shorthand", [
    ("gf:5", "1^3"), ("gf:5", "1^2,2^1"), ("gf:3", "1^1"), ("gf:3", "0^1,1^2"),
])
def test_classification_leaves_uncovered_block_structures_untagged(spec, shorthand):
    """No closed-form family covers a single invertible block of size 3, a
    block of size 1, or two blocks with distinct eigenvalues: such a census
    comes back untagged, not refused, and has no unmatched count. A report
    with a smuggled non-solution is refused all the same, when it is built."""
    field = Field.from_spec(spec)
    rep = census(field, shorthand)
    assert oracle.classify_against_families(rep) is None and rep.total > 0
    assert rep.family_tags is None and rep.family_tallies is None
    with pytest.raises(PreconditionError, match="no family covers the census"):
        rep.unmatched
    intruder = Matrix.identity(field, rep.coefficient.nrows).scale(field.scalar(2))
    assert not is_solution(rep.coefficient, intruder)
    with pytest.raises(PreconditionError, match="not a solution"):
        replace(rep, solutions=rep.solutions + (intruder,))


def test_two_block_distinct_eigenvalue_kernels_direct(rat):
    # the two worked instances of the kernel classification, checked directly
    from yangbaxter import core
    from yangbaxter.matrices import jordan_block

    a = jordan_matrix(rat, [(1, 2), (2, 2)])
    x = Matrix.block([
        [Matrix.from_rows(rat, [[3, 4], [-1, -1]]), Matrix.zero(rat, 2)],
        [Matrix.zero(rat, 2), Matrix.zero(rat, 2)],
    ])
    assert core.check_kernel_classification_two_blocks(a, x, (2, 2)).holds

    a22 = jordan_matrix(rat, [(2, 2), (2, 2)])
    sub = jordan_block(rat, 2, 2)
    x22 = Matrix.block([
        [Matrix.zero(rat, 2), sub.inverse()], [Matrix.zero(rat, 2), sub]])
    assert core.check_kernel_classification_two_blocks(a22, x22, (2, 2)).holds


def test_theorem_sweep_clean_on_single_blocks(gf2, gf3):
    for field, shorthand in ((gf2, "1^2"), (gf3, "1^2"), (gf2, "0^3"), (gf3, "0^2")):
        rep = census(field, shorthand)
        verdicts = oracle.verify_theorems_on_census(rep)
        assert verdicts and all(v.holds for v in verdicts)


def test_equal_eigenvalue_two_block_kernels_can_mix_blocks(gf2):
    """With both blocks at the same eigenvalue the kernel of a solution can
    be an invariant subspace that straddles the two block spans, so the
    three-way kernel classification genuinely fails there; it belongs to
    coefficients with distinct block eigenvalues."""
    rep = census(gf2, "1^2,1^2")
    assert rep.total == 138
    assert rep.by_kernel.get("other", 0) == 48
    counterexample = Matrix.from_rows(gf2, [
        [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0]])
    assert counterexample in rep.solutions
    verdicts = oracle.verify_theorems_on_census(rep)
    kernel_fails = [v for v in verdicts
                    if v.name == "two-block-kernel-classification" and not v.holds]
    assert len(kernel_fails) == 48
    others = [v for v in verdicts
              if v.name != "two-block-kernel-classification" and not v.holds]
    assert others == []


def test_two_block_distinct_eigenvalue_census_kernels(gf3):
    """Full 43M-candidate census for diag(J2(1), J2(2)) over GF(3): every
    singular nonzero solution has kernel P1, P2 or P1+P2."""
    rep = census(gf3, "1^2,2^2", budget=50_000_000)
    assert set(rep.by_kernel) <= {"P1", "P2", "P1+P2", "trivial"}
    verdicts = oracle.verify_theorems_on_census(rep)
    assert all(v.holds for v in verdicts)


def test_eigenvalue_transfer_and_eigenspace_filters_run(gf3):
    rep = census(gf3, "1^2")
    names = {v.name for v in oracle.verify_theorems_on_census(rep)}
    assert "eigenvalue-transfer" in names
    assert "annihilates-generalized-eigenspace" in names
    assert "single-block-classification" in names


def test_nonzero_solutions_similar_to_block(gf2, gf3):
    from references import is_similar

    for field in (gf2, gf3):
        rep = census(field, "1^2")
        a = rep.coefficient
        cands = [field.one(), field.zero()]
        for x in rep.solutions:
            if not x.is_zero:
                assert x.is_invertible()
                assert is_similar(x, a, cands)


def test_single_block_classification_refutes_a_foreign_spectrum(gf5):
    """A nonzero candidate with an eigenvalue outside {lam, 0} is refuted
    with itself as the witness instead of raising InconclusiveError."""
    one = gf5.one()  # the eigenvalue of the block J_2(1)
    x = Matrix.from_rows(gf5, [[2, 0], [0, 3]])
    verdict = oracle._single_block_classification(one, x)
    assert not verdict.holds and verdict.witness == x
    assert not oracle._single_block_classification(one, Matrix.identity(gf5, 2)).holds
    member = Matrix.from_rows(gf5, [[3, 4], [4, 4]])
    assert oracle._single_block_classification(one, member).holds


def test_nilpotent_blocks_have_no_invertible_solution(gf2, gf3):
    for field, shorthand in ((gf2, "0^3"), (gf3, "0^3"), (gf2, "0^4")):
        rep = census(field, shorthand)
        for x in rep.solutions:
            assert not x.is_invertible()


def test_constructed_members_appear_in_census(gf5):
    from yangbaxter import families as fam

    rep = oracle.enumerate_solutions(
        jordan_matrix(gf5, parse_jordan(gf5, "1^2")),
        jordan=parse_jordan(gf5, "1^2"))
    members = set(rep.solutions)
    for a_param in (0, 1, 4):
        for branch in ("plus", "minus"):
            x = fam.family_2x2_invertible(gf5.one(), branch, gf5.scalar(a_param))
            assert x in members


def test_spectrum_statement_on_census(gf3):
    rep = census(gf3, "1^2")
    for x in rep.solutions:
        chi = char_poly(x)
        assert chi.degree == 2
