import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import ybe_ideal as reference_ybe_ideal
from yangbaxter import groebner
from yangbaxter.errors import PairCapError, ParseError, SideConditionError
from yangbaxter.errors import DimensionError
from yangbaxter.fields import Field
from yangbaxter.groebner import (
    EXPONENT_LIMIT,
    MultiPoly,
    PolyRing,
    buchberger,
    interreduce,
    normal_form,
    s_polynomial,
    ybe_ideal,
    ybe_ring,
    ybe_variables,
)
from yangbaxter.matio import parse_jordan
from yangbaxter.matrices import Matrix, jordan_matrix, nilpotent_block
from yangbaxter.oracle import enumerate_solutions

# Reduced lex basis of the 3x3 nilpotent equation ideal, a > b > ... > i.
# Cross-checked against an independent computer algebra system.
REDUCED_BASIS_3X3 = [
    "a*d + b*g",
    "a*e + b*h - d",
    "a*f + b*i - e",
    "a*g",
    "a*h - d*i",
    "b*d*i + 2*e*h + e*i^2 - g - h*i",
    "b*e*h - e^3 - e*f*h + e*h + e*i^2 - 2*h*i",
    "b*e*i - b*f*h - e^2 - e*i + h",
    "b*h*i - e*h - e*i^2 + h*i",
    "d^2",
    "d*e + e*h - g",
    "d*f + e*i - h",
    "d*g",
    "d*h",
    "d*i^2",
    "e^4",
    "e^2*h",
    "e^2*i - e*f*h - e*h - h*i",
    "e*g",
    "e*h*i",
    "e*i^3",
    "f*g + h*i",
    "g^2",
    "g*h",
    "g*i",
    "h^2",
    "h*i^2",
]


def test_parse_and_print_round_trip():
    ring = PolyRing(tuple("abc"))
    for text in ("a*b + c", "2*a^2 - 1/2*b", "a^3", "-c + 1", "5"):
        poly = ring.parse(text)
        assert ring.parse(str(poly)) == poly


def test_parse_juxtaposed_letters():
    ring = ybe_ring(3)
    assert ring.parse("af+bi") == ring.parse("a*f + b*i")
    assert ring.parse("2a^2f") == ring.parse("2*a^2*f")
    with pytest.raises(ParseError):
        ring.parse("a$b")
    with pytest.raises(ParseError):
        ring.parse("z")  # not a ring variable


@pytest.mark.parametrize("text, message", [
    ("", "empty polynomial"),
    (" \t", "empty polynomial"),
    ("-", "dangling sign in '-'"),
    ("a + b -", "dangling sign in 'a + b -'"),
    ("a+-", "dangling sign in 'a+-'"),
])
def test_parse_errors_name_the_fault(text, message):
    with pytest.raises(ParseError) as exc:
        ybe_ring(3).parse(text)
    assert str(exc.value) == message


def test_parse_zero_denominator_is_a_parse_error():
    """A zero denominator names the input; a leading zero in a denominator
    or a zero numerator still parses."""
    ring = PolyRing(tuple("xy"))
    for text in ("3/0*x", "x + 1/00", "y - 2/0"):
        with pytest.raises(ParseError, match="zero denominator in"):
            ring.parse(text)
    assert ring.parse("1/05*x") == ring.parse("1/5*x")
    assert ring.parse("0/5*x + y") == ring.parse("y")


def test_lex_ordering():
    ring = PolyRing(tuple("xyz"))
    p = ring.parse("y^5 + x")
    assert str(p) == "x + y^5"  # x beats any power of y in lex


def test_ybe_variables():
    assert ybe_variables(3) == tuple("abcdefghi")
    assert ybe_variables(2) == tuple("abcd")


def test_ybe_ideal_2x2(rat):
    gens = ybe_ideal(nilpotent_block(rat, 2), 2)
    ring = ybe_ring(2)
    # AXA - XAX for the 2x2 shift block: entries -ac, c - ad, -c^2, -cd
    expected = [ring.parse("-a*c"), ring.parse("c - a*d"),
                ring.parse("-c^2"), ring.parse("-c*d")]
    assert gens == expected


def test_ybe_ideal_3x3_matches_block_multiplication(rat):
    gens = ybe_ideal(nilpotent_block(rat, 3), 3)
    ring = ybe_ring(3)
    expected = [
        "-(a*d + b*g)", "-(a*e + b*h - d)", "-(a*f + b*i - e)",
        "-(d^2 + e*g)", "-(d*e + e*h - g)", "-(d*f + e*i - h)",
        "-(d*g + g*h)", "-(e*g + h^2)", "-(f*g + h*i)",
    ]
    assert len(gens) == 9
    for got, text in zip(gens, expected):
        inner = ring.parse(text[2:-1])
        assert got == -inner


ENTRIES = st.one_of(st.just(0), st.integers(-4, 4),
                   st.fractions(min_value=-3, max_value=3, max_denominator=7))


@st.composite
def rational_matrices(draw):
    """An n x n rational matrix of any shape, n = 1..4, with zero, integral
    and non-integral entries."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    return Matrix.from_rows(Field.rationals(), rows), n


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_ybe_ideal_matches_matrix_products(case):
    """The generators written term by term equal AXA - XAX formed by
    polynomial matrix products, term for term and in the same order."""
    a, n = case
    assert [g.terms for g in ybe_ideal(a, n)] == [g.terms for g in reference_ybe_ideal(a, n)]


def test_ybe_ideal_zero_coefficient(rat):
    gens = ybe_ideal(Matrix.zero(rat, 2), 2)
    assert len(gens) == 4 and all(g.is_zero for g in gens)


def test_ybe_ideal_guards(rat, gf3):
    with pytest.raises(SideConditionError):
        ybe_ideal(Matrix.zero(gf3, 2), 2)
    with pytest.raises(SideConditionError):
        ybe_ideal(Matrix.zero(rat, 5), 5)


def test_buchberger_trivial_cases():
    ring = PolyRing(tuple("xyz"))
    single = buchberger([ring.parse("x^2 - 1")])
    assert single == [ring.parse("x^2 - 1")]
    lin = buchberger([ring.parse("x - y"), ring.parse("y - z")])
    assert lin == [ring.parse("x - z"), ring.parse("y - z")]


def test_normal_form_basics():
    ring = PolyRing(tuple("ab"))
    f = ring.parse("a*b + a")
    assert normal_form(f, [f]).is_zero
    assert normal_form(ring.one(), [f]) == ring.one()


def test_reduced_basis_3x3(rat):
    gens = ybe_ideal(nilpotent_block(rat, 3), 3)
    basis = buchberger(gens)
    assert [str(g) for g in basis] == REDUCED_BASIS_3X3


def test_probe_normal_forms_3x3(rat):
    ring = ybe_ring(3)
    basis = buchberger(ybe_ideal(nilpotent_block(rat, 3), 3))
    # the variables forced to vanish on the solution set are not themselves
    # ideal members; only powers of them are
    for probe in ("d", "e", "g", "h"):
        assert normal_form(ring.parse(probe), basis) == ring.parse(probe)
    for probe in ("d^2", "e^4", "g^2", "h^2"):
        assert normal_form(ring.parse(probe), basis).is_zero
    assert normal_form(ring.parse("af+bi"), basis) == ring.parse("e")


def test_every_generator_reduces_to_zero(rat):
    gens = ybe_ideal(nilpotent_block(rat, 3), 3)
    basis = buchberger(gens)
    for g in gens:
        assert normal_form(g, basis).is_zero


def test_buchberger_criterion_on_output(rat):
    basis = buchberger(ybe_ideal(nilpotent_block(rat, 3), 3))
    for f, g in itertools.combinations(basis, 2):
        assert normal_form(s_polynomial(f, g), basis).is_zero


def test_reduced_basis_property(rat):
    basis = buchberger(ybe_ideal(nilpotent_block(rat, 3), 3))
    lead = [g.lm() for g in basis]
    for idx, g in enumerate(basis):
        assert g.lc() == 1
        for m, _ in g.terms:
            for j, lm in enumerate(lead):
                if j != idx:
                    assert not all(x <= y for x, y in zip(lm, m))


def test_pair_cap_is_an_error(rat):
    gens = ybe_ideal(nilpotent_block(rat, 3), 3)
    with pytest.raises(PairCapError):
        buchberger(gens, pair_cap=3)


@pytest.mark.parametrize("shape, work", [
    ("0^3", (140, 108, 27)),
    ("0^2,1^1", (97, 76, 22)),
    ("1/2^2,1/3^1", (214, 144, 18)),
    ("1^3", (199, 107, 9)),
])
def test_buchberger_work_is_pinned(monkeypatch, rat, shape, work):
    """The S-polynomials formed, the zero remainders among their normal
    forms and the reduced basis's length on three equation ideals.

    ``s_polynomial`` and ``normal_form`` are replaced on the module, as the
    benchmark's tracer replaces them, and every S-polynomial must be reduced
    once through that public ``normal_form``. Pair bookkeeping may change
    how pairs are found, never which pairs are reduced.
    """
    spolys, reduced = {}, []
    real_s_polynomial, real_normal_form = groebner.s_polynomial, groebner.normal_form

    def traced_s_polynomial(f, g):
        s = real_s_polynomial(f, g)
        spolys[id(s)] = s  # kept alive, so the id stays unique
        return s

    def traced_normal_form(p, basis):
        r = real_normal_form(p, basis)
        if id(p) in spolys:
            reduced.append(r.is_zero)
        return r

    monkeypatch.setattr(groebner, "s_polynomial", traced_s_polynomial)
    monkeypatch.setattr(groebner, "normal_form", traced_normal_form)
    jordan = parse_jordan(rat, shape)
    basis = buchberger(ybe_ideal(jordan_matrix(rat, jordan), jordan.dimension))
    assert len(reduced) == len(spolys)
    assert (len(spolys), sum(reduced), len(basis)) == work


# -- the reducer table ---------------------------------------------------------------


@st.composite
def growing_bases(draw):
    """Elements appended one at a time, some not monic, some zero, and
    polynomials of higher degree to reduce after every append."""
    nvars = draw(st.integers(2, 3))
    ring = PolyRing("xyz"[:nvars])
    coeffs = st.sampled_from([Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3)])

    def polys(top, max_size):
        monomials = [m for m in itertools.product(range(top + 1), repeat=nvars) if sum(m) <= top]
        return st.lists(st.dictionaries(st.sampled_from(monomials), coeffs, min_size=1,
                                        max_size=max_size).map(lambda t: MultiPoly(ring, t)),
                        min_size=1, max_size=5)
    return draw(polys(2, 3)), draw(polys(4, 6))


@settings(max_examples=150, deadline=None)
@given(growing_bases())
def test_reducer_table_grown_by_appends_matches_a_fresh_list(case):
    """As ``buchberger`` does, a table is grown between reductions: each
    remainder against it equals the remainder against a plain list of the
    same elements, which gets a fresh table."""
    elements, targets = case
    table = groebner.Reducers()
    for g in elements:
        table.append(g)
        for p in targets:
            assert normal_form(p, table) == normal_form(p, list(table))


def test_reducer_table_rescans_a_monomial_after_an_append():
    """A monomial recorded with no divisor is reduced by an element that
    divides it once that element has joined, and remembers it."""
    ring = PolyRing(tuple("xy"))
    p = ring.parse("x*y + 1")
    table = groebner.Reducers([ring.parse("x^2 - y")])
    assert normal_form(p, table) == p
    assert table.first[ring.pack((1, 1))] == ~1  # no divisor among the first one
    table.append(ring.parse("2*y - 1"))
    assert normal_form(p, table) == ring.parse("1/2*x + 1")
    assert table.first[ring.pack((1, 1))] == 1


def _pinned_bases():
    data = Path(__file__).parent / "data"
    yield ybe_ring(3), REDUCED_BASIS_3X3
    for golden in ("groebner_ybe_0_2_1_1.txt", "groebner_ybe_1_3.txt"):
        lines = (data / golden).read_text(encoding="utf-8").splitlines()
        yield ybe_ring(3), [line.strip() for line in lines if line.startswith("  ")]


@settings(max_examples=30, deadline=None)
@given(st.data())
@pytest.mark.parametrize("ring, pinned", list(_pinned_bases()), ids=["0^3", "0^2,1^1", "1^3"])
def test_interreduce_gives_back_the_pinned_reduced_basis(ring, pinned, data):
    """A reduced basis made non-reduced (each element scaled, its tail
    polluted by multiples of other elements that lie below its leading
    monomial, and a multiple of one element added) interreduces back to
    itself."""
    basis = [ring.parse(text) for text in pinned]
    scales = st.sampled_from([Fraction(-2), Fraction(3), Fraction(1, 2), Fraction(-5, 3)])
    small = st.tuples(*[st.integers(0, 1)] * ring.nvars).map(ring.pack)
    polluted = []
    for g in basis:
        for _ in range(data.draw(st.integers(0, 2))):
            h, m = data.draw(st.sampled_from(basis)), data.draw(small)
            if h is not g and m + groebner._lead(h) < groebner._lead(g):
                g = g + h * MultiPoly._of(ring, {m: data.draw(scales)})
        polluted.append(g * data.draw(scales))
    g, m = data.draw(st.sampled_from(polluted)), data.draw(small)
    polluted = data.draw(st.permutations(polluted + [g * MultiPoly._of(ring, {m: 1})]))
    assert [str(g) for g in interreduce(polluted)] == pinned


def test_variety_matches_census(rat, gf2, gf3):
    """Cross-oracle: GF(p) points of the ideal equal the enumerated set."""
    gens = [g for g in ybe_ideal(nilpotent_block(rat, 3), 3)]
    basis = buchberger(gens)
    for field in (gf2, gf3):
        census = enumerate_solutions(nilpotent_block(field, 3))
        enumerated = {tuple(s.v for s in x.entries) for x in census.solutions}
        variety = set()
        for point in itertools.product(range(field.p), repeat=9):
            values = [field.scalar(v) for v in point]
            if all(g.evaluate(field, values).is_zero for g in basis):
                variety.add(point)
        assert variety == enumerated


# -- differential test against a naive Buchberger ------------------------------------


def _ref_lead(p):
    return max(p)


def _ref_divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def _ref_monic(p):
    lc = p[_ref_lead(p)]
    return {m: c / lc for m, c in p.items()}


def _ref_reduce(p, divisors):
    """Remainder of p (a dict of monomials to Fractions) by the divisors."""
    p, rem = dict(p), {}
    while p:
        m = _ref_lead(p)
        c = p.pop(m)
        for g in divisors:
            lg = _ref_lead(g)
            if _ref_divides(lg, m):
                q = c / g[lg]
                for gm, gc in g.items():
                    if gm != lg:
                        t = tuple(a + b - e for a, b, e in zip(gm, m, lg))
                        v = p.get(t, 0) - q * gc
                        if v:
                            p[t] = v
                        else:
                            p.pop(t, None)
                break
        else:
            rem[m] = c
    return rem


def _ref_spoly(f, g):
    lf, lg = _ref_lead(f), _ref_lead(g)
    lcm = tuple(map(max, lf, lg))
    out = {}
    for poly, lead, sign in ((f, lf, 1), (g, lg, -1)):
        q = sign / poly[lead]
        for m, c in poly.items():
            t = tuple(a + b - e for a, b, e in zip(m, lcm, lead))
            out[t] = out.get(t, 0) + q * c
    return {m: c for m, c in out.items() if c}


def _ref_reduced_basis(gens):
    """Every pair, oldest first, no criteria; then minimalise and reduce tails.
    Taking the newest pair first instead lets some inputs run for minutes."""
    basis = [g for g in gens if g]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        r = _ref_reduce(_ref_spoly(basis[i], basis[j]), basis)
        if r:
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    minimal = []
    for g in sorted(map(_ref_monic, basis), key=_ref_lead):
        if not any(_ref_divides(_ref_lead(h), _ref_lead(g)) for h in minimal):
            minimal.append(g)
    reduced = [_ref_monic(_ref_reduce(g, [h for h in minimal if h is not g]))
               for g in minimal]
    return [tuple(sorted(g.items(), reverse=True))
            for g in sorted(reduced, key=_ref_lead, reverse=True)]


@st.composite
def small_ideals(draw):
    nvars = draw(st.integers(2, 3))
    monomials = [m for m in itertools.product(range(3), repeat=nvars) if sum(m) <= 2]
    coeffs = st.integers(-3, 3).filter(bool)
    gens = draw(st.lists(st.dictionaries(st.sampled_from(monomials), coeffs,
                                         min_size=1, max_size=4),
                         min_size=2, max_size=3))
    return PolyRing("xyz"[:nvars]), gens


@settings(max_examples=60, deadline=None)
@given(small_ideals())
def test_buchberger_matches_naive_reference(ideal):
    ring, gens = ideal
    polys = [MultiPoly(ring, g) for g in gens]
    basis = buchberger(polys)
    expected = _ref_reduced_basis([{m: Fraction(c) for m, c in g.items()} for g in gens])
    assert [g.terms for g in basis] == expected
    for f, g in itertools.combinations(basis, 2):
        assert normal_form(s_polynomial(f, g), basis).is_zero
    for g in polys:
        assert normal_form(g, basis).is_zero


# -- packed monomials against exponent tuples ----------------------------------------

EXPONENTS = st.one_of(st.integers(0, 3), st.integers(0, EXPONENT_LIMIT),
                      st.sampled_from([EXPONENT_LIMIT - 1, EXPONENT_LIMIT]))


@st.composite
def monomial_pairs(draw):
    """Two exponent vectors; half the time the second is the first plus a
    nonnegative offset, clipped at the limit, so that divisibility occurs."""
    nvars = draw(st.integers(1, 26))
    m1 = tuple(draw(st.lists(EXPONENTS, min_size=nvars, max_size=nvars)))
    if draw(st.booleans()):
        m2 = tuple(min(e + draw(st.integers(0, 3)), EXPONENT_LIMIT) for e in m1)
    else:
        m2 = tuple(draw(st.lists(EXPONENTS, min_size=nvars, max_size=nvars)))
    return PolyRing("abcdefghijklmnopqrstuvwxyz"[:nvars]), m1, m2


@settings(max_examples=300, deadline=None)
@given(monomial_pairs())
@example((PolyRing("abcdefghijklmnopqrstuvwxyz"), (EXPONENT_LIMIT,) * 26, (0,) * 26))
def test_packed_monomials_match_exponent_tuples(case):
    """Int order is lex order, and degree, divisibility, lcm and product
    agree with the exponent-tuple definitions; a product past the limit
    raises."""
    ring, m1, m2 = case
    k1, k2 = ring.pack(m1), ring.pack(m2)
    assert (ring.unpack(k1), ring.unpack(k2)) == (m1, m2)
    assert (ring.degree(k1), ring.degree(k2)) == (sum(m1), sum(m2))
    assert ((k1 < k2), (k1 == k2)) == ((m1 < m2), (m1 == m2))
    assert ring.divides(k1, k2) == all(a <= b for a, b in zip(m1, m2))
    assert ring.divides(k2, k1) == all(b <= a for a, b in zip(m1, m2))
    assert ring.unpack(ring.lcm(k1, k2)) == tuple(map(max, m1, m2))
    product = tuple(a + b for a, b in zip(m1, m2))
    if max(product) <= EXPONENT_LIMIT:
        assert ring.unpack(ring.mul(k1, k2)) == product
    else:
        with pytest.raises(SideConditionError, match=f"0..{EXPONENT_LIMIT}"):
            ring.mul(k1, k2)


def test_pack_refuses_exponents_outside_a_field():
    ring = PolyRing(tuple("xy"))
    assert ring.unpack(ring.pack((EXPONENT_LIMIT, 0))) == (EXPONENT_LIMIT, 0)
    for bad in ((EXPONENT_LIMIT + 1, 0), (0, -1)):
        with pytest.raises(SideConditionError, match=f"0..{EXPONENT_LIMIT}"):
            ring.pack(bad)
    with pytest.raises(DimensionError):
        ring.pack((1,))


def test_products_past_the_exponent_limit_raise():
    """Every place a product of monomials is formed checks the guard bits:
    polynomial products, S-polynomials and reduction steps."""
    ring = PolyRing(tuple("xy"))
    f = ring.parse(f"x + y^{EXPONENT_LIMIT - 767}")
    g = ring.parse("x*y^5000")
    for compute in (lambda: f * f, lambda: s_polynomial(f, g),
                    lambda: normal_form(g, [f]), lambda: ring.parse("x^20000*x^20000")):
        with pytest.raises(SideConditionError, match=f"0..{EXPONENT_LIMIT}"):
            compute()
    assert normal_form(ring.parse("x*y^767"), [f]) == ring.parse(f"-y^{EXPONENT_LIMIT}")


def test_integral_coefficients_stay_ints(rat):
    """Coefficients are ints until a division by a leading coefficient makes
    a fraction; the public terms are Fractions either way."""
    ring = PolyRing(tuple("xy"))
    f = ring.parse("2*x - 4*y + 6")
    assert all(type(c) is int for _, c in f._terms)
    monic = f.monic()
    assert [type(c) for _, c in monic._terms] == [int, int, int]
    assert [type(c) for _, c in ring.parse("2*x - 3").monic()._terms] == [int, Fraction]
    assert all(type(c) is Fraction for _, c in f.terms)
    basis = buchberger(ybe_ideal(nilpotent_block(rat, 3), 3))
    assert all(type(c) is int for g in basis for _, c in g._terms)
