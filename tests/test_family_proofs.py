"""Every family built from parameters solves AXA = XAX for every parameter.

Each family's solution is written here with entries in Z[parameters], next
to the generators of its side conditions. AXA - XAX is formed over
``MultiPoly`` and each entry is reduced by ``normal_form`` modulo those
generators. Every generator is monic with integer coefficients, so the
division never leaves Z: a zero remainder writes each residual entry as a
Z[parameters]-combination of the generators, an identity that holds over
every field the constructors accept (rat, gf:p and quad:a). An inverse 1/lam
is a variable t with lam*t - 1, and 1/(r - 1) a variable u with
(r - 1)*u - 1. A square root of a is a variable r with a = r^2, which rests
on ``Field.sqrt`` returning an exact root (pinned in ``test_fields``); at
a = 1, two-block cases iv and v hold only for the root 1, which
``Field.sqrt`` gives for 1 in every field.

Each formula is then tied to its code: at random parameters over rat, gf:5
and quad:2, a point where its side conditions vanish, it must evaluate to
the pair ``build_family`` returns.
"""

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import pytest

from yangbaxter import core
from yangbaxter.families import CATALOG, build_family
from yangbaxter.fields import Field
from yangbaxter.groebner import PolyRing, normal_form
from yangbaxter.matrices import Matrix


@dataclass(frozen=True)
class Formula:
    """A family member in closed form: its coefficient and solution as
    entry texts in one-letter variables, the generators of its side
    conditions, and a draw of (build_family parameters, variable values)."""

    variables: str
    coefficient: list
    solution: list
    side: tuple
    draw: Callable


def _scalar(field, rng, nonzero=False):
    while True:
        if field.radicand is not None:
            v = field.scalar((Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                              rng.randint(-2, 2)))
        else:
            v = field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if not (nonzero and v.is_zero):
            return v


def _square(field, rng, avoid=()):
    """A square a outside ``avoid`` and the root of it the field gives."""
    while True:
        a = _scalar(field, rng) ** 2
        if all(a != field.scalar(v) for v in avoid):
            return a, field.sqrt(a)


def _eigenvalue(field, rng, rule):
    """A nonzero lam that is 1 (rule "1"), is not 1 ("!1") or is free ("*")."""
    if rule == "1":
        return field.one()
    while True:
        lam = _scalar(field, rng, nonzero=True)
        if rule == "*" or lam != field.one():
            return lam


def _shift(n):
    return [["1" if j == i + 1 else "0" for j in range(n)] for i in range(n)]


_J2 = [["l", "1"], ["0", "l"]]
_DIAG_J2 = [["l", "1", "0", "0"], ["0", "l", "0", "0"],
            ["0", "0", "l", "1"], ["0", "0", "0", "l"]]


def _jordan2_invertible(branch):
    sign = {"plus": ("+", "-"), "minus": ("-", "+")}[branch]
    solution = [[f"l{sign[0]}l*r", "r^2"], ["-l^2", f"l{sign[1]}l*r"]]

    def draw(field, rng):
        lam = _scalar(field, rng, nonzero=True)
        a, r = _square(field, rng)
        return {"lam": lam, "branch": branch, "a": a}, {"l": lam, "r": r}

    return Formula("lr", _J2, solution, (), draw)


def _toeplitz_draw(field, rng):
    lam = _scalar(field, rng, nonzero=True)
    return {"lam": lam, "branch": "toeplitz"}, {"l": lam}


def _jordan2_nilpotent_draw(field, rng):
    a, b, alpha = (_scalar(field, rng) for _ in range(3))
    a, b = rng.choice([(a, field.zero()), (field.zero(), b)])
    return {"a": a, "b": b, "alpha": alpha}, {"a": a, "b": b, "x": alpha}


def _jordan3_nilpotent_draw(field, rng):
    a, b, c, k = (_scalar(field, rng) for _ in range(4))
    f, i = k * b, -(k * a)  # af + bi = 0
    if rng.random() < 0.25:
        a = b = field.zero()
        f, i = _scalar(field, rng), _scalar(field, rng)
    values = {"a": a, "b": b, "c": c, "f": f, "i": i}
    return values, values


def _nilpotent_general(n):
    a_vars, b_vars = "ABCDEFGH"[:n - 2], "IJKLMNOP"[:n - 2]
    rows = [["0"] * n for _ in range(n)]
    rows[0][1:n - 1] = list(a_vars)
    rows[0][n - 1] = "z"
    rows[1][n - 2] = "+".join(a_vars[i] + b_vars[i + 1] for i in range(n - 3))
    for r in range(1, n - 1):
        rows[r][n - 1] = b_vars[r - 1]

    def draw(field, rng):
        a = [_scalar(field, rng) for _ in a_vars]
        b = [_scalar(field, rng) for _ in b_vars]
        alpha = _scalar(field, rng)
        values = dict(zip(a_vars + b_vars + "z", a + b + [alpha]))
        return {"n": n, "a": a, "b": b, "alpha": alpha}, values

    return Formula(a_vars + b_vars + "z", _shift(n), rows, (), draw)


def _commuting_nilpotent(n, variant):
    """B + x*B^(n-1) + y*B^n on the shift block B of size n+1, or the same
    without the B term."""
    offsets = {n - 1: "x", n: "y", **({1: "1"} if variant == "with_B" else {})}
    rows = [[offsets.get(j - i, "0") for j in range(n + 1)] for i in range(n + 1)]

    def draw(field, rng):
        alpha, beta = _scalar(field, rng), _scalar(field, rng)
        return ({"n": n, "variant": variant, "alpha": alpha, "beta": beta},
                {"x": alpha, "y": beta})

    return Formula("xy", _shift(n + 1), rows, (), draw)


def _two_block_case(case):
    """[[X1, 0], [X2, 0]] with X1 the plus branch at a = r^2."""
    x2, side, lam_rule, a_free = {
        "i": ([["b", "e*t-b*t"], ["-e*l", "e"]], ("r", "l*t-1"), "*", False),
        "ii": ([["c*u+e*u^2", "c"], ["e*u", "e"]], ("l-1", "r*u-u-1"), "1", True),
        "iii": ([["e*u^2", "0"], ["e*l*u", "e"]], ("r*u-u-1",), "!1", True),
        "iv": ([["b", "0"], ["0", "0"]], ("r-1",), "!1", False),
        "v": ([["b", "c"], ["-c", "0"]], ("l-1", "r-1"), "1", False),
    }[case]
    x1 = [["l+l*r", "r^2"], ["-l^2", "l-l*r"]]
    solution = [row + ["0", "0"] for row in x1 + x2]

    def draw(field, rng):
        lam = _eigenvalue(field, rng, lam_rule)
        if a_free:
            a, r = _square(field, rng, avoid=(0, 1))
        else:  # a = 0 in case i, else a = 1 with the root 1 that Field.sqrt gives
            r = field.zero() if case == "i" else field.one()
            a = r * r
        b, c, e = (_scalar(field, rng) for _ in range(3))
        one = field.one()
        values = {"l": lam, "r": r, "t": one / lam, "b": b, "c": c, "e": e,
                  "u": one / (r - one) if a_free else field.zero()}
        return {"case": case, "lam": lam, "a": a, "b": b, "c": c, "e": e}, values

    return Formula("lrtubce", _DIAG_J2, solution, side, draw)


PROOFS = {
    "jordan2-invertible": {
        "toeplitz": Formula("l", _J2, _J2, (), _toeplitz_draw),
        "plus": _jordan2_invertible("plus"),
        "minus": _jordan2_invertible("minus"),
    },
    "jordan2-nilpotent": {
        "": Formula("abx", _shift(2), [["a", "x"], ["0", "b"]], ("a*b",),
                    _jordan2_nilpotent_draw),
    },
    "jordan3-nilpotent": {
        "": Formula("abcfi", _shift(3), [["a", "b", "c"], ["0", "0", "f"], ["0", "0", "i"]],
                    ("a*f+b*i",), _jordan3_nilpotent_draw),
    },
    "nilpotent-general": {f"n={n}": _nilpotent_general(n) for n in range(4, 11)},
    "commuting-nilpotent": {f"n={n},{variant}": _commuting_nilpotent(n, variant)
                            for n in range(3, 9) for variant in ("with_B", "without_B")},
    "two-block-case": {case: _two_block_case(case) for case in ("i", "ii", "iii", "iv", "v")},
}

# Catalog families with no proof here, each with the reason it needs none.
UNPROVEN = {
    "two-block-offdiag": "keeps its residual check on each call: its diagnostic "
                         "variant Y1 = Z S^-1 A fails for generic S",
    "block-diagonal": "takes solutions as input; its docstring gives the argument",
    "pencil": "takes a solution as input; its docstring gives the argument",
    "conjugate": "takes a solution as input; its docstring gives the argument",
}

CASES = [(name, case) for name, cases in PROOFS.items() for case in cases]


def _matmul(p, q, zero):
    return [[sum((p[i][k] * q[k][j] for k in range(len(q))), zero)
             for j in range(len(q[0]))] for i in range(len(p))]


def _residual_normal_forms(formula):
    ring = PolyRing(formula.variables)
    a = [[ring.parse(e) for e in row] for row in formula.coefficient]
    x = [[ring.parse(e) for e in row] for row in formula.solution]
    side = [ring.parse(g) for g in formula.side]
    for g in side:  # monic over Z, so the division stays in Z
        assert g.lc() == 1 and all(c.denominator == 1 for _, c in g.terms), g
    zero = ring.zero()
    axa = _matmul(_matmul(a, x, zero), a, zero)
    xax = _matmul(_matmul(x, a, zero), x, zero)
    return [normal_form(axa[i][j] - xax[i][j], side)
            for i in range(len(a)) for j in range(len(a))]


def test_every_catalog_family_is_proven_or_named():
    names = {f.name for f in CATALOG}
    assert not set(PROOFS) & set(UNPROVEN)
    assert set(PROOFS) | set(UNPROVEN) == names
    assert {f.name for f in CATALOG if all(p.kind != "matrix" for p in f.params)} \
        == set(PROOFS)


@pytest.mark.parametrize("name, case", CASES)
def test_family_residual_vanishes_modulo_its_side_conditions(name, case):
    assert all(nf.is_zero for nf in _residual_normal_forms(PROOFS[name][case]))


def test_a_missing_side_condition_leaves_a_residual():
    unconstrained = replace(PROOFS["jordan3-nilpotent"][""], side=())
    assert any(not nf.is_zero for nf in _residual_normal_forms(unconstrained))


@pytest.mark.parametrize("spec", ["rat", "gf:5", "quad:2"])
@pytest.mark.parametrize("name, case", CASES)
def test_formula_is_what_the_constructor_builds(name, case, spec):
    field = Field.from_spec(spec)
    formula = PROOFS[name][case]
    ring = PolyRing(formula.variables)
    rng = random.Random(f"{name}/{case}/{spec}")
    for _ in range(4):
        params, values = formula.draw(field, rng)
        point = [values[v] for v in ring.variables]
        assert all(ring.parse(g).evaluate(field, point).is_zero for g in formula.side)

        def evaluate(rows):
            return Matrix.from_rows(field, [[ring.parse(e).evaluate(field, point) for e in row]
                                            for row in rows])

        assert build_family(field, name, params) == \
            (evaluate(formula.coefficient), evaluate(formula.solution))


def test_parameter_families_compute_no_residual(monkeypatch):
    """A proven family is built without a residual; every residual, under
    whichever name it was imported, builds a core.ResidualReport."""
    calls = []
    report = core.ResidualReport
    monkeypatch.setattr(core, "ResidualReport",
                        lambda *args: calls.append(args) or report(*args))
    rng = random.Random(28)
    for name, case in CASES:
        for spec in ("rat", "gf:5", "quad:2"):
            field = Field.from_spec(spec)
            build_family(field, name, PROOFS[name][case].draw(field, rng)[0])
    assert calls == []
