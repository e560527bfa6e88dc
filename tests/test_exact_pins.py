"""Byte pins for the commands that reduce matrices over Q and Q(s).

Each case writes fixed matrices to files and runs one command on them; its
exit code and the sha256 of its stdout must match those recorded in
``data/exact_pins.json``. The cases cover Sylvester systems with a unique
solution, a homogeneous one and an inconsistent one over ``rat`` (n = 3..6),
``quad:2`` (n = 3, 4) and ``quad:1/2``, centralizer and annihilator bases,
the two family constructors that take inverses, ``verify`` and ``pencil``
(over ``quad:1/2`` as well), and the constructors that build from
parameters alone (``commuting-nilpotent``, ``nilpotent-general``,
``jordan2-invertible`` and the five cases of ``two-block-case``) over
``rat``, ``quad:2`` and ``quad:1/2``.

The matrices are P J P^-1 for a Jordan matrix J and a conjugator P built
from elementary row operations with fractional multipliers, so they are
dense and their reductions meet denominators. File paths never reach
stdout, so the hashes do not depend on where the files are written.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from yangbaxter.cli import main
from yangbaxter.fields import Field
from yangbaxter.matrices import Matrix, jordan_matrix

PINS = json.loads((Path(__file__).parent / "data" / "exact_pins.json").read_text(encoding="utf-8"))


def elementary(field, n, i, j, c):
    """I + c E_ij."""
    return Matrix.identity(field, n) + Matrix.unit(field, n, n, i, j).scale(c)


def conjugated(field, blocks, salt=0):
    """P J P^-1 for the Jordan matrix J of ``blocks`` and a product P of
    n + 1 elementary operations whose inverses are known in closed form."""
    n = sum(size for _, size in blocks)
    p = q = Matrix.identity(field, n)
    for k in range(n + 1):
        i, j = (k + salt) % n, (2 * k + 1 + salt) % n
        if i == j:
            j = (j + 1) % n
        c = Fraction((-1) ** k * (k % 3 + 1), 1 + (k + salt) % 3)
        p = p * elementary(field, n, i, j, c)
        q = elementary(field, n, i, j, -c) * q
    return p * jordan_matrix(field, blocks) * q


def dense(field, n, m, salt=0):
    """A fixed n-by-m matrix with small fractional entries."""
    def entry(i, j):
        v = Fraction((3 * i - 2 * j + salt) % 7 - 3, 1 + (i + 2 * j + salt) % 4)
        if field.radicand is not None and (i + j + salt) % 2:
            return (v, Fraction(1 - 2 * (i % 2), 1 + j % 3))
        return v
    return Matrix.from_rows(field, [[entry(i, j) for j in range(m)] for i in range(n)])


SPLITS = {3: [2, 1], 4: [2, 2], 5: [3, 2], 6: [3, 2, 1]}


def eigenvalues(field, count, shift):
    """``count`` distinct eigenvalues, positive in their rational part;
    irrational ones in a quadratic field."""
    out = [Fraction(2 * k + 1 + shift, 2) for k in range(count)]
    if field.radicand is not None:
        return [field.scalar((v, (-1) ** k)) for k, v in enumerate(out)]
    return [field.scalar(v) for v in out]


def sylvester_cases(spec, n):
    field = Field.from_spec(spec)
    split = SPLITS[n]
    lams = eigenvalues(field, len(split), 0)
    mus = eigenvalues(field, len(split), 1)  # lam + mu has positive rational part
    a = conjugated(field, list(zip(lams, split)))
    b_unique = conjugated(field, list(zip(mus, split)), salt=1)
    b_meet = conjugated(field, list(zip([-lam for lam in reversed(lams)], split)), salt=2)
    zero = Matrix.zero(field, n)
    return {
        f"sylvester {spec} n={n} unique": ("sylvester", "--A", a, "--B", b_unique,
                                           "--C", dense(field, n, n)),
        f"sylvester {spec} n={n} homogeneous": ("sylvester", "--A", a, "--B", b_meet,
                                                "--C", zero),
        # AX - XA has trace 0, so it never equals I
        f"sylvester {spec} n={n} inconsistent": ("sylvester", "--A", a, "--B", -a,
                                                 "--C", Matrix.identity(field, n)),
    }


def space_cases(spec):
    field = Field.from_spec(spec)
    lam, mu = eigenvalues(field, 2, 2)
    zero = field.zero()
    cent = conjugated(field, [(lam, 2), (lam, 1), (mu, 2)], salt=3)
    sing = conjugated(field, [(zero, 2), (zero, 1), (mu, 2)], salt=4)
    return {
        f"centralizer {spec}": ("centralizer", "--A", cent),
        f"annihilator {spec}": ("centralizer", "--A", sing, "--annihilator"),
        f"centralizer {spec} json": ("centralizer", "--A", sing, "--json"),
    }


def solution_setup(field):
    """A = P diag(J2(lam), 0) P^-1, a solution X, an annihilator element M
    and a centralizer element g, as in the plus branch of the 2x2
    invertible family with a = 9."""
    lam = eigenvalues(field, 1, 4)[0]
    zero, r = field.zero(), field.scalar(3)

    def conj(m):
        return p * m * q

    blocks = [(lam, 2), (zero, 1)]
    n = 3
    p = q = Matrix.identity(field, n)
    for i, j, c in [(0, 1, Fraction(1, 2)), (2, 0, Fraction(-3)), (1, 2, Fraction(2, 3))]:
        p = p * elementary(field, n, i, j, c)
        q = elementary(field, n, i, j, -c) * q
    x1 = [[lam + lam * r, r * r, zero], [-(lam * lam), lam - lam * r, zero],
          [zero, zero, field.scalar(Fraction(-5, 4))]]
    m = Matrix.unit(field, n, n, 2, 2).scale(Fraction(7, 3))
    g = Matrix.from_rows(field, [[2, Fraction(1, 5), 0], [0, 2, 0], [0, 0, Fraction(-3, 2)]])
    return conj(jordan_matrix(field, blocks)), conj(Matrix.from_rows(field, x1)), conj(m), conj(g)


def desk_cases(spec):
    field = Field.from_spec(spec)
    a, x, m, g = solution_setup(field)
    bumped = x + Matrix.unit(field, 3, 3, 0, 0)
    lam = eigenvalues(field, 1, 3)[0]
    s = Matrix.from_rows(field, [[3, Fraction(-1, 2), Fraction(2, 7)], [0, 3, Fraction(-1, 2)],
                                 [0, 0, 3]])  # a polynomial in the 3x3 block: commutes with it
    offdiag = ("construct", "--family", "two-block-offdiag", "--field", spec,
               "--param", f"lam={lam}", "--param", "k=3", "--param", "z=1/2,-2,3",
               "--param", ("s", s))
    return {
        f"construct {spec} two-block-offdiag upper": offdiag,
        f"construct {spec} two-block-offdiag lower json": (
            *offdiag, "--param", "side=lower", "--json"),
        f"construct {spec} conjugate": (
            "construct", "--family", "conjugate", "--field", spec, "--param", ("A", a),
            "--param", ("X", x), "--param", ("g", g)),
        f"verify {spec} solution": ("verify", "--A", a, "--X", x),
        f"verify {spec} perturbed": ("verify", "--A", a, "--X", bumped),
        f"pencil {spec} annihilator": ("pencil", "--A", a, "--X0", x, "--X1", m),
        f"pencil {spec} coefficient json": ("pencil", "--A", a, "--X0", x, "--X1", a, "--json"),
    }


def family_cases(spec):
    """The constructors that build from parameters alone: square roots,
    powers of the shift block and quotients by lam and by sqrt(a) - 1,
    each checked by its residual before it is printed."""
    field = Field.from_spec(spec)
    quad = field.radicand is not None
    # a square whose root is irrational in a quadratic field: (1 + s)^2
    root_of = {"rat": "49/81", "quad:2": "3+2*s", "quad:1/2": "3/2+2*s"}[spec]
    lam = "7/9-2/3*s" if quad else "7/9"
    b, c, e = ("3/7+1/2*s", "-5/9", "2/7-3*s") if quad else ("3/7", "-5/9", "2/7")

    def construct(family, *params):
        argv = ("construct", "--family", family, "--field", spec)
        for param in params:
            argv += ("--param", param)
        return argv

    return {
        f"construct {spec} commuting-nilpotent with_B": construct(
            "commuting-nilpotent", "n=3", "variant=with_B", f"alpha={lam}", "beta=-2/3"),
        f"construct {spec} commuting-nilpotent without_B json": (
            *construct("commuting-nilpotent", "n=4", "variant=without_B", "alpha=7/9",
                       f"beta={b}"), "--json"),
        f"construct {spec} nilpotent-general": construct(
            "nilpotent-general", "n=5", f"a=1/2,{c},7/9", f"b={b},-1,{e}", f"alpha={lam}"),
        f"construct {spec} jordan2-invertible plus": construct(
            "jordan2-invertible", f"lam={lam}", "branch=plus", f"a={root_of}"),
        f"construct {spec} jordan2-invertible minus json": (
            *construct("jordan2-invertible", f"lam={lam}", "branch=minus", f"a={root_of}"),
            "--json"),
        f"construct {spec} two-block-case i": construct(
            "two-block-case", "case=i", f"lam={lam}", f"b={b}", f"e={e}"),
        f"construct {spec} two-block-case ii": construct(
            "two-block-case", "case=ii", "lam=1", f"a={root_of}", f"c={c}", f"e={e}"),
        f"construct {spec} two-block-case iii json": (
            *construct("two-block-case", "case=iii", f"lam={lam}", f"a={root_of}", f"e={e}"),
            "--json"),
        f"construct {spec} two-block-case iv": construct(
            "two-block-case", "case=iv", f"lam={lam}", f"b={b}"),
        f"construct {spec} two-block-case v": construct(
            "two-block-case", "case=v", "lam=1", f"b={b}", f"c={c}"),
    }


CASES = {}
for _n in (3, 4, 5, 6):
    CASES.update(sylvester_cases("rat", _n))
for _n in (3, 4):
    CASES.update(sylvester_cases("quad:2", _n))
CASES.update({k: v for k, v in sylvester_cases("quad:1/2", 3).items() if "unique" in k})
for _spec in ("rat", "quad:2"):
    CASES.update(space_cases(_spec))
    CASES.update(desk_cases(_spec))
CASES.update({k: v for k, v in desk_cases("quad:1/2").items()
              if k.startswith(("verify", "pencil"))})
for _spec in ("rat", "quad:2", "quad:1/2"):
    CASES.update(family_cases(_spec))


def argv_of(case, write_matrix):
    """The argv of a case with each matrix written to a file; a (name,
    matrix) pair becomes a name=path parameter."""
    out = []
    for arg in case:
        if isinstance(arg, Matrix):
            arg = write_matrix(arg)
        elif isinstance(arg, tuple):
            arg = f"{arg[0]}={write_matrix(arg[1])}"
        out.append(arg)
    return out


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_path_output_is_pinned(name, write_matrix, capsys):
    code = main(argv_of(CASES[name], write_matrix))
    out, err = capsys.readouterr()
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        PINS[name]["code"], PINS[name]["stdout"])
