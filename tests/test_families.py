import random

import pytest
from references import is_similar

from yangbaxter import families as fam
from yangbaxter.core import is_solution, residual
from yangbaxter.errors import ConstructionError, PreconditionError, SideConditionError
from yangbaxter.matrices import (
    Matrix,
    jordan_block,
    jordan_chain_conjugator,
    jordan_matrix,
    nilpotent_block,
)


def M(field, rows):
    return Matrix.from_rows(field, rows)


def test_jordan2_invertible_examples(rat):
    one = rat.one()
    assert fam.family_2x2_invertible(one, "plus", rat.scalar(4)) == \
        M(rat, [[3, 4], [-1, -1]])
    assert fam.family_2x2_invertible(one, "plus", rat.scalar(0)) == \
        M(rat, [[1, 0], [-1, 1]])
    two = rat.scalar(2)
    assert fam.family_2x2_invertible(two, "toeplitz") == jordan_block(rat, 2, 2)


def test_jordan2_invertible_unrepresentable(rat):
    with pytest.raises(SideConditionError):
        fam.family_2x2_invertible(rat.one(), "plus", rat.scalar(2))
    with pytest.raises(SideConditionError):
        fam.family_2x2_invertible(rat.zero(), "toeplitz")


def test_jordan2_invertible_members_similar_to_block(rat, quad2, gf5):
    cases = [(rat, v) for v in (0, 1, 4)] + [(quad2, 2), (gf5, 4)]
    for field, a in cases:
        for lam_v in (1, 2):
            lam = field.scalar(lam_v)
            for branch in ("plus", "minus"):
                x = fam.family_2x2_invertible(lam, branch, field.scalar(a))
                assert x.is_invertible()
                assert is_similar(x, jordan_block(field, lam, 2),
                                  [lam, field.zero()])


def test_jordan2_invertible_branches_coincide_in_char_two(gf2):
    plus = fam.family_2x2_invertible(gf2.one(), "plus", gf2.one())
    minus = fam.family_2x2_invertible(gf2.one(), "minus", gf2.one())
    assert plus == minus


def test_jordan2_nilpotent_examples(rat):
    assert fam.family_2x2_nilpotent(rat.scalar(1), rat.zero(), rat.scalar(5)) == \
        M(rat, [[1, 5], [0, 0]])
    assert fam.family_2x2_nilpotent(rat.zero(), rat.zero(), rat.zero()).is_zero
    assert fam.family_2x2_nilpotent(rat.zero(), rat.scalar(3), rat.scalar(7)) == \
        M(rat, [[0, 7], [0, 3]])
    with pytest.raises(SideConditionError):
        fam.family_2x2_nilpotent(rat.one(), rat.one(), rat.zero())


def test_jordan3_nilpotent_examples(rat):
    x = fam.family_3x3_nilpotent(*[rat.scalar(v) for v in (1, 1, 0, 1, -1)])
    assert is_solution(nilpotent_block(rat, 3), x)
    x2 = fam.family_3x3_nilpotent(*[rat.scalar(v) for v in (0, 0, 9, 0, 0)])
    assert x2 == Matrix.unit(rat, 3, 3, 0, 2).scale(rat.scalar(9))
    x3 = fam.family_3x3_nilpotent(*[rat.scalar(v) for v in (2, 0, 0, 0, 5)])
    assert x3 == M(rat, [[2, 0, 0], [0, 0, 0], [0, 0, 5]])
    with pytest.raises(SideConditionError):
        fam.family_3x3_nilpotent(*[rat.scalar(v) for v in (1, 1, 0, 1, 1)])


def test_nilpotent_general_examples(rat):
    x = fam.family_nilpotent_general(
        4, [rat.scalar(1), rat.scalar(2)], [rat.scalar(3), rat.scalar(4)],
        rat.scalar(5))
    assert is_solution(nilpotent_block(rat, 4), x)
    assert x[1, 2] == rat.scalar(4)  # a1 * b2
    zero = fam.family_nilpotent_general(4, [rat.zero()] * 2, [rat.zero()] * 2,
                                        rat.zero())
    assert zero.is_zero
    x5 = fam.family_nilpotent_general(
        5, [rat.scalar(1), rat.zero(), rat.zero()],
        [rat.zero(), rat.zero(), rat.scalar(1)], rat.zero())
    assert is_solution(nilpotent_block(rat, 5), x5)
    with pytest.raises(SideConditionError):
        fam.family_nilpotent_general(4, [rat.one()], [rat.one()] * 2, rat.zero())


def test_commuting_nilpotent_examples(rat):
    b4 = nilpotent_block(rat, 4)
    x = fam.commuting_nilpotent(3, "with_B", rat.scalar(2), rat.scalar(5))
    assert x == b4 + (b4 ** 2).scale(rat.scalar(2)) + (b4 ** 3).scale(rat.scalar(5))
    assert fam.commuting_nilpotent(3, "without_B", rat.zero(), rat.zero()).is_zero
    b5 = nilpotent_block(rat, 5)
    x2 = fam.commuting_nilpotent(4, "without_B", rat.one(), rat.one())
    assert x2 == b5 ** 3 + b5 ** 4
    with pytest.raises(SideConditionError):
        fam.commuting_nilpotent(2, "with_B", rat.zero(), rat.zero())


def test_commuting_members_commute(gf5):
    rng = random.Random(31)
    b = nilpotent_block(gf5, 5)
    for _ in range(10):
        x = fam.commuting_nilpotent(4, rng.choice(["with_B", "without_B"]),
                                    gf5.scalar(rng.randint(0, 4)),
                                    gf5.scalar(rng.randint(0, 4)))
        assert b * x == x * b


def test_block_diagonal_examples(rat):
    a1, a2 = jordan_block(rat, 1, 2), jordan_block(rat, 2, 2)
    coeff, x = fam.block_diagonal([(a1, a1), (a2, Matrix.zero(rat, 2))])
    assert coeff.nrows == 4 and is_solution(coeff, x)
    coeff1, x1 = fam.block_diagonal([(a1, a1)])
    assert (coeff1, x1) == (a1, a1)
    ex2 = fam.family_2x2_nilpotent(rat.one(), rat.zero(), rat.scalar(5))
    ex3 = fam.family_3x3_nilpotent(*[rat.scalar(v) for v in (1, 1, 0, 1, -1)])
    coeff5, x5 = fam.block_diagonal([
        (nilpotent_block(rat, 2), ex2), (nilpotent_block(rat, 3), ex3)])
    assert coeff5.nrows == 5 and is_solution(coeff5, x5)
    with pytest.raises(PreconditionError):
        fam.block_diagonal([(a1, Matrix.identity(rat, 2))])


def test_two_block_offdiag_examples(rat):
    two = rat.scalar(2)
    a = jordan_block(rat, 2, 2)
    coeff, x = fam.two_block_offdiag(two, 2, [rat.one()], Matrix.identity(rat, 2))
    assert x == Matrix.block([
        [Matrix.zero(rat, 2), a.inverse()], [Matrix.zero(rat, 2), a]])
    coeff, x = fam.two_block_offdiag(two, 2, [rat.zero(), rat.one()],
                                     Matrix.identity(rat, 2))
    assert x == Matrix.block([
        [Matrix.zero(rat, 2), Matrix.identity(rat, 2)], [Matrix.zero(rat, 2), a]])
    coeff, x = fam.two_block_offdiag(rat.one(), 2, [], Matrix.identity(rat, 2),
                                     side="lower")
    a1 = jordan_block(rat, 1, 2)
    assert x == Matrix.block([
        [a1, Matrix.zero(rat, 2)], [Matrix.zero(rat, 2), Matrix.zero(rat, 2)]])


def test_two_block_offdiag_degenerates_to_block_diagonal(rat):
    coeff, x = fam.two_block_offdiag(rat.scalar(3), 2, [], Matrix.identity(rat, 2))
    a = jordan_block(rat, 3, 2)
    bd_coeff, bd_x = fam.block_diagonal([(a, Matrix.zero(rat, 2)), (a, a)])
    assert (coeff, x) == (bd_coeff, bd_x)


def test_two_block_offdiag_with_branch_conjugator(rat):
    two = rat.scalar(2)
    branch = fam.family_2x2_invertible(two, "plus", rat.scalar(4))
    s = jordan_chain_conjugator(branch, two)
    coeff, x = fam.two_block_offdiag(two, 2, [rat.one(), rat.scalar(3)], s)
    assert is_solution(coeff, x)


def test_two_block_offdiag_gate_rejects_non_solution_conjugate(rat):
    # S A S^-1 here is similar to A but is not itself a solution
    s = M(rat, [[1, 0], [1, 1]])
    with pytest.raises(SideConditionError):
        fam.two_block_offdiag(rat.scalar(2), 2, [rat.one()], s)


def test_two_block_offdiag_wrong_power_fails_for_branch_conjugator(rat):
    two = rat.scalar(2)
    branch = fam.family_2x2_invertible(two, "plus", rat.scalar(4))
    s = jordan_chain_conjugator(branch, two)
    with pytest.raises(ConstructionError):
        fam.two_block_offdiag(two, 2, [rat.one()], s, offdiag_uses_inverse=False)


def test_two_block_offdiag_wrong_power_passes_when_conjugator_commutes(rat):
    # with S = I everything lives in the polynomial algebra of A, so even the
    # direct-power variant assembles a genuine solution
    coeff, x = fam.two_block_offdiag(rat.scalar(2), 2, [rat.one()],
                                     Matrix.identity(rat, 2),
                                     offdiag_uses_inverse=False)
    a = jordan_block(rat, 2, 2)
    assert x == Matrix.block([[Matrix.zero(rat, 2), a], [Matrix.zero(rat, 2), a]])
    assert is_solution(coeff, x)


def _lower_left(x):
    return M(x.field, [[x[2, 0], x[2, 1]], [x[3, 0], x[3, 1]]])


def test_two_block_case_examples(rat):
    coeff, x = fam.two_block_case("i", rat.scalar(2), b=rat.one(), e=rat.scalar(3))
    assert _lower_left(x) == M(rat, [[1, 1], [-6, 3]])
    coeff, x = fam.two_block_case("iv", rat.scalar(2), b=rat.scalar(3))
    assert _lower_left(x) == M(rat, [[3, 0], [0, 0]])
    coeff, x = fam.two_block_case("v", rat.one(), b=rat.scalar(2), c=rat.scalar(3))
    assert _lower_left(x) == M(rat, [[2, 3], [-3, 0]])


def test_two_block_case_constraints(rat):
    with pytest.raises(SideConditionError):
        fam.two_block_case("ii", rat.scalar(2), a=rat.scalar(4), c=rat.one(),
                           e=rat.one())  # lam must be 1
    with pytest.raises(SideConditionError):
        fam.two_block_case("iii", rat.one(), a=rat.scalar(4), e=rat.one())
    with pytest.raises(SideConditionError):
        fam.two_block_case("ii", rat.one(), a=rat.one(), c=rat.one(), e=rat.one())
    with pytest.raises(SideConditionError):
        fam.two_block_case("vi", rat.one())


def test_pencil_extend_examples(rat):
    a = jordan_matrix(rat, [(0, 3), (2, 2)])
    m = Matrix.unit(rat, 5, 5, 0, 2)
    x = fam.pencil_extend(a, Matrix.zero(rat, 5), m, rat.scalar(7))
    assert x == m.scale(rat.scalar(7))
    assert fam.pencil_extend(a, x, Matrix.zero(rat, 5), rat.scalar(3)) == x
    a2 = jordan_matrix(rat, [(0, 3), (0, 2)])
    m2 = Matrix.unit(rat, 5, 5, 0, 4) + Matrix.unit(rat, 5, 5, 3, 2)
    assert is_solution(a2, fam.pencil_extend(a2, Matrix.zero(rat, 5), m2, rat.one()))
    with pytest.raises(SideConditionError):
        fam.pencil_extend(a, Matrix.zero(rat, 5), Matrix.identity(rat, 5), rat.one())


def test_pencil_extend_affine_in_alpha(rat):
    a = jordan_matrix(rat, [(0, 3), (2, 2)])
    base = Matrix.zero(rat, 5)
    m = Matrix.unit(rat, 5, 5, 0, 2)
    for alpha in (-2, -1, 0, 1, 7):
        assert is_solution(a, fam.pencil_extend(a, base, m, rat.scalar(alpha)))


def test_conjugate_solution_examples(rat):
    a = jordan_block(rat, 1, 2)
    x = M(rat, [[3, 4], [-1, -1]])
    g = Matrix.identity(rat, 2) + nilpotent_block(rat, 2)
    assert is_solution(a, fam.conjugate_solution(a, x, g))
    assert fam.conjugate_solution(a, x, Matrix.identity(rat, 2)) == x
    b3 = nilpotent_block(rat, 3)
    ex3 = fam.family_3x3_nilpotent(*[rat.scalar(v) for v in (1, 1, 0, 1, -1)])
    g3 = Matrix.identity(rat, 3) + b3.scale(rat.scalar(2)) + b3 * b3
    assert is_solution(b3, fam.conjugate_solution(b3, ex3, g3))
    with pytest.raises(SideConditionError):
        fam.conjugate_solution(a, x, M(rat, [[1, 0], [1, 1]]))  # not central


def test_catalog_and_builders(rat):
    names = {f.name for f in fam.CATALOG}
    assert {"jordan2-invertible", "jordan2-nilpotent", "jordan3-nilpotent",
            "nilpotent-general", "commuting-nilpotent", "block-diagonal",
            "two-block-offdiag", "two-block-case", "pencil",
            "conjugate"} == names
    assert fam.find_family("ex1").name == "jordan2-invertible"
    assert fam.find_family("ex2").name == "jordan2-nilpotent"
    assert fam.find_family("ex3").name == "jordan3-nilpotent"
    with pytest.raises(SideConditionError):
        fam.find_family("nope")
    coeff, x = fam.build_family(rat, "ex1", {
        "lam": rat.one(), "branch": "plus", "a": rat.scalar(4)})
    assert x == M(rat, [[3, 4], [-1, -1]])
    for f in fam.CATALOG:
        doc = f.to_json()
        assert doc["name"] == f.name and isinstance(doc["params"], list)


def _soundness_draws(field, rng, count=20):
    """Yield (coefficient, solution) pairs across every family."""
    squares = [v for v in range(8)
               if field.sqrt(field.scalar(v * v)) is not None]
    for _ in range(count):
        lam = field.scalar(rng.choice([1, 2, 3]))
        root_seed = field.scalar(rng.choice(squares)) ** 2
        branch = rng.choice(["toeplitz", "plus", "minus"])
        x = fam.family_2x2_invertible(lam, branch, root_seed)
        yield jordan_block(field, lam, 2), x

        a_or_b_zero = rng.choice([(rng.randint(-4, 4), 0), (0, rng.randint(-4, 4))])
        x = fam.family_2x2_nilpotent(field.scalar(a_or_b_zero[0]),
                                     field.scalar(a_or_b_zero[1]),
                                     field.scalar(rng.randint(-4, 4)))
        yield nilpotent_block(field, 2), x

        a, f = field.scalar(rng.randint(-4, 4)), field.scalar(rng.randint(-4, 4))
        b = field.scalar(rng.randint(-3, 3))
        af = a * f
        if b.is_zero:
            i = field.zero() if not af.is_zero else field.scalar(rng.randint(-3, 3))
            if not af.is_zero:
                f = field.zero()
        else:
            i = -(af) / b
        x = fam.family_3x3_nilpotent(a, b, field.scalar(rng.randint(-4, 4)), f, i)
        yield nilpotent_block(field, 3), x

        n = rng.randint(4, 6)
        x = fam.family_nilpotent_general(
            n, [field.scalar(rng.randint(-3, 3)) for _ in range(n - 2)],
            [field.scalar(rng.randint(-3, 3)) for _ in range(n - 2)],
            field.scalar(rng.randint(-3, 3)))
        yield nilpotent_block(field, n), x

        n = rng.randint(3, 5)
        x = fam.commuting_nilpotent(n, rng.choice(["with_B", "without_B"]),
                                    field.scalar(rng.randint(-3, 3)),
                                    field.scalar(rng.randint(-3, 3)))
        yield nilpotent_block(field, n + 1), x


def test_soundness_every_family_random_draws(rat, gf5):
    rng = random.Random(101)
    for field in (rat, gf5):
        for coeff, x in _soundness_draws(field, rng, count=5):
            assert residual(coeff, x).is_solution
