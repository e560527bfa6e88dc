import copy
import pickle
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from yangbaxter.errors import (
    DegenerateExtensionError,
    FieldError,
    FieldMismatchError,
    ParseError,
)
from yangbaxter.fields import Field, _is_prime, power


def test_prime_check():
    Field.gf(2)
    Field.gf(13)
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(FieldError):
            Field.gf(bad)


def test_is_prime_agrees_with_trial_division_below_1e5():
    primes = []
    for n in range(10**5):
        prime = n >= 2 and all(n % q for q in primes if q * q <= n)
        if prime:
            primes.append(n)
        assert _is_prime(n) == prime, n


def test_large_moduli_are_decided_at_once():
    start = time.perf_counter()
    assert Field.gf(2**61 - 1).p == 2**61 - 1
    with pytest.raises(FieldError, match="must be prime"):
        Field.gf(998244353 * 1000000007)  # trial division would take ~10^9 steps
    assert time.perf_counter() - start < 1.0
    # the least strong pseudoprimes to the first k prime bases, k = 1, ..., 11
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not _is_prime(n)


def test_moduli_beyond_the_deterministic_bound_are_refused():
    """Miller-Rabin to the bases 2..37 is proven only below 318665857834031151167461,
    itself a strong pseudoprime to all of them."""
    bound = 318665857834031151167461
    assert _is_prime(bound)
    for p in (bound, 2**89 - 1):
        with pytest.raises(FieldError, match="too large"):
            Field.gf(p)


def test_degenerate_extension_rejected():
    for square in (0, 1, 4, Fraction(9, 4)):
        with pytest.raises(DegenerateExtensionError):
            Field.quadratic(square)
    Field.quadratic(2)
    Field.quadratic(-1)
    Field.quadratic(Fraction(1, 2))


def test_rational_canonical_form(rat):
    s = rat.parse("6/4")
    assert s.v == Fraction(3, 2)
    assert str(s) == "3/2"
    assert str(rat.parse("-10/5")) == "-2"


def test_gf_canonical_residues(gf5):
    assert gf5.scalar(7).v == 2
    assert gf5.scalar(-1).v == 4
    assert (gf5.scalar(2) * gf5.scalar(3)).v == 1
    assert gf5.scalar(3).inverse().v == 2
    assert gf5.scalar(Fraction(1, 2)).v == 3  # 2 * 3 = 1 mod 5


def test_gf3_square(gf3):
    assert (gf3.scalar(2) * gf3.scalar(2)).v == 1


def test_quadratic_arithmetic(quad2):
    s = quad2.symbol()
    assert (s * s) == quad2.scalar(2)
    x = quad2.scalar(1) + s
    y = x * x  # 3 + 2s
    assert y == quad2.scalar((3, 2))
    inv = x.inverse()
    assert x * inv == quad2.one()
    assert str(quad2.scalar((Fraction(1, 2), 3))) == "1/2+3*s"
    assert str(quad2.scalar((0, Fraction(-1, 2)))) == "-1/2*s"


def test_scalar_parse_round_trip(rat, gf5, quad2):
    for field, texts in (
        (rat, ["0", "2", "-3/4", "10/7"]),
        (gf5, ["0", "2", "4"]),
        (quad2, ["0", "2", "-3/4", "1/2+3*s", "1/2-3*s", "2*s", "-1/2*s",
                 "12*s", "1/32*s", "-12*s"]),
    ):
        for text in texts:
            assert str(field.parse(text)) == text


def test_scalar_parse_rejects_garbage(rat, gf5, quad2):
    for field, bad in (
        (rat, "1.5"), (rat, "1/0"), (rat, "a"), (rat, ""),
        (gf5, "1/2"), (gf5, "x"),
        (quad2, "s*2"), (quad2, "1+2"), (quad2, "1+s+s"), (quad2, "1 2"),
    ):
        with pytest.raises(ParseError):
            field.parse(bad)


def test_unicode_minus_accepted(rat):
    assert rat.parse("−3/4") == rat.parse("-3/4")


def test_field_mismatch(rat, gf3):
    with pytest.raises(FieldMismatchError):
        rat.one() + gf3.one()


def test_division_and_powers(rat, gf5):
    assert (rat.scalar(3) / rat.scalar(4)).v == Fraction(3, 4)
    assert (gf5.scalar(2) ** 4).v == 1
    assert (rat.scalar(2) ** -2).v == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        rat.zero().inverse()


def test_power_squares_from_the_lowest_set_bit():
    """base**k under a counting product: floor(log2 k) squares and one
    product per further set bit, so none for k = 0 or 1."""
    for k in range(40):
        calls = []

        def mul(u, v):
            calls.append(k)
            return u * v

        assert power(3, k, 1, mul) == 3 ** k
        assert len(calls) == (max(k.bit_length() - 1, 0) + max(k.bit_count() - 1, 0))


def test_sqrt_rational(rat):
    assert rat.sqrt(rat.scalar(4)) == rat.scalar(2)
    assert rat.sqrt(rat.scalar(Fraction(9, 4))) == rat.scalar(Fraction(3, 2))
    assert rat.sqrt(rat.scalar(2)) is None
    assert rat.sqrt(rat.scalar(-4)) is None


def test_sqrt_prime_field(gf5):
    squares = {(v * v) % 5 for v in range(5)}
    for v in range(5):
        root = gf5.sqrt(gf5.scalar(v))
        if v in squares:
            assert root is not None and (root * root).v == v
        else:
            assert root is None


def _smallest_root(p, a):
    return next((r for r in range(p) if r * r % p == a % p), None)


def test_sqrt_prime_field_matches_brute_force():
    for p in (2, 3, 5, 7, 11, 13, 17, 41, 97, 113):
        field = Field.gf(p)
        for a in range(p):
            root = field.sqrt(a)
            expected = _smallest_root(p, a)
            assert (root is None) == (expected is None)
            if root is not None:
                assert root.v == expected


def test_sqrt_large_prime_field():
    p = 1_000_000_009  # p - 1 = 8 * 125000001, so Tonelli-Shanks takes several rounds
    field = Field.gf(p)
    rng = random.Random(5)
    for _ in range(50):
        r = rng.randrange(1, p)
        assert field.sqrt(r * r).v == min(r, p - r)
    non_residue = next(z for z in range(2, 100) if pow(z, (p - 1) // 2, p) == p - 1)
    for _ in range(20):
        r = rng.randrange(1, p)
        assert field.sqrt(non_residue * r * r) is None


def test_sqrt_quadratic(quad2):
    # rational squares, multiples of the radicand, and mixed elements
    assert quad2.sqrt(quad2.scalar(4)) == quad2.scalar(2)
    root = quad2.sqrt(quad2.scalar(2))
    assert root is not None and root * root == quad2.scalar(2)
    assert quad2.sqrt(quad2.scalar(8)) is not None  # (2s)^2 = 8
    mixed = quad2.scalar((3, 2))  # (1 + s)^2
    root = quad2.sqrt(mixed)
    assert root is not None and root * root == mixed
    assert quad2.sqrt(quad2.scalar(5)) is None


def test_field_spec_round_trip():
    for field in (Field.rationals(), Field.gf(7), Field.quadratic(Fraction(-1, 3))):
        assert Field.from_spec(field.spec()) == field
    with pytest.raises(ParseError):
        Field.from_spec("reals")


def test_scalar_equality_is_representation_equality(rat, quad2):
    assert rat.parse("2/4") == rat.parse("1/2")
    assert quad2.scalar(3) == quad2.scalar((3, 0))
    assert hash(rat.scalar(2)) == hash(2)


def test_numbers_equal_only_the_canonical_value(gf5, quad2):
    two = gf5.scalar(2)
    assert two == 2 and two == Fraction(2)
    assert two != 7 and two != Fraction(1, 3)  # 7 and 1/3 reduce to 2 mod 5
    assert len({two, 7}) == 2 and two in {2: "x"}
    assert quad2.scalar((3, 0)) == 3 and quad2.scalar((3, 1)) != 3


def test_equal_scalars_hash_equally(rat, gf5, quad2):
    numbers = [0, 1, 2, 3, 5, 7, -1, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 2)]
    for field in (rat, gf5, quad2):
        scalars = [field.scalar(v) for v in numbers] + [field.scalar(v) for v in numbers[:5]]
        if field is quad2:
            scalars += [quad2.scalar((v, 1)) for v in numbers]
        for a in scalars:
            for b in scalars + numbers:
                if a == b:
                    assert hash(a) == hash(b), (field, a, b)


def test_fields_are_interned():
    assert Field.gf(5) is Field.from_spec("gf:5")
    assert Field.rationals() is Field.from_spec(" rat ")
    assert Field.quadratic(Fraction(1, 2)) is Field.from_spec("quad:1/2")
    assert Field.quadratic(2) is Field.from_spec("quad:4/2")
    for field in (Field.gf(7), Field.rationals(), Field.quadratic(-1)):
        assert copy.deepcopy(field) is field
        assert pickle.loads(pickle.dumps(field)) is field


def test_racing_threads_get_one_field():
    primes = [p for p in range(10_007, 10_200) if all(p % d for d in range(2, 101))][:6]
    workers = 8
    barrier = threading.Barrier(workers)
    seen = []

    def build():
        barrier.wait(timeout=10)
        seen.extend(Field.gf(p) for p in primes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == workers * len(primes)
    for p in primes:
        assert len({id(f) for f in seen if f.p == p}) == 1


def test_gf_elements_enumeration(gf3):
    assert [s.v for s in gf3.elements()] == [0, 1, 2]
    with pytest.raises(FieldError):
        list(Field.rationals().elements())
