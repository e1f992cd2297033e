import random
from fractions import Fraction
from math import gcd

import pytest

from closurekit import GF, QQ, PolyRing
from closurekit.errors import DivisionByZero, NonPrimeModulus, RingMismatch
from closurekit.fields import _is_prime
from closurekit.ring import _inverse


def q(a, b=1):
    return QQ.raw(Fraction(a, b))


def const(field, value):
    """``value`` as a constant polynomial over ``field``: stored
    coefficients are where the field arithmetic happens."""
    return PolyRing(field, ["x"]).from_scalar(value)


def assert_canonical(field, c):
    if field.characteristic:
        assert c.__class__ is int and 0 <= c < field.characteristic
    else:
        assert c.__class__ is int or (c.__class__ is Fraction
                                      and c.denominator > 1)


def test_rational_addition():
    total = const(QQ, Fraction(1, 2)) + const(QQ, Fraction(1, 3))
    assert total == const(QQ, Fraction(5, 6))
    assert total.LC == q(5, 6)


def test_additive_identity():
    a = const(QQ, Fraction(-7, 3))
    assert a + a.ring.zero == a
    assert q(-7, 3) + 0 == q(-7, 3)


def test_prime_field_addition():
    F = GF(7)
    assert (const(F, 5) + const(F, 4)).LC == 2


def test_rational_multiplication_cancels():
    product = const(QQ, Fraction(2, 3)) * const(QQ, Fraction(3, 4))
    assert product.LC == Fraction(1, 2)
    assert (const(QQ, Fraction(2, 3)) * Fraction(3, 2)).LC.__class__ is int


def test_multiplicative_identity():
    a = const(QQ, Fraction(9, 11))
    assert a * a.ring.one == a
    assert a * 1 == a


def test_prime_field_multiplication():
    F = GF(5)
    assert (const(F, 3) * const(F, 4)).LC == 2


def test_rational_inverse():
    assert _inverse(q(3, 7), 0) == q(7, 3)
    assert _inverse(1, 0) == 1
    assert _inverse(q(1, 3), 0).__class__ is int   # 1/(1/3) is stored as 3


def test_prime_field_inverse():
    assert _inverse(3, 7) == 5


def test_inverse_of_zero_raises():
    # a/b has no image in GF(p) when p divides b: b is zero there
    for k in range(1, 5):
        with pytest.raises(DivisionByZero):
            GF(5).raw(Fraction(k, 5))
    with pytest.raises(DivisionByZero):
        GF(7).raw(Fraction(3, 14))


def test_field_mismatch():
    # coefficients of different fields never meet: their rings differ
    with pytest.raises(RingMismatch):
        const(QQ, 1) + const(GF(5), 1)
    with pytest.raises(RingMismatch):
        const(GF(5), 2) * const(GF(7), 2)


def test_non_prime_modulus_rejected():
    for bad in (0, 1, 4, 9, 15, 91):
        with pytest.raises(NonPrimeModulus):
            GF(bad)


def test_primality_matches_a_sieve():
    limit = 5000
    composite = set()
    for i in range(2, limit):
        composite.update(range(2 * i, limit, i))
    for n in range(limit):
        assert _is_prime(n) == (n >= 2 and n not in composite), n


def test_large_prime_modulus_accepted():
    p = 2 ** 61 - 1
    F = GF(p)
    assert F.raw(2 ** 61) == 1
    assert F.raw(3) * _inverse(3, p) % p == 1


@pytest.mark.parametrize("n", [
    561,                                # Carmichael number
    2147483647 * 2147483629,            # two 31-bit primes
    3825123056546413051,                # strong pseudoprime to bases 2..23
])
def test_pseudoprimes_rejected(n):
    with pytest.raises(NonPrimeModulus, match=f"^modulus {n} is not prime$"):
        GF(n)


@pytest.mark.parametrize("n", [2 ** 64, 2 ** 64 + 13, 2 ** 89 - 1])
def test_modulus_at_or_above_two_to_the_64_rejected(n):
    with pytest.raises(NonPrimeModulus, match=r"GF\(p\) needs p < 2\^64"):
        GF(n)


def test_ring_axioms_on_random_rationals():
    rng = random.Random(101)
    for _ in range(300):
        a, b, c = (const(QQ, Fraction(rng.randint(-40, 40), rng.randint(1, 19)))
                   for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_rationals_stay_canonical():
    rng = random.Random(102)
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 23))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 23))
        for result in (a + b, a - b, a * b):
            v = QQ.raw(result)
            assert v == result
            assert_canonical(QQ, v)
            if v.__class__ is Fraction:
                assert gcd(abs(v.numerator), v.denominator) == 1


def test_double_inverse():
    rng = random.Random(103)
    for _ in range(100):
        num = rng.randint(-25, 25) or 1
        a = q(num, rng.randint(1, 25))
        assert _inverse(_inverse(a, 0), 0) == a
    for r in range(1, 11):
        assert _inverse(_inverse(r, 11), 11) == r


def test_prime_field_residues_canonical():
    F = GF(13)
    assert F.raw(-1) == 12
    assert F.raw(6 + 8) == 1
    for value in (-27, -1, 0, 12, 13, 10 ** 30, Fraction(-5, 3)):
        assert_canonical(F, F.raw(value))


def test_int_coercion():
    # ints take the bare path and stay ints
    for value in (-3, 0, 7, 10 ** 40):
        assert QQ.raw(value) is value
        assert GF(7).raw(value) == value % 7
    assert QQ.raw(Fraction(8, 4)).__class__ is int
    assert QQ.raw(Fraction(8, 4)) == 2
    assert QQ.raw(True) == 1 and QQ.raw(True).__class__ is int


def test_raw_is_idempotent():
    rng = random.Random(104)
    for field in (QQ, GF(7), GF(32003)):
        for _ in range(100):
            c = field.raw(Fraction(rng.randint(-60, 60),
                                   rng.choice((1, 2, 3, 4, 5, 6, 8, 9))))
            assert_canonical(field, c)
            assert field.raw(c) == c
            assert field.raw(c).__class__ is c.__class__


@pytest.mark.parametrize("p", [2, 7, 32003, 2 ** 61 - 1])
def test_qq_and_prime_field_agree_on_rationals(p):
    # GF(p).raw is reduction mod p, a ring map from the rationals whose
    # denominators p does not divide: it agrees with QQ.raw and commutes
    # with + and *
    F = GF(p)
    rng = random.Random(105 + p % 1000)
    for _ in range(200):
        a, b = (Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
                for _ in range(2))
        if a.denominator % p == 0 or b.denominator % p == 0:
            continue
        ra, rb = F.raw(a), F.raw(b)
        assert ra * a.denominator % p == a.numerator % p
        assert F.raw(QQ.raw(a)) == ra
        assert F.raw(a + b) == (ra + rb) % p
        assert F.raw(a * b) == ra * rb % p
