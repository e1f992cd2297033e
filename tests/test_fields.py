import random
from fractions import Fraction
from math import gcd

import pytest

from closurekit import GF, QQ
from closurekit.errors import DivisionByZero, FieldMismatch, NonPrimeModulus
from closurekit.fields import _is_prime


def q(a, b=1):
    return QQ.element(Fraction(a, b))


def test_rational_addition():
    assert q(1, 2) + q(1, 3) == q(5, 6)


def test_additive_identity():
    a = q(-7, 3)
    assert a + QQ.zero == a


def test_prime_field_addition():
    F = GF(7)
    assert F.element(5) + F.element(4) == F.element(2)


def test_rational_multiplication_cancels():
    assert q(2, 3) * q(3, 4) == q(1, 2)


def test_multiplicative_identity():
    a = q(9, 11)
    assert a * QQ.one == a


def test_prime_field_multiplication():
    F = GF(5)
    assert F.element(3) * F.element(4) == F.element(2)


def test_rational_inverse():
    assert q(3, 7).inverse() == q(7, 3)
    assert QQ.one.inverse() == QQ.one


def test_prime_field_inverse():
    F = GF(7)
    assert F.element(3).inverse() == F.element(5)


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.zero.inverse()
    with pytest.raises(DivisionByZero):
        GF(5).zero.inverse()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        q(1) + GF(5).element(1)
    with pytest.raises(FieldMismatch):
        GF(5).element(2) * GF(7).element(2)


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
    assert F.element(2 ** 60) * 2 == F.one   # 2^61 = 1 mod p
    assert F.element(3) * F.element(3).inverse() == F.one


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
        a, b, c = (q(rng.randint(-40, 40), rng.randint(1, 19)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_rationals_stay_canonical():
    rng = random.Random(102)
    for _ in range(200):
        a = q(rng.randint(-30, 30), rng.randint(1, 23))
        b = q(rng.randint(-30, 30), rng.randint(1, 23))
        for result in (a + b, a - b, a * b):
            v = result.value
            assert v.denominator >= 1
            assert gcd(abs(v.numerator), v.denominator) == 1


def test_double_inverse():
    rng = random.Random(103)
    for _ in range(100):
        num = rng.randint(-25, 25) or 1
        a = q(num, rng.randint(1, 25))
        assert a.inverse().inverse() == a
    F = GF(11)
    for r in range(1, 11):
        assert F.element(r).inverse().inverse() == F.element(r)


def test_prime_field_residues_canonical():
    F = GF(13)
    a = F.element(-1)
    assert a.value == 12
    assert (F.element(6) + F.element(8)).value == 1


def test_int_coercion():
    assert q(1, 2) + 1 == q(3, 2)
    assert 2 * q(1, 4) == q(1, 2)
