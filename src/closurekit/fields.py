"""Coefficient fields: the rationals and prime fields.

A coefficient is a plain value in canonical form, so equality is
structural and arithmetic is exact: over QQ an ``int`` when integral,
else a ``fractions.Fraction`` (gcd(num, den) = 1, den > 1); over GF(p)
an ``int`` in [0, p).  Each field's ``raw`` is the one normalizer that
makes these values; ``ring`` stores them and does all arithmetic on
them.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, NonPrimeModulus


# the first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every n < 3.18 * 10^23 (Sorenson and Webster, Math. Comp. 86,
# 2017), so for every modulus below _MODULUS_BOUND
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MODULUS_BOUND = 1 << 64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2^64."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Descriptor for a coefficient field; ``raw`` turns an exact value
    (``int``, ``Fraction`` or anything ``Fraction`` accepts) into the
    canonical form that polynomials store."""

    characteristic = 0

    def raw(self, value):
        raise NotImplementedError


class RationalField(Field):
    """The field of rational numbers."""

    characteristic = 0

    def raw(self, value):
        """An ``int`` when the value is integral, else a ``Fraction``."""
        if value.__class__ is int:
            return value
        v = Fraction(value)
        return v.numerator if v.denominator == 1 else v

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """GF(p) for a prime p; residues are canonical ints in [0, p)."""

    def __init__(self, p: int):
        if p >= _MODULUS_BOUND:
            raise NonPrimeModulus(
                f"modulus {p} is too large: GF(p) needs p < 2^64")
        if not _is_prime(p):
            raise NonPrimeModulus(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p

    def raw(self, value):
        """The residue in [0, p); a rational a/b maps to a * b^-1."""
        p = self.p
        if value.__class__ is int:
            return value % p
        v = Fraction(value)
        if v.denominator % p == 0:
            raise DivisionByZero(f"{v} has no image in GF({p})")
        return v.numerator * pow(v.denominator, -1, p) % p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
