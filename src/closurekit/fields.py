"""Exact coefficient arithmetic: normalized rationals and prime fields.

Every value is immutable and kept in canonical form, so equality is
structural and all arithmetic is exact.  Rationals ride on
``fractions.Fraction`` (already canonical: gcd(num, den) = 1, den >= 1);
prime field residues are ints in [0, p).
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, NonPrimeModulus


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
    """Descriptor for a coefficient field; makes and combines elements."""

    characteristic = 0

    def element(self, value) -> FieldElement:
        raise NotImplementedError

    def raw(self, value):
        """Canonical plain value, as polynomials store it (see ``ring``)."""
        return self.element(value).value

    @property
    def zero(self) -> FieldElement:
        return self.element(0)

    @property
    def one(self) -> FieldElement:
        return self.element(1)


class RationalField(Field):
    """The field of rational numbers."""

    characteristic = 0

    def element(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch("cannot move an element between fields")
            return value
        return FieldElement(self, Fraction(value))

    def raw(self, value):
        """An ``int`` when the value is integral, else a ``Fraction``."""
        v = self.element(value).value
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

    def element(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch("cannot move an element between fields")
            return value
        return FieldElement(self, int(value) % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


class FieldElement:
    """An immutable element of a :class:`Field` in canonical form."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.characteristic:
            return FieldElement(self.field, (self.value + other.value) % self.field.p)
        return FieldElement(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.characteristic:
            return FieldElement(self.field, (self.value - other.value) % self.field.p)
        return FieldElement(self.field, self.value - other.value)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.characteristic:
            return FieldElement(self.field, (self.value * other.value) % self.field.p)
        return FieldElement(self.field, self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __neg__(self):
        if self.field.characteristic:
            return FieldElement(self.field, (-self.value) % self.field.p)
        return FieldElement(self.field, -self.value)

    def inverse(self) -> "FieldElement":
        if not self.value:
            raise DivisionByZero("inverse of zero")
        if self.field.characteristic:
            return FieldElement(self.field, pow(self.value, -1, self.field.p))
        return FieldElement(self.field, 1 / self.value)

    def is_zero(self) -> bool:
        return not self.value

    def is_one(self) -> bool:
        return self.value == 1

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"{self.field!r}({self.value})"

