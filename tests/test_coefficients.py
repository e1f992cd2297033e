"""The stored-coefficient contract.

``Polynomial.terms`` and ``LC`` hand out the stored coefficients, so
every result of the kernel must hold them in the form of the field's
``raw``: over GF(p) an ``int`` in [1, p), over QQ a nonzero ``int`` or a
``Fraction`` with denominator > 1.  Scalars of every exact kind enter
through ``raw``, so a rational scalar over GF(p) maps to a * b^-1.
"""
import random
from fractions import Fraction

import pytest

from closurekit import (GF, QQ, Ideal, PolyRing, buchberger,
                        divide_with_remainder, normal_form)
from closurekit.errors import DivisionByZero
from closurekit.groebner import _spoly
from oracles import monomials_up_to


def test_prime_field_takes_rational_scalars():
    R = PolyRing(GF(7), ["x", "y"])
    x, y = R.gens()
    assert R.term((1, 0), Fraction(1, 2)) == 4 * x
    assert R.from_dict({(1, 0): Fraction(5, 3)}) == 4 * x
    assert x.mul_term((0, 1), Fraction(1, 2)) == 4 * x * y
    assert x * Fraction(3, 2) == 5 * x
    assert str(x * Fraction(3, 2)) == "5*x"
    with pytest.raises(DivisionByZero):
        GF(7).raw(Fraction(1, 7))


def assert_stored(poly):
    p = poly.ring.field.characteristic
    for _, c in poly.terms:
        if p:
            assert c.__class__ is int and 0 < c < p, (poly, c)
        else:
            assert (c.__class__ is int and c != 0
                    or c.__class__ is Fraction and c.denominator > 1), (poly, c)
    if poly:
        assert poly.LC is poly.terms[0][1]


def _random_poly(ring, rng):
    monos = monomials_up_to(ring.nvars, 3)
    d = {}
    for _ in range(rng.randint(1, 4)):
        c = rng.choice((1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-4, 3)))
        d[rng.choice(monos)] = c
    return ring.from_dict(d)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)],
                         ids=["QQ", "GF7", "GF32003"])
def test_every_result_holds_canonical_coefficients(field):
    rng = random.Random(2203)
    ring = PolyRing(field, ["x", "y"])
    pairs = 0
    while pairs < 300:
        f, g, h = (_random_poly(ring, rng) for _ in range(3))
        if not (f and g and h):
            continue
        pairs += 1
        results = [f + g, f - g, f - f, -f, f * g, f * 3, f * -2,
                   f * Fraction(2, 3), 3 * f, f ** 3, f.monic(),
                   f.derivative(0), f.derivative(1),
                   f.coefficient_in(0, f.degree_in(0)), _spoly(f, g)]
        qs, r = divide_with_remainder(f * g + h, [g, h])
        results += qs + [r]
        ideal = buchberger([f, g])
        basis = list(ideal.groebner_basis())
        results += basis + [normal_form(h * h, ideal),
                            normal_form(h, Ideal(ring, basis))]
        for poly in results:
            assert_stored(poly)
