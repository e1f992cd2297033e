"""The raw-coefficient kernel against the naive reference, term for term.

``oracles.reference_divide`` is the textbook division loop on dicts of
``FieldElement`` coefficients; the kernel must return exactly the same
quotients and remainder (same divisor choices, same coefficients), over
QQ and prime fields (GF(3) cancels often), under lex, degrevlex and
block orders, and through the ``order=`` remap path.
"""
import random

import pytest

from closurekit import (
    DEGREVLEX,
    GF,
    LEX,
    QQ,
    Block,
    PolyRing,
    divide_with_remainder,
    elimination_order,
)
from closurekit.groebner import _spoly
from oracles import monomials_up_to, reference_divide, reference_spoly

FIELDS = {"QQ": QQ, "GF32003": GF(32003), "GF3": GF(3)}
ORDERS = {
    "lex": LEX,
    "degrevlex": DEGREVLEX,
    # the tagged shape: a lex tag block over a degrevlex variable block
    "tagged": Block(((0, 1), LEX), ((2, 3), DEGREVLEX)),
    # the elimination shape, with non-contiguous blocks
    "elim": elimination_order(4, {1, 3}),
}


def _random_poly(ring, rng, max_deg, max_terms):
    monos = monomials_up_to(ring.nvars, max_deg)
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        d[rng.choice(monos)] = ring.field.element(rng.randint(-5, 5))
    return ring.from_dict(d)


def _case(ring, rng):
    """A dividend and its divisors; half the dividends are combinations
    of the divisors plus noise, so that long reductions happen."""
    divisors = [d for d in (_random_poly(ring, rng, 2, 3)
                            for _ in range(rng.randint(1, 3))) if d]
    divisors = divisors or [ring.var(ring.variables[0])]
    p = _random_poly(ring, rng, 4, 6)
    if rng.random() < 0.5:
        for d in divisors:
            p = p + _random_poly(ring, rng, 2, 3) * d
    return p, divisors


def _check(p, divisors, order=None):
    qs, r = divide_with_remainder(p, divisors, order=order)
    ref_qs, ref_r = reference_divide(p, divisors, order)
    assert [q.terms for q in qs] == ref_qs
    assert r.terms == ref_r


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_division_matches_reference(field_name, order_name):
    ring = PolyRing(FIELDS[field_name], ["a", "b", "c", "d"], ORDERS[order_name])
    rng = random.Random(f"{field_name}/{order_name}")
    for _ in range(40):
        _check(*_case(ring, rng))


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_division_order_remap_matches_reference(field_name):
    ring = PolyRing(FIELDS[field_name], ["a", "b", "c", "d"])
    rng = random.Random(f"remap/{field_name}")
    for _ in range(20):
        p, divisors = _case(ring, rng)
        for order in (LEX, ORDERS["tagged"], ORDERS["elim"]):
            _check(p, divisors, order)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_division_edge_cases_match_reference(field_name):
    ring = PolyRing(FIELDS[field_name], ["a", "b", "c", "d"])
    rng = random.Random(f"edge/{field_name}")
    for _ in range(10):
        p, divisors = _case(ring, rng)
        d = divisors[0]
        _check(ring.zero, divisors)                         # zero dividend
        _check(p, [ring.from_scalar(2)] + divisors)         # constant divisor
        _check(p, [d, d] + divisors)                        # duplicate divisors
        _check(p, [p])                                      # divisor = dividend
        qs, r = divide_with_remainder(p, [p])
        assert qs == [ring.one] and r.is_zero()


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_spoly_matches_reference(field_name, order_name):
    ring = PolyRing(FIELDS[field_name], ["a", "b", "c", "d"], ORDERS[order_name])
    rng = random.Random(f"spoly/{field_name}/{order_name}")
    for _ in range(30):
        f, g = _random_poly(ring, rng, 3, 4), _random_poly(ring, rng, 3, 4)
        if f and g:
            assert _spoly(f, g).terms == reference_spoly(f, g)


@pytest.mark.parametrize("order", list(ORDERS.values()) + [elimination_order(4, ())],
                         ids=list(ORDERS) + ["elim-empty"])
def test_desc_key_reverses_key(order):
    monos = monomials_up_to(4, 3)
    random.Random(5).shuffle(monos)
    assert sorted(monos, key=order.desc_key) == sorted(monos, key=order.key, reverse=True)
