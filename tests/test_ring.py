import random
from itertools import combinations

import pytest

from closurekit import (
    DEGREVLEX,
    GF,
    LEX,
    QQ,
    Block,
    PolyRing,
    compare_monomials,
    divide_with_remainder,
    parse_polynomial,
    poly_op,
)
from closurekit.errors import LengthMismatch, RingMismatch, ZeroDivisorPolynomial
from conftest import P
from oracles import degrevlex_cmp, monomials_up_to, reexpands


def test_lex_compares_first_variable():
    # x vs y^5 under lex with x > y
    assert compare_monomials(LEX, (1, 0), (0, 5)) == 1


def test_equal_monomials():
    assert compare_monomials(LEX, (2, 3), (2, 3)) == 0
    assert compare_monomials(DEGREVLEX, (2, 3), (2, 3)) == 0


def test_degrevlex_degree_two_tiebreak():
    # x^2 vs x*y: equal degree, reverse-lex tie-break on the last variable
    assert compare_monomials(DEGREVLEX, (2, 0), (1, 1)) == 1
    assert degrevlex_cmp((2, 0), (1, 1)) == 1


def test_degrevlex_agrees_with_brute_force_oracle():
    monos = monomials_up_to(3, 4)
    for m1, m2 in combinations(monos, 2):
        assert compare_monomials(DEGREVLEX, m1, m2) == degrevlex_cmp(m1, m2)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        compare_monomials(LEX, (1, 0), (1, 0, 0))


def test_block_order_partition_validated():
    bad = Block(((0,), LEX), ((0, 1), DEGREVLEX))
    with pytest.raises(LengthMismatch):
        compare_monomials(bad, (1, 0), (0, 1))
    with pytest.raises(LengthMismatch):
        PolyRing(QQ, ["x", "y"], bad)
    with pytest.raises(LengthMismatch):
        PolyRing(QQ, ["x", "y", "z"], Block(((0,), LEX), ((1,), DEGREVLEX)))


def test_block_order_eliminates():
    order = Block(((0,), LEX), ((1, 2), DEGREVLEX))
    # any monomial containing the first variable beats any without it
    assert compare_monomials(order, (1, 0, 0), (0, 9, 9)) == 1


def test_poly_add_cancels(ring_xy):
    x = ring_xy.var("x")
    y = ring_xy.var("y")
    assert poly_op("add", x + y, -y) == x


def test_poly_mul_difference_of_squares(ring_xy):
    x, y = ring_xy.gens()
    assert poly_op("mul", x + y, x - y) == x**2 - y**2


def test_frobenius_over_gf2():
    R = PolyRing(GF(2), ["x", "y"])
    x, y = R.gens()
    assert (x + y) ** 2 == x**2 + y**2


def test_ring_mismatch(ring_xy, ring_xyz):
    with pytest.raises(RingMismatch):
        ring_xy.var("x") + ring_xyz.var("x")


def test_division_classic_example():
    R = PolyRing(QQ, ["x", "y"], LEX)
    p = P(R, "x^2*y")
    d = P(R, "x*y - 1")
    quotients, remainder = divide_with_remainder(p, [d])
    assert quotients == [P(R, "x")]
    assert remainder == P(R, "x")
    assert reexpands(p, [d], quotients, remainder)


def test_division_no_reduction():
    R = PolyRing(QQ, ["x", "y"], LEX)
    quotients, remainder = divide_with_remainder(P(R, "x"), [P(R, "y")])
    assert quotients == [R.zero]
    assert remainder == P(R, "x")


def test_division_by_self(ring_xy):
    f = P(ring_xy, "x^2 + 3*x*y - 7*y^2")
    quotients, remainder = divide_with_remainder(f, [f])
    assert quotients == [ring_xy.one]
    assert remainder.is_zero()


def test_zero_divisor_rejected(ring_xy):
    with pytest.raises(ZeroDivisorPolynomial):
        divide_with_remainder(ring_xy.var("x"), [ring_xy.zero])


def _random_poly(ring, rng, max_deg=4, max_terms=4):
    monos = monomials_up_to(ring.nvars, max_deg)
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        c = 0
        while not c:
            c = rng.randint(-5, 5)
        d[m] = c
    return ring.from_dict(d)


def test_division_reexpansion_property(ring_xy):
    rng = random.Random(7001)
    for _ in range(80):
        p = _random_poly(ring_xy, rng)
        divisors = [_random_poly(ring_xy, rng) for _ in range(rng.randint(1, 3))]
        divisors = [d for d in divisors if d] or [ring_xy.one]
        quotients, remainder = divide_with_remainder(p, divisors)
        assert reexpands(p, divisors, quotients, remainder)
        for m, _ in remainder.terms:
            assert all(
                any(a < b for a, b in zip(m, d.LM)) for d in divisors
            ), "remainder term divisible by a leading term"


def test_leading_term_multiplicative(ring_xyz):
    rng = random.Random(7002)
    block = Block(((0,), LEX), ((1, 2), DEGREVLEX))
    for order in (LEX, DEGREVLEX, block):
        ring = ring_xyz.with_order(order)
        for _ in range(60):
            a = _random_poly(ring, rng)
            b = _random_poly(ring, rng)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).LM == tuple(u + v for u, v in zip(a.LM, b.LM))
            assert (a * b).LC == a.LC * b.LC


def test_print_parse_roundtrip(ring_xy):
    rng = random.Random(7003)
    for _ in range(60):
        p = _random_poly(ring_xy, rng)
        if p.is_zero():
            continue
        assert parse_polynomial(str(p), ring_xy) == p


def test_migration_preserves_values(ring_xy):
    p = P(ring_xy, "3*x^2*y - y + 5*x")
    lexed = p.map_to(ring_xy.with_order(LEX))
    assert lexed.map_to(ring_xy) == p


def test_extension_migration(ring_xy):
    p = P(ring_xy, "x^2 - y")
    big = ring_xy.extend(["t"])
    there = p.map_to(big)
    assert there.map_to(ring_xy) == p


def test_extension_orders_new_variables():
    ring = PolyRing(QQ, ["x", "y"], Block(((0,), LEX), ((1,), DEGREVLEX)))
    big = ring.extend(["t", "u"])
    assert compare_monomials(big.order, (0, 0, 2, 0), (0, 0, 1, 0)) == 1
    assert compare_monomials(big.order, (0, 0, 0, 1), (0, 0, 1, 0)) == -1
    # the old variables still dominate as before
    assert compare_monomials(big.order, (1, 0, 0, 0), (0, 5, 5, 5)) == 1


def test_derivative(ring_xy):
    p = P(ring_xy, "x^3*y - 2*x*y + y^2")
    assert p.derivative(0) == P(ring_xy, "3*x^2*y - 2*y")
    assert p.derivative(1) == P(ring_xy, "x^3 - 2*x + 2*y")


def test_input_form_clears_denominators(ring_xy):
    from fractions import Fraction

    x, y = ring_xy.gens()
    p = -x + y * Fraction(1, 2)
    assert p.input_form() == "2*x - y"
