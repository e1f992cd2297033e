"""The raw-coefficient kernel against the naive reference, term for term.

``oracles.reference_divide`` is the textbook division loop on dicts of
the oracle's own scalars (``Fraction`` over QQ, ints mod p); the kernel
must return exactly the same quotients and remainder (same divisor
choices, same coefficients), over QQ and prime fields (GF(3) cancels
often), under lex, degrevlex and block orders, and after a remap of a
degrevlex ring's dividend and divisors into another order.

The engine's remainder-only entry ``ring.remainder`` runs the same loop
without the quotient sink; it must agree with both, and so must the
normal forms an ideal computes against its held basis, whose
first-divisor memo persists across calls.
"""
import random
from fractions import Fraction

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
from closurekit import Ideal, normal_form
from closurekit.groebner import _spoly, _tagged_run, contract
from closurekit.ring import remainder
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
        d[rng.choice(monos)] = rng.randint(-5, 5)
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
    """Divide in p's ring remapped to ``order`` (default: its own), and
    compare in p's ring."""
    ring = p.ring
    work = ring.with_order(order or ring.order)
    qs, r = divide_with_remainder(p.map_to(work), [d.map_to(work) for d in divisors])
    ref_qs, ref_r = reference_divide(p, divisors, order)
    assert [q.map_to(ring).terms for q in qs] == ref_qs
    assert r.map_to(ring).terms == ref_r


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


# -- the engine's remainder-only entry and the held-basis memo ---------------

ENGINE_FIELDS = {"QQ": QQ, "GF32003": GF(32003)}


def _engine_ring(field, order_name):
    """A 4-variable ring under lex, degrevlex or an elimination order, or
    the ring of a tagged run over the elimination-ordered one: two tags in
    a lex block over a block that is itself a Block (nested)."""
    names = ["a", "b", "c", "d"]
    if order_name != "nested":
        return PolyRing(field, names, ORDERS[order_name])
    inner = PolyRing(field, names, ORDERS["elim"])
    tagged, _, _ = _tagged_run([inner.var("a")], Ideal(inner, [inner.var("b")]))
    assert isinstance(tagged.order.blocks[1][1], Block)
    return tagged


ENGINE_ORDERS = ["lex", "degrevlex", "elim", "nested"]


@pytest.mark.parametrize("order_name", ENGINE_ORDERS)
@pytest.mark.parametrize("field_name", sorted(ENGINE_FIELDS))
def test_engine_remainder_matches_division_and_reference(field_name, order_name):
    ring = _engine_ring(ENGINE_FIELDS[field_name], order_name)
    rng = random.Random(f"engine/{field_name}/{order_name}")
    for _ in range(40):
        p, divisors = _case(ring, rng)
        leads = [d.LM for d in divisors]
        r = remainder(p, divisors, leads)
        assert r == divide_with_remainder(p, divisors)[1]
        assert r.terms == reference_divide(p, divisors)[1]
        # a memo kept for this divisor list gives the same remainders on
        # dividends that meet the same monomials again
        memo = {}
        for q in (p, p, p * ring.var(ring.variables[-1]), p):
            assert remainder(q, divisors, leads, memo) == remainder(q, divisors, leads)
        assert memo or not p


def _held_ideal(ring, rng):
    """Every generator vanishes at the origin, so the ideal and its
    contractions are proper."""
    x = ring.gens()[-4:]
    gens = [x[0] * x[1] - x[2] ** 2, x[1] ** 2 - x[3] * x[0] + x[2]]
    gens.append(x[2] * _random_poly(ring, rng, 2, 3))
    return Ideal(ring, gens)


def _assert_memo_agrees(ideal, rng, rounds):
    """Normal forms against the held basis, called again and again, equal
    a fresh division by the basis and the reference remainder."""
    basis = list(ideal.groebner_basis())
    dividends = [_random_poly(ideal.ring, rng, 4, 6) for _ in range(8)]
    for _ in range(rounds):
        for p in dividends:
            r = normal_form(p, ideal)
            assert r == divide_with_remainder(p, basis)[1]
            assert r.terms == reference_divide(p, basis)[1]
    assert ideal._held[0] == tuple(basis) and ideal._held[2]


@pytest.mark.parametrize("order_name", ENGINE_ORDERS)
@pytest.mark.parametrize("field_name", sorted(ENGINE_FIELDS))
def test_held_basis_memo_matches_fresh_division(field_name, order_name):
    ring = _engine_ring(ENGINE_FIELDS[field_name], order_name)
    rng = random.Random(f"held/{field_name}/{order_name}")
    I = _held_ideal(ring, rng)
    _assert_memo_agrees(I, rng, 3)
    memo = I._held[2]
    # new ideals handed out by canonical(extra) and contract start their
    # own memo, and I's keeps giving the right normal forms
    J = I.canonical([ring.gens()[-1] * _random_poly(ring, rng, 2, 3)])
    _assert_memo_agrees(J, rng, 2)
    assert J._held[2] is not memo
    sub = PolyRing(ring.field, ring.variables[1:])
    K = contract(I, sub)
    assert not K.contains_one()
    _assert_memo_agrees(K, rng, 2)
    _assert_memo_agrees(I, rng, 2)
    assert I._held[2] is memo


def test_division_data_leaves_equality_hash_and_immutability():
    ring = PolyRing(QQ, ["a", "b"])
    a, b = ring.gens()
    f, g = 2 * a * a - b, 2 * a * a - b
    before = hash(f)
    assert not hasattr(f, "_div")
    remainder(a ** 3, [f], [f.LM])
    data = f._div
    assert data == (Fraction(1, 2), f.raw[1:])
    qs, _ = divide_with_remainder(a ** 4 + b, [f])
    assert f._div is data                   # made once, on the first division
    assert f == g and g == f and hash(f) == hash(g) == before
    assert not hasattr(g, "_div")
    assert qs[0] == a * a * Fraction(1, 2) + b * Fraction(1, 4)
    for name, value in (("raw", ()), ("ring", None), ("_div", None)):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
    assert f._div is data
