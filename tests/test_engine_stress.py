"""Definitional cross-checks of the Groebner engine: the basis property
itself (every S-polynomial reduces to zero through plain division), the
tagged analogue for syzygy runs, and constructed-radical equality for
products of distinct linear forms."""
import random

from closurekit import (
    GF,
    LEX,
    QQ,
    Ideal,
    PolyRing,
    buchberger,
    divide_with_remainder,
    ideal_member,
    ideals_equal,
    radical,
    syzygies,
)
from closurekit.ring import monomial_div, monomial_lcm
from oracles import brute_force_syzygies, in_module_span, monomials_up_to


def spoly(f, g):
    lcm = monomial_lcm(f.LM, g.LM)
    return (f.mul_term(monomial_div(lcm, f.LM), f.LC.inverse())
            - g.mul_term(monomial_div(lcm, g.LM), g.LC.inverse()))


def random_poly(ring, rng, max_deg=3, max_terms=4, coeff=4):
    monos = monomials_up_to(ring.nvars, max_deg)
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        c = 0
        while not c:
            c = rng.randint(-coeff, coeff)
        d[rng.choice(monos)] = ring.field.element(c)
    return ring.from_dict(d)


def test_groebner_property_by_definition():
    from closurekit import DEGREVLEX

    rng = random.Random(9001)
    for trial in range(40):
        nvars = rng.randint(1, 3)
        field = QQ if trial % 3 else GF(7)
        order = LEX if trial % 2 else DEGREVLEX
        ring = PolyRing(field, ["x", "y", "z"][:nvars], order)
        gens = [g for g in (random_poly(ring, rng)
                            for _ in range(rng.randint(1, 3))) if g]
        if not gens:
            continue
        basis = list(buchberger(gens).groebner_basis())
        if not basis or (len(basis) == 1 and basis[0].is_constant()):
            continue
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = spoly(basis[i], basis[j])
                if s:
                    _, r = divide_with_remainder(s, basis)
                    assert r.is_zero(), "S-polynomial escaped the basis"


def test_basis_is_reduced():
    rng = random.Random(9002)
    for _ in range(25):
        ring = PolyRing(QQ, ["x", "y"])
        gens = [g for g in (random_poly(ring, rng)
                            for _ in range(rng.randint(1, 3))) if g]
        if not gens:
            continue
        basis = list(buchberger(gens).groebner_basis())
        for i, g in enumerate(basis):
            assert g.LC.is_one()
            others = [h for k, h in enumerate(basis) if k != i]
            for m, _ in g.terms:
                assert not any(all(a >= b for a, b in zip(m, h.LM))
                               for h in others), "basis not tail-reduced"


def test_module_basis_property():
    # every S-polynomial of two tagged basis elements (all in slot 0)
    # reduces to a tag-free remainder, and the collected syzygies span
    # every low-degree syzygy
    from closurekit.groebner import _tagged_run

    rng = random.Random(9003)
    for _ in range(15):
        ring = PolyRing(QQ, ["x", "y"])
        gens = [g for g in (random_poly(ring, rng, max_deg=2)
                            for _ in range(2)) if g]
        if len(gens) < 2:
            continue
        ambient = Ideal(ring, [h for h in (random_poly(ring, rng, max_deg=2),)
                               if h and rng.random() < 0.5])
        _, basis, _ = _tagged_run(gens, ambient)
        assert all(b.LM[0] for b in basis), "tag-free element in the basis"
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                _, r = divide_with_remainder(spoly(basis[i], basis[j]), basis)
                assert not r or not r.LM[0], "S-polynomial escaped slot 0"
        module = list(syzygies(gens, ambient))
        amb = list(ambient.generators)
        for vec in brute_force_syzygies(gens, amb, 2):
            assert in_module_span(vec, module, amb, 3)


def _random_linear(ring, rng):
    monos = monomials_up_to(ring.nvars, 1)
    while True:
        d = {}
        for m in monos:
            c = rng.randint(-2, 2)
            if c:
                d[m] = ring.field.element(c)
        p = ring.from_dict(d)
        if p and not p.is_constant():
            return p.monic()


def test_radical_of_power_products_equals_constructed_radical():
    # f = l1^a * l2^b with l1, l2 non-proportional: sqrt((f)) = (l1*l2)
    rng = random.Random(9004)
    hits = 0
    while hits < 12:
        ring = PolyRing(QQ, ["x", "y", "z"][: rng.randint(2, 3)])
        l1 = _random_linear(ring, rng)
        l2 = _random_linear(ring, rng)
        if l1 == l2:
            continue
        f = l1 ** rng.randint(1, 2) * l2 ** rng.randint(1, 2)
        out = radical(Ideal(ring, [f]))
        assert ideals_equal(out, Ideal(ring, [l1 * l2]))
        hits += 1


def test_radical_of_intersection_of_points():
    # points are radical already: sqrt of their defining ideal is itself
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    from closurekit import intersect

    p1 = Ideal(ring, [x, y])
    p2 = Ideal(ring, [x - 1, y - 2])
    both = intersect(p1, p2)
    assert ideals_equal(radical(both), both)
    # and squaring the generators radicalizes back
    squared = Ideal(ring, [g * g for g in both.generators])
    assert ideals_equal(radical(squared), both)


def test_syzygy_module_of_groebner_basis_is_sound_over_gf():
    ring = PolyRing(GF(11), ["x", "y"])
    x, y = ring.gens()
    gens = [x * x + y, x * y - 1]
    ambient = Ideal(ring, [])
    for vec in syzygies(gens, ambient):
        combo = sum((c * g for c, g in zip(vec, gens)), ring.zero)
        assert combo.is_zero()


def test_cross_order_basis_membership_gf():
    ring = PolyRing(GF(13), ["x", "y"])
    lex_ring = ring.with_order(LEX)
    rng = random.Random(9005)
    for _ in range(10):
        gens = [g for g in (random_poly(ring, rng, coeff=6)
                            for _ in range(2)) if g]
        if not gens:
            continue
        probe = random_poly(ring, rng, coeff=6)
        a = ideal_member(probe, Ideal(ring, gens))
        b = ideal_member(probe.map_to(lex_ring),
                         Ideal(lex_ring, [g.map_to(lex_ring) for g in gens]))
        assert a == b
