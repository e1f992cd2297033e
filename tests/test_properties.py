"""Randomized exact property suite over small rings (<= 3 variables,
degree <= 4).  Every check is exact; the case counts across the suite
add up to more than 200.  ``run_property_suite`` reports the totals so
the acceptance tests can bound them."""
import random

from closurekit import (
    LEX,
    QQ,
    Ideal,
    PolyRing,
    QuotientRingContext,
    annihilator,
    buchberger,
    divide_with_remainder,
    ideal_member,
    ideal_quotient,
    ideals_equal,
    radical,
    radical_membership,
    syzygies,
)
from oracles import monomials_up_to, reexpands

SEED = 20250810


def random_poly(ring, rng, max_deg=4, max_terms=4, coeff=5):
    monos = monomials_up_to(ring.nvars, max_deg)
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        c = 0
        while not c:
            c = rng.randint(-coeff, coeff)
        d[rng.choice(monos)] = c
    return ring.from_dict(d)


def random_ring(rng):
    names = ["x", "y", "z"][: rng.randint(1, 3)]
    return PolyRing(QQ, names)


def linearish(ring, rng):
    """Product of one or two small linear forms, optionally squared;
    keeps radical instances well behaved without making them canned."""
    monos = monomials_up_to(ring.nvars, 1)

    def linear():
        d = {}
        for _ in range(rng.randint(1, 2)):
            c = 0
            while not c:
                c = rng.randint(-2, 2)
            d[rng.choice(monos)] = c
        p = ring.from_dict(d)
        if p.is_constant():
            return ring.var(ring.variables[0])
        return p

    p = linear() ** rng.randint(1, 2)
    if rng.random() < 0.5:
        p = p * linear()
    return p


def check_division(rng, cases):
    for _ in range(cases):
        ring = random_ring(rng)
        p = random_poly(ring, rng)
        divisors = [d for d in (random_poly(ring, rng)
                                for _ in range(rng.randint(1, 3))) if d]
        if not divisors:
            divisors = [ring.one]
        qs, r = divide_with_remainder(p, divisors)
        assert reexpands(p, divisors, qs, r)
        for m, _ in r.terms:
            assert not any(all(a >= b for a, b in zip(m, d.LM)) for d in divisors)
    return cases


def check_buchberger_idempotence(rng, cases):
    for _ in range(cases):
        ring = random_ring(rng)
        gens = [g for g in (random_poly(ring, rng, max_deg=3)
                            for _ in range(rng.randint(1, 3))) if g]
        if not gens:
            continue
        basis = buchberger(gens).groebner_basis()
        assert buchberger(list(basis)).groebner_basis() == basis
    return cases


def check_membership_order_agreement(rng, cases):
    for _ in range(cases):
        ring = random_ring(rng)
        lex_ring = ring.with_order(LEX)
        gens = [g for g in (random_poly(ring, rng, max_deg=3)
                            for _ in range(rng.randint(1, 2))) if g]
        if not gens:
            continue
        probe = random_poly(ring, rng, max_deg=3)
        drl = ideal_member(probe, Ideal(ring, gens))
        lexed = ideal_member(probe.map_to(lex_ring),
                             Ideal(lex_ring, [g.map_to(lex_ring) for g in gens]))
        assert drl == lexed
    return cases


def check_syzygy_soundness(rng, cases):
    for _ in range(cases):
        ring = random_ring(rng)
        gens = [g for g in (random_poly(ring, rng, max_deg=3)
                            for _ in range(rng.randint(2, 3))) if g]
        if len(gens) < 2:
            continue
        ambient_gens = [g for g in (random_poly(ring, rng, max_deg=2),)
                        if g and rng.random() < 0.5]
        ambient = Ideal(ring, ambient_gens)
        for vec in syzygies(gens, ambient):
            combo = sum((c * g for c, g in zip(vec, gens)), ring.zero)
            assert ideal_member(combo, ambient) if ambient_gens else combo.is_zero()
    return cases


def check_quotient_annihilator_laws(rng, cases):
    for _ in range(cases):
        ring = random_ring(rng)
        ctx = QuotientRingContext(ring, Ideal(ring, []))
        I = Ideal(ring, [g for g in (random_poly(ring, rng, max_deg=3)
                                     for _ in range(2)) if g])
        J = Ideal(ring, [g for g in (random_poly(ring, rng, max_deg=2),) if g])
        if I.is_zero() or J.is_zero():
            continue
        Q = ideal_quotient(I, J, ctx)
        for g in I.generators:
            assert ideal_member(g, Q)
        for q in Q.generators:
            for j in J.generators:
                assert ideal_member(q * j, I)
        # annihilator duality in a quotient by a principal ideal
        d = linearish(ring, rng)
        qctx = QuotientRingContext(ring, Ideal(ring, [d]))
        f = qctx.nf(random_poly(ring, rng, max_deg=2))
        if f:
            for a in annihilator(f, qctx).generators:
                assert qctx.is_zero(f * a)
    return cases


def check_radical_certification(rng, cases):
    for _ in range(cases):
        ring = random_ring(rng)
        gens = [linearish(ring, rng) for _ in range(rng.randint(1, 2))]
        I = Ideal(ring, gens)
        if I.contains_one():
            continue
        out = radical(I)
        for g in I.generators:
            assert ideal_member(g, out)
        for g in out.generators:
            assert radical_membership(g, I)
        twice = radical(Ideal(ring, list(out.generators)))
        assert ideals_equal(out, twice)
    return cases


def run_property_suite(seed=SEED):
    rng = random.Random(seed)
    counts = {
        "division": check_division(rng, 60),
        "buchberger_idempotence": check_buchberger_idempotence(rng, 40),
        "membership_order_agreement": check_membership_order_agreement(rng, 30),
        "syzygy_soundness": check_syzygy_soundness(rng, 30),
        "quotient_annihilator_laws": check_quotient_annihilator_laws(rng, 25),
        "radical_certification": check_radical_certification(rng, 20),
    }
    return counts


def test_division_reexpansion():
    check_division(random.Random(SEED), 60)


def test_buchberger_idempotence():
    check_buchberger_idempotence(random.Random(SEED + 1), 40)


def test_membership_order_agreement():
    check_membership_order_agreement(random.Random(SEED + 2), 30)


def test_syzygy_soundness():
    check_syzygy_soundness(random.Random(SEED + 3), 30)


def test_quotient_annihilator_laws():
    check_quotient_annihilator_laws(random.Random(SEED + 4), 25)


def test_radical_certification():
    check_radical_certification(random.Random(SEED + 5), 20)
