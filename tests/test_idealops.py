import importlib
import random
from itertools import combinations

import pytest

from closurekit import (
    DEGREVLEX,
    Block,
    GF,
    LEX,
    QQ,
    Ideal,
    PolyRing,
    QuotientRingContext,
    annihilator,
    dimension,
    extend_ring,
    ideal_member,
    ideal_quotient,
    ideals_equal,
    intersect,
    jacobian_test_ideal,
    presentation,
    radical,
    radical_membership,
    saturation,
)
from closurekit.errors import (
    UnsupportedCharacteristic,
    ZeroPolynomial,
)
from closurekit.normalize import _step
from conftest import P
from oracles import (
    monomials_up_to,
    reference_determinant,
    reference_eliminant,
    reference_quotient,
    reference_squarefree_part,
)

idealops = importlib.import_module("closurekit.idealops")


def ctx_for(ring, gens):
    return QuotientRingContext(ring, Ideal(ring, gens))


def test_quotient_monomial_example(ring_xy):
    ctx = ctx_for(ring_xy, [])
    I = Ideal(ring_xy, [P(ring_xy, "x^2"), P(ring_xy, "x*y")])
    J = Ideal(ring_xy, [ring_xy.var("x"), ring_xy.var("y")])
    Q = ideal_quotient(I, J, ctx)
    assert ideals_equal(Q, Ideal(ring_xy, [ring_xy.var("x")]))
    # membership both ways: x qualifies, y does not
    for j in J.generators:
        assert ideal_member(ring_xy.var("x") * j, I)
    assert not ideal_member(ring_xy.var("y") * ring_xy.var("y"), I)


def test_quotient_by_unit_is_identity(ring_xy):
    ctx = ctx_for(ring_xy, [])
    I = Ideal(ring_xy, [P(ring_xy, "x^2 - y")])
    Q = ideal_quotient(I, Ideal(ring_xy, [ring_xy.one]), ctx)
    assert ideals_equal(Q, I)


def test_quotient_cusp_hom_numerators(ring_xy):
    # ((x*(x,y)) : (x,y)) modulo the cusp is the maximal ideal
    ctx = ctx_for(ring_xy, [P(ring_xy, "y^2 - x^3")])
    x, y = ring_xy.gens()
    I = Ideal(ring_xy, [x * x, x * y])
    J = Ideal(ring_xy, [x, y])
    Q = ideal_quotient(I, J, ctx)
    assert ideals_equal(Q, Ideal(ring_xy, [x, y]))


def test_quotient_laws_random(ring_xy):
    rng = random.Random(7300)
    monos = monomials_up_to(2, 3)

    def rand_poly():
        d = {}
        for _ in range(rng.randint(1, 3)):
            c = 0
            while not c:
                c = rng.randint(-3, 3)
            d[rng.choice(monos)] = c
        return ring_xy.from_dict(d)

    ctx = ctx_for(ring_xy, [])
    for _ in range(15):
        I = Ideal(ring_xy, [g for g in (rand_poly() for _ in range(2)) if g])
        J = Ideal(ring_xy, [g for g in (rand_poly(),) if g])
        if I.is_zero() or J.is_zero():
            continue
        Q = ideal_quotient(I, J, ctx)
        for g in I.generators:
            assert ideal_member(g, Q)
        for q in Q.generators:
            for j in J.generators:
                assert ideal_member(q * j, I)


def test_annihilator_of_zero_divisor():
    R = PolyRing(QQ, ["x", "y"])
    ctx = ctx_for(R, [P(R, "x*y")])
    ann = annihilator(R.var("x"), ctx)
    assert ideals_equal(ann, Ideal(R, [R.var("y")]))


def test_annihilator_of_unit_in_reduced_ring(ring_xy):
    ctx = ctx_for(ring_xy, [P(ring_xy, "x*y")])
    assert ideals_equal(annihilator(ring_xy.one, ctx), ctx.defining)


def test_annihilator_in_domain(ring_xy):
    ctx = ctx_for(ring_xy, [P(ring_xy, "y^2 - x^3")])
    assert ideals_equal(annihilator(ring_xy.var("x"), ctx), ctx.defining)


def test_annihilator_duality_random(ring_xy):
    ctx = ctx_for(ring_xy, [P(ring_xy, "x^2*y - y")])
    rng = random.Random(7301)
    monos = monomials_up_to(2, 2)
    for _ in range(10):
        d = {}
        for _ in range(rng.randint(1, 2)):
            c = 0
            while not c:
                c = rng.randint(-3, 3)
            d[rng.choice(monos)] = c
        f = ring_xy.from_dict(d)
        if ctx.is_zero(f):
            continue
        ann = annihilator(f, ctx)
        for a in ann.generators:
            assert ctx.is_zero(f * a)


def _with_defining(I, ctx):
    return Ideal(ctx.ring, list(I.generators) + list(ctx.defining.generators))


def _check_against_reference(ctx, I, *J):
    """annihilator(f) for each generator f of J, and ideal_quotient(I, J),
    against the t-trick quotients D : f and (I + D) : J; the reference
    for J is the intersection of the quotients by its generators.  Both
    results must be generated by the reduced basis they hold."""
    D = ctx.defining
    for f in J:
        ann = annihilator(f, ctx)
        assert ann.generators == ann.groebner_basis()
        assert ideals_equal(ann, reference_quotient(D, f))
    quo = ideal_quotient(I, Ideal(ctx.ring, list(J)), ctx)
    assert quo.generators == quo.groebner_basis()
    ref = reference_quotient(_with_defining(I, ctx), J[0])
    for f in J[1:]:
        ref = intersect(ref, reference_quotient(_with_defining(I, ctx), f))
    assert ideals_equal(quo, ref)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("order", [LEX, DEGREVLEX], ids=["lex", "degrevlex"])
def test_colon_ideals_match_reference_quotient(field, order):
    R = PolyRing(field, ["x", "y", "z"], order)
    rng = random.Random(7310)
    # J's extra generators come from their own stream, so that the draws of
    # D, I and the single generators stay the same
    j_rng = random.Random(7311)
    monos = monomials_up_to(3, 2)

    def rand_poly(rng=rng):
        d = {}
        for _ in range(rng.randint(1, 3)):
            d[rng.choice(monos)] = rng.choice((1, -1, 2, -3))
        return R.from_dict(d)

    checked = {1: 0, 2: 0, 3: 0, 4: 0}
    for _ in range(12):
        g1, g2, g3 = rand_poly(), rand_poly(), rand_poly()
        # a reducible D, so that g1 and g2 tend to be zerodivisors
        gens = [g1 * g2] + ([g1 * g3] if rng.random() < 0.5 else [])
        if not all(gens) or Ideal(R, gens).contains_one():
            continue
        ctx = QuotientRingContext(R, Ideal(R, gens))
        i1, i2 = rand_poly(), rand_poly()
        I = Ideal(R, [i1, i2])
        for f in (g1, g2, rand_poly() * g2):
            if f and not ctx.is_zero(f):
                _check_against_reference(ctx, I, f)
                checked[1] += 1
        # J with 2-4 generators, one syzygy run with a slot for each; when
        # J leads with a member of I, that slot reduces to zero modulo
        # I + D and the run's basis leads in the later slots
        first = rand_poly(j_rng) * (i1 if j_rng.random() < 0.5 else R.one)
        J = [first, g1, g2 + rand_poly(j_rng), rand_poly(j_rng)][:j_rng.randint(2, 4)]
        if all(J):
            _check_against_reference(ctx, I, *J)
            checked[len(J)] += 1
    assert checked[1] >= 20 and all(checked.values())


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("order", [LEX, DEGREVLEX], ids=["lex", "degrevlex"])
def test_colon_ideal_edge_cases(field, order):
    R = PolyRing(field, ["x", "y"], order)
    x, y = R.gens()
    reduced = QuotientRingContext(R, Ideal(R, [x * y * (x - y)]))
    zero = QuotientRingContext(R, Ideal(R, []))
    I = Ideal(R, [x * x, y * y * y])
    # f already in I + D: the quotient is the unit ideal
    assert ideal_quotient(I, Ideal(R, [x * x * y]), reduced).contains_one()
    assert reference_quotient(_with_defining(I, reduced), x * x * y).contains_one()
    # f a unit: I : 1 = I, and a unit annihilates nothing
    _check_against_reference(reduced, I, R.one)
    assert ideals_equal(annihilator(R.one, reduced), reduced.defining)
    # f zero modulo D: everything annihilates it
    assert annihilator(x * y * (x - y), reduced).contains_one()
    # f a zerodivisor of the reduced ring x*y*(x - y) = 0
    _check_against_reference(reduced, I, x)
    assert ideals_equal(annihilator(x, reduced), Ideal(R, [y * (x - y)]))
    _check_against_reference(reduced, I, x * (x - y))
    # a zero ambient ideal: nothing annihilates f, and 0 : f = 0
    _check_against_reference(zero, Ideal(R, []), x + y)
    assert annihilator(x + y, zero).is_zero()
    assert ideal_quotient(Ideal(R, []), Ideal(R, [x + y]), zero).is_zero()


@pytest.mark.parametrize("order", [LEX, DEGREVLEX], ids=["lex", "degrevlex"])
def test_colon_ideal_fixed_case(order):
    # under lex over QQ this quotient's reduced basis, with coefficients
    # like 275/34992, once took 23 s to build from the syzygy entries
    R = PolyRing(QQ, ["x", "y", "z"], order)
    ctx = ctx_for(R, [P(R, "3*x*y^2 + 3*x*y*z^2 + 3*x*y*z + 9*y + 9*z^2 + 9*z"),
                      P(R, "3*x^2*y^2 + 9*x*y")])
    I = Ideal(R, [P(R, "-3*x*y + 2*y*z + z"), P(R, "2*x^2 + x*y - y^2")])
    _check_against_reference(ctx, I, P(R, "-3*y - 3*z^2 - 3*z"))


def test_saturation_strips_powers(ring_xy):
    I = Ideal(ring_xy, [P(ring_xy, "x^2*y")])
    out = saturation(I, ring_xy.var("x"))
    assert ideals_equal(out, Ideal(ring_xy, [ring_xy.var("y")]))
    assert ideal_member(ring_xy.var("y") * P(ring_xy, "x^2"), I)


def test_saturation_by_unit(ring_xy):
    I = Ideal(ring_xy, [P(ring_xy, "x^2 - y")])
    assert ideals_equal(saturation(I, ring_xy.one), I)


def test_saturation_umbrella_path(ring_xyz):
    I = Ideal(ring_xyz, [P(ring_xyz, "x"), P(ring_xyz, "y*z"), P(ring_xyz, "y^2"),
                         P(ring_xyz, "x^2 - y^2*z")])
    out = saturation(I, ring_xyz.var("z"))
    assert ideals_equal(out, Ideal(ring_xyz, [ring_xyz.var("x"), ring_xyz.var("y")]))


def test_saturation_rejects_zero(ring_xy):
    with pytest.raises(ZeroPolynomial):
        saturation(Ideal(ring_xy, [ring_xy.var("x")]), ring_xy.zero)


def test_intersect_principal(ring_xy):
    out = intersect(Ideal(ring_xy, [ring_xy.var("x")]),
                    Ideal(ring_xy, [ring_xy.var("y")]))
    assert ideals_equal(out, Ideal(ring_xy, [P(ring_xy, "x*y")]))


def test_intersect_self(ring_xy):
    I = Ideal(ring_xy, [P(ring_xy, "x^2 - y"), ring_xy.var("y")])
    assert ideals_equal(intersect(I, I), I)


def test_intersect_with_unit(ring_xy):
    I = Ideal(ring_xy, [ring_xy.var("x"), ring_xy.var("y")])
    out = intersect(I, Ideal(ring_xy, [ring_xy.one]))
    assert ideals_equal(out, I)


def test_intersect_contains_product(ring_xy):
    I = Ideal(ring_xy, [P(ring_xy, "x + y")])
    J = Ideal(ring_xy, [P(ring_xy, "x - y"), ring_xy.var("y")])
    out = intersect(I, J)
    for g in out.generators:
        assert ideal_member(g, I)
        assert ideal_member(g, J)
    for gi in I.generators:
        for gj in J.generators:
            assert ideal_member(gi * gj, out)


def test_radical_membership_examples(ring_xy):
    x, y = ring_xy.gens()
    I = Ideal(ring_xy, [x * x])
    assert radical_membership(x, I)
    assert not radical_membership(y, I)
    J = Ideal(ring_xy, [x * x, y * y])
    # (x+y)^3 = x^3 + 3x^2y + 3xy^2 + y^3 lies in (x^2, y^2)
    assert ideal_member((x + y) ** 3, J)
    assert radical_membership(x + y, J)


def test_radical_principal_power(ring_xy):
    out = radical(Ideal(ring_xy, [P(ring_xy, "x^2")]))
    assert ideals_equal(out, Ideal(ring_xy, [ring_xy.var("x")]))


def test_radical_zero_dimensional(ring_xy):
    out = radical(Ideal(ring_xy, [P(ring_xy, "x^2"), P(ring_xy, "y^3")]))
    assert ideals_equal(out, Ideal(ring_xy, [ring_xy.var("x"), ring_xy.var("y")]))


def test_radical_umbrella_singular_locus(ring_xyz):
    I = Ideal(ring_xyz, [P(ring_xyz, "x"), P(ring_xyz, "y*z"), P(ring_xyz, "y^2"),
                         P(ring_xyz, "x^2 - y^2*z")])
    out = radical(I)
    assert ideals_equal(out, Ideal(ring_xyz, [ring_xyz.var("x"), ring_xyz.var("y")]))
    for g in out.generators:
        assert radical_membership(g, I)
    for g in I.generators:
        assert ideal_member(g, out)


def test_radical_idempotent(ring_xyz):
    I = Ideal(ring_xyz, [P(ring_xyz, "x^2*y"), P(ring_xyz, "y^2*z")])
    once = radical(I)
    twice = radical(Ideal(ring_xyz, list(once.generators)))
    assert ideals_equal(once, twice)


def test_radical_of_zero_and_unit(ring_xy):
    assert radical(Ideal(ring_xy, [])).is_zero()
    assert radical(Ideal(ring_xy, [ring_xy.one])).contains_one()


def test_radical_makes_no_dimension_call(ring_xy, monkeypatch):
    # one path: dimension zero is found inside _radical_general, not asked up front
    calls = []
    real = idealops.dimension
    monkeypatch.setattr(idealops, "dimension", lambda I: calls.append(I) or real(I))
    for gens in (["x^2", "y^3"], ["x^2"]):
        I = Ideal(ring_xy, [P(ring_xy, g) for g in gens])
        radical(I)
    assert calls == []


def test_radical_zerodim_helper_refuses_positive_dimension(ring_xy):
    # the minimal-polynomial loop would not end: the helper raises first
    I = Ideal(ring_xy, [P(ring_xy, "x^2")])
    with pytest.raises(AssertionError, match="no pure power of y"):
        idealops._radical_zerodim(I, 0)


# -- minimal polynomials against the elimination reference ------------------

def _points_ideal(ring, rng, npoints):
    """Intersection of (x - a)^m over seeded points a, multiplicity m in {1, 2}."""
    xs = ring.gens()
    out = None
    for _ in range(npoints):
        lin = [x - rng.randint(-3, 3) for x in xs]
        if rng.random() < 0.5:
            lin = [p * q for k, p in enumerate(lin) for q in lin[k:]]
        J = Ideal(ring, lin)
        out = J if out is None else intersect(out, J)
    return out


_ELIMINANT_CASES = {
    # name: (number of variables, ideal builder)
    "points-1": (1, lambda R, rng: _points_ideal(R, rng, 4)),
    "points-2": (2, lambda R, rng: _points_ideal(R, rng, 3)),
    "points-3": (3, lambda R, rng: _points_ideal(R, rng, 3)),
    "points-4": (4, lambda R, rng: _points_ideal(R, rng, 2)),
    "fat-point": (2, lambda R, rng: Ideal(R, [P(R, "x^2"), P(R, "x*y"), P(R, "y^2")])),
    "non-squarefree-1": (1, lambda R, rng: Ideal(R, [
        (R.var("x") - 1) ** 2 * (R.var("x") + 2) ** 3])),
    "non-squarefree-3": (3, lambda R, rng: Ideal(R, [
        (R.var("x") - 1) ** 2 * (R.var("x") + 2), (R.var("y") - R.var("x")) ** 2,
        P(R, "z^2 - y*z + x")])),
    "sqrt2-sqrt3": (2, lambda R, rng: Ideal(R, [P(R, "x^2 - 2"), P(R, "y^2 - 3")])),
}


def _block_order(n):
    head = max(1, n // 2)
    blocks = [(range(head), DEGREVLEX)]
    if head < n:
        blocks.append((range(head, n), LEX))
    return Block(*blocks)


@pytest.mark.parametrize("order", ["lex", "degrevlex", "block"])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("case", sorted(_ELIMINANT_CASES))
def test_minimal_polynomial_matches_elimination_reference(case, field, order,
                                                        monkeypatch):
    nvars, build = _ELIMINANT_CASES[case]
    orders = {"lex": LEX, "degrevlex": DEGREVLEX, "block": _block_order(nvars)}
    ring = PolyRing(field, ["x", "y", "z", "w"][:nvars], orders[order])
    I = build(ring, random.Random(f"{case}-{field}-{order}"))
    # one normal form per power 1, x_i, ..., x_i^d; a broken echelon step
    # that never meets its dependency fails here instead of looping
    forms = []
    real = idealops.normal_form

    def counted(p, ideal):
        forms.append(p)
        assert len(forms) <= 64, "no dependency among the first 64 powers"
        return real(p, ideal)

    monkeypatch.setattr(idealops, "normal_form", counted)
    extra = []
    for i in range(nvars):
        expected = reference_eliminant(I, i)
        forms.clear()
        got = idealops._minimal_polynomial(I, i)
        assert got.ring == ring and got.raw == expected.raw
        assert len(forms) == got.degree_in(i) + 1
        if case == "sqrt2-sqrt3":
            assert got.degree_in(i) == 2
        extra.append(reference_squarefree_part(expected, i))
    monkeypatch.undo()
    if case == "sqrt2-sqrt3":
        assert len(I.groebner_basis()) == 2  # dim R/I = 4 > 2
    reference = Ideal(ring, list(I.generators) + extra).groebner_basis()
    assert idealops._radical_zerodim(I, field.characteristic).groebner_basis() == reference


# -- squarefree parts against the dense Euclid reference --------------------

def _random_factor(ring, rng, deg):
    """A polynomial of degree ``deg`` in x whose coefficients are
    polynomials of degree <= 1 in the other variable, if any."""
    x = ring.var("x")
    others = [ring.var(v) for v in ring.variables[1:]]

    def coeff():
        return ring.from_scalar(rng.randint(-9, 9)) + sum(
            (v * rng.randint(-3, 3) for v in others), ring.zero)

    lead = coeff()
    while not lead:
        lead = coeff()
    return lead * x ** deg + sum((coeff() * x ** k for k in range(deg)), ring.zero)


def _specialize(f, values):
    """f with every variable but x set to its seeded integer value."""
    out = {}
    for m, c in f.terms:
        scale = c
        for v, e in zip(values, m[1:]):
            scale *= v ** e
        key = (m[0],) + (0,) * len(values)
        out[key] = out.get(key, 0) + scale
    return f.ring.from_dict(out)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("variables,shape", [
    # (degree in x, power) of each seeded factor
    (["x"], [(1, 3), (2, 2), (3, 3), (4, 1), (2, 3), (3, 2), (4, 2), (1, 1)]),
    # the k[y]-content of the remainders is kept, so their degree in y
    # roughly doubles with each step: the polynomial stays small
    (["x", "y"], [(2, 2), (1, 1), (1, 2)]),
], ids=["k[x]", "k(y)[x]"])
def test_squarefree_part_matches_dense_euclid(field, variables, shape):
    ring = PolyRing(field, variables)
    rng = random.Random(f"squarefree-{field}-{len(variables)}")
    g = ring.one
    for degree, power in shape:
        g = g * _random_factor(ring, rng, degree) ** power
    part, junk = idealops._squarefree_part(g, 0, field.characteristic)
    assert all(h.degree_in(0) <= 0 for h in junk)
    # over k(y) the part is the reference's up to a unit, so the two agree
    # after specializing y and making them monic
    for _ in range(2):
        values = [rng.randint(1, 10 ** 4) for _ in variables[1:]]
        reference = reference_squarefree_part(_specialize(g, values), 0)
        assert reference.degree_in(0) < g.degree_in(0)
        assert _specialize(part, values).monic() == reference


# -- witness exponents before Rabinowitsch ----------------------------------

@pytest.fixture
def rabinowitsch_runs(monkeypatch):
    runs = []
    real = idealops._rabinowitsch

    def counted(f, I):
        runs.append(f)
        return real(f, I)

    monkeypatch.setattr(idealops, "_rabinowitsch", counted)
    return runs


def test_witness_settles_up_to_the_cap(ring_xy, rabinowitsch_runs):
    x, _ = ring_xy.gens()
    assert idealops._WITNESS_CAP == 8
    assert radical_membership(x, Ideal(ring_xy, [x ** 8]))
    assert rabinowitsch_runs == []


def test_witness_beyond_cap_falls_back(ring_xy, rabinowitsch_runs):
    x, _ = ring_xy.gens()
    assert radical_membership(x, Ideal(ring_xy, [x ** 9]))
    assert rabinowitsch_runs == [x]


def test_non_members_answered_by_fallback(ring_xy, rabinowitsch_runs):
    x, y = ring_xy.gens()
    I = Ideal(ring_xy, [x * x])
    assert not radical_membership(y, I)
    assert not radical_membership(x + 1, I)
    assert rabinowitsch_runs == [y, x + 1]


def test_membership_in_unit_and_zero_ideals(ring_xy, rabinowitsch_runs):
    x, y = ring_xy.gens()
    unit = Ideal(ring_xy, [ring_xy.one])
    assert radical_membership(x, unit) and radical_membership(ring_xy.one, unit)
    assert rabinowitsch_runs == []
    zero = Ideal(ring_xy, [])
    assert radical_membership(ring_xy.zero, zero)
    assert not radical_membership(x * y, zero)
    assert rabinowitsch_runs == [x * y]


def test_witness_agrees_with_rabinowitsch():
    rng = random.Random(7)
    ring = PolyRing(QQ, ["x", "y", "z"])
    monos = [m for m in monomials_up_to(3, 2) if any(m)]
    for _ in range(30):
        gens = [ring.from_dict({m: rng.randint(-2, 2) for m in rng.sample(monos, 2)})
                for _ in range(2)]
        I = Ideal(ring, [g ** rng.randint(1, 3) for g in gens])
        f = ring.from_dict({m: rng.randint(-2, 2) for m in rng.sample(monos, 2)})
        for h in (f, gens[0], gens[0] * f):
            assert radical_membership(h, I) == idealops._rabinowitsch(h, I)


def test_radical_of_concurrent_lines_needs_no_fallback(ring_xyz, rabinowitsch_runs):
    # three concurrent lines in 3-space: every generator of the radical is
    # certified by a witness exponent
    I = Ideal(ring_xyz, [
        P(ring_xyz, "x*y - x*z - y^2 + 2*y*z - z^2 + 2*y - 2*z"),
        P(ring_xyz, "x*z - y*z + z^2 + x - y + 3*z + 2"),
        P(ring_xyz, "y*z - z^2 + y - z")])
    out = radical(I)
    assert ideals_equal(out, I)
    assert rabinowitsch_runs == []


def test_radical_over_small_prime_field_rejected():
    R = PolyRing(GF(2), ["x", "y"])
    I = Ideal(R, [P(R, "x^2"), R.var("y")])
    with pytest.raises(UnsupportedCharacteristic):
        radical(I)


def test_radical_over_large_enough_prime_field():
    R = PolyRing(GF(7), ["x", "y"])
    I = Ideal(R, [P(R, "x^2"), P(R, "y^3")])
    out = radical(I)
    assert ideals_equal(out, Ideal(R, [R.var("x"), R.var("y")]))


def test_jacobian_cusp(ring_xy):
    ctx = ctx_for(ring_xy, [P(ring_xy, "y^2 - x^3")])
    jac = jacobian_test_ideal(ctx)
    assert [str(g) for g in jac.generators] == ["-x^3 + y^2", "-3*x^2", "2*y"]
    assert ideals_equal(jac, Ideal(ring_xy, [P(ring_xy, "x^2"), ring_xy.var("y")]))


def test_jacobian_smooth_conic_is_unit(ring_xy):
    ctx = ctx_for(ring_xy, [P(ring_xy, "x^2 + y^2 - 1")])
    assert jacobian_test_ideal(ctx).contains_one()


def test_jacobian_umbrella(ring_xyz):
    ctx = ctx_for(ring_xyz, [P(ring_xyz, "x^2 - y^2*z")])
    jac = jacobian_test_ideal(ctx)
    expected = Ideal(ring_xyz, [P(ring_xyz, "x^2 - y^2*z"), P(ring_xyz, "2*x"),
                                P(ring_xyz, "2*y*z"), P(ring_xyz, "y^2")])
    assert ideals_equal(jac, expected)


def test_jacobian_hypersurface_is_gradient(ring_xyz):
    f = P(ring_xyz, "x^3 + y^3 + z^3 - 3*x*y*z")
    ctx = ctx_for(ring_xyz, [f])
    jac = jacobian_test_ideal(ctx)
    expected = Ideal(ring_xyz, [f, f.derivative(0), f.derivative(1), f.derivative(2)])
    assert ideals_equal(jac, expected)


def _reference_jacobian(ctx):
    """The generators of jacobian_test_ideal(ctx) from exact Laplace
    determinants, visited, reduced, deduplicated and cut off as that
    function does, plus the set of edge cases met on the way."""
    ring = ctx.ring
    gens = list(ctx.defining.generators)
    c = ring.nvars - dimension(ctx.defining)
    jac = [[ctx.nf(g.derivative(j)) for j in range(ring.nvars)] for g in gens]
    events = {f"c={c}"}
    if any(not any(row[j] for row in jac) for j in range(ring.nvars)):
        events.add("zero-column")
    minors, seen = [], set()
    for rows in combinations(range(len(gens)), c):
        for cols in combinations(range(ring.nvars), c):
            det = reference_determinant([[jac[r][j] for j in cols] for r in rows])
            if not det:
                continue
            if c > 1:
                det = ctx.nf(det)
                if not det:
                    events.add("vanishes-mod-D")
                    continue
            key = det.monic()
            if key in seen:
                continue
            seen.add(key)
            minors.append(det)
            if det.is_constant():
                events.add("early-stop")
                return gens + minors, events
    return gens + minors, events


def _tower_levels(ring):
    """Every level of the tower over (y + 2)^3 = (x - 1)^4 in ring."""
    x, y = ring.gens()
    pres = presentation(ring, [(y + 2) ** 3 - (x - 1) ** 4])
    levels = [pres]
    while True:
        kind, endo = _step(pres)
        if kind != "extend":
            return levels
        pres = extend_ring(pres, endo)
        levels.append(pres)


_JACOBIAN_CASES = {
    # (generators in x, y, z, w, events the reference must meet)
    "cusp-cylinder": (["y^2 - x^3"], {"c=1", "zero-column"}),
    "axes-3": (["x*y", "x*z", "y*z"], {"c=2", "zero-column", "vanishes-mod-D"}),
    "twisted-cubic": (["y - x^2", "z - x^3"], {"c=2", "zero-column", "early-stop"}),
    "axes-4": (["x*y", "x*z", "x*w", "y*z", "y*w", "z*w"],
               {"c=3", "vanishes-mod-D"}),
    "quartic-curve": (["y - x^2", "z - x^3", "w - x^4"], {"c=3", "early-stop"}),
}


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("case", sorted(_JACOBIAN_CASES))
def test_jacobian_matches_laplace_reference(case, field, order):
    texts, expected_events = _JACOBIAN_CASES[case]
    ring = PolyRing(field, ["x", "y", "z", "w"], order)
    ctx = ctx_for(ring, [P(ring, t) for t in texts])
    expected, events = _reference_jacobian(ctx)
    assert expected_events <= events
    # unit pivots change the generator list, never the ideal
    assert ideals_equal(jacobian_test_ideal(ctx), Ideal(ring, expected))


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_jacobian_matches_laplace_reference_on_tower(field, order):
    levels = _tower_levels(PolyRing(field, ["x", "y"], order))
    seen_codims = set()
    for pres in levels:
        expected, events = _reference_jacobian(pres.ctx)
        seen_codims |= {e for e in events if e.startswith("c=")}
        assert ideals_equal(jacobian_test_ideal(pres.ctx), Ideal(pres.ring, expected))
    assert {"c=1", "c=2", "c=4"} <= seen_codims
    if order is DEGREVLEX:
        top = levels[-1].ring
        assert (top.nvars, len(levels[-1].defining.generators)) == (5, 10)


def _seeded_poly(ring, rng, names, degrees=(2, 3)):
    """Three terms of the given degrees in ``names`` with small nonzero
    coefficients; with the default degrees no derivative is constant."""
    out = ring.zero
    for _ in range(3):
        exps = [0] * ring.nvars
        for _ in range(rng.choice(degrees)):
            exps[ring.index(rng.choice(names))] += 1
        out = out + ring.term(tuple(exps), rng.choice([-3, -2, -1, 1, 2, 3]))
    return out


_PIVOT_CASES = {
    # name -> (generators from (ring, rng), c left after the pivots); the
    # leading variables are solved for or lead as pure powers, so lex bases
    # stay small
    # x and y are solved for, with linear terms in z and w: constants in
    # rows 0 and 1, in columns x, y and some of z, w; the last row has
    # entries in every column, so the pivots fill it in
    "two-pivots": (lambda R, rng: [3 * R.var("x") - _seeded_poly(R, rng, "zw", (1, 2)),
                                   -2 * R.var("y") - _seeded_poly(R, rng, "zw", (1, 2)),
                                   P(R, "z^3 - w^2 + x*w + y*z")
                                   + _seeded_poly(R, rng, "xyzw")],
                   1),
    # a graph over the w-axis: every row pivots, down to c = 0
    "graph": (lambda R, rng: [5 * R.var("z") - _seeded_poly(R, rng, "w"),
                              R.var("y") - _seeded_poly(R, rng, "zw"),
                              R.var("x") - _seeded_poly(R, rng, "yzw")],
              0),
    # no term of degree below 2: no constant entry, nothing pivots
    "no-constant": (lambda R, rng: [P(R, "x^2") + _seeded_poly(R, rng, "zw"),
                                    P(R, "y^2") + _seeded_poly(R, rng, "zw")],
                    2),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("case", sorted(_PIVOT_CASES))
def test_jacobian_pivots_keep_the_ideal(case, field, order, seed):
    build, c_left = _PIVOT_CASES[case]
    ring = PolyRing(field, ["x", "y", "z", "w"], order)
    ctx = ctx_for(ring, build(ring, random.Random(f"pivot-{case}-{seed}")))
    expected, _ = _reference_jacobian(ctx)
    jac = [[ctx.nf(g.derivative(j)) for j in range(ring.nvars)]
           for g in ctx.defining.generators]
    c = ring.nvars - dimension(ctx.defining)
    pivoted, c_after = idealops._pivot_units(jac, c, ctx)
    assert c_after == c_left
    assert len(pivoted) == len(jac) - (c - c_after)
    assert not c_after or not any(e.is_constant() for row in pivoted for e in row if e)
    if c_after < c:
        # the first pivot u = m_rj, at the first constant entry: each 2 x 2
        # minor through it is u times the matching entry of the next matrix
        r, j = next((r, j) for r, row in enumerate(jac)
                    for j, e in enumerate(row) if e and e.is_constant())
        step, _ = idealops._pivot_units(jac, 1, ctx)
        rows = [i for i in range(len(jac)) if i != r]
        cols = [k for k in range(ring.nvars) if k != j]
        for a, i in enumerate(rows):
            for b, k in enumerate(cols):
                det = reference_determinant([[jac[r][j], jac[r][k]], [jac[i][j], jac[i][k]]])
                assert ctx.is_zero(det - jac[r][j] * step[a][b])
    out = jacobian_test_ideal(ctx)
    assert ideals_equal(out, Ideal(ring, expected))
    assert out.contains_one() == (c_after == 0)


def test_quotient_ring_context_normal_form(ring_xy):
    ctx = ctx_for(ring_xy, [P(ring_xy, "y^2 - x^3")])
    assert ctx.nf(P(ring_xy, "y^2")) == ctx.nf(P(ring_xy, "x^3"))
    assert ctx.is_zero(P(ring_xy, "y^2 - x^3"))
