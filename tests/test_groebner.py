import importlib
import random

import pytest

from closurekit import (
    DEGREVLEX,
    GF,
    LEX,
    QQ,
    Block,
    Ideal,
    PolyRing,
    buchberger,
    dimension,
    divide_with_remainder,
    eliminate,
    elimination_order,
    ideal_member,
    ideals_equal,
    lift,
    normal_form,
    syzygies,
)
from closurekit.errors import NotAMember, RingMismatch, UnknownVariable
from closurekit.groebner import contract, lift_all
from conftest import P
from oracles import (
    all_in_module_span,
    brute_force_syzygies,
    in_module_span,
    monomials_up_to,
    reference_divide,
    reference_spoly,
    substitute,
)


def test_single_generator_is_its_own_basis(ring_xy):
    I = buchberger([P(ring_xy, "x")])
    assert list(I.groebner_basis()) == [P(ring_xy, "x")]


def test_lex_basis_classic_pair():
    R = PolyRing(QQ, ["x", "y"], LEX)
    I = buchberger([P(R, "x*y - 1"), P(R, "y^2 - 1")])
    basis = list(I.groebner_basis())
    assert basis == [P(R, "x - y"), P(R, "y^2 - 1")]
    # certificate from the S-polynomial: y(xy-1) - x(y^2-1) = x - y
    x, y = R.gens()
    assert y * P(R, "x*y - 1") - x * P(R, "y^2 - 1") == P(R, "x - y")
    # two-way membership through the division oracle
    for g in (P(R, "x*y - 1"), P(R, "y^2 - 1")):
        _, r = divide_with_remainder(g, basis)
        assert r.is_zero()


def test_basis_drops_redundancy(ring_xy):
    I = buchberger([P(ring_xy, "y^2 - x^3"), P(ring_xy, "3*x^2"), P(ring_xy, "2*y")])
    basis = list(I.groebner_basis())
    assert basis == [P(ring_xy, "x^2"), P(ring_xy, "y")]
    # x is not in the ideal: direct division by the (coprime-LT) basis
    _, r = divide_with_remainder(P(ring_xy, "x"), basis)
    assert r == P(ring_xy, "x")


def test_normal_form_rewrites_leading_term():
    R = PolyRing(QQ, ["y", "x"], LEX)  # lex with y > x
    I = Ideal(R, [P(R, "y^2 - x^3")])
    nf = normal_form(P(R, "y^2"), I)
    assert nf == P(R, "x^3")
    assert normal_form(P(R, "y^2") - nf, I).is_zero()


def test_normal_form_of_member_is_zero(ring_xy):
    f = P(ring_xy, "x^2*y - 3*y + 1")
    assert normal_form(f, Ideal(ring_xy, [f])).is_zero()


def test_constants_are_irreducible(ring_xy):
    I = Ideal(ring_xy, [ring_xy.var("x"), ring_xy.var("y")])
    assert normal_form(ring_xy.one, I) == ring_xy.one


def test_membership_examples(ring_xy):
    I = Ideal(ring_xy, [P(ring_xy, "x^2"), P(ring_xy, "x*y"), P(ring_xy, "y^2 - x^3")])
    assert not ideal_member(P(ring_xy, "x"), I)
    f = P(ring_xy, "x^2 - 5*y")
    assert ideal_member(f, Ideal(ring_xy, [f]))
    J = Ideal(ring_xy, [P(ring_xy, "x*y - 1"), P(ring_xy, "y^2 - 1")])
    assert ideal_member(P(ring_xy, "x - y"), J)


def test_buchberger_idempotent(ring_xy):
    I = buchberger([P(ring_xy, "y^2 - x^3"), P(ring_xy, "x*y - x")])
    basis = I.groebner_basis()
    again = buchberger(list(basis))
    assert again.groebner_basis() == basis


def test_koszul_syzygy(ring_xy):
    x, y = ring_xy.gens()
    module = syzygies([x, y], Ideal(ring_xy, []))
    for vec in module:
        assert (vec[0] * x + vec[1] * y).is_zero()
    # the Koszul relation itself is produced
    assert in_module_span((y, -x), list(module), [], 4)
    # completeness against the brute-force degree-by-degree solve
    for vec in brute_force_syzygies([x, y], [], 4):
        assert in_module_span(vec, list(module), [], 5)
    # a zero generator is a syzygy by itself; x, 2x relate before any pair
    zero, one = ring_xy.zero, ring_xy.one
    for gens, expected in (([zero], (one,)), ([zero, x], (one, zero)),
                           ([x, 2 * x], (2 * one, -one))):
        module = syzygies(gens, Ideal(ring_xy, []))
        for vec in module:
            assert sum((c * g for c, g in zip(vec, gens)), zero).is_zero()
        assert in_module_span(expected, list(module), [], 2)
        for vec in brute_force_syzygies(gens, [], 2):
            assert in_module_span(vec, list(module), [], 3)


def test_syzygies_modulo_ambient(ring_xy):
    x, y = ring_xy.gens()
    ambient = Ideal(ring_xy, [P(ring_xy, "y^2 - x^3")])
    module = syzygies([x, y], ambient)
    for vec in module:
        assert ideal_member(vec[0] * x + vec[1] * y, ambient)
    amb = [P(ring_xy, "y^2 - x^3")]
    assert in_module_span((y, -x), list(module), amb, 4)
    assert in_module_span((-(x**2), y), list(module), amb, 4)
    for vec in brute_force_syzygies([x, y], amb, 3):
        assert in_module_span(vec, list(module), amb, 5)
    # variables named like the internal tags must not collide with them
    R = PolyRing(QQ, ["_e0", "_t"])
    u, v = R.gens()
    amb = [v * v - u ** 3]
    module = syzygies([u, v], Ideal(R, amb))
    for vec in module:
        assert ideal_member(vec[0] * u + vec[1] * v, Ideal(R, amb))
    assert in_module_span((v, -u), list(module), amb, 4)
    assert in_module_span((-(u**2), v), list(module), amb, 4)


def test_nonzerodivisor_has_no_syzygy(ring_xy):
    f = P(ring_xy, "x^2 + y")
    module = syzygies([f], Ideal(ring_xy, []))
    assert len(module) == 0


def test_lift_simple(ring_xy):
    gens = [P(ring_xy, "x*y - 1"), P(ring_xy, "y^2 - 1")]
    target = P(ring_xy, "x - y")
    coeffs = lift(target, gens, Ideal(ring_xy, []))
    assert sum((c * g for c, g in zip(coeffs, gens)), ring_xy.zero) == target
    assert coeffs == lift(target, gens, Ideal(ring_xy, []))  # deterministic
    assert lift(ring_xy.zero, gens, Ideal(ring_xy, [])) == [ring_xy.zero] * 2


def test_lift_identity(ring_xy):
    f = P(ring_xy, "x^2 - y")
    assert lift(f, [f], Ideal(ring_xy, [])) == [ring_xy.one]


def test_lift_modulo_ambient(ring_xy):
    ambient = Ideal(ring_xy, [P(ring_xy, "y^2 - x^3")])
    coeffs = lift(P(ring_xy, "x^3"), [P(ring_xy, "y^2")], ambient)
    residue = P(ring_xy, "x^3") - coeffs[0] * P(ring_xy, "y^2")
    assert ideal_member(residue, ambient)
    # a target in the ambient ideal alone, outside the generated ideal
    target, g = P(ring_xy, "y^2 - x^3"), P(ring_xy, "x*y + 1")
    assert not ideal_member(target, Ideal(ring_xy, [g]))
    coeffs = lift(target, [g], ambient)
    assert ideal_member(target - coeffs[0] * g, ambient)
    # the same lift where the variables are named like the internal tags
    R = PolyRing(QQ, ["_e0", "_t"])
    u, v = R.gens()
    ambient = Ideal(R, [v * v - u ** 3])
    coeffs = lift(u ** 3, [v * v], ambient)
    assert ideal_member(u ** 3 - coeffs[0] * v * v, ambient)


def test_lift_rejects_non_member(ring_xy):
    with pytest.raises(NotAMember):
        lift(ring_xy.var("x"), [P(ring_xy, "x^2"), P(ring_xy, "y")],
             Ideal(ring_xy, []))


def test_lift_all_matches_lift(ring_xy):
    # one tagged run for several targets: members get the same lifts as
    # one at a time, a non-member gets None, and the syzygies the run
    # collects are those of ``syzygies``
    gens = [P(ring_xy, "x^2"), P(ring_xy, "y")]
    ambient = Ideal(ring_xy, [P(ring_xy, "y^2 - x^3")])
    targets = [P(ring_xy, "x^3 + y^2"), ring_xy.var("x"), ring_xy.zero,
               P(ring_xy, "x^2*y - 3*y")]
    out, module = lift_all(targets, gens, ambient)
    assert module == syzygies(gens, ambient)
    assert module and all(isinstance(vec, tuple) for vec in module)
    for target, coeffs in zip(targets, out):
        if coeffs is None:
            with pytest.raises(NotAMember):
                lift(target, gens, ambient)
        else:
            assert coeffs == lift(target, gens, ambient)
            combo = sum((c * g for c, g in zip(coeffs, gens)), ring_xy.zero)
            assert ideal_member(target - combo, ambient)
    assert [c is None for c in out] == [False, True, False, False]
    assert lift_all([], gens, ambient) == ([], module)


def test_basis_certificate_catches_a_lost_element(monkeypatch, ring_xy):
    # an interreduction that loses its last kept polynomial leaves a basis
    # that an input escapes; the certificate where the basis is made must
    # fire in untagged runs (zero remainder) and tagged runs (tag-free
    # remainder) alike
    groebner = importlib.import_module("closurekit.groebner")
    real = groebner._interreduce
    x, y = ring_xy.gens()
    held = Ideal(ring_xy, [x * x])
    held.groebner_basis()           # built before the loss is patched in
    monkeypatch.setattr(groebner, "_interreduce",
                        lambda *args: real(*args)[:-1])
    # y lacks variable 0, which a tag-free remainder would lack: an untagged
    # run must still refuse it
    for gens in ([x, y], [y]):
        with pytest.raises(AssertionError, match="escaped its own basis"):
            Ideal(ring_xy, gens).groebner_basis()
    with pytest.raises(AssertionError, match="escaped its own basis"):
        syzygies([x, y], Ideal(ring_xy, []))
    with pytest.raises(AssertionError, match="escaped its own basis"):
        lift(x, [x, y], Ideal(ring_xy, []))
    # a sum grown from a held basis is certified the same way
    with pytest.raises(AssertionError, match="escaped its own basis"):
        held.canonical([y])


def test_eliminate_parabola(ring_xyz):
    R = PolyRing(QQ, ["t", "x", "y"])
    I = Ideal(R, [P(R, "x - t"), P(R, "y - t^2")])
    out = eliminate(I, {"t"})
    expected = Ideal(R, [P(R, "y - x^2")])
    assert ideals_equal(out, expected)
    # substitution oracle: generators vanish on the parametrization
    S = PolyRing(QQ, ["s"])
    s = S.var("s")
    for g in out.generators:
        assert substitute(g, S, {"t": s, "x": s, "y": s * s}).is_zero()


def test_eliminate_nothing(ring_xy):
    I = Ideal(ring_xy, [P(ring_xy, "x^2 - y")])
    assert eliminate(I, set()) is I


def test_eliminate_recovers_cusp():
    R = PolyRing(QQ, ["x", "y", "T"])
    I = Ideal(R, [P(R, "y^2 - x^3"), P(R, "x*T - y"), P(R, "y*T - x^2"),
                  P(R, "T^2 - x")])
    out = eliminate(I, {"T"})
    assert ideals_equal(out, Ideal(R, [P(R, "y^2 - x^3")]))


def test_eliminate_unknown_variable(ring_xy):
    with pytest.raises(UnknownVariable):
        eliminate(Ideal(ring_xy, [ring_xy.var("x")]), {"zz"})


def test_elimination_soundness_random(ring_xyz):
    rng = random.Random(7100)
    from oracles import monomials_up_to

    monos = monomials_up_to(3, 3)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = {}
            for _ in range(rng.randint(1, 3)):
                c = 0
                while not c:
                    c = rng.randint(-3, 3)
                d[rng.choice(monos)] = c
            g = ring_xyz.from_dict(d)
            if g:
                gens.append(g)
        if not gens:
            continue
        I = Ideal(ring_xyz, gens)
        drop = {"z"}
        out = eliminate(I, drop)
        zi = ring_xyz.index("z")
        for g in out.generators:
            assert zi not in g.variables_used()
            assert ideal_member(g, I)


def test_dimension_examples(ring_xy):
    assert dimension(Ideal(ring_xy, [P(ring_xy, "y^2 - x^3")])) == 1
    assert dimension(Ideal(ring_xy, [ring_xy.var("x"), ring_xy.var("y")])) == 0
    assert dimension(Ideal(ring_xy, [])) == 2
    assert dimension(Ideal(ring_xy, [ring_xy.one])) == -1


def test_dimension_antitone(ring_xyz):
    chain = [
        Ideal(ring_xyz, []),
        Ideal(ring_xyz, [P(ring_xyz, "x*y - z^2")]),
        Ideal(ring_xyz, [P(ring_xyz, "x*y - z^2"), P(ring_xyz, "x - z")]),
        Ideal(ring_xyz, [ring_xyz.var("x"), ring_xyz.var("y"), ring_xyz.var("z")]),
    ]
    dims = [dimension(I) for I in chain]
    assert dims == sorted(dims, reverse=True)
    assert dims[0] == 3 and dims[-1] == 0


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_dimension_below_matches_the_full_sum(monkeypatch, field, order):
    # I.canonical(extra, below=d) against the full sum, for every d from 0
    # to nvars + 1, and canonical(extra) standing for d = -1: d = 0 asks
    # for the unit ideal, and d above dim(I) is answered before any pair
    # is formed; a sum it returns is the full sum, generated by and
    # holding its reduced basis
    groebner = importlib.import_module("closurekit.groebner")
    real, stops = groebner._buchberger, []

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        stops.append(out is None)
        return out

    monkeypatch.setattr(groebner, "_buchberger", counted)
    R = PolyRing(field, ["x", "y", "z"], order)
    x, y, z = R.gens()
    rng = random.Random(6151)
    monos = monomials_up_to(3, 2)

    def small():
        return R.from_dict({m: rng.choice((1, -1, 2, -3)) for m in rng.sample(monos, 3)})

    ideals = [[], [x * y - z * z], [y - x * x, z - x * x * x], [x * z, y * z],
              [x * x - 1, y - x, z * z - y], [small()], [small(), small()]]
    extras = [[], [R.zero], [x], [z - 2], [x * y + z], [x - 1, x + 1],
              [x, y * y - 1, z], [small()], [small(), small()]]
    seen = set()
    for gens in ideals:
        I = Ideal(R, gens)
        for extra in extras:
            full_sum = I.canonical(extra)
            full = dimension(full_sum)
            for d in range(-1, R.nvars + 2):
                total = I.canonical(extra, below=d) if d >= 0 else I.canonical(extra)
                assert (total is None) == (full < d), (gens, extra, d)
                if total is not None:
                    assert total.generators == full_sum.generators
                    assert total._bases[order.name] == total.generators
            seen |= {("unit", full == -1), ("point", full == 0),
                     ("dropped", full < dimension(I))}
    assert {("unit", True), ("point", True), ("dropped", True)} <= seen
    assert any(stops) and not all(stops)


def test_membership_order_independent(ring_xy):
    rng = random.Random(7200)
    from oracles import monomials_up_to

    monos = monomials_up_to(2, 3)

    def rand_poly():
        d = {}
        for _ in range(rng.randint(1, 3)):
            c = 0
            while not c:
                c = rng.randint(-4, 4)
            d[rng.choice(monos)] = c
        return ring_xy.from_dict(d)

    lex_ring = ring_xy.with_order(LEX)
    for _ in range(30):
        gens = [g for g in (rand_poly() for _ in range(2)) if g]
        if not gens:
            continue
        probe = rand_poly()
        I_drl = Ideal(ring_xy, gens)
        I_lex = Ideal(lex_ring, [g.map_to(lex_ring) for g in gens])
        assert ideal_member(probe, I_drl) == ideal_member(probe.map_to(lex_ring), I_lex)


# -- held bases: canonical, eliminate, contract ------------------------------

def _ring(field, names, kind):
    order = {"lex": LEX, "degrevlex": DEGREVLEX}.get(kind) or Block(
        ((0,), LEX), (range(1, len(names)), DEGREVLEX))
    return PolyRing(field, names, order)


def _held_cases(R):
    t, x, y, z = R.gens()
    rng = random.Random(4242)
    monos = monomials_up_to(4, 2)
    cases = [
        [x - t, y - t * t, z - t * t * t],                   # twisted cubic
        [t * x * y, t * (x + z), (R.one - t) * (y - z * z)],  # an intersection
        [x * y - z, x * x - y],                              # no t at all
    ]
    for _ in range(3):
        cases.append([R.from_dict({m: rng.choice((1, -1, 2, -3))
                                   for m in rng.sample(monos, 3)})
                      for _ in range(3)])
    return [Ideal(R, gens) for gens in cases]


def _assert_held_bases_are_fresh(out, orders):
    """Every basis ``out`` holds is under one of ``orders`` and equals the
    one a fresh ideal on the same generators computes."""
    by_name = {order.name: order for order in orders}
    assert set(out._bases) <= set(by_name)
    fresh = Ideal(out.ring, list(out.generators))
    for name, basis in out._bases.items():
        assert basis == fresh.groebner_basis(by_name[name]), name


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("kind", ["lex", "degrevlex", "block"])
def test_held_bases_equal_fresh_bases(field, kind):
    R = _ring(field, ["t", "x", "y", "z"], kind)
    targets = [_ring(field, ["x", "y", "z"], kind), _ring(field, ["y", "z"], kind)]
    drop_t = elimination_order(4, {0})
    t, x, y, z = R.gens()
    for I in _held_cases(R):
        # a basis of another order is not handed on
        I.groebner_basis(drop_t)
        can = I.canonical()
        assert can.generators == I.groebner_basis()
        assert set(can._bases) == {R.order.name}
        _assert_held_bases_are_fresh(can, [R.order])

        elim = eliminate(I, {"t"})
        assert set(elim._bases) == ({DEGREVLEX.name} if kind == "degrevlex" else set())
        _assert_held_bases_are_fresh(elim, [R.order])

        for S in targets:
            out = contract(I, S)
            assert out.ring == S
            assert list(out.generators) == [g.map_to(S) for g in eliminate(
                I, set(R.variables) - set(S.variables)).generators]
            assert set(out._bases) == ({DEGREVLEX.name} if kind == "degrevlex" else set())
            _assert_held_bases_are_fresh(out, [S.order])

        # sums grown from the held basis: no extras, zero, a member, a
        # generic polynomial, and one that makes the unit ideal
        for extra in ([], [R.zero], [I.generators[0] * (x + t)],
                      [x * y - z * t + 2], [R.one - t * t, t]):
            out = Ideal(R, I.generators).canonical(extra)
            assert out.generators == Ideal(R, I.generators + tuple(extra)).groebner_basis()
            assert set(out._bases) == {R.order.name}
            # the same sum, generated by I's generators followed by the extras
            out = Ideal(R, I.generators).plus(extra)
            assert out.generators == I.generators + tuple(e for e in extra if e)
            assert set(out._bases) == {R.order.name}
            _assert_held_bases_are_fresh(out, [R.order])


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("kind", ["lex", "degrevlex", "block"])
def test_contract_with_nothing_to_drop(field, kind):
    R = _ring(field, ["x", "y", "z"], kind)
    x, y, z = R.gens()
    I = Ideal(R, [x * y - z, x * x - y])     # not a basis: y^2 - x*z is missing
    assert eliminate(I, set()) is I and I._bases == {}
    out = contract(I, R)
    assert out.generators == I.groebner_basis()
    assert len(out.generators) > len(I.generators)
    _assert_held_bases_are_fresh(out, [R.order])
    # the same variables under another order: nothing is dropped and
    # the generators are not a basis there, so nothing is held
    other = _ring(field, ["x", "y", "z"], "lex" if kind != "lex" else "degrevlex")
    moved = contract(Ideal(R, [x * y - z, x * x - y]), other)
    assert moved._bases == {}
    assert ideals_equal(moved, Ideal(other, [g.map_to(other) for g in out.generators]))


def test_held_bases_start_no_buchberger_run(monkeypatch):
    groebner = importlib.import_module("closurekit.groebner")
    runs = []
    real = groebner._reduced_groebner

    def counted(gens, ring, order):
        runs.append(order.name)
        return real(gens, ring, order)

    monkeypatch.setattr(groebner, "_reduced_groebner", counted)
    R = PolyRing(QQ, ["t", "x", "y", "z"])
    t, x, y, z = R.gens()
    I = Ideal(R, [x - t, y - t * t, z - t * t * t])
    can = I.canonical()
    assert runs == [DEGREVLEX.name]
    can.groebner_basis()
    assert can.contains_one() is False
    assert runs == [DEGREVLEX.name]

    S = PolyRing(QQ, ["x", "y", "z"])
    out = contract(I, S)
    assert len(runs) == 2                   # the elimination basis only
    assert out.groebner_basis() == out.generators
    assert normal_form(S.var("y") ** 2, out) == S.var("x") * S.var("z")
    assert len(runs) == 2
    # a lex target holds nothing: asking for its basis starts a run
    contract(I, S.with_order(LEX)).groebner_basis()
    assert len(runs) == 3


def test_contract_rejects_foreign_rings():
    R = PolyRing(QQ, ["t", "x", "y"])
    I = Ideal(R, [R.var("x") - R.var("t"), R.var("y") - R.var("t") ** 2])
    for target in (PolyRing(GF(32003), ["x", "y"]),
                   PolyRing(QQ, ["y", "x"]),
                   PolyRing(QQ, ["x", "w"])):
        with pytest.raises(RingMismatch):
            contract(I, target)


# -- reduced bases of generators that reduce one another -----------------------

def _leading_monomial(p):
    return max((m for m, _ in p.terms), key=p.ring.order.key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _assert_reduced_basis(basis, gens):
    """``basis`` is a reduced Groebner basis of the ideal of ``gens``, by
    the textbook definitions and the reference division, with a lift
    certificate for every element."""
    R = gens[0].ring
    lms = [_leading_monomial(b) for b in basis]
    for i, (b, lm) in enumerate(zip(basis, lms)):
        assert dict(b.terms)[lm] == 1, "not monic"
        for j, other in enumerate(lms):
            assert j == i or not _divides(other, lm), "not minimal"
        for m, _ in b.terms:
            assert m == lm or not any(_divides(o, m) for o in lms), "tail not reduced"
    for i, f in enumerate(basis):
        for g in basis[i + 1:]:
            spoly = R.from_dict(dict(reference_spoly(f, g)))
            assert not reference_divide(spoly, basis)[1], "S-polynomial escapes"
    for g in gens:
        assert not reference_divide(g, basis)[1], "generator escapes"
    for b in basis:
        coeffs = lift(b, gens, Ideal(R, []))
        assert sum((c * g for c, g in zip(coeffs, gens)), R.zero) == b


def _mutually_reducing_cases(R):
    x, y, z = R.gens()
    f, g = x * y - z, x * x - y
    rng = random.Random(9113)
    monos = monomials_up_to(3, 1)

    def small():
        return R.from_dict({m: rng.choice((1, -1, 2, 3)) for m in rng.sample(monos, 2)})

    cases = [
        [f, f, 3 * f, g, g],                                 # duplicates, multiples
        [f, g, x * f + (z - 1) * g, 16001 * g - f],          # combinations
        [y - x * x, z - x ** 3, z - x * y, 2 * (y - x * x)],  # twisted cubic
        [y * y + z, x + y, x],              # one pass leaves y dividing y^2
        [x, x + R.one, y],                                   # the unit ideal
    ]
    for _ in range(3):
        a, b = small(), small()
        cases.append([a * f + b * g, f, b * g, g + a * f])
    return cases


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("kind", ["lex", "degrevlex", "block"])
def test_basis_of_mutually_reducing_generators_is_reduced(field, kind):
    R = _ring(field, ["x", "y", "z"], kind)
    rng = random.Random(2718)
    for gens in _mutually_reducing_cases(R):
        basis = Ideal(R, gens).groebner_basis()
        _assert_reduced_basis(basis, gens)
        for _ in range(3):
            shuffled = rng.sample(gens, len(gens))
            assert Ideal(R, shuffled).groebner_basis() == basis
        assert Ideal(R, gens + gens[::-1]).groebner_basis() == basis


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("slots", [1, 2])
def test_tagged_runs_start_from_the_ambient_basis(monkeypatch, field, slots):
    # the ambient is given by generators that are not its reduced basis
    # (y^2 - x*z is missing), one of them a combination of the others; the
    # tagged run holds E_i*b for each b of the basis and pairs only the
    # tagged generators
    groebner = importlib.import_module("closurekit.groebner")
    real, held = groebner._buchberger, []

    def recorded(polys, ring, syzygies=None, slots=0, held_start=()):
        if slots:
            held.append(len(held_start))
        return real(polys, ring, syzygies, slots, held_start)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    R = PolyRing(field, ["x", "y", "z"])
    x, y, z = R.gens()
    f, g = x * y - z, x * x - y
    amb = [f, g, x * f + (z - 1) * g]
    ambient = Ideal(R, amb)
    basis = ambient.groebner_basis()
    assert len(basis) == 3 and P(R, "y^2 - x*z") in basis and amb[2] not in basis
    gens = {1: [(x,), (y + z,), (z * z,)],
            2: [(x, y), (y, z), (z, x * x)]}[slots]

    def in_ambient(vector, combo):
        return all(ideal_member(p - sum((c * v[i] for c, v in zip(combo, gens)), R.zero),
                                ambient) for i, p in enumerate(vector))

    module = syzygies(gens, ambient)
    assert held == [slots * len(basis)]
    zero = (R.zero,) * slots
    assert module and all(in_ambient(zero, vec) for vec in module)
    # every syzygy with entries of degree <= 3 is a combination of the
    # module's generators with coefficients of degree <= 2
    brute = brute_force_syzygies(gens, amb, 3)
    assert brute and all_in_module_span(brute, list(module), amb, 2)

    targets = [tuple(x * gens[0][i] + y * gens[1][i] + amb[i] for i in range(slots)),
               tuple(z * gens[2][i] - f for i in range(slots)), (R.one,) * slots]
    lifts, again = lift_all(targets, gens, ambient)
    assert again == module and held == [slots * len(basis)] * 2
    assert lifts[2] is None
    for vector, combo in zip(targets[:2], lifts[:2]):
        assert combo is not None and in_ambient(vector, combo)
    # only the basis enters: the same ambient given by its basis gives the
    # same run
    assert lift_all(targets, gens, Ideal(R, basis)) == (lifts, module)


def test_syzygies_of_mutually_reducing_generators(ring_xy):
    x, y = ring_xy.gens()
    d = P(ring_xy, "y^2 - x^3")
    ambient = Ideal(ring_xy, [d])
    for gens in ([x, x + y * d, x * d],          # g, g + h*d, d' modulo D
                 [x + y, x + y, 2 * x + 2 * y + d]):
        module = syzygies(gens, ambient)
        for vec in module:
            assert ideal_member(sum((a * g for a, g in zip(vec, gens)),
                                    ring_xy.zero), ambient)
        for vec in brute_force_syzygies(gens, [d], 2):
            assert in_module_span(vec, list(module), [d], 3)
