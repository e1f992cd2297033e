import importlib
import random
from math import gcd
from pathlib import Path

import pytest

from closurekit import (
    GF,
    QQ,
    Ideal,
    PolyRing,
    choose_test_ideal,
    eliminate,
    endomorphism_ring,
    extend_ring,
    ideal_member,
    ideals_equal,
    normalize,
    parse_input,
    pick_nzd_or_split,
    presentation,
    verify_result,
)
from closurekit.errors import (
    EmptyIdeal,
    IterationLimitExceeded,
    NotNonZeroDivisor,
    VerificationFailed,
)
from closurekit.normalize import (
    AffinePresentation,
    Component,
    NormalizationResult,
    _serre_certificate,
    _step,
)
from closurekit.groebner import contract
from closurekit.idealops import QuotientRingContext, radical
from conftest import P
from oracles import all_in_module_span, brute_force_syzygies, substitute

# the package exports a function of the same name as this module
normalize_module = importlib.import_module("closurekit.normalize")

FIXTURES = Path(__file__).parent / "fixtures"


def cusp(ring):
    return presentation(ring, [P(ring, "y^2 - x^3")])


def node(ring):
    return presentation(ring, [P(ring, "y^2 - x^2")])


def test_choose_test_ideal_cusp(ring_xy):
    test = choose_test_ideal(cusp(ring_xy))
    assert ideals_equal(test, Ideal(ring_xy, [ring_xy.var("x"), ring_xy.var("y")]))


def test_choose_test_ideal_smooth_conic(ring_xy):
    pres = presentation(ring_xy, [P(ring_xy, "x^2 + y^2 - 1")])
    assert choose_test_ideal(pres).contains_one()


def test_choose_test_ideal_node(ring_xy):
    test = choose_test_ideal(node(ring_xy))
    assert ideals_equal(test, Ideal(ring_xy, [ring_xy.var("x"), ring_xy.var("y")]))


def test_pick_nzd_in_domain(ring_xy):
    pres = cusp(ring_xy)
    decision = pick_nzd_or_split(pres, choose_test_ideal(pres))
    assert not decision.is_split
    assert decision.f == ring_xy.var("x")


def test_pick_split_on_coordinate_cross(ring_xy):
    pres = presentation(ring_xy, [P(ring_xy, "x*y")])
    I = Ideal(ring_xy, [ring_xy.var("x"), ring_xy.var("y")])
    decision = pick_nzd_or_split(pres, I)
    assert decision.is_split
    assert decision.f == ring_xy.var("x")
    assert ideals_equal(decision.annihilator_ideal,
                        Ideal(ring_xy, [ring_xy.var("y")]))


def test_pick_first_generator_in_domain(ring_xyz):
    pres = presentation(ring_xyz, [P(ring_xyz, "x^2 - y^2*z")])
    I = Ideal(ring_xyz, [ring_xyz.var("x"), ring_xyz.var("y")])
    decision = pick_nzd_or_split(pres, I)
    assert not decision.is_split
    assert decision.f == ring_xyz.var("x")


def test_pick_rejects_zero_ideal(ring_xy):
    pres = cusp(ring_xy)
    with pytest.raises(EmptyIdeal):
        pick_nzd_or_split(pres, Ideal(ring_xy, [P(ring_xy, "y^2 - x^3")]))


def test_endomorphism_cusp(ring_xy):
    pres = cusp(ring_xy)
    x, y = ring_xy.gens()
    endo = endomorphism_ring(pres, Ideal(ring_xy, [x, y]), x)
    assert endo.t == 1
    assert endo.numerators == (x, y)
    D = pres.defining
    # every linear relation kills the numerators modulo D
    for vec in endo.linear:
        assert ideal_member(vec[0] * x + vec[1] * y, D)
    # cleared quadratic identity a1*a1 = f * sum(beta_k a_k) mod D
    betas = endo.quadratic[(1, 1)]
    combo = sum((b * a for b, a in zip(betas, endo.numerators)), ring_xy.zero)
    assert ideal_member(y * y - x * combo, D)
    # u1^2 = x, i.e. beta = (x, 0)
    assert betas == [x, ring_xy.zero]


def test_endomorphism_node(ring_xy):
    pres = node(ring_xy)
    x, y = ring_xy.gens()
    endo = endomorphism_ring(pres, Ideal(ring_xy, [x, y]), x)
    assert endo.t == 1
    assert endo.numerators == (x, y)
    assert endo.quadratic[(1, 1)] == [ring_xy.one, ring_xy.zero]  # u1^2 = 1


def test_endomorphism_smooth_point():
    R = PolyRing(QQ, ["x"])
    pres = presentation(R, [])
    endo = endomorphism_ring(pres, Ideal(R, [R.var("x")]), R.var("x"))
    assert endo.t == 0


def test_fixed_point_predicate(ring_xy):
    x, y = ring_xy.gens()
    cusp_endo = endomorphism_ring(cusp(ring_xy), Ideal(ring_xy, [x, y]), x)
    assert cusp_endo.t > 0
    R = PolyRing(QQ, ["x"])
    smooth = endomorphism_ring(presentation(R, []), Ideal(R, [R.var("x")]),
                               R.var("x"))
    assert smooth.t == 0


def test_verify_result_vacuous_on_smooth_input(ring_xy):
    pres = presentation(ring_xy, [P(ring_xy, "x^2 + y^2 - 1")])
    assert verify_result(pres, normalize(pres)) is None


def test_endomorphism_rejects_zerodivisor(ring_xy):
    pres = presentation(ring_xy, [P(ring_xy, "x*y")])
    I = Ideal(ring_xy, [ring_xy.var("x"), ring_xy.var("y")])
    with pytest.raises(NotNonZeroDivisor):
        endomorphism_ring(pres, I, ring_xy.var("x"))
    decision = pick_nzd_or_split(pres, I)
    assert decision.is_split
    with pytest.raises(NotNonZeroDivisor):
        endomorphism_ring(pres, I, decision)


def test_endomorphism_trusts_nonsplit_decision(ring_xy, monkeypatch):
    pres = cusp(ring_xy)
    test = choose_test_ideal(pres)
    decision = pick_nzd_or_split(pres, test)
    expected = endomorphism_ring(pres, test, decision.f)

    def no_annihilator(*args):
        raise AssertionError("annihilator recomputed for a certified nonzerodivisor")

    monkeypatch.setattr(normalize_module, "annihilator", no_annihilator)
    assert endomorphism_ring(pres, test, decision) == expected


def test_extend_ring_cusp(ring_xy):
    pres = cusp(ring_xy)
    x, y = ring_xy.gens()
    endo = endomorphism_ring(pres, Ideal(ring_xy, [x, y]), x)
    ext = extend_ring(pres, endo)
    assert ext.ring.variables == ("x", "y", "T1_1")
    assert ext.level == 1
    adj = ext.adjoined[0]
    assert (adj.numerator, adj.denominator) == (y, x)
    # substitution oracle: x -> s^2, y -> s^3, T -> s kills every generator
    S = PolyRing(QQ, ["s"])
    s = S.var("s")
    images = {"x": s**2, "y": s**3, "T1_1": s}
    for g in ext.defining.generators:
        assert substitute(g, S, images).is_zero()
    # eliminating T recovers the cusp
    elim = eliminate(ext.defining, {"T1_1"})
    back = Ideal(ring_xy, [g.map_to(ring_xy) for g in elim.groebner_basis()])
    assert ideals_equal(back, Ideal(ring_xy, [P(ring_xy, "y^2 - x^3")]))


def test_extend_ring_node_branches(ring_xy):
    pres = node(ring_xy)
    x, y = ring_xy.gens()
    endo = endomorphism_ring(pres, Ideal(ring_xy, [x, y]), x)
    ext = extend_ring(pres, endo)
    S = PolyRing(QQ, ["u"])
    u = S.var("u")
    for sign in (1, -1):
        images = {"x": u, "y": u * sign, "T1_1": S.from_scalar(sign)}
        for g in ext.defining.generators:
            assert substitute(g, S, images).is_zero()


def test_extend_monic_quadratic_shape(ring_xy):
    pres = cusp(ring_xy)
    x, y = ring_xy.gens()
    ext = extend_ring(pres, endomorphism_ring(pres, Ideal(ring_xy, [x, y]), x))
    q = ext.adjoined[0].monic_quadratic
    i = ext.ring.index("T1_1")
    assert q.degree_in(i) == 2
    assert q.coefficient_in(i, 2) == ext.ring.one


def test_normalize_cusp(ring_xy):
    res = normalize(cusp(ring_xy))
    assert len(res.components) == 1
    assert res.hom_steps() == 1
    assert sum(1 for e in res.trace if e.startswith("FixedPoint")) == 1
    assert res.components[0].iterations == 1


def test_normalize_node_two_components(ring_xy):
    res = normalize(node(ring_xy))
    assert len(res.components) == 2
    assert sum(1 for e in res.trace if e.startswith("Split")) == 1
    for comp in res.components:
        basis = comp.presentation.defining.groebner_basis()
        assert len(basis) == 1
        assert basis[0].total_degree() == 1


def test_normalize_smooth_conic(ring_xy):
    res = normalize(presentation(ring_xy, [P(ring_xy, "x^2 + y^2 - 1")]))
    assert len(res.components) == 1
    assert res.hom_steps() == 0
    assert "FixedPoint component=0 reason=unit-test-ideal" in res.trace


def test_normalize_trace_deterministic(ring_xy):
    a = normalize(cusp(ring_xy))
    b = normalize(cusp(ring_xy))
    assert a.trace == b.trace


def test_normalize_iteration_limit(ring_xy):
    with pytest.raises(IterationLimitExceeded) as info:
        normalize(cusp(ring_xy), max_iterations=1)
    assert info.value.trace  # partial trace attached


def test_normalize_accepts_only_the_auto_radical(ring_xy):
    # the keyword outlives the retired strategies only for callers passing "auto"
    assert normalize(cusp(ring_xy), radical_strategy="auto").trace == \
        normalize(cusp(ring_xy)).trace
    with pytest.raises(ValueError, match="^radical_strategy must be 'auto', got 'general'$"):
        normalize(cusp(ring_xy), radical_strategy="general")


def test_verify_result_passes(ring_xy):
    pres = cusp(ring_xy)
    assert verify_result(pres, normalize(pres)) is None


def test_verify_rejects_tampered_result(ring_xy):
    pres = cusp(ring_xy)
    res = normalize(pres)
    comp = res.components[0]
    ring = comp.presentation.ring
    kept = [g for g in comp.presentation.defining.generators
            if g != comp.presentation.adjoined[0].monic_quadratic]
    mutilated = AffinePresentation(
        QuotientRingContext(ring, Ideal(ring, kept)),
        comp.presentation.adjoined,
        comp.presentation.level,
    )
    comp.presentation = mutilated
    with pytest.raises(VerificationFailed):
        verify_result(pres, NormalizationResult([comp], res.trace))


@pytest.mark.parametrize("entry", [0, 1], ids=["T1_1", "T2_1"])
def test_verify_rejects_zerodivisor_denominator(ring_xy, entry):
    # A4 adjoins T1_1 = y/x and T2_1 = T1_1/x; check (d) maps each
    # denominator into the output ring, once per distinct image, and a
    # zero denominator at either level is caught
    from dataclasses import replace

    pres = presentation(ring_xy, [P(ring_xy, "y^2 - x^5")])
    res = normalize(pres)
    comp = res.components[0]
    adjoined = list(comp.presentation.adjoined)
    first, second = adjoined
    assert first.denominator == second.denominator.map_to(ring_xy)
    assert first.denominator.ring == ring_xy
    bad = adjoined[entry]
    adjoined[entry] = replace(bad, denominator=bad.denominator.ring.zero)
    comp.presentation = replace(comp.presentation, adjoined=tuple(adjoined))
    with pytest.raises(VerificationFailed, match=f"{bad.name}: tower denominator"):
        verify_result(pres, res)


@pytest.mark.parametrize("name", ["cusp", "umbrella", "a4", "t345"])
def test_verify_rejects_a_wrong_fraction(monkeypatch, name):
    # a mutant extend_ring records numerator + denominator for its newest
    # variable and keeps the right relations, so checks (a)-(d) pass it;
    # check (e) reads d*T - a and names the first wrong variable
    from dataclasses import replace

    real, mutated = normalize_module.extend_ring, []

    def extend_ring(R, endo):
        out = real(R, endo)
        *kept, newest = out.adjoined
        mutated.append(newest.name)
        wrong = replace(newest, numerator=newest.numerator + newest.denominator)
        return replace(out, adjoined=(*kept, wrong))

    doc = parse_input((FIXTURES / f"{name}.txt").read_text())
    pres = presentation(doc.ring, doc.generators)
    monkeypatch.setattr(normalize_module, "extend_ring", extend_ring)
    res = normalize(pres)
    assert mutated and len(res.components) == 1
    with pytest.raises(VerificationFailed,
                       match=f"{mutated[0]}: is not its numerator over its denominator"):
        verify_result(pres, res)


def _split_cross(ring):
    """The coordinate cross x*y = 0 and its two line components."""
    pres = presentation(ring, [P(ring, "x*y")])
    res = normalize(pres)
    assert [str(c.presentation.defining) for c in res.components] == [
        "Ideal(x)", "Ideal(y)"]
    return pres, res


def _split_axes(_ring):
    """The three coordinate axes of tests/fixtures/axes.txt, moved to
    (-2, 1, 2); each line's image has two generators."""
    doc = parse_input((FIXTURES / "axes.txt").read_text())
    pres = presentation(doc.ring, doc.generators)
    res = normalize(pres)
    images = [contract(c.presentation.defining, doc.ring) for c in res.components]
    assert [len(image.generators) for image in images] == [2, 2, 2]
    return pres, res


@pytest.mark.parametrize("split", [_split_cross, _split_axes], ids=["cross", "axes"])
def test_verify_rejects_a_dropped_component(ring_xy, split):
    # the remaining lines are normal and contain the input relations, but
    # miss the dropped one
    pres, res = split(ring_xy)
    res.components.pop()
    with pytest.raises(VerificationFailed,
                       match="intersection of component images exceeds the input radical"):
        verify_result(pres, res)


@pytest.mark.parametrize("split", [_split_cross, _split_axes], ids=["cross", "axes"])
def test_split_builds_only_the_first_child(ring_xy, monkeypatch, split):
    # both children are colon ideals the decision reads with their bases,
    # D : (D : f) and D : f, so building the split runs no basis
    groebner = importlib.import_module("closurekit.groebner")
    normalize_module = importlib.import_module("closurekit.normalize")
    real_run, real_split = groebner._buchberger, normalize_module._split_component
    inside, runs = [], []

    def run(*args, **kwargs):
        if inside:
            runs[-1] += 1
        return real_run(*args, **kwargs)

    def split_component(*args):
        inside.append(True)
        runs.append(0)
        try:
            return real_split(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(groebner, "_buchberger", run)
    monkeypatch.setattr(normalize_module, "_split_component", split_component)
    split(ring_xy)
    assert runs and runs == [0] * len(runs)


def test_verify_rejects_an_empty_result(ring_xy):
    # D is proper, so the input ring has at least one component
    pres = presentation(ring_xy, [P(ring_xy, "x*y")])
    with pytest.raises(VerificationFailed, match="no output component"):
        verify_result(pres, NormalizationResult([]))


def test_verify_rejects_a_component_off_the_input(ring_xy):
    # the line x = 1 is normal but does not contain x*y
    pres, res = _split_cross(ring_xy)
    comp = res.components[1]
    comp.presentation = presentation(ring_xy, [P(ring_xy, "x - 1")])
    with pytest.raises(VerificationFailed,
                       match="component 1: input relation escapes the image"):
        verify_result(pres, res)


def test_split_intersection_soundness(ring_xy):
    # on a split into (f) and J, both f*J and (f) ∩ J land in D
    from closurekit import intersect

    pres = node(ring_xy)
    res = normalize(pres)
    assert len(res.components) == 2
    a, b = (c.presentation.defining for c in res.components)
    meet = intersect(a, b)
    D = pres.defining
    for g in meet.generators:
        assert ideal_member(g, D)


def test_normalize_idempotent_on_output(ring_xy):
    res = normalize(cusp(ring_xy))
    comp = res.components[0]
    again = normalize(presentation(comp.presentation.ring,
                                   list(comp.presentation.defining.generators)))
    assert again.hom_steps() == 0
    assert len(again.components) == 1
    assert (again.components[0].presentation.defining.groebner_basis()
            == comp.presentation.defining.groebner_basis())


def test_three_concurrent_lines_give_three_components():
    ring = PolyRing(QQ, ["x", "y", "z"])
    pres = presentation(ring, [P(ring, g) for g in (
        "x*y - x*z - y^2 + 2*y*z - z^2 + 2*y - 2*z",
        "x*z - y*z + z^2 + x - y + 3*z + 2",
        "y*z - z^2 + y - z")])
    assert len(normalize(pres).components) == 3


def _triangle():
    ring = PolyRing(QQ, ["x", "y"])
    return presentation(ring, [P(ring, "x^2*y - x*y^2 - x*y")])


def test_triangle_gives_its_three_lines():
    # x*y*(x - y - 1) splits on x^2 - x; a child D + (f) would keep the
    # line x = 0 together with a fat point at (1, 0)
    pres = _triangle()
    ring = pres.ring
    result = normalize(pres)
    verify_result(pres, result)
    assert [c.presentation.defining.generators for c in result.components] == [
        (P(ring, "x"),), (P(ring, "y"),), (P(ring, "x - y - 1"),)]


def _line_arrangements(count, seed):
    """``count`` seeded plane arrangements of 3 to 5 distinct lines
    a*x + b*y + c, a, b, c in [-2, 2], each divided by its gcd and with the
    first nonzero of a, b positive."""
    rng = random.Random(seed)
    for _ in range(count):
        want, lines = rng.randint(3, 5), []
        while len(lines) < want:
            a, b, c = (rng.randint(-2, 2) for _ in range(3))
            if a == b == 0:
                continue
            g = gcd(gcd(a, b), c)
            sign = 1 if a > 0 or (a == 0 and b > 0) else -1
            line = (sign * a // g, sign * b // g, sign * c // g)
            if line not in lines:
                lines.append(line)
        yield lines


def test_line_arrangements_give_reduced_components():
    # every component of a reduced ring's normalization is reduced; a split
    # child D + (f) is not wherever another line meets V(f).  A component
    # with adjoined variables is reduced when its image in the input ring
    # is, since verify_result certifies every denominator a nonzerodivisor
    # there and every adjoined T its fraction: the ring then embeds in a
    # localization of the image's ring.  Its own radical is far slower.
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    for lines in _line_arrangements(60, 5):
        product = ring.one
        for a, b, c in lines:
            product = product * (x * a + y * b + ring.one * c)
        pres = presentation(ring, [product])
        result = normalize(pres)
        verify_result(pres, result)
        for comp in result.components:
            image = contract(comp.presentation.defining, ring)
            assert ideals_equal(radical(image), image), lines


# wrong normalizations that still pass verify_result; the fix must flip
# these to plain tests
@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 1b")
def test_plane_and_cusp_take_a_hom_step():
    ring = PolyRing(QQ, ["x", "y", "z"])
    pres = presentation(ring, [P(ring, "z^2 - z"), P(ring, "z*y^2 - z*x^3")])
    assert normalize(pres).hom_steps() >= 1


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 1b")
@pytest.mark.parametrize("names,gens", [
    (["x", "y"], ["x^2 - x", "x*y - y"]),               # a line and a point
    (["x", "y", "z"], ["x*z - x", "y*z - y", "z^2 - z"]),  # a plane and a point
], ids=["line-point", "plane-point"])
def test_components_of_two_dimensions_split(names, gens):
    ring = PolyRing(QQ, names)
    pres = presentation(ring, [P(ring, g) for g in gens])
    assert len(normalize(pres).components) == 2


@pytest.mark.xfail(raises=pytest.fail.Exception, strict=True,
                   reason="ROADMAP item 1c")
def test_verify_rejects_a_non_reduced_component():
    # the triangle's components as a split child D + (f) made them: the
    # first is the line x = 0 with a fat point at (1, 0)
    pres = _triangle()
    ring = pres.ring
    components = [Component(presentation(ring, [P(ring, g) for g in gens]), 0, k)
                  for k, gens in enumerate((["x^2 - x", "x*y^2"], ["y"], ["x - y - 1"]))]
    with pytest.raises(VerificationFailed):
        verify_result(pres, NormalizationResult(components))


def _hom_presentations(pres):
    """The EndoPresentation of every HomStep the loop takes on ``pres``."""
    out = []
    kind, endo = _step(pres)
    while kind == "extend":
        out.append(endo)
        pres = extend_ring(pres, endo)
        kind, endo = _step(pres)
    return out


@pytest.mark.parametrize("name,levels", [("cusp", 1), ("a4", 2), ("t345", 1)])
def test_hom_presentation_linear_relations_are_complete(name, levels):
    # the linear relations come from the lift run on f*a_0..f*a_t; they
    # must still be exactly the numerators' syzygies modulo D (t345 is
    # over GF(32003))
    doc = parse_input((Path(__file__).parent / "fixtures" / f"{name}.txt").read_text())
    pres = presentation(doc.ring, list(doc.generators))
    endos = _hom_presentations(pres)
    assert len(endos) == levels
    for endo in endos:
        ring = endo.ctx.ring
        amb = list(endo.ctx.defining.generators)
        for vec in endo.linear:
            combo = sum((c * a for c, a in zip(vec, endo.numerators)), ring.zero)
            assert endo.ctx.is_zero(combo)
        brute = brute_force_syzygies(list(endo.numerators), amb, 2)
        assert brute and all_in_module_span(brute, list(endo.linear), amb, 3)


def test_one_tagged_basis_for_all_structure_constant_lifts(monkeypatch):
    # y^3 = x^4 adjoins 1, then 2 variables; with t = 2 the three products
    # T_i*T_j must be lifted against one tagged basis, not one each, and
    # the same run yields the linear relations.  Only the runs behind the
    # Hom presentation are counted: colon ideals run on the same engine.
    import importlib

    groebner = importlib.import_module("closurekit.groebner")
    normalize_module = importlib.import_module("closurekit.normalize")
    runs = []
    stack = []
    per_call = []
    original_run = groebner._tagged_run
    original_endo = normalize_module.endomorphism_ring

    def counting_run(*args):
        if stack and stack[-1] == "hom":
            runs.append(1)
        return original_run(*args)

    def within(label, fn):
        def wrapped(*args):
            stack.append(label)
            try:
                return fn(*args)
            finally:
                stack.pop()
        return wrapped

    def counting_endo(*args):
        before = len(runs)
        endo = original_endo(*args)
        per_call.append((endo.t, len(runs) - before))
        return endo

    monkeypatch.setattr(groebner, "_tagged_run", counting_run)
    for name in ("ideal_quotient", "annihilator"):
        monkeypatch.setattr(normalize_module, name,
                            within("colon", getattr(normalize_module, name)))
    monkeypatch.setattr(normalize_module, "endomorphism_ring",
                        within("hom", counting_endo))
    ring = PolyRing(QQ, ["x", "y"])
    res = normalize(presentation(ring, [P(ring, "y^3 - x^4")]))
    assert res.hom_steps() == 2
    # one run for the syzygies and all lifts
    assert per_call == [(1, 1), (2, 1)]
    # the A1 cone is normal but singular: it leaves through hom-equal, where
    # no fresh numerator appears and nothing is lifted
    per_call.clear()
    cone = PolyRing(QQ, ["x", "y", "z"])
    res = normalize(presentation(cone, [P(cone, "x*y - z^2")]))
    assert res.trace[-1] == "FixedPoint component=0 reason=hom-equal"
    assert per_call == [(0, 0)]


def test_step_kinds(ring_xy, ring_xyz):
    from closurekit.normalize import EndoPresentation, SplitDecision, _step

    conic = presentation(ring_xy, [P(ring_xy, "x^2 + y^2 - 1")])
    assert _step(conic) == ("unit-test-ideal", None)
    kind, decision = _step(node(ring_xy))
    assert kind == "split" and isinstance(decision, SplitDecision)
    kind, endo = _step(cusp(ring_xy))
    assert kind == "extend" and isinstance(endo, EndoPresentation)
    assert endo.t == 1
    # the A1 cone is normal but singular: its test ideal is proper
    cone = presentation(ring_xyz, [P(ring_xyz, "x*y - z^2")])
    assert _step(cone) == ("hom-equal", None)


def _unnormalized(pres):
    """The input itself handed to verify_result as the output."""
    return NormalizationResult([Component(pres, 0, 0)], [])


def test_verify_rejects_unnormalized_cusp(ring_xy):
    pres = cusp(ring_xy)
    with pytest.raises(VerificationFailed,
                       match="component 0: endomorphism ring is strictly larger"):
        verify_result(pres, _unnormalized(pres))


def test_verify_rejects_unsplit_node(ring_xy):
    pres = node(ring_xy)
    with pytest.raises(VerificationFailed,
                       match="component 0: output ring still splits"):
        verify_result(pres, _unnormalized(pres))


def test_verify_normal_cone_accepted(ring_xyz):
    pres = presentation(ring_xyz, [P(ring_xyz, "x*y - z^2")])
    res = normalize(pres)
    assert res.trace[-1] == "FixedPoint component=0 reason=hom-equal"
    assert verify_result(pres, res) is None


def _count_endomorphism_calls(monkeypatch):
    import importlib

    normalize_module = importlib.import_module("closurekit.normalize")
    calls = []
    original = normalize_module.endomorphism_ring

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(normalize_module, "endomorphism_ring", counting)
    return calls


def test_verify_unit_test_ideal_needs_no_endomorphism_ring(ring_xy, monkeypatch):
    # Hom_A(A, A) = A: a unit test ideal certifies the component by itself
    pres = presentation(ring_xy, [P(ring_xy, "x^2 + y^2 - 1")])
    res = normalize(pres)
    calls = _count_endomorphism_calls(monkeypatch)
    verify_result(pres, res)
    assert calls == []


def test_verify_proper_test_ideal_runs_one_endomorphism_ring(monkeypatch):
    # umbrella13's output is normal but no complete intersection (5
    # variables, more relations than its codimension): no Serre certificate,
    # so verify replays the loop step, which leaves through hom-equal
    doc = parse_input((FIXTURES / "umbrella13.txt").read_text())
    pres = presentation(doc.ring, list(doc.generators))
    res = normalize(pres)
    assert res.trace[-1] == "FixedPoint component=0 reason=hom-equal"
    (comp,) = res.components
    assert not _serre_certificate(comp.presentation.defining)
    calls = _count_endomorphism_calls(monkeypatch)
    verify_result(pres, res)
    assert calls == [1]


def _count_steps(monkeypatch):
    normalize_module = importlib.import_module("closurekit.normalize")
    calls = []
    original = normalize_module._step

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(normalize_module, "_step", counting)
    return calls


@pytest.mark.parametrize("field,names,gens", [
    (QQ, ["x", "y"], []),                                   # c = 0
    (QQ, ["x", "y"], ["x^2 - 1", "y"]),                     # dim 0: two points
    (QQ, ["x", "y"], ["x^2 + y^2 - 1"]),                    # dim 1: needs (1)
    (QQ, ["x", "y", "z"], ["x*y - z^2"]),                   # A1 cone, hom-equal
    (GF(32003), ["x", "y", "z"], ["x^2 + y^2*z + z^3"]),    # D4, dim 2
], ids=["plane", "two-points", "conic", "A1-cone", "D4-GF32003"])
def test_verify_serre_certificate_accepts(field, names, gens, monkeypatch):
    # a normal complete intersection: Serre's certificate replaces the
    # replay of the loop step, so no test ideal, scan or Hom colon runs
    ring = PolyRing(field, names)
    pres = presentation(ring, [P(ring, g) for g in gens])
    assert _serre_certificate(pres.defining)
    res = normalize(pres)
    steps = _count_steps(monkeypatch)
    verify_result(pres, res)
    assert steps == []


@pytest.mark.parametrize("names,gens,message", [
    # complete intersections singular along a curve, in codimension 1
    (["x", "y", "z"], ["y^2 - x^3"], "endomorphism ring is strictly larger"),
    (["x", "y", "z"], ["x^2 - y^2*z"], "endomorphism ring is strictly larger"),
    # the coordinate axes: 3 relations in codimension 2
    (["x", "y", "z"], ["x*y", "x*z", "y*z"], "output ring still splits"),
    # two planes meeting in a point: R1 (singular only at the origin, in
    # codimension 2) but not S2, so not normal; 4 relations in codimension 2
    (["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"], "output ring still splits"),
], ids=["cusp-cylinder", "umbrella", "axes", "two-planes"])
def test_verify_without_serre_certificate_replays_the_step(names, gens, message, monkeypatch):
    # the input handed to verify unnormalized: no certificate, so the one
    # replayed loop step must catch it, with the message it always gave
    ring = PolyRing(QQ, names)
    pres = presentation(ring, [P(ring, g) for g in gens])
    assert not _serre_certificate(pres.defining)
    steps = _count_steps(monkeypatch)
    with pytest.raises(VerificationFailed, match=f"component 0: {message}"):
        verify_result(pres, _unnormalized(pres))
    assert steps == [1]
