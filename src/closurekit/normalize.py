"""Normalization of a reduced affine ring by endomorphism-ring fixed points.

Per component the loop is: radical Jacobian test ideal; if it is the unit
ideal the ring is already normal.  Otherwise pick an element of the test
ideal: a zerodivisor splits the ring into two components, a nonzerodivisor
f feeds the endomorphism step.  There the module of maps I -> I is
realized as (1/f)(fI : I); fresh numerators beyond (f) become new ring
variables tied down by their syzygies (linear relations) and by structure
constants for pairwise products (monic quadratic relations).  No fresh
numerator means the ring equals its endomorphism ring and is normal.

``_step`` runs these moves once on one ring; ``normalize`` repeats it per
component, and ``verify_result`` reruns it on each output component.

Termination is a finiteness fact about the integral closure as a module;
the iteration cap only guards against misuse.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    EmptyIdeal,
    IterationLimitExceeded,
    LiftFailed,
    NotNonZeroDivisor,
    VerificationFailed,
)
from .groebner import Ideal, contract, lift_all, normal_form
from .idealops import (
    QuotientRingContext,
    annihilator,
    ideal_quotient,
    intersect,
    jacobian_test_ideal,
    radical,
    radical_membership,
)
from .ring import Polynomial, PolyRing, fresh_name

COMBO_SEED = 7
COMBO_COUNT = 8
COMBO_COEFFS = (1, -1, 2, -2)


@dataclass(frozen=True)
class AdjoinedVariable:
    """One tower entry: name = numerator/denominator over the previous
    level, plus the monic quadratic that witnesses integrality."""

    name: str
    level: int
    numerator: Polynomial
    denominator: Polynomial
    monic_quadratic: Polynomial


@dataclass(frozen=True)
class AffinePresentation:
    """A ring ring/D together with the tower of adjoined fractions."""

    ctx: QuotientRingContext
    adjoined: tuple = ()
    level: int = 0

    @property
    def ring(self) -> PolyRing:
        return self.ctx.ring

    @property
    def defining(self) -> Ideal:
        return self.ctx.defining


def presentation(ring: PolyRing, generators) -> AffinePresentation:
    """Level-0 presentation from a ring and defining generators."""
    return AffinePresentation(QuotientRingContext(ring, Ideal(ring, generators)))


@dataclass(frozen=True)
class EndoPresentation:
    """Hom_R(I, I) as numerators over one denominator, with its linear
    relations and quadratic structure constants."""

    ctx: QuotientRingContext
    denominator: Polynomial
    numerators: tuple           # a_0 = denominator, a_1..a_t
    linear: tuple               # vectors (alpha_0..alpha_t)
    quadratic: dict             # (i, j) with 1 <= i <= j -> [beta_0..beta_t]

    @property
    def t(self) -> int:
        return len(self.numerators) - 1


def is_fixed_point(endo: EndoPresentation) -> bool:
    return endo.t == 0


@dataclass(frozen=True)
class SplitDecision:
    """Either a nonzerodivisor (annihilator is None) or a zerodivisor
    together with its nonzero annihilator."""

    f: Polynomial
    annihilator_ideal: "Ideal | None" = None

    @property
    def is_split(self) -> bool:
        return self.annihilator_ideal is not None


@dataclass
class Component:
    presentation: AffinePresentation
    iterations: int = 0
    index: int = 0


@dataclass
class NormalizationResult:
    components: list
    trace: list = field(default_factory=list)

    def hom_steps(self) -> int:
        return sum(1 for e in self.trace if e.startswith("HomStep"))


def _ideal_text(I: Ideal) -> str:
    if not I.generators:
        return "(0)"
    return "(" + ", ".join(g.input_form() for g in I.groebner_basis()) + ")"


def choose_test_ideal(R: AffinePresentation, radical_strategy: str = "auto",
                      _events=None) -> Ideal:
    """Radical of the Jacobian test ideal; the unit ideal signals that the
    non-normal locus is empty."""
    jac = jacobian_test_ideal(R.ctx)
    if _events is not None:
        _events.append(("TestIdeal", jac))
    rad = radical(jac, strategy=radical_strategy)
    if _events is not None:
        _events.append(("Radical", rad))
    return rad


def _candidates(R: AffinePresentation, I: Ideal):
    """Deterministic scan list: reduced generators first, then a few
    seeded small-integer combinations of them."""
    ctx = R.ctx
    gens = ctx.reduce_all(I.groebner_basis())
    out = list(gens)
    if len(gens) >= 2:
        rng = random.Random(COMBO_SEED)
        for _ in range(COMBO_COUNT):
            combo = R.ring.zero
            for g in gens:
                combo = combo + g * rng.choice(COMBO_COEFFS)
            combo = ctx.nf(combo)
            if combo and combo not in out:
                out.append(combo)
    return gens, out


def _split_decision(R: AffinePresentation, f: Polynomial, ann: Ideal) -> SplitDecision:
    for a in ann.generators:
        if not R.ctx.is_zero(f * a):
            raise AssertionError("annihilator product escaped D")
    return SplitDecision(f, ann)


def pick_nzd_or_split(R: AffinePresentation, I: Ideal) -> SplitDecision:
    """Scan candidates from the test ideal.  Splitting is preferred: the
    first zerodivisor found wins, since a split separates components and
    is always sound; otherwise the first nonzerodivisor is returned.

    Zerodivisors are detected by dimension: over a reduced defining
    ideal, adjoining a nonzerodivisor strictly drops the dimension of
    every component, while equal dimension forces the candidate into a
    minimal prime.  The full annihilator is only computed for the
    element actually returned."""
    from .groebner import dimension

    gens, candidates = _candidates(R, I)
    if not gens:
        raise EmptyIdeal("test ideal is zero in the quotient ring")
    D = R.defining
    base_dim = dimension(D)
    first_nzd = None
    for f in candidates:
        if dimension(D.canonical([f])) == base_dim:
            ann = annihilator(f, R.ctx)
            if ann.is_zero():
                raise AssertionError("dimension flagged a nonzerodivisor")
            return _split_decision(R, f, ann)
        if first_nzd is None:
            first_nzd = f
    ann = annihilator(first_nzd, R.ctx)
    if ann.is_zero():
        return SplitDecision(first_nzd)
    # the dimension filter can miss zerodivisors supported on small
    # components of a non-equidimensional ring; split on them anyway
    return _split_decision(R, first_nzd, ann)


def endomorphism_ring(R: AffinePresentation, I: Ideal,
                      f: "Polynomial | SplitDecision") -> EndoPresentation:
    """Hom_R(I, I) = (1/f) (fI : I) presented by numerators over f.

    ``f`` is a nonzerodivisor: a non-split SplitDecision, whose zero
    annihilator was already computed, or a bare polynomial, checked here.
    Because f is a nonzerodivisor modulo D, sum(c_j f a_j) lies in D exactly
    when sum(c_j a_j) does, so the one tagged run that lifts the products
    a_i a_j against f a_0..f a_t also yields the numerators' syzygies.
    At a fixed point (t = 0) nothing is lifted: ``linear`` and ``quadratic``
    are empty."""
    ctx = R.ctx
    ring = R.ring
    if isinstance(f, SplitDecision):
        if f.is_split:
            raise NotNonZeroDivisor(f"{f.f} has a nonzero annihilator")
        f = ctx.nf(f.f)
    else:
        f = ctx.nf(f)
        if not annihilator(f, ctx).is_zero():
            raise NotNonZeroDivisor(f"{f} has a nonzero annihilator")
    f_times_I = Ideal(ring, [ctx.nf(f * g) for g in I.generators])
    numerator_ideal = ideal_quotient(f_times_I, I, ctx)
    modulus = ctx.defining.canonical([f])
    numerators = [f]
    for g in numerator_ideal.generators:
        r = normal_form(g, modulus)
        if r and r not in numerators:
            numerators.append(r)
    if len(numerators) == 1:
        return EndoPresentation(ctx, f, (f,), (), {})

    scaled = [ctx.nf(f * a) for a in numerators]
    pairs = [(i, j) for i in range(1, len(numerators))
             for j in range(i, len(numerators))]
    products = [ctx.nf(numerators[i] * numerators[j]) for i, j in pairs]
    lifts, linear = lift_all(products, scaled, ctx.defining)
    quadratic = {}
    for (i, j), coeffs in zip(pairs, lifts):
        if coeffs is None:
            raise LiftFailed(
                f"product of numerators {i},{j} escaped f*Hom; "
                "the endomorphism module is not closed")
        quadratic[(i, j)] = coeffs
    return EndoPresentation(ctx, f, tuple(numerators), linear, quadratic)


def extend_ring(R: AffinePresentation, endo: EndoPresentation) -> AffinePresentation:
    """Adjoin one variable per fresh numerator and impose the linear and
    quadratic relations; the new defining ideal is interreduced."""
    t = endo.t
    if t < 1:
        raise ValueError("nothing to adjoin for a fixed point")
    level = R.level + 1
    names = []      # T{level}_{i}, unless the ring already has that name
    for i in range(1, t + 1):
        names.append(fresh_name(R.ring.variables + tuple(names), f"T{level}_{i}"))
    new_ring = R.ring.extend(names)
    xs = [new_ring.one] + [new_ring.var(n) for n in names]

    gens = [g.map_to(new_ring) for g in R.defining.generators]
    for vector in endo.linear:
        L = new_ring.zero
        for j, alpha in enumerate(vector):
            L = L + alpha.map_to(new_ring) * xs[j]
        if L:
            gens.append(L)
    quadratics = {}
    for (i, j), betas in sorted(endo.quadratic.items()):
        Q = xs[i] * xs[j]
        for k, beta in enumerate(betas):
            Q = Q - beta.map_to(new_ring) * xs[k]
        quadratics[(i, j)] = Q
        gens.append(Q)

    defining = Ideal(new_ring, gens).canonical()
    if defining.contains_one():
        raise AssertionError("extension presentation collapsed to the zero ring")
    adjoined = list(R.adjoined)
    for i in range(1, t + 1):
        adjoined.append(AdjoinedVariable(
            name=names[i - 1],
            level=level,
            numerator=endo.numerators[i],
            denominator=endo.denominator,
            monic_quadratic=quadratics[(i, i)],
        ))
    return AffinePresentation(
        QuotientRingContext(new_ring, defining), tuple(adjoined), level)


def _split_component(comp: Component, decision: SplitDecision, next_index):
    children = []
    for extra in ([decision.f], decision.annihilator_ideal.generators):
        ideal = comp.presentation.defining.canonical(extra)
        if ideal.contains_one():
            raise AssertionError("split factor collapsed to the unit ideal")
        child = AffinePresentation(
            QuotientRingContext(comp.presentation.ring, ideal),
            comp.presentation.adjoined,
            comp.presentation.level,
        )
        children.append(Component(child, comp.iterations, next_index()))
    return children


def _step(R: AffinePresentation, radical_strategy: str = "auto", events=None):
    """One loop step on R, returned as (kind, payload): "unit-test-ideal"
    or "hom-equal" (R is normal, payload None), "split" (payload the
    SplitDecision) or "extend" (payload the EndoPresentation)."""
    test = choose_test_ideal(R, radical_strategy, events)
    if test.contains_one():
        return "unit-test-ideal", None
    decision = pick_nzd_or_split(R, test)
    if decision.is_split:
        return "split", decision
    endo = endomorphism_ring(R, test, decision)
    if is_fixed_point(endo):
        return "hom-equal", None
    return "extend", endo


def normalize(R0: AffinePresentation, max_iterations: int = 32,
              radical_strategy: str = "auto") -> NormalizationResult:
    """Run the full loop over a work-list of components."""
    trace: list = []
    counter = iter(range(1, 1 << 30))
    worklist = deque([Component(R0, 0, 0)])
    finished = []

    while worklist:
        comp = worklist.popleft()
        for _ in range(max_iterations):
            events: list = []
            kind, payload = _step(comp.presentation, radical_strategy, events)
            for name, ideal in events:
                trace.append(f"{name} component={comp.index} ideal={_ideal_text(ideal)}")
            if kind == "split":
                children = _split_component(comp, payload, lambda: next(counter))
                trace.append(
                    f"Split component={comp.index} f={payload.f.input_form()} "
                    f"children={children[0].index},{children[1].index}")
                worklist.extend(children)
                break
            if kind != "extend":
                trace.append(f"FixedPoint component={comp.index} reason={kind}")
                finished.append(comp)
                break
            comp.presentation = extend_ring(comp.presentation, payload)
            comp.iterations += 1
            trace.append(
                f"HomStep component={comp.index} f={payload.denominator.input_form()} "
                f"adjoined={payload.t}")
        else:
            raise IterationLimitExceeded(
                f"component {comp.index} did not stabilize in "
                f"{max_iterations} iterations", trace)

    finished.sort(key=lambda c: c.index)
    return NormalizationResult(finished, trace)


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    def note(self, message: str):
        self.checks.append(message)


def _require(condition: bool, message: str):
    if not condition:
        raise VerificationFailed(message)


def verify_result(R0: AffinePresentation, result: NormalizationResult) -> VerificationReport:
    """Independent certification of a normalization result.

    (a) one fresh loop step finds every component normal: its test
        ideal is the unit ideal, or J is proper and Hom(J, J) = R;
    (b) eliminating the adjoined variables recovers, across all
        components together, exactly the radical of the input ideal;
    (c) every adjoined variable carries a monic quadratic that still
        lies in its component's defining ideal;
    (d) every tower denominator is a nonzerodivisor at its level.
    """
    _require(bool(result.components), "no output component, but the input ring is nonzero")
    report = VerificationReport()
    eliminated = []

    for comp in result.components:
        pres = comp.presentation
        ctx = pres.ctx

        # (a) fresh fixed-point recheck
        kind, _ = _step(pres)
        _require(kind != "split",
                 f"component {comp.index}: output ring still splits")
        _require(kind != "extend",
                 f"component {comp.index}: endomorphism ring is strictly larger")
        report.note(f"component {comp.index}: fixed-point recheck ok")

        # (b) per-component direction: the input ideal maps into the
        # eliminated defining ideal
        elim0 = contract(pres.defining, R0.ring)
        for g in R0.defining.generators:
            _require(normal_form(g, elim0).is_zero(),
                     f"component {comp.index}: input relation escapes the image")
        eliminated.append(elim0)
        report.note(f"component {comp.index}: contains the input relations")

        # (c) integrality witnesses
        for adj in pres.adjoined:
            q = adj.monic_quadratic.map_to(pres.ring)
            i = pres.ring.index(adj.name)
            lead = q.coefficient_in(i, 2)
            _require(q.degree_in(i) == 2 and lead == pres.ring.one,
                     f"{adj.name}: integrality witness is not a monic quadratic")
            _require(ctx.is_zero(q),
                     f"{adj.name}: integrality witness left the defining ideal")
        report.note(f"component {comp.index}: integrality witnesses ok")

        # (d) denominator certificates, level by level; the variables of
        # one level share the eliminated ring and usually the denominator
        checked = set()
        for adj in pres.adjoined:
            if (adj.level, adj.denominator) in checked:
                continue
            checked.add((adj.level, adj.denominator))
            # the denominator lives in the ring of the level it was taken at
            level_ring = adj.denominator.ring
            level_ctx = QuotientRingContext(level_ring, contract(pres.defining, level_ring))
            _require(annihilator(adj.denominator, level_ctx).is_zero(),
                     f"{adj.name}: tower denominator is a zerodivisor at its level")
        report.note(f"component {comp.index}: denominator certificates ok")

    # (b) global direction: the intersection over all components equals
    # the input ideal up to radical
    total = eliminated[0]
    for other in eliminated[1:]:
        total = intersect(total, other)
    for g in total.groebner_basis():
        _require(radical_membership(g, R0.defining),
                 "intersection of component images exceeds the input radical")
    for g in R0.defining.generators:
        _require(radical_membership(g, total),
                 "input radical exceeds the intersection of component images")
    report.note("global: eliminated images intersect to the input ideal")
    return report
