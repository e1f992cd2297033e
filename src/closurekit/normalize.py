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
component.  ``verify_result`` certifies an output component that is a
complete intersection by Serre's criterion (R1 from the Jacobian
criterion, S2 from Cohen-Macaulayness) and reruns ``_step`` on any other.

Termination is a finiteness fact about the integral closure as a module;
the iteration cap only guards against misuse.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from .errors import (
    EmptyIdeal,
    IterationLimitExceeded,
    LiftFailed,
    NotNonZeroDivisor,
    VerificationFailed,
)
from .groebner import Ideal, contract, dimension, ideals_equal, lift_all, normal_form
from .idealops import (
    QuotientRingContext,
    annihilator,
    ideal_quotient,
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


@dataclass(frozen=True)
class SplitDecision:
    """Either a nonzerodivisor (both ideals None) or a zerodivisor together
    with the defining ideals of the split's two children, each generated
    by and holding its reduced basis: D : f, its annihilator's preimage,
    which is larger than D, and its complement D : (D : f).  For a radical
    D these are the intersections of the minimal primes that do not
    contain f and of those that do, so both children are reduced and
    together they keep every component of D exactly once."""

    f: Polynomial
    annihilator_ideal: "Ideal | None" = None
    complement_ideal: "Ideal | None" = None

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


def choose_test_ideal(R: AffinePresentation, _events=None) -> Ideal:
    """Radical of the Jacobian test ideal; the unit ideal signals that the
    non-normal locus is empty."""
    jac = jacobian_test_ideal(R.ctx)
    if _events is not None:
        _events.append(("TestIdeal", jac))
    rad = radical(jac)
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
    return SplitDecision(f, ann, ideal_quotient(Ideal(R.ring, []), ann, R.ctx))


def pick_nzd_or_split(R: AffinePresentation, I: Ideal) -> SplitDecision:
    """Scan candidates from the test ideal.  Splitting is preferred: the
    first zerodivisor found wins, since a split separates components and
    is always sound; otherwise the first nonzerodivisor is returned.

    Zerodivisors are detected by dimension: over a reduced defining
    ideal, adjoining a nonzerodivisor strictly drops the dimension of
    every component, while equal dimension forces the candidate into a
    minimal prime.  ``D.canonical([f], below=dim D)`` decides whether
    dim(D + (f)) drops, from leading terms alone when it can and otherwise
    from a run that stops at the first sign of the drop.  The annihilator
    D : f is only computed for the element actually returned; f is a
    nonzerodivisor exactly when it equals D.  A split costs one more colon
    read, the complement D : (D : f)."""
    gens, candidates = _candidates(R, I)
    if not gens:
        raise EmptyIdeal("test ideal is zero in the quotient ring")
    D = R.defining
    base_dim = dimension(D)
    first_nzd = None
    for f in candidates:
        if D.canonical([f], below=base_dim) is not None:
            ann = annihilator(f, R.ctx)
            if ideals_equal(ann, D):
                raise AssertionError("dimension flagged a nonzerodivisor")
            return _split_decision(R, f, ann)
        if first_nzd is None:
            first_nzd = f
    ann = annihilator(first_nzd, R.ctx)
    if ideals_equal(ann, D):
        return SplitDecision(first_nzd)
    # the dimension filter can miss zerodivisors supported on small
    # components of a non-equidimensional ring; split on them anyway
    return _split_decision(R, first_nzd, ann)


def endomorphism_ring(R: AffinePresentation, I: Ideal,
                      f: "Polynomial | SplitDecision") -> EndoPresentation:
    """Hom_R(I, I) = (1/f) (fI : I) presented by numerators over f.

    ``f`` is a nonzerodivisor: a non-split SplitDecision, whose
    annihilator D : f = D was already computed, or a bare polynomial,
    checked here.  The numerators are read off the generators of
    (fI + D) : I; those in D have a zero normal form modulo D + (f), and
    the others the same one as their normal forms modulo D.
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
        if not ideals_equal(annihilator(f, ctx), ctx.defining):
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
    """Children D : (D : f) and D : f, the two ideals the decision carries."""
    pres = comp.presentation
    children = []
    for ideal in (decision.complement_ideal, decision.annihilator_ideal):
        if ideal.contains_one():
            raise AssertionError("split factor collapsed to the unit ideal")
        child = AffinePresentation(
            QuotientRingContext(pres.ring, ideal), pres.adjoined, pres.level)
        children.append(Component(child, comp.iterations, next_index()))
    return children


def _step(R: AffinePresentation, events=None):
    """One loop step on R, returned as (kind, payload): "unit-test-ideal"
    or "hom-equal" (R is normal, payload None), "split" (payload the
    SplitDecision) or "extend" (payload the EndoPresentation)."""
    test = choose_test_ideal(R, events)
    if test.contains_one():
        return "unit-test-ideal", None
    decision = pick_nzd_or_split(R, test)
    if decision.is_split:
        return "split", decision
    endo = endomorphism_ring(R, test, decision)
    if endo.t == 0:
        return "hom-equal", None
    return "extend", endo


def normalize(R0: AffinePresentation, max_iterations: int = 32,
              radical_strategy: str = "auto") -> NormalizationResult:
    """Run the full loop over a work-list of components.  There is one
    radical path: ``radical_strategy`` must be "auto", and the keyword goes
    once the benchmark (perfbench/run.py) stops passing it."""
    if radical_strategy != "auto":
        raise ValueError(f"radical_strategy must be 'auto', got {radical_strategy!r}")
    trace: list = []
    counter = iter(range(1, 1 << 30))
    worklist = deque([Component(R0, 0, 0)])
    finished = []

    while worklist:
        comp = worklist.popleft()
        for _ in range(max_iterations):
            events: list = []
            kind, payload = _step(comp.presentation, events)
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


def _require(condition: bool, message: str):
    if not condition:
        raise VerificationFailed(message)


def _determinant(ring: PolyRing, rows) -> Polynomial:
    """Laplace expansion along the first row; the empty matrix gives 1."""
    if not rows:
        return ring.one
    total = ring.zero
    for j, entry in enumerate(rows[0]):
        if entry:
            term = entry * _determinant(ring, [row[:j] + row[j + 1:] for row in rows[1:]])
            total = total - term if j % 2 else total + term
    return total


def _serre_certificate(D: Ideal) -> bool:
    """True when ring/D is normal by Serre's criterion (R1 and S2).  D's
    reduced basis has c = n - dim D elements, so D is a complete
    intersection and ring/D is Cohen-Macaulay, hence S2 and
    equidimensional; and D plus the c x c minors of that basis's Jacobian
    has dimension at most dim D - 2 (is the unit ideal when dim D <= 1), so
    by the Jacobian criterion the singular locus has codimension >= 2,
    hence R1.  False only means that no certificate was found."""
    ring, basis = D.ring, D.groebner_basis()
    dim = dimension(D)
    c = ring.nvars - dim
    if len(basis) != c:
        return False
    jac = [[g.derivative(j) for j in range(ring.nvars)] for g in basis]
    minors = [_determinant(ring, [[row[j] for j in cols] for row in jac])
              for cols in combinations(range(ring.nvars), c)]
    return D.canonical(minors, below=max(dim - 1, 0)) is None


def verify_result(R0: AffinePresentation, result: NormalizationResult) -> None:
    """Independent certification of a normalization result.

    (a) every component is normal: a complete intersection by Serre's
        certificate (``_serre_certificate``: c = n - dim D basis elements,
        and the c x c Jacobian minors cut out a locus of codimension >= 2
        over the perfect fields QQ and GF(p)); otherwise one fresh loop
        step finds it normal: its test ideal is the unit ideal, or J is
        proper and Hom(J, J) = R;
    (b) eliminating the adjoined variables recovers, across all
        components together, exactly the radical of the input ideal,
        and no two components have the same image;
    (c) every adjoined variable carries a monic quadratic that still
        lies in its component's defining ideal;
    (d) every tower denominator is a nonzerodivisor in the output ring;
    (e) every adjoined variable T = a/d is its fraction: d*T - a lies in
        its component's defining ideal.

    Each component is contracted once, to its image I_j in the input
    ring.  Globally, (b) requires each product of one generator per image
    to lie in sqrt(D0), as sqrt(∩ I_j) = sqrt(∏ I_j); D0 ⊆ ∩ I_j needs no
    check, since the per-component half puts D0 into every I_j.  The
    components of a true result come from disjoint sets of minimal primes,
    so their images differ: equal images mean a component was doubled,
    as a split of a non-radical input can do.  (d) is
    stronger than a check at the denominator's own level, whose ring
    embeds in the output ring.  (c), (d) and (e) together put each output
    ring between the input ring and its integral closure.  (e) runs after
    (d), so a zero denominator is reported as one.

    Returns nothing; the first failed check raises ``VerificationFailed``.
    Messages name each component by its position in
    ``result.components``, the number the text output and the JSON list
    give it.
    """
    _require(bool(result.components), "no output component, but the input ring is nonzero")
    products = [R0.ring.one]
    images = []     # the images of the components checked so far

    for k, comp in enumerate(result.components):
        pres = comp.presentation
        ctx = pres.ctx

        # (a) Serre's certificate, else a fresh fixed-point recheck
        if not _serre_certificate(pres.defining):
            kind, _ = _step(pres)
            _require(kind != "split", f"component {k}: output ring still splits")
            _require(kind != "extend", f"component {k}: endomorphism ring is strictly larger")

        # (b) per-component direction: the input ideal maps into the image
        image = contract(pres.defining, R0.ring)
        for g in R0.defining.generators:
            _require(normal_form(g, image).is_zero(),
                     f"component {k}: input relation escapes the image")
        for i, other in enumerate(images):
            _require(not ideals_equal(image, other),
                     f"components {i} and {k} have the same image in the input ring")
        images.append(image)
        products = R0.ctx.reduce_all(p * g for p in products for g in image.generators)

        # (c) integrality witnesses
        for adj in pres.adjoined:
            q = adj.monic_quadratic.map_to(pres.ring)
            i = pres.ring.index(adj.name)
            lead = q.coefficient_in(i, 2)
            _require(q.degree_in(i) == 2 and lead == pres.ring.one,
                     f"{adj.name}: integrality witness is not a monic quadratic")
            _require(ctx.is_zero(q),
                     f"{adj.name}: integrality witness left the defining ideal")

        # (d) denominator certificates, one per distinct denominator
        denominators = {}
        for adj in pres.adjoined:
            denominators.setdefault(adj.denominator.map_to(pres.ring), adj.name)
        for d, name in denominators.items():
            _require(ideals_equal(annihilator(d, ctx), ctx.defining),
                     f"{name}: tower denominator is a zerodivisor in the output ring")

        # (e) birationality witnesses
        for adj in pres.adjoined:
            witness = (adj.denominator.map_to(pres.ring) * pres.ring.var(adj.name)
                       - adj.numerator.map_to(pres.ring))
            _require(ctx.is_zero(witness),
                     f"{adj.name}: is not its numerator over its denominator")

    # (b) global direction: the product of the images lies in sqrt(D0)
    for p in products:
        _require(radical_membership(p, R0.defining),
                 "intersection of component images exceeds the input radical")
