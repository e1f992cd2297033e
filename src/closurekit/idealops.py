"""Ideal-theoretic operations: quotient, annihilator, saturation,
intersection, radical membership, radicals, and the Jacobian test ideal.

Colon ideals are syzygy reads: I : (g_1..g_s) is the kernel of
R -> (R/I)^s, h -> (h*g_1..h*g_s), read off one tagged run of the engine.
Modulo D the run starts from the reduced basis of I + D, grown from D's.
``intersect`` and ``saturation`` contract an ideal in one adjoined
variable to the ring; ``intersect`` serves only the radical's recursion.

Radical membership f in sqrt(I) first looks for a witness exponent:
a zero normal form of f^e, e <= _WITNESS_CAP, against I's memoized
basis proves f^e in I.  Only without one does Rabinowitsch decide, by
whether the saturation I : f^oo is (1); that route can answer False.

The radical follows a two-strategy plan.  Zero-dimensional ideals use
squarefree parts of univariate eliminants (one per variable); adjoining
those parts makes the ideal radical.  Each eliminant is the minimal
polynomial of x_i acting on R/I, found by linear algebra on the normal
forms of 1, x_i, x_i^2, ... against I's basis (as in FGLM), so no
elimination basis is computed.  Positive-dimensional ideals reduce
to the zero-dimensional case over the rational function field of a
maximal independent variable set: a block order whose dependent block
dominates makes the Groebner basis valid there, and the contraction
back is one saturation by the product of the collected leading
coefficients.  The missed locus is recovered by recursing on the ideal
plus that product.  One squarefree routine serves both strategies: a
pseudo-remainder sequence of g and dg/dx_i, each remainder made
primitive, which is denominator-free over k[u] and keeps coefficient
growth in check over QQ.
"""
from __future__ import annotations

from itertools import combinations
from operator import add

from .errors import (
    RingMismatch,
    StrategyFailed,
    UnitIdeal,
    UnsupportedCharacteristic,
    ZeroPolynomial,
)
from .groebner import (Ideal, contract, dimension, eliminate, independent_sets,
                       normal_form, syzygies)
from .ring import (
    Block,
    DEGREVLEX,
    LEX,
    Polynomial,
    PolyRing,
    fresh_name,
)


class QuotientRingContext:
    """A presentation R = ring/D; D must be proper, and is expected
    reduced (reducedness is the caller's contract, checked on demand)."""

    def __init__(self, ring: PolyRing, defining: Ideal):
        if defining.ring != ring:
            raise RingMismatch("defining ideal lives in a different ring")
        if defining.contains_one():
            raise UnitIdeal("defining ideal is the unit ideal (zero ring)")
        self.ring = ring
        self.defining = defining

    def nf(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self.defining)

    def is_zero(self, p: Polynomial) -> bool:
        return self.nf(p).is_zero()

    def reduce_all(self, polys) -> list:
        """Normal forms of ``polys`` modulo D, zeros and repeats dropped."""
        out = []
        for p in polys:
            r = self.nf(p)
            if r and r not in out:
                out.append(r)
        return out

    def __repr__(self):
        return f"{self.ring!r} / {self.defining!r}"


def _adjoined(ring: PolyRing):
    """Ring with one fresh variable t in a dominant lex block, and t."""
    name = fresh_name(ring.variables)
    extended = PolyRing(
        ring.field,
        (name,) + ring.variables,
        Block(((0,), LEX), (tuple(range(1, ring.nvars + 1)), DEGREVLEX)),
    )
    return extended, extended.var(name)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via the t-trick: t*I + (1-t)*J contracted to the ring."""
    if I.ring != J.ring:
        raise RingMismatch("ideals live in different rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    ext, t = _adjoined(ring)
    gens = [t * g.map_to(ext) for g in I.generators]
    gens += [(ext.one - t) * g.map_to(ext) for g in J.generators]
    return contract(Ideal(ext, gens), ring)


def ideal_quotient(I: Ideal, J: Ideal, ctx: QuotientRingContext) -> Ideal:
    """Generators of {h : h*J ⊆ I + D} reduced modulo D."""
    if I.ring != ctx.ring or J.ring != ctx.ring:
        raise RingMismatch("quotient arguments live in different rings")
    # J ⊆ D: the zero vector has the syzygy 1, so every element qualifies
    vector = ctx.reduce_all(J.generators) or [ctx.ring.zero]
    ambient = ctx.defining.plus(I.generators)
    quo = Ideal(ctx.ring, [a for (a,) in syzygies([vector], ambient)])
    return Ideal(ctx.ring, ctx.reduce_all(quo.groebner_basis()))


def annihilator(f: Polynomial, ctx: QuotientRingContext) -> Ideal:
    """(0 : f) in ring/D, i.e. (D : f) reduced modulo D, read off the
    syzygies of f modulo D (f = 0 has the syzygy 1)."""
    if f.ring != ctx.ring:
        raise RingMismatch("element lives in a different ring")
    quo = Ideal(ctx.ring, [a for (a,) in syzygies([ctx.nf(f)], ctx.defining)])
    return Ideal(ctx.ring, ctx.reduce_all(quo.groebner_basis()))


def saturation(I: Ideal, f: Polynomial) -> Ideal:
    """{h : h*f^m in I for some m}: I + (1 - t*f) contracted to the ring."""
    if f.ring != I.ring:
        raise RingMismatch("element lives in a different ring")
    if f.is_zero():
        raise ZeroPolynomial("cannot saturate with respect to zero")
    ring = I.ring
    ext, t = _adjoined(ring)
    gens = [g.map_to(ext) for g in I.generators]
    gens.append(ext.one - t * f.map_to(ext))
    return contract(Ideal(ext, gens), ring)


_WITNESS_CAP = 8


def radical_membership(f: Polynomial, I: Ideal) -> bool:
    """f in sqrt(I).  A witness exponent comes first: f^e for
    e = 1.._WITNESS_CAP is reduced against I's memoized basis, and a
    zero normal form proves f^e in I.  Without a witness (or for I = 0)
    Rabinowitsch decides: f in sqrt(I) iff 1 in I + (1 - t*f), the only
    route that can answer False."""
    if f.ring != I.ring:
        raise RingMismatch("element lives in a different ring")
    if f.is_zero():
        return True
    if not I.is_zero():
        p = f
        for _ in range(_WITNESS_CAP):
            p = normal_form(p, I)   # f^e mod I
            if not p:
                return True
            p = p * f
    return _rabinowitsch(f, I)


def _rabinowitsch(f: Polynomial, I: Ideal) -> bool:
    """1 in I + (1 - t*f), i.e. I : f^oo = (1); f = 0 is in every radical."""
    return not f or saturation(I, f).contains_one()


# -- pseudo-division helpers (coefficients in a subring) -------------------

def _leading_coeff_in(p: Polynomial, i: int) -> Polynomial:
    return p.coefficient_in(i, p.degree_in(i))


def _var_power(ring: PolyRing, i: int, e: int) -> Polynomial:
    m = tuple(e if j == i else 0 for j in range(ring.nvars))
    return ring.term(m, ring.field.one)


def _pseudo_divide(f: Polynomial, g: Polynomial, i: int):
    """Pseudo-quotient and pseudo-remainder (q, r) of f by g, both viewed
    as univariate in x_i: lc^k * f = q * g + r with deg_i r < deg_i g."""
    ring = f.ring
    dg = g.degree_in(i)
    lc_g = _leading_coeff_in(g, i)
    r, q = f, ring.zero
    while r and r.degree_in(i) >= dg:
        s = _leading_coeff_in(r, i) * _var_power(ring, i, r.degree_in(i) - dg)
        q = lc_g * q + s
        r = lc_g * r - s * g
    return q, r


def _squarefree_part(g: Polynomial, i: int, char: int):
    """Squarefree part of g viewed in k(u)[x_i], u the variables other
    than x_i (none in dimension zero), from a pseudo-remainder sequence
    of g and its derivative.  Each remainder is made primitive, which
    over QQ keeps the coefficients from growing with every step and
    over GF(p) changes nothing; the sequence stays denominator-free.

    Returns (part, junk) where junk collects the leading-coefficient
    factors picked up along the way (polynomials in the u-variables)."""
    deg = g.degree_in(i)
    if char and char <= deg:
        raise UnsupportedCharacteristic(
            f"GF({char}) is too small for a squarefree part of degree {deg}")
    dg = g.derivative(i)
    if dg.is_zero():
        raise UnsupportedCharacteristic(
            "derivative vanished; characteristic divides every exponent")
    a, b = g, dg
    while b and b.degree_in(i) > 0:
        a, b = b, _pseudo_divide(a, b, i)[1].input_normalized()
    if b:
        # gcd is trivial over k(u); g is already squarefree there
        return g, [b, _leading_coeff_in(g, i)]
    part, r = _pseudo_divide(g, a, i)
    if r:
        raise AssertionError("pseudo-division expected to be exact")
    junk = [_leading_coeff_in(a, i), _leading_coeff_in(part, i)]
    return part, junk


# -- radical ----------------------------------------------------------------

_RADICAL_MAX_DEPTH = 16


def _certify_radical(original: Ideal, candidate: Ideal):
    for g in original.generators:
        if not normal_form(g, candidate).is_zero():
            raise StrategyFailed("radical certification failed: I not contained")
    for g in candidate.generators:
        if not radical_membership(g, original):
            raise StrategyFailed("radical certification failed: generator escapes")


def _minimal_polynomial(I: Ideal, i: int) -> Polynomial:
    """Monic generator of I ∩ k[x_i], read as the minimal polynomial of
    x_i acting on R/I: the normal forms of 1, x_i, x_i^2, ... against
    I's basis are kept in echelon form by leading monomial, each with
    its combination as a polynomial in x_i; the first one that reduces
    to zero is the answer.  R/I must be finite-dimensional."""
    ring = I.ring
    x = _var_power(ring, i, 1)
    rows = {}       # leading monomial -> (monic row, its combination)
    power = normal_form(ring.one, I)    # nf(x_i^k)
    k = 0
    while True:
        r, comb = power, _var_power(ring, i, k)
        while r and r.LM in rows:
            row, row_comb = rows[r.LM]
            c = r.raw[0][1]
            r, comb = r - row * c, comb - row_comb * c
        if not r:
            return comb
        rows[r.LM] = (r.monic(), comb * r.LC.inverse())
        k += 1
        power = normal_form(power * x, I)


def _radical_zerodim(I: Ideal, char: int) -> Ideal:
    """I plus the squarefree part of each variable's minimal polynomial
    on R/I; I must be zero-dimensional and proper."""
    ring = I.ring
    basis = I.groebner_basis()
    for i, name in enumerate(ring.variables):
        if not any(g.LM[i] and g.LM[i] == sum(g.LM) for g in basis):
            raise AssertionError(
                f"no pure power of {name} leads the basis; ideal is not zero-dimensional")
    # the leading coefficients of univariate polynomials are constants
    extra = [_squarefree_part(_minimal_polynomial(I, i), i, char)[0]
             for i in range(ring.nvars)]
    return I.canonical(extra)


def _dep_leading_data(g: Polynomial, dep: tuple, block: Block):
    """Leading coefficient of g in k[u][dep] under a dep-dominant block
    order: the u-polynomial attached to the maximal dep-monomial."""
    work = g.map_to(g.ring.with_order(block))
    lead_dep = tuple(work.LM[i] for i in dep)
    ring = g.ring
    d = {}
    for m, c in g.raw:
        if tuple(m[i] for i in dep) == lead_dep:
            key = tuple(0 if i in dep else e for i, e in enumerate(m))
            d[key] = d.get(key, 0) + c
    return ring.from_raw(d)


def _radical_general(I: Ideal, char: int, depth: int) -> Ideal:
    if depth > _RADICAL_MAX_DEPTH:
        raise StrategyFailed(f"radical recursion exceeded depth {_RADICAL_MAX_DEPTH}")
    ring = I.ring
    if I.contains_one():
        return I.canonical()
    if I.is_zero():
        return I
    sets = independent_sets(I)
    u = tuple(sorted(min(sets, key=lambda s: tuple(sorted(s)))))
    if not u:
        return _radical_zerodim(I, char)
    dep = tuple(i for i in range(ring.nvars) if i not in set(u))
    block = Block((dep, DEGREVLEX), (u, DEGREVLEX))

    factors = []

    def note(h: Polynomial):
        h = h.monic()
        if h and not h.is_constant() and h not in factors:
            factors.append(h)

    for g in I.groebner_basis(block):
        note(_dep_leading_data(g, dep, block))

    extra = []
    for i in dep:
        others = {ring.variables[j] for j in dep if j != i}
        elim = eliminate(I, others)
        gens = [g for g in elim.groebner_basis()
                if g and g.degree_in(i) > 0]
        if not gens:
            raise StrategyFailed(
                f"no eliminant in {ring.variables[i]} over the independent set")
        g = min(gens, key=lambda p: p.degree_in(i))
        part, junk = _squarefree_part(g, i, char)
        extra.append(part)
        for h in junk:
            note(h)

    contracted = I.canonical(extra)
    for g in contracted.groebner_basis(block):
        note(_dep_leading_data(g, dep, block))

    if not factors:
        return contracted
    h_total = ring.one
    for h in factors:
        h_total = h_total * h
    # (J : h_1^oo) : h_2^oo = J : (h_1 h_2)^oo, so one saturation serves
    contracted = saturation(contracted, h_total)
    rest = _radical_general(I.canonical([h_total]), char, depth + 1)
    if rest.contains_one():
        return contracted
    return intersect(contracted, rest)


def radical(I: Ideal, strategy: str = "auto") -> Ideal:
    """Generators of sqrt(I); the output is certified (containment plus
    radical membership of every generator, each by a witness exponent
    or else Rabinowitsch) before being returned.  "auto" is "general",
    which sends dimension zero on to "zerodim"; "zerodim" itself rejects
    any other dimension up front."""
    if strategy not in ("auto", "zerodim", "general"):
        raise ValueError(f"unknown radical strategy {strategy!r}")
    char = I.ring.field.characteristic
    if I.is_zero():
        return I
    if I.contains_one():
        return I.canonical()
    if strategy == "zerodim":
        dim = dimension(I)
        if dim != 0:
            raise StrategyFailed(
                f"ideal is not zero-dimensional (dimension {dim})")
        out = _radical_zerodim(I, char)
    else:
        out = _radical_general(I, char, 0)
    _certify_radical(I, out)
    return out


# -- Jacobian test ideal -----------------------------------------------------

def _expand_last_row(ring: PolyRing, row, parent: dict, cols: tuple) -> Polynomial:
    """The k x k minor on ``cols`` of parent's rows plus ``row``, by
    cofactor expansion along ``row``; ``parent`` maps (k-1)-subsets of
    columns to their nonzero minors.  All products go into one raw dict."""
    k = len(cols)
    d = {}
    get = d.get
    for p, j in enumerate(cols):
        entry = row[j]
        sub = parent.get(cols[:p] + cols[p + 1:])
        if not entry or sub is None:
            continue
        odd = (k - 1 + p) % 2
        for m1, c1 in entry.raw:
            if odd:
                c1 = -c1
            for m2, c2 in sub.raw:
                m = tuple(map(add, m1, m2))
                d[m] = get(m, 0) + c1 * c2
    return ring.from_raw(d)


def jacobian_test_ideal(ctx: QuotientRingContext) -> Ideal:
    """D plus the c x c minors of the Jacobian of D's generators, where
    c = (number of variables) - dim(D).  Not radicalized here.  The sum is
    generated by D's generators followed by the minors, and holds the
    basis grown from D's.

    Entries and minors are reduced modulo D and deduplicated; congruent
    entries give congruent determinants, so the ideal is unchanged while
    the generator list stays small.

    Sub-minors are shared: row sets are walked depth first in lex order,
    and each row prefix of length k < c holds one table of its k x k
    minors for all column sets, expanded from its parent's table along
    the newest row and reduced modulo D.  A congruent sub-minor gives a
    congruent minor, so every c x c minor has the same normal form as
    the exact determinant.  Only the c tables on the current path are
    alive at any time."""
    ring = ctx.ring
    gens = list(ctx.defining.generators)
    c = ring.nvars - dimension(ctx.defining)
    if c <= 0:
        return ctx.defining.plus([ring.one])
    jac = [[ctx.nf(g.derivative(j)) for j in range(ring.nvars)] for g in gens]
    minors = []
    seen = set()

    def walk(start: int, parent: dict, k: int) -> bool:
        """Extend the row prefix owning ``parent`` (of length k - 1) by
        each row from ``start`` on; True once a constant minor is found."""
        for r in range(start, len(gens) - c + k):
            table = {}
            for cols in combinations(range(ring.nvars), k):
                det = _expand_last_row(ring, jac[r], parent, cols)
                if det and k > 1:
                    det = ctx.nf(det)
                if not det:
                    continue
                if k < c:
                    table[cols] = det
                elif (key := det.monic()) not in seen:
                    seen.add(key)
                    minors.append(det)
                    if det.is_constant():
                        return True
            if table and walk(r + 1, table, k + 1):
                return True
        return False

    walk(0, {(): ring.one}, 1)
    return ctx.defining.plus(minors)
