"""Buchberger's algorithm, reduced bases, normal forms, syzygies, lifts,
elimination, and Krull dimension of leading-term ideals.

The pair update uses both standard criteria (coprime leading terms and
the chain criterion) with normal-strategy selection.  Syzygies and lifts
run on the same engine: each vector (g_j, e_j) or (d_k, 0) becomes the
polynomial e_0*g_j + e_{1+j} or e_0*d_k in ring[e_0..e_t], under a block
order whose lex tag block dominates (position over term, slot 0 first).
Remainders without e_0 in their leading monomial are syzygies; they are
collected and never join the basis (Schreyer), and reducing e_0*p by the
basis reads off a lift of p.
"""
from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain

from .errors import NotAMember, RingMismatch
from .ring import (
    LEX,
    Block,
    Polynomial,
    PolyRing,
    MonomialOrder,
    divide_with_remainder,
    elimination_order,
    fresh_name,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


class Ideal:
    """An ideal given by nonzero generators, with memoized reduced bases.

    Bases are memoized per order tag; computation is idempotent, so a
    concurrent duplicate computation only wastes work, never corrupts.
    """

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatch("generator from a different ring")
            if g:
                gens.append(g)
        self.generators = tuple(gens)
        self._bases: dict = {}

    def groebner_basis(self, order: MonomialOrder | None = None):
        order = order or self.ring.order
        cached = self._bases.get(order.name)
        if cached is None:
            cached = _reduced_groebner(self.generators, self.ring, order)
            self._bases[order.name] = cached
        return cached

    def is_zero(self) -> bool:
        return not self.generators

    def contains_one(self) -> bool:
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].is_constant()

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.generators) or '0'})"


def _set_aside(r, syzygies) -> bool:
    """In a tagged run (``syzygies`` is a list), a remainder whose leading
    monomial lacks e_0, variable 0, is a syzygy: collect it, so that it
    never joins the basis."""
    if syzygies is None or r.LM[0]:
        return False
    syzygies.append(r)
    return True


def _interreduce(polys, syzygies=None):
    """Repeatedly reduce each polynomial by the others until stable.
    Change is tracked through the division quotients, not by comparing
    the polynomial lists."""
    current = [p.monic() for p in polys if p and not _set_aside(p, syzygies)]
    changed = True
    while changed:
        changed = False
        reduced = []
        for i, p in enumerate(current):
            others = reduced + current[i + 1:]
            if not others:
                reduced.append(p)
                continue
            qs, r = divide_with_remainder(p, others)
            if any(qs):
                changed = True
            if r and not _set_aside(r, syzygies):
                reduced.append(r.monic())
        current = reduced
    return current


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm/LT(f) * f - lcm/LT(g) * g; the leading terms cancel exactly,
    so only the tails are combined."""
    lcm = monomial_lcm(f.LM, g.LM)
    d = {}
    get = d.get
    for h, sign in ((f.monic(), 1), (g.monic(), -1)):
        shift = monomial_div(lcm, h.LM)
        for m, c in h.raw[1:]:
            m = monomial_mul(m, shift)
            d[m] = get(m, 0) + sign * c
    return f.ring.from_raw(d)


def _reduced_groebner(gens, ring, order):
    work_ring = ring.with_order(order)
    polys = [g.map_to(work_ring) for g in gens if g]
    basis = _buchberger(polys, work_ring)
    # certify that every input generator reduces to zero
    for g in polys:
        if basis:
            _, r = divide_with_remainder(g, basis)
            if r:
                raise AssertionError("input generator escaped its own basis")
        elif g:
            raise AssertionError("nonzero generator with empty basis")
    if work_ring != ring:
        basis = [b.map_to(ring) for b in basis]
    return tuple(basis)


def _buchberger(polys, ring, syzygies=None):
    """Reduced Groebner basis, Gebauer-Moeller pair update with
    normal-strategy selection (smallest lcm first, ties by index).

    Each pair keeps the lcm of its leading monomials from creation on;
    pairs wait in a heap keyed by that lcm, and a pair the chain
    criterion discards is dropped from ``CP`` and skipped when popped.

    With a ``syzygies`` list the input is tagged (see ``_tagged_run``):
    tag-free remainders go to that list, so only slot-0 pairs are formed,
    and the coprime criterion never fires on them because they share e_0.
    """
    f = _interreduce(polys, syzygies)
    if not f:
        return []
    key = ring.order.key
    lm = [p.LM for p in f]

    G: set = set()      # indices of the current basis
    CP: dict = {}       # live critical pairs (i, j) -> lcm of their LMs
    heap: list = []     # (key(lcm), i, j) for every pair ever created

    def update(h):
        nonlocal G
        mh = lm[h]
        lcm_h = {g: monomial_lcm(mh, lm[g]) for g in G}
        # new pairs (h, g): keep the coprime ones for now, and those whose
        # lcm no other new pair's lcm divides (chain criterion)
        C, D = set(G), []
        while C:
            g = C.pop()
            lcm_hg = lcm_h[g]
            if monomial_mul(mh, lm[g]) == lcm_hg or not any(
                    monomial_divides(lcm_h[k], lcm_hg) for k in chain(C, D)):
                D.append(g)
        # an old pair (i, j) goes when mh divides its lcm and neither
        # lcm(i, h) nor lcm(j, h) equals it (chain criterion)
        for (i, j), lcm_ij in list(CP.items()):
            if (monomial_divides(mh, lcm_ij)
                    and monomial_lcm(lm[i], mh) != lcm_ij
                    and monomial_lcm(lm[j], mh) != lcm_ij):
                del CP[i, j]
        # queue the kept pairs; coprime ones reduce to zero and are dropped
        for g in D:
            lcm_hg = lcm_h[g]
            if monomial_mul(mh, lm[g]) != lcm_hg:
                CP[h, g] = lcm_hg
                heappush(heap, (key(lcm_hg), h, g))
        G = {g for g in G if not monomial_divides(mh, lm[g])}
        G.add(h)

    for i in sorted(range(len(f)), key=lambda k: key(lm[k])):
        update(i)

    reducers = None     # G sorted by leading monomial, rebuilt when G changes
    while CP:
        _, i, j = heappop(heap)
        if CP.pop((i, j), None) is None:
            continue
        if reducers is None:
            reducers = [f[g] for g in sorted(G, key=lambda g: key(lm[g]))]
        _, r = divide_with_remainder(_spoly(f[i], f[j]), reducers)
        if r and not _set_aside(r, syzygies):
            f.append(r.monic())
            lm.append(r.LM)
            update(len(f) - 1)
            reducers = None

    # minimalize, then tail-reduce: the reduced basis is unique
    minimal = [f[g] for g in G]
    minimal = [p for p in minimal
               if not any(q is not p and monomial_divides(q.LM, p.LM) for q in minimal)]
    reduced = []
    for i, p in enumerate(minimal):
        others = [q for q in minimal if q is not p]
        if others:
            _, r = divide_with_remainder(p, others)
        else:
            r = p
        if r:
            reduced.append(r.monic())
    reduced.sort(key=lambda p: key(p.LM), reverse=True)
    return reduced


def buchberger(gens, order: MonomialOrder | None = None) -> Ideal:
    """Build an Ideal carrying its reduced Groebner basis."""
    gens = list(gens)
    if not gens:
        raise ValueError("buchberger needs at least a ring; pass Ideal(ring, [])")
    ring = gens[0].ring
    ideal = Ideal(ring, gens)
    ideal.groebner_basis(order)
    return ideal


def normal_form(p: Polynomial, ideal: Ideal) -> Polynomial:
    """Canonical representative of p modulo the ideal."""
    if p.ring != ideal.ring:
        raise RingMismatch("polynomial and ideal live in different rings")
    basis = ideal.groebner_basis()
    if not basis:
        return p
    _, r = divide_with_remainder(p, list(basis))
    return r


def ideal_member(p: Polynomial, ideal: Ideal) -> bool:
    return normal_form(p, ideal).is_zero()


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    if a.ring != b.ring:
        raise RingMismatch("ideals live in different rings")
    return a.groebner_basis() == b.groebner_basis()


# -- syzygies and lifts on tagged polynomials -----------------------------

def _tagged_run(gens, ambient: Ideal):
    """Schreyer run on e_0*g_j + e_{1+j} and e_0*d_k in ring[e_0..e_t].

    Returns the tagged ring, the basis (every element has e_0 in its
    leading monomial) and the collected tag-free syzygies."""
    ring = ambient.ring
    tags = []
    for j in range(len(gens) + 1):
        tags.append(fresh_name(ring.variables + tuple(tags), f"_e{j}"))
    width = len(tags)
    tagged = PolyRing(ring.field, tuple(tags) + ring.variables, Block(
        (range(width), LEX), (range(width, width + ring.nvars), ring.order)))
    e = [tagged.var(name) for name in tags]
    polys = [e[0] * g.map_to(tagged) + e[1 + j] for j, g in enumerate(gens)]
    polys += [e[0] * d.map_to(tagged) for d in ambient.generators]
    found: list = []
    basis = _buchberger(polys, tagged, found)
    # certify: every tagged input reduces to a tag-free remainder
    for p in polys:
        _, r = divide_with_remainder(p, basis)
        if r and r.LM[0]:
            raise AssertionError("tagged generator escaped its own basis")
    return tagged, basis, found


def _untag(s: Polynomial, width: int, ring: PolyRing):
    """Slots 1..t of a tag-free tagged polynomial, as elements of ``ring``."""
    return tuple(s.coefficient_in(j, 1).map_to(ring) for j in range(1, width))


class SyzygyModule:
    """Generators of all relations among a list of ring elements, taken
    modulo an ambient defining ideal."""

    def __init__(self, size: int, vectors):
        self.size = size
        self.vectors = tuple(tuple(v) for v in vectors)

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __repr__(self):
        return f"SyzygyModule(size={self.size}, {len(self.vectors)} generators)"


def syzygies(gens, ambient: Ideal) -> SyzygyModule:
    """All vectors (a_0..a_t) with sum(a_j g_j) in the ambient ideal."""
    gens = list(gens)
    for g in gens:
        if g.ring != ambient.ring:
            raise RingMismatch("generators and ambient ideal disagree on ring")
    tagged, _, found = _tagged_run(gens, ambient)
    found.sort(key=lambda s: tagged.order.key(s.LM), reverse=True)
    return SyzygyModule(len(gens), [_untag(s, 1 + len(gens), ambient.ring)
                                    for s in found])


def lift(p: Polynomial, gens, ambient: Ideal):
    """Coefficients c_j with p - sum(c_j g_j) in the ambient ideal."""
    (coeffs,) = lift_all([p], gens, ambient)
    if coeffs is None:
        raise NotAMember(f"{p} is not in the ideal generated by the lift targets")
    return coeffs


def lift_all(targets, gens, ambient: Ideal):
    """``lift`` of every target against one tagged basis of ``gens``;
    None in place of the coefficients of a target outside the ideal."""
    targets, gens = list(targets), list(gens)
    for p in targets:
        if p.ring != ambient.ring:
            raise RingMismatch("element and ambient ideal disagree on ring")
    if not targets:
        return []
    tagged, basis, _ = _tagged_run(gens, ambient)
    e0 = tagged.var(tagged.variables[0])
    out = []
    for p in targets:
        _, r = divide_with_remainder(e0 * p.map_to(tagged), basis)
        out.append(None if r and r.LM[0] else
                   [-c for c in _untag(r, 1 + len(gens), ambient.ring)])
    return out


# -- elimination and dimension --------------------------------------------

def eliminate(ideal: Ideal, drop) -> Ideal:
    """Generators of the intersection with the subring that omits ``drop``."""
    ring = ideal.ring
    drop = set(drop)
    for name in drop:
        ring.index(name)  # raises UnknownVariable
    if not drop:
        return ideal
    drop_ix = {ring.index(name) for name in drop}
    order = elimination_order(ring.nvars, drop_ix)
    basis = ideal.groebner_basis(order)
    return Ideal(ring, [g for g in basis if not (g.variables_used() & drop_ix)])


def dimension(ideal: Ideal) -> int:
    """Krull dimension of ring/ideal via independent variable subsets.

    Returns -1 for the unit ideal so callers can branch on an empty
    variety without catching an exception.
    """
    sets = independent_sets(ideal)
    if sets is None:
        return -1
    return max(len(s) for s in sets)


def independent_sets(ideal: Ideal):
    """All maximal-size variable subsets independent modulo LT(ideal);
    None for the unit ideal."""
    ring = ideal.ring
    basis = ideal.groebner_basis()
    if any(g.is_constant() for g in basis):
        return None
    # independence is read off the leading-term ideal only
    supports = [frozenset(i for i, e in enumerate(g.LM) if e) for g in basis]
    n = ring.nvars
    from itertools import combinations

    for size in range(n, -1, -1):
        found = [set(combo) for combo in combinations(range(n), size)
                 if not any(s <= set(combo) for s in supports)]
        if found:
            return found
    return [set()]
