"""Buchberger's algorithm, reduced bases, normal forms, syzygies, lifts,
elimination and contraction, and Krull dimension of leading-term ideals.
Only this module fills an ideal's basis memo without a fresh run, and
only through ``_holding``.  ``I.canonical(extra)`` is the one builder of a
sum grown from a held basis: its run starts at I's reduced basis, and the
result is generated by and holds the basis of I + (extra).  With
``below=d`` it first reads the leading monomials of the summands, then
stops the run as soon as the sum's leading monomials show its dimension
below d, answering None, so a sum whose dimension drops is never
finished.  ``plus`` holds the same basis but keeps I's generators followed
by the extras, as the Jacobian test ideal needs.  ``eliminate`` and
``contract`` hold the kept basis when it is the ring's degrevlex one.
``normal_form`` divides by the held basis with a first-divisor memo kept
beside the bases (``Ideal._held``).

The pair update uses both standard criteria (coprime leading terms and
the chain criterion) with normal-strategy selection.  Syzygies and lifts
run on the same engine, on vectors of s entries: the j-th vector
(g_j1..g_js) becomes E_1*g_j1 + ... + E_s*g_js + e_j in ring[E, e], and
each element d of the ambient's reduced basis enters once per slot, as a
held E_i*d, under a block order whose lex tag block dominates, slot tags
first (position over term).  Pairs form within a slot only, and never
between held elements; remainders without a slot tag are
syzygies, collected and never in the basis (Schreyer), and reducing
sum(E_i*p_i) by the basis reads off a lift of (p_1..p_s).
"""
from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain, combinations

from .errors import NotAMember, RingMismatch
from .ring import (
    DEGREVLEX,
    LEX,
    Block,
    Polynomial,
    PolyRing,
    MonomialOrder,
    elimination_order,
    fresh_name,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    remainder,
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
        # normal_form's divisors: the ring-order basis, its leading
        # monomials and its first-divisor memo (see ring.remainder)
        self._held = None

    def groebner_basis(self, order: MonomialOrder | None = None):
        order = order or self.ring.order
        cached = self._bases.get(order.name)
        if cached is None:
            cached = _reduced_groebner(self.generators, self.ring, order)
            self._bases[order.name] = cached
        return cached

    def plus(self, extra) -> "Ideal":
        """This ideal plus (extra), generated by this ideal's generators
        followed by the nonzero extras, as the Jacobian test ideal needs,
        and holding the basis ``canonical`` grows."""
        extra = Ideal(self.ring, extra).generators
        return _holding(self.ring, self.canonical(extra).generators,
                        self.generators + extra)

    def canonical(self, extra=(), below=None) -> "Ideal | None":
        """This ideal plus (extra), generated by and holding its reduced
        basis in the ring's order, grown from this ideal's held basis (with
        no nonzero extras, that basis itself).  The one builder of such sums.

        With ``below`` d >= 0 the answer is None when the sum's dimension is
        below d.  LT(I) + (LM of the extras) lies in the sum's leading-term
        ideal, so when it leaves no independent set of size d there is no
        run; otherwise the run stops at the first sign of the drop
        (``_buchberger``'s ``below``), so a sum whose dimension drops is
        never finished."""
        ring, basis = self.ring, self.groebner_basis()
        extra = Ideal(ring, extra).generators
        if below is not None and next(_independent(
                [p.LM for p in chain(basis, extra)], ring.nvars, below), None) is None:
            return None
        if extra:
            basis = _buchberger(extra, ring, held=basis, below=below)
            if basis is None:
                return None
        return _holding(ring, basis)

    def is_zero(self) -> bool:
        return not self.generators

    def contains_one(self) -> bool:
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].is_constant()

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.generators) or '0'})"


def _holding(ring: PolyRing, basis, generators=None) -> Ideal:
    """An ideal on ``generators`` (by default ``basis``) holding ``basis`` as
    its reduced basis in the ring's order: besides ``groebner_basis``, the
    one writer of the basis memo."""
    out = Ideal(ring, basis if generators is None else generators)
    out._bases[ring.order.name] = tuple(basis)
    return out


def _set_aside(r, syzygies, slots) -> bool:
    """In a tagged run (``slots`` > 0), a remainder with no slot tag in its
    leading monomial is a syzygy: collect it, so that it never joins the
    basis."""
    if not slots or any(r.LM[:slots]):
        return False
    syzygies.append(r)
    return True


def _interreduce(polys, syzygies=None, slots=0, held=()):
    """One interreduction pass: each polynomial is divided once by ``held``,
    the ones already kept and the ones still to come, and its monic
    remainder is kept.  ``_buchberger`` runs it on its input, which then
    only has to generate the ideal, and on its minimal basis, where the
    leading monomials stay and each element becomes the unique reduced one."""
    todo = [p.monic() for p in polys if p and not _set_aside(p, syzygies, slots)]
    kept = []
    for i, p in enumerate(todo):
        others = [*held, *kept, *todo[i + 1:]]
        r = remainder(p, others, [q.LM for q in others]) if others else p
        if r and not _set_aside(r, syzygies, slots):
            kept.append(r.monic())
    return kept


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
    if work_ring != ring:
        basis = [b.map_to(ring) for b in basis]
    return tuple(basis)


def _buchberger(polys, ring, syzygies=None, slots=0, held=(), below=None):
    """Reduced Groebner basis, Gebauer-Moeller pair update with
    normal-strategy selection (smallest lcm first, ties by index).

    One ``_interreduce`` pass reduces the input by itself; after the pair
    loop the minimal basis goes through the same pass as tail reduction.
    A sum I + (polys) grows from I's reduced basis ``held``: G starts at it
    with no pairs among its elements, whose S-polynomials reduce to zero,
    and only the input, reduced by it too, goes through the pair update.
    Each pair keeps the lcm of its leading monomials from creation on;
    pairs wait in a heap keyed by that lcm, and a pair the chain
    criterion discards is dropped from ``CP`` and skipped when popped.

    With ``slots`` s > 0 the input is tagged (see ``_tagged_run``):
    remainders with no slot tag go to the ``syzygies`` list, and only
    same-slot pairs are formed, which the coprime criterion never drops.

    With ``below`` d the run stops, returning None, once the leading
    monomials of G leave no independent set of size d: LT(G) lies in the
    leading-term ideal of the sum at every point of the run, so the sum's
    dimension is then below d.  A run that does not stop has dimension >= d.

    Every basis is certified here, where it is made: each input and held
    element must reduce by it to zero, or in a tagged run to a syzygy.
    """
    f = [*held, *_interreduce(polys, syzygies, slots, held)]
    key = ring.order.key
    lm = [p.LM for p in f]

    G = set(range(len(held)))  # indices of the current basis
    CP: dict = {}       # live critical pairs (i, j) -> lcm of their LMs
    heap: list = []     # (key(lcm), i, j) for every pair ever created

    def update(h):
        nonlocal G
        mh = lm[h]
        C = {g for g in G if lm[g][:slots] == mh[:slots]} if slots else set(G)
        lcm_h = {g: monomial_lcm(mh, lm[g]) for g in C}
        # new pairs (h, g): keep the coprime ones for now, and those whose
        # lcm no other new pair's lcm divides (chain criterion)
        D = []
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

    def dropped():
        return below is not None and next(_independent(
            [lm[g] for g in G], ring.nvars, below), None) is None

    for i in sorted(range(len(held), len(f)), key=lambda k: key(lm[k])):
        update(i)
    if dropped():
        return None

    reducers = None     # G sorted by leading monomial, rebuilt when G changes
    while CP:
        _, i, j = heappop(heap)
        if CP.pop((i, j), None) is None:
            continue
        if reducers is None:
            ix = sorted(G, key=lambda g: key(lm[g]))
            reducers = [f[g] for g in ix], [lm[g] for g in ix]
        r = remainder(_spoly(f[i], f[j]), *reducers)
        if r and not _set_aside(r, syzygies, slots):
            f.append(r.monic())
            lm.append(r.LM)
            update(len(f) - 1)
            if dropped():
                return None
            reducers = None

    # minimalize (an element another's leading monomial divides would only
    # reduce to zero), then tail-reduce by the same pass: the reduced basis
    # is unique
    minimal = [f[g] for g in G]
    minimal = [p for p in minimal
               if not any(q is not p and monomial_divides(q.LM, p.LM) for q in minimal)]
    reduced = _interreduce(minimal)
    reduced.sort(key=lambda p: key(p.LM), reverse=True)
    leads = [p.LM for p in reduced]
    for p in chain(held, polys):
        r = remainder(p, reduced, leads)
        if r and (not slots or any(r.LM[:slots])):
            raise AssertionError("input generator escaped its own basis")
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
    """Canonical representative of p modulo the ideal.  The ideal holds its
    basis as divisors with a first-divisor memo, made on the first call."""
    if p.ring != ideal.ring:
        raise RingMismatch("polynomial and ideal live in different rings")
    held = ideal._held
    if held is None:
        basis = ideal.groebner_basis()
        held = ideal._held = (basis, [g.LM for g in basis], {})
    return remainder(p, *held) if held[0] else p


def ideal_member(p: Polynomial, ideal: Ideal) -> bool:
    return normal_form(p, ideal).is_zero()


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    if a.ring != b.ring:
        raise RingMismatch("ideals live in different rings")
    return a.groebner_basis() == b.groebner_basis()


# -- syzygies and lifts on tagged polynomials -----------------------------

def _slotted(vector, e):
    """E_1*p_1 + ... + E_s*p_s for the slot tags ``e``; a bare polynomial
    is a vector of length 1."""
    vector = (vector,) if isinstance(vector, Polynomial) else vector
    return sum((tag * p.map_to(tag.ring) for tag, p in zip(e, vector)), e[0].ring.zero)


def _tagged_run(gens, ambient: Ideal, slots: int = 1):
    """Schreyer run on E_1*g_j1 + ... + E_s*g_js + e_j and E_i*d_k in
    ring[E_1..E_s, e_1..e_t], for d_k the ambient's reduced basis.  The
    E_i*d_k start the run as held elements (see ``_buchberger``): within
    a slot they are a reduced basis already, so they form no pairs among
    themselves and are not interreduced, and a redundant or non-basis
    ambient generator never enters.  Returns the tagged ring, the basis
    (each leading monomial has a slot tag) and the syzygies (none has one)."""
    ring = ambient.ring
    tags = []
    for j in range(slots + len(gens)):
        tags.append(fresh_name(ring.variables + tuple(tags), f"_e{j}"))
    width = len(tags)
    tagged = PolyRing(ring.field, tuple(tags) + ring.variables, Block(
        (range(width), LEX), (range(width, width + ring.nvars), ring.order)))
    e = [tagged.var(name) for name in tags]
    polys = [_slotted(g, e[:slots]) + e[slots + j] for j, g in enumerate(gens)]
    held = [tag * d.map_to(tagged) for tag in e[:slots] for d in ambient.groebner_basis()]
    found: list = []
    basis = _buchberger(polys, tagged, found, slots, held)
    return tagged, basis, found


def syzygies(gens, ambient: Ideal):
    """All coefficient tuples (a_1..a_t) with sum(a_j g_j) in the ambient
    ideal, in every entry when the g_j are vectors of one length."""
    return lift_all([], gens, ambient)[1]


def lift(p: Polynomial, gens, ambient: Ideal):
    """Coefficients c_j with p - sum(c_j g_j) in the ambient ideal."""
    (coeffs,), _ = lift_all([p], gens, ambient)
    if coeffs is None:
        raise NotAMember(f"{p} is not in the ideal generated by the lift targets")
    return coeffs


def lift_all(targets, gens, ambient: Ideal):
    """``lift`` of every target and the ``syzygies`` of ``gens``, from one
    tagged run: (lifts, syzygies), with None in place of the coefficients
    of a target outside the module.  Targets and generators are all bare
    polynomials or all vectors of one length, the number of slots."""
    targets, gens = list(targets), list(gens)
    vectors = [(p,) if isinstance(p, Polynomial) else p for p in targets + gens]
    (slots,) = {len(v) for v in vectors} or {1}     # ValueError on mixed lengths
    if any(p.ring != ambient.ring for v in vectors for p in v):
        raise RingMismatch("element and ambient ideal disagree on ring")
    tagged, basis, found = _tagged_run(gens, ambient, slots)
    e = [tagged.var(name) for name in tagged.variables[:slots]]

    def untag(s):   # the coefficients of e_1..e_t, back in the ring
        return tuple(s.coefficient_in(j, 1).map_to(ambient.ring)
                     for j in range(slots, slots + len(gens)))

    lifts = []
    leads = [g.LM for g in basis]
    for p in targets:
        r = remainder(_slotted(p, e), basis, leads)
        lifts.append(None if r and any(r.LM[:slots]) else
                     [-c for c in untag(r)])
    found.sort(key=lambda s: tagged.order.key(s.LM), reverse=True)
    return lifts, tuple(untag(s) for s in found)


# -- elimination and dimension --------------------------------------------

def eliminate(ideal: Ideal, drop) -> Ideal:
    """Generators of the intersection with the subring that omits ``drop``: the
    kept basis, reduced under the elimination order and a degrevlex ring order."""
    ring = ideal.ring
    drop = set(drop)
    if not drop:
        return ideal
    drop_ix = {ring.index(name) for name in drop}
    order = elimination_order(ring.nvars, drop_ix)
    kept = [g for g in ideal.groebner_basis(order) if not (g.variables_used() & drop_ix)]
    return _holding(ring, kept) if ring.order == DEGREVLEX else Ideal(ring, kept)


def contract(ideal: Ideal, ring: PolyRing) -> Ideal:
    """``ideal`` ∩ k[ring's variables], in ``ring``; those variables keep their order,
    so a degrevlex ``ring`` agrees with ``eliminate``'s kept block and holds its basis."""
    source = ideal.ring
    kept = tuple(name for name in source.variables if name in ring.variables)
    if ring.field != source.field or kept != ring.variables:
        raise RingMismatch("contraction target is not a subring of the ideal's ring")
    elim = eliminate(ideal, set(source.variables) - set(kept))
    if ring == source:
        return elim.canonical()
    kept = [g.map_to(ring) for g in elim.generators]
    if ring.nvars < source.nvars and ring.order == DEGREVLEX:
        return _holding(ring, kept)
    return Ideal(ring, kept)


def dimension(ideal: Ideal) -> int:
    """Krull dimension of ring/ideal, the size of a maximal independent
    variable set.

    Returns -1 for the unit ideal so callers can branch on an empty
    variety without catching an exception.
    """
    u = independent_set(ideal)
    return -1 if u is None else len(u)


def independent_set(ideal: Ideal):
    """The lexicographically first maximal-size variable subset independent
    modulo LT(ideal), as a sorted index tuple; None for the unit ideal,
    which leaves not even the empty set independent."""
    leads, nvars = [g.LM for g in ideal.groebner_basis()], ideal.ring.nvars
    for size in range(nvars, -1, -1):
        u = next(_independent(leads, nvars, size), None)
        if u is not None:
            return u
    return None


def _independent(leads, nvars: int, size: int):
    """The variable subsets of ``size``, as sorted index tuples in
    lexicographic order, that contain the support of no monomial in
    ``leads``, lazily; none at all when one of them is 1.  Subsets of
    independent sets are independent, so there are none of any larger
    size either when there are none of this one."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    return (combo for combo in combinations(range(nvars), size)
            if not any(s.issubset(combo) for s in supports))
