"""Independent oracles used to pin expected values in the tests.

Nothing here goes through the package's Groebner machinery: comparisons
come from the textbook definitions, memberships from explicit
certificates or re-expansion, and syzygy completeness from a dense
degree-by-degree linear solve over the rationals or GF(p).  The division
reference works on coefficient dicts with the oracle's own scalars
(``Fraction`` over QQ, ints mod p) and finds leading terms with the
order's ascending ``key``, so it shares neither the polynomial arithmetic
nor the ``desc_key`` sorting of the kernel.
The one exception is ``reference_quotient``: it takes colon ideals by
elimination and exact division, a second route through the package's
ideal bases, against which the syzygy-based colon ideals are checked.
``reference_global_check`` is the other: the global half of
``verify_result``'s check (b) the way it once ran, by an ``intersect``
fold of the component images and both inclusions up to radical.
``reference_determinant`` is plain Laplace expansion along the first
row, with no sharing of sub-minors and no reduction along the way.
``reference_eliminant`` reads the generator of I ∩ k[x_i] off an
elimination basis, not off normal forms in R/I.
``reference_squarefree_part`` runs Euclid's algorithm over the field on
dense coefficient lists, not pseudo-remainders on sparse polynomials.
"""
from fractions import Fraction
from itertools import product

from closurekit import (
    Ideal,
    Polynomial,
    PolyRing,
    divide_with_remainder,
    eliminate,
    intersect,
    radical_membership,
)


def degrevlex_cmp(m1, m2):
    """Textbook graded reverse lexicographic comparison."""
    d1, d2 = sum(m1), sum(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    for a, b in zip(reversed(m1), reversed(m2)):
        if a != b:
            # last nonzero entry of m1 - m2 negative means m1 > m2
            return 1 if a - b < 0 else -1
    return 0


def lex_cmp(m1, m2):
    if m1 == m2:
        return 0
    return -1 if m1 < m2 else 1


def monomials_up_to(nvars, degree):
    """All exponent vectors with total degree <= degree."""
    out = []
    for combo in product(range(degree + 1), repeat=nvars):
        if sum(combo) <= degree:
            out.append(combo)
    return out


def reexpands(p, divisors, quotients, remainder):
    """Does sum(q_i d_i) + r reproduce p exactly?"""
    total = remainder
    for q, d in zip(quotients, divisors):
        total = total + q * d
    return total == p


def substitute(p: Polynomial, target: PolyRing, images: dict) -> Polynomial:
    """Evaluate p with each variable replaced by its image polynomial."""
    result = target.zero
    for m, c in p.terms:
        term = target.from_scalar(c)
        for name, e in zip(p.ring.variables, m):
            if e:
                term = term * images[name] ** e
        result = result + term
    return result


def _leading(work, order):
    return max(work, key=order.key)


def _sorted_terms(d, order):
    """(monomial, coefficient) pairs of a coefficient dict, largest first."""
    return tuple(sorted(((m, c) for m, c in d.items() if c),
                        key=lambda t: order.key(t[0]), reverse=True))


def reference_divide(p, divisors, order=None):
    """Naive multivariate division, the textbook loop: take the leading
    term of what is left, subtract a multiple of the first divisor whose
    leading monomial divides it, else move it to the remainder.  Leading
    terms are taken under ``order`` (default: the ring's).  Returns the
    quotients and the remainder as term tuples in the ring's order, the
    shape of ``Polynomial.terms``."""
    order = order or p.ring.order
    ring_order = p.ring.order
    coerce, inverse, canon = _scalars(p.ring.field.characteristic)
    divs = []
    for d in divisors:
        dd = {m: coerce(c) for m, c in d.terms}
        lm = _leading(dd, order)
        divs.append((lm, dd[lm], dd))
    quotients = [{} for _ in divs]
    remainder = {}
    work = {m: coerce(c) for m, c in p.terms}
    while work:
        m = _leading(work, order)
        c = work[m]
        for i, (lm, lc, dd) in enumerate(divs):
            if all(a <= b for a, b in zip(lm, m)):
                q = tuple(a - b for a, b in zip(m, lm))
                coeff = canon(c * inverse(lc))
                quotients[i][q] = canon(quotients[i].get(q, 0) + coeff)
                for dm, dc in dd.items():
                    mm = tuple(a + b for a, b in zip(q, dm))
                    work[mm] = canon(work.get(mm, 0) - coeff * dc)
                    if not work[mm]:
                        del work[mm]
                break
        else:
            remainder[m] = canon(remainder.get(m, 0) + c)
            del work[m]
    return ([_sorted_terms(q, ring_order) for q in quotients],
            _sorted_terms(remainder, ring_order))


def reference_spoly(f, g):
    """lcm/LT(f) * f / LC(f) - lcm/LT(g) * g / LC(g), as term tuples."""
    order = f.ring.order
    coerce, inverse, canon = _scalars(f.ring.field.characteristic)
    fd = {m: coerce(c) for m, c in f.terms}
    gd = {m: coerce(c) for m, c in g.terms}
    fm, gm = _leading(fd, order), _leading(gd, order)
    lcm = tuple(max(a, b) for a, b in zip(fm, gm))
    out = {}
    for dd, lm, sign in ((fd, fm, 1), (gd, gm, -1)):
        scale = canon(inverse(dd[lm]) * sign)
        for m, c in dd.items():
            mm = tuple(a + b - e for a, b, e in zip(m, lcm, lm))
            out[mm] = canon(out.get(mm, 0) + c * scale)
    return _sorted_terms(out, order)


def _scalars(p):
    """(coerce, inverse, canonical) for exact scalars: Fractions when p is
    0, else plain ints reduced modulo the prime p."""
    if not p:
        return Fraction, lambda a: 1 / a, lambda a: a
    return lambda v: int(v) % p, lambda a: pow(a, -1, p), lambda a: a % p


def _row_reduce(m, ncols, p):
    """Reduced row echelon form of ``m`` in place over its first ``ncols``
    columns; returns the pivots as {column: row}."""
    _, inverse, canon = _scalars(p)
    nrows = len(m)
    pivots = {}
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = inverse(m[r][c])
        m[r] = [canon(v * inv) for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [canon(a - factor * b) for a, b in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    return pivots


def nullspace(rows, ncols, p=0):
    """Basis of the nullspace of the matrix over Fraction, or over GF(p)
    for a prime p."""
    coerce, _, canon = _scalars(p)
    m = [list(map(coerce, row)) for row in rows]
    pivots = _row_reduce(m, ncols, p)
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for c in free:
        vec = [coerce(0)] * ncols
        vec[c] = coerce(1)
        for pc, pr in pivots.items():
            vec[pc] = canon(-m[pr][c])
        basis.append(vec)
    return basis


def _poly_from_coeffs(ring, monomials, coeffs):
    total = ring.zero
    for m, c in zip(monomials, coeffs):
        if c:
            total = total + ring.term(m, c)
    return total


def brute_force_syzygies(gens, ambient_gens, degree):
    """All syzygy vectors with entries of total degree <= degree, found by
    a dense nullspace computation: sum(a_j g_j) + sum(b_k d_k) = 0.  The
    g_j may also be vectors of one length s; then the equation holds in
    every entry, with multipliers b_k of their own per entry."""
    vectors = [(g,) if isinstance(g, Polynomial) else tuple(g) for g in gens]
    width = len(vectors[0])
    ring = vectors[0][0].ring
    monos = monomials_up_to(ring.nvars, degree)
    carriers = vectors + [(d,) for d in ambient_gens]
    target_deg = degree + max(p.total_degree() for v in carriers for p in v)
    target_monos = monomials_up_to(ring.nvars, target_deg)
    index = {m: i for i, m in enumerate(target_monos)}
    nrows = width * len(target_monos)

    def column(slots, m):
        col = [Fraction(0)] * nrows
        for slot, g in slots:
            for mm, cc in g.mul_term(m, 1).terms:
                col[slot * len(target_monos) + index[mm]] += cc
        return col

    columns = [column([(slot, p) for slot, p in enumerate(v) if p], m)
               for v in vectors for m in monos]
    columns += [column([(slot, d)], m)
                for d in ambient_gens for slot in range(width) for m in monos]
    rows = [[columns[j][i] for j in range(len(columns))] for i in range(nrows)]
    out = []
    for vec in nullspace(rows, len(columns), ring.field.characteristic):
        parts = []
        for j in range(len(gens)):
            chunk = vec[j * len(monos):(j + 1) * len(monos)]
            parts.append(_poly_from_coeffs(ring, monos, chunk))
        if any(parts):
            out.append(tuple(parts))
    return out


def in_module_span(vector, generators, ambient_gens, degree):
    """Is ``vector`` a polynomial combination (coefficient degree <=
    ``degree``) of the generator vectors, modulo componentwise multiples
    of the ambient generators?  Decided by a dense linear solve."""
    return all_in_module_span([vector], generators, ambient_gens, degree)


def all_in_module_span(vectors, generators, ambient_gens, degree):
    """``in_module_span`` for every one of ``vectors``, decided by one
    elimination with a right-hand side per vector."""
    if not vectors:
        return True
    ring = vectors[0][0].ring
    width = len(vectors[0])
    monos = monomials_up_to(ring.nvars, degree)
    max_deg = 0
    for vec in list(vectors) + list(generators):
        max_deg = max(max_deg, max([p.total_degree() for p in vec if p] + [0]))
    for d in ambient_gens:
        max_deg = max(max_deg, d.total_degree())
    target_deg = degree + max_deg
    target_monos = monomials_up_to(ring.nvars, target_deg)
    index = {m: i for i, m in enumerate(target_monos)}
    nrows = width * len(target_monos)

    columns = []
    for gen in generators:
        for m in monos:
            col = [Fraction(0)] * nrows
            for slot in range(width):
                if gen[slot]:
                    shifted = gen[slot].mul_term(m, 1)
                    for mm, cc in shifted.terms:
                        col[slot * len(target_monos) + index[mm]] += cc
            columns.append(col)
    for d in ambient_gens:
        for slot in range(width):
            for m in monos:
                col = [Fraction(0)] * nrows
                shifted = d.mul_term(m, 1)
                for mm, cc in shifted.terms:
                    col[slot * len(target_monos) + index[mm]] += cc
                columns.append(col)
    ncols = len(columns)
    for vec in vectors:
        rhs = [Fraction(0)] * nrows
        for slot in range(width):
            for mm, cc in vec[slot].terms:
                rhs[slot * len(target_monos) + index[mm]] = cc
        columns.append(rhs)

    p = ring.field.characteristic
    coerce = _scalars(p)[0]
    m = [[coerce(col[i]) for col in columns] for i in range(nrows)]
    rank = len(_row_reduce(m, ncols, p))
    # consistent exactly when no zero row of the generator block carries a
    # nonzero right-hand side
    return not any(any(row[ncols:]) for row in m[rank:])


def reference_quotient(I, f):
    """(I : f) for nonzero f by the t-trick: I ∩ (f), with every
    generator divided exactly by f."""
    gens = []
    for g in intersect(I, Ideal(I.ring, [f])).generators:
        qs, r = divide_with_remainder(g, [f])
        if r:
            raise AssertionError("intersection member not divisible by f")
        gens.append(qs[0])
    return Ideal(I.ring, gens)


def reference_global_check(D0, images):
    """The failure message of check (b)'s global direction for the
    component images in the input ring, or None if it passes: the images
    are intersected, and the intersection and D0 must agree up to
    radical."""
    total = images[0]
    for other in images[1:]:
        total = intersect(total, other)
    for g in total.groebner_basis():
        if not radical_membership(g, D0):
            return "intersection of component images exceeds the input radical"
    for g in D0.generators:
        if not radical_membership(g, total):
            return "input radical exceeds the intersection of component images"
    return None


def reference_determinant(rows):
    """Exact determinant of a square matrix of polynomials, by Laplace
    expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0].ring.zero
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = entry * reference_determinant(minor)
        total = total - term if j % 2 else total + term
    return total


def reference_eliminant(I, i):
    """Monic generator of I ∩ k[x_i]: eliminate every other variable and
    take the eliminated ideal's own reduced basis, which is one
    univariate polynomial for a zero-dimensional I."""
    ring = I.ring
    others = set(ring.variables) - {ring.variables[i]}
    gens = [g for g in eliminate(I, others).groebner_basis() if g]
    if not gens:
        raise ValueError(f"no univariate eliminant in {ring.variables[i]}")
    return min(gens, key=lambda p: p.degree_in(i))


def _dense_divmod(a, b, p):
    """Quotient and remainder of dense coefficient lists (lowest degree
    first, no trailing zeros) over QQ or GF(p)."""
    _, inverse, canon = _scalars(p)
    a = list(a)
    q = [canon(0)] * max(len(a) - len(b) + 1, 0)
    inv = inverse(b[-1])
    while len(a) >= len(b):
        shift = len(a) - len(b)
        c = q[shift] = canon(a[-1] * inv)
        for k, bk in enumerate(b):
            a[shift + k] = canon(a[shift + k] - c * bk)
        while a and not a[-1]:
            a.pop()
    return q, a


def reference_squarefree_part(f, i):
    """Monic squarefree part of f, a polynomial in x_i alone over QQ or
    GF(p) with p > deg f: f / gcd(f, f') by Euclid's algorithm on dense
    coefficient lists, each remainder made monic."""
    ring = f.ring
    p = ring.field.characteristic
    coerce, inverse, canon = _scalars(p)
    dense = [coerce(0)] * (f.degree_in(i) + 1)
    for m, c in f.terms:
        if any(e for j, e in enumerate(m) if j != i):
            raise ValueError(f"not a polynomial in {ring.variables[i]} alone")
        dense[m[i]] = coerce(c)
    a, b = dense, [canon(k * c) for k, c in enumerate(dense)][1:]
    while b:
        a, b = b, _dense_divmod(a, b, p)[1]
        if b:
            inv = inverse(b[-1])
            b = [canon(c * inv) for c in b]
    part, r = _dense_divmod(dense, a, p)
    if r:
        raise AssertionError("gcd does not divide its argument")
    inv = inverse(part[-1])
    zero = (0,) * ring.nvars
    return ring.from_dict({zero[:i] + (k,) + zero[i + 1:]: c * inv
                           for k, c in enumerate(part) if c})
