"""Sparse multivariate polynomials, monomial orders, and division.

Monomials are plain exponent tuples; a polynomial is an immutable,
strictly descending term list under its ring's order.  The zero
polynomial is the empty term list.

Coefficients are stored raw, in the canonical form of the field's
``raw``: an ``int`` in [0, p) over GF(p); over QQ an ``int`` when
integral, else a ``Fraction`` (integral rationals are the common case,
and ``int`` arithmetic runs in C).  Arithmetic, division and the
Buchberger loop work on these values directly, and ``terms`` and ``LC``
hand out the stored values.  Sorting goes through each order's
``desc_key``, computed once per term.

Division reduces in place: the working polynomial is a dict from
monomial to raw coefficient plus a heap of its monomials keyed by
``desc_key``, so the largest pending term is always on top.  Subtracting
a multiple of a divisor touches only the dict entries it hits and
pushes only monomials that are new; quotient and remainder terms come
out in descending order and need no sort.

One loop, ``remainder``, has two entries.  ``divide_with_remainder`` is
the public one: it checks its divisors and collects the quotients
through the loop's quotient sink.  The engine calls ``remainder``
itself, on divisor lists it built (nonzero, in the dividend's ring), and
gets the remainder only.  Each divisor makes its division data,
(1/LC, tail terms), the first time it divides and keeps it in a derived
slot.  A held basis, the divisors of ``groebner.normal_form``, also
keeps a memo from each monomial met to the first divisor whose leading
monomial divides it, so the scan over the leading monomials runs once
per monomial, not once per term of every dividend.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from operator import add, itemgetter, le, neg, sub

from .errors import (
    LengthMismatch,
    RingMismatch,
    UnknownVariable,
    ZeroDivisorPolynomial,
)
from .fields import Field

Monomial = tuple  # exponent vector, one entry per ring variable


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(add, m1, m2))


def monomial_div(m1: Monomial, m2: Monomial):
    """Return m1/m2, or None when m2 does not divide m1."""
    if all(map(le, m2, m1)):
        return tuple(map(sub, m1, m2))
    return None


def monomial_divides(m1: Monomial, m2: Monomial) -> bool:
    return all(map(le, m1, m2))


def monomial_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(max, m1, m2))


def monomial_degree(m: Monomial) -> int:
    return sum(m)


class MonomialOrder:
    """Total well-order on monomials, compatible with multiplication.

    Subclasses supply two sort keys: ``key`` is ascending in the order,
    ``desc_key`` is ascending in the reverse order, so sorting by it
    lists monomials largest first and a min-heap on it pops the largest.
    """

    name = "?"

    def key(self, m: Monomial):
        raise NotImplementedError

    def desc_key(self, m: Monomial):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class Lex(MonomialOrder):
    name = "lex"

    def key(self, m: Monomial):
        return m

    def desc_key(self, m: Monomial):
        return tuple(map(neg, m))


class DegRevLex(MonomialOrder):
    name = "degrevlex"

    def key(self, m: Monomial):
        return (sum(m), tuple(-e for e in reversed(m)))

    def desc_key(self, m: Monomial):
        return (-sum(m), m[::-1])


def _picker(ix):
    """Function taking the exponents at indices ``ix`` out of a monomial,
    as a tuple; a slice when the indices are contiguous."""
    lo = ix[0] if ix else 0
    if ix == tuple(range(lo, lo + len(ix))):
        return itemgetter(slice(lo, lo + len(ix)))
    return itemgetter(*ix)  # not contiguous, so at least two indices


class Block(MonomialOrder):
    """Block order: compare by sub-order within successive variable blocks.

    ``blocks`` is a sequence of (variable index tuple, sub-order) pairs
    whose index sets partition the ring's variables.  Earlier blocks
    dominate, which is what elimination needs.
    """

    def __init__(self, *blocks):
        self.blocks = tuple((tuple(ix), sub) for ix, sub in blocks)
        self.name = "block(" + ";".join(
            f"{sub.name}[{','.join(map(str, ix))}]" for ix, sub in self.blocks
        ) + ")"
        picks = [_picker(ix) for ix, _ in self.blocks]
        self._keys = tuple(zip(picks, (sub.key for _, sub in self.blocks)))
        self._desc_keys = tuple(zip(picks, (sub.desc_key for _, sub in self.blocks)))

    def key(self, m: Monomial):
        return tuple([key(pick(m)) for pick, key in self._keys])

    def desc_key(self, m: Monomial):
        return tuple([key(pick(m)) for pick, key in self._desc_keys])

    def check_partition(self, nvars: int):
        covered = sorted(i for ix, _ in self.blocks for i in ix)
        if covered != list(range(nvars)):
            raise LengthMismatch("block order does not partition the variables")


LEX = Lex()
DEGREVLEX = DegRevLex()

LT, EQ, GT = -1, 0, 1  # compare_monomials return values (m1 vs m2)


def compare_monomials(order: MonomialOrder, m1: Monomial, m2: Monomial) -> int:
    """Return -1, 0, or 1 as m1 <, =, > m2 under ``order``."""
    if len(m1) != len(m2):
        raise LengthMismatch(f"exponent vectors of lengths {len(m1)} and {len(m2)}")
    if isinstance(order, Block):
        order.check_partition(len(m1))
    k1, k2 = order.key(m1), order.key(m2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


def elimination_order(nvars: int, drop_indices) -> Block:
    """Block order that puts the dropped variables in a lex block first."""
    drop = tuple(sorted(drop_indices))
    keep = tuple(i for i in range(nvars) if i not in set(drop))
    return Block((drop, LEX), (keep, DEGREVLEX))


class PolyRing:
    """A polynomial ring: field, ordered variable names, monomial order."""

    def __init__(self, field: Field, variables, order: MonomialOrder = DEGREVLEX):
        variables = tuple(variables)
        if len(set(variables)) != len(variables) or not all(variables):
            raise UnknownVariable("variable names must be unique and nonempty")
        if isinstance(order, Block):
            order.check_partition(len(variables))
        self.field = field
        self.variables = variables
        self.order = order
        self.nvars = len(variables)
        self._zero_monomial = (0,) * self.nvars

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, ((self._zero_monomial, 1),))

    def from_scalar(self, c) -> "Polynomial":
        return self.term(self._zero_monomial, c)

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((m, 1),))

    def gens(self):
        return [self.var(v) for v in self.variables]

    def term(self, monomial, coeff) -> "Polynomial":
        c = self.field.raw(coeff)
        if not c:
            return self.zero
        return Polynomial(self, ((tuple(monomial), c),))

    def from_dict(self, d) -> "Polynomial":
        """Polynomial from {monomial: coefficient}; zero terms are dropped."""
        raw = self.field.raw
        return self.from_raw({m: raw(c) for m, c in d.items()})

    def from_raw(self, d) -> "Polynomial":
        """Polynomial from {monomial: raw coefficient}.  Over GF(p) the
        coefficients may be any ints, and over QQ integral Fractions;
        both are made canonical here."""
        p = self.field.characteristic
        if p:
            d = {m: c % p for m, c in d.items()}
        else:
            d = {m: _rational(c) for m, c in d.items()}
        monos = [m for m, c in d.items() if c]
        monos.sort(key=self.order.desc_key)
        return Polynomial(self, [(m, d[m]) for m in monos])

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        if order == self.order:
            return self
        return PolyRing(self.field, self.variables, order)

    def extend(self, new_names) -> "PolyRing":
        """Ring with ``new_names`` appended; a block order gets one more
        degrevlex block for them, other orders cover them as they are."""
        order, n = self.order, self.nvars
        if isinstance(order, Block):
            order = Block(*order.blocks, (range(n, n + len(new_names)), DEGREVLEX))
        return PolyRing(self.field, self.variables + tuple(new_names), order)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.variables)}; {self.order.name}]"


def fresh_name(taken, stem: str = "_t") -> str:
    """``stem``, or ``stem`` with the smallest numeric suffix, not in ``taken``."""
    name = stem
    k = 0
    while name in taken:
        k += 1
        name = f"{stem}{k}"
    return name


def _rational(c):
    """Canonical raw rational: an integral Fraction becomes an int."""
    return c if c.__class__ is int or c.denominator != 1 else c.numerator


def _inverse(c, p: int):
    """Inverse of a nonzero raw coefficient (p = 0 for QQ)."""
    if c == 1:
        return c
    return pow(c, -1, p) if p else _rational(Fraction(1) / c)


class Polynomial:
    """Immutable sparse polynomial with strictly descending terms.

    ``raw`` holds the (monomial, raw coefficient) pairs; build instances
    through the ring (``from_dict``, ``term``, ``var``, ...) or arithmetic.
    ``_div`` is derived: (1/LC, tail terms), set the first time the
    polynomial divides; equality and hashing never read it.
    """

    __slots__ = ("ring", "raw", "_div")

    def __init__(self, ring: PolyRing, raw):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "raw", tuple(raw))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def _division_data(self):
        """(1/LC, tail terms) as raw values, made once per polynomial."""
        data = (_inverse(self.raw[0][1], self.ring.field.characteristic), self.raw[1:])
        object.__setattr__(self, "_div", data)
        return data

    # -- basic structure ------------------------------------------------

    @property
    def terms(self):
        """The stored (monomial, coefficient) pairs, largest first."""
        return self.raw

    def is_zero(self) -> bool:
        return not self.raw

    def __bool__(self):
        return bool(self.raw)

    def is_constant(self) -> bool:
        return not self.raw or self.raw[0][0] == self.ring._zero_monomial

    @property
    def LM(self) -> Monomial:
        return self.raw[0][0]

    @property
    def LC(self):
        return self.raw[0][1]

    def total_degree(self) -> int:
        if not self.raw:
            return -1
        return max(monomial_degree(m) for m, _ in self.raw)

    def degree_in(self, var_index: int) -> int:
        if not self.raw:
            return -1
        return max(m[var_index] for m, _ in self.raw)

    def coefficient_in(self, var_index: int, exponent: int) -> "Polynomial":
        """Coefficient of x_i^e, as a polynomial with x_i removed from its
        exponents (still living in the same ring)."""
        d = {}
        for m, c in self.raw:
            if m[var_index] == exponent:
                key = m[:var_index] + (0,) + m[var_index + 1:]
                d[key] = d.get(key, 0) + c
        return self.ring.from_raw(d)

    def variables_used(self):
        used = set()
        for m, _ in self.raw:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    # -- arithmetic -----------------------------------------------------

    def _check(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.raw)
        get = d.get
        for m, c in other.raw:
            d[m] = get(m, 0) + c
        return self.ring.from_raw(d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.raw)
        get = d.get
        for m, c in other.raw:
            d[m] = get(m, 0) - c
        return self.ring.from_raw(d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        p = self.ring.field.characteristic
        if p:
            return Polynomial(self.ring, [(m, p - c) for m, c in self.raw])
        return Polynomial(self.ring, [(m, -c) for m, c in self.raw])

    def _scale(self, c) -> "Polynomial":
        """Multiply by a nonzero raw scalar."""
        if c == 1:
            return self
        p = self.ring.field.characteristic
        if p:
            return Polynomial(self.ring, [(m, k * c % p) for m, k in self.raw])
        return Polynomial(self.ring, [(m, _rational(k * c)) for m, k in self.raw])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.raw(other)
            return self._scale(c) if c else self.ring.zero
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        d = {}
        get = d.get
        for m1, c1 in self.raw:
            for m2, c2 in other.raw:
                m = tuple(map(add, m1, m2))
                d[m] = get(m, 0) + c1 * c2
        return self.ring.from_raw(d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def _shift(self, monomial, c) -> "Polynomial":
        """Multiply by the term c*monomial, c a nonzero raw scalar; the
        order is compatible with multiplication, so no sort is needed."""
        p = self.ring.field.characteristic
        if p:
            terms = [(tuple(map(add, m, monomial)), k * c % p) for m, k in self.raw]
        else:
            terms = [(tuple(map(add, m, monomial)), _rational(k * c))
                     for m, k in self.raw]
        return Polynomial(self.ring, terms)

    def mul_term(self, monomial, coeff) -> "Polynomial":
        c = self.ring.field.raw(coeff)
        if not c:
            return self.ring.zero
        return self._shift(tuple(monomial), c)

    def monic(self) -> "Polynomial":
        if not self.raw:
            return self
        return self._scale(_inverse(self.raw[0][1], self.ring.field.characteristic))

    def derivative(self, var_index: int) -> "Polynomial":
        d = {}
        for m, c in self.raw:
            e = m[var_index]
            if e:
                key = m[:var_index] + (e - 1,) + m[var_index + 1:]
                d[key] = d.get(key, 0) + c * e
        return self.ring.from_raw(d)

    # -- migration between rings ----------------------------------------

    def map_to(self, target: PolyRing) -> "Polynomial":
        """Move into ``target``, matching variables by name.  Variables not
        present in the target must be unused."""
        if target == self.ring:
            return self
        if target.field != self.ring.field:
            raise RingMismatch("cannot migrate between different fields")
        positions = []
        for i, name in enumerate(self.ring.variables):
            positions.append(target.variables.index(name)
                             if name in target.variables else None)
        d = {}
        for m, c in self.raw:
            key = [0] * target.nvars
            for i, e in enumerate(m):
                if not e:
                    continue
                if positions[i] is None:
                    raise UnknownVariable(
                        f"variable {self.ring.variables[i]!r} not in target ring")
                key[positions[i]] = e
            d[tuple(key)] = c  # distinct monomials have distinct images
        return target.from_raw(d)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.raw == self.raw
        )

    def __hash__(self):
        return hash((self.ring, self.raw))

    # -- printing ---------------------------------------------------------

    def _monomial_str(self, m: Monomial) -> str:
        parts = []
        for name, e in zip(self.ring.variables, m):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.raw:
            return "0"
        rational = self.ring.field.characteristic == 0
        pieces = []
        for i, (m, c) in enumerate(self.raw):
            mono = self._monomial_str(m)
            neg = rational and c < 0
            mag = -c if neg else c
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def input_form(self) -> str:
        """Canonical text accepted back by the input grammar: integer
        coefficients, positive leading coefficient, content removed."""
        return str(self.input_normalized())

    def input_normalized(self) -> "Polynomial":
        if not self.raw or self.ring.field.characteristic:
            return self
        den_lcm = 1
        for _, c in self.raw:
            q = c.denominator
            den_lcm = den_lcm * q // gcd(den_lcm, q)
        nums = [c.numerator * (den_lcm // c.denominator) for _, c in self.raw]
        g = 0
        for n in nums:
            g = gcd(g, abs(n))
        if nums[0] < 0:
            nums = [-n for n in nums]
        return Polynomial(self.ring, [(m, n // g)
                                      for (m, _), n in zip(self.raw, nums)])

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"


def poly_op(kind: str, p: Polynomial, q: Polynomial) -> Polynomial:
    """Dispatch add/sub/mul; thin wrapper over the operators."""
    if kind == "add":
        return p + q
    if kind == "sub":
        return p - q
    if kind == "mul":
        return p * q
    raise ValueError(f"unknown op {kind!r}")


def divide_with_remainder(p: Polynomial, divisors, order: MonomialOrder | None = None):
    """Multivariate division: p = sum(q_i d_i) + r with no remainder term
    divisible by any divisor's leading term.  Divisors are tried in list
    order, which makes the result deterministic."""
    divisors = list(divisors)
    ring = p.ring
    for d in divisors:
        if d.ring != ring:
            raise RingMismatch("divisor from a different ring")
        if not d.raw:
            raise ZeroDivisorPolynomial("zero polynomial in divisor list")
    if order is not None and order != ring.order:
        work_ring = ring.with_order(order)
        qs, r = divide_with_remainder(p.map_to(work_ring),
                                      [d.map_to(work_ring) for d in divisors])
        return [q.map_to(ring) for q in qs], r.map_to(ring)
    quotients = [[] for _ in divisors]
    r = remainder(p, divisors, [d.raw[0][0] for d in divisors], quotients=quotients)
    zero = ring.zero  # shared by the divisors that were never used
    return [Polynomial(ring, q) if q else zero for q in quotients], r


def remainder(p: Polynomial, divisors, leads, memo=None, quotients=None) -> Polynomial:
    """The division loop: the remainder of p by ``divisors``, which must be
    nonzero and in p's ring, with ``leads`` their leading monomials.  The
    engine calls it directly, on divisor lists it built itself.

    ``quotients``, when given, is a list of one list per divisor that
    collects the quotient terms.  ``memo``, when given, belongs to this
    divisor list: it maps each monomial met to the index of the first
    divisor whose leading monomial divides it, or -1."""
    ring = p.ring
    char = ring.field.characteristic
    key = ring.order.desc_key
    rem = []
    work = dict(p.raw)
    # p's terms are descending, so their keys are ascending: a valid heap
    heap = [(key(m), m) for m in work]
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue  # cancelled after it was pushed
        i = None if memo is None else memo.get(m)
        if i is None:
            for i, lm in enumerate(leads):
                if all(map(le, lm, m)):
                    break
            else:
                i = -1
            if memo is not None:
                memo[m] = i
        if i < 0:
            rem.append((m, c))
            continue
        d = divisors[i]
        try:
            inv, tail = d._div
        except AttributeError:
            inv, tail = d._division_data()
        if inv != 1:
            c = c * inv % char if char else _rational(c * inv)
        q = tuple(map(sub, m, leads[i]))
        if quotients is not None:
            quotients[i].append((q, c))
        for tm, tc in tail:
            mm = tuple(map(add, q, tm))
            old = work.get(mm)
            v = -c * tc if old is None else old - c * tc
            work[mm] = v % char if char else _rational(v)
            if old is None:
                heappush(heap, (key(mm), mm))
    return Polynomial(ring, rem)
