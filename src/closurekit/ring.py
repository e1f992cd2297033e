"""Sparse multivariate polynomials, monomial orders, and division.

Monomials are plain exponent tuples; a polynomial is an immutable,
strictly descending term list under its ring's order.  The zero
polynomial is the empty term list.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    LengthMismatch,
    RingMismatch,
    UnknownVariable,
    ZeroDivisorPolynomial,
)
from .fields import Field, FieldElement

Monomial = tuple  # exponent vector, one entry per ring variable


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(m1, m2))


def monomial_div(m1: Monomial, m2: Monomial):
    """Return m1/m2, or None when m2 does not divide m1."""
    out = []
    for a, b in zip(m1, m2):
        if a < b:
            return None
        out.append(a - b)
    return tuple(out)


def monomial_divides(m1: Monomial, m2: Monomial) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def monomial_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m1, m2))


def monomial_degree(m: Monomial) -> int:
    return sum(m)


class MonomialOrder:
    """Total well-order on monomials, compatible with multiplication.

    Subclasses supply ``key``: a sort key that is ascending in the order.
    """

    name = "?"

    def key(self, m: Monomial):
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


class DegRevLex(MonomialOrder):
    name = "degrevlex"

    def key(self, m: Monomial):
        return (sum(m), tuple(-e for e in reversed(m)))


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

    def key(self, m: Monomial):
        return tuple(sub.key(tuple(m[i] for i in ix)) for ix, sub in self.blocks)


LEX = Lex()
DEGREVLEX = DegRevLex()

LT, EQ, GT = -1, 0, 1  # compare_monomials return values (m1 vs m2)


def compare_monomials(order: MonomialOrder, m1: Monomial, m2: Monomial) -> int:
    """Return -1, 0, or 1 as m1 <, =, > m2 under ``order``."""
    if len(m1) != len(m2):
        raise LengthMismatch(f"exponent vectors of lengths {len(m1)} and {len(m2)}")
    if isinstance(order, Block):
        covered = sorted(i for ix, _ in order.blocks for i in ix)
        if covered != list(range(len(m1))):
            raise LengthMismatch("block order does not partition the variables")
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
        return self.from_scalar(self.field.one)

    def from_scalar(self, c) -> "Polynomial":
        c = self.field.element(c)
        if c.is_zero():
            return self.zero
        return Polynomial(self, ((self._zero_monomial, c),))

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((m, self.field.one),))

    def gens(self):
        return [self.var(v) for v in self.variables]

    def term(self, monomial, coeff) -> "Polynomial":
        coeff = self.field.element(coeff)
        if coeff.is_zero():
            return self.zero
        return Polynomial(self, ((tuple(monomial), coeff),))

    def from_dict(self, d) -> "Polynomial":
        terms = [(m, c) for m, c in d.items() if not c.is_zero()]
        terms.sort(key=lambda t: self.order.key(t[0]), reverse=True)
        return Polynomial(self, tuple(terms))

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        if order == self.order:
            return self
        return PolyRing(self.field, self.variables, order)

    def extend(self, new_names, order: MonomialOrder | None = None) -> "PolyRing":
        return PolyRing(self.field, self.variables + tuple(new_names),
                        order or self.order)

    def __eq__(self, other):
        return (
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


class Polynomial:
    """Immutable sparse polynomial with strictly descending terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or self.terms[0][0] == self.ring._zero_monomial

    def constant_value(self) -> FieldElement:
        if not self.terms:
            return self.ring.field.zero
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[0][1]

    @property
    def LM(self) -> Monomial:
        return self.terms[0][0]

    @property
    def LC(self) -> FieldElement:
        return self.terms[0][1]

    @property
    def LT(self):
        return self.terms[0]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m, _ in self.terms)

    def degree_in(self, var_index: int) -> int:
        if not self.terms:
            return -1
        return max(m[var_index] for m, _ in self.terms)

    def coefficient_in(self, var_index: int, exponent: int) -> "Polynomial":
        """Coefficient of x_i^e, as a polynomial with x_i removed from its
        exponents (still living in the same ring)."""
        d = {}
        for m, c in self.terms:
            if m[var_index] == exponent:
                key = tuple(0 if j == var_index else e for j, e in enumerate(m))
                d[key] = d.get(key, self.ring.field.zero) + c
        return self.ring.from_dict(d)

    def variables_used(self):
        used = set()
        for m, _ in self.terms:
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
        if isinstance(other, (int, FieldElement, Fraction)):
            return self.ring.from_scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        zero = self.ring.field.zero
        for m, c in other.terms:
            d[m] = d.get(m, zero) + c
        return self.ring.from_dict(d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        zero = self.ring.field.zero
        for m, c in other.terms:
            d[m] = d.get(m, zero) - c
        return self.ring.from_dict(d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Polynomial(self.ring, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement, Fraction)):
            c = self.ring.field.element(other)
            if c.is_zero():
                return self.ring.zero
            return Polynomial(self.ring, tuple((m, k * c) for m, k in self.terms))
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        d = {}
        zero = self.ring.field.zero
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = monomial_mul(m1, m2)
                d[m] = d.get(m, zero) + c1 * c2
        return self.ring.from_dict(d)

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

    def mul_term(self, monomial, coeff) -> "Polynomial":
        coeff = self.ring.field.element(coeff)
        if coeff.is_zero():
            return self.ring.zero
        terms = tuple((monomial_mul(m, tuple(monomial)), c * coeff)
                      for m, c in self.terms)
        return Polynomial(self.ring, terms)

    def monic(self) -> "Polynomial":
        if not self.terms or self.LC.is_one():
            return self
        inv = self.LC.inverse()
        return Polynomial(self.ring, tuple((m, c * inv) for m, c in self.terms))

    def derivative(self, var_index: int) -> "Polynomial":
        d = {}
        zero = self.ring.field.zero
        for m, c in self.terms:
            e = m[var_index]
            if e:
                key = tuple(v - 1 if j == var_index else v for j, v in enumerate(m))
                d[key] = d.get(key, zero) + c * e
        return self.ring.from_dict(d)

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
        for m, c in self.terms:
            key = [0] * target.nvars
            for i, e in enumerate(m):
                if not e:
                    continue
                if positions[i] is None:
                    raise UnknownVariable(
                        f"variable {self.ring.variables[i]!r} not in target ring")
                key[positions[i]] = e
            key = tuple(key)
            d[key] = d.get(key, target.field.zero) + c
        return target.from_dict(d)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

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
        if not self.terms:
            return "0"
        pieces = []
        for i, (m, c) in enumerate(self.terms):
            mono = self._monomial_str(m)
            neg = self.ring.field.characteristic == 0 and c.value < 0
            mag = -c if neg else c
            if mono and mag.is_one():
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
        if not self.terms or self.ring.field.characteristic:
            return self
        den_lcm = 1
        for _, c in self.terms:
            q = c.value.denominator
            den_lcm = den_lcm * q // gcd(den_lcm, q)
        nums = [c.value.numerator * (den_lcm // c.value.denominator)
                for _, c in self.terms]
        g = 0
        for n in nums:
            g = gcd(g, abs(n))
        if nums[0] < 0:
            nums = [-n for n in nums]
        field = self.ring.field
        return Polynomial(self.ring, tuple(
            (m, field.element(Fraction(n // g)))
            for (m, _), n in zip(self.terms, nums)))

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
    for d in divisors:
        if d.ring != p.ring:
            raise RingMismatch("divisor from a different ring")
        if d.is_zero():
            raise ZeroDivisorPolynomial("zero polynomial in divisor list")
    if order is not None and order != p.ring.order:
        ring = p.ring.with_order(order)
        qs, r = divide_with_remainder(p.map_to(ring), [d.map_to(ring) for d in divisors])
        back = p.ring
        return [q.map_to(back) for q in qs], r.map_to(back)

    ring = p.ring
    quotients = [ring.zero] * len(divisors)
    remainder = {}
    work = p
    zero = ring.field.zero
    lead = [(d.LM, d.LC) for d in divisors]
    while work.terms:
        m, c = work.terms[0]
        for i, (dm, dc) in enumerate(lead):
            q = monomial_div(m, dm)
            if q is not None:
                coeff = c / dc
                quotients[i] = quotients[i] + ring.term(q, coeff)
                work = work - divisors[i].mul_term(q, coeff)
                break
        else:
            remainder[m] = remainder.get(m, zero) + c
            work = Polynomial(ring, work.terms[1:])
    return quotients, ring.from_dict(remainder)
