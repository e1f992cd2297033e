"""Seeded input generators for the closure-kit benchmark.

Every input is an expanded polynomial system in the CLI grammar (the
grammar has no parentheses), built here with a small dense-dict
polynomial type so that nothing goes through closurekit.  Each input
also carries a polynomial parametrization of every one of its branches;
the oracle samples those to check the emitted normalization.

Inputs come in rounds: one round holds one input per family of the
workload, in a fixed order, so every round has the same cost mix.  The
seed picks the translations and slopes, drawn so that no input text
repeats within a stream.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

PRIME = 32003


# -- polynomials: {exponent tuple: int coefficient}, reduced mod p if p ----

def const(n, c):
    return {(0,) * n: c} if c else {}


def var(n, i):
    e = [0] * n
    e[i] = 1
    return {tuple(e): 1}


def add(*polys):
    out = {}
    for f in polys:
        for m, c in f.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def neg(f):
    return {m: -c for m, c in f.items()}


def sub(f, g):
    return add(f, neg(g))


def mul(*polys):
    out = polys[0]
    for g in polys[1:]:
        acc = {}
        for m1, c1 in out.items():
            for m2, c2 in g.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                acc[m] = acc.get(m, 0) + c1 * c2
        out = {m: c for m, c in acc.items() if c}
    return out


def power(f, e, n):
    out = const(n, 1)
    for _ in range(e):
        out = mul(out, f)
    return out


def reduce_mod(f, p):
    if not p:
        return f
    out = {}
    for m, c in f.items():
        c %= p
        if c > p // 2:
            c -= p
        if c:
            out[m] = c
    return out


def render(f, names, p=0):
    """Expanded text with integer coefficients, highest degree first."""
    f = reduce_mod(f, p)
    if not f:
        return "0"
    pieces = []
    for m in sorted(f, key=lambda m: (-sum(m), [-e for e in m])):
        c = f[m]
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(names, m) if e)
        mag = abs(c)
        body = mono if mono and mag == 1 else (f"{mag}*{mono}" if mono else str(mag))
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


# -- cases -----------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """One benchmark input: the CLI text plus, for every branch, a tuple
    of coordinate polynomials in ``nparams`` parameters."""

    case_id: str
    family: str
    text: str
    p: int              # 0 for QQ
    names: tuple
    branches: tuple     # tuple of (nparams, (coordinate poly, ...))


def _document(names, gens, p):
    field = f"GF({p})" if p else "QQ"
    body = ", ".join(render(g, names, p) for g in gens)
    return f"ring {field}[{','.join(names)}];\nideal ({body});\n"


def _translate(coords, shift):
    """Shift a branch: coordinate i gains the constant shift[i]."""
    nparams, polys = coords
    return nparams, tuple(add(c, const(nparams, s)) for c, s in zip(polys, shift))


def _shifted_vars(n, shift):
    """x_i - shift_i, so that the variety moves by +shift."""
    return [sub(var(n, i), const(n, s)) for i, s in enumerate(shift)]


def _monomial(xs, exps, n):
    out = const(n, 1)
    for x, e in zip(xs, exps):
        out = mul(out, power(x, e, n))
    return out


# A family builder takes the stream's rng and returns (generators, branches)
# at the origin; the stream then applies a seeded translation.

def _plane_curve(a, b):
    # y^a = x^b with gcd(a, b) = 1: x = t^a, y = t^b
    def build(rng):
        t = var(1, 0)
        return ([sub(power(var(2, 1), a, 2), power(var(2, 0), b, 2))],
                [(1, (power(t, a, 1), power(t, b, 1)))])
    return build


def _line(n, s):
    # y = s x
    return sub(var(n, 1), mul(const(n, s), var(n, 0)))


def _lines(k):
    # k lines through the origin with distinct seeded slopes s: (t, s t)
    def build(rng):
        slopes = rng.sample(range(-3, 4), k)
        t = var(1, 0)
        return ([mul(*[_line(2, s) for s in slopes])],
                [(1, (t, mul(const(1, s), t))) for s in slopes])
    return build


def _cusp_line(rng):
    t = var(1, 0)
    s = rng.randint(-3, 3)
    cusp = sub(power(var(2, 1), 2, 2), power(var(2, 0), 3, 2))
    return [mul(cusp, _line(2, s))], [(1, (power(t, 2, 1), power(t, 3, 1))),
                                      (1, (t, mul(const(1, s), t)))]


def _parabola_line(rng):
    # y = x^2 and y = s x meet twice: (t, t^2) and (t, s t), s != 0
    t = var(1, 0)
    s = rng.choice((-3, -2, -1, 1, 2, 3))
    parabola = sub(var(2, 1), power(var(2, 0), 2, 2))
    return [mul(parabola, _line(2, s))], [(1, (t, power(t, 2, 1))),
                                          (1, (t, mul(const(1, s), t)))]


def _two_cusps(rng):
    # y^2 = x^3 and x^2 = k^2 y^3, k seeded
    t = var(1, 0)
    k = rng.randint(2, 5)
    x, y = var(2, 0), var(2, 1)
    first = sub(power(y, 2, 2), power(x, 3, 2))
    second = sub(power(x, 2, 2), mul(const(2, k * k), power(y, 3, 2)))
    return [mul(first, second)], [(1, (power(t, 2, 1), power(t, 3, 1))),
                                  (1, (mul(const(1, k), power(t, 3, 1)), power(t, 2, 1)))]


def _coordinate_planes(rng):
    # xyz = 0: the three coordinate planes
    s, t = var(2, 0), var(2, 1)
    z = const(2, 0)
    return ([mul(var(3, 0), var(3, 1), var(3, 2))],
            [(2, (z, s, t)), (2, (s, z, t)), (2, (s, t, z))])


def _coordinate_axes(rng):
    # (xy, xz, yz): the three coordinate axes
    t = var(1, 0)
    z = const(1, 0)
    x, y, w = var(3, 0), var(3, 1), var(3, 2)
    return ([mul(x, y), mul(x, w), mul(y, w)],
            [(1, (t, z, z)), (1, (z, t, z)), (1, (z, z, t))])


def _herzog(a1, a2, b1, b2, c1, c2):
    # 2x2 minors of [[x^a1, y^b1, z^c1], [y^b2, z^c2, x^a2]]: the monomial
    # curve (t^n1, t^n2, t^n3) with the semigroup generators below
    n1 = b1 * c1 + b1 * c2 + b2 * c2
    n2 = a1 * c1 + a1 * c2 + a2 * c1
    n3 = a1 * b1 + a2 * b1 + a2 * b2
    g = gcd(gcd(n1, n2), n3)
    n1, n2, n3 = n1 // g, n2 // g, n3 // g

    def build(rng):
        x, y, z = var(3, 0), var(3, 1), var(3, 2)
        row1 = [power(x, a1, 3), power(y, b1, 3), power(z, c1, 3)]
        row2 = [power(y, b2, 3), power(z, c2, 3), power(x, a2, 3)]
        gens = [sub(mul(row1[i], row2[j]), mul(row1[j], row2[i]))
                for i, j in ((0, 1), (0, 2), (1, 2))]
        t = var(1, 0)
        return gens, [(1, (power(t, n1, 1), power(t, n2, 1), power(t, n3, 1)))]
    return build


def _umbrella(a, b):
    # x^2 = y^a z^b: y = u^2, z = v^2, x = u^a v^b
    def build(rng):
        x, y, z = var(3, 0), var(3, 1), var(3, 2)
        u, v = var(2, 0), var(2, 1)
        return ([sub(power(x, 2, 3), mul(power(y, a, 3), power(z, b, 3)))],
                [(2, (mul(power(u, a, 2), power(v, b, 2)), power(u, 2, 2), power(v, 2, 2)))])
    return build


def _cusp_cylinder(a, b):
    # y^a = x^b in 3-space, z free
    def build(rng):
        x, y = var(3, 0), var(3, 1)
        s, t = var(2, 0), var(2, 1)
        return ([sub(power(y, a, 3), power(x, b, 3))],
                [(2, (power(s, a, 2), power(s, b, 2), t))])
    return build


def _a_n(n):
    # xy = z^(n+1): x = u^(n+1), y = v^(n+1), z = uv
    def build(rng):
        x, y, z = var(3, 0), var(3, 1), var(3, 2)
        u, v = var(2, 0), var(2, 1)
        return ([sub(mul(x, y), power(z, n + 1, 3))],
                [(2, (power(u, n + 1, 2), power(v, n + 1, 2), mul(u, v)))])
    return build


def _d4(rng):
    # x^2 + y^3 + z^3: w = 1 + m^3, y = -w s^2, z = m y, x = w^2 s^3
    x, y, z = var(3, 0), var(3, 1), var(3, 2)
    m, s = var(2, 0), var(2, 1)
    w = add(const(2, 1), power(m, 3, 2))
    yy = neg(mul(w, power(s, 2, 2)))
    return ([add(power(x, 2, 3), power(y, 3, 3), power(z, 3, 3))],
            [(2, (mul(power(w, 2, 2), power(s, 3, 2)), yy, mul(m, yy)))])


def _e6(rng):
    # x^2 + y^3 + z^4: w = r^2 + 1, z = w^2 u^3, y = -w^3 u^4, x = r w^4 u^6
    x, y, z = var(3, 0), var(3, 1), var(3, 2)
    r, u = var(2, 0), var(2, 1)
    w = add(power(r, 2, 2), const(2, 1))
    return ([add(power(x, 2, 3), power(y, 3, 3), power(z, 4, 3))],
            [(2, (mul(r, power(w, 4, 2), power(u, 6, 2)),
                  neg(mul(power(w, 3, 2), power(u, 4, 2))),
                  mul(power(w, 2, 2), power(u, 3, 2))))])


@dataclass(frozen=True)
class Workload:
    p: int                  # field characteristic, 0 for QQ
    rounds: int             # rounds in a run: about 30 s on the reference machine
    families: tuple         # ordered (label, builder) pairs


WORKLOADS = {
    "curve-tower": Workload(0, 4, (
        ("y3x4", _plane_curve(3, 4)),
        ("y2x7", _plane_curve(2, 7)),
        # the middle families are drawn twice, so that the median and the
        # tail input sit well inside one cost band of many samples
        ("y2x5", _plane_curve(2, 5)),
        ("y5x2", _plane_curve(5, 2)),
        ("y2x5", _plane_curve(2, 5)),
        ("y5x2", _plane_curve(5, 2)),
        ("y2x3", _plane_curve(2, 3)),
    )),
    "split-mix": Workload(0, 16, (
        ("lines3", _lines(3)),
        ("lines4", _lines(4)),
        ("lines5", _lines(5)),
        ("cusp-line", _cusp_line),
        ("parabola-line", _parabola_line),
        ("two-cusps", _two_cusps),
        ("planes", _coordinate_planes),
        # drawn twice, so that the median input sits inside one cost band
        # for latency, normalize and verify time alike
        ("axes", _coordinate_axes),
        ("axes", _coordinate_axes),
    )),
    "prime-space": Workload(PRIME, 8, (
        ("t345", _herzog(1, 2, 1, 1, 1, 1)),
        ("umbrella12", _umbrella(1, 2)),
        ("umbrella13", _umbrella(1, 3)),
        ("cusp-cyl", _cusp_cylinder(2, 3)),
        ("A2", _a_n(2)),
        # D4 and E6 are drawn twice, so that the median input sits inside
        # their joint cost band rather than where A2 and D4 overlap
        ("D4", _d4),
        ("E6", _e6),
        ("D4", _d4),
        ("E6", _e6),
    )),
}

_NAMES = {2: ("x", "y"), 3: ("x", "y", "z")}
# every coordinate moves: a zero shift leaves sparse inputs that cost far
# less than moved ones, which would make the cost of a round seed-dependent
_SHIFTS = (-3, -2, -1, 1, 2, 3)
_MAX_DRAWS = 1000


def batch_size(workload):
    """Inputs in a run: a fixed number of whole rounds, independent of how
    fast the program is."""
    w = WORKLOADS[workload]
    return len(w.families) * w.rounds


def _make_case(case_id, label, gens, branches, shift, p):
    n = len(shift)
    moved = [_substitute(g, _shifted_vars(n, shift), n) for g in gens]
    names = _NAMES[n]
    return Case(case_id, label, _document(names, moved, p), p, names,
                tuple(_translate(b, shift) for b in branches))


def stream(workload, seed):
    """Endless stream of distinct cases, one family after another."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    index = 0
    while True:
        for label, build in w.families:
            for _ in range(_MAX_DRAWS):
                gens, branches = build(rng)
                n = len(next(iter(gens[0])))
                shift = [rng.choice(_SHIFTS) for _ in range(n)]
                case = _make_case(f"{workload}/{seed}/{index}", label, gens,
                                  branches, shift, w.p)
                if case.text not in seen:
                    break
            else:
                raise RuntimeError(f"{workload}: family {label} ran out of distinct inputs")
            seen.add(case.text)
            yield case
            index += 1


def _substitute(f, images, n):
    out = {}
    for m, c in f.items():
        out = add(out, mul(const(n, c), _monomial(images, m, n)))
    return out
