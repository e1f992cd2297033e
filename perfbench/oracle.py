"""Independent branch-point oracle for emitted normalizations.

The oracle reads only the emitted JSON strings and the parametrizations
that the workload generator attached to each input; it never imports
closurekit.  Arithmetic is exact: ``Fraction`` over QQ, integers mod p
over GF(p).

For every branch it samples parameter values and computes the branch
point in the input coordinates.  On each output component it then
evaluates the adjoined fractions ``numerator/denominator`` level by
level (skipping the component where a denominator vanishes) and checks
every relation.  A result passes when every evaluated branch point
satisfies all relations of at least one component, every branch has
evaluated points, and every component is hit by some point.
"""
from __future__ import annotations

import random
import re
from fractions import Fraction

SAMPLES_PER_BRANCH = 4
MAX_DRAWS = 40

_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


class Arith:
    """Exact field arithmetic on plain Python numbers."""

    def __init__(self, p: int):
        self.p = p

    def num(self, n: int):
        return n % self.p if self.p else Fraction(n)

    def mul(self, a, b):
        return a * b % self.p if self.p else a * b

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p if self.p else a / b

    def power(self, a, e):
        return pow(a, e, self.p) if self.p else a ** e


def parse_terms(text: str):
    """Emitted polynomial text -> [(coefficient, [(name, exponent)])]."""
    if text.strip() == "0":
        return []
    terms = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match:
            raise ValueError(f"unreadable polynomial {text!r}")
        sign, body = match.group(1), match.group(2).strip()
        pos = match.end()
        coeff = -1 if sign == "-" else 1
        factors = []
        for factor in body.split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, exp = factor.partition("^")
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
                factors.append((name, int(exp) if exp else 1))
        terms.append((coeff, factors))
    return terms


def evaluate(terms, point: dict, ar: Arith):
    total = ar.num(0)
    for coeff, factors in terms:
        value = ar.num(coeff)
        for name, e in factors:
            value = ar.mul(value, ar.power(point[name], e))
        total = ar.add(total, value)
    return total


def eval_param_poly(poly: dict, params, ar: Arith):
    total = ar.num(0)
    for exps, coeff in poly.items():
        value = ar.num(coeff)
        for t, e in zip(params, exps):
            value = ar.mul(value, ar.power(t, e))
        total = ar.add(total, value)
    return total


class _Component:
    def __init__(self, comp: dict):
        self.variables = comp["variables"]
        self.relations = [parse_terms(r) for r in comp["relations"]]
        self.adjoined = [(a["name"], a["level"], parse_terms(a["numerator"]),
                          parse_terms(a["denominator"]))
                         for a in sorted(comp["adjoined"], key=lambda a: a["level"])]

    def lift(self, point: dict, ar: Arith):
        """Extend an input-coordinate point through the tower, or None
        where some denominator vanishes."""
        full = dict(point)
        for name, _, num, den in self.adjoined:
            d = evaluate(den, full, ar)
            if d == 0:
                return None
            full[name] = ar.div(evaluate(num, full, ar), d)
        return full

    def satisfied(self, full: dict, ar: Arith) -> bool:
        return all(evaluate(r, full, ar) == 0 for r in self.relations)


def _sample_param(rng: random.Random, ar: Arith):
    if ar.p:
        return rng.randrange(1, ar.p)
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))


def check(case, document: dict, seed: int = 0):
    """Return a list of problems; empty means the output passes."""
    ar = Arith(case.p)
    problems = []
    if document.get("schema") != "closure-kit/1":
        problems.append("wrong schema")
    comps = [_Component(c) for c in document.get("components", [])]
    if not comps:
        return problems + ["no components"]
    for i, comp in enumerate(comps):
        if tuple(comp.variables[:len(case.names)]) != tuple(case.names):
            problems.append(f"component {i}: input variables not leading")
    if problems:
        return problems
    rng = random.Random(f"{case.case_id}:{seed}")
    hit = [False] * len(comps)
    for b, (nparams, coords) in enumerate(case.branches):
        evaluated = 0
        for _ in range(MAX_DRAWS):
            if evaluated >= SAMPLES_PER_BRANCH:
                break
            params = [_sample_param(rng, ar) for _ in range(nparams)]
            point = {name: eval_param_poly(c, params, ar)
                     for name, c in zip(case.names, coords)}
            lifted = [comp.lift(point, ar) for comp in comps]
            good = [i for i, full in enumerate(lifted)
                    if full is not None and comps[i].satisfied(full, ar)]
            if not good and any(full is None for full in lifted):
                continue    # the point may sit on a component it cannot lift to
            evaluated += 1
            if not good:
                problems.append(f"branch {b}: point {point} lies on no component")
            for i in good:
                hit[i] = True
        if evaluated == 0:
            problems.append(f"branch {b}: every sampled point hit a vanishing denominator")
    for i, h in enumerate(hit):
        if not h:
            problems.append(f"component {i}: hit by no branch point")
    return problems


def corrupted(document: dict) -> dict:
    """Copy of the document with 1 added to one relation of the component
    with the most relations."""
    comps = [dict(c) for c in document["components"]]
    target = max(range(len(comps)), key=lambda i: len(comps[i]["relations"]))
    relations = list(comps[target]["relations"]) or ["0"]
    relations[0] = relations[0] + " + 1"
    comps[target]["relations"] = relations
    out = dict(document)
    out["components"] = comps
    return out


def self_test(case, document: dict) -> list:
    """The oracle must pass the real output and reject a corrupted one."""
    problems = check(case, document)
    if problems:
        return [f"oracle rejects the real output: {problems[0]}"]
    if not check(case, corrupted(document)):
        return ["oracle accepted a corrupted relation"]
    return []
