"""Outside-in tracing of closurekit layers for the traced benchmark run.

Wrappers are installed from here only; closurekit carries no tracing
code.  A module that did ``from .groebner import normal_form`` holds its
own binding, so each wrapped function is rebound in every closurekit
module whose namespace holds the original object, and every binding is
restored by ``uninstall``.

Spans live in flat in-memory arrays (name, start, end, parent span,
input id) and are written out once, at the end of the run.  A span's
self time is its duration minus the time its direct children cover.
"""
from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function) pairs wrapped as plain functions; the span name is
# "<module>.<function>"
FUNCTIONS = [
    ("ring", "divide_with_remainder"),
    ("groebner", "normal_form"),
    ("groebner", "syzygies"),
    ("groebner", "lift"),
    ("groebner", "eliminate"),
    ("groebner", "dimension"),
    ("idealops", "jacobian_test_ideal"),
    ("idealops", "radical"),
    ("idealops", "radical_membership"),
    ("idealops", "ideal_quotient"),
    ("idealops", "annihilator"),
    ("idealops", "intersect"),
    ("idealops", "saturation"),
    ("normalize", "presentation"),
    ("normalize", "normalize"),
    ("normalize", "choose_test_ideal"),
    ("normalize", "pick_nzd_or_split"),
    ("normalize", "endomorphism_ring"),
    ("normalize", "extend_ring"),
    ("normalize", "verify_result"),
    ("parser", "parse_input"),
]

GROEBNER_BASIS = "groebner.groebner_basis"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.input_id = array("i")
        self.stack: list = []
        self.current_input = -1
        self.counters: Counter = Counter()
        self._restore: list = []

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.input_id.append(self.current_input)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        import closurekit.groebner as groebner
        import closurekit.idealops as idealops

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "closurekit" or name.startswith("closurekit."))]
        wrappers = {}
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"closurekit.{module_name}"], attr)
            wrappers[id(original)] = self.wrap(f"{module_name}.{attr}", original)
        jac = idealops.jacobian_test_ideal
        wrappers[id(jac)] = self._count_minors(wrappers[id(jac)])

        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

        original_gb = groebner.Ideal.groebner_basis
        groebner.Ideal.groebner_basis = self._basis_wrapper(original_gb)
        self._restore.append((groebner.Ideal, "groebner_basis", original_gb))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _count_minors(self, traced):
        counters = self.counters

        def jacobian_test_ideal(ctx):
            out = traced(ctx)
            counters["idealops.jacobian_test_ideal.minors"] += (
                len(out.generators) - len(ctx.defining.generators))
            return out

        return jacobian_test_ideal

    def _basis_wrapper(self, original):
        traced = self.wrap(GROEBNER_BASIS, original)
        counters = self.counters

        def groebner_basis(ideal, order=None):
            key = (order or ideal.ring.order).name
            counters[GROEBNER_BASIS + ".requests"] += 1
            if key not in ideal._bases:
                counters[GROEBNER_BASIS + ".computed"] += 1
            return traced(ideal, order)

        return groebner_basis

    # -- results ----------------------------------------------------------

    def layer_totals(self):
        """{name: (calls, self seconds)} for every wrapped name, called or
        not, over the recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write(self, path):
        """Spans as tab-separated text: id, name, start, end, parent, input."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart\tend\tparent\tinput\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.input_id[i]}\n")

