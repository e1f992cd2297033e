"""Acceptance suite: every criterion runs at its stated (exact) tolerance
and prints one pass/fail line.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines."""
import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from closurekit import (
    QQ,
    Ideal,
    PolyRing,
    choose_test_ideal,
    eliminate,
    endomorphism_ring,
    ideal_member,
    ideals_equal,
    normal_form,
    normalize,
    parse_polynomial,
    pick_nzd_or_split,
    presentation,
    run_cli,
    verify_result,
)
from conftest import P
from oracles import substitute

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
# cusp-line and axes are split-mix inputs and, with triangle, the only
# goldens with a Split; t345 and umbrella13 are prime-space inputs and, with
# e6 (a normal complete intersection that leaves through hom-equal at level
# 0), the only GF(32003) goldens
GOLDEN_NAMES = ["cusp", "node", "umbrella", "a4", "conic", "zero", "cusp-line", "axes",
                "t345", "umbrella13", "triangle", "e6"]


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - start:.2f}s)")


def _within(elapsed, bound):
    assert elapsed < bound, f"runtime {elapsed:.2f}s exceeded {bound}s"


def test_criterion_1_cusp():
    with criterion("1 cusp"):
        start = time.perf_counter()
        ring = PolyRing(QQ, ["x", "y"])
        pres = presentation(ring, [P(ring, "y^2 - x^3")])
        result = normalize(pres)
        assert len(result.components) == 1
        assert result.hom_steps() == 1
        assert sum(1 for e in result.trace if e.startswith("FixedPoint")) == 1
        final = result.components[0].presentation
        ext = final.ring
        expected = [parse_polynomial(t, ext) for t in
                    ("y^2 - x^3", "x*T1_1 - y", "y*T1_1 - x^2", "T1_1^2 - x")]
        # basis equivalence by two-way ideal membership
        for g in expected:
            assert ideal_member(g, final.defining)
        for g in final.defining.generators:
            assert ideal_member(g, Ideal(ext, expected))
        # substitution oracle x -> s^2, y -> s^3, T -> s
        S = PolyRing(QQ, ["s"])
        s = S.var("s")
        images = {"x": s**2, "y": s**3, "T1_1": s}
        for g in final.defining.generators:
            assert substitute(g, S, images).is_zero()
        _within(time.perf_counter() - start, 1.0)


def test_criterion_2_node():
    with criterion("2 node"):
        start = time.perf_counter()
        ring = PolyRing(QQ, ["x", "y"])
        pres = presentation(ring, [P(ring, "y^2 - x^2")])
        result = normalize(pres)
        assert len(result.components) == 2
        for comp in result.components:
            cp = comp.presentation
            # immediate fixed point on recheck
            test = choose_test_ideal(cp)
            if test.contains_one():
                endo = endomorphism_ring(cp, Ideal(cp.ring, [cp.ring.one]),
                                         cp.ring.one)
            else:
                decision = pick_nzd_or_split(cp, test)
                assert not decision.is_split
                endo = endomorphism_ring(cp, test, decision.f)
            assert endo.t == 0
            # defining ideal eliminates to one linear relation in x, y
            elim = eliminate(cp.defining, {a.name for a in cp.adjoined})
            basis = elim.groebner_basis()
            assert len(basis) == 1
            assert basis[0].total_degree() == 1
        _within(time.perf_counter() - start, 1.0)


def test_criterion_3_whitney_umbrella():
    with criterion("3 whitney umbrella"):
        start = time.perf_counter()
        ring = PolyRing(QQ, ["x", "y", "z"])
        pres = presentation(ring, [P(ring, "x^2 - y^2*z")])
        test = choose_test_ideal(pres)
        assert ideals_equal(test, Ideal(ring, [ring.var("x"), ring.var("y")]))
        result = normalize(pres)
        assert len(result.components) == 1
        final = result.components[0].presentation
        assert final.adjoined, "expected an adjoined generator"
        name = final.adjoined[-1].name
        ext = final.ring
        T = ext.var(name)
        z = ext.var("z")
        y = ext.var("y")
        x = ext.var("x")
        assert normal_form(T * T - z, final.defining).is_zero()
        assert normal_form(y * T - x, final.defining).is_zero()
        _within(time.perf_counter() - start, 5.0)


def test_criterion_4_a4_curve():
    with criterion("4 A4 curve"):
        start = time.perf_counter()
        ring = PolyRing(QQ, ["x", "y"])
        pres = presentation(ring, [P(ring, "y^2 - x^5")])
        result = normalize(pres)
        assert result.hom_steps() == 2, "two productive extensions expected"
        assert len(result.components) == 1
        verify_result(pres, result)
        _within(time.perf_counter() - start, 5.0)


def test_criterion_5_smooth_inputs():
    with criterion("5 smooth inputs"):
        ring = PolyRing(QQ, ["x", "y"])
        result = normalize(presentation(ring, [P(ring, "x^2 + y^2 - 1")]))
        assert result.hom_steps() == 0
        assert len(result.components) == 1
        assert "FixedPoint component=0 reason=unit-test-ideal" in result.trace

        line = PolyRing(QQ, ["x"])
        result = normalize(presentation(line, []))
        assert result.hom_steps() == 0
        assert len(result.components) == 1
        assert "FixedPoint component=0 reason=unit-test-ideal" in result.trace


def test_criterion_6_idempotence():
    with criterion("6 idempotence"):
        ring = PolyRing(QQ, ["x", "y"])
        ring3 = PolyRing(QQ, ["x", "y", "z"])
        golden_inputs = [
            presentation(ring, [P(ring, "y^2 - x^3")]),
            presentation(ring, [P(ring, "y^2 - x^2")]),
            presentation(ring3, [P(ring3, "x^2 - y^2*z")]),
            presentation(ring, [P(ring, "y^2 - x^5")]),
            presentation(ring, [P(ring, "x^2 + y^2 - 1")]),
        ]
        for pres in golden_inputs:
            for comp in normalize(pres).components:
                cp = comp.presentation
                rerun = normalize(presentation(cp.ring, list(cp.defining.generators)))
                assert rerun.hom_steps() == 0
                assert len(rerun.components) == 1
                again = rerun.components[0].presentation
                assert again.ring.variables == cp.ring.variables
                assert (again.defining.groebner_basis()
                        == cp.defining.groebner_basis())


def test_criterion_7_property_suite():
    with criterion("7 property suite"):
        start = time.perf_counter()
        from test_properties import run_property_suite

        counts = run_property_suite()
        total = sum(counts.values())
        assert total >= 200, f"only {total} randomized cases"
        _within(time.perf_counter() - start, 60.0)


def _run_json(path, *extra):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_cli(["normalize", str(path), "--json", *extra])
    return code, buf.getvalue()


def test_criterion_8_cli_golden_and_exit_codes():
    with criterion("8 cli end-to-end"):
        for name in GOLDEN_NAMES:
            code, first = _run_json(FIXTURES / f"{name}.txt")
            assert code == 0
            _, second = _run_json(FIXTURES / f"{name}.txt")
            assert first == second, "output not byte-identical across runs"
            golden = (GOLDEN / f"{name}.json").read_text()
            assert first == golden, f"golden mismatch for {name}"
            json.loads(first)  # well-formed

        # exit-code matrix
        code, out = _run_json(FIXTURES / "cusp.txt", "--verify")
        assert code == 0
        code, out = _run_json(FIXTURES / "broken.txt")
        assert code == 2 and out == ""
        code, out = _run_json(FIXTURES / "cusp.txt", "--max-iter", "1")
        assert code == 3 and out == ""
        code, out = _run_json(FIXTURES / "nonradical.txt", "--check")
        assert code == 4 and out == ""


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_trace_golden(name):
    # the trace lines are output too: pin them byte for byte
    code, out = _run_json(FIXTURES / f"{name}.txt", "--trace")
    assert code == 0
    assert out == (GOLDEN / f"{name}.trace.json").read_text()


@pytest.mark.parametrize("flags", [("--order", "lex")], ids=["lex"])
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_flag_golden(name, flags):
    # non-default flags keep their output too: relations, trace and options
    code, out = _run_json(FIXTURES / f"{name}.txt", "--trace", "--verify", *flags)
    assert code == 0
    suffix = flags[1]
    assert out == (GOLDEN / f"{name}.{suffix}.json").read_text()
