"""The candidate scan's two shortcuts against the full scan.

``pick_nzd_or_split`` asks ``D.canonical([f], below=dim D)`` alone, and
both shortcuts live there.  LT(D) + (LM f) lies in LT(D + (f)), so the
dimension of that monomial ideal bounds dim(D + (f)) from above, and a
candidate whose bound is below dim(D) is passed over without a run.  Any
other candidate's run of D + (f) stops at the first basis element whose
leading monomial drops the dimension.  The reference below is the scan
without either shortcut: it builds the full reduced basis of D + (f) for
every candidate it reaches, and calls the candidate a nonzerodivisor
when its annihilator D : f equals D.  Every call ``normalize`` makes on
every fixture (both orders) and on seeded benchmark inputs of all three
workloads is replayed through it and must give the same
``SplitDecision``: the same element, and an annihilator D : f and a
complement D : (D : f) with the same generators.
"""
import importlib
import sys
from pathlib import Path

import pytest

from closurekit import DEGREVLEX, LEX, Ideal, normalize, parse_input, presentation
from closurekit.errors import ParseError
from closurekit.groebner import _independent, dimension, ideals_equal
from closurekit.idealops import annihilator, ideal_quotient
from closurekit.normalize import SplitDecision, _candidates

normalize_module = importlib.import_module("closurekit.normalize")
groebner_module = importlib.import_module("closurekit.groebner")

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _reference_split(R, f):
    ann = annihilator(f, R.ctx)
    return SplitDecision(f, ann, ideal_quotient(Ideal(R.ring, []), ann, R.ctx))


def _reference_pick(R, I):
    gens, candidates = _candidates(R, I)
    assert gens
    D = R.defining
    base_dim = dimension(D)
    first_nzd = None
    for f in candidates:
        if dimension(D.canonical([f])) == base_dim:
            return _reference_split(R, f)
        if first_nzd is None:
            first_nzd = f
    if ideals_equal(annihilator(first_nzd, R.ctx), D):
        return SplitDecision(first_nzd)
    return _reference_split(R, first_nzd)


def _skips(R, I):
    """Candidates the shortcut passes over, up to the first zerodivisor."""
    D = R.defining
    base_dim = dimension(D)
    leads = [g.LM for g in D.groebner_basis()]
    skipped = 0
    for f in _candidates(R, I)[1]:
        if next(_independent(leads + [f.LM], R.ring.nvars, base_dim), None) is None:
            skipped += 1
        elif dimension(D.canonical([f])) == base_dim:
            break
    return skipped


def _replay(monkeypatch, texts, order=DEGREVLEX):
    """Normalize each input, checking every scan against the reference;
    returns (scans, splits, skipped candidates, runs stopped early)."""
    real = normalize_module.pick_nzd_or_split
    real_run = groebner_module._buchberger
    seen, stops = [], []

    def run(*args, **kwargs):
        basis = real_run(*args, **kwargs)
        stops.append(basis is None)
        return basis

    def checked(R, I):
        decision = real(R, I)
        ref = _reference_pick(R, I)
        assert decision.f == ref.f
        assert decision.is_split == ref.is_split
        if ref.is_split:
            assert (decision.annihilator_ideal.generators
                    == ref.annihilator_ideal.generators)
            assert (decision.complement_ideal.generators
                    == ref.complement_ideal.generators)
        seen.append((decision.is_split, _skips(R, I)))
        return decision

    monkeypatch.setattr(normalize_module, "pick_nzd_or_split", checked)
    monkeypatch.setattr(groebner_module, "_buchberger", run)
    for text in texts:
        doc = parse_input(text, order)
        normalize(presentation(doc.ring, doc.generators))
    return len(seen), sum(s for s, _ in seen), sum(k for _, k in seen), sum(stops)


def _fixture_texts():
    out = []
    for path in sorted(FIXTURES.glob("*.txt")):
        try:
            parse_input(path.read_text(), DEGREVLEX)
        except ParseError:
            continue
        out.append(path.read_text())
    return out


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_fixture_scans_match_the_full_scan(monkeypatch, order):
    scans, splits, skipped, stops = _replay(monkeypatch, _fixture_texts(), order)
    assert scans and splits and skipped and stops


@pytest.mark.parametrize("workload", ["curve-tower", "split-mix", "prime-space"])
def test_workload_scans_match_the_full_scan(monkeypatch, workload):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    # one round per seed: every family of the workload once
    texts = []
    for seed in (1, 2):
        stream = workloads.stream(workload, seed)
        texts += [next(stream).text for _ in workloads.WORKLOADS[workload].families]
    scans, splits, skipped, stops = _replay(monkeypatch, texts)
    assert scans and skipped and stops
    assert splits if workload == "split-mix" else not splits
