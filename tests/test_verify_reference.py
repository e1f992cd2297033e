"""``verify_result``'s check (b) against its old route.

The global half of check (b) folds products of one generator per
component image; ``oracles.reference_global_check`` intersects the
images instead and tests both inclusions up to radical.  On every
fixture and on one round of seed-1 and seed-2 split-mix inputs, the true
result and every mutant that drops one component must get the same
verdict from both, with the same message.  On those split-mix rounds
every mutant is rejected.

``verify_result`` also rejects two components with equal images, which
the reference does not look for.  Only the non-radical x^2 has them: it
splits into (x) twice, and its true result is rejected by that check.
"""
import sys
from pathlib import Path

import pytest

from closurekit import (DEGREVLEX, ideals_equal, normalize, parse_input, presentation,
                        verify_result)
from closurekit.errors import ParseError, VerificationFailed
from closurekit.groebner import contract
from closurekit.normalize import NormalizationResult
from oracles import reference_global_check

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _verdict(pres, components):
    try:
        verify_result(pres, NormalizationResult(components))
    except VerificationFailed as exc:
        return str(exc)
    return None


def _doubled(images):
    """The message for the first two components with equal images, named
    by their positions, or None."""
    for j in range(len(images)):
        for i in range(j):
            if ideals_equal(images[i], images[j]):
                return f"components {i} and {j} have the same image in the input ring"
    return None


def _compare(texts):
    """Check every input's result and its drop-one mutants; returns the
    mutants' verdicts and the verdicts on true results that were rejected.
    A mutant passes exactly when the dropped image equals one that is
    left, as for the non-radical x^2, which splits into (x) twice."""
    verdicts, rejected = [], []
    for text in texts:
        doc = parse_input(text, DEGREVLEX)
        pres = presentation(doc.ring, doc.generators)
        components = normalize(pres).components
        images = [contract(c.presentation.defining, doc.ring) for c in components]
        assert reference_global_check(pres.defining, images) is None
        verdict = _verdict(pres, components)
        assert verdict == _doubled(images)
        if verdict is not None:
            rejected.append(verdict)
        if len(components) < 2:
            continue
        for i in range(len(components)):
            expected = reference_global_check(pres.defining, images[:i] + images[i + 1:])
            assert _verdict(pres, components[:i] + components[i + 1:]) == expected
            duplicate = any(ideals_equal(images[i], image)
                            for j, image in enumerate(images) if j != i)
            assert (expected is None) == duplicate
            verdicts.append(expected)
    return verdicts, rejected


def _fixture_texts():
    out = []
    for path in sorted(FIXTURES.glob("*.txt")):
        try:
            parse_input(path.read_text(), DEGREVLEX)
        except ParseError:
            continue
        out.append(path.read_text())
    return out


def test_fixtures_match_the_intersect_reference():
    verdicts, rejected = _compare(_fixture_texts())
    assert verdicts
    assert rejected == ["components 0 and 1 have the same image in the input ring"]


def test_doubled_component_is_rejected():
    doc = parse_input((FIXTURES / "nonradical.txt").read_text(), DEGREVLEX)
    pres = presentation(doc.ring, doc.generators)
    components = normalize(pres).components
    assert [c.presentation.defining.generators for c in components] == [(doc.ring.var("x"),)] * 2
    with pytest.raises(VerificationFailed,
                       match="^components 0 and 1 have the same image in the input ring$"):
        verify_result(pres, NormalizationResult(components))


@pytest.mark.parametrize("seed", [1, 2])
def test_split_mix_matches_the_intersect_reference(seed):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    stream = workloads.stream("split-mix", seed)
    texts = [next(stream).text for _ in workloads.WORKLOADS["split-mix"].families]
    verdicts, rejected = _compare(texts)
    assert verdicts and None not in verdicts
    assert not rejected
