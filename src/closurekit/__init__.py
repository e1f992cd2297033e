"""closurekit: normalization of reduced affine rings over exact fields.

The package computes the integral closure of k[x_1..x_n]/I in its total
ring of fractions by iterating endomorphism rings of radical test ideals,
and presents the result as explicit generators and relations with the
adjoined elements recorded as fractions over the input ring.
"""
from . import errors
from .fields import GF, QQ, Field, PrimeField, RationalField
from .ring import (
    Block,
    DEGREVLEX,
    LEX,
    DegRevLex,
    Lex,
    MonomialOrder,
    Polynomial,
    PolyRing,
    compare_monomials,
    divide_with_remainder,
    elimination_order,
    poly_op,
)
from .groebner import (
    Ideal,
    buchberger,
    dimension,
    eliminate,
    ideal_member,
    ideals_equal,
    lift,
    normal_form,
    syzygies,
)
from .idealops import (
    QuotientRingContext,
    annihilator,
    ideal_quotient,
    intersect,
    jacobian_test_ideal,
    radical,
    radical_membership,
    saturation,
)
from .normalize import (
    AdjoinedVariable,
    AffinePresentation,
    Component,
    EndoPresentation,
    NormalizationResult,
    SplitDecision,
    VerificationReport,
    choose_test_ideal,
    endomorphism_ring,
    extend_ring,
    is_fixed_point,
    normalize,
    pick_nzd_or_split,
    presentation,
    verify_result,
)
from .parser import InputDocument, parse_input, parse_polynomial
from .cli import build_result_document, emit_json, run_cli

__version__ = "0.1.0"

__all__ = [
    "errors",
    "GF", "QQ", "Field", "PrimeField", "RationalField",
    "Block", "DEGREVLEX", "LEX", "DegRevLex", "Lex", "MonomialOrder",
    "Polynomial", "PolyRing", "compare_monomials", "divide_with_remainder",
    "elimination_order", "poly_op",
    "Ideal", "buchberger", "dimension", "eliminate",
    "ideal_member", "ideals_equal", "lift", "normal_form", "syzygies",
    "QuotientRingContext", "annihilator", "ideal_quotient", "intersect",
    "jacobian_test_ideal", "radical", "radical_membership", "saturation",
    "AdjoinedVariable", "AffinePresentation", "Component", "EndoPresentation",
    "NormalizationResult", "SplitDecision", "VerificationReport",
    "choose_test_ideal", "endomorphism_ring", "extend_ring", "is_fixed_point",
    "normalize", "pick_nzd_or_split", "presentation", "verify_result",
    "InputDocument", "parse_input", "parse_polynomial",
    "build_result_document", "emit_json", "run_cli",
    "__version__",
]
