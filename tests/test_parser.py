import pytest

from closurekit import GF, LEX, QQ, parse_input, parse_polynomial
from closurekit.errors import NonPrimeModulus, ParseError


def test_parse_cusp_document():
    doc = parse_input("ring QQ[x,y]; ideal (y^2 - x^3);")
    assert doc.field == QQ
    assert doc.variables == ("x", "y")
    assert len(doc.generators) == 1
    assert doc.generators[0] == parse_polynomial("y^2 - x^3", doc.ring)


def test_parse_single_variable():
    doc = parse_input("ring QQ[x]; ideal (x);")
    assert doc.variables == ("x",)
    assert doc.generators[0] == doc.ring.var("x")


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError) as info:
        parse_input("ring QQ[x,y]; ideal (y^2 - z);")
    assert info.value.line == 1
    assert info.value.column == 28
    assert "z" in str(info.value)


def test_roundtrip_is_identity_on_canonical_documents():
    text = "ring QQ[x,y]; ideal (x^3 - y^2, x*y - 1);"
    doc = parse_input(text)
    again = parse_input(doc.render())
    assert again.variables == doc.variables
    assert again.generators == doc.generators
    assert again.render() == doc.render()


def test_roundtrip_render_idempotent():
    # non-canonical input normalizes once, then re-parses identically
    doc = parse_input("ring QQ[x,y]; ideal (y^2 - x^3);")
    once = parse_input(doc.render())
    assert parse_input(once.render()).render() == once.render()
    assert ideal_equal_as_sets(once, doc)


def ideal_equal_as_sets(a, b):
    from closurekit import Ideal, ideals_equal

    return ideals_equal(Ideal(a.ring, list(a.generators)),
                        Ideal(a.ring, [g.map_to(a.ring) for g in b.generators]))


def test_comments_and_whitespace_ignored():
    text = """// the cusp
    ring QQ[x,y];   // two variables
    ideal (
        y^2 - x^3   // one generator
    );
    """
    doc = parse_input(text)
    assert doc.generators[0] == parse_polynomial("y^2 - x^3", doc.ring)


def test_gf_field_parsed():
    doc = parse_input("ring GF(7)[x]; ideal (x^2 + 3);")
    assert doc.field == GF(7)


def test_non_prime_modulus_rejected():
    with pytest.raises(NonPrimeModulus):
        parse_input("ring GF(6)[x]; ideal (x);")


def test_superscript_digit_is_a_parse_error():
    # str.isdigit accepts "²", which int() rejects
    with pytest.raises(ParseError, match="unexpected character '²'") as info:
        parse_input("ring QQ[x]; ideal (x^²);")
    assert (info.value.line, info.value.column) == (1, 22)


def test_decimal_digits_of_any_script_parse():
    doc = parse_input("ring GF(٧)[x]; ideal (x^٣);")   # Arabic-Indic 7 and 3
    assert doc.field == GF(7)
    assert doc.generators[0] == doc.ring.var("x") ** 3


def test_large_prime_modulus_parses():
    doc = parse_input("ring GF(2305843009213693951)[x,y]; ideal (y^2 - x^3);")
    assert doc.field == GF(2 ** 61 - 1)


@pytest.mark.parametrize("text,location", [
    ("ring GF(" + "7" * 5000 + ")[x];\nideal (x);", (1, 9)),
    ("ring QQ[x];\nideal (" + "7" * 5000 + "*x);", (2, 8)),
    ("ring QQ[x];\nideal (x^" + "7" * 5000 + ");", (2, 10)),
], ids=["modulus", "coefficient", "exponent"])
def test_over_long_integer_literal_is_a_parse_error(text, location):
    # int() refuses strings past 4,300 digits; the parser reports the token
    with pytest.raises(ParseError, match="integer literal of 5000 digits is too long") as info:
        parse_input(text)
    assert (info.value.line, info.value.column) == location


def test_syntax_error_position():
    with pytest.raises(ParseError) as info:
        parse_input("ring QQ[x,y]; ideal (y^2 - );")
    assert (info.value.line, info.value.column) == (1, 28)


def test_missing_semicolon():
    with pytest.raises(ParseError):
        parse_input("ring QQ[x,y] ideal (x);")


def test_duplicate_variable_rejected():
    with pytest.raises(ParseError) as info:
        parse_input("ring QQ[x,x];\nideal (x);")
    assert (info.value.line, info.value.column) == (1, 11)


def test_signed_leading_term():
    doc = parse_input("ring QQ[x]; ideal (-x^2 + x);")
    ring = doc.ring
    assert doc.generators[0] == ring.var("x") - ring.var("x") ** 2


def test_coefficient_star_optional():
    doc = parse_input("ring QQ[x,y]; ideal (3x*y - 2*y);")
    ring = doc.ring
    assert doc.generators[0] == 3 * ring.var("x") * ring.var("y") - 2 * ring.var("y")


def test_constant_term_allowed():
    doc = parse_input("ring QQ[x,y]; ideal (x^2 + y^2 - 1);")
    ring = doc.ring
    assert doc.generators[0] == ring.var("x") ** 2 + ring.var("y") ** 2 - ring.one


def test_zero_polynomial_input():
    doc = parse_input("ring QQ[x]; ideal (0);")
    assert doc.generators[0].is_zero()


def test_power_parsing():
    doc = parse_input("ring QQ[x,y]; ideal (x^3*y^2);")
    ring = doc.ring
    assert doc.generators[0] == ring.var("x") ** 3 * ring.var("y") ** 2


def test_order_parameter():
    doc = parse_input("ring QQ[x,y]; ideal (x - y);", LEX)
    assert doc.ring.order == LEX


def test_parse_polynomial_rejects_trailing_garbage(ring_xy):
    with pytest.raises(ParseError):
        parse_polynomial("x + ;", ring_xy)
