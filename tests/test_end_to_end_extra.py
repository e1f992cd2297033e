"""Cross-cutting runs that exercise less-travelled paths: prime field
coefficients, reducible inputs whose zerodivisors hide from the scan,
and the lex order pipeline."""
import json

from closurekit import (
    DEGREVLEX,
    GF,
    LEX,
    Block,
    QQ,
    PolyRing,
    ideal_member,
    normalize,
    parse_polynomial,
    presentation,
    run_cli,
    verify_result,
)


def test_cusp_over_gf7():
    R = PolyRing(GF(7), ["x", "y"])
    pres = presentation(R, [parse_polynomial("y^2 - x^3", R)])
    result = normalize(pres)
    assert len(result.components) == 1
    assert result.hom_steps() == 1
    verify_result(pres, result)


def test_tacnode_ends_in_one_normal_component():
    # y^2 - x^4 factors, but no scanned candidate vanishes on a whole
    # branch, so the loop resolves it by extensions; the result is the
    # disconnected normalization presented as a single ring.
    R = PolyRing(QQ, ["x", "y"])
    pres = presentation(R, [parse_polynomial("y^2 - x^4", R)])
    result = normalize(pres)
    assert len(result.components) == 1
    assert result.hom_steps() == 2
    final = result.components[0].presentation
    idem = parse_polynomial("T2_1^2 - 1", final.ring)
    assert ideal_member(idem, final.defining)
    verify_result(pres, result)


def test_lex_order_pipeline():
    R = PolyRing(QQ, ["x", "y"], LEX)
    pres = presentation(R, [parse_polynomial("y^2 - x^3", R)])
    result = normalize(pres)
    assert len(result.components) == 1
    assert result.hom_steps() == 1
    verify_result(pres, result)


def test_block_order_pipeline():
    # the adjoined variables need a place in the block order, or monomials
    # that differ only in them tie and the loop never finishes
    R = PolyRing(QQ, ["x", "y"], Block(((0,), LEX), ((1,), DEGREVLEX)))
    pres = presentation(R, [parse_polynomial("y^3 - x^4", R)])
    result = normalize(pres)
    assert len(result.components) == 1
    assert result.hom_steps() == 2
    verify_result(pres, result)


def test_input_variable_named_like_an_adjoined_one(tmp_path, capsys):
    # the cusp in T1_1 and y: the level-1 variable may not reuse the name
    path = tmp_path / "named.txt"
    path.write_text("ring QQ[T1_1,y]; ideal (y^2 - T1_1^3);\n")
    assert run_cli(["normalize", str(path), "--json", "--verify"]) == 0
    (comp,) = json.loads(capsys.readouterr().out)["components"]
    names = comp["variables"]
    assert names[:2] == ["T1_1", "y"] and len(set(names)) == len(names) == 3
    assert [adj["name"] for adj in comp["adjoined"]] == names[2:]


def test_small_characteristic_exits_3(tmp_path, capsys):
    path = tmp_path / "gf2cusp.txt"
    path.write_text("ring GF(2)[x,y]; ideal (y^2 - x^3);\n")
    code = run_cli(["normalize", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "GF(2)" in captured.err or "characteristic" in captured.err


def test_semigroup_ring_t3_t4_t5():
    # k[t^3,t^4,t^5]: one endomorphism step adjoins t and t^2 at once,
    # exercising multi-generator presentations (three quadratics)
    R = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = R.gens()
    pres = presentation(R, [y * y - x * z, x * x * y - z * z, x**3 - y * z])
    result = normalize(pres)
    assert len(result.components) == 1
    assert result.hom_steps() == 1
    final = result.components[0].presentation
    assert len(final.adjoined) == 2
    # substitution oracle: x=t^3, y=t^4, z=t^5, T1_1=t, T1_2=t^2
    from oracles import substitute

    S = PolyRing(QQ, ["t"])
    t = S.var("t")
    images = {"x": t**3, "y": t**4, "z": t**5, "T1_1": t, "T1_2": t * t}
    for g in final.defining.generators:
        assert substitute(g, S, images).is_zero()
    verify_result(pres, result)


def test_deep_cusp_three_extensions():
    # y^2 = x^7 resolves through three singular intermediate rings
    R = PolyRing(QQ, ["x", "y"])
    pres = presentation(R, [parse_polynomial("y^2 - x^7", R)])
    result = normalize(pres)
    assert len(result.components) == 1
    assert result.hom_steps() == 3
    verify_result(pres, result)


def test_unit_ideal_input_rejected(tmp_path, capsys):
    from closurekit.errors import UnitIdeal
    import pytest

    R = PolyRing(QQ, ["x"])
    with pytest.raises(UnitIdeal):
        presentation(R, [R.one])
    path = tmp_path / "unit.txt"
    path.write_text("ring QQ[x]; ideal (1);\n")
    code = run_cli(["normalize", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""


def test_three_lines_split_twice():
    # y(y-x)(y+x): three concurrent lines; the generator y is already a
    # zerodivisor, so splits cascade down to three linear components
    R = PolyRing(QQ, ["x", "y"])
    pres = presentation(R, [parse_polynomial("y^3 - x^2*y", R)])
    result = normalize(pres)
    assert len(result.components) == 3
    for comp in result.components:
        basis = comp.presentation.defining.groebner_basis()
        assert len(basis) == 1 and basis[0].total_degree() == 1
    verify_result(pres, result)
