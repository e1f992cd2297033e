import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from closurekit import DEGREVLEX, emit_json, parse_input, run_cli
from closurekit.errors import StrategyFailed, VerificationFailed

CUSP = "ring QQ[x,y];\nideal (y^2 - x^3);\n"
NODE = "ring QQ[x,y];\nideal (y^2 - x^2);\n"
BROKEN = "ring QQ[x,y]; ideal (y^2 - z);\n"
NON_RADICAL = "ring QQ[x]; ideal (x^2);\n"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def cusp_file(tmp_path):
    path = tmp_path / "cusp.txt"
    path.write_text(CUSP)
    return str(path)


def run(capsys, args):
    code = run_cli(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cusp_json_verified(cusp_file, capsys):
    code, out, err = run(capsys, ["normalize", cusp_file, "--json", "--verify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "closure-kit/1"
    assert len(doc["components"]) == 1
    comp = doc["components"][0]
    assert comp["variables"] == ["x", "y", "T1_1"]
    assert comp["adjoined"] == [{"name": "T1_1", "level": 1,
                                 "numerator": "y", "denominator": "x"}]
    assert comp["iterations"] == 1
    assert doc["trace"] == []


def test_json_key_layout(cusp_file, capsys):
    code, out, _ = run(capsys, ["normalize", cusp_file, "--json"])
    assert code == 0
    assert out.startswith('{"schema":"closure-kit/1","components":[')
    assert '"options":{"order":"degrevlex","radical":"auto","max_iter":32}' in out


def test_byte_identical_across_runs(cusp_file, capsys):
    _, first, _ = run(capsys, ["normalize", cusp_file, "--json", "--trace"])
    _, second, _ = run(capsys, ["normalize", cusp_file, "--json", "--trace"])
    assert first == second


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text(BROKEN)
    code, out, err = run(capsys, ["normalize", str(path), "--json"])
    assert code == 2
    assert out == ""
    assert ":1:" in err  # line/column on stderr


def test_duplicate_variable_location(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("ring QQ[x,x];\nideal (x);\n")
    code, out, err = run(capsys, ["normalize", str(path), "--json"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{path}:1:11:")


@pytest.mark.parametrize("text,message", [
    ("ring QQ[x];\nideal (x^²);\n", ":2:10: unexpected character '²'\n"),
    ("ring GF(4)[x];\nideal (x);\n", ": modulus 4 is not prime\n"),
    (f"ring GF({2 ** 64})[x];\nideal (x);\n",
     f": modulus {2 ** 64} is too large: GF(p) needs p < 2^64\n"),
    # past the interpreter's int-from-string limit
    ("ring QQ[x];\nideal (x^" + "9" * 5000 + ");\n",
     ":2:10: integer literal of 5000 digits is too long\n"),
], ids=["superscript-digit", "GF(4)", "GF(2^64)", "5000-digit-exponent"])
def test_rejected_input_exit_code(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["normalize", str(path), "--json"])
    assert code == 2
    assert out == ""
    assert err == f"{path}{message}"


def test_verification_failure_exit_code(cusp_file, capsys, monkeypatch):
    cli = importlib.import_module("closurekit.cli")

    def failing(start, result):
        raise VerificationFailed("planted failure")

    monkeypatch.setattr(cli, "verify_result", failing)
    code, out, err = run(capsys, ["normalize", cusp_file, "--json", "--verify"])
    assert code == 4
    assert out == ""
    assert err == "verification failed: planted failure\n"


def test_missing_file_exit_code(capsys, tmp_path):
    code, out, err = run(capsys, ["normalize", str(tmp_path / "nope.txt"), "--json"])
    assert code == 2
    assert out == ""
    assert err


def test_non_utf8_file_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"ring QQ[x];\nideal (x\xff);\n")
    code, out, err = run(capsys, ["normalize", str(path), "--json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "0xff" in err
    assert err.count("\n") == 1


def test_iteration_limit_exit_code(cusp_file, capsys):
    code, out, err = run(capsys, ["normalize", cusp_file, "--max-iter", "1",
                                  "--json"])
    assert code == 3
    assert out == ""
    assert "iteration" in err.lower() or "stabilize" in err.lower()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_iter_below_one_is_usage_error(cusp_file, capsys, value):
    code, out, err = run(capsys, ["normalize", cusp_file, "--max-iter", value,
                                  "--json"])
    assert code == 2
    assert out == ""
    assert "--max-iter" in err and "at least 1" in err


def test_input_file_closed(cusp_file):
    # -X dev turns on ResourceWarning; an unclosed FILE would print one
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "closurekit", "normalize", cusp_file, "--json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["schema"] == "closure-kit/1"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_radical_failure_exit_code(cusp_file, capsys, monkeypatch, json_flag):
    # a radical without a certified answer is an algorithm error
    cli = importlib.import_module("closurekit.cli")

    def failing(I):
        raise StrategyFailed("planted failure")

    monkeypatch.setattr(cli, "radical", failing)
    code, out, err = run(capsys, ["normalize", cusp_file, "--check", *json_flag])
    assert code == 3
    assert out == ""
    assert err == "algorithm error: planted failure\n"


@pytest.mark.parametrize("value", ["auto", "zerodim", "general"])
def test_radical_flag_is_unknown(cusp_file, capsys, value):
    # one radical path: the retired --radical is rejected like any unknown option
    code, out, err = run(capsys, ["normalize", cusp_file, "--json", "--radical", value])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --radical" in err


def test_check_rejects_non_radical(tmp_path, capsys):
    path = tmp_path / "nonradical.txt"
    path.write_text(NON_RADICAL)
    code, out, err = run(capsys, ["normalize", str(path), "--check", "--json"])
    assert code == 4
    assert out == ""
    assert "radical" in err


def test_verify_rejects_doubled_component(tmp_path, capsys):
    # without --check, x^2 splits on its zerodivisor x into (x) twice
    path = tmp_path / "nonradical.txt"
    path.write_text(NON_RADICAL)
    code, out, err = run(capsys, ["normalize", str(path), "--verify"])
    assert code == 4
    assert out == ""
    assert err == ("verification failed: components 0 and 1 have the same "
                   "image in the input ring\n")
    code, out, _ = run(capsys, ["normalize", str(path)])
    assert code == 0 and out.count("relations: x") == 2


def test_check_accepts_radical_input(cusp_file, capsys):
    code, _, _ = run(capsys, ["normalize", cusp_file, "--check", "--json"])
    assert code == 0


def test_check_computes_the_input_basis_once(cusp_file, capsys, monkeypatch):
    groebner = importlib.import_module("closurekit.groebner")
    real = groebner._reduced_groebner
    runs = []

    def counted(gens, ring, order):
        runs.append((tuple(gens), order.name))
        return real(gens, ring, order)

    monkeypatch.setattr(groebner, "_reduced_groebner", counted)
    code, out, _ = run(capsys, ["normalize", cusp_file, "--json", "--check"])
    assert code == 0
    assert out == (GOLDEN / "cusp.json").read_text()
    key = (parse_input(CUSP).generators, DEGREVLEX.name)
    assert runs.count(key) == 1


def test_trace_flag_controls_trace(tmp_path, capsys):
    path = tmp_path / "node.txt"
    path.write_text(NODE)
    code, out, _ = run(capsys, ["normalize", str(path), "--json", "--trace"])
    assert code == 0
    doc = json.loads(out)
    assert any(e.startswith("Split") for e in doc["trace"])
    code, out, _ = run(capsys, ["normalize", str(path), "--json"])
    assert json.loads(out)["trace"] == []


def test_trace_in_text_output(tmp_path, capsys):
    path = tmp_path / "node.txt"
    path.write_text(NODE)
    code, out, _ = run(capsys, ["normalize", str(path), "--trace"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "components: 2"
    assert any(line.startswith("trace: Split") for line in lines)
    # trace lines come last, after every component
    first = next(k for k, line in enumerate(lines) if line.startswith("trace: "))
    assert all(line.startswith("trace: ") for line in lines[first:])


def test_lex_order_flag(cusp_file, capsys):
    code, out, _ = run(capsys, ["normalize", cusp_file, "--json", "--order", "lex"])
    assert code == 0
    doc = json.loads(out)
    assert doc["options"]["order"] == "lex"


def test_human_output(cusp_file, capsys):
    code, out, _ = run(capsys, ["normalize", cusp_file])
    assert code == 0
    assert "components: 1" in out
    assert "T1_1" in out


def test_relations_parse_back(cusp_file, capsys):
    from closurekit import Ideal, PolyRing, QQ, ideals_equal, parse_polynomial

    _, out, _ = run(capsys, ["normalize", cusp_file, "--json"])
    doc = json.loads(out)
    comp = doc["components"][0]
    ring = PolyRing(QQ, comp["variables"])
    polys = [parse_polynomial(text, ring) for text in comp["relations"]]
    ext = Ideal(ring, polys)
    assert ideals_equal(ext, Ideal(ring, polys))  # parseable and well formed
    assert len(polys) == len(comp["relations"])


def test_emit_json_stable():
    doc = {"schema": "closure-kit/1", "components": [], "trace": [],
           "options": {"order": "degrevlex", "radical": "auto", "max_iter": 32}}
    assert emit_json(doc) == emit_json(doc)
    assert " " not in emit_json(doc).split('"trace"')[0]
