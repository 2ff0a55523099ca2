"""Command line behavior: output formats, exit codes, determinism."""

import json

import pytest

from semlink.cli import RunConfig, _parse_args, format_matrix, main

MODEL = {
    "entities": ["e1", "e2", "e3"],
    "constants": {"a": "e1", "b": "e2"},
    "functions": {
        "f": {"arity": 1, "table": [["e1", "e2"], ["e2", "e3"], ["e3", "e1"]]}},
    "relations": {
        "P": {"arity": 1, "tuples": [["e1"], ["e3"]]},
        "R": {"arity": 2, "tuples": [["e1", "e2"]]}},
}


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(MODEL))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# synth


def test_synth_conjunction(capsys):
    code, out, _ = run_cli(capsys, "synth", "--table", "1000", "--arity", "2")
    assert code == 0
    assert out == "1 0 0 0\n0 1 1 1\n"


def test_synth_infers_arity(capsys):
    code, out, _ = run_cli(capsys, "synth", "--table", "10")
    assert code == 0
    assert out == "1 0\n0 1\n"


def test_synth_bad_bitstring(capsys):
    code, _, err = run_cli(capsys, "synth", "--table", "10a0")
    assert code == 2
    assert "error:" in err


def test_synth_bad_length(capsys):
    code, _, err = run_cli(capsys, "synth", "--table", "100")
    assert code == 2


def test_synth_respects_cap_flag(capsys):
    code, _, err = run_cli(capsys, "synth", "--table", "1000", "--arity-cap", "1")
    assert code == 2
    assert "cap" in err


def test_synth_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("SEMLINK_ARITY_CAP", "1")
    code, _, err = run_cli(capsys, "synth", "--table", "1000")
    assert code == 2
    monkeypatch.setenv("SEMLINK_ARITY_CAP", "2")
    code, out, _ = run_cli(capsys, "synth", "--table", "1000")
    assert code == 0


def test_synth_arity_16(capsys):
    # 2^16 columns: one column of output per table entry, no 2^n x 2^n basis
    code, out, _ = run_cli(capsys, "synth", "--table", "0" * 65536, "--arity", "16")
    assert code == 0
    rows = out.splitlines()
    assert [row.split() for row in rows] == [["0"] * 65536, ["1"] * 65536]


# ---------------------------------------------------------------------------
# eval


def test_eval_formula(capsys, model_file):
    code, out, _ = run_cli(capsys, "eval", "--model", model_file,
                           "--expr", "not(P(a))")
    assert code == 0
    assert "extensional: 0" in out
    assert "vector: 0 1" in out
    assert "agree: yes" in out


def test_eval_entity_term(capsys, model_file):
    code, out, _ = run_cli(capsys, "eval", "--model", model_file,
                           "--expr", "f(f(a))")
    assert code == 0
    assert "extensional: e3" in out
    assert "vector: 0 0 1" in out


def test_eval_parse_error(capsys, model_file):
    code, _, err = run_cli(capsys, "eval", "--model", model_file,
                           "--expr", "not(P(a)")
    assert code == 2
    assert "offset" in err


def test_eval_type_error(capsys, model_file):
    code, _, err = run_cli(capsys, "eval", "--model", model_file,
                           "--expr", "and(a,P(a))")
    assert code == 2


def test_eval_unbound_variable(capsys, model_file):
    code, _, err = run_cli(capsys, "eval", "--model", model_file,
                           "--expr", "P(x)")
    assert code == 2
    assert "unbound" in err


def test_eval_missing_model(capsys):
    code, _, err = run_cli(capsys, "eval", "--model", "/nonexistent.json",
                           "--expr", "P(a)")
    assert code == 2


def test_eval_malformed_model(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run_cli(capsys, "eval", "--model", str(p), "--expr", "a")
    assert code == 2


@pytest.mark.parametrize("text", ['["a"]', '{"entities": "abc"}'])
def test_eval_model_of_wrong_shape(capsys, tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = run_cli(capsys, "eval", "--model", str(p), "--expr", "a")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# lift


def test_lift_function_table(capsys, model_file):
    code, out, _ = run_cli(capsys, "lift", "--model", model_file,
                           "--function", "f")
    assert code == 0
    assert "lifted function f: dim 3 -> dim 3" in out
    assert "(e1) -> e2 | basis 0 -> basis 1" in out
    assert out.count("->") >= 6


def test_lift_relation_table(capsys, model_file):
    code, out, _ = run_cli(capsys, "lift", "--model", model_file,
                           "--relation", "P")
    assert code == 0
    assert "(e1) -> 1" in out
    assert "(e2) -> 0" in out
    assert "(e3) -> 1" in out


def test_lift_unknown_symbol(capsys, model_file):
    code, _, err = run_cli(capsys, "lift", "--model", model_file,
                           "--function", "zz")
    assert code == 2


# ---------------------------------------------------------------------------
# check


@pytest.mark.parametrize("law", ["function", "relation", "sets", "chain", "formula"])
def test_check_laws_pass(capsys, law):
    code, out, _ = run_cli(capsys, "check", "--law", law,
                           "--trials", "25", "--seed", "5")
    assert code == 0
    assert f"law: {law}" in out
    assert "result: PASS" in out
    assert "failures: 0" in out


def test_check_reports_are_seed_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "check", "--law", "formula",
                         "--trials", "40", "--seed", "9")
    _, out2, _ = run_cli(capsys, "check", "--law", "formula",
                         "--trials", "40", "--seed", "9")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "check", "--law", "formula",
                         "--trials", "40", "--seed", "10")
    assert out3 != out1


def test_check_with_model(capsys, model_file):
    code, out, _ = run_cli(capsys, "check", "--law", "function",
                           "--model", model_file, "--trials", "4", "--seed", "0")
    assert code == 0
    assert "result: PASS" in out


def test_check_formula_law_needs_relations(capsys, tmp_path):
    p = tmp_path / "norel.json"
    p.write_text(json.dumps({"entities": ["e1"], "constants": {"a": "e1"}}))
    code, _, err = run_cli(capsys, "check", "--law", "formula",
                           "--model", str(p), "--trials", "2")
    assert code == 2


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_check_rejects_runs_without_checks(capsys, trials):
    code, out, err = run_cli(capsys, "check", "--law", "sets", "--trials", trials)
    assert code == 2
    assert out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


def test_check_rejects_unknown_law(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--law", "nonsense"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# sim


def test_sim_orthogonal(capsys):
    code, out, _ = run_cli(capsys, "sim", "1,0", "0,1")
    assert code == 0
    assert out == "0.000000000\n"


def test_sim_identical(capsys):
    code, out, _ = run_cli(capsys, "sim", "1,2,3", "1,2,3")
    assert code == 0
    assert out == "1.000000000\n"


def test_sim_nine_decimal_places(capsys):
    code, out, _ = run_cli(capsys, "sim", "1,0", "1,1")
    assert code == 0
    assert out.strip() == f"{2 ** -0.5:.9f}"


def test_sim_zero_vector(capsys):
    code, _, err = run_cli(capsys, "sim", "0,0", "1,0")
    assert code == 2


def test_sim_malformed_vector(capsys):
    code, _, err = run_cli(capsys, "sim", "1,x", "1,0")
    assert code == 2


@pytest.mark.parametrize("u", ["nan,1", "inf,1", "1,-inf"])
def test_sim_rejects_non_finite(capsys, u):
    code, out, err = run_cli(capsys, "sim", u, "1,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sim_dimension_mismatch(capsys):
    code, _, err = run_cli(capsys, "sim", "1,0,0", "1,0")
    assert code == 2


# ---------------------------------------------------------------------------
# config plumbing


def test_parse_args_defaults():
    cfg = _parse_args(["check", "--law", "chain"])
    assert cfg == RunConfig(command="check", law="chain", trials=1000, seed=0)


def test_format_matrix_rows():
    import numpy as np
    assert format_matrix(np.array([[1, 0], [0, 1]])) == "1 0\n0 1"
