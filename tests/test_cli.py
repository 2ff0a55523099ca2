"""Command line behavior: output formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import semlink
from semlink import cli
from semlink import veclogic as vl
from semlink.cli import _parse_args, format_matrix, main
from semlink.terms import MAX_NESTING

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


def _two_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_limited(*args):
    """python with args in a child process that may map at most 2 GiB, so that
    input which makes semlink reach for 2^arity or d^arity cells fails there
    instead of taking the memory of the whole machine."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(semlink.__file__)))
    proc = subprocess.run([sys.executable, *args], env=env, timeout=120,
                          capture_output=True, text=True, preexec_fn=_two_gib_address_space)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_limited(*argv):
    return run_limited("-m", "semlink.cli", *argv)


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


def test_synth_arity_16(capsys):
    # 2^16 columns: one column of output per table entry, no 2^n x 2^n basis
    code, out, _ = run_cli(capsys, "synth", "--table", "0" * 65536, "--arity", "16")
    assert code == 0
    rows = out.splitlines()
    assert [row.split() for row in rows] == [["0"] * 65536, ["1"] * 65536]


@pytest.mark.parametrize("arity,line", [
    ("100000000000", "error: a bitstring of length 2 is a table of arity 1, not 100000000000\n"),
    ("100000", "error: a bitstring of length 2 is a table of arity 1, not 100000\n"),
])
def test_synth_checks_a_huge_arity_without_computing_2_to_the_arity(arity, line):
    # 1 << arity used to come first: a MemoryError, or an error on converting
    # a 30,000-digit integer to a string
    assert run_cli_limited("synth", "--table", "10", "--arity", arity) == (2, "", line)


def test_truth_table_checks_a_huge_arity_without_computing_2_to_the_arity():
    # 1 << arity used to come before the shape check: a MemoryError
    code = ("import numpy as np\n"
            "from semlink.veclogic import TruthTable\n"
            "try:\n"
            "    TruthTable(10**11, np.zeros(2))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    assert run_limited("-c", code) == (
        0, "table for arity 100000000000 needs 2^100000000000 outputs, got (2,)\n", "")


def test_op_matrix_checks_a_huge_arity_without_computing_2_to_the_arity():
    # 1 << arity used to come before the shape check: a MemoryError
    code = ("import numpy as np\n"
            "from semlink.veclogic import OpMatrix\n"
            "try:\n"
            "    OpMatrix(10**11, np.zeros((2, 2)))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    assert run_limited("-c", code) == (
        0, "operator of arity 100000000000 must be 2 x 2^100000000000, got (2, 2)\n", "")


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


@pytest.mark.parametrize("text", [
    '["a"]', '{"entities": "abc"}', '{"entities": [["a"]]}', '{"entities": ["a", 1]}',
    '{"entities": ["a"], "constants": {"c": ["a"]}}',
    '{"entities": ["a"], "relations": {"P": {"arity": 1, "tuples": [["a"], 5]}}}',
    '{"entities": ["a"], "functions": {"f": {"arity": 1, "table": [7]}}}',
])
def test_eval_model_of_wrong_shape(capsys, tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = run_cli(capsys, "eval", "--model", str(p), "--expr", "a")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tuples", ['"ab"', '["ab"]'])
def test_lift_rejects_string_tuples(capsys, tmp_path, tuples):
    # a string used to load as a sequence of one-letter entity ids
    p = tmp_path / "bad.json"
    p.write_text('{"entities": ["a", "b"], "relations": {"P": {"arity": %d, "tuples": %s}}}'
                 % (2 if tuples.startswith("[") else 1, tuples))
    code, out, err = run_cli(capsys, "lift", "--model", str(p), "--relation", "P")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("arity", ["1.7", "true", '"x"'])
def test_model_arity_must_be_a_json_integer(capsys, tmp_path, arity):
    # 1.7 and true used to load as arity 1, "x" to fail without naming the symbol
    p = tmp_path / "bad.json"
    p.write_text('{"entities": ["a"], "relations": {"P": {"arity": %s, "tuples": [["a"]]}}}' % arity)
    code, out, err = run_cli(capsys, "lift", "--model", str(p), "--relation", "P")
    assert (code, out) == (2, "")
    assert err == f'error: relation \'P\': "arity" must be an integer, got {json.loads(arity)!r}\n'


# a function of arity 40 over two entities: its totality check used to build
# the set of all 2^40 argument tuples
WIDE_EMPTY = {"entities": ["e1", "e2"], "constants": {"a": "e1"},
              "functions": {"f": {"arity": 40, "table": []}}}
WIDE_ONE_ROW = {"entities": ["e1", "e2"], "constants": {"a": "e1"},
                "functions": {"f": {"arity": 40, "table": [["e1"] * 41]}}}


@pytest.mark.parametrize("argv", [["eval", "--expr", "a"], ["lift", "--function", "f"],
                                  ["check", "--law", "function", "--trials", "1"]])
@pytest.mark.parametrize("data,line", [
    (WIDE_EMPTY, "error: function 'f' is not total: its table is empty\n"),
    (WIDE_ONE_ROW, f"error: function 'f' is not total: no entry for {['e1'] * 39 + ['e2']!r}\n"),
], ids=["empty", "one-row"])
def test_wide_function_table_is_checked_without_enumerating_it(tmp_path, argv, data, line):
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(data))
    assert run_cli_limited(*argv, "--model", str(p)) == (2, "", line)


HUGE_RELATION = {"entities": ["e1"], "constants": {"a": "e1"},
                 "relations": {"P": {"arity": 100000000000, "tuples": []}}}


@pytest.mark.parametrize("argv", [["lift", "--relation", "P"],
                                  ["check", "--law", "relation", "--trials", "1"],
                                  ["check", "--law", "formula", "--trials", "1"]])
def test_relation_arity_is_bounded_at_load(tmp_path, argv):
    # lift and the relation law used to enumerate the tuples of such a relation
    # (a MemoryError), and the formula law built an application of 10^11 arguments
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(HUGE_RELATION))
    assert run_cli_limited(*argv, "--model", str(p)) == (
        2, "", "error: relation 'P' has arity 100000000000, above the cap of 20\n")


WIDE_RELATION = {"entities": [f"e{i}" for i in range(1, 8)], "constants": {"a": "e1"},
                 "relations": {"P": {"arity": 20, "tuples": []}}}


@pytest.mark.parametrize("argv", [["eval", "--expr", "P(" + ",".join(["a"] * 20) + ")"],
                                  ["lift", "--relation", "P"],
                                  ["check", "--law", "relation", "--trials", "1"],
                                  ["check", "--law", "formula", "--trials", "1"]])
def test_relation_tuple_count_is_bounded_at_load(tmp_path, argv):
    # an arity within the cap over 7 entities is 7^20 tuples, which the
    # relation law and lift used to enumerate until they were killed
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(WIDE_RELATION))
    assert run_cli_limited(*argv, "--model", str(p)) == (
        2, "", "error: relation 'P' has 7^20 tuples, above the cap of 2^20\n")


def test_eval_of_a_20_ary_predicate_agrees_on_both_routes(capsys, tmp_path):
    # at the arity cap the relation's tensor view has 21 axes, one per argument
    member = ["a", "b"] * 10
    p = tmp_path / "deep.json"
    p.write_text(json.dumps({"entities": ["e1", "e2"], "constants": {"a": "e1", "b": "e2"},
                             "relations": {"P": {"arity": 20, "tuples": [
                                 ["e1", "e2"] * 10, ["e2"] * 20]}}}))
    for args, bit, vec in [(member, 1, "1 0"), (["b"] * 20, 1, "1 0"),
                           (member[::-1], 0, "0 1"), (["a"] * 20, 0, "0 1")]:
        expr = f"and(P({','.join(args)}),not(not(P({','.join(args)}))))"
        assert run_cli(capsys, "eval", "--model", str(p), "--expr", expr) == (
            0, f"extensional: {bit}\nvector: {vec}\nagree: yes\n", "")


# a unary function over 1,449 entities lifts to a 1449 x 1449 matrix, just
# over the 2 x 2^20 entries of the largest operator or relation matrix
WIDE_FUNCTION = {"entities": [f"e{i}" for i in range(1449)], "constants": {"a": "e0"},
                 "functions": {"f": {"arity": 1, "table": [[f"e{i}", "e0"] for i in range(1449)]}}}


@pytest.mark.parametrize("argv", [["eval", "--expr", "f(a)"], ["lift", "--function", "f"]])
def test_function_matrix_is_bounded_at_load(tmp_path, argv):
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(WIDE_FUNCTION))
    assert run_cli_limited(*argv, "--model", str(p)) == (
        2, "", "error: function 'f' lifts to a 1449 x 1449^1 matrix, "
               "above the cap of 2 x 2^20 entries\n")


def _nested(depth):
    """A formula of nesting depth `depth`: nots around P(a)."""
    return "not(" * (depth - 1) + "P(a)" + ")" * (depth - 1)


@pytest.mark.parametrize("expr", [_nested(MAX_NESTING),
                                  "P(" + "f(" * (MAX_NESTING - 1) + "a" + ")" * MAX_NESTING])
def test_eval_at_the_nesting_limit(capsys, model_file, expr):
    code, out, _ = run_cli(capsys, "eval", "--model", model_file, "--expr", expr)
    assert code == 0
    assert "agree: yes" in out


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_eval_past_the_nesting_limit(capsys, model_file, depth):
    code, out, err = run_cli(capsys, "eval", "--model", model_file, "--expr", _nested(depth))
    assert code == 2
    assert out == ""
    assert err.startswith("error: expression nests deeper than 256 levels")


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


LIFT_MODEL = {"entities": ["e1", "e2", "e3"], "relations": {
    "R": {"arity": 2, "tuples": [["e1", "e2"], ["e3", "e3"]]},
    "T": {"arity": 3, "tuples": [["e1", "e2", "e3"], ["e2", "e2", "e1"], ["e3", "e1", "e1"]]}}}


def test_lift_relation_tables_byte_for_byte(capsys, tmp_path):
    # tests/data/lift_relation_tables.txt was captured while lift --relation
    # still asked the lift one tuple at a time
    p = tmp_path / "model.json"
    p.write_text(json.dumps(LIFT_MODEL))
    outs = []
    for name in ("R", "T"):
        code, out, err = run_cli(capsys, "lift", "--model", str(p), "--relation", name)
        assert (code, err) == (0, "")
        outs.append(out)
    golden = Path(__file__).parent / "data" / "lift_relation_tables.txt"
    assert "".join(outs) == golden.read_text()


def test_eval_outputs_byte_for_byte(capsys, tmp_path):
    # tests/data/eval_outputs.txt holds a model, then for each expression the
    # exit code and stdout of `semlink eval`, captured while both routes still
    # wrapped every node's value and applied matrices to Kronecker folds
    model, *cases = (Path(__file__).parent / "data" / "eval_outputs.txt").read_text().split("\n\n")
    p = tmp_path / "model.json"
    p.write_text(model.removeprefix("model "))
    assert len(cases) > 190
    for case in cases:
        expr, code, *out = case.rstrip("\n").split("\n")
        got, stdout, _ = run_cli(capsys, "eval", "--model", str(p), "--expr", expr.removeprefix("$ "))
        assert (f"exit {got}", stdout) == (code, "".join(line + "\n" for line in out)), expr


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


def test_check_formula_law_needs_constants(capsys, tmp_path):
    # every closed formula ends in constants; the law used to draw from the
    # empty list and print "error: empty range [0, 0)"
    p = tmp_path / "noconst.json"
    p.write_text(json.dumps({"entities": ["e1"], "relations": {"P": {"arity": 1, "tuples": []}}}))
    code, out, err = run_cli(capsys, "check", "--law", "formula", "--model", str(p), "--trials", "2")
    assert (code, out, err) == (2, "", "error: signature has no constants to build terms from\n")


@pytest.mark.parametrize("law,model,lacking", [
    ("function", {"entities": ["e1"], "relations": {"P": {"arity": 1, "tuples": []}}},
     "no functions"),
    ("relation", {"entities": ["e1"], "functions": {"f": {"arity": 1, "table": [["e1", "e1"]]}}},
     "no relations"),
    ("chain", {"entities": ["e1"], "functions": {"g": {"arity": 2, "table": [["e1", "e1", "e1"]]}}},
     "no unary functions"),
])
def test_check_model_must_have_the_law_symbols(capsys, tmp_path, law, model, lacking):
    # such a model used to be ignored in favour of random structures
    p = tmp_path / "m.json"
    p.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "check", "--law", law, "--model", str(p), "--trials", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: model declares " + lacking)


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_check_rejects_runs_without_checks(capsys, trials):
    code, out, err = run_cli(capsys, "check", "--law", "sets", "--trials", trials)
    assert code == 2
    assert out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


def test_check_rejects_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "check", "--law", "formula", "--seed", "-1")
    assert (code, out, err) == (2, "", "error: expected non-negative integer\n")


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u,v", [("1e308,1e308", "1e308,1e308"), ("1e-320,0", "1,0"),
                                 ("-1e308,1e308", "-1e308,1e308")])
def test_sim_at_the_ends_of_the_float_range(capsys, u, v):
    code, out, err = run_cli(capsys, "sim", "--", u, v)
    assert (code, out, err) == (0, "1.000000000\n", "")


@pytest.mark.parametrize("argv,value", [(("-1,0", "1,0"), "-1"), (("1,0", "-1,0"), "-1"),
                                        (("-1,0", "-1e0,-0"), "1"), (("--", "-1,0", "1,0"), "-1")])
def test_sim_takes_vectors_with_a_leading_minus(capsys, argv, value):
    # -1,0 used to be read as an unknown option
    code, out, err = run_cli(capsys, "sim", *argv)
    assert (code, out, err) == (0, f"{value}.000000000\n", "")


def test_sim_help_still_works(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "-h"])
    assert exc.value.code == 0
    assert "usage: semlink sim" in capsys.readouterr().out


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
# exit codes


def test_internal_error_is_exit_3_not_a_disagreement(capsys, monkeypatch):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "_cmd_sim", broken)
    code, out, err = run_cli(capsys, "sim", "1,0", "1,0")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: KeyError('lost') at test_cli.py:") and err.count("\n") == 1


def test_formula_law_disagreement_is_exit_1_not_malformed_input(capsys, monkeypatch):
    # the law used to project the vector route's result, and a result that is
    # no truth vector at all ended in exit 2, "error: not a truth vector"
    monkeypatch.setattr(vl, "apply_operator", lambda op, args: np.zeros(2, dtype=np.int64))
    code, out, err = run_cli(capsys, "check", "--law", "formula", "--trials", "20")
    assert (code, err) == (1, "")
    assert "\ncounterexample: trial " in out and "vector route [0, 0]" in out
    assert out.endswith("result: FAIL\n")


# ---------------------------------------------------------------------------
# config plumbing


def test_parse_args_defaults():
    args = _parse_args(["check", "--law", "chain"])
    assert (args.command, args.model, args.law, args.trials, args.seed) == (
        "check", None, "chain", 1000, 0)


def test_format_matrix_rows():
    import numpy as np
    assert format_matrix(np.array([[1, 0], [0, 1]])) == "1 0\n0 1"


# ---------------------------------------------------------------------------
# fuzzing: malformed input is exit 2, never a traceback or a disagreement


def _main_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line with 2
            return exc.code


FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

ids = st.sampled_from(["e1", "e2", "e3", "a"])
# one sampled_from, so that junk is a single branch of each union below
junk = st.sampled_from([None, -1, 0, 2, 1.5, True, "", "x", [1], {}])
rows = st.lists(ids, max_size=4) | junk
arities = st.integers(-1, 3) | junk


def _symbols(key):
    entries = st.fixed_dictionaries({"arity": arities, key: st.lists(rows, max_size=9) | junk})
    return st.dictionaries(st.sampled_from(["f", "g", "P", "R"]), entries | junk,
                           min_size=1, max_size=2) | junk


def _with(path, value):
    """MODEL with the entry at path replaced by value."""
    data = json.loads(json.dumps(MODEL))
    *keys, last = path
    reduce(dict.__getitem__, keys, data)[last] = value
    return data


# models near MODEL reach the lifts and the laws; free-form ones mostly the loader
models = st.one_of(
    st.builds(_with, st.sampled_from([("entities",), ("constants", "a"), ("functions", "f", "arity"),
                                      ("functions", "f", "table"), ("relations", "P", "arity"),
                                      ("relations", "R", "tuples")]),
              arities | rows | st.lists(rows, max_size=4)),
    st.fixed_dictionaries({
        "entities": st.lists(ids, min_size=1, max_size=3, unique=True) | junk,
        "constants": st.dictionaries(st.sampled_from(["a", "b"]), ids | junk, max_size=2) | junk,
        "functions": _symbols("table"), "relations": _symbols("tuples")}),
    junk)


@FUZZ
@given(st.text(alphabet="abcxfgPRnotandifcd(), ", max_size=30))
def test_fuzz_expressions(model_file, text):
    assert _main_quietly(["eval", "--model", model_file, "--expr", text]) in (0, 2)


@FUZZ
@given(models, st.sampled_from([["eval", "--expr", "P(a)"], ["lift", "--function", "f"],
                                ["lift", "--relation", "P"],
                                *(["check", "--law", law, "--trials", "2"] for law in
                                  ("function", "relation", "chain", "formula"))]))
def test_fuzz_model_files(tmp_path, data, argv):
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(data))
    assert _main_quietly([*argv, "--model", str(p)]) in (0, 2)


@FUZZ
@given(st.text(alphabet="01x", max_size=40), st.none() | st.integers(-2, 6))
def test_fuzz_synth(bits, arity):
    argv = ["synth", "--table", bits] + ([] if arity is None else ["--arity", str(arity)])
    assert _main_quietly(argv) in (0, 2)


vector_texts = (st.lists(st.floats() | st.integers(-2, 2), min_size=1, max_size=3).map(
    lambda xs: ",".join(map(str, xs))) | st.text(alphabet="0123456789.,-+einf", min_size=1, max_size=12))


@FUZZ
@given(vector_texts, vector_texts)
def test_fuzz_sim(u, v):
    # two finite nonzero vectors of one length have a similarity; all else is exit 2
    try:
        a, b = ([float(x) for x in w.split(",")] for w in (u, v))
        defined = len(a) == len(b) and all(map(math.isfinite, a + b)) and any(a) and any(b)
    except ValueError:
        defined = False
    assert _main_quietly(["sim", u, v]) == (0 if defined else 2)
