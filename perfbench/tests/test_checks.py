"""Self-test of the benchmark's checker: a check that cannot fail is a bug.

Each output check is fed a real output, which must pass, and corrupted
copies of it (a flipped bit, a changed report line, a wrong matrix column),
which must be flagged and counted as failed requests.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import semlink.cli
import semlink.homomorphism
import semlink.laws
import semlink.model
from checks import DigestBook, Tally, check_law_report, check_text
from conftest import BENCH_DIR, ROOT
from tracer import LAYER_LABELS, Tracer
from worker import drive
from workloads import CLI_KINDS, Cli, EvalModel, FormulaRandom, LiftLaws, Request


def flip_first_bit(text: str, after: str) -> str:
    """Flip the first 0/1 digit that follows `after`."""
    i = text.index(after) + len(after)
    while text[i] not in "01":
        i += 1
    return text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1:]


@pytest.fixture
def cli(tmp_path):
    return Cli(7, str(tmp_path), os.path.join(ROOT, "src"))


def cli_request(cli, kind: str, cycle: int = 0) -> Request:
    return cli.request(cycle * len(CLI_KINDS) + CLI_KINDS.index(kind))


# ---------------------------------------------------------------------------
# law reports


@pytest.mark.parametrize("law,trials,expected", [("formula", 5, 5), ("sets", 4, 40),
                                                 ("chain", 6, None)])
def test_law_report_check(law, trials, expected):
    text = semlink.laws.run_law(law, 11, trials).render()
    problems, checks = check_law_report(text, law, 11, trials, expected)
    assert problems == [] and checks > 0
    corrupted = [
        text.replace("result: PASS", "result: FAIL"),
        text.replace("failures: 0", "failures: 1"),
        text.replace(f"checks: {checks}", f"checks: {checks + 1}") if expected else
        text.replace(f"checks: {checks}", "checks: 0"),
        text.replace("seed: 11", "seed: 12"),
        text.replace(f"law: {law}", "law: function"),
        text.replace("result: PASS\n", "counterexample: x\nresult: PASS\n"),
        text[: text.index("checks:")] + text[text.index("failures:"):],
    ]
    for bad in corrupted:
        assert bad != text
        assert check_law_report(bad, law, 11, trials, expected)[0], bad


def test_zero_check_pass_is_flagged():
    text = semlink.laws.run_law("formula", 0, 0).render()
    assert "result: PASS" in text
    assert check_law_report(text, "formula", 0, 0, None)[0]


# ---------------------------------------------------------------------------
# eval against the reference evaluator


def test_eval_model_outputs_pass_and_corruptions_are_flagged(tmp_path):
    w = EvalModel(5, str(tmp_path))
    kinds = set()
    for i in range(300):
        req = w.request(i)
        problems, checks, text = w.check(req, w.run(req))
        assert problems == [] and checks == 1, problems
        kinds.add(text.split("\n")[0].split(": ")[1].isdigit())
        ext, vec, agree = w.run(req)
        flipped = vec.copy()
        flipped[0] = 1 - flipped[0]
        assert w.check(req, (ext, flipped, agree))[0]
        assert w.check(req, (ext, vec, not agree))[0]
        other = "e1" if ext != "e1" else "e2"
        assert w.check(req, (other if not ext.isdigit() else str(1 - int(ext)), vec, agree))[0]
    assert kinds == {True, False}  # both formulas and entity terms were drawn


def test_cli_eval_check(cli):
    for cycle in range(5):
        req = cli_request(cli, "eval", cycle)
        out = cli.run_in_process(req)
        assert cli.check(req, out)[0] == []
        code, stdout, err = out
        assert cli.check(req, (code, flip_first_bit(stdout, "vector: "), err))[0]
        assert cli.check(req, (1, stdout, err))[0]


# ---------------------------------------------------------------------------
# synth, lift, check and sim through the cli


@pytest.mark.parametrize("kind", ["synth", "synth_wide"])
def test_synth_matrix_check(cli, kind):
    req = cli_request(cli, kind)
    code, stdout, err = cli.run_in_process(req)
    assert cli.check(req, (code, stdout, err))[0] == []
    top, bottom = stdout.split("\n")[:2]
    cols = list(zip(top.split(), bottom.split()))
    j = len(cols) // 3
    cols[j] = cols[j][::-1]  # wrong column: the negated output
    wrong = " ".join(a for a, _ in cols) + "\n" + " ".join(b for _, b in cols) + "\n"
    assert cli.check(req, (code, wrong, err))[0]
    assert cli.check(req, (code, flip_first_bit(stdout, ""), err))[0]


@pytest.mark.parametrize("kind", ["lift_function", "lift_relation", "sim"])
def test_lift_and_sim_checks(cli, kind):
    for cycle in range(3):
        req = cli_request(cli, kind, cycle)
        code, stdout, err = cli.run_in_process(req)
        assert cli.check(req, (code, stdout, err))[0] == []
        assert cli.check(req, (code, flip_first_bit(stdout, "\n" if kind != "sim" else "."),
                               err))[0]


def test_cli_check_report(cli):
    req = cli_request(cli, "check")
    code, stdout, err = cli.run_in_process(req)
    problems, checks, _ = cli.check(req, (code, stdout, err))
    assert problems == [] and checks == 20
    assert cli.check(req, (code, stdout.replace("checks: 20", "checks: 19"), err))[0]


def test_cli_subprocess_reports_own_peak(cli):
    req = cli_request(cli, "sim")
    out = cli.run(req)
    assert cli.check(req, out)[0] == []
    assert 5_000 < cli.peak_kb["sim"] < 500_000


# ---------------------------------------------------------------------------
# digests and failure counting


def test_digest_book_flags_changed_output_across_runs(tmp_path):
    path = str(tmp_path / "digests.json")
    book = DigestBook("formula-random", path)
    assert book.check(3, "law: formula\n") == []
    assert book.check(3, "law: formula\n") == []
    assert book.check(3, "law: formulb\n")
    assert book.merge() == {}
    same, changed = DigestBook("formula-random", path), DigestBook("formula-random", path)
    same.check(3, "law: formula\n")
    changed.check(3, "law: formula \n")
    changed.check(4, "law: formula\n")
    assert same.merge() == {}
    assert list(changed.merge()) == [("formula-random", 3)]
    with open(path) as fh:
        assert sorted(json.load(fh)) == ["3", "4"]


def test_merge_problems_count_as_failed_requests(tmp_path):
    path = str(tmp_path / "digests.json")
    w = FormulaRandom(4, str(tmp_path))
    first = DigestBook("formula-random", path)
    drive(w, w.run, Tally(), first, count=3)
    first.merge()
    with open(path) as fh:
        recorded = json.load(fh)
    recorded["2"] = "0" * 16
    with open(path, "w") as fh:
        json.dump(recorded, fh)
    tally, book = Tally(), DigestBook("formula-random", path)
    drive(w, w.run, tally, book, count=3)
    for key, problem in book.merge().items():
        tally.flag(key, problem)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "request 2" in tally.problems[0]


class Corrupting:
    """A workload whose outputs are corrupted before they are checked."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt
        self.request, self.check = inner.request, inner.check

    def run(self, req):
        return self.corrupt(self.inner.run(req))


class FailedReport:
    def __init__(self, report):
        self.report = report

    def render(self):
        return self.report.render().replace("failures: 0", "failures: 1")


@pytest.mark.parametrize("corrupt", [FailedReport, lambda r: 1 / 0])
def test_failed_requests_are_counted(tmp_path, corrupt):
    w = Corrupting(LiftLaws(2, str(tmp_path)), corrupt)
    tally = Tally()
    drive(w, w.run, tally, DigestBook("lift-laws", None), count=6)
    assert (tally.attempted, tally.failed, tally.failed_ratio) == (6, 6, 1.0)
    assert tally.problems


def test_changed_digest_fails_the_request(tmp_path):
    w = FormulaRandom(4, str(tmp_path))
    book, tally = DigestBook("formula-random", None), Tally()
    drive(w, w.run, tally, book, count=3)
    book.seen[1] = "0" * 16
    drive(w, w.run, tally, book, count=3)
    assert (tally.attempted, tally.failed) == (6, 1)


# ---------------------------------------------------------------------------
# tracer


def test_tracer_patches_every_binding_and_restores():
    originals = {(mod, name): getattr(mod, name) for mod, name in [
        (semlink.model, "denote"), (semlink.laws, "denote"), (semlink.homomorphism, "denote"),
        (semlink.cli, "denote"), (semlink.cli, "load_model"), (semlink.cli, "parse_term"),
        (semlink.cli, "infer_type"), (semlink, "denote")]}
    with Tracer() as tracer:
        wrapped = semlink.model.denote
        assert wrapped is not originals[(semlink.model, "denote")]
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn
            assert getattr(mod, name).__wrapped__ is fn
        assert semlink.cli.denote is wrapped and semlink.laws.denote is wrapped
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    assert len(tracer.labels) == 1 + len(LAYER_LABELS)


def test_traced_calls_through_cli_are_attributed(cli):
    with Tracer() as tracer:
        cli.run_in_process(cli_request(cli, "eval"))
    spans = tracer.self_times()
    for label in ("cli.main", "model.load_model", "terms.parse_term", "terms.infer_type",
                  "model.denote", "homomorphism.vector_denote"):
        assert spans[label][0] >= 1, label


def test_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    traced_leaf = tracer.wrap(leaf, "leaf")

    def outer():
        return traced_leaf() + traced_leaf()

    traced_outer = tracer.wrap(outer, "outer")
    span = tracer.begin_request(0)
    traced_outer()
    tracer.end_request(span)
    times = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    assert times["leaf"][0] == 2 and times["outer"][0] == 1
    assert sum(ns for _, ns in times.values()) == total
    assert times["leaf"][1] > times["outer"][1]


# ---------------------------------------------------------------------------
# the benchmark contract


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, section):
    proc = run_bench(ROOT, "--workload", "formula-random", "--seed", "9",
                     "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in bench_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cli", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
