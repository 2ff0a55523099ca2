"""Law reports pinned byte for byte against golden files, from cold and
warm process-wide tables (the `tables` fixture of conftest.py).

tests/data/law_reports_20_trials.txt holds run_law(law, seed, 20).render()
for every law and seeds 0-9, concatenated law by law.  It was captured
before the term evaluators were folded into one recursion, so it pins that
refactor and every later one to the same draws, checks and verdicts.

tests/data/law_reports_fixed_model_20_trials.txt pins the `--model` branch
of every law: for each seed k in 0-9, the model random_model(Draws(k), 4),
then run_law(law, k, 20, model).render() for every law, or "error: " and the
message of a law that refuses the model.

tests/data/check_reports_100_trials.txt holds the output of `semlink check
--law L --seed S --trials 100` for every law and seeds 0-9, one process
each; run_law renders the same reports in process.
"""

from pathlib import Path

from semlink.laws import LAWS, run_law
from semlink.sampling import Draws, random_model

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "law_reports_20_trials.txt"
GOLDEN_FIXED_MODEL = DATA / "law_reports_fixed_model_20_trials.txt"
CHECK_REPORTS = DATA / "check_reports_100_trials.txt"


def test_law_reports_match_the_golden_files(tables):
    assert "".join(run_law(law, seed, 20).render() for law in LAWS for seed in range(10)) \
        == GOLDEN.read_text()
    out = []
    for seed in range(10):
        model = random_model(Draws(seed), n_entities=4)
        for law in LAWS:
            try:
                out.append(run_law(law, seed, 20, model).render())
            except ValueError as exc:
                out.append(f"error: {exc}\n")
    assert "".join(out) == GOLDEN_FIXED_MODEL.read_text()


def test_check_reports_match_the_cli_file(tables):
    reports = "".join(run_law(law, seed, 100).render() for law in LAWS for seed in range(10))
    assert reports == CHECK_REPORTS.read_text()
