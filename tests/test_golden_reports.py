"""Law reports pinned byte for byte against golden files.

tests/data/law_reports_20_trials.txt holds run_law(law, seed, 20).render()
for every law and seeds 0-9, concatenated law by law.  It was captured
before the term evaluators were folded into one recursion, so it pins that
refactor and every later one to the same draws, checks and verdicts.

tests/data/law_reports_fixed_model_20_trials.txt pins the `--model` branch
of every law: for each seed k in 0-9, the model random_model(Draws(k), 4),
then run_law(law, k, 20, model).render() for every law, or "error: " and the
message of a law that refuses the model.

Both are also read after model.reset_tables() empties the process-wide
tables and again once every law has filled the lift tables of its kept maps.

tests/data/check_reports_100_trials.txt holds the output of `semlink check
--law L --seed S --trials 100` for every law and seeds 0-9, one process
each; run_law renders the same reports in process, after a reset and warm.
"""

from pathlib import Path

from semlink.laws import LAWS, run_law
from semlink.model import reset_tables
from semlink.sampling import Draws, random_model

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "law_reports_20_trials.txt"
GOLDEN_FIXED_MODEL = DATA / "law_reports_fixed_model_20_trials.txt"
CHECK_REPORTS = DATA / "check_reports_100_trials.txt"


def law_reports() -> str:
    return "".join(run_law(law, seed, 20).render() for law in LAWS for seed in range(10))


def test_law_reports_match_golden_file():
    assert law_reports() == GOLDEN.read_text()


def fixed_model_reports() -> str:
    out = []
    for seed in range(10):
        model = random_model(Draws(seed), n_entities=4)
        for law in LAWS:
            try:
                out.append(run_law(law, seed, 20, model).render())
            except ValueError as exc:
                out.append(f"error: {exc}\n")
    return "".join(out)


def test_fixed_model_law_reports_match_golden_file():
    assert fixed_model_reports() == GOLDEN_FIXED_MODEL.read_text()


def test_golden_files_match_from_empty_and_full_lift_tables():
    # every law's kept maps keep their lifts for the process, so every report
    # must read the same whether the tables start empty or full
    reset_tables()
    for tables in ("empty", "full"):
        assert law_reports() == GOLDEN.read_text(), tables
        assert fixed_model_reports() == GOLDEN_FIXED_MODEL.read_text(), tables
        for law in LAWS:  # other seeds' lifts join the tables
            assert run_law(law, 10, 200).ok, law


def test_check_reports_match_the_cli_file_from_empty_and_warm_tables():
    reset_tables()
    for tables in ("empty", "warm"):
        reports = "".join(run_law(law, seed, 100).render() for law in LAWS for seed in range(10))
        assert reports == CHECK_REPORTS.read_text(), tables
