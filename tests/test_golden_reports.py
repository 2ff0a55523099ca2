"""Law reports pinned byte for byte against a golden file.

tests/data/law_reports_20_trials.txt holds run_law(law, seed, 20).render()
for every law and seeds 0-9, concatenated law by law.  It was captured
before the term evaluators were folded into one recursion, so it pins that
refactor and every later one to the same draws, checks and verdicts.
"""

from pathlib import Path

from semlink.laws import LAWS, run_law

GOLDEN = Path(__file__).parent / "data" / "law_reports_20_trials.txt"


def test_law_reports_match_golden_file():
    got = "".join(run_law(law, seed, 20).render() for law in LAWS for seed in range(10))
    assert got == GOLDEN.read_text()
