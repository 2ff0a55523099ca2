"""Shared pytest wiring for the suite.

The acceptance tests record one status line per criterion; pytest's
capture would otherwise swallow those lines on passing runs, so they
are replayed in a terminal summary section at the end.

The `tables` fixture runs a test once from each state of the process-wide
tables that every verdict must ignore: "cold", right after
model.reset_tables() as a fresh process has them, and "warm", once every
law has run at seed 10 over 200 trials and the laws' kept maps hold their
bases and entity vectors.  It resets again after the test, so nothing built
under a patch is kept.
"""

import sys

import pytest

from semlink import laws, veclogic as vl
from semlink.model import reset_tables


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture(params=["cold", "warm"])
def tables(request):
    reset_tables()
    if request.param == "warm":
        for law in laws.LAWS:
            assert laws.run_law(law, 10, 200).ok, law
        assert vl.kept_map.cache_info().currsize == 9
        entity = [vl.kept_map(tuple(f"e{i + 1}" for i in range(n)), "entity") for n in (2, 3, 4)]
        assert all(m.basis is not None and m.vectors.keys() == set(m.elements) for m in entity)
        assert all(laws._range_map(d).basis is not None for d in range(1, 6))
    yield
    reset_tables()
