"""The law suites' random streams, pinned.

Draws is pinned draw for draw to numpy's Generator.integers.  And
tests/data/formula_stream_20_trials.txt holds every model and formula the
formula law draws for seeds 0-9 at 20 trials: a passing formula report
reads "checks: 20" whatever was drawn, so the golden law reports cannot see
this stream; the file can.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semlink import laws
from semlink import sampling as sp
from semlink.terms import Signature, children, pretty, subterms

FORMULA_STREAM = Path(__file__).parent / "data" / "formula_stream_20_trials.txt"


def render_model(model) -> list[str]:
    lines = [f"entities: {' '.join(model.entities)}"]
    for name, fn in sorted(model.functions.items()):
        # a total table: its rows sorted are every argument tuple in order
        outputs = " ".join(out for _, out in sorted(fn.table.items()))
        lines.append(f"function {name}/{fn.arity}: {outputs}")
    for name, rel in sorted(model.relations.items()):
        tuples = " ".join(",".join(t) for t in sorted(rel.tuples))
        lines.append(f"relation {name}/{rel.arity}: {tuples}")
    return lines


class _Recording:
    """laws' view of the sampling module, noting each model and formula the
    law draws; recursive draws inside sampling do not pass through it."""

    def __init__(self, lines: list[str]):
        self.lines = lines

    def __getattr__(self, name):
        return getattr(sp, name)

    def random_model(self, *args, **kwargs):
        model = sp.random_model(*args, **kwargs)
        self.lines += render_model(model)
        return model

    def random_formula(self, *args, **kwargs):
        formula = sp.random_formula(*args, **kwargs)
        self.lines.append(f"formula: {pretty(formula)}")
        return formula


def test_formula_stream_matches_pinned_file(monkeypatch, tables):
    # what run_law("formula", seed, 20) draws, model by model
    lines: list[str] = []
    monkeypatch.setattr(laws, "sp", _Recording(lines))
    for seed in range(10):
        lines.append(f"seed {seed}")
        assert laws.run_law("formula", seed, 20).ok
    assert "\n".join(lines) + "\n" == FORMULA_STREAM.read_text()


# ---------------------------------------------------------------------------
# Draws against numpy


def test_draws_refuses_a_negative_seed():
    # numpy's own message, "expected non-negative integer", named no seed
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
        sp.Draws(-1)
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -3$"):
        laws.run_law("function", -3, 5)


# no draw, small spans, 5 (whose threshold rejects a few words in 2^32), heavy
# rejection (almost half of all words are rejected for 2^31 + 1), the largest
# Lemire span, and the raw 32-bit word
BELOW_SPANS = (1, 2, 3, 5, 2**31 + 1, 2**32 - 1, 2**32)

below_calls = st.one_of(st.sampled_from(BELOW_SPANS),
                        st.tuples(st.integers(-2**40, 2**40), st.sampled_from(BELOW_SPANS)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**128), st.lists(below_calls, min_size=1, max_size=12),
       st.integers(1, 1600))
def test_below_equals_numpy_generator_integers(seed, pattern, count):
    # below(n) against integers(n), interleaved with README's draw from [lo, hi),
    # lo + below(hi - lo), against integers(lo, hi) on the same stream; runs of
    # up to 1600 draws cross several buffer refills
    want = np.random.Generator(np.random.PCG64(seed))
    got = sp.Draws(seed)
    for k in range(count):
        call = pattern[k % len(pattern)]
        if isinstance(call, tuple):
            low, span = call
            assert low + got.below(span) == int(want.integers(low, low + span)), (k, call)
        else:
            drawn = got.below(call)
            assert type(drawn) is int and drawn == int(want.integers(call)), (k, call)


@pytest.mark.parametrize("n,error", [
    (0, ValueError), (-1, ValueError), (2**32 + 1, ValueError), (2.5, TypeError)])
def test_below_refuses_what_it_does_not_reproduce(n, error):
    got, want = sp.Draws(9), np.random.Generator(np.random.PCG64(9))
    with pytest.raises(error):
        got.below(n)
    if error is ValueError:  # a refused int leaves the stream where it was; a float takes a word
        assert [got.below(7) for _ in range(600)] == want.integers(7, size=600).tolist()


class _NoDraws:
    def below(self, n):
        raise AssertionError("drew before refusing the signature")


@pytest.mark.parametrize("constants,predicates,message", [
    ([], {"P": 1}, "signature has no constants to build terms from"),
    (["a"], {}, "signature has no predicates to build formulas from"),
    # the predicates are asked for first
    ([], {}, "signature has no predicates to build formulas from"),
])
@pytest.mark.parametrize("read_first", [False, True], ids=["fresh", "vocabulary-read"])
def test_samplers_refuse_a_signature_before_drawing(constants, predicates, message, read_first):
    sig = Signature(constants, {"f": 1}, predicates)
    if read_first:
        assert sig._vocabulary[0] == (("f", 1),)  # the samplers' vocabulary is already kept
    with pytest.raises(ValueError) as exc:
        sp.random_formula(_NoDraws(), sig, budget=3)
    assert str(exc.value) == message
    if not sig.constants:
        with pytest.raises(ValueError) as exc:
            sp.random_entity_term(_NoDraws(), sig, budget=3)
        assert str(exc.value) == "signature has no constants to build terms from"
    else:
        assert sp.random_entity_term(sp.Draws(0), sig, budget=0) is sig._vocabulary[2][0]


def test_random_formula_refuses_a_budget_below_1_before_drawing():
    with pytest.raises(ValueError, match="^a formula needs depth budget of at least 1$"):
        sp.random_formula(_NoDraws(), Signature(["a"], {}, {"P": 1}), budget=0)


def test_drawn_terms_share_the_signature_nodes():
    sig = Signature(["a", "b"], {"f": 2}, {"P": 1})
    nodes = set(map(id, sig._vocabulary[2]))
    for seed in range(20):
        for term in (sp.random_formula(sp.Draws(seed), sig, budget=4),
                     sp.random_entity_term(sp.Draws(seed), sig, budget=3)):
            leaves = [t for _, t in subterms(term) if not children(t)]
            assert leaves and all(id(leaf) in nodes for leaf in leaves)
