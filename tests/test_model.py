"""Model loading, validation, and the denotation recursion."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from semlink.model import (
    EntityVal,
    EvaluationError,
    FunctionInterp,
    Model,
    ModelError,
    RelationInterp,
    TruthVal,
    denote,
    denote_traced,
    load_model,
    model_from_dict,
    variant_assignment,
)
from semlink.sampling import make_rng, random_formula, random_model
from semlink.terms import (
    complexity_depth,
    parse_term,
    pretty,
    replace_at,
    subterms,
    Const,
    FunApp,
    PredApp,
    Var,
)

GOOD = {
    "entities": ["e1", "e2", "e3"],
    "constants": {"a": "e1", "b": "e2"},
    "functions": {
        "f": {"arity": 1, "table": [["e1", "e2"], ["e2", "e3"], ["e3", "e1"]]},
        "g": {"arity": 2, "table": [
            [x, y, "e1" if x == y else "e2"]
            for x in ["e1", "e2", "e3"] for y in ["e1", "e2", "e3"]]},
    },
    "relations": {
        "P": {"arity": 1, "tuples": [["e1"], ["e3"]]},
        "R": {"arity": 2, "tuples": [["e1", "e2"], ["e2", "e3"]]},
    },
}


def good_model():
    return model_from_dict(json.loads(json.dumps(GOOD)))


def test_load_good_model(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(GOOD))
    m = load_model(p)
    assert m.entities == ("e1", "e2", "e3")
    assert m.functions["f"].table[("e2",)] == "e3"
    assert ("e1", "e2") in m.relations["R"].tuples


def test_signature_derived_from_model():
    sig = good_model().signature()
    assert sig.functions == {"f": 1, "g": 2}
    assert sig.predicates == {"P": 1, "R": 2}
    assert set(sig.constants) == {"a", "b"}


def _broken(mutate):
    data = json.loads(json.dumps(GOOD))
    mutate(data)
    return data


def test_non_total_function_rejected():
    data = _broken(lambda d: d["functions"]["f"]["table"].pop())
    with pytest.raises(ModelError, match="not total"):
        model_from_dict(data)


def test_unknown_entity_in_row_named():
    data = _broken(lambda d: d["functions"]["f"]["table"].append(["e9", "e1"]))
    with pytest.raises(ModelError, match=r"e9"):
        model_from_dict(data)


def test_unknown_result_entity_named():
    data = _broken(lambda d: d["functions"]["f"]["table"].__setitem__(0, ["e1", "e9"]))
    with pytest.raises(ModelError, match=r"e9"):
        model_from_dict(data)


def test_duplicate_row_rejected():
    data = _broken(lambda d: d["functions"]["f"]["table"].append(["e1", "e3"]))
    with pytest.raises(ModelError, match="duplicate"):
        model_from_dict(data)


def test_wrong_row_width_rejected():
    data = _broken(lambda d: d["functions"]["f"]["table"].append(["e1", "e2", "e3"]))
    with pytest.raises(ModelError):
        model_from_dict(data)


def test_relation_tuple_errors():
    data = _broken(lambda d: d["relations"]["P"]["tuples"].append(["e9"]))
    with pytest.raises(ModelError, match="e9"):
        model_from_dict(data)
    data = _broken(lambda d: d["relations"]["P"]["tuples"].append(["e1", "e2"]))
    with pytest.raises(ModelError, match="arity"):
        model_from_dict(data)


def test_constant_to_unknown_entity():
    data = _broken(lambda d: d["constants"].__setitem__("a", "e9"))
    with pytest.raises(ModelError, match="e9"):
        model_from_dict(data)


def test_domain_must_be_nonempty_and_unique():
    with pytest.raises(ModelError):
        Model((), {}, {}, {})
    with pytest.raises(ModelError):
        Model(("e1", "e1"), {}, {}, {})


def test_missing_keys():
    with pytest.raises(ModelError):
        model_from_dict({"constants": {}})
    with pytest.raises(ModelError):
        model_from_dict({"entities": ["e1"], "functions": {"f": {"table": []}}})


def test_model_must_be_an_object():
    with pytest.raises(ModelError, match="JSON object"):
        model_from_dict(["a"])


def test_entities_must_be_an_array():
    # a string would otherwise load as one entity per character
    with pytest.raises(ModelError, match="entities"):
        model_from_dict({"entities": "abc"})


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d.__setitem__("entities", [["e1"]]), r"\[\['e1'\]\]"),
    (lambda d: d["entities"].append(1), r"\['e1', 'e2', 'e3', 1\]"),
    (lambda d: d["constants"].__setitem__("a", ["e1"]), "constant 'a'"),
    (lambda d: d.__setitem__("constants", ["a"]), '"constants" must be an object'),
    (lambda d: d.__setitem__("functions", []), '"functions" must be an object'),
    (lambda d: d.__setitem__("relations", "P"), '"relations" must be an object'),
    (lambda d: d["functions"]["f"]["table"].append(7), "function 'f' row 7"),
    (lambda d: d["functions"]["f"]["table"].append(["e1", 2]), r"function 'f' row \['e1', 2\]"),
    (lambda d: d["functions"]["f"].__setitem__("table", "e1e2"), "function 'f'"),
    (lambda d: d["relations"]["P"]["tuples"].append(5), "relation 'P' tuple 5"),
    (lambda d: d["relations"]["P"].__setitem__("tuples", "ab"), "relation 'P'"),
    (lambda d: d["relations"]["R"].__setitem__("tuples", ["ab"]), "relation 'R' tuple 'ab'"),
], ids=["unhashable-entity", "non-string-entity", "non-string-constant",
        "constants-not-object", "functions-not-object", "relations-not-object",
        "function-row-not-array", "function-cell-not-string", "table-not-array",
        "tuple-not-array", "tuples-string", "tuple-string"])
def test_model_schema_is_strict(mutate, match):
    # each of these used to load wrongly or end in an uncaught TypeError
    with pytest.raises(ModelError, match=match):
        model_from_dict(_broken(mutate))


def test_symbol_arity_must_be_positive():
    data = _broken(lambda d: d["relations"].__setitem__("Z", {"arity": 0, "tuples": [[]]}))
    with pytest.raises(ModelError, match="arity 0"):
        model_from_dict(data)
    data = _broken(lambda d: d["functions"].__setitem__("z", {"arity": 0, "table": [["e1"]]}))
    with pytest.raises(ModelError, match="arity 0"):
        model_from_dict(data)


# ---------------------------------------------------------------------------
# assignments


def test_variant_assignment_rebinds_without_mutation():
    m = good_model()
    g = {"x": "e1"}
    g2 = variant_assignment(g, "x", "e2", m)
    assert g == {"x": "e1"}
    assert g2 == {"x": "e2"}
    g3 = variant_assignment(g, "y", "e3", m)
    assert g3 == {"x": "e1", "y": "e3"}


def test_variant_assignment_checks_domain():
    with pytest.raises(EvaluationError):
        variant_assignment({}, "x", "e9", good_model())


# ---------------------------------------------------------------------------
# denotation


def test_denote_constants_and_variables():
    m = good_model()
    sig = m.signature()
    assert denote(parse_term("a", sig), m, {}) == EntityVal("e1")
    assert denote(parse_term("x", sig), m, {"x": "e3"}) == EntityVal("e3")


def test_denote_function_application():
    m = good_model()
    sig = m.signature()
    assert denote(parse_term("f(a)", sig), m, {}) == EntityVal("e2")
    assert denote(parse_term("f(f(a))", sig), m, {}) == EntityVal("e3")
    assert denote(parse_term("g(a,b)", sig), m, {}) == EntityVal("e2")
    assert denote(parse_term("g(a,a)", sig), m, {}) == EntityVal("e1")


def test_denote_predicates():
    m = good_model()
    sig = m.signature()
    assert denote(parse_term("P(a)", sig), m, {}) == TruthVal(1)
    assert denote(parse_term("P(b)", sig), m, {}) == TruthVal(0)
    assert denote(parse_term("R(a,b)", sig), m, {}) == TruthVal(1)
    assert denote(parse_term("R(b,a)", sig), m, {}) == TruthVal(0)


@pytest.mark.parametrize("expr,expected", [
    ("not(P(a))", 0),
    ("not(P(b))", 1),
    ("and(P(a),P(b))", 0),
    ("and(P(a),P(f(b)))", 1),  # f(b)=e3, P(e3)=1
    ("or(P(b),P(a))", 1),
    ("implies(P(a),P(b))", 0),
    ("implies(P(b),P(a))", 1),
    ("iff(P(a),P(b))", 0),
    ("xor(P(a),P(b))", 1),
    ("cond(P(a),P(b),R(a,b))", 0),  # condition true, picks P(b)=0
    ("cond(P(b),P(a),R(a,b))", 1),  # condition false, picks R(a,b)=1
])
def test_denote_connectives(expr, expected):
    m = good_model()
    assert denote(parse_term(expr, m.signature()), m, {}) == TruthVal(expected)


def test_denote_unbound_variable():
    m = good_model()
    with pytest.raises(EvaluationError, match="unbound"):
        denote(parse_term("x", m.signature()), m, {})


def test_denote_unknown_symbols():
    m = good_model()
    with pytest.raises(EvaluationError):
        denote(Const("zz"), m, {})
    with pytest.raises(EvaluationError):
        denote(FunApp("zz", (Const("a"),)), m, {})


def test_denote_traced_unknown_symbols():
    m = good_model()
    for term in (Const("zz"), FunApp("zz", (Const("a"),)), PredApp("Z", (Const("a"),)),
                 FunApp("f", (Const("a"), Const("b")))):
        with pytest.raises(EvaluationError):
            denote_traced(term, m, {})


def test_truthval_validates_bit():
    with pytest.raises(ValueError):
        TruthVal(2)


# ---------------------------------------------------------------------------
# recursion properties


def test_traced_matches_plain_and_bounds_depth():
    m = good_model()
    sig = m.signature()
    for expr in ["a", "f(a)", "g(f(a),f(f(b)))", "not(and(P(a),R(a,f(b))))"]:
        t = parse_term(expr, sig)
        val, depth = denote_traced(t, m, {})
        assert val == denote(t, m, {})
        assert depth <= complexity_depth(t) + 1


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_random_formulas_deterministic_and_bounded(seed):
    rng = make_rng(seed)
    m = random_model(rng, n_entities=3)
    t = random_formula(rng, m.signature(), budget=5)
    v1 = denote(t, m, {})
    v2 = denote(t, m, {})
    traced, depth = denote_traced(t, m, {})
    assert v1 == v2 == traced
    assert depth <= complexity_depth(t) + 1


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_substitution_preserves_denotation(seed):
    # replacing a subterm with one denoting the same value cannot change
    # the denotation of the whole
    rng = make_rng(seed)
    m = random_model(rng, n_entities=4)
    sig = m.signature()
    t = random_formula(rng, sig, budget=5)
    entity_positions = [
        (path, sub) for path, sub in subterms(t)
        if isinstance(sub, (Const, Var, FunApp))]
    by_entity = {e: name for name, e in sorted(m.constants.items(), reverse=True)}
    for path, sub in entity_positions:
        val = denote(sub, m, {})
        replacement = Const(by_entity[val.id])
        assert denote(sub, m, {}) == denote(replacement, m, {})
        swapped = replace_at(t, path, replacement)
        assert denote(swapped, m, {}) == denote(t, m, {}), pretty(swapped)
