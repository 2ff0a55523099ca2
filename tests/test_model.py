"""Model loading, validation, and the denotation recursion."""

import copy
import gc
import json
import pickle
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from semlink import homomorphism as hm, laws
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
)
from semlink.sampling import make_rng, random_formula, random_model
from semlink.terms import (
    complexity_depth,
    parse_term,
    ParseError,
    pretty,
    replace_at,
    subterms,
    Connective,
    ConnectiveKind,
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


def test_first_missing_row_is_named():
    # the smallest missing argument tuple, as sorted(all tuples - rows)[0] gave
    data = _broken(lambda d: d["functions"]["g"].__setitem__(
        "table", [r for r in d["functions"]["g"]["table"] if r[:2] not in (["e2", "e1"], ["e3", "e2"])]))
    with pytest.raises(ModelError, match=r"function 'g' is not total: no entry for \['e2', 'e1'\]"):
        model_from_dict(data)
    data = _broken(lambda d: d["functions"]["f"].__setitem__("table", []))
    with pytest.raises(ModelError, match="function 'f' is not total: its table is empty"):
        model_from_dict(data)


def _identity(n, arity):
    ents = [f"e{i}" for i in range(n)]
    return {"entities": ents, "functions": {"f": {
        "arity": arity, "table": [[*args, args[0]] for args in product(ents, repeat=arity)]}}}


@pytest.mark.parametrize("n,arity", [(1448, 1), (128, 2)])
def test_function_matrix_at_the_cap_loads(n, arity):
    # n * n^arity is at most 2 x 2^20 entries
    assert model_from_dict(_identity(n, arity)).functions["f"].arity == arity


@pytest.mark.parametrize("n,arity,message", [
    (1449, 1, "function 'f' lifts to a 1449 x 1449^1 matrix, above the cap of 2 x 2^20 entries"),
    (129, 2, "function 'f' lifts to a 129 x 129^2 matrix, above the cap of 2 x 2^20 entries"),
    (1, 21, "function 'f' has arity 21, above the cap of 20"),
])
def test_function_matrix_above_the_cap_is_refused(n, arity, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        model_from_dict(_identity(n, arity))


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
    (lambda d: d["functions"]["f"].__setitem__("arity", 1.7), "function 'f': \"arity\" must be"),
    (lambda d: d["relations"]["P"].__setitem__("arity", True), "relation 'P': \"arity\" must be"),
    (lambda d: d["relations"]["P"].__setitem__("arity", "x"), "relation 'P': \"arity\" must be"),
    (lambda d: d["functions"].__setitem__("f", ["arity", "table"]), "function 'f' needs"),
], ids=["unhashable-entity", "non-string-entity", "non-string-constant",
        "constants-not-object", "functions-not-object", "relations-not-object",
        "function-row-not-array", "function-cell-not-string", "table-not-array",
        "tuple-not-array", "tuples-string", "tuple-string", "float-arity", "bool-arity",
        "string-arity", "entry-not-object"])
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
# immutability


def test_a_model_cannot_be_edited_after_validation():
    m = good_model()
    fn = m.functions["f"]
    with pytest.raises(TypeError):
        m.functions["f"] = FunctionInterp(1, {})
    with pytest.raises(TypeError):
        fn.table[("e1",)] = "e9"
    with pytest.raises(TypeError):
        m.constants["a"] = "e9"
    with pytest.raises(TypeError):
        m.relations["P"] = RelationInterp(1, frozenset())
    assert fn.table[("e1",)] == "e2" and m.constants["a"] == "e1"


def test_a_model_keeps_copies_of_what_it_was_given():
    table = {("e1",): "e2", ("e2",): "e1"}
    constants = {"a": "e1"}
    functions = {"f": FunctionInterp(1, table)}
    tuples = {("e1",)}
    relations = {"P": RelationInterp(1, tuples)}
    m = Model(("e1", "e2"), constants, functions, relations)
    table[("e1",)] = "e9"
    constants["a"] = "e9"
    functions["h"] = FunctionInterp(1, {})
    relations.clear()
    tuples.add(("e9",))
    assert m.functions["f"].table[("e1",)] == "e2"
    assert dict(m.constants) == {"a": "e1"}
    assert set(m.functions) == {"f"}
    assert m.relations["P"].tuples == {("e1",)}


def test_a_model_survives_pickling_and_deep_copies():
    m = good_model()
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert twin == m and twin is not m
        with pytest.raises(TypeError):
            twin.functions["f"].table[("e1",)] = "e9"


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


@pytest.mark.parametrize("expr,want", [
    ("a", EntityVal("e1")),
    ("x", EntityVal("e3")),
    ("g(a,f(a))", EntityVal("e2")),
    ("P(a)", TruthVal(1)),
    ("not(P(a))", TruthVal(0)),
])
def test_denote_wraps_the_root_by_its_term_class(expr, want):
    # the extensional route works on bare ids and bits; only the root is wrapped,
    # an EntityVal for Const, Var and FunApp and a TruthVal for PredApp and Connective
    m = good_model()
    term = parse_term(expr, m.signature())
    for val in (denote(term, m, {"x": "e3"}), denote_traced(term, m, {"x": "e3"})[0]):
        assert type(val) is type(want) and val == want


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


def _vector_denote(term, m, g):
    return hm.vector_denote(term, m, g, hm.LiftFamily.for_model(m))


P_OF_A = PredApp("P", (Const("a"),))


@pytest.mark.parametrize("route", [denote, _vector_denote], ids=["extensional", "vector"])
@pytest.mark.parametrize("term,message", [
    # each argument's type is checked right after it is evaluated, before
    # anything to its right is looked at
    (Connective(ConnectiveKind.AND, (Const("a"), PredApp("Z", (Const("a"),)))),
     "argument of 'and' evaluated to an entity, expected a truth value"),
    (PredApp("R", (P_OF_A, Const("nope"))),
     "argument of 'R' evaluated to a truth value, expected an entity"),
    (PredApp("P", (P_OF_A,)), "argument of 'P' evaluated to a truth value, expected an entity"),
    (FunApp("f", (Connective(ConnectiveKind.NOT, (P_OF_A,)),)),
     "argument of 'f' evaluated to a truth value, expected an entity"),
    # a symbol, name then arity, is checked before its arguments
    (FunApp("zz", (Const("nope"),)), "function 'zz' is not interpreted by the model"),
    (PredApp("Z", (Var("x"),)), "relation 'Z' is not interpreted by the model"),
    (FunApp("f", (Const("nope"), Const("nope"))), "function 'f' takes 1 arguments, got 2"),
    (PredApp("R", (Const("nope"),)), "relation 'R' takes 2 arguments, got 1"),
    (Connective(ConnectiveKind.NOT, (Var("x"),)), "unbound variable 'x'"),
    (Connective(ConnectiveKind.OR, (P_OF_A, PredApp("P", (Const("nope"),)))),
     "constant 'nope' is not interpreted by the model"),
    # a variable's value must be an entity of the model, on both routes
    (Var("y"), "variable 'y' is assigned 'bogus', not an entity of the model"),
    (PredApp("P", (Var("y"),)), "variable 'y' is assigned 'bogus', not an entity of the model"),
    (FunApp("f", (Var("y"),)), "variable 'y' is assigned 'bogus', not an entity of the model"),
])
def test_evaluation_errors_come_in_a_fixed_order(route, term, message):
    with pytest.raises(EvaluationError) as exc:
        route(term, good_model(), {"y": "bogus"})
    assert str(exc.value) == message


@pytest.mark.parametrize("route", [denote, _vector_denote], ids=["extensional", "vector"])
def test_evaluating_a_non_term_is_a_type_error(route):
    for junk in ("a", Connective(ConnectiveKind.NOT, (("P", "a"),))):
        with pytest.raises(TypeError, match="not a term"):
            route(junk, good_model(), {})


def _raises(route, exc, *args):
    """Run route on args, swallowing exc without binding it."""
    def run():
        try:
            route(*args)
        except exc:
            pass
        else:
            raise AssertionError(f"{route.__name__} did not raise {exc.__name__}")
    return run


_M = good_model()
_FORMULA = parse_term("iff(R(g(a,f(b)),f(a)),not(P(f(f(a)))))", _M.signature())
_DEEP_BAD = Connective(ConnectiveKind.AND, (P_OF_A, PredApp("P", (FunApp("f", (Const("nope"),)),))))

_NO_CYCLE_PATHS = {
    **{f"law-{law}": (lambda law=law: laws.run_law(law, 3, 20)) for law in laws.LAWS},
    "denote": lambda: denote(_FORMULA, _M, {}),
    "denote_traced": lambda: denote_traced(_FORMULA, _M, {}),
    "vector_denote": lambda: _vector_denote(_FORMULA, _M, {}),
    "parse_term": lambda: parse_term("or(P(a),R(f(b),g(a,b)))", _M.signature()),
    "denote-raise": _raises(denote, EvaluationError, _DEEP_BAD, _M, {}),
    "vector_denote-raise": _raises(_vector_denote, EvaluationError, _DEEP_BAD, _M, {}),
    "parse_term-raise": _raises(parse_term, ParseError, "or(P(a),R(f(b),g(a,zz(b))))", _M.signature()),
}


@pytest.mark.parametrize("path", list(_NO_CYCLE_PATHS))
def test_a_path_leaves_no_cyclic_garbage(path):
    """Each evaluation, parse and law run frees its state by reference
    counting, on the return and the raise path alike: with the cyclic GC
    off, nothing is left for it to find."""
    run = _NO_CYCLE_PATHS[path]
    run()  # first calls fill module-level caches, which are not garbage
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


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
