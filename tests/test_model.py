"""Model loading, validation, and the denotation recursion."""

import copy
import gc
import json
import pickle
import re
import sys
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semlink import homomorphism as hm, laws, model as model_module, veclogic as vl
from semlink.model import (
    EntityVal,
    EvaluationError,
    Extensional,
    FunctionInterp,
    Model,
    ModelError,
    RelationInterp,
    TruthVal,
    denote,
    evaluate,
    load_model,
    model_from_dict,
)
from semlink.sampling import Draws, random_formula, random_model
from semlink.terms import (
    SignatureError,
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
    m = good_model()
    sig = m.signature()
    assert sig is m.signature()  # built once, when the model was
    assert sig.functions == {"f": 1, "g": 2}
    assert sig.predicates == {"P": 1, "R": 2}
    assert set(sig.constants) == {"a", "b"}


def _unary_model(constants=("a",), f_arity=1, p_arity=1) -> Model:
    """One entity, the constants naming it, and f and P of the given arities."""
    return Model(("e1",), dict.fromkeys(constants, "e1"),
                 {"f": FunctionInterp(f_arity, {("e1",) * int(f_arity): "e1"})},
                 {"P": RelationInterp(p_arity, frozenset())})


def test_models_of_one_vocabulary_share_one_signature():
    assert good_model().signature() is good_model().signature()
    one = _unary_model(("a", "b"))
    assert _unary_model(("a", "b")).signature() is one.signature()
    for other in (_unary_model(("b", "a")), _unary_model(("a", "b"), f_arity=2),
                  _unary_model(("a", "b"), p_arity=2), _unary_model(("a", "c"))):
        assert other.signature() is not one.signature()
    assert _unary_model(("a", "b"), f_arity=2).signature().functions == {"f": 2}


@pytest.mark.parametrize("arity", [1.0, np.int64(1), np.array(1)], ids=["float", "int64", "array"])
@pytest.mark.parametrize("symbol", ["f", "P"])
@pytest.mark.parametrize("twin_first", [False, True])
def test_an_arity_that_is_not_an_int_is_refused_whatever_the_table_holds(arity, symbol, twin_first):
    model_module.reset_tables()
    if twin_first:
        _unary_model()  # the vocabulary with int arities is in the table
    with pytest.raises(SignatureError) as exc:
        _unary_model(**{f"{symbol.lower()}_arity": arity})
    assert str(exc.value) == f"symbol {symbol!r} has arity {arity!r}, expected an int >= 1"


@pytest.mark.parametrize("twin_first", [False, True])
def test_a_bool_arity_is_accepted_and_kept_apart_from_its_int_twin(twin_first):
    model_module.reset_tables()
    if twin_first:
        _unary_model()
    sig = _unary_model(f_arity=True).signature()
    assert sig.functions["f"] is True
    assert type(_unary_model().signature().functions["f"]) is int


def test_a_bad_name_is_named_before_a_bad_arity_whatever_the_table_holds():
    for _ in range(2):
        with pytest.raises(SignatureError, match="constant name 'not' is a reserved"):
            _unary_model(("not",), f_arity=1.0)


_BY_NAME = "{kind} {name!r} has arity {arity!r}, expected an int >= 1"
_BY_SIGNATURE = "symbol {name!r} has arity {arity!r}, expected an int >= 1"


@pytest.mark.parametrize("arity,error,message", [
    ("1", ModelError, _BY_NAME),
    (None, ModelError, _BY_NAME),
    (np.array([1, 1]), ModelError, _BY_NAME),
    (0, ModelError, "{kind} {name!r} has arity 0, expected at least 1"),
    (1.0, SignatureError, _BY_SIGNATURE),
    (np.int64(1), SignatureError, _BY_SIGNATURE),
    (np.array(1), SignatureError, _BY_SIGNATURE),
    (True, None, None),
], ids=["str", "none", "pair-array", "zero", "float", "int64", "0d-array", "bool"])
@pytest.mark.parametrize("kind,name", [("function", "f"), ("relation", "P")])
def test_every_arity_a_library_caller_can_give_is_refused_by_name_or_accepted(
        arity, error, message, kind, name):
    # built without model_from_dict, which refuses a non-int arity first
    f_arity, p_arity = (arity, 1) if kind == "function" else (1, arity)

    def build():
        return Model(("e1",), {"a": "e1"}, {"f": FunctionInterp(f_arity, {("e1",): "e1"})},
                     {"P": RelationInterp(p_arity, frozenset())})

    if error is None:
        sig = build().signature()
        assert (sig.functions if kind == "function" else sig.predicates)[name] is True
        return
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message.format(kind=kind, name=name, arity=arity)


def test_reset_tables_empties_every_process_wide_table():
    for law in laws.LAWS:
        assert laws.run_law(law, 0, 20).ok
    vl.TRUTH.vectors[1] = vl.TRUE_VEC
    kept = vl.kept_map(("a", "b"), "reset")
    assert model_module._interned_signature.cache_info().currsize > 0
    assert vl.kept_map.cache_info().currsize > 0
    model_module.reset_tables()
    assert model_module._interned_signature.cache_info().currsize == 0
    assert vl.kept_map.cache_info() == (0, 0, vl.KEPT_MAPS, 0)
    assert vl.TRUTH.vectors == {}
    assert vl.kept_map(("a", "b"), "reset") is not kept  # a fresh map, with no lifts
    assert vl.TRUE_VEC.tolist() == [1, 0]  # TRUTH's basis, which its views read, stays


def test_the_signature_table_stays_within_its_size():
    table = model_module._interned_signature
    assert table.cache_info().maxsize == model_module._SIGNATURES
    for i in range(model_module._SIGNATURES + 10):
        assert _unary_model((f"c{i}",)).signature().constants == {f"c{i}"}
        assert table.cache_info().currsize <= model_module._SIGNATURES
    assert table.cache_info().currsize == model_module._SIGNATURES


def test_the_signature_table_holds_every_vocabulary_of_the_formula_law():
    # random_model makes 16 vocabularies per entity count, for 2 to 4 entities
    vocabularies = set()
    for k in range(300):
        sig = random_model(Draws(k), n_entities=2 + k % 3).signature()
        vocabularies.add((sig.constants, tuple(sig.functions.items()),
                          tuple(sig.predicates.items())))
    assert len(vocabularies) == 48 <= model_module._SIGNATURES


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


@pytest.mark.parametrize("n,arity,message", [
    (1, 21, "relation 'P' has arity 21, above the cap of 20"),
    (7, 8, "relation 'P' has 7^8 tuples, above the cap of 2^20"),
])
def test_relation_above_the_cap_is_refused(n, arity, message):
    data = {"entities": [f"e{i}" for i in range(n)],
            "relations": {"P": {"arity": arity, "tuples": []}}}
    with pytest.raises(ModelError, match=re.escape(message)):
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


def test_a_library_models_row_of_the_wrong_length_is_named():
    # model_from_dict refuses a short row first; Model's own check names it
    # for a library caller
    with pytest.raises(ModelError) as exc:
        Model(("e1",), {"a": "e1"}, {"f": FunctionInterp(2, {("e1",): "e1"})}, {})
    assert str(exc.value) == "function 'f' row ['e1']: expected 2 arguments"


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
        assert twin.signature() == m.signature()
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
    val = denote(term, m, {"x": "e3"})
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


@dataclass(frozen=True)
class FrameCounting(Extensional):
    """The extensional route, noting at every leaf how many frames of
    evaluate's walker are on the stack."""

    frames: list = field(default_factory=list)

    def leaf(self, ent):
        f, n = sys._getframe(1), 0
        while f is not None:
            n += f.f_code.co_name == "go" and f.f_code.co_filename == model_module.__file__
            f = f.f_back
        self.frames.append(n)
        return ent


def walker_depth(t, m) -> tuple:
    """The bare value of t in m, and the most walker frames on the stack at once."""
    sem = FrameCounting(m)
    return evaluate(t, m, {}, sem), max(sem.frames)


def test_walker_takes_one_frame_per_level_of_nesting():
    m = good_model()
    sig = m.signature()
    for expr in ["a", "f(a)", "g(f(a),f(f(b)))", "not(and(P(a),R(a,f(b))))"]:
        t = parse_term(expr, sig)
        val, depth = walker_depth(t, m)
        assert val == evaluate(t, m, {}, Extensional(m))
        assert depth == complexity_depth(t) + 1


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_random_formulas_deterministic_and_bounded(seed):
    rng = Draws(seed)
    m = random_model(rng, n_entities=3)
    t = random_formula(rng, m.signature(), budget=5)
    v1 = denote(t, m, {})
    v2 = denote(t, m, {})
    bit, depth = walker_depth(t, m)
    assert v1 == v2 == TruthVal(bit)
    assert depth == complexity_depth(t) + 1


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_substitution_preserves_denotation(seed):
    # replacing a subterm with one denoting the same value cannot change
    # the denotation of the whole
    rng = Draws(seed)
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
