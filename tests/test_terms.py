"""Parser, printer, typing and complexity metrics."""

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from semlink.terms import (
    ENTITY,
    MAX_NESTING,
    TRUTH,
    ArityMismatchError,
    Connective,
    ConnectiveKind,
    Const,
    Entity,
    FunApp,
    ParseError,
    PredApp,
    Truth,
    TypeCheckError,
    UnknownIdentifierError,
    Var,
    SignatureError,
    Signature,
    children,
    complexity_depth,
    complexity_size,
    infer_type,
    parse_term,
    pretty,
    replace_at,
    signature_of,
    subterms,
)

SIG = signature_of(
    constants=["a", "b", "c"],
    functions={"f": 2, "g": 1, "h": 2, "k": 1},
    predicates={"P": 1, "R": 2},
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_constant_and_variable():
    assert parse_term("a", SIG) == Const("a")
    # undeclared bare identifiers are variables
    assert parse_term("x", SIG) == Var("x")


def test_parse_application():
    assert parse_term("f(a,b)", SIG) == FunApp("f", (Const("a"), Const("b")))
    assert parse_term("P(a)", SIG) == PredApp("P", (Const("a"),))


def test_parse_nested_with_whitespace():
    t = parse_term("  and( P(a) , R(b, g(c)) ) ", SIG)
    assert t == Connective(
        ConnectiveKind.AND,
        (PredApp("P", (Const("a"),)),
         PredApp("R", (Const("b"), FunApp("g", (Const("c"),))))))


def test_parse_all_connectives():
    for kind in ConnectiveKind:
        args = ",".join(["P(a)"] * kind.arity)
        t = parse_term(f"{kind.keyword}({args})", SIG)
        assert isinstance(t, Connective) and t.kind is kind


def test_unterminated_application_position():
    with pytest.raises(ParseError) as err:
        parse_term("f(a", SIG)
    assert err.value.position == 3


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_term("f(a,)", SIG)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_term("", SIG)
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_term("f(a,b))", SIG)
    assert err.value.position == 6


def test_unknown_applied_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_term("q(a)", SIG)


def test_arity_mismatches():
    with pytest.raises(ArityMismatchError):
        parse_term("f(a)", SIG)
    with pytest.raises(ArityMismatchError):
        parse_term("g(a,b)", SIG)
    with pytest.raises(ArityMismatchError):
        parse_term("not(P(a),P(b))", SIG)
    with pytest.raises(ArityMismatchError):
        parse_term("a(b)", SIG)  # constants take no arguments
    with pytest.raises(ArityMismatchError):
        parse_term("f", SIG)  # declared function used bare


def test_bare_connective_rejected():
    with pytest.raises(ParseError):
        parse_term("and", SIG)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_term("f(a,b)x", SIG)


def test_nesting_limit():
    def nested(depth):
        return "g(" * (depth - 1) + "k(a" + ")" * depth

    assert complexity_depth(parse_term(nested(MAX_NESTING), SIG)) == MAX_NESTING
    with pytest.raises(ParseError, match="nests deeper than") as exc:
        parse_term(nested(MAX_NESTING + 1), SIG)
    assert exc.value.position == 2 * MAX_NESTING  # the k( that opens one level too many
    # a deep input fails fast at the limit instead of exhausting the stack
    with pytest.raises(ParseError, match="nests deeper than"):
        parse_term("not(" * 5000 + "P(a)" + ")" * 5000, SIG)


def _outcome(text):
    try:
        term = parse_term(text, SIG)
        sort = infer_type(term, SIG)
    except ParseError as exc:
        return f"{type(exc).__name__} {exc.position}: {exc}"
    return f"ok {sort} {pretty(term)}"


def test_parse_outcomes_are_pinned():
    # each line holds a JSON-quoted input, a tab, then "ok <type> <pretty form>"
    # or "<error class> <offset>: <message>"
    path = Path(__file__).parent / "data" / "parse_outcomes.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 80
    wrong = [(text, got, want) for text, want in (line.split("\t") for line in lines)
             if (got := _outcome(json.loads(text))) != want]
    assert wrong == []


# round-trip: pretty then parse reproduces the AST

def _terms(sig):
    leaves = st.sampled_from(
        [Const("a"), Const("b"), Const("c"), Var("x"), Var("y")])

    def extend(kids):
        fn = st.sampled_from(sorted(sig.functions))
        return fn.flatmap(lambda n: st.tuples(
            *[kids] * sig.functions[n]).map(lambda args: FunApp(n, args)))

    return st.recursive(leaves, extend, max_leaves=12)


def _formulas(sig):
    entity = _terms(sig)
    atoms = st.sampled_from(sorted(sig.predicates)).flatmap(
        lambda n: st.tuples(*[entity] * sig.predicates[n]).map(
            lambda args: PredApp(n, args)))

    def extend(kids):
        return st.sampled_from(list(ConnectiveKind)).flatmap(
            lambda k: st.tuples(*[kids] * k.arity).map(
                lambda args: Connective(k, args)))

    return st.recursive(atoms, extend, max_leaves=8)


@given(_terms(SIG))
def test_roundtrip_entity_terms(t):
    assert parse_term(pretty(t), SIG) == t


@given(_formulas(SIG))
def test_roundtrip_formulas(t):
    assert parse_term(pretty(t), SIG) == t


# ---------------------------------------------------------------------------
# typing


def test_infer_types():
    assert infer_type(parse_term("a", SIG), SIG) == ENTITY
    assert infer_type(parse_term("x", SIG), SIG) == ENTITY
    assert infer_type(parse_term("f(a,b)", SIG), SIG) == ENTITY
    assert infer_type(parse_term("P(a)", SIG), SIG) == TRUTH
    assert infer_type(parse_term("cond(P(a),R(a,b),P(b))", SIG), SIG) == TRUTH


def test_connective_rejects_entity_argument():
    # a sort error is a parse error at the offset of the application's symbol
    with pytest.raises(TypeCheckError, match="connective 'and' argument 1 has type e, expected t") as exc:
        parse_term(" and(a,P(b))", SIG)
    assert isinstance(exc.value, ParseError) and exc.value.position == 1


def test_function_rejects_formula_argument():
    with pytest.raises(TypeCheckError, match="function 'g' argument 1 has type t, expected e") as exc:
        parse_term("g(P(a))", SIG)
    assert exc.value.position == 0
    with pytest.raises(TypeCheckError, match="predicate 'P' argument 1 has type t, expected e") as exc:
        parse_term("and(P(a), P(not(P(a))))", SIG)
    assert exc.value.position == 10


# ---------------------------------------------------------------------------
# signatures


def test_signature_rejects_duplicates_across_namespaces():
    with pytest.raises(SignatureError):
        signature_of(constants=["a"], functions={"a": 1})


def test_signature_rejects_reserved_and_bad_names():
    with pytest.raises(SignatureError):
        signature_of(constants=["and"])
    with pytest.raises(SignatureError):
        signature_of(functions={"1bad": 1})
    with pytest.raises(SignatureError):
        signature_of(functions={"f": 0})
    with pytest.raises(SignatureError):
        signature_of(predicates={"P": -2})
    with pytest.raises(SignatureError, match="constant 'c' has type t, expected e"):
        signature_of(constants={"c": TRUTH}, predicates={"P": 1})


def test_signature_accepts_disjoint_names():
    sig = Signature({"a": ENTITY}, {"f": 3}, {"P": 2})
    assert sig.functions["f"] == 3


# ---------------------------------------------------------------------------
# semantic types


def test_type_rendering():
    assert str(ENTITY) == "e"
    assert str(TRUTH) == "t"
    assert Entity() == ENTITY and Truth() == TRUTH


# ---------------------------------------------------------------------------
# complexity metrics


def test_depth_and_size_worked_cases():
    t1 = parse_term("f(a,b)", SIG)
    assert (complexity_depth(t1), complexity_size(t1)) == (1, 3)
    t2 = parse_term("f(g(a),h(b,c))", SIG)
    assert (complexity_depth(t2), complexity_size(t2)) == (2, 6)
    t3 = parse_term("f(g(k(a)),b)", SIG)
    assert complexity_depth(t3) == 3
    t4 = parse_term("g(k(g(a)))", SIG)
    assert (complexity_depth(t4), complexity_size(t4)) == (3, 4)


def test_leaves_have_depth_zero_size_one():
    assert complexity_depth(Const("a")) == 0
    assert complexity_size(Const("a")) == 1
    assert complexity_depth(Var("x")) == 0
    assert complexity_size(Var("x")) == 1


def test_connectives_count_like_function_symbols():
    t = parse_term("not(P(a))", SIG)
    assert complexity_depth(t) == 2
    assert complexity_size(t) == 3


@given(_formulas(SIG))
def test_size_bounds_depth(t):
    # a chain of depth d has d+1 nodes, so size > depth always
    assert complexity_size(t) >= complexity_depth(t) + 1
    assert complexity_size(t) == sum(1 for _ in subterms(t))


# ---------------------------------------------------------------------------
# structure helpers


def test_subterms_and_replace():
    t = parse_term("f(g(a),b)", SIG)
    paths = dict(subterms(t))
    assert paths[()] == t
    assert paths[(0, 0)] == Const("a")
    swapped = replace_at(t, (0, 0), Const("c"))
    assert swapped == parse_term("f(g(c),b)", SIG)
    assert t == parse_term("f(g(a),b)", SIG)  # original untouched


def test_replace_bad_path():
    t = parse_term("f(a,b)", SIG)
    with pytest.raises(IndexError):
        replace_at(t, (5,), Const("a"))
    with pytest.raises(IndexError):
        replace_at(t, (0, 0), Const("a"))


def test_children_of_leaves():
    assert children(Const("a")) == ()
    assert children(Var("x")) == ()
