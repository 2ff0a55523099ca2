"""Parser, printer, typing and complexity metrics."""

import copy
import dataclasses
import json
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from semlink.sampling import Draws, random_entity_term, random_formula
from semlink.terms import (
    ENTITY,
    IDENT_RE,
    MAX_NESTING,
    TRUTH,
    ArityMismatchError,
    Connective,
    ConnectiveKind,
    Const,
    FunApp,
    ParseError,
    PredApp,
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
    subterms,
)

SIG = Signature(
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


# the alphabet of the pinned inputs: identifiers, keywords, punctuation, each
# kind of whitespace and characters that no token starts with
_PIECES = ["a", "b", "c", "x", "q", "f", "g", "h", "k", "P", "R", "not", "and", "cond",
           "(", ")", ",", " ", "\t", "\n", "\xa0", "\x1c", "$", "1", "é"]
# the errors that quote the symbol they are about
_QUOTED_SYMBOL = re.compile(r"(?:unknown identifier|symbol|constant|function|predicate|connective)"
                            r" '(\w+)' ")


@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
def test_parse_errors_point_into_the_text(text):
    try:
        term = parse_term(text, SIG)
    except ParseError as exc:
        pos = exc.position
        assert 0 <= pos <= len(text)
        assert str(exc).endswith(f"(at offset {pos})")
        assert pos == len(text) or not text[pos].isspace()
        if m := _QUOTED_SYMBOL.match(str(exc)):
            assert IDENT_RE.match(text, pos)[0] == m[1]
    else:
        assert parse_term(pretty(term), SIG) == term


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


# whitespace of each kind the tokenizer skips, U+00A0 included
_SPACES = st.text(st.sampled_from(" \t\n\xa0"), max_size=3)


def _spaced(data, text):
    """The text with drawn whitespace before and after each '(', ')' and ','."""
    return re.sub(r"[(),]", lambda m: data.draw(_SPACES) + m[0] + data.draw(_SPACES), text)


@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.booleans(), st.data())
def test_sampled_terms_roundtrip_through_spaced_text(seed, budget, formula, data):
    rng = Draws(seed)
    t = random_formula(rng, SIG, budget + 1) if formula else random_entity_term(rng, SIG, budget)
    assert parse_term(pretty(t), SIG) == t
    assert parse_term(_spaced(data, pretty(t)), SIG) == t


# identifiers, keywords, punctuation, digits and characters no token starts with
_NOISE = ["a", "b", "x", "f", "g", "P", "R", "not", "and", "cond", "a1", "_",
          "(", ")", ",", "9", "0", "+", "é", " ", "\t", "\n", "\xa0"]


def _outcome_of(text):
    """The class of the ParseError the text raises, or None and the parsed
    term.  An error points at the end or at a non-space character, and every
    name in a parsed term is an identifier."""
    try:
        term = parse_term(text, SIG)
    except ParseError as exc:
        assert exc.position == len(text) or not text[exc.position].isspace()
        return type(exc), None
    for _, sub in subterms(term):
        assert IDENT_RE.fullmatch(sub.kind.keyword if isinstance(sub, Connective) else sub.name)
    return None, term


@given(st.lists(st.sampled_from(_NOISE), max_size=20).map("".join), st.data())
def test_spacing_moves_a_parse_error_but_keeps_its_class(text, data):
    assert _outcome_of(_spaced(data, text)) == _outcome_of(text)


def test_only_an_ascii_letter_or_underscore_starts_an_identifier():
    for ch in [chr(i) for i in range(256)] + ["ß", "Ω", "\u0663", "\u4e00"]:
        if ch.isspace():
            continue
        if ch == "_" or ch.isascii() and ch.isalpha():
            assert parse_term(ch + "1", SIG) == Var(ch + "1")
        else:
            with pytest.raises(ParseError, match="expected identifier") as exc:
                parse_term(ch + "1", SIG)
            assert exc.value.position == 0


def test_nodes_are_slotted_and_frozen():
    t = parse_term("and(P(f(a,x)),not(R(b,c)))", SIG)
    for _, node in subterms(t):
        assert not hasattr(node, "__dict__")
        field = dataclasses.fields(node)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, getattr(node, field))
        assert dataclasses.replace(node) == node and hash(dataclasses.replace(node)) == hash(node)
        for twin in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert twin == node and type(twin) is type(node)
    assert dataclasses.replace(t, kind=ConnectiveKind.OR) == parse_term(
        "or(P(f(a,x)),not(R(b,c)))", SIG)
    assert replace_at(t, (1, 0, 1), Var("y")) == parse_term("and(P(f(a,x)),not(R(b,y)))", SIG)


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
        Signature(constants=["a"], functions={"a": 1})


def test_signature_rejects_reserved_and_bad_names():
    with pytest.raises(SignatureError):
        Signature(constants=["and"])
    with pytest.raises(SignatureError):
        Signature(functions={"1bad": 1})
    with pytest.raises(SignatureError):
        Signature(functions={"f": 0})
    with pytest.raises(SignatureError):
        Signature(predicates={"P": -2})
    # the constants are checked in the order given, so the first bad one is named
    with pytest.raises(SignatureError, match="constant name 'and' is a reserved"):
        Signature(constants=["a", "and", "1bad", "or"])


def test_signature_accepts_disjoint_names():
    sig = Signature(["a"], {"f": 3}, {"P": 2})
    assert sig.functions["f"] == 3
    assert sig.constants == frozenset({"a"})
    # a mapping gives its keys, as a model's constants do
    assert Signature({"a": "e1"}, {"f": 3}, {"P": 2}) == sig


def test_a_signature_cannot_change_after_it_is_validated():
    consts, funcs, preds = ["a"], {"f": 1}, {"P": 1}
    sig = Signature(consts, funcs, preds)
    # a later write to the caller's list or dicts would bypass each check of the constructor
    funcs["a"], funcs["9x"], preds["not"] = 1, 1, 1
    consts.append("and")
    assert sig == Signature(["a"], {"f": 1}, {"P": 1})
    assert parse_term("f(a)", sig) == FunApp("f", (Const("a"),))
    with pytest.raises(TypeError):
        sig.functions["g"] = 1
    for twin in (copy.deepcopy(sig), pickle.loads(pickle.dumps(sig))):
        assert twin == sig and parse_term("P(f(a))", twin) == parse_term("P(f(a))", sig)


# ---------------------------------------------------------------------------
# sorts


def test_type_rendering():
    assert str(ENTITY) == "e"
    assert str(TRUTH) == "t"


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


def test_a_parsed_constant_is_the_signature_node():
    nodes = {c.name: c for c in SIG._vocabulary[2]}
    assert parse_term("a", SIG) is nodes["a"]
    assert parse_term("f(g(a),b)", SIG).args[1] is nodes["b"]
    assert parse_term("P(x)", SIG).args[0] == Var("x")  # a variable is not a constant


def test_replace_at_leaves_a_term_sharing_the_leaf_unchanged():
    t, other = parse_term("f(g(a),b)", SIG), parse_term("g(a)", SIG)
    assert t.args[0].args[0] is other.args[0]
    assert replace_at(t, (0, 0), Const("c")) == parse_term("f(g(c),b)", SIG)
    assert replace_at(other, (0,), Var("y")) == parse_term("g(y)", SIG)
    assert other == parse_term("g(a)", SIG) and t == parse_term("f(g(a),b)", SIG)
    assert other.args[0] is t.args[0].args[0] == Const("a")


def test_replace_bad_path():
    t = parse_term("f(a,b)", SIG)
    with pytest.raises(IndexError):
        replace_at(t, (5,), Const("a"))
    for i in (-1, -2, -3):
        with pytest.raises(IndexError, match=r"does not exist"):
            replace_at(t, (i,), Const("a"))
    with pytest.raises(IndexError):
        replace_at(t, (0, 0), Const("a"))


@pytest.mark.parametrize("walk", [pretty, children, lambda t: infer_type(t, SIG)],
                         ids=["pretty", "children", "infer_type"])
@pytest.mark.parametrize("junk", [5, "a", ("P", "a")])
def test_a_non_term_is_refused_by_name(walk, junk):
    with pytest.raises(TypeError) as exc:
        walk(junk)
    assert str(exc.value) == f"not a term: {junk!r}"


def test_children_of_leaves():
    assert children(Const("a")) == ()
    assert children(Var("x")) == ()
