"""Domain maps, lifts of functions/relations/subsets, chains, dual routes."""

import copy
import json
import pickle
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semlink import cli
from semlink import homomorphism as hm
from semlink import laws
from semlink import veclogic as vl
from semlink.model import denote, model_from_dict
from semlink.sampling import make_rng, random_formula, random_model
from semlink.terms import parse_term


def dmap(n, tag="d"):
    return hm.build_domain_map(range(n), tag=tag)


# ---------------------------------------------------------------------------
# domain maps


def test_map_is_one_hot_basis():
    m = dmap(3)
    assert hm.map_element(m, 0).tolist() == [1, 0, 0]
    assert hm.map_element(m, 2).tolist() == [0, 0, 1]


def test_map_unmap_round_trip():
    m = hm.build_domain_map(["u", "v", "w", "z"], tag="letters")
    for a in m.elements:
        assert hm.unmap_element(m, hm.map_element(m, a)) == a


@given(st.integers(1, 12))
def test_map_is_injective_and_orthonormal(n):
    m = dmap(n)
    vecs = [hm.map_element(m, a) for a in m.elements]
    for i, u in enumerate(vecs):
        assert int(u @ u) == 1
        for v in vecs[i + 1:]:
            assert int(u @ v) == 0


@pytest.mark.parametrize("bad", [
    [0, 0, 0], [1, 1, 0], [0.5, 0.5, 0], [2, 0, 0], [0, 0, 0, 1], [1, 0]])
def test_unmap_rejects_off_image(bad):
    with pytest.raises(hm.OffImageError):
        hm.unmap_element(dmap(3), np.array(bad))


def test_map_rejects_foreign_element():
    with pytest.raises(hm.LiftError):
        hm.map_element(dmap(3), 99)


def test_build_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        hm.build_domain_map([1, 1])
    with pytest.raises(ValueError):
        hm.build_domain_map([])


def test_argument_columns_are_the_kron_of_components():
    # the j-th tuple in lexicographic order folds to basis vector j
    m = dmap(3)
    cols = hm.argument_columns(m, 2)
    assert cols.tolist() == list(range(9))
    for j, (a, b) in enumerate((a, b) for a in m.elements for b in m.elements):
        folded = vl.kron(hm.map_element(m, a), hm.map_element(m, b))
        assert int(folded.argmax()) == cols[j] and folded.sum() == 1
    assert hm.argument_columns(dmap(4), 1).tolist() == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# function lifts


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
def test_lift_function_commutes(ds, dt, seed):
    rng = make_rng(seed)
    src, tgt = dmap(ds, "src"), dmap(dt, "tgt")
    table = {a: int(rng.integers(dt)) for a in src.elements}
    lifted = hm.lift_function(table, src, tgt)
    for a in src.elements:
        assert np.array_equal(lifted([hm.map_element(src, a)]),
                              hm.map_element(tgt, table[a]))


def test_lift_function_requires_totality():
    src, tgt = dmap(3), dmap(2)
    with pytest.raises(hm.LiftError, match="total"):
        hm.lift_function({0: 1, 1: 0}, src, tgt)


def test_lift_function_requires_codomain():
    src, tgt = dmap(2), dmap(2)
    with pytest.raises(hm.LiftError):
        hm.lift_function({0: 0, 1: 5}, src, tgt)


def test_lifted_function_rejects_off_image_argument():
    src, tgt = dmap(2), dmap(2)
    lifted = hm.lift_function({0: 1, 1: 0}, src, tgt)
    with pytest.raises(hm.OffImageError):
        lifted([np.array([1, 1])])


def test_lifted_function_never_leaves_image():
    src, tgt = dmap(4), dmap(3)
    rng = make_rng(3)
    table = {a: int(rng.integers(3)) for a in src.elements}
    lifted = hm.lift_function(table, src, tgt)
    for a in src.elements:
        out = lifted([hm.map_element(src, a)])
        hm.unmap_element(tgt, out)  # must not raise


# ---------------------------------------------------------------------------
# relation lifts


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10_000))
def test_lift_relation_biconditional(d, arity, seed):
    from itertools import product
    rng = make_rng(seed)
    m = dmap(d)
    tuples = {args for args in product(m.elements, repeat=arity)
              if rng.integers(2) == 1}
    lifted = hm.lift_relation(tuples, m, arity)
    for args in product(m.elements, repeat=arity):
        want = 1 if args in tuples else 0
        got = lifted([hm.map_element(m, a) for a in args])
        assert vl.project_truth(got) == want


def test_lift_relation_off_image_is_false_not_error():
    m = dmap(3)
    lifted = hm.lift_relation({(0,), (2,)}, m, 1)
    assert lifted([np.zeros(3, dtype=np.int64)]) is vl.FALSE_VEC
    assert lifted([np.array([1, 1, 0])]) is vl.FALSE_VEC
    assert lifted([np.array([1, 0, 0])]).tolist() == vl.TRUE_VEC.tolist()


def test_lift_relation_table_matches_single_calls():
    m = dmap(3)
    lifted = hm.lift_relation({(0, 1), (2, 2)}, m, 2)
    e = [hm.map_element(m, i) for i in range(3)]
    rows = [[e[0], e[1]], [e[1], e[0]], [e[2], e[2]],
            [e[0], np.array([0, 1, 1])], [np.zeros(3, dtype=np.int64), e[1]]]
    assert [vl.project_truth(lifted(row)) for row in rows] == [1, 0, 1, 0, 0]
    # the columns table() reads are the products of single calls
    for tup, bit in lifted.table():
        assert vl.project_truth(lifted([e[a] for a in tup])) == bit
    # a vector of the wrong length is off the image
    assert lifted([e[0], np.array([0, 1, 0, 0])]) is vl.FALSE_VEC
    with pytest.raises(hm.LiftError):
        lifted([e[0], e[1], e[2]])


def test_lift_relation_table_asks_every_tuple_in_order(monkeypatch):
    m = hm.build_domain_map(["u", "v", "w"], tag="letters")
    lifted = hm.lift_relation({("u", "w"), ("w", "v")}, m, 2)
    rows = list(lifted.table())
    assert [tup for tup, _ in rows] == [(a, b) for a in "uvw" for b in "uvw"]
    assert [tup for tup, bit in rows if bit] == [("u", "w"), ("w", "v")]
    # one tuple per batch gives the same rows
    monkeypatch.setattr(hm, "_BATCH_COLUMNS", 1)
    assert list(lifted.table()) == rows


def test_lift_relation_validation():
    m = dmap(2)
    with pytest.raises(hm.LiftError):
        hm.lift_relation({(0, 1)}, m, 1)
    with pytest.raises(hm.LiftError):
        hm.lift_relation({(7,)}, m, 1)
    lifted = hm.lift_relation({(0,)}, m, 1)
    with pytest.raises(hm.LiftError):
        lifted([hm.map_element(m, 0), hm.map_element(m, 1)])


# ---------------------------------------------------------------------------
# subset lifts


def test_lift_subset_membership_biconditional():
    m = dmap(4)
    subset = {0, 2}
    lifted = hm.lift_subset(subset, m)
    for a in m.elements:
        vec = hm.map_element(m, a)
        assert vl.project_truth(lifted([vec])) == (a in subset)


def test_lift_subset_edge_cases():
    m = dmap(3)
    assert hm.lift_subset(set(), m).mat[0].tolist() == [0, 0, 0]
    assert hm.lift_subset(set(m.elements), m).mat[0].tolist() == [1, 1, 1]


def test_lift_subset_is_the_unary_relation_of_its_members():
    m = hm.build_domain_map("uvw", tag="letters")
    subset, relation = hm.lift_subset({"w", "u"}, m), hm.lift_relation({("u",), ("w",)}, m, 1)
    assert (subset.source, subset.arity, subset.target) == (m, 1, hm.TRUTH)
    assert (relation.source, relation.arity, relation.target) == (m, 1, hm.TRUTH)
    assert subset.mat.tolist() == relation.mat.tolist() == [[1, 0, 1], [0, 1, 0]]
    with pytest.raises(hm.LiftError):
        hm.lift_subset({"z"}, m)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_set_operations_commute(seed):
    rng = make_rng(seed)
    m = dmap(6)
    e1 = {a for a in m.elements if rng.integers(2)}
    e2 = {a for a in m.elements if rng.integers(2)}
    assert hm.check_set_ops(e1, e2, m) == {"union": True, "intersection": True,
                                           "difference": True}


def test_subset_lift_table_is_the_characteristic_function():
    m = dmap(3)
    assert list(hm.lift_subset({0, 1}, m).table()) == [((0,), 1), ((1,), 1), ((2,), 0)]


def test_indicator_vector_is_sum_of_member_images():
    m = dmap(4)
    subset = {1, 3}
    expected = hm.map_element(m, 1) + hm.map_element(m, 3)
    assert np.array_equal(hm.indicator_vector(subset, m), expected)
    assert hm.indicator_vector(subset, m).tolist() == [0, 1, 0, 1]
    assert hm.indicator_vector(set(), m).tolist() == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# composition


def test_compose_lifted_equals_lift_of_composite():
    a, b, c = dmap(3, "a"), dmap(4, "b"), dmap(2, "c")
    f = {0: 1, 1: 3, 2: 0}
    g = {0: 1, 1: 0, 2: 1, 3: 0}
    composed = hm.compose_lifted(hm.lift_function(g, b, c),
                                 hm.lift_function(f, a, b))
    direct = hm.lift_function({x: g[f[x]] for x in f}, a, c)
    assert np.array_equal(composed.mat, direct.mat)
    for x in a.elements:
        assert np.array_equal(composed([hm.map_element(a, x)]),
                              hm.map_element(c, g[f[x]]))


def test_compose_lifted_rejects_mismatched_maps():
    a, b = dmap(2, "a"), dmap(3, "b")
    f = hm.lift_function({0: 1, 1: 0}, a, a)
    g = hm.lift_function({0: 0, 1: 1, 2: 2}, b, b)
    with pytest.raises(hm.LiftError):
        hm.compose_lifted(g, f)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5), st.integers(0, 10_000))
def test_composition_chain_commutes(length, seed):
    rng = make_rng(seed)
    sizes = [int(rng.integers(1, 6)) for _ in range(length + 1)]
    maps = [dmap(s, f"d{i}") for i, s in enumerate(sizes)]
    tables = [{a: int(rng.integers(sizes[i + 1])) for a in maps[i].elements}
              for i in range(length)]
    report = hm.check_composition_chain(tables, maps)
    assert report.ok
    assert report.checks == sizes[0]
    assert report.length == length


def test_corrupted_chain_is_caught_with_counterexample():
    maps = [dmap(3, f"d{i}") for i in range(4)]
    tables = [{0: 1, 1: 2, 2: 0} for _ in range(3)]
    good = hm.check_composition_chain(tables, maps)
    assert good.ok
    # lifts built from a tampered middle table must disagree somewhere with
    # the composite of the original tables
    bad_tables = [dict(t) for t in tables]
    bad_tables[1][1] = 1
    lifts = [hm.lift_function(t, maps[i], maps[i + 1])
             for i, t in enumerate(bad_tables)]
    mismatch = None
    for a in maps[0].elements:
        vec = hm.map_element(maps[0], a)
        for lf in lifts:
            vec = lf([vec])
        val = a
        for t in tables:
            val = t[val]
        if not np.array_equal(vec, hm.map_element(maps[-1], val)):
            mismatch = (a, vec)
            break
    assert mismatch is not None


def test_chain_arg_validation():
    maps = [dmap(2), dmap(2)]
    with pytest.raises(hm.LiftError):
        hm.check_composition_chain([], maps)


# ---------------------------------------------------------------------------
# dual-route evaluation


MODEL_DATA = {
    "entities": ["e1", "e2", "e3"],
    "constants": {"a": "e1", "b": "e2", "c": "e3"},
    "functions": {
        "f": {"arity": 1, "table": [["e1", "e2"], ["e2", "e3"], ["e3", "e1"]]},
        "g": {"arity": 2, "table": [
            [x, y, "e1" if x == y else "e3"]
            for x in ["e1", "e2", "e3"] for y in ["e1", "e2", "e3"]]},
    },
    "relations": {
        "P": {"arity": 1, "tuples": [["e1"], ["e3"]]},
        "R": {"arity": 2, "tuples": [["e1", "e2"], ["e3", "e3"]]},
    },
}
MODEL = model_from_dict(MODEL_DATA)


def test_lift_family_for_model():
    fam = hm.LiftFamily.for_model(MODEL)
    assert fam.entity.dim == 3


def test_lifted_model_function_unary_and_binary():
    fam = hm.LiftFamily.for_model(MODEL)
    lf = hm.lifted_model_function(MODEL, "f", fam)
    assert np.array_equal(lf([hm.map_element(fam.entity, "e1")]),
                          hm.map_element(fam.entity, "e2"))
    lg = hm.lifted_model_function(MODEL, "g", fam)
    assert lg.mat.shape == (3, 9)
    folded = vl.kron(hm.map_element(fam.entity, "e2"),
                     hm.map_element(fam.entity, "e2"))
    assert np.array_equal(lg.mat @ folded, hm.map_element(fam.entity, "e1"))
    assert np.array_equal(lg([hm.map_element(fam.entity, "e1"), hm.map_element(fam.entity, "e2")]),
                          hm.map_element(fam.entity, "e3"))


@pytest.mark.parametrize("expr", [
    "P(a)", "not(P(b))", "and(P(a),R(a,b))", "or(P(b),P(b))",
    "implies(P(a),R(c,c))", "iff(P(c),R(a,b))", "xor(P(a),P(c))",
    "cond(P(b),P(a),R(c,c))",
    "not(and(P(f(a)),or(R(b,c),P(g(a,b)))))",
])
def test_formula_routes_agree(expr):
    sig = MODEL.signature()
    term = parse_term(expr, sig)
    fam = hm.LiftFamily.for_model(MODEL)
    vec = hm.lift_logical_connective(term, MODEL, {}, fam)
    assert vl.project_truth(vec) == denote(term, MODEL, {}).bit


def test_lift_logical_connective_rejects_entity_terms():
    sig = MODEL.signature()
    fam = hm.LiftFamily.for_model(MODEL)
    with pytest.raises(hm.LiftError):
        hm.lift_logical_connective(parse_term("f(a)", sig), MODEL, {}, fam)


@pytest.mark.parametrize("expr,entity", [
    ("a", "e1"), ("f(a)", "e2"), ("f(f(f(a)))", "e1"),
    ("g(f(a),b)", "e1"), ("g(a,f(b))", "e3"),
])
def test_vector_denote_entity_terms(expr, entity):
    sig = MODEL.signature()
    fam = hm.LiftFamily.for_model(MODEL)
    got = hm.vector_denote(parse_term(expr, sig), MODEL, {}, fam)
    assert np.array_equal(got, hm.map_element(fam.entity, entity))
    assert denote(parse_term(expr, sig), MODEL, {}).id == entity


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 100_000))
def test_random_formula_routes_agree(seed):
    rng = make_rng(seed)
    m = random_model(rng, n_entities=int(rng.integers(2, 5)))
    fam = hm.LiftFamily.for_model(m)
    formula = random_formula(rng, m.signature(), budget=5)
    bit = denote(formula, m, {}).bit
    assert vl.project_truth(hm.lift_logical_connective(formula, m, {}, fam)) == bit
    assert vl.project_truth(hm.vector_denote(formula, m, {}, fam)) == bit


def test_vector_denote_with_variables():
    sig = MODEL.signature()
    fam = hm.LiftFamily.for_model(MODEL)
    term = parse_term("g(x,f(y))", sig)
    g = {"x": "e1", "y": "e2"}
    got = hm.vector_denote(term, MODEL, g, fam)
    want = hm.map_element(fam.entity, denote(term, MODEL, g).id)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the vector route reaches the leaves: broken lifts must show


def _shifted_function_lift(model, name, fam, real=hm.lifted_model_function):
    # every column's basis vector moved one row down: one-hot, but wrong
    lf = real(model, name, fam)
    return hm.LiftMatrix(lf.source, lf.arity, lf.target, np.roll(lf.mat, 1, axis=0))


def _empty_relation_lift(model, name, fam):
    return hm.lift_relation((), fam.entity, model.relations[name].arity)


BROKEN_LIFTS = {"lifted_model_function": _shifted_function_lift,
                "lifted_model_relation": _empty_relation_lift}


@pytest.mark.parametrize("target", sorted(BROKEN_LIFTS))
def test_broken_lift_fails_formula_law(monkeypatch, target):
    assert laws.run_law("formula", 0, 200).ok
    monkeypatch.setattr(hm, target, BROKEN_LIFTS[target])
    report = laws.run_law("formula", 0, 200)
    assert not report.ok
    assert report.render().endswith("result: FAIL\n")


@pytest.mark.parametrize("target", sorted(BROKEN_LIFTS))
def test_broken_lift_fails_eval(monkeypatch, tmp_path, capsys, target):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_DATA))
    argv = ["eval", "--model", str(path), "--expr", "iff(P(f(a)),R(a,b))"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(hm, target, BROKEN_LIFTS[target])
    assert cli.main(argv) == 1
    assert capsys.readouterr().out.endswith("agree: no\n")


@pytest.mark.parametrize("target,law", [("lifted_model_function", "function"),
                                        ("lifted_model_relation", "relation")])
def test_broken_lift_fails_check_with_model(monkeypatch, tmp_path, capsys, target, law):
    # the relation law used to lift the model's relations by itself
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_DATA))
    argv = ["check", "--law", law, "--model", str(path), "--trials", "4"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(hm, target, BROKEN_LIFTS[target])
    assert cli.main(argv) == 1
    assert capsys.readouterr().out.endswith("result: FAIL\n")


def test_relation_lift_that_drops_a_member_fails_the_sets_law(monkeypatch, capsys):
    # subsets are lifted as unary relations, so the sets law checks lift_relation
    argv = ["check", "--law", "sets", "--trials", "20"]
    assert cli.main(argv) == 0
    real = hm.lift_relation
    monkeypatch.setattr(hm, "lift_relation",
                        lambda tuples, m, arity: real(sorted(tuples)[1:], m, arity))
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "counterexample: trial 0: characteristic of" in out
    assert out.endswith("result: FAIL\n")


def test_vector_denote_lifts_each_symbol_once(monkeypatch):
    calls = []

    def counting(model, name, fam, real=hm.lifted_model_function):
        calls.append(name)
        return real(model, name, fam)

    monkeypatch.setattr(hm, "lifted_model_function", counting)
    sig = MODEL.signature()
    fam = hm.LiftFamily.for_model(MODEL)
    term = parse_term("and(P(f(f(a))),R(g(f(a),b),f(c)))", sig)
    hm.vector_denote(term, MODEL, {}, fam)
    assert sorted(calls) == ["f", "g"]
    hm.vector_denote(term, MODEL, {}, fam)  # the family keeps its lifts
    assert sorted(calls) == ["f", "g"]
    hm.vector_denote(term, MODEL, {}, hm.LiftFamily.for_model(MODEL))  # a fresh one lifts again
    assert sorted(calls) == ["f", "f", "g", "g"]


def test_a_family_serves_only_its_own_model():
    other = model_from_dict(MODEL_DATA)  # equal, but another object
    fam = hm.LiftFamily.for_model(MODEL)
    term = parse_term("P(f(a))", MODEL.signature())
    with pytest.raises(hm.LiftError, match="another model"):
        hm.vector_denote(term, other, {}, fam)
    with pytest.raises(hm.LiftError, match="another model"):
        hm.lift_logical_connective(term, other, {}, fam)


def test_kept_vectors_are_read_only():
    fam = hm.LiftFamily.for_model(MODEL)
    term = parse_term("a", MODEL.signature())
    vec = hm.vector_denote(term, MODEL, {}, fam)
    assert vec is fam.vector("e1")
    with pytest.raises(ValueError, match="read-only"):
        vec[:] = [0, 1, 0]
    assert hm.vector_denote(term, MODEL, {}, fam).tolist() == [1, 0, 0]
    f_of_a = parse_term("f(a)", MODEL.signature())
    assert hm.vector_denote(f_of_a, MODEL, {}, fam).tolist() == [0, 1, 0]
    with pytest.raises(ValueError, match="read-only"):
        fam.function("g").mat[0, 0] = 0


def test_check_with_model_lifts_each_function_once_per_run(monkeypatch, tmp_path, capsys):
    calls = []

    def counting(model, name, fam, real=hm.lifted_model_function):
        calls.append(name)
        return real(model, name, fam)

    monkeypatch.setattr(hm, "lifted_model_function", counting)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_DATA))
    assert cli.main(["check", "--law", "function", "--model", str(path), "--trials", "10"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")
    assert sorted(calls) == ["f", "g"]


def test_vector_denote_maps_each_entity_once(monkeypatch):
    calls = []

    def counting(m, a, real=hm.map_element):
        calls.append(a)
        return real(m, a)

    monkeypatch.setattr(hm, "map_element", counting)
    term = parse_term("and(R(a,g(a,b)),R(f(a),a))", MODEL.signature())
    hm.vector_denote(term, MODEL, {}, hm.LiftFamily.for_model(MODEL))
    assert sorted(calls) == ["e1", "e2"]


def test_function_node_checks_the_vector_its_lift_gives(monkeypatch):
    # each value is checked where it is made: a lift whose image is not an
    # entity vector is refused at its own node, named by its symbol
    def widened(model, name, fam, real=hm.lifted_model_function):
        lf = real(model, name, fam)
        wider = hm.build_domain_map((*fam.entity.elements, "extra"), tag="wider")
        extra_row = np.zeros((1, lf.mat.shape[1]), dtype=np.int64)
        return hm.LiftMatrix(lf.source, lf.arity, wider, np.vstack([lf.mat, extra_row]))

    monkeypatch.setattr(hm, "lifted_model_function", widened)
    term = parse_term("P(f(a))", MODEL.signature())
    with pytest.raises(hm.OffImageError, match="lift of function 'f' gave"):
        hm.vector_denote(term, MODEL, {}, hm.LiftFamily.for_model(MODEL))


# ---------------------------------------------------------------------------
# every lift is a matrix applied by arithmetic: a fault in one must fail a law


def test_a_lift_whose_column_is_not_one_hot_is_refused():
    lf = hm.lift_function({0: 1, 1: 0}, dmap(2), dmap(2))
    mat = lf.mat.copy()
    mat[0, 0] = 1  # column 0 is now [1, 1]
    with pytest.raises(hm.LiftError, match="basis vector"):
        hm.LiftMatrix(lf.source, lf.arity, lf.target, mat)
    with pytest.raises(hm.LiftError, match="must be 2 x 2\\^2"):
        hm.LiftMatrix(lf.source, 2, lf.target, lf.mat)


def _first_column_moved(real=hm.lift_function):
    """lift_function with the 1 of column 0 moved one row down: every column
    is still a basis vector, so only the laws can see the fault."""
    def lift(table, m_src, m_tgt, arity=1):
        lf = real(table, m_src, m_tgt, arity)
        mat = lf.mat.copy()
        mat[:, 0] = np.roll(mat[:, 0], 1)
        return hm.LiftMatrix(lf.source, lf.arity, lf.target, mat)
    return lift


@pytest.mark.parametrize("law", ["function", "formula"])
def test_a_wrong_entry_in_a_function_matrix_fails_the_law(monkeypatch, law):
    assert laws.run_law(law, 0, 100).ok
    monkeypatch.setattr(hm, "lift_function", _first_column_moved())
    assert not laws.run_law(law, 0, 100).ok


# two unary functions that do not commute: f is a cycle, h is not onto
CHAIN_MODEL = model_from_dict({
    "entities": ["e1", "e2", "e3"],
    "constants": {"a": "e1"},
    "functions": {"f": {"arity": 1, "table": [["e1", "e2"], ["e2", "e3"], ["e3", "e1"]]},
                  "h": {"arity": 1, "table": [["e1", "e1"], ["e2", "e1"], ["e3", "e2"]]}},
    "relations": {},
})


def test_a_reversed_product_in_compose_lifted_fails_the_chain_law(monkeypatch):
    assert laws.run_law("chain", 0, 50, CHAIN_MODEL).ok

    def reversed_product(*lifts):
        return hm.LiftMatrix(lifts[-1].source, lifts[-1].arity, lifts[0].target,
                             reduce(np.matmul, [lf.mat for lf in reversed(lifts)]))

    monkeypatch.setattr(hm, "compose_lifted", reversed_product)
    report = laws.run_law("chain", 0, 50, CHAIN_MODEL)
    assert not report.ok
    assert report.render().endswith("result: FAIL\n")


# g is the first projection, so g(a,b) is a and g(b,a) is b
PROJECTION_MODEL_DATA = {
    "entities": ["e1", "e2", "e3"],
    "constants": {"a": "e1", "b": "e2"},
    "functions": {"g": {"arity": 2, "table": [
        [x, y, x] for x in ["e1", "e2", "e3"] for y in ["e1", "e2", "e3"]]}},
    "relations": {"P": {"arity": 1, "tuples": [["e1"]]}},
}


def test_contracting_in_the_wrong_order_fails_the_formula_law_and_eval(monkeypatch, tmp_path,
                                                                      capsys):
    model = model_from_dict(PROJECTION_MODEL_DATA)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(PROJECTION_MODEL_DATA))
    eval_g = ["eval", "--model", str(path), "--expr", "g(a,b)"]
    assert laws.run_law("formula", 0, 50, model).ok
    assert cli.main(eval_g) == 0

    def first_argument_first(ten, vecs):
        for v in vecs:
            ten = ten.dot(v)
        return ten

    monkeypatch.setattr(vl, "contract", first_argument_first)
    assert laws.run_law("formula", 0, 50, model).render().endswith("result: FAIL\n")
    capsys.readouterr()
    assert cli.main(eval_g) == 1
    assert capsys.readouterr().out == "extensional: e1\nvector: 0 1 0\nagree: no\n"


def test_a_lifts_tensor_view_is_read_only():
    lf = hm.LiftFamily.for_model(MODEL).function("g")
    assert lf.ten.shape == (3, 3, 3) and np.shares_memory(lf.ten, lf.mat)
    with pytest.raises(ValueError, match="read-only"):
        lf.ten[0, 0, 0] = 0


def test_copies_of_operators_and_lifts_stay_read_only():
    lift = hm.LiftFamily.for_model(MODEL).function("g")
    assert lift.ten.shape == (3, 3, 3)  # made before the lift is copied
    for obj in (vl.named_operator("and"), lift):
        for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and np.array_equal(twin.mat, obj.mat)
            assert not twin.mat.flags.writeable and np.shares_memory(twin.ten, twin.mat)


def test_a_wrong_vector_union_fails_the_sets_law(monkeypatch):
    assert laws.run_law("sets", 0, 50).ok
    monkeypatch.setitem(hm.SET_OPS, "union", (set.union, lambda x, y: x + y))
    report = laws.run_law("sets", 0, 50)
    assert not report.ok
    assert all(" union of " in f for f in report.failures)
