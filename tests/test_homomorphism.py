"""Domain maps, lifts of functions/relations/subsets, chains, dual routes."""

import json

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


def test_product_map_basis_is_kron_of_components():
    m = dmap(3)
    pm = hm.product_map(m, 2)
    assert pm.dim == 9
    for a in m.elements:
        for b in m.elements:
            combined = hm.map_element(pm, (a, b))
            folded = vl.kron(hm.map_element(m, a), hm.map_element(m, b))
            assert np.array_equal(combined, folded)


def test_product_map_arity_one_is_identity():
    m = dmap(4)
    assert hm.product_map(m, 1) is m
    with pytest.raises(ValueError):
        hm.product_map(m, 0)


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
        assert np.array_equal(lifted(hm.map_element(src, a)),
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
        lifted(np.array([1, 1]))


def test_lifted_function_never_leaves_image():
    src, tgt = dmap(4), dmap(3)
    rng = make_rng(3)
    table = {a: int(rng.integers(3)) for a in src.elements}
    lifted = hm.lift_function(table, src, tgt)
    for a in src.elements:
        out = lifted(hm.map_element(src, a))
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
        assert got == want


def test_lift_relation_off_image_is_false_not_error():
    m = dmap(3)
    lifted = hm.lift_relation({(0,), (2,)}, m, 1)
    assert lifted([np.zeros(3, dtype=np.int64)]) == 0
    assert lifted([np.array([1, 1, 0])]) == 0
    assert lifted([np.array([1, 0, 0])]) == 1


def test_lift_relation_batch_matches_single_calls():
    m = dmap(3)
    lifted = hm.lift_relation({(0, 1), (2, 2)}, m, 2)
    e = [hm.map_element(m, i) for i in range(3)]
    rows = [[e[0], e[1]], [e[1], e[0]], [e[2], e[2]],
            [e[0], np.array([0, 1, 1])], [np.zeros(3, dtype=np.int64), e[1]]]
    assert lifted.holds(np.array(rows)).tolist() == [1, 0, 1, 0, 0]
    assert [lifted(row) for row in rows] == [1, 0, 1, 0, 0]
    # vectors of the wrong length are off the image, alone or in a batch
    assert lifted.holds(np.ones((2, 2, 4), dtype=np.int64)).tolist() == [0, 0]
    assert lifted([e[0], np.array([0, 1, 0, 0])]) == 0
    with pytest.raises(hm.LiftError):
        lifted.holds(np.zeros((2, 3, 3), dtype=np.int64))


def test_lift_relation_table_asks_every_tuple_in_order(monkeypatch):
    m = hm.build_domain_map(["u", "v", "w"], tag="letters")
    lifted = hm.lift_relation({("u", "w"), ("w", "v")}, m, 2)
    rows = list(lifted.table())
    assert [tup for tup, _ in rows] == [(a, b) for a in "uvw" for b in "uvw"]
    assert [tup for tup, bit in rows if bit] == [("u", "w"), ("w", "v")]
    # one tuple per batch gives the same rows
    monkeypatch.setattr(hm, "_BATCH_ENTRIES", 1)
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
        assert lifted([vec]) == (a in subset)


def test_lift_subset_edge_cases():
    m = dmap(3)
    assert hm.lift_subset(set(), m).members == frozenset()
    assert len(hm.lift_subset(set(m.elements), m).members) == 3


def test_lift_subset_is_the_unary_relation_of_its_members():
    m = hm.build_domain_map("uvw", tag="letters")
    assert hm.lift_subset({"w", "u"}, m) == hm.lift_relation({("u",), ("w",)}, m, 1)
    with pytest.raises(hm.LiftError):
        hm.lift_subset({"z"}, m)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_set_operations_commute(seed):
    rng = make_rng(seed)
    m = dmap(6)
    e1 = {a for a in m.elements if rng.integers(2)}
    e2 = {a for a in m.elements if rng.integers(2)}
    assert hm.check_set_ops(e1, e2, m).ok


def test_characteristic_agreement():
    m = dmap(3)
    assert hm.characteristic({0, 1}, m, 0) == (1, 1)
    assert hm.characteristic({0, 1}, m, 2) == (0, 0)


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
    assert np.array_equal(composed.lut, direct.lut)
    for x in a.elements:
        assert np.array_equal(composed(hm.map_element(a, x)),
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
            vec = lf(vec)
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
    assert np.array_equal(lf(hm.map_element(fam.entity, "e1")),
                          hm.map_element(fam.entity, "e2"))
    lg = hm.lifted_model_function(MODEL, "g", fam)
    pm = hm.product_map(fam.entity, 2)
    folded = vl.kron(hm.map_element(fam.entity, "e2"),
                     hm.map_element(fam.entity, "e2"))
    assert np.array_equal(lg(folded), hm.map_element(fam.entity, "e1"))
    assert np.array_equal(lg(hm.map_element(pm, ("e1", "e2"))),
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
    lf = real(model, name, fam)
    return hm.LiftedFunction(lf.source, lf.target, (lf.lut + 1) % lf.target.dim)


def _empty_relation_lift(model, name, fam):
    return hm.LiftedRelation(fam.entity, model.relations[name].arity, frozenset())


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
    hm.vector_denote(term, MODEL, {}, fam)  # no state carried across calls
    assert sorted(calls) == ["f", "f", "g", "g"]


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
        return hm.LiftedFunction(lf.source, wider, lf.lut)

    monkeypatch.setattr(hm, "lifted_model_function", widened)
    term = parse_term("P(f(a))", MODEL.signature())
    with pytest.raises(hm.OffImageError, match="lift of function 'f' gave"):
        hm.vector_denote(term, MODEL, {}, hm.LiftFamily.for_model(MODEL))
