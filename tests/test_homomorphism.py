"""Domain maps, lifts of functions/relations/subsets, chains, dual routes."""

import copy
import json
import pickle
from functools import reduce
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semlink import cli
from semlink import homomorphism as hm
from semlink import laws
from semlink import veclogic as vl
from semlink.model import Model, denote, model_from_dict, reset_tables
from semlink.sampling import Draws, random_formula, random_model
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


@pytest.mark.parametrize("lift", [
    hm.lift_function({(a, b): (a + 2 * b) % 3 for a in range(3) for b in range(3)},
                     dmap(3), dmap(3), 2),
    hm.lift_relation({(0, 1, 1), (1, 0, 0), (1, 1, 0)}, dmap(2), 3),
    vl.named_operator("cond"),
], ids=["binary-function", "ternary-relation", "cond"])
def test_table_is_the_lift_applied_to_each_mapped_tuple(lift):
    # table() reads column j for the j-th tuple; the lift applied by
    # contraction to the tuple's mapped vectors must give the same value
    src, tgt = lift.source, lift.target
    rows = list(lift.table())
    assert [tup for tup, _ in rows] == list(iproduct(src.elements, repeat=lift.arity))
    for tup, val in rows:
        assert val == hm.unmap_element(tgt, lift([hm.map_element(src, a) for a in tup]))


@pytest.mark.parametrize("n,arity", [(3, 2), (4, 1), (2, 3)])
def test_the_kron_fold_of_the_jth_tuple_is_basis_vector_j(n, arity):
    m = dmap(n)
    eye = np.eye(n ** arity, dtype=np.int64)
    for j, tup in enumerate(iproduct(m.elements, repeat=arity)):
        folded = vl.kron_fold([hm.map_element(m, a) for a in tup])
        assert folded.tolist() == eye[j].tolist()


def test_lifts_into_one_map_share_its_read_only_basis(monkeypatch):
    made = []
    eye = np.eye

    def counted(*args, **kwargs):
        made.append(args)
        return eye(*args, **kwargs)

    monkeypatch.setattr(np, "eye", counted)
    src, tgt = dmap(3, "src"), dmap(4, "tgt")
    hm.lift_relation([(0,)], tgt, 1)
    assert not made and tgt.basis is None  # made on first use by a function lift only
    f = hm.lift_function({0: 1, 1: 3, 2: 1}, src, tgt)
    g = hm.lift_function({0: 0, 1: 2, 2: 3}, src, tgt)
    assert made == [(4,)]
    assert f.mat.argmax(axis=0).tolist() == [1, 3, 1] and g.mat.argmax(axis=0).tolist() == [0, 2, 3]
    basis = hm.basis_matrix(tgt)
    assert basis is tgt.basis and basis.tolist() == eye(4, dtype=np.int64).tolist()
    assert not basis.flags.writeable
    assert not np.shares_memory(f.mat, basis)
    for twin in (copy.deepcopy(tgt), pickle.loads(pickle.dumps(tgt))):
        assert twin.basis is None  # rebuilt by the copy, not copied
        hm.lift_function({0: 0, 1: 2, 2: 3}, src, twin)
        assert twin.basis is not basis and not twin.basis.flags.writeable
    assert len(made) == 3


# ---------------------------------------------------------------------------
# function lifts


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
def test_lift_function_commutes(ds, dt, seed):
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(3)
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
    rng = np.random.default_rng(seed)
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


class _CountedOffImageError(vl.OffImageError):
    built = 0

    def __init__(self, *args):
        type(self).built += 1
        super().__init__(*args)


@pytest.mark.parametrize("arity,args", [
    (1, [[0, 0, 0]]), (1, [[1, 1, 0]]), (1, [[1, 0, 0, 0]]), (1, [[1, 0]]),
    (2, [[1, 0, 0], [0, 1, 1]]), (2, [[0, 0, 0], [1, 0]]), (2, [[2, 0, 0], [0, 0, 1]])],
    ids=["zeros", "two-ones", "too-long", "too-short", "second-two-ones",
         "both-off", "a-two"])
def test_a_relation_lift_is_false_off_image_and_builds_no_exception(monkeypatch, arity, args):
    # the relation law asks this once a trial: deciding it must not format,
    # raise and catch an OffImageError
    monkeypatch.setattr(_CountedOffImageError, "built", 0)
    monkeypatch.setattr(vl, "OffImageError", _CountedOffImageError)
    lifted = hm.lift_relation(set(iproduct(range(3), repeat=arity)), dmap(3), arity)
    assert lifted([np.array(a) for a in args]) is vl.FALSE_VEC
    assert _CountedOffImageError.built == 0


@pytest.mark.parametrize("args,message", [
    ([[0, 0, 0], [1, 1, 0]], "vector [0, 0, 0] is off the image of 'd'"),
    ([[1, 0, 0], [1, 1, 0]], "vector [1, 1, 0] is off the image of 'd'"),
    ([[1, 0], [0, 0, 0]], "vector of shape (2,) is off the image of 'd' (dim 3)"),
    ([[0, 1, 0], [[0, 1, 0]]], "vector of shape (1, 3) is off the image of 'd' (dim 3)")],
    ids=["first-of-two", "second", "shape-first", "shape-second"])
def test_a_function_lift_refuses_its_first_off_image_argument_by_its_message(args, message):
    lifted = hm.lift_function({t: t[0] for t in iproduct(range(3), repeat=2)},
                              dmap(3), dmap(3), 2)
    with pytest.raises(hm.OffImageError) as err:
        lifted([np.array(a) for a in args])
    assert str(err.value) == message


def test_lift_relation_over_truths_elements_is_false_off_image():
    # what makes a lift into TRUTH a relation's is a source map other than
    # TRUTH, even one with TRUTH's elements; an operator, or a copy of one,
    # refuses the same vector
    bits = hm.lift_relation({(1,)}, hm.build_domain_map((1, 0), tag="bits"), 1)
    assert bits([np.array([1, 1])]) is vl.FALSE_VEC
    op = vl.named_operator("not")
    for twin in (op, pickle.loads(pickle.dumps(op))):
        with pytest.raises(hm.OffImageError, match="off the image of 'truth'"):
            twin([np.array([1, 1])])


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
    monkeypatch.setattr(vl, "_BATCH_COLUMNS", 1)
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
    # a Model refuses such a relation first, so only a library caller gets here
    with pytest.raises(hm.LiftError, match="^a relation of arity 21 over 2 elements is past "
                                           "the caps of arity 20 and 2\\^20 tuples$"):
        hm.lift_relation({(0,) * 21}, m, 21)


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
    rng = np.random.default_rng(seed)
    m = dmap(6)
    e1 = {a for a in m.elements if rng.integers(2)}
    e2 = {a for a in m.elements if rng.integers(2)}
    ok, lifted = hm.check_set_ops(e1, e2, m)
    assert ok == {"union": True, "intersection": True, "difference": True}
    assert lifted.mat.tolist() == hm.lift_subset(e1, m).mat.tolist()


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


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(0, 4)), st.sampled_from([list, tuple, set, iter]))
def test_indicator_vector_is_the_top_row_of_the_subset_lift(members, kind):
    m = dmap(5)
    for subset in (members, [], list(m.elements), members + members):
        got, want = hm.indicator_vector(kind(subset), m), hm.lift_subset(set(subset), m).mat[0]
        assert got.tolist() == want.tolist()
        assert got.dtype == want.dtype == np.int64
        assert not got.flags.writeable and not want.flags.writeable
    with pytest.raises(hm.LiftError, match="outside domain"):
        hm.indicator_vector(kind(members + [5]), m)


@pytest.mark.parametrize("refuse", [
    lambda m: hm.lift_subset({0, "x"}, m),
    lambda m: hm.indicator_vector(iter([1, "x"]), m),
    lambda m: hm.check_set_ops({"x"}, {0}, m),
    lambda m: hm.check_set_ops({0}, ["x"], m),
], ids=["lift_subset", "indicator_vector", "check_set_ops-e1", "check_set_ops-e2"])
def test_a_subset_is_refused_by_the_element_outside_the_map(refuse):
    with pytest.raises(hm.LiftError) as err:
        refuse(dmap(3))
    assert str(err.value) == "element 'x' is outside domain 'd'"


def test_a_relation_is_refused_by_the_tuple_that_mentions_the_outside_element():
    for arity, tup in [(1, ("x",)), (2, (0, "x"))]:
        with pytest.raises(hm.LiftError) as err:
            hm.lift_relation([tup], dmap(3), arity)
        assert str(err.value) == f"tuple {tup!r} mentions 'x', outside domain 'd'"


@pytest.mark.parametrize("entities", [None, 9], ids=["random", "model-of-9"])
def test_a_sets_trial_builds_one_lift(monkeypatch, entities):
    # check_set_ops asks for e1's lift and returns it, and the law's
    # characteristic and indicator checks read that lift: one ask a trial,
    # also past 7 entities, where no lift is kept and an ask is a build
    lifts = []
    real = hm.lift_subset

    def recorded(subset, m):
        lifts.append(real(subset, m))
        return lifts[-1]

    model = random_model(Draws(0), entities) if entities else None
    monkeypatch.setattr(hm, "lift_subset", recorded)
    assert laws.run_law("sets", 0, 50, model).ok
    assert len(lifts) == 50
    if model is None:
        assert len(vl.kept_map(tuple(f"x{i}" for i in range(6)), "set-domain").lifts) <= 64


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
    with pytest.raises(hm.LiftError, match="^compose_lifted needs at least one lift$"):
        hm.compose_lifted()
    first = hm.lift_function({(x, y): x for x in range(2) for y in range(2)}, a, a, 2)
    with pytest.raises(hm.LiftError, match="^cannot compose after a lift of arity 2$"):
        hm.compose_lifted(first, f)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5), st.integers(0, 10_000))
def test_composition_chain_commutes(length, seed):
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(1, 6)) for _ in range(length + 1)]
    maps = [dmap(s, f"d{i}") for i, s in enumerate(sizes)]
    tables = [{a: int(rng.integers(sizes[i + 1])) for a in maps[i].elements}
              for i in range(length)]
    report = hm.check_composition_chain(tables, maps)
    assert report.ok
    assert report.checks == sizes[0]
    assert report.length == length


# f cycles three points and h folds them down; neither commutes with the other
_F, _H = {0: 1, 1: 2, 2: 0}, {0: 0, 1: 0, 2: 1}


def _reversed_product(*lifts):
    # the link matrices multiplied in the wrong order
    return hm.LiftMatrix(lifts[-1].source, lifts[-1].arity, lifts[0].target,
                         reduce(np.matmul, [lf.mat for lf in reversed(lifts)]))


def test_shifted_links_fail_the_chain_where_they_are_applied_in_turn(monkeypatch):
    maps = [dmap(3, f"d{i}") for i in range(3)]
    assert hm.check_composition_chain([_H, _H], maps) == hm.ChainReport(2, 3, True)
    monkeypatch.setattr(hm, "lift_function", _shifted_lift_function)
    # the links in turn take 0 to [0, 1, 0], not to the mapped h(h(0)) = 0; the
    # product route agrees at 0 with the direct lift, shifted as well
    assert hm.check_composition_chain([_H, _H], maps) == hm.ChainReport(
        2, 1, False, (0, [0, 1, 0], [1, 0, 0]))


def test_a_reversed_product_fails_the_chain_on_the_product_route_alone(monkeypatch):
    maps = [dmap(3, f"d{i}") for i in range(3)]
    assert hm.check_composition_chain([_F, _H], maps) == hm.ChainReport(2, 3, True)
    monkeypatch.setattr(hm, "compose_lifted", _reversed_product)
    # the product is f after h, which takes 0 to 1; h after f takes it to 0
    assert hm.check_composition_chain([_F, _H], maps) == hm.ChainReport(
        2, 1, False, (0, [0, 1, 0], [1, 0, 0]))


def test_the_chain_law_maps_no_element_one_at_a_time(monkeypatch):
    calls = []

    def counting(m, a, real=hm.map_element):
        calls.append(a)
        return real(m, a)

    monkeypatch.setattr(hm, "map_element", counting)
    assert laws.run_law("chain", 0, 50).ok
    assert laws.run_law("chain", 0, 50, CHAIN_MODEL).ok
    assert calls == []  # about 6 per chain when each point was mapped by itself


def test_the_chain_law_checks_no_column_of_a_built_lift_again(monkeypatch):
    # every link is built from its rows, and the product of lifts is a lift
    calls = []

    def counting(m, real=vl.columns_one_hot):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(vl, "columns_one_hot", counting)
    assert laws.run_law("chain", 0, 50).ok
    assert laws.run_law("chain", 0, 50, CHAIN_MODEL).ok
    assert calls == []
    hm.LiftMatrix(vl.TRUTH, 1, vl.TRUTH, np.eye(2, dtype=np.int64))
    assert calls == [(2, 2)]  # a hand-built lift is still checked


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=6), st.data())
def test_compose_lifted_is_the_lift_of_the_composite_over_range_maps(sizes, data):
    maps = [laws._range_map(s) for s in sizes]
    tables = [{a: data.draw(st.integers(0, t - 1)) for a in range(s)}
              for s, t in zip(sizes, sizes[1:])]
    product = hm.compose_lifted(*reversed([hm.lift_function(t, maps[i], maps[i + 1])
                                           for i, t in enumerate(tables)]))
    composite = {a: reduce(lambda v, t: t[v], tables, a) for a in maps[0].elements}
    direct = hm.lift_function(composite, maps[0], maps[-1])
    assert (product.source, product.arity, product.target) == (maps[0], 1, maps[-1])
    assert product.mat.tolist() == direct.mat.tolist()
    assert product.ten.shape == product.mat.shape and np.shares_memory(product.ten, product.mat)
    assert not product.mat.flags.writeable and not product.ten.flags.writeable


def test_a_permuted_basis_fails_the_chain_law(monkeypatch, tables):
    # the chain reads its mapped points from the maps' bases, not from
    # map_element, so a wrong basis on both sides must still show
    def permuted(m, real=vl.basis_matrix):
        return real(m)[:, np.roll(np.arange(m.dim), 1)]

    monkeypatch.setattr(vl, "basis_matrix", permuted)
    monkeypatch.setattr(hm, "basis_matrix", permuted)
    report = laws.run_law("chain", 0, 50)
    assert not report.ok
    assert report.render().endswith("result: FAIL\n")
    monkeypatch.undo()
    reset_tables()  # the maps kept lifts built under the permuted basis
    assert laws.run_law("chain", 0, 50).ok


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
    rng = Draws(seed)
    m = random_model(rng, n_entities=2 + rng.below(3))
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


def _rolled(lf):
    # every column's basis vector moved one row down: one-hot, but wrong
    return hm.LiftMatrix(lf.source, lf.arity, lf.target, np.roll(lf.mat, 1, axis=0))


def _shifted_function_lift(model, name, fam, real=hm.lifted_model_function):
    return _rolled(real(model, name, fam))


def _shifted_lift_function(table, m_src, m_tgt, arity=1, real=hm.lift_function):
    return _rolled(real(table, m_src, m_tgt, arity))


def _empty_relation_lift(tuples, m, arity, real=hm.lift_relation):
    return real((), m, arity)


def _member_dropped_relation_lift(tuples, m, arity, real=hm.lift_relation):
    return real(sorted(tuples)[1:], m, arity)


# each acts after the real builder, so on a kept map it breaks the kept lift it is given
BROKEN_LIFTS = {"lifted_model_function": _shifted_function_lift,
                "lift_function": _shifted_lift_function,
                "lift_relation": _empty_relation_lift}


@pytest.mark.parametrize("target", sorted(BROKEN_LIFTS))
def test_broken_lift_fails_formula_law(monkeypatch, tables, target):
    # warm, the real builder returns kept lifts: the fault acts after it, and must still show
    monkeypatch.setattr(hm, target, BROKEN_LIFTS[target])
    report = laws.run_law("formula", 0, 200)
    assert not report.ok
    assert report.render().endswith("result: FAIL\n")
    monkeypatch.undo()
    assert laws.run_law("formula", 0, 200).ok


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
                                        ("lift_relation", "relation")])
def test_broken_lift_fails_check_with_model(monkeypatch, tmp_path, capsys, target, law):
    # the relation law used to lift the model's relations by itself
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_DATA))
    argv = ["check", "--law", law, "--model", str(path), "--trials", "4"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(hm, target, BROKEN_LIFTS[target])
    assert cli.main(argv) == 1
    assert capsys.readouterr().out.endswith("result: FAIL\n")


SETS_REPORT_OF_A_DROPPED_MEMBER = (
    "law: sets\nseed: 0\ntrials: 20\nchecks: 200\nfailures: 66\n"
    "counterexample: trial 0: union of ['x0', 'x1', 'x2'] and ['x3', 'x4', 'x5'] does not commute\n"
    "counterexample: trial 0: difference of ['x0', 'x1', 'x2'] and ['x3', 'x4', 'x5'] "
    "does not commute\n"
    "counterexample: trial 0: characteristic of 'x0' in ['x0', 'x1', 'x2']: 1 vs 0\n"
    "counterexample: trial 0: indicator of ['x0', 'x1', 'x2'] is [0, 1, 1, 0, 0, 0], "
    "expected [1, 1, 1, 0, 0, 0]\n"
    "counterexample: trial 1: intersection of ['x0', 'x1', 'x2', 'x3', 'x4', 'x5'] and "
    "['x0', 'x1', 'x3', 'x4'] does not commute\n"
    "result: FAIL\n")
# each trial's first member of e1, and e1, where its characteristic is lifted 0 for 1
SETS_CHARACTERISTIC_OF_A_DROPPED_MEMBER = [
    (0, "x0", "012"), (1, "x0", "012345"), (2, "x1", "1245"), (4, "x1", "125"), (5, "x0", "0124"),
    (6, "x2", "235"), (7, "x0", "0124"), (8, "x3", "35"), (9, "x0", "024"), (10, "x0", "024"),
    (11, "x0", "023"), (12, "x3", "3"), (13, "x0", "0145"), (14, "x3", "345"),
    (15, "x0", "01234"), (16, "x2", "235"), (17, "x0", "0134"), (18, "x0", "0235"),
    (19, "x1", "1345")]


def test_relation_lift_that_drops_a_member_fails_the_sets_law(monkeypatch, capsys, tables):
    # subsets are lifted as unary relations, so the sets law checks lift_relation
    argv = ["check", "--law", "sets", "--trials", "20"]
    monkeypatch.setattr(hm, "lift_relation", _member_dropped_relation_lift)
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == SETS_REPORT_OF_A_DROPPED_MEMBER
    # the report shows five failures: every characteristic line is pinned here
    failures = laws.run_law("sets", 0, 20).failures
    assert [f for f in failures if "characteristic" in f] == [
        f"trial {t}: characteristic of {a!r} in {[f'x{i}' for i in e1]}: 1 vs 0"
        for t, a, e1 in SETS_CHARACTERISTIC_OF_A_DROPPED_MEMBER]
    monkeypatch.undo()
    assert cli.main(argv) == 0


# run_law("sets", k, 50, random_model(Draws(k), 9)): a 9-entity map keeps no
# subset lift, so each trial's lift of e1 is a build; captured at the commit
# before the law read e1's lift from check_set_ops
SETS_OVER_NINE_PASS = "law: sets\nseed: {k}\ntrials: 50\nchecks: 650\nfailures: 0\nresult: PASS\n"
SETS_OVER_NINE_OF_A_DROPPED_MEMBER = [
    "law: sets\nseed: 0\ntrials: 50\nchecks: 650\nfailures: 171\n"
    "counterexample: trial 0: intersection of ['e1', 'e2', 'e3'] and "
    "['e1', 'e2', 'e3', 'e4', 'e5', 'e6', 'e7', 'e8', 'e9'] does not commute\n"
    "counterexample: trial 0: characteristic of 'e1' in ['e1', 'e2', 'e3']: 1 vs 0\n"
    "counterexample: trial 0: indicator of ['e1', 'e2', 'e3'] is [0, 1, 1, 0, 0, 0, 0, 0, 0], "
    "expected [1, 1, 1, 0, 0, 0, 0, 0, 0]\n"
    "counterexample: trial 1: union of ['e1', 'e2', 'e4', 'e5', 'e8', 'e9'] and "
    "['e2', 'e3', 'e4', 'e7', 'e9'] does not commute\n"
    "counterexample: trial 1: difference of ['e1', 'e2', 'e4', 'e5', 'e8', 'e9'] and "
    "['e2', 'e3', 'e4', 'e7', 'e9'] does not commute\n"
    "result: FAIL\n",
    "law: sets\nseed: 1\ntrials: 50\nchecks: 650\nfailures: 173\n"
    "counterexample: trial 0: intersection of ['e2', 'e3', 'e4', 'e7', 'e8'] and "
    "['e2', 'e5', 'e8', 'e9'] does not commute\n"
    "counterexample: trial 0: characteristic of 'e2' in ['e2', 'e3', 'e4', 'e7', 'e8']: 1 vs 0\n"
    "counterexample: trial 0: indicator of ['e2', 'e3', 'e4', 'e7', 'e8'] is "
    "[0, 0, 1, 1, 0, 0, 1, 1, 0], expected [0, 1, 1, 1, 0, 0, 1, 1, 0]\n"
    "counterexample: trial 1: union of ['e3', 'e4', 'e5', 'e6', 'e7'] and ['e1', 'e6'] "
    "does not commute\n"
    "counterexample: trial 1: difference of ['e3', 'e4', 'e5', 'e6', 'e7'] and ['e1', 'e6'] "
    "does not commute\n"
    "result: FAIL\n",
    "law: sets\nseed: 2\ntrials: 50\nchecks: 650\nfailures: 177\n"
    "counterexample: trial 0: intersection of ['e1', 'e6'] and "
    "['e1', 'e2', 'e3', 'e4', 'e6', 'e8'] does not commute\n"
    "counterexample: trial 0: characteristic of 'e1' in ['e1', 'e6']: 1 vs 0\n"
    "counterexample: trial 0: indicator of ['e1', 'e6'] is [0, 0, 0, 0, 0, 1, 0, 0, 0], "
    "expected [1, 0, 0, 0, 0, 1, 0, 0, 0]\n"
    "counterexample: trial 1: intersection of ['e2', 'e4', 'e7', 'e9'] and "
    "['e1', 'e2', 'e5', 'e6', 'e7', 'e8', 'e9'] does not commute\n"
    "counterexample: trial 1: characteristic of 'e2' in ['e2', 'e4', 'e7', 'e9']: 1 vs 0\n"
    "result: FAIL\n",
]


@pytest.mark.parametrize("k", range(3))
def test_the_sets_law_over_a_model_past_the_kept_lifts_gives_these_reports(monkeypatch,
                                                                            tables, k):
    def run():
        return laws.run_law("sets", k, 50, random_model(Draws(k), 9)).render()

    assert run() == SETS_OVER_NINE_PASS.format(k=k)
    monkeypatch.setattr(hm, "lift_relation", _member_dropped_relation_lift)
    assert run() == SETS_OVER_NINE_OF_A_DROPPED_MEMBER[k]


@pytest.mark.parametrize("law,target,broken,want", [
    ("function", "lift_function", _shifted_lift_function,
     "law: function\nseed: 0\ntrials: 10\nchecks: 72\nfailures: 71\n"
     + "".join(f"counterexample: trial 0: element {a}: lifted {got} expected {want}\n"
               for a, got, want in [(0, [0, 0, 0, 1], [0, 0, 1, 0]),
                                    (1, [0, 0, 1, 0], [0, 1, 0, 0]),
                                    (2, [0, 0, 1, 0], [0, 1, 0, 0]),
                                    (3, [0, 1, 0, 0], [1, 0, 0, 0]),
                                    (4, [0, 1, 0, 0], [1, 0, 0, 0])])
     + "result: FAIL\n"),
    ("chain", "lift_function", _shifted_lift_function,
     "law: chain\nseed: 0\ntrials: 10\nchecks: 17\nfailures: 8\n"
     "counterexample: trial 1: chain of length 4 at 0: lifted [1, 0, 0, 0, 0] "
     "expected [0, 1, 0, 0, 0]\n"
     "counterexample: trial 2: chain of length 3 at 0: lifted [0, 1, 0] expected [1, 0, 0]\n"
     "counterexample: trial 3: chain of length 3 at 0: lifted [0, 0, 0, 1] "
     "expected [1, 0, 0, 0]\n"
     "counterexample: trial 4: chain of length 4 at 0: lifted [0, 0, 1] expected [0, 1, 0]\n"
     "counterexample: trial 5: chain of length 4 at 0: lifted [1, 0] expected [0, 1]\n"
     "result: FAIL\n"),
    ("relation", "lift_relation", _empty_relation_lift,
     "law: relation\nseed: 0\ntrials: 10\nchecks: 107\nfailures: 54\n"
     + "".join(f"counterexample: trial 0: tuple {t}: lifted 0 extensional 1\n"
               for t in ([0, 0], [1, 3], [2, 0], [2, 1], [2, 2]))
     + "result: FAIL\n"),
    ("sets", "lift_relation", _member_dropped_relation_lift,
     "law: sets\nseed: 0\ntrials: 10\nchecks: 100\nfailures: 30\n"
     "counterexample: trial 0: union of ['x0', 'x1', 'x2'] and ['x3', 'x4', 'x5'] "
     "does not commute\n"
     "counterexample: trial 0: difference of ['x0', 'x1', 'x2'] and ['x3', 'x4', 'x5'] "
     "does not commute\n"
     "counterexample: trial 0: characteristic of 'x0' in ['x0', 'x1', 'x2']: 1 vs 0\n"
     "counterexample: trial 0: indicator of ['x0', 'x1', 'x2'] is [0, 1, 1, 0, 0, 0], "
     "expected [1, 1, 1, 0, 0, 0]\n"
     "counterexample: trial 1: intersection of ['x0', 'x1', 'x2', 'x3', 'x4', 'x5'] "
     "and ['x0', 'x1', 'x3', 'x4'] does not commute\n"
     "result: FAIL\n"),
])
def test_a_broken_builder_fails_the_law_with_these_lines(monkeypatch, tables, law, target,
                                                         broken, want):
    # every golden report is a PASS: these pin the failing lines and counts,
    # also where the real builder behind each broken one returns kept lifts
    monkeypatch.setattr(hm, target, broken)
    assert laws.run_law(law, 0, 10).render() == want


def test_a_rolled_function_lift_fails_the_unary_sweep_at_its_first_point(monkeypatch):
    assert laws.sweep_unary_function_lifts(2) == (13, [])
    monkeypatch.setattr(hm, "lift_function", _shifted_lift_function)
    checks, failures = laws.sweep_unary_function_lifts(2)
    assert (checks, len(failures)) == (13, 10)
    assert failures[0] == "table (0,) from 1 to 2 at 0: lifted [0, 1] expected [1, 0]"


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
    assert vec is fam.leaf("e1")
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


def test_families_over_one_map_share_its_entity_vectors(monkeypatch):
    calls = []

    def counting(m, a, real=hm.map_element):
        calls.append(a)
        return real(m, a)

    monkeypatch.setattr(hm, "map_element", counting)
    m = hm.entity_map(MODEL)
    first, second = hm.LiftFamily(MODEL, m), hm.LiftFamily(MODEL, m)
    assert first.leaf("e1") is second.leaf("e1") is m.vectors["e1"]
    assert calls == ["e1"]
    assert not hm.LiftFamily.for_model(MODEL).leaf("e1").flags.writeable  # a new map makes its own
    assert calls == ["e1", "e1"]
    for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin.vectors == {}


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


@pytest.mark.parametrize("broken,want", [
    (False, "law: function\nseed: 0\ntrials: 50\nchecks: 800\nfailures: 0\nresult: PASS\n"),
    (True, "law: function\nseed: 0\ntrials: 50\nchecks: 800\nfailures: 50\n"
     + "".join(f"counterexample: trial {t}: function f{t % 2 + 1} at ['e1', 'e1']: "
               "lifted [0, 1, 0, 0] expected [1, 0, 0, 0]\n" for t in range(5))
     + "result: FAIL\n"),
])
def test_a_fixed_models_function_law_reads_each_lift_once(monkeypatch, broken, want):
    model = random_model(Draws(3), n_entities=4)  # two binary functions, f1 and f2
    if broken:
        monkeypatch.setattr(hm, "lift_function", _first_column_moved())
    read = []
    table = hm.LiftMatrix.table

    def counted(self):
        read.append(self)
        return table(self)

    monkeypatch.setattr(hm.LiftMatrix, "table", counted)
    assert laws.run_law("function", 0, 50, model).render() == want
    assert len(read) == len({id(lf) for lf in read}) == len(model.functions) == 2


@pytest.mark.parametrize("broken,failure", [
    (None, None),
    ("lift_relation", "tuple ['e1']: lifted 0 extensional 1"),
    ("__call__", "off-image argument did not evaluate to 0"),
], ids=["real", "member-dropped", "off-image-true"])
def test_a_fixed_models_relation_law_reads_each_lift_once(monkeypatch, broken, failure):
    model = random_model(Draws(3), n_entities=4)  # two unary relations, P1 and P2
    if broken == "lift_relation":
        monkeypatch.setattr(hm, "lift_relation", _member_dropped_relation_lift)
    elif broken == "__call__":
        monkeypatch.setattr(hm.LiftMatrix, "__call__", lambda self, vecs: vl.TRUE_VEC)
    read = []
    table = hm.LiftMatrix.table

    def counted(self):
        read.append(self)
        return table(self)

    monkeypatch.setattr(hm.LiftMatrix, "table", counted)
    want = "law: relation\nseed: 0\ntrials: 50\nchecks: 250\nfailures: 0\nresult: PASS\n"
    if failure:
        want = ("law: relation\nseed: 0\ntrials: 50\nchecks: 250\nfailures: 50\n"
                + "".join(f"counterexample: trial {t}: relation P{t % 2 + 1}: {failure}\n"
                          for t in range(5))
                + "result: FAIL\n")
    assert laws.run_law("relation", 0, 50, model).render() == want
    assert len(read) == len({id(lf) for lf in read}) == len(model.relations) == 2


@pytest.mark.parametrize("law", ["function", "relation", "chain"])
def test_a_law_run_builds_each_domain_map_once(monkeypatch, law):
    # the law's maps are kept for the process, one per size: after a first
    # run, a second makes no kept_map miss, and every lift is over those maps
    assert laws.run_law(law, 0, 200).ok
    misses, lifts = vl.kept_map.cache_info().misses, []

    def spy(fn):
        def wrapped(*args, **kwargs):
            lifts.append(fn(*args, **kwargs))
            return lifts[-1]
        return wrapped

    monkeypatch.setattr(hm, "lift_function", spy(hm.lift_function))
    monkeypatch.setattr(hm, "lift_relation", spy(hm.lift_relation))
    assert laws.run_law(law, 0, 200).ok
    assert vl.kept_map.cache_info().misses == misses
    assert len({lf.source.dim for lf in lifts}) > 1
    for lf in lifts:
        assert lf.source is laws._range_map(lf.source.dim)
        assert lf.target is vl.TRUTH or lf.target is laws._range_map(lf.target.dim)


# two unary functions that do not commute: f is a cycle, h is not onto
CHAIN_MODEL_DATA = {
    "entities": ["e1", "e2", "e3"],
    "constants": {"a": "e1"},
    "functions": {"f": {"arity": 1, "table": [["e1", "e2"], ["e2", "e3"], ["e3", "e1"]]},
                  "h": {"arity": 1, "table": [["e1", "e1"], ["e2", "e1"], ["e3", "e2"]]}},
    "relations": {},
}
CHAIN_MODEL = model_from_dict(CHAIN_MODEL_DATA)


def test_a_reversed_product_in_compose_lifted_fails_the_chain_law(monkeypatch):
    assert laws.run_law("chain", 0, 50, CHAIN_MODEL).ok
    monkeypatch.setattr(hm, "compose_lifted", _reversed_product)
    assert laws.run_law("chain", 0, 50, CHAIN_MODEL).render() == (
        "law: chain\nseed: 0\ntrials: 50\nchecks: 108\nfailures: 21\n"
        + "".join(f"counterexample: trial {t}: chain of length {n} at 'e1': "
                  f"lifted {got} expected {want}\n"
                  for t, n, got, want in [(9, 5, [0, 1, 0], [1, 0, 0]),
                                          (13, 4, [0, 0, 1], [1, 0, 0]),
                                          (14, 5, [0, 1, 0], [1, 0, 0]),
                                          (15, 4, [1, 0, 0], [0, 1, 0]),
                                          (18, 3, [1, 0, 0], [0, 1, 0])])
        + "result: FAIL\n")


def _added_product(*lifts):
    # the link matrices added, not multiplied, and built unchecked as the real
    # product is: a column of k links sums to k, so it is no basis vector
    return vl._lift_of(lifts[-1].source, lifts[-1].arity, lifts[0].target,
                       reduce(np.add, [lf.mat for lf in lifts]))


def test_a_product_that_is_no_lift_fails_the_chain_law_by_name(monkeypatch, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(CHAIN_MODEL_DATA))
    argv = ["check", "--law", "chain", "--model", str(path), "--trials", "50"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(hm, "compose_lifted", _added_product)
    want = ("law: chain\nseed: 0\ntrials: 50\nchecks: 74\nfailures: 38\n"
            + "".join(f"counterexample: trial {t}: chain of length {n} at 'e1': "
                      f"lifted {got} expected [1, 0, 0]\n"
                      for t, n, got in [(0, 5, [2, 3, 0]), (3, 4, [4, 0, 0]), (4, 4, [4, 0, 0]),
                                        (5, 2, [2, 0, 0]), (7, 5, [4, 1, 0])])
            + "result: FAIL\n")
    assert laws.run_law("chain", 0, 50, CHAIN_MODEL).render() == want
    capsys.readouterr()
    assert cli.main(argv) == 1  # the routes disagree: not 2, a refused lift
    assert capsys.readouterr().out == want


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


def _tensor_view_cases():
    d3, d2 = dmap(3, "d3"), dmap(2, "d2")
    f = hm.lift_function({0: 1, 1: 1, 2: 0}, d3, d2)
    g = hm.lift_function({0: 1, 1: 0}, d2, d3)
    return [
        (hm.lift_function({(a, b): a for a in range(3) for b in range(3)}, d3, d3, 2), (3, 3, 3)),
        (hm.lift_relation([(0, 1), (2, 2)], d3, 2), (2, 3, 3)),
        (hm.compose_lifted(g, f), (3, 3)),
        (vl.named_operator("cond"), (2, 2, 2, 2)),
        (vl.synth_operator(vl.TruthTable.from_bits("0110")), (2, 2, 2)),
    ]


@pytest.mark.parametrize("obj,shape", _tensor_view_cases(),
                         ids=["function", "relation", "composed", "named", "synthesized"])
def test_every_lift_and_operator_has_its_tensor_view_when_built(obj, shape):
    # the constructor stores the view: it is not made when first read
    assert "ten" in vars(obj)
    for twin in (obj, copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and np.array_equal(twin.mat, obj.mat)
        assert (twin.source.elements, twin.arity, twin.target.elements) == (
            obj.source.elements, obj.arity, obj.target.elements)
        assert type(twin.ten) is np.ndarray and twin.ten.shape == shape
        assert np.shares_memory(twin.ten, twin.mat)
        assert not twin.ten.flags.writeable and not twin.mat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            twin.ten[(0,) * len(shape)] = 1


def test_a_fixed_models_formula_law_builds_its_signature_once(monkeypatch):
    model = model_from_dict(PROJECTION_MODEL_DATA)
    want = laws.run_law("formula", 0, 50, model).render()
    calls = []
    signature = Model.signature

    def counted(self):
        calls.append(self)
        return signature(self)

    monkeypatch.setattr(Model, "signature", counted)
    assert laws.run_law("formula", 0, 50, model).render() == want
    assert len(calls) == 1 and calls[0] is model  # 50 before: one per trial
    assert want == ("law: formula\nseed: 0\ntrials: 50\nchecks: 50\nfailures: 0\n"
                    "result: PASS\n")


def test_a_wrong_vector_union_fails_the_sets_law(monkeypatch):
    assert laws.run_law("sets", 0, 50).ok
    monkeypatch.setitem(hm.SET_OPS, "union", (set.union, lambda x, y: x + y))
    report = laws.run_law("sets", 0, 50)
    assert not report.ok
    assert all(" union of " in f for f in report.failures)


@pytest.mark.parametrize("name", sorted(hm.SET_OPS))
def test_a_set_result_outside_the_map_is_refused_by_the_element(monkeypatch, name):
    # the results are read from the sets in the map's order, which never
    # meets an element outside the map: it must still be refused by name
    on_sets, on_vectors = hm.SET_OPS[name]
    monkeypatch.setitem(hm.SET_OPS, name, (lambda a, b: on_sets(a, b) | {"zz"}, on_vectors))
    m = vl.kept_map(tuple(f"x{i}" for i in range(6)), "set-domain")
    want = "element 'zz' is outside domain 'set-domain'"
    for e1, e2 in [({"x0", "x1"}, {"x1", "x2"}), (set(), set()), (set(m.elements), {"x3"})]:
        with pytest.raises(hm.LiftError) as err:
            hm.check_set_ops(e1, e2, m)
        assert str(err.value) == want
    with pytest.raises(hm.LiftError) as err:
        laws.run_law("sets", 0, 20)
    assert str(err.value) == want


def test_union_computed_as_intersection_fails_the_sets_law(monkeypatch):
    monkeypatch.setitem(hm.SET_OPS, "union", (set.intersection, hm.SET_OPS["union"][1]))
    assert laws.run_law("sets", 0, 20).render() == (
        "law: sets\nseed: 0\ntrials: 20\nchecks: 200\nfailures: 20\n"
        "counterexample: trial 0: union of ['x0', 'x1', 'x2'] and ['x3', 'x4', 'x5'] "
        "does not commute\n"
        "counterexample: trial 1: union of ['x0', 'x1', 'x2', 'x3', 'x4', 'x5'] and "
        "['x0', 'x1', 'x3', 'x4'] does not commute\n"
        "counterexample: trial 2: union of ['x1', 'x2', 'x4', 'x5'] and ['x0', 'x3', 'x5'] "
        "does not commute\n"
        "counterexample: trial 3: union of [] and ['x3', 'x4', 'x5'] does not commute\n"
        "counterexample: trial 4: union of ['x1', 'x2', 'x5'] and "
        "['x0', 'x1', 'x3', 'x4', 'x5'] does not commute\n"
        "result: FAIL\n")


# ---------------------------------------------------------------------------
# kept maps keep their lifts (what each keeps, lift by lift: test_veclogic.KeptLifts)


def _kept(n, tag):
    """A kept map over n elements whose tag no law uses, with an empty table."""
    m = vl.kept_map(tuple(f"k{i}" for i in range(n)), tag)
    m.lifts.clear()
    return m


def test_a_range_map_is_the_kept_map_of_its_size():
    # the laws' range maps live in kept_map's table alone, so a reset drops them
    reset_tables()
    before = laws._range_map(3)
    hm.lift_relation([(0,)], before, 1)
    assert len(before.lifts) == 1
    reset_tables()
    after = laws._range_map(3)
    assert after is not before and after.lifts == {}
    assert after is vl.kept_map(tuple(range(3)), "range3")
    for d in range(1, 6):  # every size the laws draw
        m = laws._range_map(d)
        assert m is vl.kept_map(tuple(range(d)), f"range{d}")
        assert (m.elements, m.tag) == (tuple(range(d)), f"range{d}")
    assert laws._range_map(7) is vl.kept_map(tuple(range(7)), "range7")
    with pytest.raises(ValueError, match="^domain must be nonempty$"):
        laws._range_map(0)


def test_only_a_kept_map_has_a_lift_table():
    assert dmap(3).lifts is None and hm.entity_map(MODEL).lifts is None
    assert hm.LiftFamily.for_model(MODEL).entity.lifts is None
    m = _kept(3, "kept-copies")
    hm.lift_relation([("k0",)], m, 1)
    assert len(m.lifts) == 1
    for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and twin is not m and twin.lifts is None


def test_a_kept_maps_lift_table_stays_within_its_bound():
    # the unary relations over 7 elements are 2^7 = KEPT_LIFTS tables, so
    # all are kept and none is ever evicted; over 8 elements (2^8) none is
    assert vl.KEPT_LIFTS == 1 << 7
    seven, eight = _kept(7, "kept-bound-7"), _kept(8, "kept-bound-8")

    def subset(m, i):  # the subset whose members are the bits of i
        return hm.lift_subset([a for k, a in enumerate(m.elements) if i >> k & 1], m)

    first = [subset(seven, i) for i in range(1 << 7)]
    assert len(seven.lifts) == vl.KEPT_LIFTS
    assert all(subset(seven, i) is lf for i, lf in enumerate(first))
    assert len(seven.lifts) == vl.KEPT_LIFTS
    assert subset(eight, 5) is not subset(eight, 5) and eight.lifts == {}
    # a unary function over 3 elements has 3^3 tables and is kept; over 4,
    # 4^4 = 256, and it is not
    for n, admitted in ((3, True), (4, False)):
        m = _kept(n, f"kept-bound-fn-{n}")
        f = {a: m.elements[0] for a in m.elements}
        assert (hm.lift_function(f, m, m) is hm.lift_function(f, m, m)) == admitted
        assert len(m.lifts) == admitted


def test_formula_law_runs_share_their_kept_entity_maps(monkeypatch):
    reset_tables()
    built = []

    def spy(real):
        def wrapped(*args):
            built.append(real(*args))
            return built[-1]
        return wrapped

    monkeypatch.setattr(hm, "lift_function", spy(hm.lift_function))
    monkeypatch.setattr(hm, "lift_relation", spy(hm.lift_relation))
    first = laws.run_law("formula", 0, 20).render()
    runs = [built[:]]
    built.clear()
    assert laws.run_law("formula", 0, 20).render() == first
    runs.append(built)
    monkeypatch.undo()
    assert vl.kept_map.cache_info().misses == 3  # 2 to 4 entities, one kept map each
    maps = {lf.source.elements: lf.source for lf in runs[0]}
    assert len(maps) == 3 and all(m.lifts is not None for m in maps.values())
    kept = {id(lf) for m in maps.values() for lf in m.lifts.values()}
    # the second run's lifts, over the same maps, are the first run's where
    # their kind is admitted, and equal rebuilt ones elsewhere
    assert len(runs[1]) == len(runs[0])
    assert 0 < sum(id(a) in kept for a in runs[0]) < len(runs[0])
    for a, b in zip(*runs):
        assert b.source is maps[b.source.elements]
        assert (a is b) == (id(a) in kept) and np.array_equal(a.mat, b.mat)
    reset_tables()
    for elements, m in maps.items():
        fresh = vl.kept_map(elements, "entity")
        assert fresh is not m and fresh == m and len(fresh.lifts) == 0
    # every admitted kind over 2 to 4 entities, once the law has drawn it:
    # 2 entities keep 4 + 16 function and 4 + 16 relation tables, 3 keep 27
    # unary functions and 8 unary relations, and 4 keep 16 unary relations
    for s in range(200):
        laws.run_law("formula", s, 20)
    sizes = {len(elements): len(vl.kept_map(elements, "entity").lifts) for elements in maps}
    assert sizes == {2: 40, 3: 35, 4: 16}
