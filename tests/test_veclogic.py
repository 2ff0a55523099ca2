"""Truth vectors, operator synthesis, named operators, majority forms.

Expected matrices are frozen from hand-checked sources; the operator
faithfulness law is cross-checked against classical evaluation.
"""

import copy
import pickle
import re
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from semlink import homomorphism as hm
from semlink import veclogic
from semlink.terms import ConnectiveKind
from semlink.veclogic import (
    ArityCapError,
    TruthTable,
    ARITY_CAP,
    LiftError,
    LiftMatrix,
    OffImageError,
    TRUTH,
    apply_operator,
    build_domain_map,
    columns_one_hot,
    contract,
    embed_truth,
    is_one_hot,
    kept_map,
    kron,
    kron_fold,
    lift_by_rows,
    majority_bit,
    majority_matrix,
    majority_polynomial,
    majority_table,
    named_operator,
    project_truth,
    synth_operator,
)

NOT_MAT = [[0, 1], [1, 0]]
AND_MAT = [[1, 0, 0, 0], [0, 1, 1, 1]]
OR_MAT = [[1, 1, 1, 0], [0, 0, 0, 1]]
IMPLIES_MAT = [[1, 0, 1, 1], [0, 1, 0, 0]]
IFF_MAT = [[1, 0, 0, 1], [0, 1, 1, 0]]
XOR_MAT = [[0, 1, 1, 0], [1, 0, 0, 1]]
COND_MAT = [[1, 1, 0, 0, 1, 0, 1, 0], [0, 0, 1, 1, 0, 1, 0, 1]]
MAJ3_MAT = [[1, 1, 1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1, 1, 1]]
MAJ4_MAT = [[1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1]]

CLASSICAL = {
    ConnectiveKind.NOT: lambda a: 1 - a,
    ConnectiveKind.AND: lambda a, b: a & b,
    ConnectiveKind.OR: lambda a, b: a | b,
    ConnectiveKind.IMPLIES: lambda a, b: (1 - a) | b,
    ConnectiveKind.IFF: lambda a, b: 1 - (a ^ b),
    ConnectiveKind.XOR: lambda a, b: a ^ b,
    ConnectiveKind.COND: lambda c, a, b: a if c else b,
}


def columns(n):
    """Every n-tuple of bits in column order, the lexicographic order over TRUTH."""
    return product(TRUTH.elements, repeat=n)


# ---------------------------------------------------------------------------
# embedding and projection


def test_embed_is_one_hot_basis():
    assert embed_truth(1).tolist() == [1, 0]
    assert embed_truth(0).tolist() == [0, 1]
    with pytest.raises(ValueError):
        embed_truth(2)


def test_project_inverts_embed():
    assert project_truth(embed_truth(1)) == 1
    assert project_truth(embed_truth(0)) == 0


@pytest.mark.parametrize("bad", [
    [0.5, 0.5], [1, 1], [0, 0], [2, -1], [1, 0, 0], [1]])
def test_project_rejects_non_truth_vectors(bad):
    with pytest.raises(OffImageError):
        project_truth(np.array(bad))


def test_embedding_is_injective_and_orthonormal():
    s, n = embed_truth(1), embed_truth(0)
    assert not np.array_equal(s, n)
    assert int(s @ n) == 0
    assert int(s @ s) == 1 and int(n @ n) == 1


# ---------------------------------------------------------------------------
# kronecker products and column order


def test_kron_of_embeddings_hits_third_basis_vector():
    v = kron_fold([embed_truth(1), embed_truth(0), embed_truth(1)])
    assert v.tolist() == [0, 0, 1, 0, 0, 0, 0, 0]


def test_kron_matches_numpy():
    big = np.iinfo(np.int64).max // 4
    pairs = [
        ([1, 2], [3, 4, 5]),
        ([7], [1, 0, 0]),
        ([0, 0, 1], [9]),
        ([-3, 2, 0, 5], [4, -1]),
        ([1, 0], [0, 1]),
        ([2, -2], [big, -big]),  # exact int64 products, no float detour
        ([0, 0], [0, 0, 0]),
    ]
    for u, v in pairs:
        u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
        got = kron(u, v)
        assert got.dtype == np.int64 and got.shape == (u.size * v.size,)
        assert np.array_equal(got, np.kron(u, v)), (u, v)
    vecs = [np.array(x, dtype=np.int64) for x in ([1, 2], [0, 3, 1], [5, -1])]
    assert np.array_equal(kron_fold(vecs), np.kron(np.kron(vecs[0], vecs[1]), vecs[2]))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
def test_fold_of_embedded_bits_is_basis_vector_of_column(bits):
    v = kron_fold([embed_truth(b) for b in bits])
    j = list(columns(len(bits))).index(tuple(bits))
    expected = np.zeros(1 << len(bits), dtype=np.int64)
    expected[j] = 1
    assert np.array_equal(v, expected)


def test_column_order_descends_lexicographically():
    order = [(1, 1), (1, 0), (0, 1), (0, 0)]
    assert list(columns(2)) == order
    assert [bits for bits, _ in named_operator("and").table()] == order
    assert TruthTable.from_function(lambda a, b: a, 2).bitstring() == "1100"


AND = named_operator("and")


@pytest.mark.parametrize("call,error,message", [
    # an operator is a lift over TRUTH, so an input off TRUTH's image is
    # refused, whether the operator is called or applied
    (lambda: named_operator("not")([np.array([1, 1])]), OffImageError,
     "vector [1, 1] is off the image of 'truth'"),
    (lambda: apply_operator(AND, [embed_truth(1), np.array([1, 1])]), OffImageError,
     "vector [1, 1] is off the image of 'truth'"),
    (lambda: AND([embed_truth(1), np.array([1, 0, 0])]), OffImageError,
     "vector of shape (3,) is off the image of 'truth' (dim 2)"),
    # with several inputs off the image, the first is named
    (lambda: AND([np.array([1, 1]), np.array([1, 0, 0])]), OffImageError,
     "vector [1, 1] is off the image of 'truth'"),
    (lambda: AND([np.array([1, 0, 0]), np.array([0, 0])]), OffImageError,
     "vector of shape (3,) is off the image of 'truth' (dim 2)"),
    (lambda: AND([embed_truth(1)]), LiftError, "lift of arity 2 got 1 arguments"),
    (lambda: apply_operator(AND, [embed_truth(1)]), LiftError,
     "lift of arity 2 got 1 arguments"),
    (lambda: AND([embed_truth(1)] * 3), LiftError, "lift of arity 2 got 3 arguments"),
    (lambda: project_truth(np.array([1, 1])), OffImageError,
     "vector [1, 1] is off the image of 'truth'"),
    (lambda: project_truth(np.array([1, 0, 0])), OffImageError,
     "vector of shape (3,) is off the image of 'truth' (dim 2)"),
], ids=["call-off-image", "apply-off-image", "call-wrong-shape", "call-first-of-two-off-image",
        "call-first-of-two-wrong-shape", "call-too-few",
        "apply-too-few", "call-too-many", "project-off-image", "project-wrong-shape"])
def test_operator_refusals_name_the_value(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_kron_fold_rejects_empty():
    with pytest.raises(ValueError):
        kron_fold([])


@st.composite
def tensors_and_vectors(draw):
    """Any int64 matrix of arity 1-4 over dims 1-5, not only a one-hot one,
    with argument vectors small enough that no product overflows."""
    n, d, rows = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    ints = st.integers(-1000, 1000)
    mat = draw(arrays(np.int64, (rows, d ** n), elements=ints))
    vecs = [draw(arrays(np.int64, (d,), elements=ints)) for _ in range(n)]
    return mat, vecs


@settings(max_examples=200, deadline=None)
@given(tensors_and_vectors())
def test_contract_equals_matrix_times_kron_fold(case):
    mat, vecs = case
    got = contract(mat.reshape((mat.shape[0],) + vecs[0].shape * len(vecs)), vecs)
    assert got.dtype == np.int64
    assert np.array_equal(got, mat @ kron_fold(vecs))


def test_tensor_view_is_read_only_and_shares_the_matrix():
    op = named_operator("cond")
    assert op.ten.shape == (2, 2, 2, 2) and np.shares_memory(op.ten, op.mat)
    with pytest.raises(ValueError, match="read-only"):
        op.ten[0, 0, 0, 0] = 0
    assert op.mat.tolist() == COND_MAT


# ---------------------------------------------------------------------------
# truth tables


def test_table_from_bits():
    t = TruthTable.from_bits("1000")
    assert t.arity == 2
    assert t.outputs[0] == 1
    assert t.outputs[1] == 0 and t.outputs[2] == 0 and t.outputs[3] == 0
    assert t.bitstring() == "1000"


def test_table_from_bits_with_explicit_arity():
    t = TruthTable.from_bits("10", arity=1)
    assert t.outputs[0] == 1 and t.outputs[1] == 0


def test_table_from_bits_validation():
    with pytest.raises(ValueError):
        TruthTable.from_bits("10a0")
    with pytest.raises(ValueError):
        TruthTable.from_bits("100")  # not a power of two
    with pytest.raises(ValueError):
        TruthTable.from_bits("")
    with pytest.raises(ValueError):
        TruthTable.from_bits("1000", arity=3)


def test_table_from_function():
    t = TruthTable.from_function(lambda a, b: a & b, 2)
    assert t.bitstring() == "1000"


def test_table_rejects_non_bits():
    with pytest.raises(ValueError):
        TruthTable(1, np.array([2, 0], dtype=np.int8))
    with pytest.raises(ValueError):
        TruthTable(1, np.array([256, 1]))
    with pytest.raises(ValueError):
        TruthTable(0, np.array([1], dtype=np.int8))


def test_table_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match=re.escape("table for arity 2 needs 2^2 outputs, got (3,)")):
        TruthTable(2, np.array([1, 0, 1], dtype=np.int8))


# ---------------------------------------------------------------------------
# synthesis


def test_synth_conjunction_reproduces_known_matrix():
    op = synth_operator(TruthTable.from_bits("1000"))
    assert op.mat.tolist() == AND_MAT


@settings(max_examples=120)
@given(st.integers(1, 4), st.data())
def test_synth_columns_embed_outputs(n, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    table = TruthTable(n, np.array(bits, dtype=np.int8))
    op = synth_operator(table)
    for j in range(1 << n):
        assert np.array_equal(op.mat[:, j], embed_truth(bits[j]))


@settings(max_examples=120)
@given(st.integers(1, 4), st.data())
def test_operator_faithful_to_table(n, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    table = TruthTable(n, np.array(bits, dtype=np.int8))
    op = synth_operator(table)
    for j, tup in enumerate(columns(n)):
        ins = [embed_truth(b) for b in tup]
        assert project_truth(apply_operator(op, ins)) == bits[j]


def test_projecting_each_column_inverts_synth():
    for bits in ("10", "0110", "10010110"):
        mat = synth_operator(TruthTable.from_bits(bits)).mat
        assert "".join(str(project_truth(mat[:, j])) for j in range(mat.shape[1])) == bits


def test_operator_validation():
    with pytest.raises(LiftError):
        LiftMatrix(TRUTH, 1, TRUTH, np.array([[1, 1], [1, 0]]))  # first column sums to 2
    with pytest.raises(LiftError):
        LiftMatrix(TRUTH, 2, TRUTH, np.array([[1, 0], [0, 1]]))  # wrong width for arity
    with pytest.raises(LiftError):
        LiftMatrix(TRUTH, 1, TRUTH, np.array([[2, 0], [-1, 1]]))


def test_a_checked_lift_keeps_a_copy_of_the_callers_array():
    # kept as it is, an int64 array would be frozen under its caller, and a
    # write through it once unfrozen would change a lift that was checked
    a = np.eye(2, dtype=np.int64)
    lift = LiftMatrix(TRUTH, 1, TRUTH, a)
    assert a.flags.writeable and not np.shares_memory(lift.mat, a)
    assert not lift.mat.flags.writeable and not lift.ten.flags.writeable
    a[:, 0] = [1, 1]
    assert lift.mat.tolist() == [[1, 0], [0, 1]]
    assert lift([embed_truth(1)]).tolist() == [1, 0]


ABC = build_domain_map(("a", "b", "c"), tag="abc")


@pytest.mark.parametrize("rows,message", [
    ([-1, 0, 0], "row -1 of a lift into 'abc' is outside range(3)"),  # take would wrap it to c
    ([0, 3, 0], "row 3 of a lift into 'abc' is outside range(3)"),  # take would raise IndexError
    (np.array([0, 2, -1], dtype=np.int8), "row -1 of a lift into 'abc' is outside range(3)"),
    (bytearray([0, 1, 3]), "row 3 of a lift into 'abc' is outside range(3)"),
    ([0, 1], "lift of arity 1 from dim 3 to dim 3 must be 3 x 3^1, got (3, 2)"),
    # 256 has no byte: a uint8 cast would wrap it to 0, a valid row
    ([0, 256, 0], "row 256 of a lift into 'abc' is outside range(3)"),
    (np.array([0, 256, 0], dtype=np.int64), "row 256 of a lift into 'abc' is outside range(3)"),
])
def test_lift_by_rows_refuses_rows_that_pick_no_basis_vector(rows, message):
    for m in (ABC, kept_map(ABC.elements, "abc")):
        with pytest.raises(LiftError, match=re.escape(message)):
            lift_by_rows(m, 1, m, rows)


@pytest.mark.parametrize("holder", [list, bytearray, lambda rows: np.array(rows, dtype=np.int64),
                                    lambda rows: np.array(rows, dtype=np.uint8)],
                         ids=["list", "bytearray", "int64", "uint8"])
def test_lift_by_rows_builds_a_new_lift_on_every_call(monkeypatch, holder):
    # no map keeps a lift: each call, over a plain or a kept map, takes its
    # columns from the target's basis anew, whatever holds the same rows
    taken = []

    def counted(m, real=veclogic.basis_matrix):
        taken.append(m)
        return real(m)

    monkeypatch.setattr(veclogic, "basis_matrix", counted)
    kept = kept_map(ABC.elements, "abc")
    maps = (ABC, kept, kept)
    lifts = [lift_by_rows(m, 1, m, holder([2, 1, 0])) for m in maps]
    assert taken == list(maps) and len(set(map(id, lifts))) == 3
    for lift, m in zip(lifts, maps):
        assert type(lift) is LiftMatrix and lift.arity == 1
        assert lift.source is m and lift.target is m
        assert lift.mat.tolist() == np.eye(3, dtype=np.int64)[:, [2, 1, 0]].tolist()
        assert lift.ten.shape == (3, 3) and lift.ten.base is lift.mat
        assert not lift.mat.flags.writeable and not lift.ten.flags.writeable
        assert not np.shares_memory(lift.mat, m.basis)


def test_lift_by_rows_checks_a_long_bytes_row_as_an_array():
    # past 256 rows a bytes-like is viewed by numpy, not reduced by the builtins
    ten = build_domain_map(range(10), tag="ten")
    rows = bytearray(1000)
    assert lift_by_rows(ten, 3, TRUTH, rows).mat[0].tolist() == [1] * 1000
    rows[999] = 2
    with pytest.raises(LiftError, match=re.escape("row 2 of a lift into 'truth' is outside range(2)")):
        lift_by_rows(ten, 3, TRUTH, rows)


def test_a_domain_map_hashes_by_its_tag_and_elements():
    m = build_domain_map(("a", "b"), tag="ab")
    same = [build_domain_map(("a", "b"), tag="ab"), copy.deepcopy(m),
            pickle.loads(pickle.dumps(m)), kept_map(("a", "b"), "ab")]
    assert all(x == m and hash(x) == hash(m) for x in same) and len({m, *same}) == 1
    assert hash(copy.deepcopy(TRUTH)) == hash(TRUTH)
    assert m not in [build_domain_map(*other) for other in [(("b", "a"), "ab"), (("a",), "ab"),
                                                            (("a", "b"), "ba")]]


@st.composite
def near_one_hot(draw):
    """A 1-4 x 1-9 int64 matrix with one-hot columns, then up to three
    entries overwritten with values in -2..2."""
    t, n = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    m = np.zeros((t, n), dtype=np.int64)
    m[draw(st.lists(st.integers(0, t - 1), min_size=n, max_size=n)), np.arange(n)] = 1
    for _ in range(draw(st.integers(0, 3))):
        m[draw(st.integers(0, t - 1)), draw(st.integers(0, n - 1))] = draw(st.integers(-2, 2))
    return m


_WIDE = np.eye(2, dtype=np.int64)[:, np.arange(1 << 12) % 2]
_WIDE_LAST_2_MINUS_1 = _WIDE.copy()
_WIDE_LAST_2_MINUS_1[:, -1] = [2, -1]  # sums to 1 with two nonzero entries


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_one_hot(),
                 arrays(np.int64, st.tuples(st.integers(1, 4), st.integers(1, 9)),
                        elements=st.integers(-2, 2))))
@example(np.array([[2], [-1]], dtype=np.int64))
@example(np.array([[1, 0], [1, 0]], dtype=np.int64))
@example(_WIDE)
@example(_WIDE_LAST_2_MINUS_1)
def test_columns_one_hot_is_every_column_one_hot(m):
    assert columns_one_hot(m) == all(is_one_hot(col) for col in m.T)


def test_apply_operator_validates_inputs():
    op = named_operator(ConnectiveKind.AND)
    with pytest.raises(LiftError, match=re.escape("lift of arity 2 got 1 arguments")):
        apply_operator(op, [embed_truth(1)])
    with pytest.raises(OffImageError, match=re.escape("vector [1, 1] is off the image of 'truth'")):
        apply_operator(op, [embed_truth(1), np.array([1, 1])])


_ENTRIES = (-1, 0, 1, 2, 0.5, float("nan"))


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from([np.int64, np.float64, np.bool_, object]),
       shape=st.sampled_from([(2,), (1,), (3,), (2, 1)]), data=st.data())
def test_apply_operator_accepts_exactly_the_one_hot_pairs(dtype, shape, data):
    pool = _ENTRIES[:-1] if dtype is np.int64 else _ENTRIES  # nan has no int64 value
    size = int(np.prod(shape))
    entries = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    v = np.array(entries, dtype=dtype).reshape(shape)
    want = v.shape == (2,) and is_one_hot(v)
    op = named_operator(ConnectiveKind.AND)
    # each input is checked, whether the operator is called or applied, and
    # one that is off the image raises where a relation's lift would be false
    for inputs, apply in product(([v, embed_truth(1)], [embed_truth(0), v]),
                                 (op, lambda ins: apply_operator(op, ins))):
        try:
            apply(inputs)
        except OffImageError:
            accepted = False
        else:
            accepted = True
        assert accepted == want, (v, inputs)


def test_results_are_exact_integers():
    op = named_operator(ConnectiveKind.AND)
    out = apply_operator(op, [embed_truth(1), embed_truth(0)])
    assert out.dtype == np.int64
    assert op.mat.dtype == np.int64


# ---------------------------------------------------------------------------
# named operators


@pytest.mark.parametrize("kind,expected", [
    (ConnectiveKind.NOT, NOT_MAT),
    (ConnectiveKind.AND, AND_MAT),
    (ConnectiveKind.OR, OR_MAT),
    (ConnectiveKind.IMPLIES, IMPLIES_MAT),
    (ConnectiveKind.IFF, IFF_MAT),
    (ConnectiveKind.XOR, XOR_MAT),
    (ConnectiveKind.COND, COND_MAT),
])
def test_named_operator_matrices(kind, expected):
    assert named_operator(kind).mat.tolist() == expected


def test_named_operator_accepts_keyword_strings():
    assert named_operator("and").mat.tolist() == AND_MAT
    assert named_operator("NOT").mat.tolist() == NOT_MAT
    with pytest.raises(ValueError):
        named_operator("nand")


@pytest.mark.parametrize("kind", list(ConnectiveKind))
def test_named_operator_agrees_with_classical_function(kind):
    op = named_operator(kind)
    fn = CLASSICAL[kind]
    for bits in columns(kind.arity):
        out = apply_operator(op, [embed_truth(b) for b in bits])
        assert project_truth(out) == fn(*bits)


@pytest.mark.parametrize("kind", list(ConnectiveKind))
def test_named_operator_equals_synthesized(kind):
    table = TruthTable.from_function(CLASSICAL[kind], kind.arity)
    assert np.array_equal(named_operator(kind).mat, synth_operator(table).mat)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_operator_is_the_lift_of_its_truth_function_over_truth(n):
    # the column convention is the lexicographic order over TRUTH, so the
    # operator of every table is the lift of its truth function, built as a
    # relation and as a function alike
    for outputs in product((0, 1), repeat=1 << n):
        table = TruthTable(n, np.array(outputs, dtype=np.int8))
        fn = {bits: int(table.outputs[j]) for j, bits in enumerate(columns(n))}
        op = synth_operator(table)
        as_relation = hm.lift_relation([bits for bits, out in fn.items() if out], TRUTH, n)
        as_function = hm.lift_function(fn if n > 1 else {bits[0]: out for bits, out in fn.items()},
                                       TRUTH, TRUTH, n)
        assert (op.source, op.arity, op.target) == (TRUTH, n, TRUTH)
        assert op.mat.tolist() == as_relation.mat.tolist() == as_function.mat.tolist()


@pytest.mark.parametrize("kind", list(ConnectiveKind))
def test_named_operator_table_is_the_classical_function(kind):
    op, fn = named_operator(kind), CLASSICAL[kind]
    assert op.source is op.target is TRUTH
    assert list(op.table()) == [(bits, fn(*bits)) for bits in columns(kind.arity)]


def test_implication_is_disjunction_of_negated_antecedent():
    neg = named_operator(ConnectiveKind.NOT).mat
    disj = named_operator(ConnectiveKind.OR).mat
    built = disj @ np.kron(neg, np.eye(2, dtype=np.int64))
    assert np.array_equal(built, named_operator(ConnectiveKind.IMPLIES).mat)


def test_xor_is_negated_equivalence():
    neg = named_operator(ConnectiveKind.NOT).mat
    eqv = named_operator(ConnectiveKind.IFF).mat
    assert np.array_equal(neg @ eqv, named_operator(ConnectiveKind.XOR).mat)


# ---------------------------------------------------------------------------
# majority


def test_majority_matrices_match_expected():
    assert majority_matrix(3).mat.tolist() == MAJ3_MAT
    assert majority_matrix(4).mat.tolist() == MAJ4_MAT


def test_majority_is_strict_on_ties():
    assert majority_bit((1, 0)) == 0
    assert majority_bit((1, 1, 0, 0)) == 0
    assert majority_bit((1, 1, 1, 0)) == 1
    assert majority_bit((1,)) == 1 and majority_bit((0,)) == 0


def test_majority_polynomial_three_input_expansion():
    # against the explicit four-term sum for n=3
    def explicit(t1, t2, t3):
        return (t1 * t2 * (1 - t3) + t1 * t3 * (1 - t2)
                + t2 * t3 * (1 - t1) + t1 * t2 * t3)
    for bits in columns(3):
        assert majority_polynomial(3, bits) == explicit(*bits)


@pytest.mark.parametrize("n", range(1, 8))
def test_majority_three_routes_agree(n):
    op = majority_matrix(n)
    for bits in columns(n):
        direct = majority_bit(bits)
        poly = majority_polynomial(n, bits)
        mat = project_truth(apply_operator(op, [embed_truth(b) for b in bits]))
        assert direct == poly == mat


def test_majority_polynomial_validates():
    with pytest.raises(ValueError):
        majority_polynomial(3, (1, 0))
    with pytest.raises(ValueError):
        majority_polynomial(2, (1, 2))


def test_majority_table_bitstrings():
    assert majority_table(1).bitstring() == "10"
    assert majority_table(2).bitstring() == "1000"  # ties go false
    assert majority_table(3).bitstring() == "11101000"


# ---------------------------------------------------------------------------
# arity cap


def test_default_cap_allows_twenty():
    assert ARITY_CAP == 20
    op = synth_operator(TruthTable(20, np.zeros(1 << 20, dtype=np.int8)))
    assert op.mat.shape == (2, 1 << 20)


def test_operator_at_the_cap_applies_by_contraction():
    table = TruthTable(20, np.random.default_rng(20).integers(0, 2, 1 << 20))
    op = synth_operator(table)
    assert op.ten.ndim == 21
    # the all-true tuple, the all-false one, and true at every third input
    for j in (0, (1 << 20) - 1, 0b01101101101101101101):
        bits = next(islice(columns(20), j, None))
        assert project_truth(apply_operator(op, [embed_truth(b) for b in bits])) == table.outputs[j]


def test_cap_blocks_synthesis():
    with pytest.raises(ArityCapError, match="arity 21 exceeds the cap of 20"):
        majority_matrix(21)
    with pytest.raises(ArityCapError):
        synth_operator(TruthTable(21, np.zeros(1 << 21, dtype=np.int8)))

