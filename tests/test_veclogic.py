"""Truth vectors, operator synthesis, named operators, majority forms.

Expected matrices are frozen from hand-checked sources; the operator
faithfulness law is cross-checked against classical evaluation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from semlink.terms import ConnectiveKind
from semlink.veclogic import (
    ArityCapError,
    OpMatrix,
    TruthTable,
    ARITY_CAP,
    apply_operator,
    column_bits,
    column_index,
    contract,
    embed_truth,
    is_one_hot,
    kron,
    kron_fold,
    majority_bit,
    majority_matrix,
    majority_polynomial,
    majority_table,
    named_operator,
    project_truth,
    synth_operator,
    table_of,
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
    with pytest.raises(ValueError):
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
    j = column_index(bits)
    expected = np.zeros(1 << len(bits), dtype=np.int64)
    expected[j] = 1
    assert np.array_equal(v, expected)


@given(st.integers(1, 10))
def test_column_bits_inverts_column_index(n):
    for j in range(1 << n):
        assert column_index(column_bits(j, n)) == j
    assert column_bits(0, n) == (1,) * n  # first column is all-true


def test_column_order_descends_lexicographically():
    order = [column_bits(j, 2) for j in range(4)]
    assert order == [(1, 1), (1, 0), (0, 1), (0, 0)]


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
    assert t((1, 1)) == 1
    assert t((1, 0)) == 0 and t((0, 1)) == 0 and t((0, 0)) == 0
    assert t.bitstring() == "1000"


def test_table_from_bits_with_explicit_arity():
    t = TruthTable.from_bits("10", arity=1)
    assert t((1,)) == 1 and t((0,)) == 0


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
    for j in range(1 << n):
        ins = [embed_truth(b) for b in column_bits(j, n)]
        assert project_truth(apply_operator(op, ins)) == bits[j]


def test_table_of_inverts_synth():
    for bits in ("10", "0110", "10010110"):
        table = TruthTable.from_bits(bits)
        assert table_of(synth_operator(table)).bitstring() == bits


def test_opmatrix_validation():
    with pytest.raises(ValueError):
        OpMatrix(1, np.array([[1, 1], [1, 0]]))  # first column sums to 2
    with pytest.raises(ValueError):
        OpMatrix(2, np.array([[1, 0], [0, 1]]))  # wrong width for arity
    with pytest.raises(ValueError):
        OpMatrix(1, np.array([[2, 0], [-1, 1]]))


def test_apply_operator_validates_inputs():
    op = named_operator(ConnectiveKind.AND)
    with pytest.raises(ValueError):
        apply_operator(op, [embed_truth(1)])
    with pytest.raises(ValueError):
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
    for inputs in ([v, embed_truth(1)], [embed_truth(0), v]):  # each input is checked
        try:
            apply_operator(op, inputs)
        except ValueError:
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
    for j in range(1 << kind.arity):
        bits = column_bits(j, kind.arity)
        out = apply_operator(op, [embed_truth(b) for b in bits])
        assert project_truth(out) == fn(*bits)


@pytest.mark.parametrize("kind", list(ConnectiveKind))
def test_named_operator_equals_synthesized(kind):
    table = TruthTable.from_function(CLASSICAL[kind], kind.arity)
    assert np.array_equal(named_operator(kind).mat, synth_operator(table).mat)


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
    for j in range(8):
        bits = column_bits(j, 3)
        assert majority_polynomial(3, bits) == explicit(*bits)


@pytest.mark.parametrize("n", range(1, 8))
def test_majority_three_routes_agree(n):
    op = majority_matrix(n)
    for j in range(1 << n):
        bits = column_bits(j, n)
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
    for bits in [(1,) * 20, (0,) * 20, tuple(int(j % 3 == 0) for j in range(20))]:
        assert project_truth(apply_operator(op, [embed_truth(b) for b in bits])) == table(bits)


def test_cap_blocks_synthesis():
    with pytest.raises(ArityCapError, match="arity 21 exceeds the cap of 20"):
        majority_matrix(21)
    with pytest.raises(ArityCapError):
        synth_operator(TruthTable(21, np.zeros(1 << 21, dtype=np.int8)))


ENTRIES = {
    np.int64: st.sampled_from([0, 1, -1, 2, 2**63 - 1, -2**63]),
    np.float64: st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1.0 + 2**-52, 0.5,
                                 float("nan"), float("inf"), float("-inf")]),
    np.bool_: st.booleans(),
}


@st.composite
def short_and_long_vectors(draw):
    """Vectors of length 1-70 of one dtype: zeros (or falses) but for a few
    entries, so that one-hot vectors and near misses are both common."""
    dtype = draw(st.sampled_from(sorted(ENTRIES, key=str)))
    n = draw(st.integers(1, 70))
    v = np.zeros(n, dtype=dtype)
    for i, x in draw(st.dictionaries(st.integers(0, n - 1), ENTRIES[dtype], max_size=3)).items():
        v[i] = x
    return v


@given(short_and_long_vectors())
def test_one_hot_rule_is_the_same_for_one_vector_and_along_an_axis(v):
    assert is_one_hot(v) == is_one_hot(v[None], axis=1)[0]
