"""The mass sweeps in laws run the shipped synth, lift and polynomial code.

Each sweep returns (checks, failures).  They pass on the real code, and a
deliberately broken synth_operator, lift_relation, LiftMatrix or
majority_polynomial makes the matching sweep report failures.  Inputs are
given as numpy arrays and as nested lists, which the sweeps accept alike.
"""

import itertools

import numpy as np
import pytest

from semlink import homomorphism as hm
from semlink import laws
from semlink import veclogic as vl
from semlink.laws import all_relation_masks
from semlink.sampling import make_rng, random_truth_tables

CONTAINERS = ["numpy", "list"]


def as_container(a, container):
    return np.asarray(a) if container == "numpy" else np.asarray(a).tolist()


def all_tables(n):
    rows = list(itertools.product([0, 1], repeat=1 << n))
    return np.array(rows, dtype=np.int8)


# ---------------------------------------------------------------------------
# operator faithfulness


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_faithfulness_holds_for_every_table(container, n):
    tables = all_tables(n)
    checks, failures = laws.sweep_operator_faithfulness(as_container(tables, container), n)
    assert failures == []
    assert checks == len(tables) << n


@pytest.mark.parametrize("container", CONTAINERS)
def test_faithfulness_random_wide_tables(container):
    rng = make_rng(11)
    for n in (4, 5, 6):
        tables = random_truth_tables(rng, n, 500)
        assert laws.sweep_operator_faithfulness(as_container(tables, container), n) \
            == (500 << n, [])


@pytest.mark.parametrize("container", CONTAINERS)
def test_faithfulness_flags_non_boolean_garbage(container):
    # a 2 in the table is not a truth table at all; the sweep reports it at
    # exactly its index and keeps checking the others
    tables = np.vstack([all_tables(2), np.array([[1, 0, 2, 0]], dtype=np.int8)])
    _, failures = laws.sweep_operator_faithfulness(as_container(tables, container), 2)
    assert len(failures) == 1
    assert failures[0].startswith(f"table {len(tables) - 1}: ")


def test_faithfulness_validates_shape():
    with pytest.raises(ValueError):
        laws.sweep_operator_faithfulness(np.zeros((3, 5), dtype=np.int8), 2)


@pytest.mark.parametrize("container", CONTAINERS)
def test_kernel_sweep_agrees_with_api_loop(container):
    rng = make_rng(23)
    tables = random_truth_tables(rng, 3, 40)
    assert laws.sweep_operator_faithfulness(as_container(tables, container), 3) == (320, [])
    for row in tables:
        op = vl.synth_operator(vl.TruthTable(3, row))
        for j in range(8):
            ins = [vl.embed_truth(b) for b in vl.column_bits(j, 3)]
            assert vl.project_truth(vl.apply_operator(op, ins)) == row[j]


def test_faithfulness_sweep_catches_broken_synth(monkeypatch):
    real = vl.synth_operator

    def negated_column_zero(table):
        mat = real(table).mat.copy()
        mat[:, 0] = mat[::-1, 0]
        return vl.OpMatrix(table.arity, mat)

    monkeypatch.setattr(vl, "synth_operator", negated_column_zero)
    checks, failures = laws.sweep_operator_faithfulness(all_tables(2), 2)
    assert checks == 64
    assert len(failures) == 16
    assert failures[0].startswith("table 0: column 0: operator gave [1, 0] for output 0")


def test_faithfulness_sweep_catches_broken_fold(monkeypatch):
    # a fold that always returns the first basis vector evaluates every
    # input as the all-true row
    monkeypatch.setattr(vl, "kron_fold", lambda vecs: np.eye(1 << len(vecs),
                                                             dtype=np.int64)[0])
    _, failures = laws.sweep_operator_faithfulness(all_tables(2), 2)
    assert failures


# ---------------------------------------------------------------------------
# majority


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("n", range(1, 8))
def test_majority_polynomial_kernel_matches_api(container, n):
    assert laws.sweep_majority(n) == (1 << n, [])
    for j in range(1 << n):
        bits = vl.column_bits(j, n)
        assert vl.majority_polynomial(n, as_container(bits, container)) \
            == vl.majority_bit(bits)


def test_majority_sweep_catches_broken_polynomial(monkeypatch):
    real = vl.majority_polynomial
    # ties counted as wins: only even arities have ties
    monkeypatch.setattr(vl, "majority_polynomial",
                        lambda n, inputs: real(n, inputs) | int(2 * sum(inputs) == n))
    assert laws.sweep_majority(3) == (8, [])
    checks, failures = laws.sweep_majority(4)
    assert checks == 16
    assert len(failures) == 6
    assert failures[0] == "majority of [1, 1, 0, 0]: definition 0 polynomial 1 operator 0"


# ---------------------------------------------------------------------------
# relation biconditional


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("d,arity", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)])
def test_relation_sweep_every_relation(container, d, arity):
    masks = all_relation_masks(d, arity)
    checks, failures = laws.sweep_relations(as_container(masks, container), d, arity)
    assert failures == []
    assert checks == len(masks) * (d ** arity + 1)


def test_relation_sweep_validates_shape():
    with pytest.raises(ValueError):
        laws.sweep_relations(np.zeros((2, 7), dtype=np.int8), 2, 2)


def test_relation_sweep_catches_broken_lift(monkeypatch):
    real = hm.lift_relation

    def drops_a_member(tuples, m, arity):
        return real(sorted(tuples)[1:], m, arity)

    monkeypatch.setattr(hm, "lift_relation", drops_a_member)
    _, failures = laws.sweep_relations(all_relation_masks(2, 2), 2, 2)
    # every nonempty relation loses its first member
    assert len(failures) == 15
    assert failures[0] == "relation 1: tuple [0, 0]: lifted 0 extensional 1"


def test_relation_sweep_catches_transposed_arguments(monkeypatch):
    real = hm.argument_columns

    def transposed(m, arity):
        # each tuple reads the column of its components in reverse order
        return real(m, arity).reshape((m.dim,) * arity).transpose().ravel()

    monkeypatch.setattr(hm, "argument_columns", transposed)
    _, failures = laws.sweep_relations(all_relation_masks(2, 2), 2, 2)
    # 8 of the 16 relations tell (0, 1) from (1, 0), and each fails at both
    assert len(failures) == 2 * 8
    assert failures[0] == "relation 2: tuple [0, 1]: lifted 0 extensional 1"


def test_relation_sweep_catches_off_image_true(monkeypatch):
    real = hm.LiftMatrix.__call__

    def call(self, vecs):
        out = real(self, vecs)
        return vl.TRUE_VEC if not all(vl.is_one_hot(v) for v in vecs) else out

    monkeypatch.setattr(hm.LiftMatrix, "__call__", call)
    _, failures = laws.sweep_relations(all_relation_masks(2, 2), 2, 2)
    assert len(failures) == 16
    assert "relation 0: off-image argument did not evaluate to 0" in failures


def test_relation_law_report_does_not_depend_on_batch_size(monkeypatch):
    # the relation law asks each lift about its tuples a batch at a time
    whole = laws.run_law("relation", 4, 40).render()
    monkeypatch.setattr(hm, "_BATCH_COLUMNS", 5)
    assert laws.run_law("relation", 4, 40).render() == whole


def test_all_relation_masks_enumerates_all():
    masks = all_relation_masks(2, 1)
    assert sorted(map(tuple, masks.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError):
        all_relation_masks(6, 2)  # 2^36 relations
