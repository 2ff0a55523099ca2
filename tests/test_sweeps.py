"""The mass sweeps in laws run the shipped synth, lift and polynomial code.

Each sweep returns (checks, failures).  They pass on the real code, and a
deliberately broken synth_operator, contract, apply_operator, lift_relation,
LiftMatrix or majority_polynomial makes the matching sweep report failures.
Inputs are given as numpy arrays and as nested lists, which the sweeps
accept alike.
"""

import itertools

import numpy as np
import pytest

from semlink import homomorphism as hm
from semlink import laws
from semlink import veclogic as vl
from semlink.laws import all_relation_masks

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
    rng = np.random.default_rng(11)
    for n in (4, 5, 6):
        tables = rng.integers(0, 2, size=(500, 1 << n), dtype=np.int8)
        assert laws.sweep_operator_faithfulness(as_container(tables, container), n) \
            == (500 << n, [])


@pytest.mark.parametrize("container", CONTAINERS)
def test_faithfulness_flags_non_boolean_garbage(container):
    # a 2 in the table is not a truth table at all; the sweep reports it at
    # exactly its index, as one check that synthesizes nothing, and keeps
    # checking the others
    tables = np.vstack([all_tables(2), np.array([[1, 0, 2, 0]], dtype=np.int8)])
    checks, failures = laws.sweep_operator_faithfulness(as_container(tables, container), 2)
    assert checks == 16 * 4 + 1
    assert len(failures) == 1
    assert failures[0].startswith(f"table {len(tables) - 1}: ")


def test_faithfulness_validates_shape():
    with pytest.raises(ValueError):
        laws.sweep_operator_faithfulness(np.zeros((3, 5), dtype=np.int8), 2)


@pytest.mark.parametrize("container", CONTAINERS)
def test_sweep_agrees_with_api_loop(container):
    tables = np.random.default_rng(23).integers(0, 2, size=(40, 8), dtype=np.int8)
    assert laws.sweep_operator_faithfulness(as_container(tables, container), 3) == (320, [])


def test_faithfulness_sweep_catches_broken_synth(monkeypatch):
    real = vl.synth_operator

    def negated_column_zero(table):
        mat = real(table).mat.copy()
        mat[:, 0] = mat[::-1, 0]
        return vl.LiftMatrix(vl.TRUTH, table.arity, vl.TRUTH, mat)

    monkeypatch.setattr(vl, "synth_operator", negated_column_zero)
    checks, failures = laws.sweep_operator_faithfulness(all_tables(2), 2)
    # each table fails at its first column, the one check it counts
    assert checks == 16
    assert len(failures) == 16
    assert failures[0].startswith("table 0: column 0: operator gave [1, 0] for output 0")


def _reversed_contract(ten, vecs):
    # contracts the last axis with the first vector: every input tuple is
    # read back to front
    for v in vecs:
        ten = ten.dot(v)
    return ten


@pytest.mark.parametrize("name,fault,n,checks,failed", [
    # the asymmetric tables, each at its first column: 8 of 16, then the
    # 256 - 64 tables of arity 3 that change when inputs 1 and 3 swap.  A
    # failing table counts the columns up to the one it fails at, so the
    # 8 of arity 2 count 2 each, beside the 4 of each table that holds
    ("contract", _reversed_contract, 2, 8 * 4 + 8 * 2, 8),
    ("contract", _reversed_contract, 3, 1024, 192),
    # every table but the constant true one, each at its first false column
    ("apply_operator", lambda op, inputs: vl.TRUE_VEC, 2, 30, 15),
], ids=["reversed-contract-2", "reversed-contract-3", "constant-apply-2"])
def test_faithfulness_sweep_catches_broken_application(monkeypatch, name, fault, n, checks,
                                                       failed):
    # the sweep applies each operator through apply_operator, that is
    # LiftMatrix.__call__, so a fault in apply_operator or in the
    # contraction that __call__ runs shows
    monkeypatch.setattr(vl, name, fault)
    counted, failures = laws.sweep_operator_faithfulness(all_tables(n), n)
    assert counted == checks
    assert len(failures) == failed


# ---------------------------------------------------------------------------
# majority


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("n", range(1, 8))
def test_majority_polynomial_matches_api(container, n):
    assert laws.sweep_majority(n) == (1 << n, [])
    for bits in itertools.product(vl.TRUTH.elements, repeat=n):
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


@pytest.mark.parametrize("container", CONTAINERS)
def test_relation_sweep_flags_an_entry_that_is_not_0_or_1(container):
    # a 2 is no membership bit; the sweep reports it as the failure of its
    # relation, one check that lifts nothing, and keeps checking the others
    masks = np.vstack([all_relation_masks(2, 2), [[0, 2, 0, 0]]])
    checks, failures = laws.sweep_relations(as_container(masks, container), 2, 2)
    assert checks == 16 * 5 + 1
    assert len(failures) == 1
    assert failures[0].startswith("relation 16: ")


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
    real = hm._member_bits

    def transposed(tuples, m, arity):
        # each tuple sets the bit of its components in reverse order
        return real([tup[::-1] for tup in tuples], m, arity)

    monkeypatch.setattr(hm, "_member_bits", transposed)
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


THREE = hm.build_domain_map(range(3), tag="three")
WIDE_LIFTS = {  # each has more than 5 columns
    "function": lambda: hm.lift_function({(a, b): (a + 2 * b) % 3 for a, b in
                                          itertools.product(range(3), repeat=2)}, THREE, THREE, 2),
    "relation": lambda: hm.lift_relation({(0, 1, 2), (2, 2, 2), (1, 0, 0)}, THREE, 3),
    "subset": lambda: hm.lift_subset({"b", "d", "e"}, hm.build_domain_map("abcdef", tag="six")),
    "operator": lambda: vl.majority_matrix(3),
}


@pytest.mark.parametrize("kind", sorted(WIDE_LIFTS))
def test_a_lift_table_reads_the_one_pass_rows_at_any_batch_size(monkeypatch, kind):
    # the laws read a lift's rows in one pass; table() reads them a batch at
    # a time, for the CLI's lift output and the fixed-model reads
    lifted = WIDE_LIFTS[kind]()
    rows = lifted.mat.argmax(axis=0).tolist()
    pairs = list(lifted.table())
    assert len(rows) > 5 and pairs == list(zip(
        itertools.product(lifted.source.elements, repeat=lifted.arity),
        [lifted.target.elements[r] for r in rows]))
    monkeypatch.setattr(vl, "_BATCH_COLUMNS", 5)
    assert list(lifted.table()) == pairs


def test_all_relation_masks_enumerates_all():
    masks = all_relation_masks(2, 1)
    assert sorted(map(tuple, masks.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # 2^25, 2^27 and 2^36 relations: refused before any array is built
    for d, arity in [(5, 2), (3, 3), (6, 2)]:
        with pytest.raises(ValueError):
            all_relation_masks(d, arity)
