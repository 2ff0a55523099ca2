"""Vector form of classical logic over exact integer arrays.

Truth values embed as orthonormal one-hot 2-vectors, true = [1,0] and
false = [0,1].  An n-ary operator is a 2 x 2^n integer matrix applied to the
Kronecker product of the embedded inputs, by contraction with one at a time;
the result is a one-hot 2-vector, so matrices compose with the truth functions.

Column convention: column 0 corresponds to the all-true input tuple and the
tuples descend lexicographically with 1 ordered before 0.  Equivalently the
binary digits of the column index are the complemented input bits, so the
Kronecker product of the embedded inputs is exactly the standard basis
vector of that column.

Everything here is exact int64 arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .terms import ConnectiveKind

ARITY_CAP = 20  # 2 x 2^n matrices stop being reasonable objects past this


class ArityCapError(ValueError):
    """Operator synthesis refused: 2^n columns would exceed the cap."""


def _check_arity(n: int):
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    if n > ARITY_CAP:
        raise ArityCapError(f"arity {n} exceeds the cap of {ARITY_CAP}")


def _is_2_to_the(size: int, n: int) -> bool:
    """size == 2^n, compared without computing 2^n, which a huge n makes vast."""
    return size.bit_length() - 1 == n and not size & (size - 1)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


TRUE_VEC = _frozen(np.array([1, 0], dtype=np.int64))
FALSE_VEC = _frozen(np.array([0, 1], dtype=np.int64))


def embed_truth(bit: int) -> np.ndarray:
    """Map a classical bit to its one-hot 2-vector."""
    if bit == 1:
        return TRUE_VEC
    if bit == 0:
        return FALSE_VEC
    raise ValueError(f"truth value must be 0 or 1, got {bit!r}")


def project_truth(vec: np.ndarray) -> int:
    """Inverse of embed_truth; rejects anything that is not exactly one-hot."""
    v = np.asarray(vec)
    if v.shape != (2,) or not is_one_hot(v):
        raise ValueError(f"not a truth vector: {vec!r}")
    return int(v[0])


def is_one_hot(v: np.ndarray, axis: int | None = None) -> "bool | np.ndarray":
    """Whether v, or each slice of v along axis, has exactly one entry equal
    to 1 and every other entry equal to 0."""
    v = np.asarray(v)
    if axis is None:
        entries = v.ravel().tolist()
        return entries.count(1) == 1 and entries.count(0) == len(entries) - 1
    return ((v == 1).sum(axis=axis) == 1) & ((v == 0).sum(axis=axis) == v.shape[axis] - 1)


def columns_one_hot(m: np.ndarray) -> bool:
    """Whether every column of the 2-d array m is one-hot: m has one nonzero
    entry per column on average, and every column sums to 1, so exactly."""
    return np.count_nonzero(m) == m.shape[1] == np.count_nonzero(np.add.reduce(m, axis=0) == 1)


def kron(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors: np.kron for 1-d inputs."""
    return np.multiply.outer(u, v).ravel()


def kron_fold(vecs: Sequence[np.ndarray]) -> np.ndarray:
    """Left fold of the Kronecker product over one or more vectors."""
    if not len(vecs):
        raise ValueError("kron_fold needs at least one vector")
    it = iter(vecs)
    acc = np.asarray(next(it))
    for v in it:
        acc = kron(acc, v)
    return acc


def contract(ten: np.ndarray, vecs: Sequence[np.ndarray]) -> np.ndarray:
    """ten, the (rows, d1, ..., dn) tensor view of a matrix mat, applied to n vectors
    from the last one back: in exact int64, mat @ kron_fold(vecs) without the fold."""
    for v in reversed(vecs):
        ten = ten.dot(v)
    return ten


def column_index(bits: Sequence[int]) -> int:
    """Column of the input tuple: binary digits are the complemented bits."""
    j = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"input bits must be 0 or 1, got {b!r}")
        j = (j << 1) | (1 - b)
    return j


def column_bits(j: int, n: int) -> tuple[int, ...]:
    """Input tuple of a column; inverse of column_index."""
    if not 0 <= j < (1 << n):
        raise ValueError(f"column {j} out of range for arity {n}")
    return tuple(1 - ((j >> (n - 1 - i)) & 1) for i in range(n))


# ---------------------------------------------------------------------------
# truth tables


@dataclass(frozen=True)
class TruthTable:
    """Total map from n-tuples of bits to a bit, stored in column order."""

    arity: int
    outputs: np.ndarray  # shape (2**arity,), int8

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        out = np.asarray(self.outputs)
        if out.ndim != 1 or not _is_2_to_the(out.size, self.arity):
            raise ValueError(
                f"table for arity {self.arity} needs 2^{self.arity} outputs, got {out.shape}")
        # checked before the int8 cast, which would wrap 256 to 0
        if not np.logical_or(out == 0, out == 1).all():
            raise ValueError("table outputs must be 0 or 1")
        object.__setattr__(self, "outputs", _frozen(out.astype(np.int8, copy=False)))

    @classmethod
    def from_bits(cls, bits: str, arity: int | None = None) -> "TruthTable":
        """Build from a bitstring in column order, e.g. "1000" for conjunction."""
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"table bitstring must be nonempty 0/1, got {bits!r}")
        n = (len(bits) - 1).bit_length()
        if (1 << n) != len(bits):
            raise ValueError(f"bitstring length {len(bits)} is not a power of two")
        if arity is not None and arity != n:  # compared as given, never as 2^arity
            raise ValueError(f"a bitstring of length {len(bits)} is a table of arity {n}, not {arity}")
        return cls(n, np.array([int(c) for c in bits], dtype=np.int8))

    @classmethod
    def from_function(cls, fn: Callable[..., int], arity: int) -> "TruthTable":
        outs = [fn(*column_bits(j, arity)) for j in range(1 << arity)]
        return cls(arity, np.array(outs, dtype=np.int8))

    def __call__(self, bits: Sequence[int]) -> int:
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} bits, got {len(bits)}")
        return int(self.outputs[column_index(bits)])

    def bitstring(self) -> str:
        return "".join(str(int(b)) for b in self.outputs)


# ---------------------------------------------------------------------------
# operator matrices


@dataclass(frozen=True)
class OpMatrix:
    """2 x 2^n integer matrix whose columns are all one-hot."""

    arity: int
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=np.int64)
        if self.arity < 1 or m.ndim != 2 or m.shape[0] != 2 or not _is_2_to_the(m.shape[1], self.arity):
            raise ValueError(
                f"operator of arity {self.arity} must be 2 x 2^{self.arity}, got {m.shape}")
        if not columns_one_hot(m):
            raise ValueError("every operator column must be a one-hot truth vector")
        object.__setattr__(self, "mat", _frozen(m))

    def __reduce__(self):  # a copy is rebuilt, so its mat is read-only and its ten views it
        return OpMatrix, (self.arity, self.mat)

    @cached_property
    def ten(self) -> np.ndarray:  # mat's read-only tensor view for contract, made on first use
        return self.mat.reshape((2,) * (self.arity + 1))


def synth_operator(table: TruthTable) -> OpMatrix:
    """Matrix of a truth table: column j is the embedded output for column j,
    picked from the two embedded truth values, in O(2^n)."""
    _check_arity(table.arity)
    embedded = np.column_stack([embed_truth(1), embed_truth(0)])  # column 1 - b embeds b
    return OpMatrix(table.arity, embedded[:, 1 - table.outputs])


def apply_operator(op: OpMatrix, inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Contract the operator with its inputs, each first checked to be a truth vector."""
    if len(inputs) != op.arity:
        raise ValueError(f"operator of arity {op.arity} got {len(inputs)} inputs")
    for v in inputs:
        w = np.asarray(v)
        if w.shape != (2,) or w.tolist() not in ([1, 0], [0, 1]):  # is_one_hot, in one step
            raise ValueError(f"operator input is not a truth vector: {v!r}")
    return contract(op.ten, inputs)


def table_of(op: OpMatrix) -> TruthTable:
    """Read the truth table back out of a matrix (projection of each column)."""
    outs = [project_truth(op.mat[:, j]) for j in range(op.mat.shape[1])]
    return TruthTable(op.arity, np.array(outs, dtype=np.int8))


# ---------------------------------------------------------------------------
# named operators

def _closed_forms() -> dict[ConnectiveKind, OpMatrix]:
    """The seven named operators from their standard closed forms.

    Negation, conjunction, disjunction and equivalence are sums of outer
    products of the truth basis vectors; implication is the matrix product
    disjunction . (negation x identity); exclusive or is negation applied
    after equivalence; the ternary conditional has a fixed 2 x 8 matrix.
    """
    s, n = TRUE_VEC, FALSE_VEC
    neg = np.outer(n, s) + np.outer(s, n)
    conj = (np.outer(s, kron(s, s)) + np.outer(n, kron(s, n))
            + np.outer(n, kron(n, s)) + np.outer(n, kron(n, n)))
    disj = (np.outer(s, kron(s, s)) + np.outer(s, kron(s, n))
            + np.outer(s, kron(n, s)) + np.outer(n, kron(n, n)))
    eqv = (np.outer(s, kron(s, s)) + np.outer(n, kron(s, n))
           + np.outer(n, kron(n, s)) + np.outer(s, kron(n, n)))
    mats = {
        ConnectiveKind.NOT: neg,
        ConnectiveKind.AND: conj,
        ConnectiveKind.OR: disj,
        ConnectiveKind.IMPLIES: disj @ np.kron(neg, np.eye(2, dtype=np.int64)),
        ConnectiveKind.IFF: eqv,
        ConnectiveKind.XOR: neg @ eqv,
        ConnectiveKind.COND: np.array([[1, 1, 0, 0, 1, 0, 1, 0],
                                       [0, 0, 1, 1, 0, 1, 0, 1]], dtype=np.int64),
    }
    return {kind: OpMatrix(kind.arity, mat) for kind, mat in mats.items()}


_NAMED = _closed_forms()


def named_operator(kind: "ConnectiveKind | str") -> OpMatrix:
    """Matrix for a connective, built once at import from its closed form."""
    if isinstance(kind, str):
        kind = ConnectiveKind[kind.upper()] if kind.upper() in ConnectiveKind.__members__ else kind
    if not isinstance(kind, ConnectiveKind):
        raise ValueError(f"unknown connective {kind!r}")
    return _NAMED[kind]


# ---------------------------------------------------------------------------
# majority


def majority_bit(bits: Sequence[int]) -> int:
    """Strict majority: 1 when more than half the inputs are 1, ties give 0."""
    return 1 if 2 * sum(bits) > len(bits) else 0


def majority_table(n: int) -> TruthTable:
    return TruthTable.from_function(lambda *bits: majority_bit(bits), n)


def majority_matrix(n: int) -> OpMatrix:
    """Operator matrix of the strict n-ary majority function."""
    _check_arity(n)
    return synth_operator(majority_table(n))


def majority_polynomial(n: int, inputs: Sequence[int]) -> int:
    """Evaluate the disjoint sum-of-products form of strict majority.

    Sum over subsets I of size k, for k from n//2 + 1 up to n, of the
    product of the chosen inputs times the product of the complements of
    the rest.  The terms are indicators of disjoint events, so the sum is
    itself a bit.
    """
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs, got {len(inputs)}")
    for b in inputs:
        if b not in (0, 1):
            raise ValueError(f"input bits must be 0 or 1, got {b!r}")
    total = 0
    for k in range(n // 2 + 1, n + 1):
        for chosen in combinations(range(n), k):
            chosen_set = set(chosen)
            prod = 1
            for i in range(n):
                prod *= inputs[i] if i in chosen_set else 1 - inputs[i]
            total += prod
    return total
