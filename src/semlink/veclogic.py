"""One-hot maps of finite domains, the lifts of maps between them, and the
vector form of classical logic, all over exact integer arrays.

Each finite domain maps injectively onto the standard basis of an integer
vector space of dimension |D|.  A function on arity-tuples over a domain
lifts to a LiftMatrix, whose columns are basis vectors, applied to its
mapped arguments by contraction with one at a time.

Truth values embed as orthonormal one-hot 2-vectors, true = [1,0] and
false = [0,1]: the map TRUTH of the domain (1, 0).  An n-ary operator is the
lift of its truth function over TRUTH, a 2 x 2^n integer matrix, applied
and checked like every other lift.  Its columns follow the lexicographic
order over TRUTH, iproduct(TRUTH.elements, repeat=n): column 0 is the
all-true input tuple, and 1 comes before 0.

Everything here is exact int64 arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice, product as iproduct
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

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


def one_hot_index(entries: list) -> "int | None":
    """The position of the single 1 in entries if all the others are 0, else None."""
    return entries.index(1) if entries.count(0) == len(entries) - 1 and 1 in entries else None


def is_one_hot(v: np.ndarray) -> bool:
    """Whether v has exactly one entry equal to 1 and every other entry equal to 0."""
    return one_hot_index(np.asarray(v).ravel().tolist()) is not None


_INT64_ONE = np.int64(1).tobytes()


def columns_one_hot(m: np.ndarray) -> bool:
    """Whether every column of the 2-d int64 array m is one-hot: m has one
    nonzero entry per column on average, and every column sums to 1, so
    exactly.  The sums are compared as bytes, with no further numpy call."""
    n = m.shape[1]
    return np.count_nonzero(m) == n and np.add.reduce(m, axis=0).tobytes() == _INT64_ONE * n


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


# ---------------------------------------------------------------------------
# truth tables


@dataclass(frozen=True)
class TruthTable:
    """Total map from n-tuples of bits to a bit, its outputs in the
    lexicographic order over TRUTH."""

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
        outs = [fn(*bits) for bits in iproduct(TRUTH.elements, repeat=arity)]
        return cls(arity, np.array(outs, dtype=np.int8))

    def bitstring(self) -> str:
        return "".join(str(int(b)) for b in self.outputs)


# ---------------------------------------------------------------------------
# domain maps


class OffImageError(ValueError):
    """A vector is not the image of any domain element under the map."""


class LiftError(ValueError):
    """A lift was requested for data that does not fit the maps involved."""


@dataclass(frozen=True)
class DomainMap:
    """Injective map from a finite domain onto the standard basis vectors.

    It keeps what it derives from its elements: its basis matrix and
    element vectors.  A kept map (kept_map) also keeps the lifts
    of few-table kinds built over it (KEPT_LIFTS); every other map, copies
    of a kept one included, keeps none, so no lift outlives its run."""

    tag: str
    elements: tuple[Hashable, ...]
    index: Mapping[Hashable, int] = field(repr=False, compare=False)  # derived from elements
    dim: int = field(init=False, repr=False, compare=False)  # len(elements)
    # basis_matrix of this map, made on first use: a relation-only map never pays dim^2
    basis: "np.ndarray | None" = field(default=None, init=False, repr=False, compare=False)
    # the read-only map_element of each element asked for, by element
    vectors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the lifts kept over a kept map (kept_map), by what determines each;
    # None on every other map, which keeps no lifts
    lifts: "dict | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("domain must be nonempty")
        object.__setattr__(self, "dim", len(self.elements))

    def __reduce__(self):  # a copy is rebuilt, so the arrays it caches are its own
        return build_domain_map, (self.elements, self.tag)


def build_domain_map(elements: Iterable[Hashable], tag: str = "domain") -> DomainMap:
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        raise ValueError(f"domain elements for {tag!r} are not distinct")
    return DomainMap(tag, elems, {e: i for i, e in enumerate(elems)})


# The laws ask for nine kept maps: five over range(d), d = 1..5, for the
# function, relation and chain laws, the sets law's, and the formula law's three.
KEPT_MAPS = 16
# A kept map keeps a lift into itself or TRUTH, the vector route's targets,
# only when its kind has at most this many tables; larger kinds rarely repeat
# a table.  So each table is bounded by what it admits and never evicts: over
# the formula law's 2, 3 and 4 entities it fills to 40, 35 and 16 lifts.
KEPT_LIFTS = 128


@lru_cache(maxsize=KEPT_MAPS)
def kept_map(elements: tuple[Hashable, ...], tag: str) -> DomainMap:
    """The map of elements under tag kept for the whole process, with an
    empty table of lifts: lift_by_rows returns the lift kept over it for an
    equal table of an admitted kind (KEPT_LIFTS), so a later run over the
    same elements reuses the lifts an earlier one built and validated."""
    m = build_domain_map(elements, tag)
    object.__setattr__(m, "lifts", {})
    return m


def map_element(m: DomainMap, a: Hashable) -> np.ndarray:
    """Basis vector of the element, as an int64 one-hot of length dim."""
    if a not in m.index:
        raise LiftError(f"{a!r} is not an element of domain {m.tag!r}")
    out = np.zeros(m.dim, dtype=np.int64)
    out[m.index[a]] = 1
    return out


def _image_index(m: DomainMap, vec: np.ndarray) -> "int | None":
    """The index of the element whose basis vector vec is, or None when vec
    is off the image: not exactly one-hot of the right length."""
    v = np.asarray(vec)
    return one_hot_index(v.tolist()) if v.shape == (m.dim,) else None


def unmap_element(m: DomainMap, vec: np.ndarray) -> Hashable:
    """Partial inverse of map_element; anything not exactly one-hot of the
    right length is off the image and raises OffImageError."""
    if (i := _image_index(m, vec)) is not None:
        return m.elements[i]
    v = np.asarray(vec)
    if v.shape != (m.dim,):
        raise OffImageError(
            f"vector of shape {v.shape} is off the image of {m.tag!r} (dim {m.dim})")
    raise OffImageError(f"vector {v.tolist()!r} is off the image of {m.tag!r}")


def basis_matrix(m: DomainMap) -> np.ndarray:
    """The dim x dim int64 identity, whose column i is the basis vector of
    element i: made the first time it is asked for, then kept read-only by
    the map."""
    if m.basis is None:
        object.__setattr__(m, "basis", _frozen(np.eye(m.dim, dtype=np.int64)))
    return m.basis


# the two truth values, mapped onto their embeddings: 1 to TRUE_VEC, 0 to
# FALSE_VEC; every relation lift and operator takes its columns from its basis
TRUTH = build_domain_map((1, 0), tag="truth")
TRUE_VEC, FALSE_VEC = basis_matrix(TRUTH)


def embed_truth(bit: int) -> np.ndarray:
    """Map a classical bit to its one-hot 2-vector."""
    if bit == 1:
        return TRUE_VEC
    if bit == 0:
        return FALSE_VEC
    raise ValueError(f"truth value must be 0 or 1, got {bit!r}")


def project_truth(vec: np.ndarray) -> int:
    """Inverse of embed_truth: unmap_element over TRUTH."""
    return unmap_element(TRUTH, vec)


# ---------------------------------------------------------------------------
# lifts


# columns read per batch of LiftMatrix.table
_BATCH_COLUMNS = 1 << 16


@dataclass(frozen=True, eq=False)
class LiftMatrix:
    """Vector-side image of a map from arity-tuples over source to target:
    a target.dim x source.dim**arity int64 matrix whose column j is the
    basis vector of the value at the j-th tuple in lexicographic order.  The
    Kronecker fold of that tuple's basis vectors is basis vector j, so
    mat @ kron_fold(args) is column j.  Calling it is the one checked way
    to apply a lift, operators included.  A lift into TRUTH from a map
    other than TRUTH (or a copy of it) lifts a relation, and an off-image
    argument makes it false; every other lift, an operator over TRUTH among
    them, refuses one with OffImageError.
    """

    source: DomainMap
    arity: int
    target: DomainMap
    mat: np.ndarray = field(repr=False)
    ten: np.ndarray = field(init=False, repr=False)  # mat's read-only tensor view for contract

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.int64)  # a copy, so the caller's array is not frozen or kept
        d, n, t = self.source.dim, self.arity, self.target.dim
        # the arity is bounded first, so d**n is computed only when it is small
        if not 1 <= n <= ARITY_CAP or m.shape != (t, d ** n):
            raise LiftError(f"lift of arity {n} from dim {d} to dim {t} "
                            f"must be {t} x {d}^{n}, got {m.shape}")
        if not columns_one_hot(m):
            raise LiftError(f"every column of a lift must be a basis vector of {self.target.tag!r}")
        object.__setattr__(self, "mat", _frozen(m))
        object.__setattr__(self, "ten", self.mat.reshape((t,) + (d,) * n))

    def __reduce__(self):  # a copy is rebuilt, so its mat is read-only and its ten views it
        return LiftMatrix, (self.source, self.arity, self.target, self.mat)

    def __call__(self, vecs: Sequence[np.ndarray]) -> np.ndarray:
        """The lift applied to vecs by veclogic.contract, once each argument
        is checked to be on the image of the source.  At the first argument
        off it, a relation's lift returns FALSE_VEC and builds no exception;
        any other lift raises unmap_element's OffImageError for it."""
        if len(vecs) != self.arity:
            raise LiftError(f"lift of arity {self.arity} got {len(vecs)} arguments")
        for v in vecs:
            if _image_index(self.source, v) is None:
                if self.target.elements != TRUTH.elements or self.source == TRUTH:
                    unmap_element(self.source, v)  # raises, with the message of v
                return FALSE_VEC
        return contract(self.ten, vecs)

    def table(self) -> Iterator[tuple[tuple[Hashable, ...], Hashable]]:
        """Every arity-tuple over the source, in lexicographic order, with the
        target element whose basis vector the lift gives on its mapped
        vectors: column j for the j-th tuple, read a batch at a time."""
        tuples = iproduct(self.source.elements, repeat=self.arity)
        out = self.target.elements
        for start in range(0, self.mat.shape[1], _BATCH_COLUMNS):
            vals = self.mat[:, start:start + _BATCH_COLUMNS].argmax(axis=0)
            yield from zip(islice(tuples, len(vals)), [out[v] for v in vals.tolist()])


def lift_by_rows(src: DomainMap, arity: int, tgt: DomainMap, rows: Sequence[int]) -> LiftMatrix:
    """The lift of arity over src whose column j is basis vector rows[j] of
    tgt.  The rows are checked, not the columns: there are src.dim ** arity
    of them, each in range(tgt.dim), so each column of the identity they
    pick is a basis vector.  take gives a C-contiguous matrix, so ten is a
    view of it.  Over a kept map, a lift into that map or TRUTH whose kind
    has at most KEPT_LIFTS tables (tgt.dim ** len(rows)) is kept by the
    bytes of its rows' values, looked up before the rows are checked: a key
    is stored only once its rows pass the check, so a hit needs none."""
    lifts, d, t = src.lifts, src.dim, tgt.dim
    # the arity is bounded first, so d**arity is computed only when it is small
    if not 1 <= arity <= ARITY_CAP or len(rows) != d ** arity:
        raise LiftError(f"lift of arity {arity} from dim {d} to dim {t} "
                        f"must be {t} x {d}^{arity}, got {(t, len(rows))}")
    keep = (lifts is not None and (tgt is src or tgt is TRUTH)
            and len(rows) < KEPT_LIFTS.bit_length() and t ** len(rows) <= KEPT_LIFTS)
    try:  # a row below 0 or past 255 has no byte, and the check below refuses it
        key = keep and (arity, tgt is TRUTH,  # an array by its values, not its buffer
                        bytes(rows.tolist() if isinstance(rows, np.ndarray) else rows))
    except ValueError:
        keep = False
    if keep and (kept := lifts.get(key)) is not None:
        return kept
    # numpy reduces an array, or a long bytes-like viewed as one, without boxing each entry
    long_bytes = isinstance(rows, (bytes, bytearray)) and len(rows) > 256
    r = np.frombuffer(rows, np.uint8) if long_bytes else rows
    if (r.min() < 0 or r.max() >= t) if isinstance(r, np.ndarray) else (min(r) < 0 or max(r) >= t):
        bad = next(x for x in rows if not 0 <= x < t)
        raise LiftError(f"row {bad} of a lift into {tgt.tag!r} is outside range({t})")
    lift = _lift_of(src, arity, tgt, basis_matrix(tgt).take(rows, axis=1))
    if keep:
        lifts[key] = lift
    return lift


def _lift_of(src: DomainMap, arity: int, tgt: DomainMap, mat: np.ndarray) -> LiftMatrix:
    """The lift whose matrix is mat, a new C-contiguous int64 array whose columns are
    basis vectors by construction, made without LiftMatrix's check; ten views mat."""
    lift = object.__new__(LiftMatrix)
    vars(lift).update(source=src, arity=arity, target=tgt, mat=_frozen(mat),
                      ten=mat.reshape((tgt.dim,) + (src.dim,) * arity))
    return lift


# ---------------------------------------------------------------------------
# operator matrices


def synth_operator(table: TruthTable) -> LiftMatrix:
    """Lift of a truth table over TRUTH: column j is the embedded output for
    column j, in O(2^n).  The TRUTH row of bit b is TRUTH.index[b], 1 - b."""
    _check_arity(table.arity)
    return lift_by_rows(TRUTH, table.arity, TRUTH, 1 - table.outputs)


def apply_operator(op: LiftMatrix, inputs: Sequence[np.ndarray]) -> np.ndarray:
    """The operator applied to its inputs: LiftMatrix.__call__, which refuses
    an input that is not a truth vector."""
    return op(inputs)


# ---------------------------------------------------------------------------
# named operators

def _closed_forms() -> dict[ConnectiveKind, LiftMatrix]:
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
    return {kind: LiftMatrix(TRUTH, kind.arity, TRUTH, mat) for kind, mat in mats.items()}


_NAMED = _closed_forms()


def named_operator(kind: "ConnectiveKind | str") -> LiftMatrix:
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


def majority_matrix(n: int) -> LiftMatrix:
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
