"""Structure-preserving maps from finite domains into one-hot vector spaces.

Each finite domain D gets an injective map onto the standard basis of an
integer vector space of dimension |D|.  Every function on the domain lifts
to a LiftMatrix, an integer matrix whose columns are basis vectors, applied
to the Kronecker fold of its mapped arguments; a relation lifts as its
characteristic function into the embedded truth values, and a subset is a
unary relation.  The lifts are checked to commute with the maps, and
formulas evaluate along both routes, connectives acting as operator
matrices.  All arithmetic here is exact integer; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import islice, product as iproduct
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import veclogic as vl
from .model import Assignment, Model, denote, evaluate  # noqa: F401 (denote is re-exported)
from .terms import FORMULA_NODES, ConnectiveKind, Term


class OffImageError(ValueError):
    """A vector is not the image of any domain element under the map."""


class LiftError(ValueError):
    """A lift was requested for data that does not fit the maps involved."""


# ---------------------------------------------------------------------------
# domain maps


@dataclass(frozen=True)
class DomainMap:
    """Injective map from a finite domain onto the standard basis vectors."""

    tag: str
    elements: tuple[Hashable, ...]
    index: Mapping[Hashable, int] = field(repr=False)
    # argument_columns of this map, by arity
    columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)  # len(elements)
    # basis_matrix of this map, made on first use: a relation-only map never pays dim^2
    basis: "np.ndarray | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("domain must be nonempty")
        object.__setattr__(self, "dim", len(self.elements))

    def __reduce__(self):  # a copy is rebuilt, so the columns and basis it caches are its own
        return build_domain_map, (self.elements, self.tag)


def build_domain_map(elements: Iterable[Hashable], tag: str = "domain") -> DomainMap:
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        raise ValueError(f"domain elements for {tag!r} are not distinct")
    return DomainMap(tag, elems, {e: i for i, e in enumerate(elems)})


def map_element(m: DomainMap, a: Hashable) -> np.ndarray:
    """Basis vector of the element, as an int64 one-hot of length dim."""
    if a not in m.index:
        raise LiftError(f"{a!r} is not an element of domain {m.tag!r}")
    out = np.zeros(m.dim, dtype=np.int64)
    out[m.index[a]] = 1
    return out


def unmap_element(m: DomainMap, vec: np.ndarray) -> Hashable:
    """Partial inverse of map_element; anything not exactly one-hot of the
    right length is off the image and raises OffImageError."""
    v = np.asarray(vec)
    if v.shape != (m.dim,):
        raise OffImageError(
            f"vector of shape {v.shape} is off the image of {m.tag!r} (dim {m.dim})")
    if not vl.is_one_hot(v):
        raise OffImageError(f"vector {v.tolist()!r} is off the image of {m.tag!r}")
    return m.elements[int(np.argmax(v))]


def entity_map(model: Model) -> DomainMap:
    return build_domain_map(model.entities, tag="entity")


# the two truth values, mapped onto their embeddings: 1 to TRUE_VEC, 0 to FALSE_VEC
TRUTH = build_domain_map((1, 0), tag="truth")
# column b is the embedded bit b
_EMBEDDED = vl._frozen(np.column_stack([vl.embed_truth(0), vl.embed_truth(1)]))


def argument_columns(m: DomainMap, arity: int) -> np.ndarray:
    """For every arity-tuple over m, in lexicographic order, the column that
    mat @ kron_fold picks out of a lift's matrix on the tuple's mapped
    vectors.  Each element is mapped and checked to be on the image (or
    OffImageError) once per map, and the map keeps the read-only result."""
    if arity not in m.columns:
        idx = cols = np.array([m.index[unmap_element(m, map_element(m, a))] for a in m.elements])
        for _ in range(arity - 1):
            cols = (cols[:, None] * m.dim + idx).ravel()
        m.columns[arity] = vl._frozen(cols)
    return m.columns[arity]


def basis_matrix(m: DomainMap) -> np.ndarray:
    """The dim x dim int64 identity, whose column i is the basis vector of
    element i: made the first time it is asked for, then kept read-only by
    the map."""
    if m.basis is None:
        object.__setattr__(m, "basis", vl._frozen(np.eye(m.dim, dtype=np.int64)))
    return m.basis


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
    mat @ kron_fold(args) is column j.  A lift into TRUTH lifts a relation,
    and an off-image argument makes it false; any other lift refuses one.
    """

    source: DomainMap
    arity: int
    target: DomainMap
    mat: np.ndarray = field(repr=False)
    ten: np.ndarray = field(init=False, repr=False)  # mat's read-only tensor view for contract

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=np.int64)
        d, n, t = self.source.dim, self.arity, self.target.dim
        # the arity is bounded first, so d**n is computed only when it is small
        if not 1 <= n <= vl.ARITY_CAP or m.shape != (t, d ** n):
            raise LiftError(f"lift of arity {n} from dim {d} to dim {t} "
                            f"must be {t} x {d}^{n}, got {m.shape}")
        if not vl.columns_one_hot(m):
            raise LiftError(f"every column of a lift must be a basis vector of {self.target.tag!r}")
        object.__setattr__(self, "mat", vl._frozen(m))
        object.__setattr__(self, "ten", self.mat.reshape((t,) + (d,) * n))

    def __reduce__(self):  # a copy is rebuilt, so its mat is read-only and its ten views it
        return LiftMatrix, (self.source, self.arity, self.target, self.mat)

    def __call__(self, vecs: Sequence[np.ndarray]) -> np.ndarray:
        """The lift applied to vecs by veclogic.contract, once each argument
        is checked to be on the image of the source."""
        if len(vecs) != self.arity:
            raise LiftError(f"lift of arity {self.arity} got {len(vecs)} arguments")
        try:
            for v in vecs:
                unmap_element(self.source, v)
        except OffImageError:
            if self.target.elements != TRUTH.elements:
                raise
            return vl.FALSE_VEC
        return vl.contract(self.ten, vecs)

    def table(self) -> Iterator[tuple[tuple[Hashable, ...], Hashable]]:
        """Every arity-tuple over the source, in lexicographic order, with the
        target element whose basis vector the lift gives on its mapped
        vectors: its column, read a batch of columns at a time."""
        cols = argument_columns(self.source, self.arity)
        tuples = iproduct(self.source.elements, repeat=self.arity)
        out = self.target.elements
        for start in range(0, len(cols), _BATCH_COLUMNS):
            vals = self.mat[:, cols[start:start + _BATCH_COLUMNS]].argmax(axis=0)
            yield from zip(islice(tuples, len(vals)), [out[v] for v in vals.tolist()])


def lift_function(table: Mapping[Hashable, Hashable], m_src: DomainMap,
                  m_tgt: DomainMap, arity: int = 1) -> LiftMatrix:
    """Lift a total function so that lift(map(a1), ..., map(an)) =
    map(f(a1, ..., an)).  The table is keyed by elements of m_src when the
    arity is 1 and by arity-tuples of them otherwise."""
    index, rows = m_tgt.index, []
    for a in m_src.elements if arity == 1 else iproduct(m_src.elements, repeat=arity):
        try:
            rows.append(index[table[a]])
        except KeyError:
            if a not in table:
                raise LiftError(f"function is not total: no value for {a!r}") from None
            raise LiftError(f"function value {table[a]!r} is outside target domain "
                            f"{m_tgt.tag!r}") from None
    # column j is basis vector rows[j] of the target
    return LiftMatrix(m_src, arity, m_tgt, basis_matrix(m_tgt).take(rows, axis=1))


def compose_lifted(*lifts: LiftMatrix) -> LiftMatrix:
    """g after f is compose_lifted(g, f), the product of their matrices; every
    lift but the last must be unary, and the domains that meet must agree."""
    for g, f in zip(lifts, lifts[1:]):
        if g.arity != 1:
            raise LiftError(f"cannot compose after a lift of arity {g.arity}")
        if f.target is not g.source and f.target.elements != g.source.elements:
            raise LiftError(
                f"cannot compose: target {f.target.tag!r} differs from source {g.source.tag!r}")
    if len(lifts) == 1:
        return lifts[0]
    return LiftMatrix(lifts[-1].source, lifts[-1].arity, lifts[0].target,
                      reduce(np.matmul, [lf.mat for lf in lifts]))


def _member_bits(tuples: Iterable[tuple[Hashable, ...]], m: DomainMap,
                 arity: int) -> bytearray:
    """One byte per arity-tuple over m, in lexicographic order: 1 exactly
    when the tuple is a member.  Every relation and subset is read here."""
    if not 1 <= arity <= vl.ARITY_CAP or m.dim ** arity > 1 << vl.ARITY_CAP:
        raise LiftError(f"a relation of arity {arity} over {m.dim} elements is past the caps "
                        f"of arity {vl.ARITY_CAP} and 2^{vl.ARITY_CAP} tuples")
    d, index = m.dim, m.index
    bits = bytearray(d ** arity)
    for tup in tuples:
        if len(tup) != arity:
            raise LiftError(f"tuple {tup!r} does not have arity {arity}")
        j = 0
        for a in tup:
            if (i := index.get(a)) is None:
                raise LiftError(f"tuple {tup!r} mentions {a!r}, outside domain {m.tag!r}")
            j = j * d + i
        bits[j] = 1
    return bits


def lift_relation(tuples: Iterable[tuple[Hashable, ...]], m: DomainMap,
                  arity: int) -> LiftMatrix:
    """Lift of the relation's characteristic function into TRUTH: column j
    is TRUE_VEC exactly when the j-th tuple is a member."""
    bits = _member_bits(tuples, m, arity)
    return LiftMatrix(m, arity, TRUTH, _EMBEDDED.take(np.frombuffer(bits, dtype=np.uint8), axis=1))


# ---------------------------------------------------------------------------
# lifted subsets


def lift_subset(subset: Iterable[Hashable], m: DomainMap) -> LiftMatrix:
    """Image of a subset: the lift of the unary relation of its members."""
    return lift_relation([(a,) for a in subset], m, 1)


def indicator_vector(subset: Iterable[Hashable], m: DomainMap) -> np.ndarray:
    """The top row of the subset's lift, read-only: component i marks element
    i.  It is read from the membership bits the lift is built from, so no
    lift is built."""
    bits = _member_bits([(a,) for a in subset], m, 1)
    return vl._frozen(np.frombuffer(bits, dtype=np.uint8).astype(np.int64))


# each set operation beside its arithmetic on indicator vectors (Mizraji's vector logic)
SET_OPS = {
    "union": (set.union, lambda x, y: x + y - x * y),
    "intersection": (set.intersection, lambda x, y: x * y),
    "difference": (set.difference, lambda x, y: x - x * y),
}


def check_set_ops(e1: Iterable[Hashable], e2: Iterable[Hashable], m: DomainMap,
                  lifted1: "LiftMatrix | None" = None) -> dict[str, bool]:
    """Whether each of SET_OPS commutes with the subset lift, by name:
    e1's lift (lifted1, if built) against the indicator vectors of e2 and
    of each result, which are read without a lift."""
    s1, s2 = set(e1), set(e2)
    if lifted1 is None:
        lifted1 = lift_subset(s1, m)
    elif (lifted1.arity != 1 or lifted1.source.elements != m.elements
          or lifted1.target.elements != TRUTH.elements):
        src, tgt = lifted1.source, lifted1.target
        raise LiftError(f"lifted1 must be a lift of arity 1 over {m.tag!r} (dim {m.dim}) into "
                        f"{TRUTH.tag!r}, got arity {lifted1.arity} over {src.tag!r} "
                        f"(dim {src.dim}) into {tgt.tag!r}")
    x, y = lifted1.mat[0], indicator_vector(s2, m)
    return {name: indicator_vector(on_sets(s1, s2), m).tolist() == on_vectors(x, y).tolist()
            for name, (on_sets, on_vectors) in SET_OPS.items()}


# ---------------------------------------------------------------------------
# composition chains


@dataclass(frozen=True)
class ChainReport:
    length: int
    checks: int
    ok: bool
    counterexample: "tuple[Hashable, list[int], list[int]] | None" = None
    # (starting element, vector along the lifted chain, vector it should be)


def check_composition_chain(tables: Sequence[Mapping[Hashable, Hashable]],
                            maps: Sequence[DomainMap]) -> ChainReport:
    """Check, at every point of the first domain, that the lifted links
    applied in turn give the mapped composite, and that the product of the
    link matrices agrees there with the lift of the composite table."""
    if not tables or len(maps) != len(tables) + 1:
        raise LiftError(f"a chain of n >= 1 functions needs n + 1 maps: got {len(tables)} "
                        f"functions and {len(maps)} maps")
    lifts = [lift_function(t, maps[i], maps[i + 1]) for i, t in enumerate(tables)]
    product = compose_lifted(*reversed(lifts))
    composite = {a: reduce(lambda val, t: t[val], tables, a) for a in maps[0].elements}
    direct = lift_function(composite, maps[0], maps[-1])
    # the links applied in turn to every mapped point at once, column k to element k
    along = np.array([map_element(maps[0], a) for a in maps[0].elements]).T
    for lf in lifts:
        along = lf.mat @ along
    mapped = np.array([map_element(maps[-1], composite[a]) for a in maps[0].elements]).T
    routes = [(along.T.tolist(), mapped.T.tolist()),
              (product.mat.T.tolist(), direct.mat.T.tolist())]
    for k, a in enumerate(maps[0].elements):
        for got, want in routes:
            if got[k] != want[k]:
                return ChainReport(len(tables), k + 1, False, (a, got[k], want[k]))
    return ChainReport(len(tables), maps[0].dim, True)


# ---------------------------------------------------------------------------
# dual-route evaluation of terms


class LiftFamily:
    """The lifts of one model: its entity map, and each function, relation
    and entity vector built the first time it is asked for, then kept.

    A symbol's image depends on the model alone, not on the term, so every
    evaluation over the model shares one family.  The model cannot change
    after it is validated, so a kept lift never goes stale; each kept array
    is read-only, so no caller can corrupt a later evaluation by writing
    into one.  Truth values embed through veclogic.embed_truth.
    """

    __slots__ = ("model", "entity", "_functions", "_relations", "_vectors")

    def __init__(self, model: Model, entity: DomainMap):
        self.model, self.entity = model, entity
        self._functions: dict[str, LiftMatrix] = {}
        self._relations: dict[str, LiftMatrix] = {}
        self._vectors: dict[str, np.ndarray] = {}

    @classmethod
    def for_model(cls, model: Model) -> "LiftFamily":
        return cls(model, entity_map(model))

    # lifts come from the module-level functions, looked up at call time, so
    # a traced or patched one sees every lift
    def function(self, name: str) -> LiftMatrix:
        lift = self._functions.get(name)
        if lift is None:
            lift = self._functions[name] = lifted_model_function(self.model, name, self)
        return lift

    def relation(self, name: str) -> LiftMatrix:
        lift = self._relations.get(name)
        if lift is None:
            lift = self._relations[name] = lifted_model_relation(self.model, name, self)
        return lift

    def vector(self, ent: str) -> np.ndarray:
        """The entity's basis vector, read-only."""
        vec = self._vectors.get(ent)
        if vec is None:
            vec = self._vectors[ent] = vl._frozen(map_element(self.entity, ent))
        return vec


def lifted_model_function(model: Model, name: str, fam: LiftFamily) -> LiftMatrix:
    """Lift an interpreted function: an n-ary table lifts to a d x d^n
    matrix, applied to the Kronecker fold of n entity vectors."""
    fn = model.functions[name]
    table = fn.table if fn.arity > 1 else {args[0]: out for args, out in fn.table.items()}
    return lift_function(table, fam.entity, fam.entity, fn.arity)


def lifted_model_relation(model: Model, name: str, fam: LiftFamily) -> LiftMatrix:
    rel = model.relations[name]
    return lift_relation(rel.tuples, fam.entity, rel.arity)


class VectorSemantics:
    """Semantics of the vector route: one-hot entity vectors, and each
    function, relation and connective a matrix contracted with its arguments
    by veclogic.contract.  Lifts and entity vectors come from the family.

    Each value is checked once, where it is made: an entity vector is a
    basis vector, a function or predicate node gives a column of a lift
    checked when it was built (a function node checks the column's length,
    all a wrong target could change), and apply_operator checks its inputs.
    """

    def __init__(self, fam: LiftFamily):
        self.fam = fam
        self.entity = fam.vector
        self.shape = (fam.entity.dim,)  # of every entity value

    def fun(self, name: str, args: list[np.ndarray]) -> np.ndarray:
        out = vl.contract(self.fam.function(name).ten, args)
        if out.shape != self.shape:
            raise OffImageError(f"lift of function {name!r} gave {out.tolist()!r}, "
                                f"off the image of {self.fam.entity.tag!r}")
        return out

    def pred(self, name: str, args: list[np.ndarray]) -> np.ndarray:
        return vl.contract(self.fam.relation(name).ten, args)

    def conn(self, kind: ConnectiveKind, args: list[np.ndarray]) -> np.ndarray:
        return vl.apply_operator(vl.named_operator(kind), args)


def vector_denote(term: Term, model: Model, g: Assignment, fam: LiftFamily) -> np.ndarray:
    """Evaluate a term on the vector side only, down to the leaves.  The
    projection of the result always agrees with the extensional denotation.
    The family must be the one built for this model object."""
    if fam.model is not model:
        raise LiftError("the lift family was built for another model")
    return evaluate(term, model, g, VectorSemantics(fam))


def lift_logical_connective(term: Term, model: Model, g: Assignment,
                            fam: LiftFamily) -> np.ndarray:
    """vector_denote for formulas; an entity-typed term is refused."""
    if not isinstance(term, FORMULA_NODES):
        raise LiftError(f"term {term!r} is not a formula")
    return vector_denote(term, model, g, fam)
