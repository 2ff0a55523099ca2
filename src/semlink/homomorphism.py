"""Structure-preserving maps from finite domains into one-hot vector spaces.

Each finite domain D gets an injective map onto the standard basis of an
integer vector space of dimension |D|.  Functions, relations and subsets on
the domain then lift to the vector side, and the lifts are checked to
commute with the maps: mapping then applying the lift agrees with applying
the original and then mapping.  Formulas evaluate along both routes as
well, with connectives acting as operator matrices on embedded truth
values.

All arithmetic here is exact integer; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, product as iproduct
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import veclogic as vl
from .model import Assignment, Model, denote, evaluate  # noqa: F401 (denote is re-exported)
from .terms import Connective, ConnectiveKind, PredApp, Term


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

    def __post_init__(self):
        if not self.elements:
            raise ValueError("domain must be nonempty")

    @property
    def dim(self) -> int:
        return len(self.elements)

    @cached_property
    def basis(self) -> np.ndarray:
        """Row i is map_element of element i, mapped once per map.  It holds
        dim**2 entries, so only LiftedRelation.table, which asks about every
        tuple anyway, builds it."""
        return vl._frozen(np.array([map_element(self, a) for a in self.elements]))


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


def product_map(m: DomainMap, arity: int) -> DomainMap:
    """Map over n-tuples, ordered so that the basis vector of a tuple is the
    Kronecker product of the basis vectors of its components."""
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    if arity == 1:
        return m
    elems = tuple(iproduct(m.elements, repeat=arity))
    return DomainMap(f"{m.tag}^{arity}", elems, {e: i for i, e in enumerate(elems)})


# ---------------------------------------------------------------------------
# lifted functions


@dataclass(frozen=True)
class LiftedFunction:
    """Vector-side image of a function, materialized as a basis index table."""

    source: DomainMap
    target: DomainMap
    lut: np.ndarray = field(repr=False)  # lut[i] = target basis index

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        return self.at(self.source.index[unmap_element(self.source, vec)])

    def at(self, i: int) -> np.ndarray:
        """The image of source basis vector i: the target basis vector lut[i]."""
        out = np.zeros(self.target.dim, dtype=np.int64)
        out[int(self.lut[i])] = 1
        return out


def lift_function(table: Mapping[Hashable, Hashable], m_src: DomainMap,
                  m_tgt: DomainMap) -> LiftedFunction:
    """Lift a total function so that lift(map(a)) = map(f(a)) for all a."""
    lut = np.empty(m_src.dim, dtype=np.int64)
    for a in m_src.elements:
        if a not in table:
            raise LiftError(f"function is not total: no value for {a!r}")
        b = table[a]
        if b not in m_tgt.index:
            raise LiftError(f"function value {b!r} is outside target domain {m_tgt.tag!r}")
        lut[m_src.index[a]] = m_tgt.index[b]
    return LiftedFunction(m_src, m_tgt, vl._frozen(lut))


def compose_lifted(g_lift: LiftedFunction, f_lift: LiftedFunction) -> LiftedFunction:
    """Composite lift (g after f); requires the middle domains to agree."""
    if f_lift.target is not g_lift.source and f_lift.target.elements != g_lift.source.elements:
        raise LiftError(
            f"cannot compose: target {f_lift.target.tag!r} differs from source {g_lift.source.tag!r}")
    return LiftedFunction(f_lift.source, g_lift.target,
                          vl._frozen(g_lift.lut[f_lift.lut]))


# ---------------------------------------------------------------------------
# lifted relations


# mapped argument entries per batch of LiftedRelation.table: 8 MiB of int64
_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True)
class LiftedRelation:
    """Vector-side image of a relation; true exactly on images of members.

    Off-image argument vectors do not raise, they make the relation false,
    so the lift is total on the vector side.
    """

    map: DomainMap
    arity: int
    members: frozenset[tuple[int, ...]] = field(repr=False)  # basis index tuples

    def __call__(self, vecs: Sequence[np.ndarray]) -> int:
        if len(vecs) != self.arity:
            raise LiftError(f"relation of arity {self.arity} got {len(vecs)} arguments")
        try:
            return self.at(tuple([self.map.index[unmap_element(self.map, v)] for v in vecs]))
        except OffImageError:
            return 0

    def at(self, idx: tuple[int, ...]) -> int:
        """The verdict on the tuple of basis vectors with these indices."""
        return 1 if idx in self.members else 0

    def holds(self, batch: np.ndarray) -> np.ndarray:
        """Verdicts, as 0/1, for a (B, arity, dim) batch of argument vectors:
        row b is the argument tuple batch[b, 0], ..., batch[b, arity - 1]."""
        b = np.asarray(batch)
        if b.ndim < 2 or b.shape[1] != self.arity:
            raise LiftError(
                f"relation of arity {self.arity} got a batch of shape {b.shape}")
        if b.ndim != 3 or b.shape[2] != self.map.dim:
            return np.zeros(len(b), dtype=np.int64)  # every vector is off the image
        # a vector is on the image iff it is the basis vector its largest entry indexes
        idx = b.argmax(axis=2)
        on_image = (b == (np.arange(self.map.dim) == idx[..., None])).all(axis=(1, 2))
        at = self.at
        return np.array([ok and at(t) for ok, t
                         in zip(on_image.tolist(), map(tuple, idx.tolist()))], dtype=np.int64)

    def table(self) -> Iterator[tuple[tuple[Hashable, ...], int]]:
        """Every tuple over the domain, in lexicographic order, with the lift's
        verdict on its mapped vectors.  Each element is mapped once, and the
        mapped tuples are asked about a batch at a time."""
        m, arity = self.map, self.arity
        size = max(1, _BATCH_ENTRIES // (arity * m.dim))
        pairs = zip(iproduct(m.elements, repeat=arity), iproduct(range(m.dim), repeat=arity))
        while chunk := list(islice(pairs, size)):
            tuples, indices = zip(*chunk)
            yield from zip(tuples, self.holds(m.basis[np.array(indices)]).tolist())


def lift_relation(tuples: Iterable[tuple[Hashable, ...]], m: DomainMap,
                  arity: int) -> LiftedRelation:
    members = set()
    for tup in tuples:
        if len(tup) != arity:
            raise LiftError(f"tuple {tup!r} does not have arity {arity}")
        try:
            members.add(tuple([m.index[a] for a in tup]))
        except KeyError as exc:
            raise LiftError(
                f"tuple {tup!r} mentions {exc.args[0]!r}, outside domain {m.tag!r}") from None
    return LiftedRelation(m, arity, frozenset(members))


# ---------------------------------------------------------------------------
# lifted subsets


def lift_subset(subset: Iterable[Hashable], m: DomainMap) -> LiftedRelation:
    """Image of a subset: the lift of the unary relation of its members."""
    return lift_relation([(a,) for a in subset], m, 1)


@dataclass(frozen=True)
class SetOpsReport:
    union_ok: bool
    intersection_ok: bool
    difference_ok: bool

    @property
    def ok(self) -> bool:
        return self.union_ok and self.intersection_ok and self.difference_ok


def check_set_ops(e1: Iterable[Hashable], e2: Iterable[Hashable],
                  m: DomainMap) -> SetOpsReport:
    """Do union, intersection and difference commute with the subset lift?"""
    s1, s2 = set(e1), set(e2)
    i1, i2 = lift_subset(s1, m).members, lift_subset(s2, m).members
    return SetOpsReport(
        union_ok=lift_subset(s1 | s2, m).members == i1 | i2,
        intersection_ok=lift_subset(s1 & s2, m).members == i1 & i2,
        difference_ok=lift_subset(s1 - s2, m).members == i1 - i2,
    )


def characteristic(subset: Iterable[Hashable], m: DomainMap,
                   a: Hashable) -> tuple[int, int]:
    """Membership bit of the element and of its image, side by side."""
    s = set(subset)
    chi = 1 if a in s else 0
    chi_lifted = lift_subset(s, m)([map_element(m, a)])
    return chi, chi_lifted


def indicator_vector(subset: Iterable[Hashable], m: DomainMap) -> np.ndarray:
    """Sum of the basis vectors of the members; component i marks element i."""
    out = np.zeros(m.dim, dtype=np.int64)
    for a in set(subset):
        out += map_element(m, a)
    return out


# ---------------------------------------------------------------------------
# composition chains


@dataclass(frozen=True)
class ChainReport:
    length: int
    checks: int
    ok: bool
    counterexample: "tuple[Hashable, list[int], list[int]] | None" = None
    # (starting element, vector along the lifted chain, vector of the mapped composite)


def check_composition_chain(tables: Sequence[Mapping[Hashable, Hashable]],
                            maps: Sequence[DomainMap]) -> ChainReport:
    """Check that lifting each link and composing equals lifting after
    composing, pointwise over the whole first domain."""
    if len(maps) != len(tables) + 1:
        raise LiftError(
            f"chain of {len(tables)} functions needs {len(tables) + 1} maps, got {len(maps)}")
    lifts = [lift_function(t, maps[i], maps[i + 1]) for i, t in enumerate(tables)]
    checks = 0
    for a in maps[0].elements:
        vec = map_element(maps[0], a)
        for lf in lifts:
            vec = lf(vec)
        val = a
        for t in tables:
            val = t[val]
        expected = map_element(maps[-1], val)
        checks += 1
        if not np.array_equal(vec, expected):
            return ChainReport(len(tables), checks, False,
                               (a, vec.tolist(), expected.tolist()))
    return ChainReport(len(tables), checks, True)


# ---------------------------------------------------------------------------
# dual-route evaluation of terms


@dataclass(frozen=True)
class LiftFamily:
    """The map a model induces on its entities; truth values embed through
    veclogic.embed_truth."""

    entity: DomainMap

    @classmethod
    def for_model(cls, model: Model) -> "LiftFamily":
        return cls(entity_map(model))


def lifted_model_function(model: Model, name: str, fam: LiftFamily) -> LiftedFunction:
    """Lift an interpreted function; n-ary tables lift over the n-fold product
    domain, whose basis vectors are Kronecker products of entity vectors."""
    fn = model.functions[name]
    table = {args[0] if fn.arity == 1 else args: out for args, out in fn.table.items()}
    return lift_function(table, product_map(fam.entity, fn.arity), fam.entity)


def lifted_model_relation(model: Model, name: str, fam: LiftFamily) -> LiftedRelation:
    rel = model.relations[name]
    return lift_relation(rel.tuples, fam.entity, rel.arity)


class VectorSemantics:
    """Semantics of the vector route: one-hot entity vectors, lifted functions
    on the Kronecker fold of their arguments, lifted relations, and operator
    matrices.  It lifts each symbol and maps each entity once, so it serves a
    single evaluation.

    Each value is checked once, by the node that makes it: an entity vector
    is a basis vector, a function node checks the length of the basis vector
    its lift gave, a predicate embeds a bit, and apply_operator checks each
    truth value it is given.  So the argument vectors a node receives are on
    the image.
    """

    def __init__(self, model: Model, fam: LiftFamily):
        self.model, self.fam = model, fam
        self.lifts: dict = {}
        self.entities: dict[str, np.ndarray] = {}

    def _lift(self, lift, name: str):
        if (lift, name) not in self.lifts:
            self.lifts[lift, name] = lift(self.model, name, self.fam)
        return self.lifts[lift, name]

    def entity(self, ent: str) -> np.ndarray:
        if ent not in self.entities:
            self.entities[ent] = map_element(self.fam.entity, ent)
        return self.entities[ent]

    def fun(self, name: str, args: list[np.ndarray]) -> np.ndarray:
        # at builds a one-hot vector, so its length is all there is to check
        out = self._lift(lifted_model_function, name).at(int(vl.kron_fold(args).argmax()))
        if out.shape != (self.fam.entity.dim,):
            raise OffImageError(f"lift of function {name!r} gave {out.tolist()!r}, "
                                f"off the image of {self.fam.entity.tag!r}")
        return out

    def pred(self, name: str, args: list[np.ndarray]) -> np.ndarray:
        idx = tuple([int(a.argmax()) for a in args])
        return vl.embed_truth(self._lift(lifted_model_relation, name).at(idx))

    def conn(self, kind: ConnectiveKind, args: list[np.ndarray]) -> np.ndarray:
        return vl.apply_operator(vl.named_operator(kind), args)


def vector_denote(term: Term, model: Model, g: Assignment, fam: LiftFamily) -> np.ndarray:
    """Evaluate a term on the vector side only, down to the leaves.  The
    projection of the result always agrees with the extensional denotation."""
    return evaluate(term, model, g, VectorSemantics(model, fam))


def lift_logical_connective(term: Term, model: Model, g: Assignment,
                            fam: LiftFamily) -> np.ndarray:
    """vector_denote for formulas; an entity-typed term is refused."""
    if not isinstance(term, (PredApp, Connective)):
        raise LiftError(f"term {term!r} is not a formula")
    return vector_denote(term, model, g, fam)
