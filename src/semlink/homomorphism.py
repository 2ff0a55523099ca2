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
from itertools import product as iproduct
from typing import Hashable, Iterable, Mapping, Sequence

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


def truth_map() -> DomainMap:
    """Map over {1, 0} whose basis agrees with embed_truth."""
    return build_domain_map((1, 0), tag="truth")


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
        a = unmap_element(self.source, vec)
        out = np.zeros(self.target.dim, dtype=np.int64)
        out[int(self.lut[self.source.index[a]])] = 1
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
            batch = np.asarray(vecs)[None]
        except ValueError:  # vectors of unequal lengths: some are off the image
            return 0
        return int(self.holds(batch)[0])

    def holds(self, batch: np.ndarray) -> np.ndarray:
        """Verdicts, as 0/1, for a (B, arity, dim) batch of argument vectors:
        row b is the argument tuple batch[b, 0], ..., batch[b, arity - 1]."""
        b = np.asarray(batch)
        if b.ndim < 2 or b.shape[1] != self.arity:
            raise LiftError(
                f"relation of arity {self.arity} got a batch of shape {b.shape}")
        if b.ndim != 3 or b.shape[2] != self.map.dim:
            return np.zeros(len(b), dtype=np.int64)  # every vector is off the image
        on_image = vl.is_one_hot(b, axis=2).all(axis=1)
        members = self.members
        return np.array([ok and tuple(idx) in members for ok, idx
                         in zip(on_image.tolist(), b.argmax(axis=2).tolist())], dtype=np.int64)


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


def vector_key(vec: np.ndarray) -> tuple[int, ...]:
    """Hashable form of an integer vector, for set membership."""
    return tuple(int(x) for x in np.asarray(vec))


def lift_subset(subset: Iterable[Hashable], m: DomainMap) -> frozenset[tuple[int, ...]]:
    """Image of a subset: the set of basis vectors (as tuples) of its members."""
    out = set()
    for a in subset:
        out.add(vector_key(map_element(m, a)))
    return frozenset(out)


def subset_contains(lifted: frozenset[tuple[int, ...]], vec: np.ndarray) -> bool:
    return vector_key(vec) in lifted


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
    return SetOpsReport(
        union_ok=lift_subset(s1 | s2, m) == lift_subset(s1, m) | lift_subset(s2, m),
        intersection_ok=lift_subset(s1 & s2, m) == lift_subset(s1, m) & lift_subset(s2, m),
        difference_ok=lift_subset(s1 - s2, m) == lift_subset(s1, m) - lift_subset(s2, m),
    )


def characteristic(subset: Iterable[Hashable], m: DomainMap,
                   a: Hashable) -> tuple[int, int]:
    """Membership bit of the element and of its image, side by side."""
    s = set(subset)
    chi = 1 if a in s else 0
    chi_lifted = 1 if subset_contains(lift_subset(s, m), map_element(m, a)) else 0
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
    """The maps a model induces: one for its entities, one for truth values."""

    entity: DomainMap
    truth: DomainMap

    @classmethod
    def for_model(cls, model: Model) -> "LiftFamily":
        return cls(entity_map(model), truth_map())


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
    matrices.  It lifts each symbol once, so it serves a single evaluation."""

    def __init__(self, model: Model, fam: LiftFamily):
        self.model, self.fam = model, fam
        self.lifts: dict = {}

    def _lift(self, lift, name: str):
        if (lift, name) not in self.lifts:
            self.lifts[lift, name] = lift(self.model, name, self.fam)
        return self.lifts[lift, name]

    def entity(self, ent: str) -> np.ndarray:
        return map_element(self.fam.entity, ent)

    def fun(self, name: str, args: list[np.ndarray]) -> np.ndarray:
        return self._lift(lifted_model_function, name)(vl.kron_fold(args))

    def pred(self, name: str, args: list[np.ndarray]) -> np.ndarray:
        return vl.embed_truth(self._lift(lifted_model_relation, name)(args))

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
