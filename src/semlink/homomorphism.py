"""The lifts of a model, and the checks that they commute with its maps.

A model's functions and relations lift over its entity map (the maps and
LiftMatrix are veclogic's, re-exported here), a relation as its
characteristic function into TRUTH and a subset as a unary relation.  Set
operations and composition chains are checked to commute with the maps, and
terms evaluate along both routes, connectives acting as the lifts of their
truth functions.  All arithmetic here is exact integer; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product as iproduct
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import veclogic as vl
from .model import Assignment, Model, denote, evaluate  # noqa: F401 (denote is re-exported)
from .terms import FORMULA_NODES, ConnectiveKind, Term
from .veclogic import (  # noqa: F401 (re-exported)
    TRUTH, DomainMap, LiftError, LiftMatrix, OffImageError, basis_matrix,
    build_domain_map, map_element, unmap_element)


# ---------------------------------------------------------------------------
# lifts


def entity_map(model: Model) -> DomainMap:
    return build_domain_map(model.entities, tag="entity")


def lift_function(table: Mapping[Hashable, Hashable], m_src: DomainMap,
                  m_tgt: DomainMap, arity: int = 1) -> LiftMatrix:
    """Lift a total function so that lift(map(a1), ..., map(an)) =
    map(f(a1, ..., an)).  The table is keyed by elements of m_src when the
    arity is 1 and by arity-tuples of them otherwise.  Column j is basis
    vector rows[j] of m_tgt, built (and kept, over a kept map) by
    veclogic.lift_by_rows."""
    index, rows = m_tgt.index, []
    for a in m_src.elements if arity == 1 else iproduct(m_src.elements, repeat=arity):
        try:
            rows.append(index[table[a]])
        except KeyError:
            if a not in table:
                raise LiftError(f"function is not total: no value for {a!r}") from None
            raise LiftError(f"function value {table[a]!r} is outside target domain "
                            f"{m_tgt.tag!r}") from None
    return vl.lift_by_rows(m_src, arity, m_tgt, rows)


def compose_lifted(*lifts: LiftMatrix) -> LiftMatrix:
    """g after f is compose_lifted(g, f), the product of their matrices; every
    lift but the last must be unary, and the domains that meet must agree.
    Column j of A @ B is A's column k when B's column j is basis vector k,
    so a product of lifts is a lift, and no column of it is checked again."""
    if not lifts:
        raise LiftError("compose_lifted needs at least one lift")
    for g, f in zip(lifts, lifts[1:]):
        if g.arity != 1:
            raise LiftError(f"cannot compose after a lift of arity {g.arity}")
        if f.target is not g.source and f.target.elements != g.source.elements:
            raise LiftError(
                f"cannot compose: target {f.target.tag!r} differs from source {g.source.tag!r}")
    if len(lifts) == 1:
        return lifts[0]
    return vl._lift_of(lifts[-1].source, lifts[-1].arity, lifts[0].target,
                       reduce(np.matmul, [lf.mat for lf in lifts]))


def _member_bits(tuples: Iterable[tuple[Hashable, ...]], m: DomainMap, arity: int) -> bytearray:
    """One byte per arity-tuple over m, in lexicographic order: the TRUTH row
    of TRUE_VEC exactly when the tuple is a member, else of FALSE_VEC.  Every
    relation and subset lift is read here."""
    if not 1 <= arity <= vl.ARITY_CAP or m.dim ** arity > 1 << vl.ARITY_CAP:
        raise LiftError(f"a relation of arity {arity} over {m.dim} elements is past the caps "
                        f"of arity {vl.ARITY_CAP} and 2^{vl.ARITY_CAP} tuples")
    d, index, member = m.dim, m.index, TRUTH.index[1]
    bits = bytearray([1 - member]) * d ** arity
    for tup in tuples:
        if len(tup) != arity:
            raise LiftError(f"tuple {tup!r} does not have arity {arity}")
        j = 0
        for a in tup:
            if (i := index.get(a)) is None:
                raise LiftError(f"tuple {tup!r} mentions {a!r}, outside domain {m.tag!r}")
            j = j * d + i
        bits[j] = member
    return bits


def lift_relation(tuples: Iterable[tuple[Hashable, ...]], m: DomainMap,
                  arity: int) -> LiftMatrix:
    """Lift of the relation's characteristic function into TRUTH: column j
    is TRUE_VEC exactly when the j-th tuple is a member, its TRUTH row
    TRUTH.index[1] (the row of bit b is 1 - b)."""
    return vl.lift_by_rows(m, arity, TRUTH, _member_bits(tuples, m, arity))


# ---------------------------------------------------------------------------
# lifted subsets


def _unary(subset: Iterable[Hashable], m: DomainMap) -> list[tuple[Hashable]]:
    """The subset's unary relation; an element outside m is refused by name."""
    index, members = m.index, [(a,) for a in subset]
    for (a,) in members:
        if a not in index:
            raise LiftError(f"element {a!r} is outside domain {m.tag!r}")
    return members


def lift_subset(subset: Iterable[Hashable], m: DomainMap) -> LiftMatrix:
    """Image of a subset: the lift of the unary relation of its members."""
    return lift_relation(_unary(subset, m), m, 1)


def indicator_vector(subset: Iterable[Hashable], m: DomainMap) -> np.ndarray:
    """The top row of the subset's lift, read-only: component i marks element
    i.  Each member's component is set in turn, so no lift is built."""
    index, y = m.index, np.zeros(m.dim, dtype=np.int64)
    for (a,) in _unary(subset, m):
        y[index[a]] = 1
    return vl._frozen(y)


# each set operation beside its arithmetic on indicator vectors (Mizraji's vector logic)
SET_OPS = {
    "union": (set.union, lambda x, y: x + y - x * y),
    "intersection": (set.intersection, lambda x, y: x * y),
    "difference": (set.difference, lambda x, y: x - x * y),
}


def check_set_ops(e1: Iterable[Hashable], e2: Iterable[Hashable],
                  m: DomainMap) -> tuple[dict[str, bool], LiftMatrix]:
    """Whether each of SET_OPS commutes with the subset lift, by name, and
    e1's lift, the one its verdicts read, so a caller checks that lift
    without building it again.  Each verdict is the operation's arithmetic
    on the top row of e1's lift and e2's indicator vector against the
    result's membership, read from the result set in m's order; a result
    with an element outside m is refused by name."""
    s1, s2 = set(e1), set(e2)
    lifted = lift_subset(s1, m)
    x, y = lifted.mat[0], indicator_vector(s2, m)
    ok = {}
    for name, (on_sets, on_vectors) in SET_OPS.items():
        r = on_sets(s1, s2)
        if len(r) != sum(bits := [a in r for a in m.elements]):
            _unary(r, m)  # r has fewer members in m than in all
        ok[name] = bits == on_vectors(x, y).tolist()
    return ok, lifted


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
    applied in turn, from the first link's columns, give the mapped composite
    (read from the last map's basis) and that their product is the composite's
    lift; a route that differs as a whole is walked to name the first point it fails at."""
    if not tables or len(maps) != len(tables) + 1:
        raise LiftError(f"a chain of n >= 1 functions needs n + 1 maps: got {len(tables)} "
                        f"functions and {len(maps)} maps")
    lifts = [lift_function(t, maps[i], maps[i + 1]) for i, t in enumerate(tables)]
    product = compose_lifted(*reversed(lifts))
    values = list(maps[0].elements)  # the composite's, one link at a time
    for t in tables:
        values = [t[v] for v in values]
    direct = lift_function(dict(zip(maps[0].elements, values)), maps[0], maps[-1])
    along = lifts[0].mat
    for lf in lifts[1:]:
        along = lf.mat @ along
    index = maps[-1].index
    mapped = basis_matrix(maps[-1]).take([index[v] for v in values], axis=1)
    routes = [(got, want) for got, want in [(along, mapped), (product.mat, direct.mat)]
              if got.shape != want.shape or got.tobytes() != want.tobytes()]
    for k, a in enumerate(maps[0].elements if routes else ()):
        for got, want in routes:
            if (g := got[:, k].tolist()) != (w := want[:, k].tolist()):
                return ChainReport(len(tables), k + 1, False, (a, g, w))
    return ChainReport(len(tables), maps[0].dim, True)


# ---------------------------------------------------------------------------
# dual-route evaluation of terms


class LiftFamily:
    """The lifts of one model, and the semantics of the vector route over it:
    one-hot entity vectors, and each function, relation and connective a
    matrix contracted with its arguments by veclogic.contract.

    Each function and relation lift is built the first time it is asked
    for, then kept by the family.  A symbol's image depends on the model
    alone, not on the term, so every evaluation over the model shares one
    family.  Over a kept entity map (veclogic.kept_map) the builders return
    the lift the map keeps for an equal table of a kind with few tables, so
    the families of the formula law's random models share those lifts across
    models and runs.  An entity vector depends on the entity map alone, so
    the map keeps it, and every family over one map shares it.  The model cannot
    change after it is validated, so a kept lift never goes stale; each kept
    array is read-only, so no caller can corrupt a later evaluation by
    writing into one.

    Each value is checked once, where it is made: an entity vector is a
    basis vector, and every node, connectives included, contracts a lift
    checked when it was built (a function node checks the column's length,
    all a wrong target could change).  Lift columns sum to 1, so a node's
    value sums to the product of its arguments' sums: a 0/1 vector that is
    no basis vector anywhere in a formula makes a root that is none either.
    """

    __slots__ = ("model", "entity", "_functions", "_relations")

    def __init__(self, model: Model, entity: DomainMap):
        self.model, self.entity = model, entity
        self._functions: dict[str, LiftMatrix] = {}
        self._relations: dict[str, LiftMatrix] = {}

    @classmethod
    def for_model(cls, model: Model) -> "LiftFamily":
        return cls(model, entity_map(model))

    def fun(self, name: str, args: list[np.ndarray]) -> np.ndarray:
        out = vl.contract((self._functions.get(name) or self.function(name)).ten, args)
        if out.shape != (self.entity.dim,):
            raise OffImageError(f"lift of function {name!r} gave {out.tolist()!r}, "
                                f"off the image of {self.entity.tag!r}")
        return out

    def pred(self, name: str, args: list[np.ndarray]) -> np.ndarray:
        return vl.contract((self._relations.get(name) or self.relation(name)).ten, args)

    def conn(self, kind: ConnectiveKind, args: list[np.ndarray]) -> np.ndarray:
        return vl.contract(vl.named_operator(kind).ten, args)

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
            rel = self.model.relations[name]
            lift = self._relations[name] = lift_relation(rel.tuples, self.entity, rel.arity)
        return lift

    def leaf(self, ent: str) -> np.ndarray:
        """The entity's basis vector, read-only, kept by the entity map."""
        vectors = self.entity.vectors
        vec = vectors.get(ent)
        if vec is None:
            vec = vectors[ent] = vl._frozen(map_element(self.entity, ent))
        return vec


def lifted_model_function(model: Model, name: str, fam: LiftFamily) -> LiftMatrix:
    """Lift an interpreted function: an n-ary table lifts to a d x d^n
    matrix, applied to the Kronecker fold of n entity vectors."""
    fn = model.functions[name]
    table = fn.table if fn.arity > 1 else {args[0]: out for args, out in fn.table.items()}
    return lift_function(table, fam.entity, fam.entity, fn.arity)


def vector_denote(term: Term, model: Model, g: Assignment, fam: LiftFamily) -> np.ndarray:
    """Evaluate a term on the vector side only, down to the leaves.  The
    projection of the result always agrees with the extensional denotation.
    The family must be the one built for this model object."""
    if fam.model is not model:
        raise LiftError("the lift family was built for another model")
    return evaluate(term, model, g, fam)


def lift_logical_connective(term: Term, model: Model, g: Assignment,
                            fam: LiftFamily) -> np.ndarray:
    """vector_denote for formulas; an entity-typed term is refused."""
    if not isinstance(term, FORMULA_NODES):
        raise LiftError(f"term {term!r} is not a formula")
    return vector_denote(term, model, g, fam)
