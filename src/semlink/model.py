"""Finite extensional models and the denotation function.

A model fixes a finite entity domain, total interpretation tables for the
function symbols, tuple sets for the predicate symbols, and entity values
for the constants.  Evaluation of a term under a model and a variable
assignment is a pure structural recursion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .terms import (
    FORMULA_NODES,
    Connective,
    ConnectiveKind,
    Const,
    FunApp,
    PredApp,
    Signature,
    Term,
    Var,
)
from .veclogic import ARITY_CAP, TRUTH, kept_map


class ModelError(ValueError):
    """Malformed model data: non-total table, unknown entity, bad arity."""


class EvaluationError(ValueError):
    """Denotation failure: unbound variable or symbol missing from the model."""


@dataclass(frozen=True)
class EntityVal:
    id: str


@dataclass(frozen=True)
class TruthVal:
    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError(f"truth value must be 0 or 1, got {self.bit!r}")


# an assignment maps variable names to entity ids
Assignment = Mapping[str, str]


@dataclass(frozen=True)
class FunctionInterp:
    arity: int
    table: Mapping[tuple[str, ...], str]

    def __post_init__(self):
        # a read-only copy: the caller's dict cannot change the table later
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def __reduce__(self):  # a mappingproxy cannot be pickled or deep-copied
        return FunctionInterp, (self.arity, dict(self.table))


@dataclass(frozen=True)
class RelationInterp:
    arity: int
    tuples: frozenset[tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "tuples", frozenset(self.tuples))


@dataclass(frozen=True)
class Model:
    """A validated model.  It cannot change afterwards: its mappings are
    read-only copies of the ones it was given.  Its symbol names are those of
    its signature, built and checked once here, so a model whose names no
    expression could use is refused when it is made."""

    entities: tuple[str, ...]
    constants: Mapping[str, str]
    functions: Mapping[str, FunctionInterp]
    relations: Mapping[str, RelationInterp]
    # the plain dicts the three read-only views wrap, read by evaluate
    _constants: dict = field(init=False, repr=False, compare=False)
    _functions: dict = field(init=False, repr=False, compare=False)
    _relations: dict = field(init=False, repr=False, compare=False)
    _signature: Signature = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entities:
            raise ModelError("entity domain is empty")
        if len(set(self.entities)) != len(self.entities):
            raise ModelError("entity ids are not unique")
        dom = set(self.entities)
        for name, ent in self.constants.items():
            if ent not in dom:
                raise ModelError(f"constant {name!r} maps to unknown entity {ent!r}")
        for kind, symbols in (("function", self.functions), ("relation", self.relations)):
            for name, interp in symbols.items():
                try:  # a str, None or an array cannot say whether it is below 1
                    below_one = bool(interp.arity < 1)
                except (TypeError, ValueError):
                    raise ModelError(f"{kind} {name!r} has arity {interp.arity!r}, "
                                     f"expected an int >= 1") from None
                if below_one:
                    raise ModelError(f"{kind} {name!r} has arity {interp.arity}, expected at least 1")
        for name, fn in self.functions.items():
            for args, out in fn.table.items():
                if len(args) != fn.arity:
                    raise ModelError(f"function {name!r} row {list(args)!r}: expected {fn.arity} arguments")
                for a in args:
                    if a not in dom:
                        raise ModelError(f"function {name!r} row {list(args)!r}: unknown entity {a!r}")
                if out not in dom:
                    raise ModelError(f"function {name!r} row {list(args)!r}: unknown result entity {out!r}")
            # The rows are distinct, of the arity and over the domain, so the table is
            # total iff it has d^arity of them.  An empty table is never total, and
            # is caught first: no row bounds its arity, so d^arity could be vast.
            if not fn.table:
                raise ModelError(f"function {name!r} is not total: its table is empty")
            if len(fn.table) != len(dom) ** fn.arity:
                row = next(r for r in product(sorted(dom), repeat=fn.arity) if r not in fn.table)
                raise ModelError(f"function {name!r} is not total: no entry for {list(row)!r}")
            # its lift is a d x d^arity matrix; the arity is compared first, as below
            if fn.arity > ARITY_CAP:
                raise ModelError(f"function {name!r} has arity {fn.arity}, above the cap of {ARITY_CAP}")
            if len(dom) ** (fn.arity + 1) > 2 << ARITY_CAP:
                raise ModelError(f"function {name!r} lifts to a {len(dom)} x {len(dom)}^{fn.arity} "
                                 f"matrix, above the cap of 2 x 2^{ARITY_CAP} entries")
        for name, rel in self.relations.items():
            # The relation law and `lift --relation` ask a lifted relation about all
            # d^arity tuples (the vector route does not).  The arity is compared first,
            # so d^arity is only computed for an arity within the cap.
            if rel.arity > ARITY_CAP:
                raise ModelError(f"relation {name!r} has arity {rel.arity}, above the cap of {ARITY_CAP}")
            if len(dom) ** rel.arity > 1 << ARITY_CAP:
                raise ModelError(f"relation {name!r} has {len(dom)}^{rel.arity} tuples, "
                                 f"above the cap of 2^{ARITY_CAP}")
            for tup in rel.tuples:
                if len(tup) != rel.arity:
                    raise ModelError(f"relation {name!r} tuple {list(tup)!r}: expected arity {rel.arity}")
                for a in tup:
                    if a not in dom:
                        raise ModelError(f"relation {name!r} tuple {list(tup)!r}: unknown entity {a!r}")
        for key in ("constants", "functions", "relations"):
            plain = dict(getattr(self, key))
            object.__setattr__(self, "_" + key, plain)
            object.__setattr__(self, key, MappingProxyType(plain))
        object.__setattr__(self, "_signature", _signature_of(
            tuple(self._constants),
            tuple([(name, fn.arity) for name, fn in self._functions.items()]),
            tuple([(name, rel.arity) for name, rel in self._relations.items()]),
        ))

    def __reduce__(self):  # a mappingproxy cannot be pickled or deep-copied
        return Model, (self.entities, dict(self.constants), dict(self.functions),
                       dict(self.relations))

    def signature(self) -> Signature:
        return self._signature


# random_model makes 16 vocabularies per entity count (two functions and two
# predicates, each of arity 1 or 2), and the formula law draws 2 to 4 entities:
# 48 vocabularies, which a table of 64 holds with room for a few fixed models
_SIGNATURES = 64


@lru_cache(maxsize=_SIGNATURES)
def _interned_signature(constants: tuple, functions: tuple, predicates: tuple) -> Signature:
    return Signature(constants, dict(functions), dict(predicates))


def _signature_of(constants: tuple, functions: tuple, predicates: tuple) -> Signature:
    """The signature of a vocabulary: its constant names in order, and each
    function and predicate as a (name, arity) pair.  Models of one vocabulary
    share one signature, built and validated the first time it is asked for.
    Only a plain int arity is kept in the table: another type (1.0,
    np.int64(1), True) may equal an int, or may not hash, so its vocabulary
    is validated on its own, and refused or accepted just as it would be."""
    for _, arity in functions + predicates:
        if type(arity) is not int:
            return _interned_signature.__wrapped__(constants, functions, predicates)
    return _interned_signature(constants, functions, predicates)


def reset_tables() -> None:
    """Empty every process-wide table a later call can read: the interned
    signatures, the kept maps (with the basis and vectors each keeps), and
    the element vectors of TRUTH, its only mutable table."""
    _interned_signature.cache_clear()
    kept_map.cache_clear()
    TRUTH.vectors.clear()


# ---------------------------------------------------------------------------
# loading

def _check_ids(row, what: str):
    """A row of a model file must be an array of entity id strings."""
    if not isinstance(row, list) or not all(isinstance(cell, str) for cell in row):
        raise ModelError(f"{what} {row!r}: expected an array of entity id strings")


def _object(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ModelError(f'"{key}" must be an object, got {type(value).__name__}')
    return value


def _symbol(kind: str, name: str, entry, key: str, row: str) -> tuple[int, list]:
    """The arity and the rows of one function or relation entry."""
    if not isinstance(entry, dict) or "arity" not in entry or key not in entry:
        raise ModelError(f'{kind} {name!r} needs "arity" and "{key}" keys')
    arity, rows = entry["arity"], entry[key]
    if not isinstance(arity, int) or isinstance(arity, bool):
        raise ModelError(f'{kind} {name!r}: "arity" must be an integer, got {arity!r}')
    if not isinstance(rows, list):
        raise ModelError(f'{kind} {name!r}: "{key}" must be an array of {row}s')
    for r in rows:
        _check_ids(r, f"{kind} {name!r} {row}")
    return arity, rows


def model_from_dict(data: dict) -> Model:
    """Build a model from the JSON object layout.

    Keys: "entities" (array of ids), "constants" (name -> id), "functions"
    (name -> {"arity": n, "table": [[arg1..argn, result], ...]}), "relations"
    (name -> {"arity": n, "tuples": [[arg1..argn], ...]}).  Entity ids are
    strings; each violation of the layout raises ModelError naming the row.
    """
    if not isinstance(data, dict):
        raise ModelError(f"model must be a JSON object, got {type(data).__name__}")
    if "entities" not in data:
        raise ModelError('model file is missing the "entities" key')
    _check_ids(data["entities"], '"entities"')
    entities = tuple(data["entities"])
    constants = dict(_object(data, "constants"))
    for name, ent in constants.items():
        if not isinstance(ent, str):
            raise ModelError(f"constant {name!r} maps to {ent!r}, expected an entity id string")
    functions: dict[str, FunctionInterp] = {}
    for name, entry in _object(data, "functions").items():
        arity, rows = _symbol("function", name, entry, "table", "row")
        table: dict[tuple[str, ...], str] = {}
        for row in rows:
            if len(row) != arity + 1:
                raise ModelError(
                    f"function {name!r} row {row!r}: expected {arity} arguments plus a result")
            args = tuple(row[:-1])
            if args in table:
                raise ModelError(f"function {name!r} row {row!r}: duplicate entry for {list(args)!r}")
            table[args] = row[-1]
        functions[name] = FunctionInterp(arity, table)
    relations: dict[str, RelationInterp] = {}
    for name, entry in _object(data, "relations").items():
        arity, tuples = _symbol("relation", name, entry, "tuples", "tuple")
        relations[name] = RelationInterp(arity, frozenset(tuple(t) for t in tuples))
    return Model(entities, constants, functions, relations)


def load_model(path: "str | Path") -> Model:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ModelError("model file nests its JSON too deeply to load") from None
    return model_from_dict(data)


# ---------------------------------------------------------------------------
# denotation

_CLASSICAL = {
    ConnectiveKind.NOT: lambda a: 1 - a,
    ConnectiveKind.AND: lambda a, b: a & b,
    ConnectiveKind.OR: lambda a, b: a | b,
    ConnectiveKind.IMPLIES: lambda a, b: (1 - a) | b,
    ConnectiveKind.IFF: lambda a, b: 1 - (a ^ b),
    ConnectiveKind.XOR: lambda a, b: a ^ b,
    ConnectiveKind.COND: lambda c, a, b: a if c else b,
}


@dataclass(frozen=True)
class Extensional:
    """The extensional route on bare entity ids and bits; denote wraps the root's value."""

    model: Model

    def leaf(self, ent: str) -> str:
        return ent

    def fun(self, name: str, args: list[str]) -> str:
        return self.model._functions[name].table[tuple(args)]

    def pred(self, name: str, args: list[str]) -> int:
        return int(tuple(args) in self.model._relations[name].tuples)

    def conn(self, kind: ConnectiveKind, args: list[int]) -> int:
        return _CLASSICAL[kind](*args)


def _misplaced(owner: str, formulas: bool) -> EvaluationError:
    got, want = ("an entity", "a truth value") if formulas else ("a truth value", "an entity")
    return EvaluationError(f"argument of {owner!r} evaluated to {got}, expected {want}")


def evaluate(term: Term, model: Model, g: Assignment, sem):
    """The one structural recursion over terms, for either route.

    The checks come in a fixed order at every node.  A leaf resolves to an
    entity id (an unbound Var, a Var assigned a value outside the domain, or
    an uninterpreted Const raises).  An application's symbol is checked
    against the model, name then arity, before any of its arguments is
    evaluated.  The arguments are evaluated left to right, and each one's
    type is checked right after it is evaluated, so a misplaced argument is
    reported before anything to its right is looked at.  Anything that is
    not a term raises TypeError.

    The semantics `sem` makes the values: sem.leaf(id) at a leaf,
    sem.fun(name, args), sem.pred(name, args) or sem.conn(kind, args) at a
    node.
    """
    constants, functions, relations = model._constants, model._functions, model._relations
    leaf, fun, pred, conn = sem.leaf, sem.fun, sem.pred, sem.conn

    # one frame per level of nesting: the loops stay in go, since a helper
    # or a list comprehension would add a frame per level on Python < 3.12
    def go(t: Term):
        cls = type(t)
        if cls is Const:
            ent = constants.get(t.name)
            if ent is None and t.name not in constants:  # None is an entity id a model may use
                raise EvaluationError(f"constant {t.name!r} is not interpreted by the model")
            return leaf(ent)
        if cls is Connective:
            kind = t.kind
            vals = []
            for a in t.args:
                vals.append(go(a))
                if type(a) not in FORMULA_NODES:
                    raise _misplaced(kind.keyword, formulas=True)
            return conn(kind, vals)
        if cls is FunApp:
            kind, symbols, apply = "function", functions, fun
        elif cls is PredApp:
            kind, symbols, apply = "relation", relations, pred
        elif cls is Var:
            if t.name not in g:
                raise EvaluationError(f"unbound variable {t.name!r}")
            ent = g[t.name]
            if ent not in model.entities:
                raise EvaluationError(
                    f"variable {t.name!r} is assigned {ent!r}, not an entity of the model")
            return leaf(ent)
        else:
            raise TypeError(f"not a term: {t!r}")
        name, args = t.name, t.args
        interp = symbols.get(name)
        if interp is None:
            raise EvaluationError(f"{kind} {name!r} is not interpreted by the model")
        if interp.arity != len(args):
            raise EvaluationError(f"{kind} {name!r} takes {interp.arity} arguments, got {len(args)}")
        vals = []
        for a in args:
            vals.append(go(a))
            if type(a) in FORMULA_NODES:
                raise _misplaced(name, formulas=False)
        return apply(name, vals)

    try:
        return go(term)
    finally:
        # go reaches itself through its closure cell: clearing the cell breaks
        # that cycle, so the evaluation's state is freed at once by refcount
        go = None


def denote(term: Term, model: Model, g: Assignment) -> "EntityVal | TruthVal":
    """Evaluate a term. A term of sort e yields EntityVal, a formula TruthVal."""
    val = evaluate(term, model, g, Extensional(model))
    return TruthVal(val) if type(term) in FORMULA_NODES else EntityVal(val)

