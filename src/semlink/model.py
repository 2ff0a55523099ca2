"""Finite extensional models and the denotation function.

A model fixes a finite entity domain, total interpretation tables for the
function symbols, tuple sets for the predicate symbols, and entity values
for the constants.  Evaluation of a term under a model and a variable
assignment is a pure structural recursion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Mapping

from .terms import (
    ENTITY,
    Connective,
    ConnectiveKind,
    Const,
    FunApp,
    PredApp,
    Signature,
    Term,
    Var,
    signature_of,
)


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


Value = "EntityVal | TruthVal"

# an assignment maps variable names to entity ids
Assignment = Mapping[str, str]


@dataclass(frozen=True)
class FunctionInterp:
    arity: int
    table: Mapping[tuple[str, ...], str]


@dataclass(frozen=True)
class RelationInterp:
    arity: int
    tuples: frozenset[tuple[str, ...]]


@dataclass(frozen=True)
class Model:
    entities: tuple[str, ...]
    constants: Mapping[str, str]
    functions: Mapping[str, FunctionInterp]
    relations: Mapping[str, RelationInterp]

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
                if interp.arity < 1:
                    raise ModelError(f"{kind} {name!r} has arity {interp.arity}, expected at least 1")
        for name, fn in self.functions.items():
            need = set(product(self.entities, repeat=fn.arity))
            for args, out in fn.table.items():
                if len(args) != fn.arity:
                    raise ModelError(f"function {name!r} row {list(args)!r}: expected {fn.arity} arguments")
                if args not in need:
                    bad = next(a for a in args if a not in dom)
                    raise ModelError(f"function {name!r} row {list(args)!r}: unknown entity {bad!r}")
                if out not in dom:
                    raise ModelError(f"function {name!r} row {list(args)!r}: unknown result entity {out!r}")
            missing = need - set(fn.table)
            if missing:
                row = sorted(missing)[0]
                raise ModelError(f"function {name!r} is not total: no entry for {list(row)!r}")
        for name, rel in self.relations.items():
            for tup in rel.tuples:
                if len(tup) != rel.arity:
                    raise ModelError(f"relation {name!r} tuple {list(tup)!r}: expected arity {rel.arity}")
                for a in tup:
                    if a not in dom:
                        raise ModelError(f"relation {name!r} tuple {list(tup)!r}: unknown entity {a!r}")

    def signature(self) -> Signature:
        return signature_of(
            constants={name: ENTITY for name in self.constants},
            functions={name: fn.arity for name, fn in self.functions.items()},
            predicates={name: rel.arity for name, rel in self.relations.items()},
        )


def variant_assignment(g: Assignment, x: str, k: str, model: Model) -> dict[str, str]:
    """Return g with x rebound to k; g itself is not touched."""
    if k not in set(model.entities):
        raise EvaluationError(f"entity {k!r} is not in the domain")
    out = dict(g)
    out[x] = k
    return out


# ---------------------------------------------------------------------------
# loading

def model_from_dict(data: dict) -> Model:
    """Build a model from the JSON object layout.

    Keys: "entities" (array of ids), "constants" (name -> id), "functions"
    (name -> {"arity": n, "table": [[arg1..argn, result], ...]}), "relations"
    (name -> {"arity": n, "tuples": [[arg1..argn], ...]}).
    """
    if not isinstance(data, dict):
        raise ModelError(f"model must be a JSON object, got {type(data).__name__}")
    if "entities" not in data:
        raise ModelError('model file is missing the "entities" key')
    if not isinstance(data["entities"], list):
        raise ModelError('"entities" must be an array of entity ids')
    entities = tuple(data["entities"])
    constants = dict(data.get("constants", {}))
    functions: dict[str, FunctionInterp] = {}
    for name, entry in dict(data.get("functions", {})).items():
        try:
            arity = int(entry["arity"])
            rows = entry["table"]
        except (KeyError, TypeError):
            raise ModelError(f'function {name!r} needs "arity" and "table" keys')
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
    for name, entry in dict(data.get("relations", {})).items():
        try:
            arity = int(entry["arity"])
            tuples = entry["tuples"]
        except (KeyError, TypeError):
            raise ModelError(f'relation {name!r} needs "arity" and "tuples" keys')
        relations[name] = RelationInterp(arity, frozenset(tuple(t) for t in tuples))
    return Model(entities, constants, functions, relations)


def load_model(path: "str | Path") -> Model:
    with open(path) as fh:
        data = json.load(fh)
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


def denote(term: Term, model: Model, g: Assignment) -> "EntityVal | TruthVal":
    """Evaluate a term. Entity-typed terms yield EntityVal, formulas TruthVal."""
    match term:
        case Const(name):
            if name not in model.constants:
                raise EvaluationError(f"constant {name!r} is not interpreted by the model")
            return EntityVal(model.constants[name])
        case Var(name):
            if name not in g:
                raise EvaluationError(f"unbound variable {name!r}")
            return EntityVal(g[name])
        case FunApp(name, args):
            fn = model.functions.get(name)
            if fn is None:
                raise EvaluationError(f"function {name!r} is not interpreted by the model")
            if fn.arity != len(args):
                raise EvaluationError(f"function {name!r} takes {fn.arity} arguments, got {len(args)}")
            vals = tuple(_entity(denote(a, model, g), name) for a in args)
            return EntityVal(fn.table[vals])
        case PredApp(name, args):
            rel = model.relations.get(name)
            if rel is None:
                raise EvaluationError(f"relation {name!r} is not interpreted by the model")
            if rel.arity != len(args):
                raise EvaluationError(f"relation {name!r} takes {rel.arity} arguments, got {len(args)}")
            vals = tuple(_entity(denote(a, model, g), name) for a in args)
            return TruthVal(1 if vals in rel.tuples else 0)
        case Connective(kind, args):
            bits = tuple(_bit(denote(a, model, g), kind) for a in args)
            return TruthVal(_CLASSICAL[kind](*bits))
    raise TypeError(f"not a term: {term!r}")


def denote_traced(term: Term, model: Model, g: Assignment) -> "tuple[EntityVal | TruthVal, int]":
    """Like denote, but also report the maximum evaluator recursion depth.

    The root call counts as depth 1, so the result is bounded by
    complexity_depth(term) + 1.
    """
    max_depth = 0

    def go(t: Term, depth: int):
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        match t:
            case Const(name):
                if name not in model.constants:
                    raise EvaluationError(f"constant {name!r} is not interpreted by the model")
                return EntityVal(model.constants[name])
            case Var(name):
                if name not in g:
                    raise EvaluationError(f"unbound variable {name!r}")
                return EntityVal(g[name])
            case FunApp(name, args):
                fn = model.functions[name]
                vals = tuple(_entity(go(a, depth + 1), name) for a in args)
                return EntityVal(fn.table[vals])
            case PredApp(name, args):
                rel = model.relations[name]
                vals = tuple(_entity(go(a, depth + 1), name) for a in args)
                return TruthVal(1 if vals in rel.tuples else 0)
            case Connective(kind, args):
                bits = tuple(_bit(go(a, depth + 1), kind) for a in args)
                return TruthVal(_CLASSICAL[kind](*bits))
        raise TypeError(f"not a term: {t!r}")

    return go(term, 1), max_depth


def _entity(v, sym: str) -> str:
    if not isinstance(v, EntityVal):
        raise EvaluationError(f"argument of {sym!r} evaluated to a truth value, expected an entity")
    return v.id


def _bit(v, kind: ConnectiveKind) -> int:
    if not isinstance(v, TruthVal):
        raise EvaluationError(
            f"argument of {kind.keyword!r} evaluated to an entity, expected a truth value")
    return v.bit
