"""Seeded random generators for models, terms, tables and chains.

Everything draws from a numpy Generator over the PCG64 bit stream, so a
fixed seed reproduces the exact same structures on every run.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Sequence

import numpy as np

from .model import FunctionInterp, Model, RelationInterp
from .terms import (
    Connective,
    ConnectiveKind,
    Const,
    FunApp,
    PredApp,
    Signature,
    Term,
)

BINARY_KINDS = (ConnectiveKind.AND, ConnectiveKind.OR, ConnectiveKind.IMPLIES,
                ConnectiveKind.IFF, ConnectiveKind.XOR)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _choice(rng: np.random.Generator, items: Sequence):
    return items[int(rng.integers(len(items)))]


def random_model(rng: np.random.Generator, n_entities: int = 4) -> Model:
    """Random model with one constant naming each entity, so every entity is
    denotable by a closed term, and two functions and two predicates, each
    of arity 1 or 2."""
    entities = tuple(f"e{i + 1}" for i in range(n_entities))
    constants = {f"a{i + 1}": e for i, e in enumerate(entities)}
    functions = {}
    for i in range(2):
        arity = int(rng.integers(1, 3))
        table = {args: _choice(rng, entities)
                 for args in iproduct(entities, repeat=arity)}
        functions[f"f{i + 1}"] = FunctionInterp(arity, table)
    relations = {}
    for i in range(2):
        arity = int(rng.integers(1, 3))
        tuples = frozenset(args for args in iproduct(entities, repeat=arity)
                           if rng.integers(2) == 1)
        relations[f"P{i + 1}"] = RelationInterp(arity, tuples)
    return Model(entities, constants, functions, relations)


def random_entity_term(rng: np.random.Generator, sig: Signature, budget: int) -> Term:
    """Closed entity-typed term of nesting depth at most budget."""
    functions = sorted(sig.functions)
    if budget > 0 and functions and rng.integers(2) == 1:
        name = _choice(rng, functions)
        return FunApp(name, tuple(random_entity_term(rng, sig, budget - 1)
                                  for _ in range(sig.functions[name])))
    return Const(_choice(rng, sorted(sig.constants)))


def random_formula(rng: np.random.Generator, sig: Signature, budget: int) -> Term:
    """Closed truth-typed term of nesting depth at most budget (at least 1)."""
    if budget < 1:
        raise ValueError("a formula needs depth budget of at least 1")
    predicates = sorted(sig.predicates)
    if not predicates:
        raise ValueError("signature has no predicates to build formulas from")
    if budget == 1 or rng.integers(3) == 0:
        name = _choice(rng, predicates)
        return PredApp(name, tuple(random_entity_term(rng, sig, budget - 1)
                                   for _ in range(sig.predicates[name])))
    roll = int(rng.integers(4))
    if roll == 0:
        return Connective(ConnectiveKind.NOT, (random_formula(rng, sig, budget - 1),))
    kind = ConnectiveKind.COND if roll == 1 else _choice(rng, BINARY_KINDS)
    return Connective(kind, tuple(random_formula(rng, sig, budget - 1)
                                  for _ in range(kind.arity)))


def random_truth_tables(rng: np.random.Generator, arity: int, count: int) -> np.ndarray:
    """count random truth tables as an int8 array in column order."""
    return rng.integers(0, 2, size=(count, 1 << arity), dtype=np.int8)


def random_function_table(rng: np.random.Generator, src: Sequence,
                          tgt: Sequence) -> dict:
    return {a: _choice(rng, tgt) for a in src}


def random_subset(rng: np.random.Generator, elements: Sequence) -> set:
    return {a for a in elements if rng.integers(2) == 1}


def random_chain_sizes(rng: np.random.Generator, length: int) -> list[int]:
    return [int(rng.integers(1, 6)) for _ in range(length + 1)]
