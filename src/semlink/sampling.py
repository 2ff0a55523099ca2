"""Seeded random generators for models, terms, tables and chains.

Everything draws from the PCG64 bit stream of a seed, so a fixed seed
reproduces the exact same structures on every run.  The law suites draw
their scalars one at a time through Draws, which returns exactly what
numpy's Generator.integers returns for the same seed and calls, so reports
stay byte-identical to those drawn through a Generator, at a fraction of
the cost per draw.  make_rng and random_truth_tables, whose draws are
vectors, serve the tests and the acceptance sweeps through a numpy
Generator; the law suites make no vector draws.
"""

from __future__ import annotations

from itertools import product as iproduct
from operator import index
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


# raw 64-bit words Draws reads from the bit generator at a time
_BLOCK = 256
_LOW32 = 0xFFFFFFFF
_INT64 = 1 << 63


class Draws:
    """Scalar integers from PCG64(seed), equal draw for draw to those of
    np.random.Generator(np.random.PCG64(seed)).integers.

    For a span n = high - low with 1 < n <= 2^32, numpy takes 32-bit words
    (the low half of each raw 64-bit word, then its high half) and maps one
    onto range(n) by Lemire's multiply-and-reject method ("Fast random
    integer generation in an interval", ACM TOMACS 2019); a span of 1 draws
    nothing.  Draws does the same on raw words read a block at a time.  It
    buffers ahead, so nothing else may draw from its bit generator, and it
    refuses what it does not reproduce: size=, dtype=, spans above 2^32 and
    bounds outside int64.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._halves: list[int] = []  # the next 32-bit words, last one first

    def _next32(self) -> int:
        halves = self._halves
        if not halves:
            raw = self._bits.random_raw(_BLOCK)
            halves += np.stack([raw & _LOW32, raw >> 32], axis=1).ravel()[::-1].tolist()
        return halves.pop()

    def integers(self, low: int, high: "int | None" = None, size=None, dtype=None) -> int:
        """An int drawn uniformly from range(low, high), or range(low) when
        high is omitted, as Generator.integers(low, high) draws it."""
        if high is None and type(low) is int and 1 < low < 1 << 32 and size is None and dtype is None:
            low, span = 0, low  # integers(n) for a plain int n: nothing to refuse
        else:
            if size is not None or dtype is not None:
                raise TypeError("Draws.integers draws one int64 at a time: no size= or dtype=")
            if high is None:
                low, high = 0, low
            low = index(low)
            span = index(high) - low
            if span < 1:
                raise ValueError(f"empty range [{low}, {high})")
            if low < -_INT64 or low + span > _INT64:
                raise ValueError(f"range [{low}, {high}) is not within int64")
            if span == 1:
                return low
            if span > 1 << 32:
                raise ValueError(f"a span of {span} is above the 2^32 Draws reproduces")
        halves = self._halves
        word = halves.pop() if halves else self._next32()
        if span == 1 << 32:
            return low + word
        m = word * span
        if (m & _LOW32) < span:  # rejection is possible only below span
            threshold = ((1 << 32) - span) % span
            while (m & _LOW32) < threshold:
                m = self._next32() * span
        return low + (m >> 32)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _choice(rng: Draws | np.random.Generator, items: Sequence):
    return items[int(rng.integers(len(items)))]


def random_model(rng: Draws | np.random.Generator, n_entities: int = 4) -> Model:
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


def _terms_over(sig: Signature) -> tuple[tuple, tuple]:
    """The signature's functions as sorted (name, arity) pairs and its
    constants sorted.  Every closed term ends in constants, so a signature
    without them is refused."""
    if not sig.constants:
        raise ValueError("signature has no constants to build terms from")
    return tuple(sorted(sig.functions.items())), tuple(sorted(sig.constants))


def _entity_term(rng, functions: tuple, constants: tuple, budget: int) -> Term:
    if budget > 0 and functions and rng.integers(2) == 1:
        name, arity = _choice(rng, functions)
        return FunApp(name, tuple([_entity_term(rng, functions, constants, budget - 1)
                                   for _ in range(arity)]))
    return Const(_choice(rng, constants))


def _formula(rng, predicates: tuple, functions: tuple, constants: tuple, budget: int) -> Term:
    if budget == 1 or rng.integers(3) == 0:
        name, arity = _choice(rng, predicates)
        return PredApp(name, tuple([_entity_term(rng, functions, constants, budget - 1)
                                    for _ in range(arity)]))
    roll = int(rng.integers(4))
    if roll == 0:
        return Connective(ConnectiveKind.NOT,
                          (_formula(rng, predicates, functions, constants, budget - 1),))
    kind = ConnectiveKind.COND if roll == 1 else _choice(rng, BINARY_KINDS)
    return Connective(kind, tuple([_formula(rng, predicates, functions, constants, budget - 1)
                                   for _ in range(kind.arity)]))


def random_entity_term(rng: Draws | np.random.Generator, sig: Signature, budget: int) -> Term:
    """Closed entity-typed term of nesting depth at most budget."""
    return _entity_term(rng, *_terms_over(sig), budget)


def random_formula(rng: Draws | np.random.Generator, sig: Signature, budget: int) -> Term:
    """Closed truth-typed term of nesting depth at most budget (at least 1)."""
    if budget < 1:
        raise ValueError("a formula needs depth budget of at least 1")
    if not sig.predicates:
        raise ValueError("signature has no predicates to build formulas from")
    return _formula(rng, tuple(sorted(sig.predicates.items())), *_terms_over(sig), budget)


def random_truth_tables(rng: np.random.Generator, arity: int, count: int) -> np.ndarray:
    """count random truth tables as an int8 array in column order."""
    return rng.integers(0, 2, size=(count, 1 << arity), dtype=np.int8)


def random_function_table(rng: Draws | np.random.Generator, src: Sequence,
                          tgt: Sequence) -> dict:
    return {a: _choice(rng, tgt) for a in src}


def random_subset(rng: Draws | np.random.Generator, elements: Sequence) -> set:
    return {a for a in elements if rng.integers(2) == 1}


def random_chain_sizes(rng: Draws | np.random.Generator, length: int) -> list[int]:
    return [int(rng.integers(1, 6)) for _ in range(length + 1)]
