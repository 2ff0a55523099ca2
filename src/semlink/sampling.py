"""Seeded random generators for models, terms, tables and chains.

Everything draws from the PCG64 bit stream of a seed, so a fixed seed
reproduces the exact same structures on every run.  The samplers take a
Draws and draw their scalars one at a time through Draws.below, the one
draw: below(n) returns exactly what numpy's Generator.integers(n) returns
for the same seed and calls, and a draw from [lo, hi) is lo + below(hi - lo),
which is what integers(lo, hi) returns.  So reports stay byte-identical to
those drawn through a Generator, at a fraction of the cost per draw.  The
law suites make no vector draws.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Sequence

import numpy as np

from .model import FunctionInterp, Model, RelationInterp
from .terms import (
    Connective,
    ConnectiveKind,
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


class Draws:
    """Scalar integers from PCG64(seed), equal draw for draw to those of
    np.random.Generator(np.random.PCG64(seed)).integers.

    For a span n = high - low with 1 < n <= 2^32, numpy takes 32-bit words
    (the low half of each raw 64-bit word, then its high half) and maps one
    onto range(n) by Lemire's multiply-and-reject method ("Fast random
    integer generation in an interval", ACM TOMACS 2019); a span of 1 draws
    nothing.  below(n) does the same on raw words read a block at a time,
    and a draw from [lo, hi) is lo + below(hi - lo), which is what
    Generator.integers(lo, hi) returns.  Draws buffers ahead, so nothing
    else may draw from its bit generator, and below refuses the spans it
    does not reproduce: those below 1 and above 2^32.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be at least 0, got {seed}")
        self._bits = np.random.PCG64(seed)
        self._halves: list[int] = []  # the next 32-bit words, last one first

    def _next32(self) -> int:
        halves = self._halves
        if not halves:
            raw = self._bits.random_raw(_BLOCK)
            halves += np.stack([raw & _LOW32, raw >> 32], axis=1).ravel()[::-1].tolist()
        return halves.pop()

    def below(self, n: int) -> int:
        """Generator.integers(n) for an int n: an int drawn uniformly from range(n).
        n is 1 (which draws nothing) up to 2^32.  An int below 1 or above
        2^32 raises ValueError and leaves the stream as it was; a float
        raises TypeError once it has taken a word."""
        if n <= 1:
            if n == 1:
                return 0
            raise ValueError(f"empty range [0, {n})")
        halves = self._halves
        word = halves.pop() if halves else self._next32()
        m = word * n
        if (m & _LOW32) < n:  # rejection is possible only below n, so every n above 2^32 is here
            if n > 1 << 32:
                halves.append(word)
                raise ValueError(f"a span of {n} is above the 2^32 Draws reproduces")
            threshold = ((1 << 32) - n) % n  # 0 for n = 2^32, whose draw is the word
            while (m & _LOW32) < threshold:
                m = self._next32() * n
        return m >> 32


def random_model(rng: Draws, n_entities: int = 4) -> Model:
    """Random model with one constant naming each entity, so every entity is
    denotable by a closed term, and two functions and two predicates, each
    of arity 1 or 2."""
    below = rng.below
    entities = tuple(f"e{i + 1}" for i in range(n_entities))
    constants = {f"a{i + 1}": e for i, e in enumerate(entities)}
    d = len(entities)
    functions = {}
    for i in range(2):
        arity, table = 1 + below(2), {}  # 1 + below(2) draws what integers(1, 3) does
        for args in iproduct(entities, repeat=arity):
            table[args] = entities[below(d)]
        functions[f"f{i + 1}"] = FunctionInterp(arity, table)
    relations = {}
    for i in range(2):
        arity, tuples = 1 + below(2), []
        for args in iproduct(entities, repeat=arity):
            if below(2):
                tuples.append(args)
        relations[f"P{i + 1}"] = RelationInterp(arity, frozenset(tuples))
    return Model(entities, constants, functions, relations)


def _vocabulary(sig: Signature) -> tuple[tuple, tuple, tuple]:
    """The signature's sorted functions, predicates and constant nodes.
    Every closed term ends in constants, so a signature without them is
    refused."""
    if not sig.constants:
        raise ValueError("signature has no constants to build terms from")
    return sig._vocabulary


# The recursions take the bound Draws.below and build their argument lists in
# plain loops: on Python < 3.12 a comprehension would add a frame per node.

def _entity_term(below, functions: tuple, constants: tuple, budget: int) -> Term:
    if budget > 0 and functions and below(2):
        name, arity = functions[below(len(functions))]
        args = []
        for _ in range(arity):
            args.append(_entity_term(below, functions, constants, budget - 1))
        return FunApp(name, tuple(args))
    return constants[below(len(constants))]


def _formula(below, predicates: tuple, functions: tuple, constants: tuple, budget: int) -> Term:
    args = []
    if budget == 1 or below(3) == 0:
        name, arity = predicates[below(len(predicates))]
        for _ in range(arity):
            args.append(_entity_term(below, functions, constants, budget - 1))
        return PredApp(name, tuple(args))
    roll = below(4)
    kind = (ConnectiveKind.NOT if roll == 0 else ConnectiveKind.COND if roll == 1
            else BINARY_KINDS[below(len(BINARY_KINDS))])
    for _ in range(kind.arity):
        args.append(_formula(below, predicates, functions, constants, budget - 1))
    return Connective(kind, tuple(args))


def random_entity_term(rng: Draws, sig: Signature, budget: int) -> Term:
    """Closed entity-typed term of nesting depth at most budget."""
    functions, _, constants = _vocabulary(sig)
    return _entity_term(rng.below, functions, constants, budget)


def random_formula(rng: Draws, sig: Signature, budget: int) -> Term:
    """Closed truth-typed term of nesting depth at most budget (at least 1)."""
    if budget < 1:
        raise ValueError("a formula needs depth budget of at least 1")
    if not sig.predicates:
        raise ValueError("signature has no predicates to build formulas from")
    functions, predicates, constants = _vocabulary(sig)
    return _formula(rng.below, predicates, functions, constants, budget)


def random_function_table(rng: Draws, src: Sequence, tgt: Sequence) -> dict:
    below, n, table = rng.below, len(tgt), {}
    for a in src:
        table[a] = tgt[below(n)]
    return table


def random_subset(rng: Draws, elements: Sequence) -> set:
    below, subset = rng.below, set()
    for a in elements:
        if below(2):
            subset.add(a)
    return subset


def random_chain_sizes(rng: Draws, length: int) -> list[int]:
    below = rng.below
    return [1 + below(5) for _ in range(length + 1)]
