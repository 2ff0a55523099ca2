"""Typed prefix term language: types, AST, parser, printer, complexity metrics.

Grammar (prefix notation, no precedence, whitespace insignificant):

    term  := IDENT | IDENT "(" term ("," term)* ")"
    IDENT := [A-Za-z_][A-Za-z0-9_]*

The connective keywords ``not and or implies iff xor cond`` are reserved and
cannot be declared in a signature.  A bare identifier parses as a constant
when the signature declares it, otherwise as a variable.  An applied
identifier must be a declared function symbol, a declared predicate symbol,
or a connective keyword.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# deepest nesting of argument lists that parse_term accepts; every recursion
# over a parsed term stays far inside Python's default recursion limit
MAX_NESTING = 256


class SignatureError(ValueError):
    """Raised for malformed signatures (bad names, duplicate names, bad arities)."""


class ParseError(ValueError):
    """Syntax or resolution failure, carrying the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    pass


class ArityMismatchError(ParseError):
    pass


class TypeCheckError(ValueError):
    """Raised when a term is not well typed over its signature."""


# ---------------------------------------------------------------------------
# semantic types


class SemType:
    """Base of the semantic type algebra."""

    __slots__ = ()


@dataclass(frozen=True)
class Entity(SemType):
    def __str__(self) -> str:
        return "e"


@dataclass(frozen=True)
class Truth(SemType):
    def __str__(self) -> str:
        return "t"


ENTITY = Entity()
TRUTH = Truth()


# ---------------------------------------------------------------------------
# connectives


class ConnectiveKind(Enum):
    NOT = ("not", 1)
    AND = ("and", 2)
    OR = ("or", 2)
    IMPLIES = ("implies", 2)
    IFF = ("iff", 2)
    XOR = ("xor", 2)
    COND = ("cond", 3)

    def __init__(self, keyword: str, arity: int):
        self.keyword = keyword
        self.arity = arity


CONNECTIVE_BY_KEYWORD = {k.keyword: k for k in ConnectiveKind}
RESERVED = frozenset(CONNECTIVE_BY_KEYWORD)


# ---------------------------------------------------------------------------
# terms


class Term:
    """Base class of AST nodes. All nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class FunApp(Term):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class PredApp(Term):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Connective(Term):
    kind: ConnectiveKind
    args: tuple[Term, ...]


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Signature:
    """Declares the non-logical vocabulary.

    constants map to their semantic type (Entity in every model file),
    functions and predicates map to arities; argument and result types of
    functions are all Entity, predicate arguments all Entity.  Names must be
    valid identifiers, unique across the three namespaces, and must not
    collide with connective keywords.  Arities are at least 1.
    """

    constants: Mapping[str, SemType]
    functions: Mapping[str, int]
    predicates: Mapping[str, int]

    def __post_init__(self):
        seen: set[str] = set()
        for space, names in (
            ("constant", self.constants),
            ("function", self.functions),
            ("predicate", self.predicates),
        ):
            for name in names:
                if not IDENT_RE.fullmatch(name):
                    raise SignatureError(f"{space} name {name!r} is not a valid identifier")
                if name in RESERVED:
                    raise SignatureError(f"{space} name {name!r} is a reserved connective keyword")
                if name in seen:
                    raise SignatureError(f"name {name!r} declared in more than one namespace")
                seen.add(name)
        for name, arity in list(self.functions.items()) + list(self.predicates.items()):
            if not isinstance(arity, int) or arity < 1:
                raise SignatureError(f"symbol {name!r} has arity {arity!r}, expected an int >= 1")


def signature_of(constants: "list[str] | Mapping[str, SemType]" = (),
                 functions: Mapping[str, int] | None = None,
                 predicates: Mapping[str, int] | None = None) -> Signature:
    """Convenience constructor; a plain list of constant names means all-Entity."""
    if not isinstance(constants, Mapping):
        constants = {name: ENTITY for name in constants}
    return Signature(dict(constants), dict(functions or {}), dict(predicates or {}))


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def ident(self) -> tuple[str, int]:
        self.skip_ws()
        m = IDENT_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected identifier", self.pos)
        self.pos = m.end()
        return m.group(), m.start()

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def term(self) -> Term:
        name, at = self.ident()
        self.skip_ws()
        if self.peek() != "(":
            if name in CONNECTIVE_BY_KEYWORD:
                raise ParseError(f"connective {name!r} requires arguments", at)
            if name in self.sig.functions or name in self.sig.predicates:
                raise ArityMismatchError(
                    f"symbol {name!r} expects arguments", at)
            if name in self.sig.constants:
                return Const(name)
            return Var(name)
        self.pos += 1  # consume "("
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", at)
        args = [self.term()]
        self.skip_ws()
        while self.peek() == ",":
            self.pos += 1
            args.append(self.term())
            self.skip_ws()
        self.expect(")")
        self.depth -= 1
        return self.apply(name, tuple(args), at)

    def apply(self, name: str, args: tuple[Term, ...], at: int) -> Term:
        if name in CONNECTIVE_BY_KEYWORD:
            kind = CONNECTIVE_BY_KEYWORD[name]
            if len(args) != kind.arity:
                raise ArityMismatchError(
                    f"connective {name!r} takes {kind.arity} arguments, got {len(args)}", at)
            return Connective(kind, args)
        if name in self.sig.functions:
            want = self.sig.functions[name]
            if len(args) != want:
                raise ArityMismatchError(
                    f"function {name!r} takes {want} arguments, got {len(args)}", at)
            return FunApp(name, args)
        if name in self.sig.predicates:
            want = self.sig.predicates[name]
            if len(args) != want:
                raise ArityMismatchError(
                    f"predicate {name!r} takes {want} arguments, got {len(args)}", at)
            return PredApp(name, args)
        if name in self.sig.constants:
            raise ArityMismatchError(f"constant {name!r} cannot take arguments", at)
        raise UnknownIdentifierError(f"unknown identifier {name!r}", at)


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a prefix term over the signature. Raises ParseError on failure,
    and on argument lists nested deeper than MAX_NESTING."""
    p = _Parser(text, sig)
    term = p.term()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError(f"unexpected trailing input {text[p.pos:]!r}", p.pos)
    return term


def pretty(term: Term) -> str:
    """Canonical text form; parse_term(pretty(t), sig) == t."""
    match term:
        case Const(name) | Var(name):
            return name
        case FunApp(name, args) | PredApp(name, args):
            return f"{name}({','.join(pretty(a) for a in args)})"
        case Connective(kind, args):
            return f"{kind.keyword}({','.join(pretty(a) for a in args)})"
    raise TypeError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# typing


def infer_type(term: Term, sig: Signature) -> SemType:
    """Return the term's semantic type, or raise TypeCheckError."""
    match term:
        case Const(name):
            if name not in sig.constants:
                raise TypeCheckError(f"constant {name!r} not declared")
            return sig.constants[name]
        case Var(_):
            return ENTITY
        case FunApp(name, args):
            _check_all_entity("function", name, args, sig)
            return ENTITY
        case PredApp(name, args):
            _check_all_entity("predicate", name, args, sig)
            return TRUTH
        case Connective(kind, args):
            for i, a in enumerate(args):
                got = infer_type(a, sig)
                if got != TRUTH:
                    raise TypeCheckError(
                        f"connective {kind.keyword!r} argument {i + 1} has type {got}, expected t")
            return TRUTH
    raise TypeError(f"not a term: {term!r}")


def _check_all_entity(space: str, name: str, args: tuple[Term, ...], sig: Signature):
    table = sig.functions if space == "function" else sig.predicates
    if name not in table:
        raise TypeCheckError(f"{space} {name!r} not declared")
    if table[name] != len(args):
        raise TypeCheckError(
            f"{space} {name!r} takes {table[name]} arguments, got {len(args)}")
    for i, a in enumerate(args):
        got = infer_type(a, sig)
        if got != ENTITY:
            raise TypeCheckError(
                f"{space} {name!r} argument {i + 1} has type {got}, expected e")


# ---------------------------------------------------------------------------
# structure


def children(term: Term) -> tuple[Term, ...]:
    match term:
        case Const(_) | Var(_):
            return ()
        case FunApp(_, args) | PredApp(_, args) | Connective(_, args):
            return args
    raise TypeError(f"not a term: {term!r}")


def complexity_depth(term: Term) -> int:
    """Nesting depth: 0 for constants and variables, else 1 + max over arguments."""
    kids = children(term)
    if not kids:
        return 0
    return 1 + max(complexity_depth(k) for k in kids)


def complexity_size(term: Term) -> int:
    """Node count: 1 for constants and variables, else 1 + sum over arguments."""
    kids = children(term)
    if not kids:
        return 1
    return 1 + sum(complexity_size(k) for k in kids)


def subterms(term: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """Yield (path, subterm) pairs in preorder; path is a tuple of child indices."""
    yield (), term
    for i, k in enumerate(children(term)):
        for path, sub in subterms(k):
            yield (i,) + path, sub


def replace_at(term: Term, path: tuple[int, ...], replacement: Term) -> Term:
    """Return a copy of the term with the subterm at path swapped out."""
    if not path:
        return replacement
    i, rest = path[0], path[1:]
    kids = children(term)
    if i >= len(kids):
        raise IndexError(f"path {path} does not exist in term")
    new_kids = tuple(
        replace_at(k, rest, replacement) if j == i else k for j, k in enumerate(kids))
    match term:
        case FunApp(name, _):
            return FunApp(name, new_kids)
        case PredApp(name, _):
            return PredApp(name, new_kids)
        case Connective(kind, _):
            return Connective(kind, new_kids)
    raise IndexError(f"path {path} descends into a leaf")
