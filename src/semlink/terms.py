"""Typed prefix term language: types, AST, parser, printer, complexity metrics.

Grammar (prefix notation, no precedence, whitespace insignificant):

    term  := IDENT | IDENT "(" term ("," term)* ")"
    IDENT := [A-Za-z_][A-Za-z0-9_]*

The connective keywords ``not and or implies iff xor cond`` are reserved and
cannot be declared in a signature.  A bare identifier parses as a constant
when the signature declares it, otherwise as a variable.  An applied
identifier must be a declared function symbol, a declared predicate symbol,
or a connective keyword.

The parser resolves, arity-checks and sort-checks each application in one
pass, so a parsed term is well typed: a connective takes formulas, a function
or predicate takes entity terms.  An argument of the wrong sort is a
TypeCheckError, a ParseError at the offset of the application's symbol.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Mapping

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# one token: an identifier, or any other single non-space character
_TOKEN_RE = re.compile(rf"\s*(?:({IDENT_RE.pattern})|(\S))")

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


class TypeCheckError(ParseError):
    """An argument of the wrong sort: an entity term for a formula, or the reverse."""


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


# the classes of formulas, whose sort is t; every other term's sort is e
FORMULA_NODES = (PredApp, Connective)


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Signature:
    """Declares the non-logical vocabulary.

    constants map to their semantic type, which must be Entity; functions
    and predicates map to arities; argument and result types of functions
    are all Entity, predicate arguments all Entity.  Names must be
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
        for name, sort in self.constants.items():
            if sort != ENTITY:
                raise SignatureError(f"constant {name!r} has type {sort}, expected e")
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
    """Recursive descent over the tokens of one expression.  Each token is
    (text, offset, is an identifier); the end is the token "" at len(text)."""

    def __init__(self, text: str, sig: Signature):
        self.tokens = [(m[1] or m[2], m.start(m.lastindex), m[1] is not None)
                       for m in _TOKEN_RE.finditer(text)]
        self.tokens.append(("", len(text), False))
        self.i = 0
        self.sig = sig

    def term(self, depth: int = 0) -> Term:
        """The term at the current token, inside depth argument lists."""
        name, at, is_ident = self.tokens[self.i]
        if not is_ident:
            raise ParseError("expected identifier", at)
        self.i += 1
        if self.tokens[self.i][0] != "(":
            if name in CONNECTIVE_BY_KEYWORD:
                raise ParseError(f"connective {name!r} requires arguments", at)
            if name in self.sig.functions or name in self.sig.predicates:
                raise ArityMismatchError(f"symbol {name!r} expects arguments", at)
            return Const(name) if name in self.sig.constants else Var(name)
        self.i += 1
        if depth == MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", at)
        args = [self.term(depth + 1)]
        while self.tokens[self.i][0] == ",":
            self.i += 1
            args.append(self.term(depth + 1))
        close, pos, _ = self.tokens[self.i]
        if close != ")":
            raise ParseError("expected ')'", pos)
        self.i += 1
        return self.apply(name, tuple(args), at)

    def apply(self, name: str, args: tuple[Term, ...], at: int) -> Term:
        """Resolve the symbol, then check its arity, then its arguments' sorts."""
        if name in CONNECTIVE_BY_KEYWORD:
            space, want = "connective", CONNECTIVE_BY_KEYWORD[name].arity
        elif name in self.sig.functions:
            space, want = "function", self.sig.functions[name]
        elif name in self.sig.predicates:
            space, want = "predicate", self.sig.predicates[name]
        elif name in self.sig.constants:
            raise ArityMismatchError(f"constant {name!r} cannot take arguments", at)
        else:
            raise UnknownIdentifierError(f"unknown identifier {name!r}", at)
        if len(args) != want:
            raise ArityMismatchError(f"{space} {name!r} takes {want} arguments, got {len(args)}", at)
        formulas = space == "connective"
        for i, a in enumerate(args):
            if (type(a) in FORMULA_NODES) != formulas:
                got, expected = (ENTITY, TRUTH) if formulas else (TRUTH, ENTITY)
                raise TypeCheckError(
                    f"{space} {name!r} argument {i + 1} has type {got}, expected {expected}", at)
        if formulas:
            return Connective(CONNECTIVE_BY_KEYWORD[name], args)
        return (FunApp if space == "function" else PredApp)(name, args)


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a well-typed prefix term over the signature.  Raises ParseError
    on failure, TypeCheckError (a ParseError) on an argument of the wrong
    sort, and ParseError on argument lists nested deeper than MAX_NESTING."""
    p = _Parser(text, sig)
    term = p.term()
    rest, pos, _ = p.tokens[p.i]
    if rest:
        raise ParseError(f"unexpected trailing input {text[pos:]!r}", pos)
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
    """The term's semantic type, read off the class of its root (sig is not
    read): t for a formula, e for any other term.  A term from parse_term is
    well typed by construction; evaluate checks the sorts of a hand-built one."""
    if not isinstance(term, Term):
        raise TypeError(f"not a term: {term!r}")
    return TRUTH if isinstance(term, FORMULA_NODES) else ENTITY


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
    return replace(term, args=tuple(
        replace_at(k, rest, replacement) if j == i else k for j, k in enumerate(kids)))
