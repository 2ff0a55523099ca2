"""Typed prefix term language: sorts, AST, parser, printer, complexity metrics.

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
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import islice
from types import MappingProxyType
from typing import Iterator, Mapping

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# one token: an identifier, or any other single non-space character
_TOKEN_RE = re.compile(rf"{IDENT_RE.pattern}|\S")
# the characters an identifier token starts with, all ASCII (unlike str.isidentifier)
_IDENT_START = frozenset(filter(IDENT_RE.match, map(chr, range(128))))

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


# the two sorts: entity terms are of sort e, formulas of sort t
ENTITY = "e"
TRUTH = "t"


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

    # each member is a singleton, so it hashes by identity: Enum.__hash__ is a
    # Python-level call on every lookup of a kind in a dict
    __hash__ = object.__hash__


CONNECTIVE_BY_KEYWORD = {k.keyword: k for k in ConnectiveKind}
RESERVED = frozenset(CONNECTIVE_BY_KEYWORD)


# ---------------------------------------------------------------------------
# terms


class Term:
    """Base class of AST nodes. All nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class FunApp(Term):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class PredApp(Term):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
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

    constants are names, each of an entity (a mapping given gives its keys);
    functions and predicates map names to arities, and every argument and
    function result is an entity.  Each namespace defaults to empty.  Names must be valid identifiers, unique
    across the three namespaces, and must not collide with connective
    keywords.  Arities are at least 1.
    """

    constants: frozenset[str] = frozenset()
    functions: Mapping[str, int] = field(default_factory=dict)
    predicates: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        # validate read-only copies, so no caller can change a checked signature;
        # the constants are checked in the order given, each once
        constants = dict.fromkeys(self.constants)
        object.__setattr__(self, "constants", frozenset(constants))
        for key in ("functions", "predicates"):
            object.__setattr__(self, key, MappingProxyType(dict(getattr(self, key))))
        seen: set[str] = set()
        for space, names in (
            ("constant", constants),
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

    def __reduce__(self):  # a mappingproxy cannot be pickled or deep-copied
        return Signature, (self.constants, dict(self.functions), dict(self.predicates))

    @cached_property
    def _vocabulary(self) -> tuple[tuple, tuple, tuple]:
        """The samplers' vocabulary: the functions and the predicates as
        sorted (name, arity) pairs, and one Const node per constant, sorted by
        name.  A node is immutable, so every term drawn or parsed over the
        signature shares its constant's node."""
        return (tuple(sorted(self.functions.items())), tuple(sorted(self.predicates.items())),
                tuple(Const(name) for name in sorted(self.constants)))

    @cached_property
    def _symbols(self) -> dict[str, tuple[str, int, "Const | None"]]:
        """Each name's (space, arity, node), connective keywords included, for
        the parser to resolve a name with one lookup; a constant's arity is 0
        and its node is the one in _vocabulary, every other name's node None."""
        table = {k.keyword: ("connective", k.arity, None) for k in ConnectiveKind}
        table.update((c.name, ("constant", 0, c)) for c in self._vocabulary[2])
        table.update((name, ("function", n, None)) for name, n in self.functions.items())
        table.update((name, ("predicate", n, None)) for name, n in self.predicates.items())
        return table


# ---------------------------------------------------------------------------
# parser


class _Parser:
    """Recursive descent over the tokens of one expression: each token is an
    identifier or one other character, and the end is "".  The descent keeps
    token indices, and only an error finds the offset of its token."""

    __slots__ = ("text", "tokens", "i", "symbols")

    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.i = 0
        self.symbols = sig._symbols

    def offset(self, i: int) -> int:
        """The offset of token i in the text, or len(text) for the end."""
        m = next(islice(_TOKEN_RE.finditer(self.text), i, None), None)
        return len(self.text) if m is None else m.start()

    def term(self, depth: int = 0) -> Term:
        """The term at the current token, inside depth argument lists."""
        at = self.i
        name = self.tokens[at]
        entry = self.symbols.get(name)  # every name in the table is an identifier
        if entry is None and name[:1] not in _IDENT_START:
            raise ParseError("expected identifier", self.offset(at))
        self.i += 1
        if self.tokens[self.i] != "(":
            if entry is None:
                return Var(name)
            if entry[0] == "constant":
                return entry[2]
            if entry[0] == "connective":
                raise ParseError(f"connective {name!r} requires arguments", self.offset(at))
            raise ArityMismatchError(f"symbol {name!r} expects arguments", self.offset(at))
        self.i += 1
        if depth == MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", self.offset(at))
        args = [self.term(depth + 1)]
        while self.tokens[self.i] == ",":
            self.i += 1
            args.append(self.term(depth + 1))
        if self.tokens[self.i] != ")":
            raise ParseError("expected ')'", self.offset(self.i))
        self.i += 1
        return self.apply(name, entry, tuple(args), at)

    def apply(self, name: str, entry: "tuple[str, int, Const | None] | None",
              args: tuple[Term, ...], at: int) -> Term:
        """Resolve the symbol at token at from its entry in the signature's
        table, then check its arity, then its arguments' sorts."""
        if entry is None:
            raise UnknownIdentifierError(f"unknown identifier {name!r}", self.offset(at))
        space, want, _ = entry
        if space == "constant":
            raise ArityMismatchError(f"constant {name!r} cannot take arguments", self.offset(at))
        if len(args) != want:
            raise ArityMismatchError(
                f"{space} {name!r} takes {want} arguments, got {len(args)}", self.offset(at))
        formulas = space == "connective"
        for a in args:
            if (type(a) in FORMULA_NODES) != formulas:
                # an equal argument to its left has the same sort, so index finds a
                got, expected = (ENTITY, TRUTH) if formulas else (TRUTH, ENTITY)
                raise TypeCheckError(f"{space} {name!r} argument {args.index(a) + 1} has type "
                                     f"{got}, expected {expected}", self.offset(at))
        if formulas:
            return Connective(CONNECTIVE_BY_KEYWORD[name], args)
        return (FunApp if space == "function" else PredApp)(name, args)


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a well-typed prefix term over the signature.  Raises ParseError
    on failure, TypeCheckError (a ParseError) on an argument of the wrong
    sort, and ParseError on argument lists nested deeper than MAX_NESTING."""
    p = _Parser(text, sig)
    term = p.term()
    if p.tokens[p.i]:
        pos = p.offset(p.i)
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


def infer_type(term: Term, sig: Signature) -> str:
    """The term's sort, read off the class of its root (sig is not
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
    if not 0 <= i < len(kids):
        raise IndexError(f"path {path} does not exist in term")
    return replace(term, args=tuple(
        replace_at(k, rest, replacement) if j == i else k for j, k in enumerate(kids)))
