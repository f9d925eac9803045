"""First-order type languages, sentences, finite structures, satisfaction.

A :class:`Signature` declares entity types (sorts), relation types with
sort profiles, and sorted constants.  Sentences are closed well-typed
formulas; :func:`validate_formula` defines well-typed, and the parser
checks each formula it builds with it, once.  Bound variables are renamed
to canonical depth-indexed names so alpha-equivalent sentences are
structurally equal (and hash equal), which is what makes sentence pools
and theory intents well defined.  Terms and formulas are immutable
slotted nodes that compute their hash once, when built, so a pool lookup
does not walk the tree.  Structures are finite models with
nonempty carriers; satisfaction is Tarskian, with quantifiers ranging
over the carrier of the bound sort, and is computed for many models at
once over groups of models that share their carriers: a
:class:`StructureSpace` is one group, listed models are grouped by
:func:`_listed_groups`, and a lone structure is a listed group of one.
There are no function symbols and no empty or infinite domains.
"""

from __future__ import annotations

import collections.abc
import contextlib
import functools
import itertools
import math
import operator
import re
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import fca
from ._value import Value
from .errors import ParseError, SignatureMismatchError, SizeCapError

DEFAULT_MODEL_CAP = 2**20
# Deepest formula the parser accepts; the formula walkers recurse, and a
# few frames per level stay well inside Python's default recursion limit.
MAX_FORMULA_DEPTH = 100

# A finitization parameter: each entity type gets a finite nonempty carrier.
CarrierAssignment = Mapping[str, Sequence[str]]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_KEYWORDS = frozenset({"forall", "exists"})


def _is_name(name: object) -> bool:
    return isinstance(name, str) and _NAME_RE.match(name) is not None and name not in _KEYWORDS


def _check_name(kind: str, name: str) -> None:
    if not _is_name(name):
        raise ValueError(f"invalid {kind} name {name!r}")


def _fault(node: object, message: str) -> ValueError:
    """A ``ValueError`` that names the ``node`` at fault, so that a reader can
    report it at the line the node was read from (see :func:`_at_line`)."""
    exc = ValueError(message)
    exc.node = node
    return exc


# ---------------------------------------------------------------------------
# Signatures

# What a declaration of each kind is called in a message.
_DECLARED = {"entity": "entity type", "relation": "relation type", "constant": "constant"}


def _declare(declared: dict[str, dict], kind: str, name: str, sorts: tuple[str, ...]) -> None:
    """Check one declaration against those before it, then record it.

    ``declared`` maps each kind to the names declared so far with their
    sorts: none for an entity type, its profile for a relation type, its
    one sort for a constant.  :class:`Signature` declares the entity types
    first; the file reader declares line by line, so that a sort must be
    declared above the line that uses it.
    """
    what = _DECLARED[kind]
    _check_name(what, name)
    if name in declared[kind]:
        raise ValueError(f"duplicate {what} {name!r}")
    if kind == "relation" and not sorts:
        raise ValueError(f"{what} {name!r} has an empty profile")
    for sort in sorts:
        if sort not in declared["entity"]:
            raise ValueError(f"{what} {name!r} references undeclared entity type {sort!r}")
    declared[kind][name] = sorts


class Signature(Value):
    """A first-order type language: sorts, typed relations, sorted constants.

    Declaration order is preserved; it anchors every deterministic
    enumeration downstream (model enumeration, export order, golden files).
    """

    _fields = ("entity_types", "relation_types", "constants")
    entity_types: tuple[str, ...] = ()
    relation_types: tuple[tuple[str, tuple[str, ...]], ...] = ()
    constants: tuple[tuple[str, str], ...] = ()

    def _check(self) -> None:
        declared: dict[str, dict] = {kind: {} for kind in _DECLARED}
        for name in self.entity_types:
            _declare(declared, "entity", name, ())
        for name, profile in self.relation_types:
            _declare(declared, "relation", name, tuple(profile))
        for name, sort in self.constants:
            _declare(declared, "constant", name, (sort,))
        object.__setattr__(self, "_ents", declared["entity"])
        object.__setattr__(self, "_profiles", declared["relation"])
        const_sorts = {name: sort for name, (sort,) in declared["constant"].items()}
        object.__setattr__(self, "_const_sorts", const_sorts)

    def has_entity_type(self, name: str) -> bool:
        return name in self._ents

    def has_relation(self, name: str) -> bool:
        return name in self._profiles

    def has_constant(self, name: str) -> bool:
        return name in self._const_sorts

    def profile(self, name: str) -> tuple[str, ...]:
        try:
            return self._profiles[name]
        except KeyError:
            raise ValueError(f"unknown relation type {name!r}") from None

    def constant_sort(self, name: str) -> str:
        try:
            return self._const_sorts[name]
        except KeyError:
            raise ValueError(f"unknown constant {name!r}") from None

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relation_types)

    @property
    def constant_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.constants)


# ---------------------------------------------------------------------------
# Terms and formulas


class _Node(Value):
    """A term or formula node: slotted, its hash computed once, when it is built.

    Each shape writes its slots through the slot descriptors' ``__set__``,
    past the frozen ``__setattr__`` at half the cost of ``object.__setattr__``,
    and compares its own fields in one ``and`` chain.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor: a hash does not outlive its process
        return type(self), tuple(getattr(self, name) for name in self._fields)


_put_hash = _Node._hash.__set__


class Var(_Node):
    __slots__ = _fields = ("name", "sort")

    def __init__(self, name: str, sort: str) -> None:
        _var_name(self, name)
        _var_sort(self, sort)
        _put_hash(self, hash((name, sort)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.sort == other.sort


class Const(_Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _const_name(self, name)
        _put_hash(self, hash((Const, name)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name


Term = Var | Const


class Atom(_Node):
    __slots__ = _fields = ("rel", "args")

    def __init__(self, rel: str, args: tuple[Term, ...]) -> None:
        _atom_rel(self, rel)
        _atom_args(self, args)
        _put_hash(self, hash((rel, args)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rel == other.rel and self.args == other.args


class Eq(_Node):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        _eq_left(self, left)
        _eq_right(self, right)
        _put_hash(self, hash((Eq, left, right)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.left == other.left and self.right == other.right


class Not(_Node):
    __slots__ = _fields = ("body",)

    def __init__(self, body: Formula) -> None:
        _not_body(self, body)
        _put_hash(self, hash((Not, body._hash)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.body == other.body


class _Binary(_Node):
    """A binary connective; the four differ only in their class."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        _binary_left(self, left)
        _binary_right(self, right)
        _put_hash(self, hash((type(self), left._hash, right._hash)))

    __eq__ = Eq.__eq__  # left and right, as in an equation


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _Quantifier(_Node):
    __slots__ = _fields = ("var", "sort", "body")

    def __init__(self, var: str, sort: str, body: Formula) -> None:
        _quantifier_var(self, var)
        _quantifier_sort(self, sort)
        _quantifier_body(self, body)
        _put_hash(self, hash((type(self), var, sort, body._hash)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.var == other.var and self.sort == other.sort and self.body == other.body


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


_var_name, _var_sort, _const_name = Var.name.__set__, Var.sort.__set__, Const.name.__set__
_atom_rel, _atom_args, _not_body = Atom.rel.__set__, Atom.args.__set__, Not.body.__set__
_eq_left, _eq_right = Eq.left.__set__, Eq.right.__set__
_binary_left, _binary_right = _Binary.left.__set__, _Binary.right.__set__
_quantifier_var, _quantifier_sort = _Quantifier.var.__set__, _Quantifier.sort.__set__
_quantifier_body = _Quantifier.body.__set__

Formula = Atom | Eq | Not | And | Or | Implies | Iff | Forall | Exists

# The binary connectives, loosest first, read by both the parser and the
# printer; a connective's precedence is its place here.  ~ binds tighter
# than all of them; a quantifier body extends as far right as possible.
_CONNECTIVES = ((Iff, "<->", "right"), (Implies, "->", "right"), (Or, "|", "left"),
                (And, "&", "left"))
# ``_map`` dispatches on the exact node type: one dict lookup is cheaper
# than a chain of isinstance tests on this hot path.
_KIND = {Atom: "leaf", Eq: "leaf", Not: "not", Forall: "quantifier", Exists: "quantifier",
         **dict.fromkeys((node for node, _, _ in _CONNECTIVES), "binary")}


def _map(f: Formula, env, leaf: Callable, binder: Callable) -> Formula:
    """The one structural walk over a formula.

    ``leaf(f, env)`` maps each ``Atom`` or ``Eq``; at each quantifier
    ``binder(f, env)`` returns ``(var, sort, body_env)``: the new bound
    variable and sort, and the environment the body is mapped under.
    Connectives are rebuilt from their mapped parts.  Identity is
    preserved: a node whose parts all come back unchanged (subformulas
    ``is`` the old ones, bound variable and sort equal) is returned
    itself, so a walk whose callbacks return their input allocates no
    formula node.
    """
    kind = _KIND.get(type(f))
    if kind == "leaf":
        return leaf(f, env)
    if kind == "binary":
        left = _map(f.left, env, leaf, binder)
        right = _map(f.right, env, leaf, binder)
        return f if left is f.left and right is f.right else type(f)(left, right)
    if kind == "quantifier":
        var, sort, body_env = binder(f, env)
        body = _map(f.body, body_env, leaf, binder)
        if body is f.body and var == f.var and sort == f.sort:
            return f
        return type(f)(var, sort, body)
    if kind == "not":
        body = _map(f.body, env, leaf, binder)
        return f if body is f.body else Not(body)
    raise TypeError(f"not a formula: {f!r}")


def _map_terms(f: Atom | Eq, env, term: Callable) -> Atom | Eq:
    """``f`` with ``term(t, env)`` in place of each term; ``f`` itself when
    every term comes back unchanged."""
    if isinstance(f, Eq):
        left, right = term(f.left, env), term(f.right, env)
        return f if left is f.left and right is f.right else Eq(left, right)
    args = tuple([term(t, env) for t in f.args])
    return f if all(map(operator.is_, args, f.args)) else Atom(f.rel, args)


def free_vars(formula: Formula) -> dict[str, str]:
    """Free variable names with their sorts.

    Raises ValueError if the same name occurs free at two different sorts.
    """
    out: dict[str, str] = {}

    def leaf(f: Atom | Eq, bound: frozenset[str]) -> Formula:
        for t in f.args if isinstance(f, Atom) else (f.left, f.right):
            if isinstance(t, Var) and t.name not in bound:
                if out.get(t.name, t.sort) != t.sort:
                    raise ValueError(
                        f"variable {t.name!r} occurs free at sorts {out[t.name]!r} and {t.sort!r}"
                    )
                out[t.name] = t.sort
        return f

    def binder(f: Forall | Exists, bound: frozenset[str]):
        return f.var, f.sort, bound | {f.var}

    _map(formula, frozenset(), leaf, binder)
    return out


def _depth(formula: Formula) -> int:
    """The height of the formula tree (an atom is 1), without recursion."""
    deepest = 0
    stack = [(formula, 1)]
    while stack:
        f, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(f, (Not, _Quantifier)):
            stack.append((f.body, d + 1))
        elif isinstance(f, _Binary):
            stack.extend(((f.left, d + 1), (f.right, d + 1)))
    return deepest


def canonicalize(formula: Formula) -> Formula:
    """Rename bound variables to depth-indexed names v0, v1, ...

    Alpha-equivalent formulas canonicalize to structurally equal values.
    Free variables keep their names; the canonical name stream skips them
    and the names of the constants in the formula, so no capture can occur
    and the printed formula parses back to the same one.
    """
    taken = set(free_vars(formula))
    constants: set[str] = set()
    names: list[str] = []
    counter = itertools.count()

    def term(t: Term, env: tuple[dict[str, str], int]) -> Term:
        if isinstance(t, Var):
            name = env[0].get(t.name, t.name)
            return t if name == t.name else Var(name, t.sort)
        constants.add(t.name)
        return t

    def binder(f: Forall | Exists, env: tuple[dict[str, str], int]):
        renaming, depth = env
        while len(names) <= depth:
            cand = f"v{next(counter)}"
            if cand not in taken:
                names.append(cand)
        return names[depth], f.sort, ({**renaming, f.var: names[depth]}, depth + 1)

    def leaf(f: Atom | Eq, env: tuple[dict[str, str], int]) -> Formula:
        return _map_terms(f, env, term)

    out = _map(formula, ({}, 0), leaf, binder)
    if not constants.isdisjoint(names):
        # a bound name is a constant's: draw the names again, skipping constants
        taken |= constants
        names.clear()
        counter = itertools.count()
        out = _map(formula, ({}, 0), leaf, binder)
    return out


def validate_formula(sig: Signature, formula: Formula, free: Mapping[str, str] | None = None) -> None:
    """Check well-typedness over ``sig``.

    ``free`` declares the free variables the formula may use (name -> sort);
    a sentence passes with the default empty mapping.  A fault found at an
    atom, equation or quantifier carries that node as its ``node``.
    """
    allowed = dict(free or {})
    for name, sort in allowed.items():
        if not sig.has_entity_type(sort):
            raise ValueError(f"free variable {name!r} has undeclared sort {sort!r}")

    def term_sort(t: Term, env: Mapping[str, str], f: Atom | Eq) -> str:
        if isinstance(t, Var):
            if t.name not in env:
                raise _fault(f, f"free variable {t.name!r}")
            if env[t.name] != t.sort:
                raise _fault(
                    f, f"variable {t.name!r} used at sort {t.sort!r} but bound at {env[t.name]!r}"
                )
            return t.sort
        if not sig.has_constant(t.name):
            raise _fault(f, f"unknown constant {t.name!r}")
        return sig.constant_sort(t.name)

    def leaf(f: Atom | Eq, env: Mapping[str, str]) -> Formula:
        if isinstance(f, Eq):
            ls, rs = term_sort(f.left, env, f), term_sort(f.right, env, f)
            if ls != rs:
                raise _fault(f, f"equality between different sorts {ls!r} and {rs!r}")
            return f
        profile = sig.profile(f.rel)
        if len(f.args) != len(profile):
            raise _fault(
                f, f"relation {f.rel!r} expects {len(profile)} arguments, got {len(f.args)}"
            )
        for pos, (t, want) in enumerate(zip(f.args, profile), start=1):
            got = term_sort(t, env, f)
            if got != want:
                raise _fault(
                    f, f"argument {pos} of {f.rel!r} has sort {got!r}, expected {want!r}"
                )
        return f

    def binder(f: Forall | Exists, env: Mapping[str, str]):
        if not sig.has_entity_type(f.sort):
            raise _fault(f, f"quantifier over undeclared entity type {f.sort!r}")
        return f.var, f.sort, {**env, f.var: f.sort}

    _map(formula, allowed, leaf, binder)


def substitute(formula: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Simultaneously substitute terms for free variables, capture-avoiding.

    Binders whose variable would capture a substituted variable are renamed
    to fresh names first.
    """

    def term(t: Term, m: Mapping[str, Term]) -> Term:
        return m.get(t.name, t) if isinstance(t, Var) else t

    def binder(f: Forall | Exists, m: Mapping[str, Term]):
        if f.var in m:
            m = {k: v for k, v in m.items() if k != f.var}
        replacing = {t.name for t in m.values() if isinstance(t, Var)}
        if f.var not in replacing:
            return f.var, f.sort, m
        avoid = replacing | set(m) | set(free_vars(f.body))
        fresh = next(n for n in map("w{}".format, itertools.count()) if n not in avoid)
        return fresh, f.sort, {**m, f.var: Var(fresh, f.sort)}

    return _map(formula, dict(mapping), lambda f, m: _map_terms(f, m, term), binder)


# ---------------------------------------------------------------------------
# Printing

# Precedence, binary node -> (its place in ``_CONNECTIVES`` from 1, symbol,
# least precedence of the left and the right operand): the side that does
# not nest needs one more.  A quantifier is 0: an operand gets parentheses.
_P_BINARY = {
    node: (prec, symbol, prec + (assoc == "right"), prec + (assoc == "left"))
    for prec, (node, symbol, assoc) in enumerate(_CONNECTIVES, 1)
}
_P_NOT = len(_CONNECTIVES) + 1
_P_ATOM = _P_NOT + 1


def format_formula(formula: Formula) -> str:
    """Render with minimal parentheses; parsing the result restores the AST."""
    return _fmt(formula, 0)


def _fmt(f: Formula, min_prec: int) -> str:
    binary = _P_BINARY.get(type(f))
    if binary is not None:
        prec, symbol, left, right = binary
        s = f"{_fmt(f.left, left)} {symbol} {_fmt(f.right, right)}"
    elif isinstance(f, Atom):
        s, prec = f"{f.rel}({','.join(t.name for t in f.args)})", _P_ATOM
    elif isinstance(f, Eq):
        s, prec = f"{f.left.name} = {f.right.name}", _P_ATOM
    elif isinstance(f, Not):
        s, prec = "~" + _fmt(f.body, _P_NOT), _P_NOT
    elif isinstance(f, Forall):
        s, prec = f"forall {f.var}:{f.sort}. {_fmt(f.body, 0)}", 0
    elif isinstance(f, Exists):
        s, prec = f"exists {f.var}:{f.sort}. {_fmt(f.body, 0)}", 0
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({s})" if prec < min_prec else s


def sentence_key(formula: Formula) -> str:
    """The canonical printed form; the stable identity of a pool member."""
    return format_formula(canonicalize(formula))


# ---------------------------------------------------------------------------
# Parsing


class _Tok(NamedTuple):
    text: str
    line: int


# a token, a newline, blank space, or any other character (an error)
_TOKEN_RE = re.compile(
    r"(<->|->|[~&|().,:=]|[A-Za-z_][A-Za-z0-9_']*)|(\n)|[ \t\r]+|(.)", re.DOTALL
)


def _tokenize(text: str, path: str | None = None) -> list[_Tok]:
    toks: list[_Tok] = []
    line = 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind == 1:
            toks.append(_Tok(m.group(1), line))
        elif kind == 2:
            line += 1
        elif kind == 3:
            raise ParseError(f"unexpected character {m.group(3)!r}", line=line, path=path)
    return toks


def _fold_right(op: type, parts: list[Formula]) -> Formula:
    """Right-associate a chain of operands: a op (b op c)."""
    f = parts[-1]
    for left in reversed(parts[:-1]):
        f = op(left, f)
    return f


class _FormulaParser:
    def __init__(self, sig: Signature, toks: list[_Tok], free: Mapping[str, str], path: str | None):
        self.sig = sig
        self.toks = toks
        self.free = dict(free)
        self.path = path
        self.pos = 0
        self.depth = 0
        self.lines: dict[int, int] = {}  # the line of each atom, equation and quantifier, by id

    def error(self, message: str, line: int | None = None) -> ParseError:
        """A ParseError at ``line``, by default the line of the current token."""
        if line is None:
            line = self.toks[min(self.pos, len(self.toks) - 1)].line if self.toks else 1
        return ParseError(message, line=line, path=self.path)

    def built(self, f: Formula, line: int) -> Formula:
        self.lines[id(f)] = line
        return f

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, text: str) -> bool:
        t = self.peek()
        if t is not None and t.text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        t = self.peek()
        if t is None:
            raise self.error(f"expected {text!r}, found end of input")
        if t.text != text:
            raise self.error(f"expected {text!r}, found {t.text!r}")
        self.pos += 1

    def ident(self, what: str) -> str:
        t = self.peek()
        if t is None:
            raise self.error(f"expected {what}, found end of input")
        if not _is_name(t.text):
            raise self.error(f"expected {what}, found {t.text!r}")
        self.pos += 1
        return t.text

    def too_deep(self) -> ParseError:
        return self.error(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels")

    def parse(self) -> Formula:
        f = self.formula(dict(self.free))
        t = self.peek()
        if t is not None:
            raise self.error(f"unexpected trailing input {t.text!r}")
        if _depth(f) > MAX_FORMULA_DEPTH:
            raise self.too_deep()
        try:
            validate_formula(self.sig, f, self.free)
        except ValueError as exc:
            raise self.error(str(exc), self.lines.get(id(getattr(exc, "node", None)))) from None
        return f

    def formula(self, env: dict[str, str]) -> Formula:
        # nesting recurses only here (parentheses, quantifier bodies)
        self.depth += 1
        if self.depth > MAX_FORMULA_DEPTH:
            raise self.too_deep()
        f = self.chain(env)
        self.depth -= 1
        return f

    def chain(self, env: dict[str, str], level: int = 0) -> Formula:
        """Operands joined by the connective at ``level`` of ``_CONNECTIVES``:
        chains at the next level, or at the last level unary formulas, read
        directly so that no frame is added per parenthesis or quantifier."""
        node, symbol, assoc = _CONNECTIVES[level]
        tighter = level + 1 < len(_CONNECTIVES)
        parts = [self.chain(env, level + 1) if tighter else self.unary(env)]
        while self.take(symbol):
            parts.append(self.chain(env, level + 1) if tighter else self.unary(env))
        if len(parts) == 1:
            return parts[0]
        return _fold_right(node, parts) if assoc == "right" else functools.reduce(node, parts)

    def unary(self, env: dict[str, str]) -> Formula:
        negations = 0
        while self.take("~"):
            negations += 1
        t = self.peek()
        if t is None:
            raise self.error("expected a formula, found end of input")
        if t.text in _KEYWORDS:
            f = self.quantified(env)
        elif t.text == "(":
            self.pos += 1
            f = self.formula(env)
            self.expect(")")
        else:
            f = self.atom_or_eq(env)
        for _ in range(negations):
            f = Not(f)
        return f

    def quantified(self, env: dict[str, str]) -> Formula:
        kw = self.peek()
        assert kw is not None
        self.pos += 1
        var = self.ident("a variable name")
        self.expect(":")
        sort = self.ident("an entity type name")
        self.expect(".")
        body = self.formula({**env, var: sort})
        cls = Forall if kw.text == "forall" else Exists
        return self.built(cls(var, sort, body), kw.line)

    def term(self, env: dict[str, str]) -> Term:
        name = self.ident("a term")
        return self.resolve_term(name, env)

    def resolve_term(self, name: str, env: dict[str, str]) -> Term:
        if name in env:
            return Var(name, env[name])
        if self.sig.has_constant(name):
            return Const(name)
        raise self.error(f"free variable or unknown constant {name!r}")

    def atom_or_eq(self, env: dict[str, str]) -> Formula:
        line = self.toks[self.pos].line
        name = self.ident("a relation application or a term")
        nxt = self.peek()
        if nxt is not None and nxt.text == "(" and self.sig.has_relation(name):
            self.pos += 1
            args = [self.term(env)]
            while self.take(","):
                args.append(self.term(env))
            self.expect(")")
            return self.built(Atom(name, tuple(args)), line)
        left = self.resolve_term(name, env)
        self.expect("=")
        return self.built(Eq(left, self.term(env)), line)


def parse_formula(
    sig: Signature,
    text: str,
    free: Mapping[str, str] | None = None,
    *,
    path: str | None = None,
) -> Formula:
    """Parse a formula whose free variables are exactly declared via ``free``.

    The parser builds the formula and checks it once with
    :func:`validate_formula`; a formula that does not type-check is a
    ``ParseError``.  The result is canonicalized (bound variables renamed);
    free variables keep their declared names.
    """
    free = dict(free or {})
    for name in free:
        _check_name("variable", name)
    parser = _FormulaParser(sig, _tokenize(text, path), free, path)
    return canonicalize(parser.parse())


def parse_sentence(sig: Signature, text: str, *, path: str | None = None) -> Formula:
    """Parse a closed sentence; free variables are a parse error."""
    return parse_formula(sig, text, path=path)


# ---------------------------------------------------------------------------
# Structures


class Structure(Value):
    """A finite model: carriers per sort, relation extensions, denotations.

    Fields are ordered by signature declaration order; equality is
    structural (including carrier element order, which fixes the tuple
    order used by enumeration).
    """

    _fields = ("signature", "carriers", "relations", "constants")
    signature: Signature
    carriers: tuple[tuple[str, tuple[str, ...]], ...]
    relations: tuple[tuple[str, frozenset[tuple[str, ...]]], ...]
    constants: tuple[tuple[str, str], ...]

    def _check(self) -> None:
        sig = self.signature
        carrier_map = validate_carriers(sig, dict(self.carriers))
        if tuple(name for name, _ in self.carriers) != sig.entity_types:
            raise ValueError("carriers must list every entity type in declaration order")
        if tuple(name for name, _ in self.relations) != sig.relation_names:
            raise ValueError("relations must list every relation type in declaration order")
        rel_map: dict[str, frozenset[tuple[str, ...]]] = {}
        for name, tuples in self.relations:
            profile = sig.profile(name)
            for tup in tuples:
                if len(tup) != len(profile):
                    raise _fault(
                        ("relation", name), f"tuple {tup!r} has wrong arity for relation {name!r}"
                    )
                for elem, sort in zip(tup, profile):
                    if elem not in carrier_map[sort]:
                        raise _fault(
                            ("relation", name),
                            f"tuple {tup!r} of relation {name!r} leaves the carrier of {sort!r}",
                        )
            rel_map[name] = frozenset(tuples)
        const_map: dict[str, str] = {}
        for name, elem in self.constants:
            if elem not in carrier_map[sig.constant_sort(name)]:
                raise _fault(
                    ("constant", name), f"constant {name!r} denotes {elem!r} outside its carrier"
                )
            const_map[name] = elem
        missing = [name for name in sig.constant_names if name not in const_map]
        if missing:
            raise ValueError(f"missing denotations for constants {missing}")
        if tuple(name for name, _ in self.constants) != sig.constant_names:
            raise ValueError("constants must list every constant in declaration order")
        object.__setattr__(self, "_carrier", carrier_map)
        object.__setattr__(self, "_relation", rel_map)
        object.__setattr__(self, "_constant", const_map)

    @classmethod
    def make(
        cls,
        sig: Signature,
        carriers: Mapping[str, Sequence[str]],
        relations: Mapping[str, Iterable[Sequence[str]]] | None = None,
        constants: Mapping[str, str] | None = None,
    ) -> "Structure":
        """Build a structure from mappings; missing relations default to empty."""
        relations = dict(relations or {})
        constants = dict(constants or {})
        for name in relations:
            if not sig.has_relation(name):
                raise ValueError(f"extension for undeclared relation {name!r}")
        for name in constants:
            if not sig.has_constant(name):
                raise ValueError(f"denotation for undeclared constant {name!r}")
        # the declared sorts in declaration order, then any others, for the constructor to refuse
        ordered = {sort: carriers[sort] for sort in sig.entity_types if sort in carriers}
        return cls(
            signature=sig,
            carriers=tuple((sort, tuple(elems)) for sort, elems in {**ordered, **carriers}.items()),
            relations=tuple(
                (name, frozenset(tuple(t) for t in relations.get(name, ())))
                for name in sig.relation_names
            ),
            constants=tuple((name, constants[name]) for name in sig.constant_names if name in constants),
        )

    def carrier(self, sort: str) -> tuple[str, ...]:
        return self._carrier[sort]

    def relation(self, name: str) -> frozenset[tuple[str, ...]]:
        return self._relation[name]

    def constant(self, name: str) -> str:
        return self._constant[name]


# ---------------------------------------------------------------------------
# Satisfaction as columns
#
# Truth is computed for a whole set of models at once: the column of a
# formula under an assignment is an int whose bit i is set when the formula
# holds in model i.  Ground atoms and constant denotations give the base
# columns; connectives and quantifiers are bitwise operations on them.


class _Group:
    """Models that share one carrier per sort, seen through their atoms.

    ``atom(rel, tup)`` is the set of the models where the ground atom
    holds and ``denotes(const, elem)`` the set of those where the constant
    denotes the element, both bitsets over model positions; ``full`` is the
    set of all the group's models.
    """

    __slots__ = ("signature", "carrier", "full", "atom", "denotes")

    def __init__(
        self,
        signature: Signature,
        carrier: Mapping[str, tuple[str, ...]],
        full: int,
        atom: Callable[[str, tuple[str, ...]], int],
        denotes: Callable[[str, str], int],
    ) -> None:
        self.signature, self.carrier, self.full = signature, carrier, full
        self.atom, self.denotes = atom, denotes


def _column(group: _Group, formula: Formula, env: Mapping[str, str]) -> int:
    """The models of the group where ``formula`` holds under ``env``.

    Connectives are bitwise operations against the full mask, and a
    quantifier ANDs or ORs its body's columns over the carrier of its sort.
    A quantified subformula met again is memoized on the values of its own
    free variables, so it is evaluated at most once more than it has
    distinct values there: nested quantifiers cost their number times the
    carrier size, not the carrier size to the power of the nesting depth.
    Between quantifiers the walk is linear.
    """
    sig, carrier, full = group.signature, group.carrier, group.full
    memo: dict[tuple, int] = {}
    # keyed by id: every subformula lives as long as ``formula``
    free: dict[int, tuple[str, ...] | None] = {}

    def ground(terms: Sequence[Term], env: Mapping[str, str]) -> list[tuple[int, tuple]]:
        """Each way the constants among ``terms`` can denote: the models
        where they do, and the values of the terms there."""
        consts = [t.name for t in terms if isinstance(t, Const)]
        if not consts:
            return [(full, tuple(env[t.name] for t in terms))]
        consts = list(dict.fromkeys(consts))
        out = []
        for elems in itertools.product(*(carrier[sig.constant_sort(c)] for c in consts)):
            where = full
            for c, e in zip(consts, elems):
                where &= group.denotes(c, e)
            if where:
                value = dict(zip(consts, elems))
                out.append((where, tuple(
                    value[t.name] if isinstance(t, Const) else env[t.name] for t in terms
                )))
        return out

    def walk(f: Formula, env: Mapping[str, str]) -> int:
        if isinstance(f, Atom):
            out = 0
            for where, tup in ground(f.args, env):
                out |= where & group.atom(f.rel, tup)
            return out
        if isinstance(f, Eq):
            out = 0
            for where, (left, right) in ground((f.left, f.right), env):
                if left == right:
                    out |= where
            return out
        if isinstance(f, Not):
            return full ^ walk(f.body, env)
        if isinstance(f, And):
            left = walk(f.left, env)
            return left & walk(f.right, env) if left else 0
        if isinstance(f, Or):
            left = walk(f.left, env)
            return left | walk(f.right, env) if left != full else full
        if isinstance(f, Implies):
            left = walk(f.left, env)
            return (full ^ left) | walk(f.right, env) if left else full
        if isinstance(f, Iff):
            return full ^ walk(f.left, env) ^ walk(f.right, env)
        if isinstance(f, _Quantifier):
            # a quantifier met only once needs no key
            if id(f) not in free:
                free[id(f)] = None
                return quantify(f, env)
            names = free[id(f)]
            if names is None:
                names = free[id(f)] = tuple(free_vars(f))
            key = (id(f), *(env[v] for v in names))
            out = memo.get(key)
            if out is None:
                out = memo[key] = quantify(f, env)
            return out
        raise TypeError(f"not a formula: {f!r}")

    def quantify(f: Forall | Exists, env: Mapping[str, str]) -> int:
        forall = isinstance(f, Forall)
        out, stop = (full, 0) if forall else (0, full)
        for e in carrier[f.sort]:
            body = walk(f.body, {**env, f.var: e})
            out = out & body if forall else out | body
            if out == stop:
                break
        return out

    try:
        return walk(formula, env)
    finally:
        walk = quantify = None  # break the walk <-> quantify cycle: a call leaves no garbage


def _listed_groups(sig: Signature, models: Sequence[Structure]) -> tuple[_Group, ...]:
    """The listed models grouped by their carriers, in order of first
    appearance; each model's relations and constants are scanned once."""
    scanned: dict[tuple, tuple[list[int], dict, dict]] = {}
    for p, m in enumerate(models):
        positions, atoms, denotes = scanned.setdefault(m.carriers, ([], {}, {}))
        positions.append(p)
        for name, tuples in m.relations:
            for tup in tuples:
                atoms.setdefault((name, tup), []).append(p)
        for name, elem in m.constants:
            denotes.setdefault((name, elem), []).append(p)

    width = len(models)

    def table(held: dict) -> Callable[[str, object], int]:
        columns = {key: fca._mask(ps, width) for key, ps in held.items()}
        return lambda name, value: columns.get((name, value), 0)

    return tuple(
        _Group(sig, dict(carriers), fca._mask(positions, width), table(atoms), table(denotes))
        for carriers, (positions, atoms, denotes) in scanned.items()
    )


def _check_sentence(sig: Signature, sentence: Formula) -> None:
    """A sentence is closed and well-typed over ``sig``; an error names it by its key.
    One walk checks both; a refused sentence's free variables, if any, are named."""
    try:
        validate_formula(sig, sentence)
    except ValueError as exc:
        fv = free_vars(sentence)
        if fv:
            key = sentence_key(sentence)
            raise ValueError(f"sentence {key!r} has free variables: {sorted(fv)}") from None
        raise SignatureMismatchError(
            f"sentence {sentence_key(sentence)!r} does not fit the signature: {exc}"
        )


def satisfies(structure: Structure, sentence: Formula) -> bool:
    """Tarskian truth of a closed sentence in a finite structure."""
    _check_sentence(structure.signature, sentence)
    return _column(_listed_groups(structure.signature, (structure,))[0], sentence, {}) == 1


def eval_formula(structure: Structure, formula: Formula, env: Mapping[str, str]) -> bool:
    """Truth of a well-typed formula under an assignment of its free
    variables to carrier elements; other keys are ignored."""
    fv = free_vars(formula)
    validate_formula(structure.signature, formula, fv)
    missing = set(fv) - set(env)
    if missing:
        raise ValueError(f"assignment misses free variables: {sorted(missing)}")
    outside = sorted(v for v, sort in fv.items() if env[v] not in structure.carrier(sort))
    if outside:
        raise ValueError(f"assignment gives free variables values outside their carriers: {outside}")
    return _column(_listed_groups(structure.signature, (structure,))[0], formula, env) == 1


# ---------------------------------------------------------------------------
# Bounded model enumeration


def validate_carriers(sig: Signature, carriers: Mapping[str, Sequence[str]]) -> dict[str, tuple[str, ...]]:
    """The carriers in declaration order, each checked: a fault with one
    carrier names its sort as the node ``("entity", sort)``."""
    out: dict[str, tuple[str, ...]] = {}
    for sort, elems in carriers.items():
        node, elems = ("entity", sort), tuple(elems)
        if not sig.has_entity_type(sort):
            raise _fault(node, f"carrier for undeclared entity type {sort!r}")
        if not elems:
            raise _fault(node, f"carrier of {sort!r} is empty")
        if len(set(elems)) != len(elems):
            raise _fault(node, f"carrier of {sort!r} has duplicate elements")
        out[sort] = elems
    for sort in sig.entity_types:
        if sort not in out:
            raise ValueError(f"missing carrier for entity type {sort!r}")
    return {sort: out[sort] for sort in sig.entity_types}


def _space_size(sig: Signature, cs: Mapping[str, tuple[str, ...]]) -> tuple[int, int]:
    """Over validated carriers: the number of relation cells (tuples that a
    relation may hold) and of ways to assign the constants."""
    cells = sum(math.prod(len(cs[sort]) for sort in sig.profile(n)) for n in sig.relation_names)
    assignments = math.prod(len(cs[sig.constant_sort(n)]) for n in sig.constant_names)
    return cells, assignments


def count_structures(sig: Signature, carriers: Mapping[str, Sequence[str]]) -> int:
    """Closed-form count of all structures over fixed carriers."""
    cells, assignments = _space_size(sig, validate_carriers(sig, carriers))
    return assignments << cells


def _periodic(width: int, period: int, start: int, stop: int) -> int:
    """The ``width``-bit mask that sets bits ``start`` to ``stop - 1`` of
    every ``period`` (which divides ``width``), in O(log width) shifts."""
    mask = ((1 << (stop - start)) - 1) << start
    while period < width:
        mask |= mask << period
        period <<= 1
    return mask & ((1 << width) - 1)


# Subclassing the unsubscripted ABC: typing's cache of ``Sequence[Structure]``
# would keep every imported copy of this module alive.
class StructureSpace(collections.abc.Sequence):
    """Every structure over fixed carriers, in canonical order, built on demand.

    Position ``i`` is a mixed-radix number, and one table gives each digit
    its stride, the number of positions one step of the digit skips.
    ``_cells`` maps each ``(relation, tuple)`` to the stride of its binary
    digit, set when the relation holds of the tuple (a relation's first
    tuple, in lexicographic order, is least significant, and earlier
    relations are more significant); ``_constants`` maps each constant to
    its stride, the positions of the elements of its carrier, and that
    carrier: the digit is the position of its denotation (the last constant
    least significant).  Every reader takes its digits from those strides:
    ``_decode`` builds the structure at a position, ``_encode`` (behind
    ``index``) sums the strides of a structure's digits instead of
    scanning, and ``_group`` reads each ground atom and denotation off the
    order as a periodic bit pattern.  A structure is built only when one
    is indexed or iterated.  Use :func:`enumerate_structures`, which
    validates the carriers and applies the size cap.  Two spaces are equal
    when their signatures and carriers are.
    """

    def __init__(self, sig: Signature, carriers: tuple[tuple[str, tuple[str, ...]], ...]) -> None:
        cs = dict(carriers)
        self.signature, self.carriers, self._cs = sig, tuple(cs.items()), cs
        stride, constants, self._cells = 1, {}, {}
        for name in reversed(sig.constant_names):
            elems = cs[sig.constant_sort(name)]
            constants[name] = (stride, {e: j for j, e in enumerate(elems)}, elems)
            stride *= len(elems)
        for name in reversed(sig.relation_names):
            for tup in itertools.product(*(cs[sort] for sort in sig.profile(name))):
                self._cells[name, tup] = stride
                stride <<= 1
        self._constants, self._count = dict(reversed(constants.items())), stride
        # Columns keyed (relation, tuple) and (constant, element), which never
        # collide: a tuple is not a str.
        self._patterns: dict[tuple, int] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructureSpace):
            return NotImplemented
        return (self.signature, self.carriers) == (other.signature, other.carriers)

    def __hash__(self) -> int:
        return hash((self.signature, self.carriers))

    def __repr__(self) -> str:
        return f"StructureSpace({self.signature!r}, {self.carriers!r})"

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._decode(k) for k in range(*i.indices(self._count))]
        i = operator.index(i)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("structure index out of range")
        return self._decode(i)

    def __iter__(self) -> Iterator[Structure]:
        return map(self._decode, range(self._count))

    def __contains__(self, value: object) -> bool:
        return self._encode(value) is not None

    def index(self, value: object, start: int = 0, stop: int | None = None) -> int:
        i = self._encode(value)
        if i is None or i not in range(self._count)[start:stop]:
            raise ValueError("structure is not in this space")
        return i

    def _decode(self, i: int) -> Structure:
        """The structure at position ``i``, built from the space's own
        carriers and tuples, which are valid by construction: none of
        :class:`Structure`'s input checks run."""
        held: dict[str, list] = {name: [] for name in self.signature.relation_names}
        for (name, tup), stride in self._cells.items():
            if i // stride & 1:
                held[name].append(tup)
        relation = {name: frozenset(tuples) for name, tuples in held.items()}
        constant = {
            name: elems[i // stride % len(elems)] for name, (stride, _, elems) in self._constants.items()
        }
        structure = object.__new__(Structure)
        vars(structure).update(
            signature=self.signature,
            carriers=self.carriers,
            relations=tuple(relation.items()),
            constants=tuple(constant.items()),
            _carrier=self._cs,
            _relation=relation,
            _constant=constant,
        )
        return structure

    def _encode(self, value: object) -> int | None:
        if not (
            isinstance(value, Structure)
            and value.signature == self.signature
            and value.carriers == self.carriers
        ):
            return None
        cells, i = self._cells, 0
        for name, tuples in value.relations:
            for tup in tuples:
                i += cells[name, tup]
        for name, elem in value.constants:
            stride, pos, _ = self._constants[name]
            i += stride * pos[elem]
        return i

    def _atom(self, rel: str, tup: tuple[str, ...]) -> int:
        """Models holding R(t): blocks of the cell's stride, alternating off
        and on."""
        col = self._patterns.get((rel, tup))
        if col is None:
            stride = self._cells[rel, tup]
            col = self._patterns[rel, tup] = _periodic(self._count, 2 * stride, stride, 2 * stride)
        return col

    def _denotes(self, const: str, elem: str) -> int:
        """Models where the constant denotes the element: one block of its
        digit's stride in each cycle of the digit."""
        col = self._patterns.get((const, elem))
        if col is None:
            stride, pos, elems = self._constants[const]
            start = stride * pos[elem]
            col = _periodic(self._count, stride * len(elems), start, start + stride)
            self._patterns[const, elem] = col
        return col

    def _group(self) -> _Group:
        return _Group(self.signature, self._cs, (1 << self._count) - 1, self._atom, self._denotes)


def enumerate_structures(
    sig: Signature,
    carriers: Mapping[str, Sequence[str]],
    cap: int = DEFAULT_MODEL_CAP,
) -> StructureSpace:
    """All structures over the fixed carriers, in canonical order.

    Relation extensions vary as bit-vectors over the lexicographic tuple
    order of each relation (earlier relations vary slower); constant
    denotations vary last (fastest).  The result is a lazy sequence (see
    :class:`StructureSpace`).  Refuses with the computed count when it
    exceeds ``cap``.
    """
    cs = validate_carriers(sig, carriers)
    cells, assignments = _space_size(sig, cs)
    if cells > 64:
        raise SizeCapError("structure enumeration", f"at least 2^{cells}", cap)
    count = assignments << cells
    if count > cap:
        raise SizeCapError("structure enumeration", count, cap)
    return StructureSpace(sig, tuple(cs.items()))


# ---------------------------------------------------------------------------
# File formats

_ENTITY_LINE = re.compile(r"entity\s+(\S+)\s*$")
_RELATION_LINE = re.compile(r"relation\s+(\S+?)\s*\(\s*([^()]*?)\s*\)\s*$")
_CONSTANT_LINE = re.compile(r"constant\s+(\S+?)\s*:\s*(\S+)\s*$")


def _source_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


@contextlib.contextmanager
def _at_line(line: int | Mapping | None, path: str | None) -> Iterator[None]:
    """Report a ``ValueError`` raised inside as a ``ParseError`` at ``line``
    of the file.  ``line`` may instead map nodes to the lines they were
    read from: a fault that names its node (see :func:`_fault`) is then
    reported at the node's line, any other without a line."""
    try:
        yield
    except ValueError as exc:
        message = exc.message if isinstance(exc, ParseError) else str(exc)
        if isinstance(line, collections.abc.Mapping):
            line = line.get(getattr(exc, "node", None))
        raise ParseError(message, line=line, path=path) from None


def parse_signature(text: str, *, path: str | None = None) -> Signature:
    """Parse a signature file: entity/relation/constant declarations, each
    checked as :class:`Signature` checks it, against the lines above it."""
    declared: dict[str, dict] = {kind: {} for kind in _DECLARED}
    for lineno, line in _source_lines(text):
        with _at_line(lineno, path):
            if m := _ENTITY_LINE.match(line):
                kind, name, sorts = "entity", m.group(1), ()
            elif m := _RELATION_LINE.match(line):
                profile = m.group(2)
                sorts = tuple(s.strip() for s in profile.split(",")) if profile else ()
                kind, name = "relation", m.group(1)
            elif m := _CONSTANT_LINE.match(line):
                kind, name, sorts = "constant", m.group(1), (m.group(2),)
            else:
                raise ParseError(f"unrecognized declaration: {line!r}")
            _declare(declared, kind, name, sorts)
    return Signature(
        tuple(declared["entity"]),
        tuple(declared["relation"].items()),
        tuple((name, sort) for name, (sort,) in declared["constant"].items()),
    )


def parse_sentences(sig: Signature, text: str, *, path: str | None = None) -> tuple[Formula, ...]:
    """Parse a pool/theory file: one sentence per line, deduplicated.

    Duplicates are alpha-equivalence duplicates; the first occurrence wins.
    """
    out: list[Formula] = []
    seen: set[Formula] = set()
    for lineno, line in _source_lines(text):
        with _at_line(lineno, path):
            sentence = parse_sentence(sig, line)
        if sentence not in seen:
            seen.add(sentence)
            out.append(sentence)
    return tuple(out)


_UNIVERSE_LINE = re.compile(r"universe\s+(\S+)\s*=\s*\{(.*)\}\s*$")
_ASSIGN_LINE = re.compile(r"(\S+?)\s*=\s*(.*\S)\s*$")


def _split_top_commas(text: str) -> list[str]:
    parts: list[str] = []
    depth, start = 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def parse_model(sig: Signature, text: str, *, path: str | None = None) -> Structure:
    """Parse a model file: universe lines, relation extensions, denotations.

    The reader checks each line's shape and that no universe, extension or
    denotation is given twice; :class:`Structure` checks the rest, and a
    fault it finds in one of them is reported at its line.
    """
    carriers: dict[str, tuple[str, ...]] = {}
    relations: dict[str, list[tuple[str, ...]]] = {}
    constants: dict[str, str] = {}
    lines: dict[tuple[str, str], int] = {}  # the line of each universe, extension and denotation
    for lineno, line in _source_lines(text):
        with _at_line(lineno, path):
            if m := _UNIVERSE_LINE.match(line):
                kind, name, body = "entity", m.group(1), m.group(2).strip()
                if name in carriers:
                    raise ParseError(f"duplicate universe for {name!r}")
                elems = tuple(e.strip() for e in body.split(",")) if body else ()
                if not all(elems):
                    raise ParseError(f"malformed universe for {name!r}")
                carriers[name] = elems
            elif m := _ASSIGN_LINE.match(line):
                name, rhs = m.group(1), m.group(2)
                if sig.has_relation(name):
                    kind = "relation"
                    if name in relations:
                        raise ParseError(f"duplicate extension for {name!r}")
                    if not (rhs.startswith("{") and rhs.endswith("}")):
                        raise ParseError(f"relation {name!r} needs a tuple set in braces")
                    body = rhs[1:-1].strip()
                    tuples: list[tuple[str, ...]] = []
                    for item in _split_top_commas(body) if body else ():
                        if item.startswith("(") and item.endswith(")"):
                            tup = tuple(e.strip() for e in item[1:-1].split(","))
                        else:
                            tup = (item,)
                        if not all(tup):
                            raise ParseError(f"malformed tuple {item!r}")
                        tuples.append(tup)
                    relations[name] = tuples
                elif sig.has_constant(name):
                    kind = "constant"
                    if name in constants:
                        raise ParseError(f"duplicate denotation for {name!r}")
                    if "{" in rhs or "," in rhs:
                        raise ParseError(f"constant {name!r} needs a single element")
                    constants[name] = rhs
                else:
                    raise ParseError(f"unknown relation or constant {name!r}")
            else:
                raise ParseError(f"unrecognized model line: {line!r}")
        lines[kind, name] = lineno
    with _at_line(lines, path):
        return Structure.make(sig, carriers, relations, constants)


def format_structure(structure: Structure) -> str:
    """Render a structure in the model file syntax (re-parseable)."""
    lines: list[str] = []
    for sort, elems in structure.carriers:
        lines.append(f"universe {sort} = {{{', '.join(elems)}}}")
    for name, tuples in structure.relations:
        unary = len(structure.signature.profile(name)) == 1
        items = []
        for tup in sorted(tuples):
            items.append(tup[0] if unary else f"({','.join(tup)})")
        lines.append(f"{name} = {{{', '.join(items)}}}")
    for name, elem in structure.constants:
        lines.append(f"{name} = {elem}")
    return "\n".join(lines) + "\n"
