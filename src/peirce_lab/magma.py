"""Commutative nonassociative monomials in a single generator z.

A monomial is an unordered complete binary tree whose leaves are the
generator.  Children of every product node are kept in a canonical order
(by degree, then left child, then right child), and nodes are interned:
two monomials that are equal as commutative words are the same object, so
equality and hashing are identity.  Other modules walk a tree only through
:func:`fold`.
"""

from __future__ import annotations

import re
import threading
import weakref
from collections.abc import Callable

from .poly import _integer

__all__ = [
    "Monomial",
    "MonomialSyntaxError",
    "atom",
    "product",
    "power",
    "principal_power",
    "plenary_power",
    "fold",
    "parse_monomial",
    "format_monomial",
    "enumerate_monomials",
    "MAX_ENUMERATION_DEGREE",
]

MAX_ENUMERATION_DEGREE = 14


class MonomialSyntaxError(ValueError):
    """Raised on malformed monomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Every live monomial by its (left, right) children; weak values free the ones
# nothing else references.  Not a cache: clearing it would make equal
# monomials distinct objects.
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_interning = threading.Lock()


class Monomial:
    """Immutable canonical binary tree; build via :func:`atom` / :func:`product`.

    `Monomial(left, right)` puts the children in canonical order and returns
    the one node with those children.  `principal` marks z^n and `plenary`
    marks z^[n]; the atom z is both.
    """

    __slots__ = ("left", "right", "degree", "principal", "plenary", "__weakref__")

    def __new__(cls, left: "Monomial | None", right: "Monomial | None") -> "Monomial":
        if left is not None and right < left:
            left, right = right, left
        with _interning:  # one node per pair of children, whichever thread asks
            node = _interned.get((left, right))
            if node is None:
                node = _interned[left, right] = object.__new__(cls)
                node.left, node.right = left, right
                node.degree = 1 if left is None else left.degree + right.degree
                node.principal = left is None or (left.degree == 1 and right.principal)
                node.plenary = left is None or (left is right and left.plenary)
        return node

    @property
    def is_atom(self) -> bool:
        return self.left is None

    def __lt__(self, other: "Monomial") -> bool:
        """Canonical order: degree, then left child, then right child."""
        a, b = self, other
        while a is not b:
            if a.degree != b.degree:
                return a.degree < b.degree
            # equal degrees above 1: both are products, and interning makes
            # them differ in the first pair of children that are not one object
            a, b = (a.left, b.left) if a.left is not b.left else (a.right, b.right)
        return False

    def __le__(self, other: "Monomial") -> bool:
        return self is other or self < other

    def __reduce__(self):
        return Monomial, (self.left, self.right)

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self)!r})"

    def __str__(self) -> str:
        return format_monomial(self)


_ATOM = Monomial(None, None)


def atom() -> Monomial:
    """The unique degree-1 monomial z."""
    return _ATOM


def product(m1: Monomial, m2: Monomial) -> Monomial:
    """Commutative product; children stored in canonical order."""
    return Monomial(m1, m2)


def power(m: Monomial, n: int) -> Monomial:
    """Iterated principal-style power: m^1 = m, m^n = m^(n-1) * m."""
    out = m
    for _ in range(_integer(n, "exponent", 1) - 1):
        out = product(out, m)
    return out


def principal_power(n: int) -> Monomial:
    """z^n with z^1 = z and z^n = z^(n-1) * z."""
    return power(_ATOM, n)


def plenary_power(n: int) -> Monomial:
    """z^[n] with z^[1] = z and z^[n] = z^[n-1] * z^[n-1]; degree 2^(n-1)."""
    out = _ATOM
    for _ in range(_integer(n, "plenary index", 1) - 1):
        out = Monomial(out, out)
    return out


def fold(m: Monomial, memo: dict, step: Callable[[Monomial, object, object], object]) -> object:
    """memo[m], setting memo[node] = step(node, memo[node.left], memo[node.right])
    once for every subtree missing from memo, children first.

    `memo` must hold the atom's value.  The walk keeps its own stack, so depth
    costs no recursion.
    """
    stack = [m]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
        elif node.left not in memo:
            stack.append(node.left)
        elif node.right not in memo:
            stack.append(node.right)
        else:
            stack.pop()
            memo[node] = step(node, memo[node.left], memo[node.right])
    return memo[m]


# --- text format ------------------------------------------------------------

_TOKEN = re.compile(r"z|\*|\(|\)|\^|\[|\]|\d+")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise MonomialSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise MonomialSyntaxError(f"expected {tok!r}", self.pos())
        self.i += 1

    def integer(self) -> int:
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise MonomialSyntaxError("expected an integer", self.pos())
        if int(tok) == 0:
            raise MonomialSyntaxError("exponent 0 is not allowed", self.pos())
        self.i += 1
        return int(tok)

    def expression(self) -> Monomial:
        """expression ::= factor ("*" factor)*; factor ::= primary postfix*;
        primary ::= "z" | "(" expression ")".

        An open parenthesis pushes the product read so far in the enclosing
        expression and its close pops it, so nesting costs no recursion.
        """
        enclosing: list[Monomial | None] = []
        out = None  # the product of the factors read so far
        while True:
            tok = self.peek()
            if tok == "(":
                self.i += 1
                enclosing.append(out)
                out = None
                continue
            if tok != "z":
                raise MonomialSyntaxError("expected 'z' or '('", self.pos())
            self.i += 1
            factor = _ATOM
            while True:
                factor = self.postfix(factor)
                out = factor if out is None else product(out, factor)
                if self.peek() == "*":
                    self.i += 1
                    break
                if not enclosing:
                    return out
                self.expect(")")
                factor, out = out, enclosing.pop()

    def postfix(self, out: Monomial) -> Monomial:
        while self.peek() == "^":
            self.i += 1
            if self.peek() == "[":
                self.i += 1
                n = self.integer()
                self.expect("]")
                for _ in range(n - 1):
                    out = product(out, out)
            else:
                out = power(out, self.integer())
        return out


def parse_monomial(text: str) -> Monomial:
    """Parse the grammar  m ::= "z" | m "*" m | "(" m ")" | m "^" INT | "z^[" INT "]".

    `*` associates to the left; tree shape is otherwise given by parentheses
    and the principal `^n` / plenary `^[n]` sugar.
    """
    parser = _Parser(text)
    if not parser.tokens:
        raise MonomialSyntaxError("empty input", 0)
    out = parser.expression()
    if parser.peek() is not None:
        raise MonomialSyntaxError(f"trailing input {parser.peek()!r}", parser.pos())
    return out


def format_monomial(m: Monomial) -> str:
    """Render with minimal parentheses; inverse of :func:`parse_monomial`."""
    out = []
    stack: list = [m]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node.principal:
            out.append(f"z^{node.degree}" if node.degree > 1 else "z")
        elif node.plenary:
            out.append(f"z^[{node.degree.bit_length()}]")
        else:
            # pushed right to left; a child without sugar is a product, so
            # it goes in parentheses
            for item in (node.right, "*", node.left):
                if isinstance(item, str) or item.principal or item.plenary:
                    stack.append(item)
                else:
                    stack += [")", item, "("]
    return "".join(out)


# --- enumeration ------------------------------------------------------------

_enum_cache: dict[int, tuple[Monomial, ...]] = {1: (_ATOM,)}


def enumerate_monomials(d: int, max_degree: int = MAX_ENUMERATION_DEGREE) -> list[Monomial]:
    """All distinct canonical monomials of degree d, in canonical order.

    Counts are the Wedderburn-Etherington numbers 1, 1, 1, 2, 3, 6, 11, 23, ...
    The guard `max_degree` exists because the counts grow super-exponentially.
    """
    if not 1 <= _integer(d, "degree") <= max_degree:
        raise ValueError(f"degree must be in 1..{max_degree}, got {d}")
    # the cache holds degrees 1..len(_enum_cache); each further degree is
    # generated from the lower ones in canonical order: by the degree of the
    # left child, then the left child, then the right child
    for n in range(len(_enum_cache) + 1, d + 1):
        out = []
        for a in range(1, n // 2 + 1):
            rights = _enum_cache[n - a]
            for i, left in enumerate(_enum_cache[a]):
                # equal degrees: only right >= left, so each pair once
                for right in rights[i:] if 2 * a == n else rights:
                    out.append(Monomial(left, right))
        _enum_cache[n] = tuple(out)
    return list(_enum_cache[d])
