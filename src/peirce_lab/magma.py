"""Commutative nonassociative monomials in a single generator z.

A monomial is an unordered complete binary tree whose leaves are the
generator.  Children of every product node are kept in a canonical order
(by degree, then by the recursive tree encoding), so two monomials that
are equal as commutative words are structurally identical and can be used
as dict keys directly.
"""

from __future__ import annotations

import re
from typing import Iterator

__all__ = [
    "Monomial",
    "MonomialSyntaxError",
    "atom",
    "product",
    "power",
    "principal_power",
    "plenary_power",
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


class Monomial:
    """Immutable canonical binary tree; build via :func:`atom` / :func:`product`."""

    __slots__ = ("left", "right", "degree", "_key", "_hash")

    def __init__(self, left: "Monomial | None", right: "Monomial | None"):
        self.left = left
        self.right = right
        if left is None:
            self.degree = 1
            self._key: tuple = (1,)
            self._hash = hash(self._key)
        else:
            assert right is not None
            self.degree = left.degree + right.degree
            self._key = (self.degree, left._key, right._key)
            # O(1) from the children: hashing the nested key would walk the
            # whole tree, since Python does not cache tuple hashes
            self._hash = hash((self.degree, left._hash, right._hash))

    @property
    def is_atom(self) -> bool:
        return self.left is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Monomial") -> bool:
        return self._key < other._key

    def __le__(self, other: "Monomial") -> bool:
        return self._key <= other._key

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
    if m2._key < m1._key:
        m1, m2 = m2, m1
    return Monomial(m1, m2)


def power(m: Monomial, n: int) -> Monomial:
    """Iterated principal-style power: m^1 = m, m^n = m^(n-1) * m."""
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    out = m
    for _ in range(n - 1):
        out = product(out, m)
    return out


def principal_power(n: int) -> Monomial:
    """z^n with z^1 = z and z^n = z^(n-1) * z."""
    return power(_ATOM, n)


def plenary_power(n: int) -> Monomial:
    """z^[n] with z^[1] = z and z^[n] = z^[n-1] * z^[n-1]; degree 2^(n-1)."""
    if n < 1:
        raise ValueError(f"plenary index must be >= 1, got {n}")
    out = _ATOM
    for _ in range(n - 1):
        out = Monomial(out, out)
    return out


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
        out = self.factor()
        while self.peek() == "*":
            self.i += 1
            out = product(out, self.factor())
        return out

    def factor(self) -> Monomial:
        out = self.primary()
        while self.peek() == "^":
            self.i += 1
            if self.peek() == "[":
                self.i += 1
                n = self.integer()
                self.expect("]")
                base = out
                for _ in range(n - 1):
                    base = product(base, base)
                out = base
            else:
                out = power(out, self.integer())
        return out

    def primary(self) -> Monomial:
        tok = self.peek()
        if tok == "z":
            self.i += 1
            return _ATOM
        if tok == "(":
            self.i += 1
            out = self.expression()
            self.expect(")")
            return out
        raise MonomialSyntaxError("expected 'z' or '('", self.pos())


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
    if m.is_atom:
        return "z"
    n = m.degree
    if m == principal_power(n):
        return f"z^{n}"
    if n & (n - 1) == 0 and m == plenary_power(n.bit_length()):
        return f"z^[{n.bit_length()}]"

    def child(c: Monomial) -> str:
        s = format_monomial(c)
        return f"({s})" if "*" in s else s

    return f"{child(m.left)}*{child(m.right)}"


# --- enumeration ------------------------------------------------------------

_enum_cache: dict[int, tuple[Monomial, ...]] = {1: (_ATOM,)}


def _enumerate(d: int) -> tuple[Monomial, ...]:
    if d not in _enum_cache:
        out = set()
        for a in range(1, d // 2 + 1):
            for ma in _enumerate(a):
                for mb in _enumerate(d - a):
                    out.add(product(ma, mb))
        _enum_cache[d] = tuple(sorted(out, key=lambda m: m._key))
    return _enum_cache[d]


def enumerate_monomials(d: int, max_degree: int = MAX_ENUMERATION_DEGREE) -> list[Monomial]:
    """All distinct canonical monomials of degree d, in canonical order.

    Counts are the Wedderburn-Etherington numbers 1, 1, 1, 2, 3, 6, 11, 23, ...
    The guard `max_degree` exists because the counts grow super-exponentially.
    """
    if not 1 <= d <= max_degree:
        raise ValueError(f"degree must be in 1..{max_degree}, got {d}")
    return list(_enumerate(d))


def leaves_inorder(m: Monomial) -> Iterator[Monomial]:
    """Leaves in left-to-right order (used by the linearization machinery)."""
    if m.is_atom:
        yield m
    else:
        yield from leaves_inorder(m.left)
        yield from leaves_inorder(m.right)
