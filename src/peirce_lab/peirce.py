"""Peirce polynomials and Peirce symbols of nonassociative monomials.

The two central recursions, over the canonical binary-tree form:

  rho(z) = 1,            rho(m1*m2, q) = q*(rho(m1, q) + rho(m2, q))
  sym(z) = 0,            sym(m1*m2)    = p*(sym(m1) + sym(m2))
                                         + rho(m1, a)*rho(m2, b)
                                         + rho(m1, b)*rho(m2, a)

Both run in integers on exponent dicts (`_rho_ints`, `_symbol_ints`) as
`magma.fold`s, memoized per monomial, since shared subtrees recur heavily in
enumeration and identity evaluation; `peirce_poly` and `peirce_symbol` build
one exact polynomial from the result, and `identities` sums the integer
forms of an identity's monomials over one denominator.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .magma import Monomial, atom, fold
from .poly import Poly1, Poly3, _make, divide_exact

__all__ = [
    "peirce_poly",
    "peirce_symbol",
    "principal_peirce_closed",
    "plenary_peirce_closed",
    "principal_symbol_closed",
    "plenary_symbol_closed",
    "half_specialization",
    "total_peirce_value",
]


# Memos of the two recursions, keyed by monomial, each seeded with the atom
# as `magma.fold` requires.
_rho_cache: dict[Monomial, dict[int, int]] = {atom(): {0: 1}}
_symbol_cache: dict[Monomial, dict[tuple[int, int, int], int]] = {atom(): {}}


def _rho_step(m: Monomial, left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    out = {e + 1: c for e, c in left.items()}
    for e, c in right.items():
        out[e + 1] = out.get(e + 1, 0) + c
    return out


def _rho_ints(m: Monomial) -> dict[int, int]:
    """rho(m) as {exponent of t: coefficient}; the coefficients are integers."""
    return fold(m, _rho_cache, _rho_step)


def _symbol_step(m: Monomial, left: dict, right: dict) -> dict[tuple[int, int, int], int]:
    out = {(ea, eb, ep + 1): c for (ea, eb, ep), c in left.items()}
    for (ea, eb, ep), c in right.items():
        k = (ea, eb, ep + 1)
        out[k] = out.get(k, 0) + c
    # rho(left, a)*rho(right, b) + rho(left, b)*rho(right, a): a term and its a <-> b swap
    rho_right = _rho_ints(m.right).items()
    for e1, c1 in _rho_ints(m.left).items():
        for e2, c2 in rho_right:
            c = c1 * c2
            for k in ((e1, e2, 0), (e2, e1, 0)):
                out[k] = out.get(k, 0) + c
    return out


def _symbol_ints(m: Monomial) -> dict[tuple[int, int, int], int]:
    """sym(m) as {(exponents of a, b, p): coefficient}, in integers.

    The p-shifted part has p-exponent >= 1 and the cross terms have 0, so the
    two never share a key.
    """
    return fold(m, _symbol_cache, _symbol_step)


@functools.cache
def peirce_poly(m: Monomial) -> Poly1:
    """rho(m, t): 1 on the generator, t*(rho(left) + rho(right)) on products."""
    return _make(Poly1.VARS, {(e,): Fraction(c) for e, c in _rho_ints(m).items()})


@functools.cache
def peirce_symbol(m: Monomial) -> Poly3:
    """The trivariate symbol in (a, b, p); symmetric under a <-> b."""
    return _make(Poly3.VARS, {k: Fraction(c) for k, c in _symbol_ints(m).items()})


def principal_peirce_closed(n: int) -> Poly1:
    """rho(z^n, q) = (2q^n - q^(n-1) - q)/(q - 1), as an exact quotient."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    numerator = Poly1({n: 2, n - 1: -1}) + Poly1({1: -1})
    return divide_exact(numerator, Poly1({1: 1, 0: -1}))


def plenary_peirce_closed(n: int) -> Poly1:
    """rho(z^[n], q) = (2q)^(n-1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Poly1({n - 1: 2 ** (n - 1)})


def _divided_difference(f: Poly1, x: str | Fraction) -> Poly3:
    """(f(p) - f(x)) / (p - x), for x the name of a variable or a value."""
    if isinstance(x, str):
        fx, x = Poly3.from_poly1(f, x), Poly3.var(x)
    else:
        fx = f(x)
    return divide_exact(Poly3.from_poly1(f, "p") - fx, Poly3.var("p") - x, "p")


def principal_symbol_closed(n: int) -> Poly3:
    """Symbol of z^n via divided differences of the principal rho."""
    rho = principal_peirce_closed(n)
    return (
        _divided_difference(rho, "a")
        + _divided_difference(rho, "b")
        - _divided_difference(rho, Fraction(1, 2))
    )


def plenary_symbol_closed(n: int) -> Poly3:
    """Symbol of z^[n]: 2^(n-1) * (p^(n-1) - (2ab)^(n-1)) / (p - 2ab)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    two_ab = Poly3.var("a") * Poly3.var("b") * 2
    numerator = Poly3.var("p") ** (n - 1) - two_ab ** (n - 1)
    return numerator.div_linear("p", two_ab) * 2 ** (n - 1)


def half_specialization(m: Monomial) -> Poly3:
    """(rho(m, p) - rho(m, a)) / (p - a); equals the symbol at b = 1/2."""
    return _divided_difference(peirce_poly(m), "a")


def total_peirce_value(m: Monomial, leaf_values: Sequence[Fraction], q: Fraction) -> Fraction:
    """Symmetrized Peirce operator value: (deg-1)! * sum(leaves) * rho(m, q)."""
    if len(leaf_values) != m.degree:
        raise ValueError(f"expected {m.degree} leaf values, got {len(leaf_values)}")
    total = sum((Fraction(v) for v in leaf_values), Fraction(0))
    return math.factorial(m.degree - 1) * total * peirce_poly(m)(q)
