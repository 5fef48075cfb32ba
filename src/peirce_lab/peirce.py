"""Peirce polynomials and Peirce symbols of nonassociative monomials.

The two central recursions, over the canonical binary-tree form:

  rho(z) = 1,            rho(m1*m2, q) = q*(rho(m1, q) + rho(m2, q))
  sym(z) = 0,            sym(m1*m2)    = p*(sym(m1) + sym(m2))
                                         + rho(m1, a)*rho(m2, b)
                                         + rho(m1, b)*rho(m2, a)

Both run in integers on exponent dicts (`_rho_ints`, `_symbol_ints`) as
`magma.fold`s over a memo that lives for one call, so each shared subtree is
folded once and no monomial outlives its caller; the symbol fold carries
(rho, sym) pairs, so a node reads its children's rho from them.
`peirce_poly` and `peirce_symbol` build one exact polynomial from the
result, and `identities` sums the integer forms of an identity's monomials
over one denominator, with one memo for all of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .magma import Monomial, atom, fold
from .poly import Poly, Poly1, Poly3, _cleared_coeffs, _make

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


def _rho_step(m: Monomial, left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    out = {e + 1: c for e, c in left.items()}
    for e, c in right.items():
        out[e + 1] = out.get(e + 1, 0) + c
    return out


def _rho_ints(m: Monomial, memo: dict) -> dict[int, int]:
    """rho(m) as {exponent of t: coefficient}; the coefficients are integers.

    `memo` maps the subtrees folded so far to their rho; a caller passes a
    new dict per call, or one dict to share subtrees between monomials.
    """
    memo.setdefault(atom(), {0: 1})
    return fold(m, memo, _rho_step)


def _symbol_step(m: Monomial, left: tuple, right: tuple) -> tuple[dict, dict]:
    (rho_left, sym_left), (rho_right, sym_right) = left, right
    out = {(ea, eb, ep + 1): c for (ea, eb, ep), c in sym_left.items()}
    for (ea, eb, ep), c in sym_right.items():
        k = (ea, eb, ep + 1)
        out[k] = out.get(k, 0) + c
    # rho(left, a)*rho(right, b) + rho(left, b)*rho(right, a): a term and its a <-> b swap
    rho_right_items = rho_right.items()
    for e1, c1 in rho_left.items():
        for e2, c2 in rho_right_items:
            c = c1 * c2
            for k in ((e1, e2, 0), (e2, e1, 0)):
                out[k] = out.get(k, 0) + c
    return _rho_step(m, rho_left, rho_right), out


def _symbol_ints(m: Monomial, memo: dict) -> dict[tuple[int, int, int], int]:
    """sym(m) as {(exponents of a, b, p): coefficient}, in integers.

    `memo` maps the subtrees folded so far to their (rho, sym) pair, as in
    `_rho_ints`.  The p-shifted part has p-exponent >= 1 and the cross terms
    have 0, so the two never share a key.
    """
    memo.setdefault(atom(), ({0: 1}, {}))
    return fold(m, memo, _symbol_step)[1]


def peirce_poly(m: Monomial) -> Poly1:
    """rho(m, t): 1 on the generator, t*(rho(left) + rho(right)) on products."""
    return _make(Poly1.VARS, {(e,): c for e, c in _rho_ints(m, {}).items()})


def peirce_symbol(m: Monomial) -> Poly3:
    """The trivariate symbol in (a, b, p); symmetric under a <-> b."""
    return _make(Poly3.VARS, _symbol_ints(m, {}))


def _divided_difference(f: Poly1, x: Fraction | Poly3, p: Poly) -> Poly:
    """(f(p) - f(x)) / (p - x) for x a value or a polynomial in a and b, in the
    variable p: Poly3.var("p") or Poly1.t().  Synthetic division, dividing
    nothing: sum b_i * p^i with b_(n-1) = f_n and b_(i-1) = x * b_i + f_i."""
    ints, den = _cleared_coeffs(f)
    out, b = p * 0, 0
    for c in reversed(ints[1:]):  # b_(n-1), ..., b_0, summed in p by Horner
        b = b * x + c
        out = out * p + b
    return out * Fraction(1, den)


def principal_peirce_closed(n: int) -> Poly1:
    """rho(z^n, q) = (2q^n - q^(n-1) - q)/(q - 1): the numerator vanishes at 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = Poly1.t()
    return _divided_difference(2 * t**n - t ** (n - 1) - t, 1, t)


def plenary_peirce_closed(n: int) -> Poly1:
    """rho(z^[n], q) = (2q)^(n-1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Poly1({n - 1: 2 ** (n - 1)})


def _principal_symbol(rho: Poly1) -> Poly3:
    """Delta(rho; a) + Delta(rho; b) - Delta(rho; 1/2): the symbol of a sum
    of principal powers with Peirce polynomial rho."""
    a, b, p = map(Poly3.var, Poly3.VARS)
    return sum(_divided_difference(rho, x, p) for x in (a, b)) - _divided_difference(rho, Fraction(1, 2), p)


def _plenary_symbol(rho: Poly1) -> Poly3:
    """Delta(rho; 2ab): the symbol of a sum of plenary powers with Peirce
    polynomial rho."""
    return _divided_difference(rho, Poly3.var("a") * Poly3.var("b") * 2, Poly3.var("p"))


def principal_symbol_closed(n: int) -> Poly3:
    """Symbol of z^n via divided differences of the principal rho."""
    return _principal_symbol(principal_peirce_closed(n))


def plenary_symbol_closed(n: int) -> Poly3:
    """Symbol of z^[n]: 2^(n-1) * (p^(n-1) - (2ab)^(n-1)) / (p - 2ab)."""
    return _plenary_symbol(plenary_peirce_closed(n))


def half_specialization(m: Monomial) -> Poly3:
    """(rho(m, p) - rho(m, a)) / (p - a); equals the symbol at b = 1/2."""
    return _divided_difference(peirce_poly(m), Poly3.var("a"), Poly3.var("p"))


def total_peirce_value(m: Monomial, leaf_values: Sequence[Fraction], q: Fraction) -> Fraction:
    """Symmetrized Peirce operator value: (deg-1)! * sum(leaves) * rho(m, q)."""
    if len(leaf_values) != m.degree:
        raise ValueError(f"expected {m.degree} leaf values, got {len(leaf_values)}")
    total = sum((Fraction(v) for v in leaf_values), Fraction(0))
    return math.factorial(m.degree - 1) * total * peirce_poly(m)(q)
