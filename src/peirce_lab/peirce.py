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

Only `_zero_rows` (the fusion grid) and `_symbol_at` (the second linearization's
slice in p) read the layout of the symbol's int dict, to evaluate it at eigenvalues.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .magma import Monomial, atom, fold
from .poly import Poly, Poly1, Poly3, _cleared_coeffs, _collect, _horner_hom, _integer, _make, _rational

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


def _zero_rows(y: dict, fracs: Sequence[tuple[int, int]]) -> bytes:
    """One byte per (i, j >= i, k) in grid order, 1 where Y(lam_i, lam_j, lam_k)
    is 0 and 0 elsewhere, for y the int dict {(a, b, p): c} of D*Y and
    fracs[k] = (p_k, q_k), lam_k = p_k/q_k in lowest terms with q_k > 0.

    Y is packed at the eigenvalues in b and p at once: each a^e of D*Y becomes
    one int with slot (j, k), w bits at bit w*(n*j + k), holding
    q_j^d q_k^dp times the a^e coefficient at (lam_j, lam_k).  One homogeneous
    Horner pass in a at lam_i then gives row i, slot (j, k) holding
    (q_i q_j)^d q_k^dp Y(lam_i, lam_j, lam_k), at most sum |c| M^(2d+dp) <
    2^(w-1) in size, M the largest |num| or den.  With 2^(w-1) added to each
    slot and XORed back, a slot is zero exactly when Y is; its w bits are ORed
    into its lowest one, and the row's lowest bits are read as one byte per
    slot.
    """
    d = max((k[0] for k in y), default=0)  # Y is symmetric in a and b
    dp = max((k[2] for k in y), default=0)
    m, n = max(max(-p, p, q) for p, q in fracs), len(fracs)
    nbytes = (sum(map(abs, y.values())) * m ** (2 * d + dp)).bit_length() // 8 + 1
    w = 8 * nbytes
    at_b = [sum(p**e * q ** (d - e) << w * n * j for j, (p, q) in enumerate(fracs)) for e in range(d + 1)]
    at_p = [sum(p**e * q ** (dp - e) << w * k for k, (p, q) in enumerate(fracs)) for e in range(dp + 1)]
    by_ab = [[0] * (d + 1) for _ in range(d + 1)]
    for (ea, eb, ep), c in y.items():
        by_ab[ea][eb] += c * at_p[ep]
    packed = [sum(map(mul, row, at_b)) for row in by_ab]  # one int per power of a
    low = ((1 << w * n * n) - 1) // ((1 << w) - 1)  # the lowest bit of every slot
    offset = low << w - 1
    smear, span = [], 1  # shifts that OR bits 0..w-1 of a slot into bit 0, and no further
    while span < w:
        smear.append(min(span, w - span))
        span += smear[-1]
    rows = []
    for i, (p, q) in enumerate(fracs):
        start = w * n * i  # the slots of j >= i
        v = ((_horner_hom(packed, p, q) + offset) ^ offset) >> start  # a slot is 0 where Y is
        for s in smear:
            v |= v >> s
        rows.append((~v & low >> start).to_bytes((n - i) * n * nbytes, "little")[::nbytes])
    return b"".join(rows)


def _symbol_at(y: dict, lam: Fraction, mu: Fraction) -> tuple[list[int], int]:
    """(s * Y(lam, mu, p) as dense ints in p, lowest first, padded to the top
    power of p in y; s = (q_lam q_mu)^d) for y the int dict {(a, b, p): c} of
    Y, q_v the denominator of v and d the top power of a in y.  a is put in
    by one pass over the terms, b by one homogeneous Horner pass per power of p."""
    d = max((k[0] for k in y), default=0)  # Y is symmetric in a and b
    p, q = lam.numerator, lam.denominator
    powers = [p**e * q ** (d - e) for e in range(d + 1)]  # q^d * lam^e
    at_a = [[0] * (d + 1) for _ in range(max((k[2] for k in y), default=0) + 1)]  # b-coefficients per power of p
    for (ea, eb, ep), c in y.items():
        at_a[ep][eb] += c * powers[ea]
    p, q = mu.numerator, mu.denominator
    return [_horner_hom(row, p, q) for row in at_a], (lam.denominator * q) ** d


def _divided_difference(f: Poly1, x: Fraction | Poly3, p: Poly) -> Poly:
    """(f(p) - f(x)) / (p - x) for x a value or a polynomial in a and b, in the
    variable p: Poly3.var("p") or Poly1.t().  Synthetic division, dividing
    nothing: sum b_i * p^i with b_(n-1) = f_n and b_(i-1) = x * b_i + f_i."""
    ints, den = _cleared_coeffs(f)
    (unit,) = p._ints  # the exponents of p
    terms, b = [], p * 0
    for i in reversed(range(len(ints) - 1)):  # b_(n-1), ..., b_0; the b_i * p^i summed once
        b = b * x + ints[i + 1]
        terms += [(tuple(e + i * u for e, u in zip(k, unit)), c) for k, c in b.coeffs.items()]
    return _collect(p.vars, terms, den)


def principal_peirce_closed(n: int) -> Poly1:
    """rho(z^n, q) = (2q^n - q^(n-1) - q)/(q - 1): the numerator vanishes at 1."""
    _integer(n, "n", 1)
    t = Poly1.t()
    return _divided_difference(2 * t**n - t ** (n - 1) - t, 1, t)


def plenary_peirce_closed(n: int) -> Poly1:
    """rho(z^[n], q) = (2q)^(n-1)."""
    return Poly1({_integer(n, "n", 1) - 1: 2 ** (n - 1)})


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
    total = sum(map(_rational, leaf_values), Fraction(0))
    return math.factorial(m.degree - 1) * total * peirce_poly(m)(q)
