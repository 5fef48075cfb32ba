"""Peirce polynomials and symbols: goldens, specializations, closed forms."""

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from peirce_lab import peirce
from peirce_lab.magma import (
    atom,
    enumerate_monomials,
    parse_monomial,
    plenary_power,
    principal_power,
    product,
)
from peirce_lab.peirce import (
    half_specialization,
    peirce_poly,
    peirce_symbol,
    plenary_peirce_closed,
    plenary_symbol_closed,
    principal_peirce_closed,
    principal_symbol_closed,
    total_peirce_value,
)
from peirce_lab.poly import Poly1, Poly3

import reference
from reference import random_monomial

HALF = Fraction(1, 2)


def test_peirce_poly_goldens():
    t = Poly1.t()
    assert peirce_poly(atom()) == Poly1.const(1)
    assert peirce_poly(parse_monomial("z^2")) == 2 * t
    assert peirce_poly(parse_monomial("z^3")) == 2 * t**2 + t
    assert peirce_poly(parse_monomial("z^4")) == 2 * t**3 + t**2 + t
    assert peirce_poly(parse_monomial("z^2*z^2")) == 4 * t**2
    for n in range(1, 8):
        assert peirce_poly(plenary_power(n)) == Poly1({n - 1: 2 ** (n - 1)})


def test_peirce_symbol_goldens():
    a, b, p = Poly3.var("a"), Poly3.var("b"), Poly3.var("p")
    assert peirce_symbol(atom()) == Poly3.zero()
    assert peirce_symbol(parse_monomial("z^2")) == 2 * Poly3.const(1)
    assert peirce_symbol(parse_monomial("z^3")) == 2 * (p + a + b)
    assert peirce_symbol(parse_monomial("z^2*z^2")) == 4 * p + 8 * a * b
    assert (
        peirce_symbol(parse_monomial("z^4"))
        == 2 * p**2 + 2 * p * (a + b) + 2 * a**2 + 2 * b**2 + a + b
    )


def test_specializations_full_enumeration_to_degree_8():
    for d in range(1, 9):
        for m in enumerate_monomials(d):
            rho = peirce_poly(m)
            assert rho(Fraction(1)) == d
            assert rho(HALF) == 1
            assert rho(Fraction(0)) == (1 if d == 1 else 0)
            # coefficient of t^e counts leaves at depth e: a positive
            # integer bounded by 2^e whenever nonzero
            for e in range(rho.degree + 1):
                c = rho.coeff(e)
                if c:
                    assert c.denominator == 1
                    assert 0 < c.numerator <= 2**e


def test_specializations_random_to_degree_12():
    rng = random.Random(1234)
    for _ in range(500):
        d = rng.randint(1, 12)
        m = random_monomial(d, rng)
        rho = peirce_poly(m)
        assert rho(Fraction(1)) == d
        assert rho(HALF) == 1
        assert rho(Fraction(0)) == (1 if d == 1 else 0)


def test_symbol_symmetric_in_a_b():
    for d in range(1, 8):
        for m in enumerate_monomials(d):
            coeffs = peirce_symbol(m).coeffs
            assert coeffs == {(b, a, p): c for (a, b, p), c in coeffs.items()}


def test_half_specialization_identity_to_degree_8():
    # (rho(p) - rho(a)) / (p - a) == symbol at b = 1/2, exactly
    for d in range(1, 9):
        for m in enumerate_monomials(d):
            assert half_specialization(m) == peirce_symbol(m).substitute("b", HALF)


def test_principal_closed_forms():
    for n in range(1, 11):
        assert principal_peirce_closed(n) == peirce_poly(principal_power(n))
        assert principal_symbol_closed(n) == peirce_symbol(principal_power(n))


def test_plenary_closed_forms():
    for n in range(1, 11):
        assert plenary_peirce_closed(n) == peirce_poly(plenary_power(n))
        assert plenary_symbol_closed(n) == peirce_symbol(plenary_power(n))


def test_closed_form_guards():
    for fn in (principal_peirce_closed, plenary_peirce_closed, plenary_symbol_closed):
        with pytest.raises(ValueError):
            fn(0)


def _labeled_rho_value(m, labels, q):
    """The recursion of rho with weighted leaves: leaf i is worth labels[i],
    and m1 m2 is worth q (value(m1) + value(m2))."""
    it = iter(labels)

    def walk(node):
        if node.is_atom:
            return next(it)
        return q * (walk(node.left) + walk(node.right))

    return walk(m)


def test_total_peirce_value_vs_permutation_oracle():
    rng = random.Random(7)
    q = Fraction(1, 3)
    for _ in range(30):
        d = rng.randint(2, 6)
        m = random_monomial(d, rng)
        leaves = [Fraction(rng.randint(-5, 5)) for _ in range(d)]
        # sum of the leaf-weighted recursion over all orderings of the labels
        brute = sum(
            _labeled_rho_value(m, perm, q) for perm in itertools.permutations(leaves)
        )
        assert total_peirce_value(m, leaves, q) == brute


def test_total_peirce_value_validates_length():
    with pytest.raises(ValueError):
        total_peirce_value(principal_power(3), [Fraction(1)], Fraction(1))


@settings(max_examples=50)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=9))
def test_product_recursion_property(d_left, d_right):
    rng = random.Random(d_left * 31 + d_right)
    m1 = random_monomial(d_left, rng)
    m2 = random_monomial(d_right, rng)
    m = product(m1, m2)
    t = Poly1.t()
    assert peirce_poly(m) == t * (peirce_poly(m1) + peirce_poly(m2))


# --- the recursions against their definitions in reference ------------------------


def test_integer_recursions_match_fraction_oracles_to_degree_10():
    for d in range(1, 11):
        for m in enumerate_monomials(d):
            rho, sym = peirce_poly(m), peirce_symbol(m)
            assert rho == reference.rho(m)
            assert sym == reference.symbol(m)
            # coefficients are stored as Fractions, like every Poly's
            assert all(type(c) is Fraction for c in (*rho.coeffs.values(), *sym.coeffs.values()))


@settings(max_examples=60)
@given(st.integers(min_value=11, max_value=40), st.randoms(use_true_random=False))
def test_integer_recursions_match_fraction_oracles_random(degree, rng):
    m = random_monomial(degree, rng)
    assert peirce_poly(m) == reference.rho(m)
    assert peirce_symbol(m) == reference.symbol(m)


# --- per-call memos --------------------------------------------------------------


def _product_nodes(m):
    seen, stack = set(), [m]
    while stack:
        node = stack.pop()
        if not node.is_atom and node not in seen:
            seen.add(node)
            stack += [node.left, node.right]
    return seen


def test_a_monomial_is_freed_after_the_recursions():
    m = parse_monomial("z^37*z^[5]")
    ref = weakref.ref(m)
    peirce_poly(m)
    peirce_symbol(m)
    del m
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("fn, name", [(peirce_poly, "_rho_step"), (peirce_symbol, "_symbol_step")])
def test_every_call_folds_every_product_node_once(monkeypatch, fn, name):
    m = parse_monomial("(z^5*z^[3])*z^4")
    step, calls = getattr(peirce, name), []
    monkeypatch.setattr(peirce, name, lambda node, l, r: calls.append(node) or step(node, l, r))
    for _ in range(2):
        calls.clear()
        fn(m)
        assert len(calls) == len(set(calls)) and set(calls) == _product_nodes(m)
