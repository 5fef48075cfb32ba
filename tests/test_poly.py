"""Exact polynomial arithmetic: ring axioms, division, rational roots."""

import copy
import pickle
import time
from fractions import Fraction
from itertools import accumulate, compress
from unittest import mock
from math import gcd, isqrt, lcm, prod
from operator import add, ne

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from peirce_lab import identities
from peirce_lab.algebras import StructureAlgebra, build_algebra, eigen_decomposition, verify_second_linearization
from peirce_lab.identities import (
    IdentityTerm,
    WeightedIdentity,
    catalog,
    fusion_table,
    identity_peirce_poly,
    identity_symbol,
    make_identity,
    spectrum,
)
from peirce_lab.magma import atom, enumerate_monomials, principal_power
from peirce_lab import poly
from peirce_lab.peirce import _divided_difference, total_peirce_value
from peirce_lab.poly import (
    Poly1,
    Poly3,
    RationalSyntaxError,
    _cleared_coeffs,
    _horner_hom,
    format_rational,
    parse_rational,
    rational_roots,
)

import reference
from caches import clear_identity_caches

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def poly1s(max_degree=5):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_degree), rationals, max_size=4
    ).map(Poly1)


def poly3s(max_exp=2):
    exponents = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * 3)
    return st.dictionaries(exponents, rationals, max_size=4).map(Poly3)


def test_rational_round_trip():
    for s, v in [("3", Fraction(3)), ("-1/2", Fraction(-1, 2)), ("0", Fraction(0)), ("0.1", Fraction(1, 10))]:
        assert parse_rational(s) == v
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


@pytest.mark.parametrize("text", ["1e50000000", "1E50000000", " -2.5e+50000000 ", ".5e-50000000", "1_0e5_0000000"])
def test_parse_rational_refuses_exponent_notation_before_fraction_reads_it(text):
    # Fraction(text) would build an integer of about 166 million bits; the
    # entry points that take number text read it through parse_rational
    t = Poly1.t()
    for read in (parse_rational, lambda s: Poly1({0: s}), t, lambda s: t.substitute("t", s),
                 lambda s: total_peirce_value(atom(), [s], 1)):
        start = time.perf_counter()
        with pytest.raises(RationalSyntaxError) as exc:
            read(text)
        assert str(exc.value) == f"exponent notation in {text!r}"
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("value, kind", [(0.1, "float"), (True, "bool")])
def test_number_entry_points_refuse_floats_and_bools(value, kind):
    # Fraction(0.1) is 3602879701896397/2^55 and Fraction(True) is 1; the
    # catalog refuses both, and so does every other entry point that reads a number
    t, alg, z3 = Poly1.t(), build_algebra("jordan_sym2"), principal_power(3)
    reads = {
        "make_identity": lambda v: make_identity([(v, principal_power(2)), (-1, atom())]),
        "StructureAlgebra": lambda v: StructureAlgebra(1, (((v,),),)),
        "Poly": lambda v: Poly1({1: v}),
        "Poly.__call__": t,
        "substitute": lambda v: t.substitute("t", v),
        "total_peirce_value": lambda v: total_peirce_value(atom(), [v], 1),
        "IdentityTerm": lambda v: IdentityTerm(v, atom()),
        "WeightedIdentity": lambda v: WeightedIdentity((IdentityTerm(v, principal_power(2)), IdentityTerm(-v, atom()))),
        "verify_second_linearization lam": lambda v: verify_second_linearization(alg, alg.idempotents[0], z3, v, 0),
        "verify_second_linearization mu": lambda v: verify_second_linearization(alg, alg.idempotents[0], z3, 0, v),
    }
    for name, read in reads.items():
        with pytest.raises(TypeError) as exc:
            read(value)
        assert str(exc.value) == f"expected an int, a Fraction or text, not the {kind} {value!r}", name


def test_poly_arithmetic_refuses_a_bool_and_still_compares_with_one():
    # t + True used to be t + 1, t * True and t ** True to be t and t.coeff(True)
    # and t.coeff((True,)) the coefficient of t; == keeps answering
    t = Poly1.t()
    combine = [add, lambda f, g: f - g, lambda f, g: f * g]
    for op in combine:
        for args in ((t, True), (True, t), (t, False)):
            with pytest.raises(TypeError) as exc:
                op(*args)
            assert str(exc.value).startswith("expected an int, a Fraction or text, not the bool ")
        with pytest.raises(TypeError, match="^cannot combine a polynomial with float$"):
            op(t, 0.5)
    for read in (lambda: t**True, lambda: t**False, lambda: t.coeff(True), lambda: t.coeff(False),
                 lambda: t.coeff((True,)), lambda: Poly3.var("a").coeff((1, False, 0))):
        with pytest.raises(TypeError, match="^expected an int, a Fraction or text, not the bool "):
            read()
    assert Poly1.const(1) == True and Poly1.zero() == False and t != True  # noqa: E712
    assert hash(Poly1.const(1)) == hash(True)


def test_poly_sums_the_terms_of_keys_that_name_one_exponent():
    # 2 and (2,) are both t^2: the later one used to replace the earlier
    t = Poly1.t()
    assert Poly1({2: 1, (2,): 3}) == 4 * t**2
    assert Poly1({(0,): 5, 0: -5, 1: 1}) == t


def test_poly1_basics():
    t = Poly1.t()
    f = 2 * t**2 + t
    assert f(Fraction(3)) == 21
    assert f.degree == 2
    assert f.coeff(1) == 1
    assert f.coeff(5) == 0
    assert Poly1.zero().is_zero
    assert Poly1.zero().degree == -1
    assert f.render() == "2*t^2 + t"
    assert Poly1.zero().render() == "0"


def test_poly1_derivative():
    t = Poly1.t()
    assert (t**3).derivative() == 3 * t**2
    assert Poly1.const(5).derivative().is_zero


@given(poly1s(), poly1s(), poly1s())
def test_poly1_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Poly1.zero() == f
    assert f * Poly1.const(1) == f
    assert f - f == Poly1.zero()


@given(poly1s(), poly1s(), rationals)
def test_poly1_evaluation_homomorphism(f, g, x):
    assert (f + g)(x) == f(x) + g(x)
    assert (f * g)(x) == f(x) * g(x)


def test_rational_roots_examples():
    t = Poly1.t()
    # t(2t - 1)(t - 1)
    roots, residual = rational_roots(2 * t**3 - 3 * t**2 + t)
    assert roots == [(Fraction(0), 1), (Fraction(1, 2), 1), (Fraction(1), 1)]
    assert residual.degree == 0
    # 2(2t - 1)(2t + 1)(t + 1)
    roots, residual = rational_roots(8 * t**3 + 8 * t**2 - 2 * t - 2)
    assert roots == [(Fraction(-1), 1), (Fraction(-1, 2), 1), (Fraction(1, 2), 1)]
    assert residual.degree == 0
    # irreducible quadratic leaves a residual
    roots, residual = rational_roots(t**2 - 2)
    assert roots == []
    assert residual == t**2 - 2
    # multiplicity
    roots, _ = rational_roots((t - 1) ** 3 * (t + 2))
    assert roots == [(Fraction(-2), 1), (Fraction(1), 3)]


@given(st.lists(rationals, min_size=1, max_size=4))
def test_rational_roots_reconstruct(root_list):
    t = Poly1.t()
    f = Poly1.const(1)
    for r in root_list:
        f = f * (t - Poly1.const(r))
    roots, residual = rational_roots(f)
    assert residual.degree == 0
    rebuilt = Poly1.const(residual.coeff(0))
    for r, m in roots:
        rebuilt = rebuilt * (t - Poly1.const(r)) ** m
    assert rebuilt == f


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    small_rationals.filter(bool),
    st.integers(min_value=2, max_value=3),
    st.lists(small_rationals, max_size=2),
    poly1s(max_degree=3).filter(lambda g: not g.is_zero),
)
def test_rational_roots_match_fraction_evaluation(zero_mult, repeated, mult, others, extra):
    """A root at 0, a repeated root, more planted roots and a cofactor with
    rational coefficients that may or may not have rational roots."""
    t = Poly1.t()
    f = t**zero_mult * (t - repeated) ** mult * extra
    for r in others:
        f = f * (t - r)
    assert rational_roots(f) == reference.rational_roots(f)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-10**6, max_value=10**6, max_denominator=50),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=4,
    ),
    poly1s(max_degree=3).filter(lambda g: not g.is_zero),
)
def test_rational_roots_of_planted_roots_times_a_cofactor(planted, cofactor):
    """Planted roots with numerators up to 10^6 and denominators up to 50,
    times a small cofactor whose roots the definitional oracle finds."""
    t = Poly1.t()
    f = cofactor
    expected, residual = reference.rational_roots(cofactor)
    mult = dict(expected)
    for r, m in planted:
        f = f * (t - r) ** m
        mult[r] = mult.get(r, 0) + m
    assert rational_roots(f) == (sorted(mult.items()), residual)


# --- the Descartes bisection that rational_roots used before p-adic lifting,
# kept as an oracle


def _taylor_shift(a: list[int]) -> list[int]:
    """The coefficients of a(x + 1): n running sums over the reversed list."""
    b = a[::-1]
    for m in range(len(b), 1, -1):
        b[:m] = accumulate(b[:m])
    return b[::-1]


def _sign_changes(a: list[int]) -> int:
    signs = [c > 0 for c in a if c]
    return sum(map(ne, signs, signs[1:]))


def _floor_shift(x: int, j: int) -> int:
    """floor(x / 2^j); j may be negative."""
    return x >> j if j >= 0 else x << -j


def _dyadic(num: int, j: int) -> Fraction:
    """num / 2^j; j may be negative."""
    return Fraction(num, 1 << j) if j >= 0 else Fraction(num << -j)


def _sign_at(f: list[int], num: int, j: int) -> int:
    """The sign of f(num / 2^j); j may be negative."""
    v = _horner_hom(f, num, 1 << j) if j >= 0 else _horner_hom(f, num << -j, 1)
    return (v > 0) - (v < 0)


# An interval with at most this many points of the grid (1/L) Z is decided by
# testing them all: a test is one Horner pass, cheaper than a bisection step.
_GRID_TESTS = 16


def _grid_roots(f: list[int], a: int, j: int, most: int) -> list[Fraction] | None:
    """The rational roots of f in (a / 2^j, (a + 1) / 2^j) if that interval
    holds at most `most` points of the grid (1/L) Z, L = |lc(f)|; else None.

    A rational root p/q of f has q | L, so it is such a point k/L, and
    `_horner_hom` tests each exactly.
    """
    lead = abs(f[-1])
    lo = _floor_shift(lead * a, j) + 1  # the least k with k/L > a / 2^j
    hi = -_floor_shift(-lead * (a + 1), j) - 1  # the greatest k with k/L < (a + 1) / 2^j
    if hi - lo >= most:
        return None
    return [Fraction(k, lead) for k in range(lo, hi + 1) if not _horner_hom(f, k, lead)]


def _snap(f: list[int], s: int, a: int, j: int) -> Fraction | None:
    """The root of f in (a / 2^j, (a + 1) / 2^j), an interval that holds
    exactly one root, a simple one, if that root is rational; else None.

    s is the sign of f just right of a.  The interval is halved by sign tests
    until it holds at most one grid point of `_grid_roots`.
    """
    while True:
        a, j = 2 * a, j + 1
        mid = _sign_at(f, a + 1, j)
        if not mid:
            return _dyadic(a + 1, j)
        if mid == s:
            a += 1
        roots = _grid_roots(f, a, j, 1)
        if roots is not None:
            return roots[0] if roots else None


def _positive_rational_roots(f: list[int]) -> list[Fraction]:
    """The distinct positive rational roots of f, where f(0) != 0.

    Every positive root is below B = 2^e, the least power of two at or above
    Fujiwara's bound 2 max (|a_i| / |lc|)^(1/(n-i)) over the coefficients a_i
    of sign opposite to the leading one.  Descartes bisection (Collins &
    Akritas) runs on p(x) = f(B x) over (0, 1).  The sign changes of p bound
    its roots in (0, oo), and those of (x + 1)^n p(1 / (x + 1)) its roots in
    (0, 1), both up to an even number; a half is 2^n p(x / 2) or its shift
    by 1.  An interval is dropped once `_grid_roots` decides it, so no
    interval gets narrower than about 1/L and repeated roots need no
    square-free part; one that isolates a root goes to `_snap`.
    """
    n, lead = len(f) - 1, abs(f[-1])
    opposite = [(n - i, abs(c)) for i, c in enumerate(f) if c * f[-1] < 0]
    if not opposite:
        return []

    def bounds(e: int) -> bool:  # every (|a_i| / |lc|)^(1/d) <= 2^(e-1)
        return all(c << max((1 - e) * d, 0) <= lead << max((e - 1) * d, 0) for d, c in opposite)

    e = 1 + max(-((lead.bit_length() - c.bit_length() - 1) // d) for d, c in opposite)
    while bounds(e - 1):
        e -= 1
    roots: list[Fraction] = []
    # p is a positive multiple of f(B x) moved onto (0, 1) from (c / 2^j, (c + 1) / 2^j),
    # and p(0) != 0
    stack = [([c << (e * i if e >= 0 else -e * (n - i)) for i, c in enumerate(f)], 0, -e)]
    while stack:
        p, c, j = stack.pop()
        grid = _grid_roots(f, c, j, _GRID_TESTS)
        if grid is not None:
            roots += grid
            continue
        changes = _sign_changes(p)
        if changes == 1:  # one root in (0, oo); in (0, 1) if p(0), p(1) differ
            changes = int(p[0] * sum(p) < 0)
        elif changes > 1:
            changes = _sign_changes(_taylor_shift(p[::-1]))
        if changes == 1:
            root = _snap(f, 1 if p[0] > 0 else -1, c, j)
            if root:
                roots.append(root)
        elif changes > 1:
            m = len(p) - 1
            left = [a << (m - i) for i, a in enumerate(p)]
            right = _taylor_shift(left)
            if not right[0]:
                roots.append(_dyadic(2 * c + 1, j + 1))
                while not right[0]:
                    del right[0]
            stack += ((right, 2 * c + 1, j + 1), (left, 2 * c, j + 1))
    return roots


def _rational_roots_by_bisection(f):
    """rational_roots with the positive roots of F(t) and of F(-t) found by
    `_positive_rational_roots`, F the integer form of f without its roots at 0."""
    ints, _ = _cleared_coeffs(f)
    rest = ints[next(e for e, c in enumerate(ints) if c) :]
    num = gcd(*rest)
    rest = [c // num for c in rest]
    found = [s * r for s in (1, -1) for r in _positive_rational_roots([s**e * c for e, c in enumerate(rest)])]
    return reference.divide_out_roots(f, [Fraction(0), *found])


def _primorial(n):
    """The product of the primes below n."""
    return prod(p for p in range(2, n) if all(p % d for d in range(2, isqrt(p) + 1)))


_PRIMORIAL_100 = _primorial(100)


@st.composite
def root_finding_inputs(draw):
    """t^z * prod (q t - p)^m * h with h an integer cofactor: roots at 0,
    repeated roots, planted roots k/L and (k + 1)/L side by side, 200-bit
    coefficients, and a leading coefficient divisible by every prime below
    100."""
    t = Poly1.t()
    f = t ** draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 3))):
        q = draw(st.one_of(st.integers(1, 12), st.integers(1, 2**40), st.just(_PRIMORIAL_100)))
        p = draw(st.one_of(st.integers(-3 * q, 3 * q), st.integers(-(2**200), 2**200)))
        f = f * (q * t - p) ** draw(st.integers(1, 3))
        if draw(st.booleans()):  # a neighbour on the same grid (1/q) Z
            f = f * (q * t - p - 1)
    coefficient = st.one_of(st.integers(-20, 20), st.integers(-(2**200), 2**200))
    cofactor = draw(st.lists(coefficient, min_size=1, max_size=4).filter(lambda c: c[-1]))
    if draw(st.booleans()):
        cofactor[-1] *= _PRIMORIAL_100
    return f * Poly1(dict(enumerate(cofactor))) * draw(small_rationals.filter(bool))


@settings(max_examples=150, deadline=None)
@given(root_finding_inputs())
@example((Poly1.t() - 1) ** 3 * (Poly1.t() - 144) * (Poly1.t() ** 2 - 2))
@example(_PRIMORIAL_100 * Poly1.t() ** 3 - 1)
def test_rational_roots_match_descartes_bisection(f):
    """p-adic lifting finds what Descartes bisection finds, and what the
    rational root theorem finds where its divisor lists stay small."""
    found = rational_roots(f)
    assert found == _rational_roots_by_bisection(f)
    ints, _ = _cleared_coeffs(f)
    low = next(c for c in ints if c)
    if abs(low) <= 5000 and abs(ints[-1]) <= 5000:
        assert found == reference.rational_roots(f)


def test_square_free_part_only_after_a_root_repeats_mod_p():
    """Roots simple mod 11 are lifted on f itself; the first prime with a
    repeated root replaces f by its square-free part, once per call, here
    for a cube and for 1 and 144 = 1 + 11 * 13, which meet mod 11 and 13."""
    t = Poly1.t()
    with mock.patch.object(poly, "_square_free", wraps=poly._square_free) as square_free:
        assert rational_roots((t - 1) * (t - 2) * (t**2 + 1)) == ([(Fraction(1), 1), (Fraction(2), 1)], t**2 + 1)
        assert square_free.call_count == 0
        for f, want in [
            ((3 * t - 2) ** 3 * (t**2 - 2), ([(Fraction(2, 3), 3)], 27 * (t**2 - 2))),
            ((t - 1) ** 2 * (t - 12) * (t**2 + 1), ([(Fraction(1), 2), (Fraction(12), 1)], t**2 + 1)),
            ((t - 1) ** 3 * (t - 144) * (t**2 - 2), ([(Fraction(1), 3), (Fraction(144), 1)], t**2 - 2)),
            ((t - 1) * (t - 144) * (t**2 - 2), ([(Fraction(1), 1), (Fraction(144), 1)], t**2 - 2)),
        ]:
            square_free.reset_mock()
            assert rational_roots(f) == want
            assert square_free.call_count == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-20, 20).filter(bool), min_size=1, max_size=3, unique=True),  # 0 is split off first
    st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
    st.sampled_from([Poly1.const(1), Poly1.t() ** 2 + 1, Poly1.t() ** 2 - 2, 3 * Poly1.t() ** 3 - 5]),
    small_rationals.filter(bool),
)
def test_rational_roots_where_distinct_roots_meet_mod_11_and_13(roots, steps, cofactor, scale):
    """Square-free products whose distinct roots k and k + 143 j meet mod 11
    and mod 13: the first two primes each see a repeated root."""
    t = Poly1.t()
    f = cofactor * scale
    for k in roots:
        for j in (0, *steps):
            f = f * (t - k - 143 * j)
    with mock.patch.object(poly, "_square_free", wraps=poly._square_free) as square_free:
        assert rational_roots(f) == _rational_roots_by_bisection(f)
    assert square_free.call_count == 1


_PRIMORIAL_1000 = _primorial(1000)
_ODD_PRIMORIAL_48 = _primorial(48) // 2  # 3 * 5 * 7 * ... * 47


_P61 = 2**61 - 1
_SEMIPRIME = 1000000007 * 998244353
_LCM40 = lcm(*range(1, 41))


def _adversarial_cases():
    """(f, roots, residual): f is content * prod (q t - p)^m * h with h free
    of rational roots, so the residual is content * prod q^m * h."""
    t = Poly1.t()
    return [
        (t**2 - _P61, [], t**2 - _P61),
        ((t - _P61) * (t + 1), [(Fraction(-1), 1), (Fraction(_P61), 1)], Poly1.const(1)),
        (t**2 - _SEMIPRIME, [], t**2 - _SEMIPRIME),
        (
            (1000000007 * t - 998244353) * (t**2 + t + 1),
            [(Fraction(998244353, 1000000007), 1)],
            1000000007 * (t**2 + t + 1),
        ),
        (t**2 - (10**14 + 31), [], t**2 - (10**14 + 31)),
        (
            (8 * t - 3) * (7 * t + 5) * (t**4 - _LCM40),
            [(Fraction(-5, 7), 1), (Fraction(3, 8), 1)],
            56 * (t**4 - _LCM40),
        ),
        (
            (1001 * t - 1000) * (1002 * t - 1001) * (t**2 + 1),
            [(Fraction(1000, 1001), 1), (Fraction(1001, 1002), 1)],
            1001 * 1002 * (t**2 + 1),
        ),
        # -3 is the left end of the interval isolating -23/7
        (
            -(t**5) - Fraction(37, 7) * t**4 - Fraction(25, 7) * t**3 + Fraction(69, 7) * t**2,
            [(Fraction(-23, 7), 1), (Fraction(-3), 1), (Fraction(0), 2), (Fraction(1), 1)],
            Poly1.const(-1),
        ),
        # the same with an interval too wide to test its grid points one by one
        (
            (t + 3) * (1000003 * t + 3300011) * (t**2 + 1),
            [(Fraction(-3300011, 1000003), 1), (Fraction(-3), 1)],
            1000003 * (t**2 + 1),
        ),
        (
            t**3 * (2 * t - 1) ** 2 * (2 * t + 1) * (8 * t - 3) * (4 * t + 5) * (t - 1024) * (t**2 - 2),
            [
                (Fraction(-5, 4), 1),
                (Fraction(-1, 2), 1),
                (Fraction(0), 3),
                (Fraction(3, 8), 1),
                (Fraction(1, 2), 2),
                (Fraction(1024), 1),
            ],
            256 * (t**2 - 2),
        ),
        (
            Fraction(3, 5) * (1000003 * t - 2) * (1000003 * t + 7) ** 2 * (t - 1) * (t**2 - 5),
            [(Fraction(-7, 1000003), 2), (Fraction(2, 1000003), 1), (Fraction(1), 1)],
            Fraction(3, 5) * 1000003**3 * (t**2 - 5),
        ),
        # every prime below 1000 divides the leading coefficient, so the
        # first prime the lifting may use is 1009
        (
            (_PRIMORIAL_1000 * t - 1) * (t + 2) * (t**2 + 1),
            [(Fraction(-2), 1), (Fraction(1, _PRIMORIAL_1000), 1)],
            _PRIMORIAL_1000 * (t**2 + 1),
        ),
        # square-free, but 1 and 1 + 3 * 5 * ... * 47 meet mod every prime
        # from 3 to 47
        (
            (t - 1) * (t - 1 - _ODD_PRIMORIAL_48) * (t**2 + 1),
            [(Fraction(1), 1), (Fraction(1 + _ODD_PRIMORIAL_48), 1)],
            t**2 + 1,
        ),
        # a cube: its root repeats mod every prime
        (
            (3 * t - 2) ** 3 * (t**2 - 2),
            [(Fraction(2, 3), 3)],
            27 * (t**2 - 2),
        ),
        # a cube whose root meets 144 mod 11 and mod 13
        (
            (t - 1) ** 3 * (t - 144) * (t**2 - 2),
            [(Fraction(1), 3), (Fraction(144), 1)],
            t**2 - 2,
        ),
    ]


@pytest.mark.parametrize("f, roots, residual", _adversarial_cases())
def test_rational_roots_adversarial_inputs_are_fast(f, roots, residual):
    start = time.perf_counter()
    found = rational_roots(f)
    elapsed = time.perf_counter() - start
    assert found == (roots, residual)
    assert elapsed < 0.1, f"rational_roots took {elapsed:.3f} s on {f.render()}"


def _zero_grid_by_value(y, values):
    """The zero rows of the packed kernel for the int dict y, as D*Y, at the
    sorted `values`, keyed and filled by the values."""
    values = sorted(values)
    n = len(values)
    rows = identities._zero_rows(y, [(v.numerator, v.denominator) for v in values])
    pairs = [(lam, mu) for i, lam in enumerate(values) for mu in values[i:]]
    assert len(rows) == n * len(pairs) and set(rows) <= {0, 1}
    return {pair: set(compress(values, rows[n * k : n * k + n])) for k, pair in enumerate(pairs)}


_GRID_MONOMIALS = [m for d in range(1, 7) for m in enumerate_monomials(d)]
_ALWAYS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2, 3)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(small_rationals.filter(bool), st.sampled_from(_GRID_MONOMIALS)),
        min_size=1,
        max_size=4,
    ),
    st.lists(small_rationals, max_size=3),
)
def test_symbol_zero_grid_matches_evaluation(terms, extra_values):
    """Symbols of random identities with Fraction coefficients, at values that
    include 0, negatives, denominators > 1 and the rational spectrum, so that
    zeros occur."""
    try:
        ident = make_identity(terms, require_zero_sum=False)
    except identities.EmptyIdentity:
        assume(False)
    report = spectrum(ident)
    values = sorted(set(_ALWAYS + extra_values + [r for r, _ in report.roots]))
    assert _zero_grid_by_value(identity_symbol(ident)._ints, values) == reference.zero_grid(
        reference.identity_symbol(ident), values)


def test_symbol_zero_grid_of_zero_symbol():
    ident = make_identity([(1, atom())], require_zero_sum=False)
    y = identity_symbol(ident)
    assert y.is_zero
    values = [Fraction(-3, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    grid = _zero_grid_by_value(y._ints, values)
    assert grid == reference.zero_grid(y, values)
    assert all(zeros == set(values) for zeros in grid.values())


def _symmetric_symbols(coefficients):
    """Int dicts {(a, b, p): c} symmetric in a and b, as D*Y is."""
    term = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), coefficients)

    def symmetric(terms):
        y = {}
        for a, b, e, c in terms:
            y[a, b, e] = y[b, a, e] = c
        return {k: c for k, c in y.items() if c}

    return st.lists(term, max_size=6).map(symmetric)


_BIG = 2**64
_PLANTED = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 2)]),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)


@settings(max_examples=120, deadline=None)
@given(
    _symmetric_symbols(st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40), st.integers(-(2**200), 2**200))),
    st.lists(_PLANTED, max_size=11, unique=True),  # 1 to 12 eigenvalues once 1 joins
)
# the zero symbol: every slot of every pair is zero
@example({}, [Fraction(-3, 2), Fraction(0), Fraction(1, 2)])
# a single eigenvalue, 1
@example({(1, 1, 2): -(2**200), (0, 0, 1): 3}, [])
# one term at the size bound: slot 0, at lam = mu = nu = -2^64, needs the whole
# slot, and slot 1, at nu = 0, is zero beside it
@example({(2, 2, 3): 2**200}, [Fraction(-_BIG), Fraction(0)])
# two-byte slots that all read 80 00, so the zero pattern 00 80 is found only
# across slot boundaries
@example({(0, 0, 0): 0x80 - 0x8000}, [Fraction(-1), Fraction(0)])
# 24-bit slots -c, 0, c, -c, ... with c = 2^23 - 1 just under 2^(w-1): a
# narrower slot carries into the zero beside it, and ORing more than 24 bits
# into the zero slot's lowest bit reads the low byte of c above it
@example({(0, 0, 1): 2**23 - 1}, [Fraction(-1), Fraction(0)])
# D*Y of an identity with coefficients past 2^200
@example(
    identity_symbol(make_identity(
        [(2**200 + 1, _GRID_MONOMIALS[-1]), (Fraction(-(2**199), 3), _GRID_MONOMIALS[5])], require_zero_sum=False,
    ))._ints,
    [Fraction(2**64 - 1, 2**64 + 1), Fraction(-_BIG), Fraction(0), Fraction(1, 2)],
)
def test_packed_zero_grid_matches_dense_grid_and_evaluation(y, values):
    """The packed grid and the per-triple definition agree on planted
    symbols and eigenvalues: 0, 1, +-1/2 or no 1/2, numerators and
    denominators up to 2^64, coefficients up to 2^200, so slots of 8 to
    several hundred bits, many not a power of two."""
    values = sorted(set(values) | {Fraction(1)})
    want = reference.zero_grid(reference.Poly(reference.ABP, y), values)
    assert _zero_grid_by_value(y, values) == want


def test_fusion_table_decides_zeros_without_symbol_evaluation(monkeypatch):
    """Five planted roots: the grid makes no Poly3.__call__, and the table is
    the one the per-triple definition gives."""
    ident = catalog("principal_train", {"gamma": reference.train_gammas(
        [Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(3)])})
    calls = []
    evaluate = Poly3.__call__

    def counted(self, *args):
        calls.append(args)
        return evaluate(self, *args)

    monkeypatch.setattr(Poly3, "__call__", counted)
    for mode in ("generic", "metrized_orthogonal"):
        clear_identity_caches()  # each mode builds the tables
        table = fusion_table(ident, mode=mode)
        assert calls == []
        assert len(table.spectrum) == 7
        assert (table.spectrum, table.entries) == reference.fusion_table(ident, mode)
    identity_symbol(ident)(1, 1, 1)
    assert calls, "the counter sees an evaluation"


def test_poly3_basics():
    a, b, p = Poly3.var("a"), Poly3.var("b"), Poly3.var("p")
    f = 4 * p + 8 * a * b
    assert f.render() == "4*p + 8*a*b"
    assert f(Fraction(1), Fraction(2), Fraction(3)) == 12 + 16
    swap = {"a": "b", "b": "a", "p": "p"}
    assert f.change_vars(Poly3.VARS, swap) == f
    g = a**2 + b
    assert g.change_vars(Poly3.VARS, swap) == b**2 + a
    assert Poly3.zero().render() == "0"


def test_poly3_substitute_and_change_vars():
    a, b, p = Poly3.var("a"), Poly3.var("b"), Poly3.var("p")
    f = p**2 + a * p + b
    g = f.substitute("a", Fraction(2)).substitute("b", Fraction(3))
    h = g.change_vars(Poly1.VARS, {"p": "t"})
    t = Poly1.t()
    assert h == t**2 + 2 * t + 3
    with pytest.raises(ValueError):
        f.change_vars(Poly1.VARS, {"p": "t"})  # still depends on a, b


def test_poly3_change_vars_and_compose3():
    t = Poly1.t()
    f = 2 * t**2 - t + 3
    a = Poly3.var("a")
    assert f(a) == 2 * a**2 - a + 3
    assert f.change_vars(Poly3.VARS, {"t": "p"}) == f(Poly3.var("p"))


@given(poly1s(max_degree=3), rationals, rationals, rationals)
def test_poly3_evaluation_consistent(f, x, y, z):
    g = f(Poly3.var("b"))
    assert g(x, y, z) == f(y)


@given(poly1s(), st.sampled_from(Poly3.VARS))
def test_change_vars_round_trip_through_poly3(f, name):
    assert f.change_vars(Poly3.VARS, {"t": name}).change_vars(Poly1.VARS, {name: "t"}) == f


_TRAIN_GAMMA = {"gamma": ["1", "-7/6", "1/3", "-1/6"]}


@pytest.mark.parametrize(
    "name, params, rho, y",
    [
        ("jordan_power_assoc", None, "2*t^3 - 3*t^2 + t",
         "2*p^2 + 2*a*p + 2*b*p - 4*p + 2*a^2 - 8*a*b + a + 2*b^2 + b"),
        ("bernstein", None, "4*t^2 - 2*t", "4*p + 8*a*b - 2"),
        ("pseudo_composition", None, "2*t^2 + t - 1", "2*p + 2*a + 2*b"),
        ("walcher", None, "2*t^2 - 1/2", "2*p + 2*a + 2*b - 1"),
        ("walcher", {"a_c": "1/3"}, "2*t^2 + 1/3*t - 2/3", "2*p + 2*a + 2*b - 2/3"),
        ("hsiang", None, "8*t^3 + 8*t^2 - 2*t - 2",
         "8*p^2 + 8*a*p + 8*b*p + 4*p + 8*a^2 + 8*a*b + 4*a + 8*b^2 + 4*b - 6"),
        ("principal_train", _TRAIN_GAMMA, "2*t^3 - 4/3*t^2 + 1/2*t - 1/6",
         "2*p^2 + 2*a*p + 2*b*p - 7/3*p + 2*a^2 - 4/3*a + 2*b^2 - 4/3*b + 2/3"),
        ("plenary_train", _TRAIN_GAMMA, "8*t^3 - 14/3*t^2 + 2/3*t - 1/6",
         "8*p^2 + 16*a*b*p - 14/3*p + 32*a^2*b^2 - 28/3*a*b + 2/3"),
        ("nourigat_varro", {"a1": 1, "a2": 2, "b1": 1, "b2": 1, "b3": 1}, "4*t^3 + 4*t^2 - t - 1",
         "4*p^2 + 4*a*p + 4*b*p + 2*p + 4*a^2 + 8*a*b + 4*b^2 - 2"),
        ("elduque_labra", None, "0", "8*a*b - 4*a - 4*b + 2"),
    ],
)
def test_catalog_rho_and_symbol_render(name, params, rho, y):
    ident = catalog(name, params)
    assert identity_peirce_poly(ident).render() == rho
    assert identity_symbol(ident).render() == y


# --- the integer form, against the Fraction-dict arithmetic it replaced, in reference


def _agree(new, old):
    """new, from Poly, is old, from the oracle, in its canonical integer form."""
    if not isinstance(new, poly.Poly):
        assert type(new) is Fraction and new == old
        return
    assert type(new) is poly._CLASSES.get(new.vars, poly.Poly)
    assert new.vars == old.vars and new.coeffs == old.coeffs and new.render() == old.render()
    assert new._den > 0 and all(new._ints.values()) and gcd(new._den, *new._ints.values()) == 1
    assert all(type(c) is int for c in new._ints.values())


_BIG_RATIONALS = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
)
# factors of the denominators above, so that a product or a derivative has a
# content that shares a factor with its denominator
_SCALARS = st.one_of(st.integers(-12, 12), _BIG_RATIONALS)


def _fraction_dicts(nvars, max_exp):
    return st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * nvars), _BIG_RATIONALS, max_size=4)


@st.composite
def _pairs(draw, nvars, max_exp):
    """(f, g) as Fraction dicts; g is often -f, or -f on some terms, so that
    sums cancel to zero in whole or in part."""
    f = draw(_fraction_dicts(nvars, max_exp))
    negated = {k: -c for k, c in f.items() if draw(st.booleans())}
    g = draw(st.one_of(
        _fraction_dicts(nvars, max_exp),
        st.just({k: -c for k, c in f.items()}),
        _fraction_dicts(nvars, max_exp).map(lambda h: {**h, **negated}),
    ))
    return f, g


@pytest.mark.parametrize("cls, max_exp", [(Poly1, 6), (Poly3, 2)], ids=["Poly1", "Poly3"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_form_agrees_with_fraction_arithmetic(cls, max_exp, data):
    n = len(cls.VARS)
    fd, gd = data.draw(_pairs(n, max_exp))
    f, g, fo, go = cls(fd), cls(gd), reference.Poly(cls.VARS, fd), reference.Poly(cls.VARS, gd)
    s, s2 = data.draw(_SCALARS), data.draw(_SCALARS)
    name = data.draw(st.sampled_from(cls.VARS))
    k = data.draw(st.integers(0, 3))
    _agree(f, fo)
    for new, old in [
        (f + g, fo + go), (f - g, fo - go), (g - f, go - fo), (f * g, fo * go), (-f, -fo),
        (f * s, fo * s), (s * f, s * fo), (f + s, fo + s), (s - f, s - fo), (f - f, fo - fo),
        (f**k, fo**k),
        (f.substitute(name, s), fo.substitute(name, s)),
        (f.derivative(name), fo.derivative(name)),
        (f(*[s] * n), fo(*[s] * n)),
        (f(g, *[s] * (n - 1)), fo(go, *[s] * (n - 1))),
    ]:
        _agree(new, old)
    if cls is Poly1:
        _agree(f.change_vars(Poly3.VARS, {"t": "b"}), fo.change_vars(Poly3.VARS, {"t": "b"}))
    else:
        merge = {"a": "x", "b": "x", "p": "y"}
        _agree(f.change_vars(("x", "y"), merge), fo.change_vars(("x", "y"), merge))
        at_p = f.substitute("a", s).substitute("b", s2)
        _agree(at_p.change_vars(Poly1.VARS, {"p": "t"}),
               fo.substitute("a", s).substitute("b", s2).change_vars(Poly1.VARS, {"p": "t"}))


# x as {exponents of (a, b, p): coefficient} for a polynomial, else a value
_POINTS = st.one_of(
    st.sampled_from([{(1, 0, 0): 1}, {(0, 1, 0): 1}, Fraction(1, 2), {(1, 1, 0): 2}]),  # a, b, 1/2, 2ab
    _BIG_RATIONALS,
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)), _BIG_RATIONALS, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 8), _BIG_RATIONALS, max_size=9), _POINTS)
def test_divided_difference_agrees_with_its_definition(fd, x):
    f = Poly1(fd)
    if isinstance(x, dict):
        got = _divided_difference(f, Poly3(x), Poly3.var("p"))
        x = reference.Poly(reference.ABP, x)
    else:
        got = _divided_difference(f, x, Poly3.var("p"))
    want = reference.divided_difference(reference.Poly(reference.T, {(e,): c for e, c in fd.items()}), x)
    _agree(got, want)
    if not isinstance(x, reference.Poly):
        _agree(_divided_difference(f, x, Poly1.t()), want.change_vars(Poly1.VARS, {"p": "t"}))


def test_equal_polynomials_built_by_different_paths_are_stored_alike():
    t = Poly1.t()
    half = [
        Poly1({0: Fraction(2, 4)}),
        poly._make(Poly1.VARS, {(0,): 3}, 6),
        Poly1.const(Fraction(1, 2)),
        (t + Fraction(1, 2)) - t,  # a sum that cancels
        (t**2 * Fraction(1, 4)).derivative() - t * Fraction(1, 2) + Fraction(1, 2),
    ]
    for f in half:
        assert (f._ints, f._den) == ({(0,): 1}, 2)
        assert f == half[0] == Fraction(1, 2) and hash(f) == hash(half[0])
    zero = [Poly1.zero(), t - t, poly._make(Poly1.VARS, {}, 6), Poly1({3: 0}), half[0] * 0]
    for f in zero:
        assert (f._ints, f._den) == ({}, 1) and f == 0 and hash(f) == hash(Poly1.zero())
    assert len({*half, *zero}) == 2
    assert Poly1({1: 1}) != Poly3({(1, 0, 0): 1}) and Poly1({1: 1}) != 1


@pytest.mark.parametrize("value", [0, 2, Fraction(-1, 2), 2**100])
def test_a_constant_hashes_as_the_number_it_equals(value):
    # equal objects hash alike: {Poly1.const(2), 2} used to have two elements;
    # and constants equal each other whatever their variables, so that == stays
    # transitive: {2, Poly1.const(2), Poly3.const(2)} had two elements in one order
    consts = [Poly1.const(value), Poly3.const(value), poly.Poly({(): value}, ()), poly.Poly({(0, 0): value}, "xy")]
    for f in consts:
        assert f == value and hash(f) == hash(value)
        assert len({f, value}) == 1
        assert all(f == g for g in consts) and f != Poly1.t() + value and f != Poly3.var("a") + value
    assert len({value, *consts}) == len({*consts, value}) == 1


def test_coeffs_is_a_new_fraction_dict_on_every_read():
    f = Poly3({(1, 0, 0): Fraction(1, 2), (0, 0, 2): 3})
    view = f.coeffs
    assert view == {(1, 0, 0): Fraction(1, 2), (0, 0, 2): Fraction(3)}
    assert all(type(c) is Fraction for c in view.values())
    assert f.coeffs is not view
    view.clear()
    assert f.coeffs == {(1, 0, 0): Fraction(1, 2), (0, 0, 2): Fraction(3)}
    with pytest.raises(AttributeError):
        f.coeffs = {}
    assert not any(isinstance(getattr(f, slot), Fraction) for slot in poly.Poly.__slots__)


def test_mutating_a_coeffs_view_leaves_the_cached_results_unchanged():
    ident = catalog("hsiang")
    rho = "8*t^3 + 8*t^2 - 2*t - 2"
    y = "8*p^2 + 8*a*p + 8*b*p + 4*p + 8*a^2 + 8*a*b + 4*a + 8*b^2 + 4*b - 6"
    for read in (identity_peirce_poly, lambda i: spectrum(i).peirce_poly, identity_symbol):
        read(ident).coeffs.clear()
    assert identity_peirce_poly(ident).render() == spectrum(ident).peirce_poly.render() == rho
    assert identity_symbol(catalog("hsiang")).render() == y
    assert [r for r, _ in spectrum(catalog("hsiang")).roots] == [-1, Fraction(-1, 2), Fraction(1, 2)]


def test_polynomials_and_the_records_that_hold_them_survive_pickle_and_copy():
    alg = build_algebra("hsiang_sym3")
    values = [
        Poly1({0: Fraction(-1, 6), 5: 2**200 + 1}),
        Poly3({(1, 2, 0): Fraction(3, 4)}),
        Poly1.zero(),
        poly.Poly({(1, 1): Fraction(1, 3)}, vars=("x", "y")),
        spectrum(catalog("principal_train", {"gamma": ["1", "-1", "-2", "2"]})),
        eigen_decomposition(alg, alg.idempotents[0]),
    ]
    for value in values:
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone == value and repr(clone) == repr(value)
            if isinstance(value, poly.Poly):
                assert hash(clone) == hash(value) and (clone._ints, clone._den) == (value._ints, value._den)
