"""Exact polynomial arithmetic: ring axioms, division, rational roots."""

import time
from fractions import Fraction
from unittest import mock
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from peirce_lab import identities
from peirce_lab.identities import (
    catalog,
    fusion_table,
    identity_peirce_poly,
    identity_symbol,
    make_identity,
    spectrum,
)
from peirce_lab.magma import atom, enumerate_monomials
from peirce_lab.poly import (
    ExactDivisionError,
    Poly1,
    Poly3,
    divide_exact,
    format_rational,
    parse_rational,
    rational_roots,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def poly1s(max_degree=5):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_degree), rationals, max_size=4
    ).map(Poly1)


def poly3s(max_exp=2):
    exponents = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * 3)
    return st.dictionaries(exponents, rationals, max_size=4).map(Poly3)


@st.composite
def constant_led_divisors(draw):
    """(name, g): g = c * name^d + lower terms in name, c a nonzero constant,
    e.g. p - h(a, b)."""
    name = draw(st.sampled_from(Poly3.VARS))
    i = Poly3.VARS.index(name)
    d = draw(st.integers(min_value=1, max_value=2))
    rest = draw(poly3s())
    rest = Poly3({k: c for k, c in rest.coeffs.items() if k[i] < d})
    return name, Poly3.var(name) ** d * draw(rationals.filter(bool)) + rest


def test_rational_round_trip():
    for s, v in [("3", Fraction(3)), ("-1/2", Fraction(-1, 2)), ("0", Fraction(0))]:
        assert parse_rational(s) == v
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


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


def test_divide_exact():
    t = Poly1.t()
    f = (t - 1) * (2 * t + 3)
    assert divide_exact(f, t - 1) == 2 * t + 3
    with pytest.raises(ExactDivisionError):
        divide_exact(t**2 + 1, t - 1)
    with pytest.raises(ZeroDivisionError):
        divide_exact(t, Poly1.zero())


@given(poly1s(), poly1s())
def test_divide_exact_inverts_multiplication(f, g):
    if g.is_zero:
        return
    assert divide_exact(f * g, g) == f


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


def _divisors_naive(n):
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


def _roots_by_fraction_evaluation(f):
    """Rational root theorem candidates, each evaluated with Poly1.__call__;
    a root's multiplicity is the number of derivatives that vanish there."""
    den = lcm(*(c.denominator for c in f.coeffs.values()))
    low, top = min(f.coeffs), f.degree
    candidates = {Fraction(0)} | {
        Fraction(s * p, q)
        for p in _divisors_naive(int(f.coeffs[low] * den))
        for q in _divisors_naive(int(f.coeff(top) * den))
        for s in (1, -1)
    }
    roots = []
    for r in sorted(candidates):
        m, g = 0, f
        while not g.is_zero and g(r) == 0:
            m, g = m + 1, g.derivative()
        if m:
            roots.append((r, m))
    residual = f
    for r, m in roots:
        residual = divide_exact(residual, Poly1({1: 1, 0: -r}) ** m)
    return roots, residual


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
    assert rational_roots(f) == _roots_by_fraction_evaluation(f)


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
    expected, residual = _roots_by_fraction_evaluation(cofactor)
    mult = dict(expected)
    for r, m in planted:
        f = f * (t - r) ** m
        mult[r] = mult.get(r, 0) + m
    assert rational_roots(f) == (sorted(mult.items()), residual)


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
    ]


@pytest.mark.parametrize("f, roots, residual", _adversarial_cases())
def test_rational_roots_adversarial_inputs_are_fast(f, roots, residual):
    start = time.perf_counter()
    found = rational_roots(f)
    elapsed = time.perf_counter() - start
    assert found == (roots, residual)
    assert elapsed < 0.1, f"rational_roots took {elapsed:.3f} s on {f.render()}"


def _zeros_by_evaluation(y, values):
    """The per-triple definition of the symbol grid, through Poly3.__call__."""
    return {
        (lam, mu): {nu for nu in values if y(lam, mu, nu) == 0}
        for i, lam in enumerate(values)
        for mu in values[i:]
    }


def _zero_grid_by_value(ident, values):
    """identities._zero_grid of ident with `values` (1 among them) planted as
    the rational roots of rho, keyed and filled by the values."""
    report = identities.SpectrumReport(Poly1.t(), tuple((v, 1) for v in values), Poly1.const(1), False)
    with mock.patch.object(identities, "spectrum", lambda identity: report):
        eigenvalues, grid = identities._zero_grid.__wrapped__(ident)  # uncached
    assert eigenvalues == tuple(values)
    return {(values[i], values[j]): {values[k] for k in zeros} for (i, j), zeros in grid}


def _zero_grid_by_evaluation(ident):
    """identities._zero_grid through the per-triple definition."""
    values = tuple(sorted({r for r, _ in spectrum(ident).roots} | {Fraction(1)}))
    index = {v: k for k, v in enumerate(values)}
    zeros = _zeros_by_evaluation(identity_symbol(ident), values)
    return values, tuple(((index[lam], index[mu]), frozenset(map(index.get, z))) for (lam, mu), z in zeros.items())


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
    assert _zero_grid_by_value(ident, values) == _zeros_by_evaluation(identity_symbol(ident), values)


def test_symbol_zero_grid_of_zero_symbol():
    ident = make_identity([(1, atom())], require_zero_sum=False)
    y = identity_symbol(ident)
    assert y.is_zero
    values = [Fraction(-3, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    grid = _zero_grid_by_value(ident, values)
    assert grid == _zeros_by_evaluation(y, values)
    assert all(zeros == set(values) for zeros in grid.values())


def test_fusion_table_decides_zeros_without_symbol_evaluation(monkeypatch):
    """Five planted roots: the grid makes no Poly3.__call__, and the table is
    the one the per-triple definition gives."""
    t = Poly1.t()
    f = t - 1
    for r in (Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(3)):
        f = f * (t - r)
    ident = catalog("principal_train", {"gamma": [f.coeff(e) for e in range(f.degree, -1, -1)]})

    calls = []
    evaluate = Poly3.__call__

    def counted(self, *args):
        calls.append(args)
        return evaluate(self, *args)

    for mode in ("generic", "metrized_orthogonal"):
        identities._zero_grid.cache_clear()  # each mode builds the grid
        monkeypatch.setattr(Poly3, "__call__", counted)
        table = fusion_table(ident, mode=mode)
        assert calls == []
        monkeypatch.setattr(identities, "_zero_grid", _zero_grid_by_evaluation)
        reference = fusion_table(ident, mode=mode)
        monkeypatch.undo()
        assert calls, "the reference evaluates Y per triple"
        assert len(table.spectrum) == 7
        assert table == reference
        calls.clear()


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


def test_poly3_from_poly1_and_compose3():
    t = Poly1.t()
    f = 2 * t**2 - t + 3
    a = Poly3.var("a")
    assert f(a) == 2 * a**2 - a + 3
    assert Poly3.from_poly1(f, "p") == f(Poly3.var("p"))


@given(poly1s(max_degree=3), rationals, rationals, rationals)
def test_poly3_evaluation_consistent(f, x, y, z):
    g = f(Poly3.var("b"))
    assert g(x, y, z) == f(y)


@given(poly3s(), constant_led_divisors())
def test_divide_exact_inverts_multiplication_in_three_variables(f, divisor):
    name, g = divisor
    assert divide_exact(f * g, g, name) == f


@given(poly3s(), st.sampled_from(Poly3.VARS), poly3s(), st.integers(min_value=1, max_value=2))
def test_divide_exact_rejects_a_nonconstant_leading_coefficient(f, name, lead, d):
    lead = lead.substitute(name, 1)
    assume(lead.degree >= 1)
    with pytest.raises(ValueError):
        divide_exact(f, lead * Poly3.var(name) ** d + 1, name)


@given(poly1s(), st.sampled_from(Poly3.VARS))
def test_from_poly1_then_change_vars_round_trip(f, name):
    assert Poly3.from_poly1(f, name).change_vars(Poly1.VARS, {name: "t"}) == f


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
