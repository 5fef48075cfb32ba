"""Weighted identities: validation, spectra, symbols, fusion, catalog, products."""

import copy
import inspect
import json
import pickle
import random
import re
import sys
import time
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from peirce_lab import identities, peirce
from peirce_lab.identities import (
    CatalogParameterError,
    DegenerateIdentity,
    EmptyIdentity,
    FusionTable,
    IdentityTerm,
    WeightDescriptor,
    WeightedIdentity,
    ZeroSumViolation,
    baric_weight,
    bilinear_weight,
    catalog,
    catalog_names,
    constant_weight,
    fusion_table,
    identity_from_json,
    identity_peirce_poly,
    identity_symbol,
    identity_to_json,
    make_identity,
    multiply_identities,
    spectrum,
    train_closed_forms,
)
from peirce_lab.magma import (
    atom,
    enumerate_monomials,
    parse_monomial,
    plenary_power,
    principal_power,
)
from peirce_lab.poly import Poly, Poly1, Poly3, RationalSyntaxError

import reference
from caches import clear_identity_caches
from reference import random_monomial

HALF = Fraction(1, 2)
ONE = Fraction(1)


# --- validation ---------------------------------------------------------------


def test_zero_sum_enforced():
    with pytest.raises(ZeroSumViolation):
        make_identity([(1, principal_power(2)), (-2, atom())])
    ident = make_identity([(1, principal_power(2)), (-1, atom())])
    assert len(ident.terms) == 2


def test_make_identity_reads_text_coefficients():
    ident = make_identity([("1/2", principal_power(2)), (" -1/2 ", atom())])
    assert [t.coeff for t in ident.terms] == [Fraction(-1, 2), Fraction(1, 2)]
    with pytest.raises(RationalSyntaxError):
        make_identity([("1/0", principal_power(2)), (-1, atom())])


@pytest.mark.parametrize("text", ["1e1000000", "1e50000000"])
def test_make_identity_refuses_exponent_notation(text):
    # Fraction(text) would build an integer of millions of bits, or hang
    start = time.perf_counter()
    with pytest.raises(RationalSyntaxError, match="exponent notation"):
        make_identity([(text, principal_power(2)), ("-" + text, atom())])
    with pytest.raises(RationalSyntaxError, match="exponent notation"):
        make_identity([IdentityTerm(text, principal_power(2)), IdentityTerm(-1, atom())])
    assert time.perf_counter() - start < 1


def test_terms_and_weights_refuse_what_is_not_a_monomial_or_a_weight():
    # a monomial given as text used to build, and identity_peirce_poly then
    # failed with AttributeError: 'str' object has no attribute 'left'
    with pytest.raises(TypeError, match="^monomial must be a Monomial, not the str 'z\\^2'$"):
        make_identity([(1, "z^2"), (-1, "z")])
    with pytest.raises(TypeError, match="^weight must be a WeightDescriptor, not the int 2$"):
        IdentityTerm(1, principal_power(2), 2)
    with pytest.raises(TypeError, match="^weight must be a WeightDescriptor, not the str 'baric'$"):
        make_identity([(1, principal_power(2), "baric"), (-1, atom())])
    for args, kind in ((("z",), "str 'z'"), ("z", "str 'z'"), ([atom(), None], "NoneType None")):
        with pytest.raises(TypeError, match=f"^each of bilinear_args must be a Monomial, not the {kind}$"):
            WeightDescriptor(0, args)
    # tuple(3) used to raise "'int' object is not iterable", naming no field
    with pytest.raises(TypeError, match="^bilinear_args must be iterable, not the int 3$"):
        WeightDescriptor(0, 3)
    # "z^2" used to be unpacked one character at a time, and WeightedIdentity
    # stored it, to fail later with AttributeError in identity_peirce_poly
    for build in (make_identity, WeightedIdentity):
        for term, kind in (("z^2", "str 'z^2'"), (5, "int 5"), (None, "NoneType None")):
            message = f"each term must be an IdentityTerm or a tuple, not the {kind}"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                build([(1, atom()), term])
    # iterating 5 used to raise "'int' object is not iterable", and a 4-tuple
    # an IdentityTerm.__init__() arity error, neither naming the field
    for build in (make_identity, WeightedIdentity):
        for terms, kind in ((5, "int 5"), (None, "NoneType None")):
            with pytest.raises(TypeError, match=f"^terms must be iterable, not the {kind}$"):
                build(terms)
        for term in ((1,), (1, atom(), constant_weight(), 4)):
            message = f"each term tuple must be (coeff, monomial[, weight]), not of length {len(term)}"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                build([(-1, principal_power(2)), term])
    # a list is stored as a tuple, so the weight hashes and keys the identity caches
    listed = WeightDescriptor(1, [atom()])
    assert listed.bilinear_args == (atom(),) and listed == WeightDescriptor(1, (atom(),))
    assert hash(listed) == hash(WeightDescriptor(1, (atom(),)))
    ident = make_identity([(1, principal_power(2), listed), (-1, atom())])
    assert spectrum(ident) is spectrum(make_identity([(1, principal_power(2), WeightDescriptor(1, (atom(),))),
                                                      (-1, atom())]))


def test_identities_refuse_a_name_that_is_not_text():
    # name=5 used to build an identity that identity_from_json then refused
    terms = make_identity([(1, principal_power(2)), (-1, atom())]).terms
    for build in (lambda name: make_identity(terms, name=name), lambda name: WeightedIdentity(terms, name)):
        for name, kind in ((5, "int 5"), (b"x", "bytes b'x'"), (True, "bool True")):
            with pytest.raises(TypeError, match=f"^name must be a str, not the {kind}$"):
                build(name)
        for name in ("x", None):
            ident = build(name)
            assert ident.name == name and identity_from_json(identity_to_json(ident)) == ident


# make_identity is the WeightedIdentity constructor plus the zero-sum rule
CONSTRUCTORS = pytest.mark.parametrize("build", [make_identity, WeightedIdentity], ids=lambda f: f.__name__)


@CONSTRUCTORS
def test_empty_rejected(build):
    with pytest.raises(EmptyIdentity):
        build([])
    with pytest.raises(EmptyIdentity):
        build([(1, atom()), (-1, atom())])  # cancels to nothing
    with pytest.raises(EmptyIdentity):
        build([(0, atom()), IdentityTerm(0, principal_power(2))])


@CONSTRUCTORS
def test_terms_merge_by_monomial_and_weight(build):
    ident = build(
        [(1, principal_power(3)), (2, principal_power(3)), (-3, atom())]
    )
    assert len(ident.terms) == 2
    coeffs = {str(t.monomial): t.coeff for t in ident.terms}
    assert coeffs["z^3"] == 3
    assert coeffs["z"] == -3
    # same monomial, different weight kinds stay separate
    ident2 = build(
        [
            (1, principal_power(2)),
            (1, principal_power(2), baric_weight(2)),
            (-2, atom()),
        ]
    )
    assert len(ident2.terms) == 3
    # zero terms are dropped, the rest sorted by monomial, then weight, and
    # tuples and records give the same identity
    ident3 = build([IdentityTerm(1, principal_power(2), baric_weight(2)), (0, plenary_power(3)),
                    (-3, atom()), (2, principal_power(2))])
    assert ident3.terms == (IdentityTerm(-3, atom()), IdentityTerm(2, principal_power(2)),
                            IdentityTerm(1, principal_power(2), baric_weight(2)))
    assert ident3 == build(reversed(ident3.terms))


# --- catalog goldens ----------------------------------------------------------


def test_catalog_names_complete():
    assert catalog_names() == sorted(
        [
            "jordan_power_assoc",
            "bernstein",
            "pseudo_composition",
            "walcher",
            "hsiang",
            "principal_train",
            "plenary_train",
            "nourigat_varro",
            "elduque_labra",
        ]
    )
    with pytest.raises(KeyError):
        catalog("nope")


def signature_check(name, params):
    """The parameter check of `catalog` on `inspect.signature`, as it was
    written before the check read the family's code object: the oracle."""
    known = inspect.signature(identities._CATALOG[name]).parameters
    unknown = [k for k in params if k not in known]
    if unknown:
        takes = f"its parameters are {', '.join(known)}" if known else "it takes none"
        return f"{name} has no parameter {unknown[0]!r}; {takes}"
    missing = [k for k, p in known.items() if p.default is p.empty and k not in params]
    if missing:
        plural = "s" if len(missing) > 1 else ""
        return f"{name} needs the parameter{plural} {', '.join(missing)}"
    return None


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_parameter_errors_match_signature_oracle(name):
    known = list(inspect.signature(identities._CATALOG[name]).parameters)
    cases = [
        {},  # every required parameter missing
        {k: "1" for k in known[1:]},  # the first one missing
        {k: "1" for k in known[:1]},  # all but the first missing
        {"x": "1"},  # unknown
        {**{k: "1" for k in known}, "extra": "1"},  # all, plus one extra
    ]
    for params in cases:
        want = signature_check(name, params)
        if want is None:
            continue
        with pytest.raises(CatalogParameterError) as exc:
            catalog(name, params)
        assert str(exc.value) == want, params


def test_jordan_peirce_poly_and_roots():
    ident = catalog("jordan_power_assoc")
    t = Poly1.t()
    assert identity_peirce_poly(ident) == 2 * t**3 - 3 * t**2 + t
    report = spectrum(ident)
    assert not report.degenerate
    assert report.roots == ((Fraction(0), 1), (HALF, 1), (ONE, 1))


def test_bernstein_spectrum():
    # rho = 4t^2 - 2t = 2t(2t - 1), roots {0, 1/2}
    ident = catalog("bernstein")
    t = Poly1.t()
    assert identity_peirce_poly(ident) == 4 * t**2 - 2 * t
    report = spectrum(ident)
    assert report.roots == ((Fraction(0), 1), (HALF, 1))


def test_pseudo_composition_spectrum():
    # rho = 2t^2 + t - 1 = (2t - 1)(t + 1), roots {-1, 1/2}
    ident = catalog("pseudo_composition")
    t = Poly1.t()
    assert identity_peirce_poly(ident) == 2 * t**2 + t - 1
    report = spectrum(ident)
    assert report.roots == ((Fraction(-1), 1), (HALF, 1))


def test_walcher_parameters():
    ident = catalog("walcher", {"a_c": "1/3", "b_c": "2/3"})
    assert identity_peirce_poly(ident)(HALF) == 0
    with pytest.raises(CatalogParameterError):
        catalog("walcher", {"a_c": "1/3", "b_c": "1/3"})


def test_hsiang_symbolic():
    ident = catalog("hsiang")
    t = Poly1.t()
    # 2(2t - 1)(2t + 1)(t + 1)
    assert identity_peirce_poly(ident) == 8 * t**3 + 8 * t**2 - 2 * t - 2
    a, b, p = Poly3.var("a"), Poly3.var("b"), Poly3.var("p")
    expected_y = (
        8 * (p**2 + a**2 + b**2)
        + 8 * (p * a + p * b + a * b)
        + 4 * (a + b + p)
        - 6 * Poly3.const(1)
    )
    assert identity_symbol(ident) == expected_y
    report = spectrum(ident)
    assert report.roots == ((Fraction(-1), 1), (Fraction(-1, 2), 1), (HALF, 1))


def test_elduque_labra_degenerate():
    report = spectrum(catalog("elduque_labra"))
    assert report.degenerate
    with pytest.raises(DegenerateIdentity):
        fusion_table(catalog("elduque_labra"))


def test_nourigat_varro():
    ident = catalog("nourigat_varro", {"a1": 1, "a2": 1, "b1": 1, "b2": "1/2", "b3": "1/2"})
    assert identity_peirce_poly(ident)(HALF) == 0
    with pytest.raises(CatalogParameterError):
        catalog("nourigat_varro", {"a1": 1, "a2": 1, "b1": 1, "b2": 1, "b3": 1})


# --- fusion tables ------------------------------------------------------------

HSIANG_TABLE2 = {
    (Fraction(-1), Fraction(-1)): {ONE},
    (Fraction(-1), Fraction(-1, 2)): {HALF},
    (Fraction(-1), HALF): {Fraction(-1, 2), HALF},
    (Fraction(-1, 2), Fraction(-1, 2)): {ONE, Fraction(-1, 2)},
    (Fraction(-1, 2), HALF): {Fraction(-1), HALF},
    (HALF, HALF): {ONE, Fraction(-1), Fraction(-1, 2)},
}


def test_hsiang_metrized_fusion_table_golden():
    table = fusion_table(catalog("hsiang"), mode="metrized_orthogonal")
    assert table.mode == "metrized_orthogonal"
    assert table.refinements_applied  # preconditions are declared
    for (lam, mu), want in HSIANG_TABLE2.items():
        assert table.allowed(lam, mu) == frozenset(want), (lam, mu)
    # the 1-row reproduces each eigenspace
    for mu in table.spectrum:
        if mu != ONE:
            assert table.allowed(ONE, mu) == frozenset({mu})
    assert table.allowed(ONE, ONE) == frozenset({ONE})


def test_hsiang_generic_contains_metrized():
    gen = fusion_table(catalog("hsiang"), mode="generic")
    met = fusion_table(catalog("hsiang"), mode="metrized_orthogonal")
    for key in met.entries:
        assert met.entries[key] <= gen.entries[key], key


def test_jordan_generic_fusion():
    table = fusion_table(catalog("jordan_power_assoc"), mode="generic")
    zero = Fraction(0)
    assert set(table.spectrum) == {zero, HALF, ONE}
    # hand-derived sound superset table from the Y zeros plus the {1, lam, mu}
    # exceptions and simple-root removal on the lam * (1/2) rows
    expected = {
        (zero, zero): {zero, ONE},
        (zero, HALF): {HALF, ONE},
        (zero, ONE): {zero, ONE},
        (HALF, HALF): {zero, ONE},
        (HALF, ONE): {zero, HALF},
        (ONE, ONE): {ONE},
    }
    for key, want in expected.items():
        assert table.allowed(*key) == frozenset(want), key
    # each entry is a superset of the true Jordan fusion law
    jordan_true = {
        (zero, zero): {zero},
        (zero, HALF): {HALF},
        (zero, ONE): set(),
        (HALF, HALF): {zero, ONE},
        (HALF, ONE): {HALF},
        (ONE, ONE): {ONE},
    }
    for key, want in jordan_true.items():
        assert frozenset(want) <= table.allowed(*key), key


def test_fusion_symmetric_accessor():
    table = fusion_table(catalog("hsiang"), mode="generic")
    for lam in table.spectrum:
        for mu in table.spectrum:
            assert table.allowed(lam, mu) == table.allowed(mu, lam)
    with pytest.raises(ValueError):
        fusion_table(catalog("hsiang"), mode="bogus")


# --- half-root law and the symbol property ------------------------------------


def random_identity(rng, max_terms=5, max_degree=7):
    n = rng.randint(2, max_terms)
    terms = []
    total = Fraction(0)
    for _ in range(n - 1):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if c == 0:
            c = Fraction(1)
        m = random_monomial(rng.randint(1, max_degree), rng)
        terms.append((c, m, baric_weight(rng.randint(0, 3))))
        total += c
    closer = random_monomial(rng.randint(1, max_degree), rng)
    terms.append((-total, closer, bilinear_weight(atom())))
    try:
        return make_identity(terms)
    except EmptyIdentity:
        return None


def test_half_root_on_200_random_identities():
    rng = random.Random(42)
    count = 0
    while count < 200:
        ident = random_identity(rng)
        if ident is None:
            continue
        count += 1
        rho = identity_peirce_poly(ident)
        assert rho(HALF) == 0
        # spectrum() never raises its internal half-root assertion
        spectrum(ident)


def test_symbol_at_mu_half_is_divided_difference_of_rho():
    # Y(lam, 1/2, nu) == (rho(nu) - rho(lam)) / (nu - lam); so Y vanishes at
    # every root nu != lam of rho and equals rho'(lam) at nu = lam
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        ident = random_identity(rng)
        if ident is None:
            continue
        rho = identity_peirce_poly(ident)
        if rho.is_zero:
            continue
        checked += 1
        y = identity_symbol(ident).substitute("b", HALF)
        for trial in range(5):
            lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            nu = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if nu == lam:
                assert y(lam, Fraction(0), nu) == rho.derivative()(lam)
            else:
                assert y(lam, Fraction(0), nu) == (rho(nu) - rho(lam)) / (nu - lam)


# --- product law --------------------------------------------------------------


def test_product_law_on_random_pairs():
    # rho(P1 P2, q) = q * (rho(P2, 1/2) rho(P1, q) + rho(P1, 1/2) rho(P2, q))
    # evaluated on arbitrary formal sums (no zero-sum requirement)
    rng = random.Random(5)
    t = Poly1.t()
    for _ in range(100):
        def formal(rng):
            n = rng.randint(1, 4)
            terms = [
                (
                    Fraction(rng.randint(-5, 5) or 1),
                    random_monomial(rng.randint(1, 6), rng),
                )
                for _ in range(n)
            ]
            try:
                return WeightedIdentity(terms)
            except EmptyIdentity:
                return None

        p1 = formal(rng)
        p2 = formal(rng)
        if p1 is None or p2 is None:
            continue
        prod_ident = multiply_identities(p1, p2)
        r1, r2 = identity_peirce_poly(p1), identity_peirce_poly(p2)
        lhs = identity_peirce_poly(prod_ident)
        rhs = t * (Poly1.const(r2(HALF)) * r1 + Poly1.const(r1(HALF)) * r2)
        assert lhs == rhs


def test_product_of_valid_identities_degenerate():
    # valid identities have rho(1/2) = 0, so the product law forces rho == 0
    rng = random.Random(17)
    done = 0
    while done < 20:
        p = random_identity(rng)
        if p is None:
            continue
        done += 1
        sq = multiply_identities(p, p)
        assert identity_peirce_poly(sq).is_zero
        assert spectrum(sq).degenerate


def test_product_weights_combine():
    p1 = WeightedIdentity([(1, principal_power(2), baric_weight(1)), (-1, atom())])
    p2 = WeightedIdentity([(1, atom(), bilinear_weight(atom()))])
    prod_ident = multiply_identities(p1, p2)
    kinds = sorted(t.weight.kind for t in prod_ident.terms)
    assert kinds == ["bilinear", "product"]


# --- train families -----------------------------------------------------------


def _random_gammas(rank, rng):
    g = [Fraction(1)] + [
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rank - 2)
    ]
    g.append(-sum(g))
    return g


@pytest.mark.parametrize("family", ["principal_train", "plenary_train"])
def test_train_closed_forms_match_generic(family):
    rng = random.Random(hash(family) & 0xFFFF)
    for rank in range(2, 9):
        gamma = _random_gammas(rank, rng)
        ident = catalog(family, {"gamma": gamma})
        rho_closed, y_closed = train_closed_forms(family, gamma)
        assert identity_peirce_poly(ident) == rho_closed
        assert identity_symbol(ident) == y_closed


def test_principal_train_factorization():
    # rho = (2t - 1) * T(t) with T the train polynomial
    gamma = [Fraction(1), Fraction(-3), Fraction(2)]
    rho, _ = train_closed_forms("principal_train", gamma)
    assert rho(HALF) == 0
    t = Poly1.t()
    # T(t) = (t^2 - 3t + 2)/(t - 1) = t - 2
    assert (2 * t - 1) * (t - 2) == rho


def test_train_constraint_validation():
    with pytest.raises(CatalogParameterError):
        catalog("principal_train", {"gamma": [1, 1]})  # sum != 0
    with pytest.raises(CatalogParameterError):
        catalog("plenary_train", {"gamma": [2, -2]})  # leading != 1
    with pytest.raises(CatalogParameterError):
        train_closed_forms("principal_train", [1])


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("nourigat_varro", None, "nourigat_varro needs the parameters a1, a2, b1, b2, b3"),
        ("principal_train", {}, "principal_train needs the parameter gamma"),
        ("hsiang", {"x": "1"}, "hsiang has no parameter 'x'; it takes none"),
        ("walcher", {"a_c": "1/3", "c": "1"}, "walcher has no parameter 'c'; its parameters are a_c, b_c"),
        ("walcher", {"a_c": ["1/3", "b_c=1"]}, "walcher parameter a_c must be a number, got ['1/3', 'b_c=1']"),
        ("nourigat_varro", {"a1": 1, "a2": 1, "b1": 1, "b2": 0, "b3": [1]}, "nourigat_varro parameter b3"),
        ("plenary_train", {"gamma": 5}, "plenary_train parameter gamma must be a list of numbers, got 5"),
        ("plenary_train", {"gamma": "12"}, "plenary_train needs rank >= 2"),
        ("principal_train", {"gamma": [1, None]}, "principal_train parameter gamma must be a list of numbers"),
        ("principal_train", {"gamma": "1:-3:2"}, "principal_train parameter gamma must be a list of numbers, got ['1:-3:2']"),
        ("principal_train", {"gamma": ["1", "x"]}, "principal_train parameter gamma must be a list of numbers, got ['1', 'x']"),
        ("walcher", {"a_c": "x"}, "walcher parameter a_c must be a number, got 'x'"),
        ("walcher", {"a_c": 0.1}, "walcher parameter a_c takes an int, a Fraction or text, not the float 0.1"),
        ("walcher", {"a_c": "1/2", "b_c": 0.5},
         "walcher parameter b_c takes an int, a Fraction or text, not the float 0.5"),
        ("walcher", {"a_c": True}, "walcher parameter a_c takes an int, a Fraction or text, not the bool True"),
        ("principal_train", {"gamma": [1, True, -2]},
         "principal_train parameter gamma takes an int, a Fraction or text, not the bool True in [1, True, -2]"),
        ("plenary_train", {"gamma": [1.0, -1.0]},
         "plenary_train parameter gamma takes an int, a Fraction or text, not the float 1.0 in [1.0, -1.0]"),
        ("nourigat_varro", {"a1": 1, "a2": 1, "b1": 1, "b2": False, "b3": 1},
         "nourigat_varro parameter b2 takes an int, a Fraction or text, not the bool False"),
    ],
)
def test_catalog_checks_parameters_against_the_family(name, params, message):
    with pytest.raises(CatalogParameterError, match="^" + re.escape(message)):
        catalog(name, params)


def test_catalog_reads_text_ints_and_fractions_exactly():
    want = catalog("walcher", {"a_c": Fraction(1, 10)})
    assert catalog("walcher", {"a_c": "1/10"}) == want == catalog("walcher", {"a_c": "0.1"})
    assert catalog("principal_train", {"gamma": [1, "-3", Fraction(2)]}) == catalog(
        "principal_train", {"gamma": ["1", "-3", "2"]}
    )


# --- JSON round trip ----------------------------------------------------------


def test_identity_json_round_trip():
    params = {"principal_train": {"gamma": [1, -3, 2]}, "plenary_train": {"gamma": [1, -3, 2]},
              "nourigat_varro": {"a1": 1, "a2": 2, "b1": 1, "b2": 1, "b3": 1}}
    for name in catalog_names():
        ident = catalog(name, params.get(name))
        blob = identity_to_json(ident)
        back = identity_from_json(json.dumps(blob))
        assert back.terms == ident.terms
        assert back.name == ident.name
        # a null name is absent, and the identity stays hashable
        back = identity_from_json({**blob, "name": None})
        assert back.name is None and hash(back) == hash(identity_from_json({**blob, "name": None}))


@pytest.mark.parametrize("k", [True, False, 1.5, 2.0, "1", None])
def test_a_baric_exponent_is_an_int_and_not_a_bool(k):
    # baric_weight(True) was written as "k": true, which identity_from_json
    # refuses, and baric_weight(1.5) failed only inside verify_identity
    with pytest.raises(TypeError, match=f"^baric exponent must be an int, not the {type(k).__name__} "):
        baric_weight(k)
    with pytest.raises(TypeError, match="^baric exponent must be an int"):
        WeightDescriptor(k, (atom(),))


def test_identity_json_weights():
    ident = make_identity(
        [
            (1, principal_power(3)),
            (-2, principal_power(2), baric_weight(2)),
            (1, atom(), bilinear_weight(principal_power(2))),
        ]
    )
    back = identity_from_json(identity_to_json(ident))
    assert back.terms == ident.terms


def test_identity_json_product_weight_round_trip():
    # omega(z) * b(z, z) and b(z, z) * b(z, z^2) are products, written with "k" and "monomials"
    z = atom()
    weights = (WeightDescriptor(1, (z,)), WeightDescriptor(0, (z, principal_power(2))))
    ident = make_identity([(1, principal_power(2), weights[0]), (-1, z, weights[0]), (2, z, weights[1]),
                           (-2, principal_power(3), weights[1])])
    blob = identity_to_json(ident)
    written = [t["weight"] for t in blob["terms"]]
    assert written.count({"kind": "product", "k": 1, "monomials": ["z"]}) == 2
    assert written.count({"kind": "product", "k": 0, "monomials": ["z", "z^2"]}) == 2
    assert identity_from_json(json.dumps(blob)) == ident


def test_identity_json_weight_needs_a_kind():
    # bernstein's baric weight with its "kind" deleted used to read back as
    # the constant weight, a different identity
    doc = identity_to_json(catalog("bernstein"))
    term = next(i for i, t in enumerate(doc["terms"]) if t["weight"]["kind"] == "baric")
    del doc["terms"][term]["weight"]["kind"]
    with pytest.raises(KeyError, match=rf'^terms\[{term}\]\.weight has no "kind", got \{{"k": 2\}}$'):
        identity_from_json(doc)
    # an empty object, like an absent weight, is the constant weight
    doc["terms"][term]["weight"] = {}
    assert all(t.weight == constant_weight() for t in identity_from_json(doc).terms)


def test_identity_from_json_decodes_text_once():
    text = json.dumps(identity_to_json(catalog("hsiang")))
    assert identity_from_json(text) == catalog("hsiang")
    with pytest.raises(TypeError, match="^expected a JSON object at the top level, got a string$"):
        identity_from_json(json.dumps(text))
    with pytest.raises(TypeError, match="^expected a JSON object at the top level, got null$"):
        identity_from_json("null")


def test_identity_json_rejects_bad_sum():
    blob = {"terms": [{"coeff": "1", "monomial": "z"}]}
    with pytest.raises(ZeroSumViolation):
        identity_from_json(blob)
    # a formal sum with a nonzero total is written, but a file holds an identity
    formal = identity_to_json(WeightedIdentity([(1, principal_power(2)), (1, atom())]))
    with pytest.raises(ZeroSumViolation, match="^coefficients at an idempotent sum to 2, not 0$"):
        identity_from_json(formal)


# --- identity-level results: oracles and sharing ---------------------------------


_SMALL_MONOMIALS = [m for d in range(1, 9) for m in enumerate_monomials(d)]


@settings(max_examples=80)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-6, max_value=6, max_denominator=12),
            st.sampled_from(_SMALL_MONOMIALS),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_identity_rho_and_symbol_match_growing_sums(raw_terms):
    # a list of terms, repeated monomials and zero coefficients all allowed;
    # the oracles sum the raw terms, before they are merged
    raw = SimpleNamespace(terms=[IdentityTerm(c, m, baric_weight(k)) for c, m, k in raw_terms])
    merged = Counter()
    for t in raw.terms:
        merged[t.monomial, t.weight] += t.coeff
    if not any(merged.values()):
        with pytest.raises(EmptyIdentity):
            WeightedIdentity(raw.terms)
        return
    ident = WeightedIdentity(raw.terms)
    assert ident.terms == tuple(IdentityTerm(c, *key) for key, c in sorted(merged.items()) if c)
    clear_identity_caches()
    rho, sym = identity_peirce_poly(ident), identity_symbol(ident)
    assert rho == reference.identity_rho(raw)
    assert sym == reference.identity_symbol(raw)
    assert identity_peirce_poly(ident) is rho and identity_symbol(ident) is sym


def test_identity_built_from_a_list_is_hashable_and_cached():
    terms = [IdentityTerm(Fraction(1), principal_power(3)), IdentityTerm(Fraction(-1), atom())]
    ident = WeightedIdentity(terms, name="listed")
    assert ident == WeightedIdentity(tuple(terms), name="listed")
    assert hash(ident) == hash(WeightedIdentity(tuple(terms), name="listed"))
    report = spectrum(ident)
    assert spectrum(ident) is report
    assert report.roots == ((Fraction(-1), 1), (HALF, 1))


def test_identity_hash_is_taken_once(monkeypatch):
    terms = [IdentityTerm(Fraction(1, 3), principal_power(3)), IdentityTerm(Fraction(-1, 3), atom())]
    listed = WeightedIdentity(terms, name="hashed")
    tupled = WeightedIdentity(tuple(terms), name="hashed")
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed != WeightedIdentity(tuple(terms), name="other")
    report = spectrum(listed)
    calls = []
    term_hash = IdentityTerm.__hash__

    def counted(self):
        calls.append(self)
        return term_hash(self)

    monkeypatch.setattr(IdentityTerm, "__hash__", counted)
    assert spectrum(tupled) is report
    assert calls == []


def test_half_root_guard_reads_the_integer_rho(monkeypatch):
    """A rho without the root 1/2 on a zero-sum identity is reported as a bug:
    rho(z^2) = 2t is replaced by 2t + 1."""
    ident = make_identity([(1, principal_power(2)), (-1, atom())])
    rho_ints = identities._rho_ints
    monkeypatch.setattr(
        identities, "_rho_ints",
        lambda m, memo: {0: 1, 1: 2} if m.degree == 2 else rho_ints(m, memo),
    )
    clear_identity_caches()
    with pytest.raises(identities.InternalHalfRootMissing):
        spectrum(ident)
    monkeypatch.undo()
    clear_identity_caches()
    assert spectrum(ident).roots == ((HALF, 1),)


def test_terms_of_an_identity_share_one_memo(monkeypatch):
    """z^4 - z^[3]: both terms contain z^2, yet each of the four distinct
    product nodes z^2, z^3, z^4 and z^2*z^2 is folded once per identity."""
    ident = make_identity([(1, principal_power(4)), (-1, plenary_power(3))])
    nodes = {principal_power(d) for d in (2, 3, 4)} | {plenary_power(3)}
    for name, form in (("_rho_step", identity_peirce_poly), ("_symbol_step", identity_symbol)):
        step, calls = getattr(peirce, name), []
        monkeypatch.setattr(peirce, name, lambda m, l, r: calls.append(m) or step(m, l, r))
        clear_identity_caches()
        form(ident)
        assert len(calls) == len(set(calls)) and set(calls) == nodes
        monkeypatch.undo()


def test_one_root_solve_and_one_grid_per_identity(monkeypatch):
    """rho, the spectrum, Y and both fusion tables of one identity solve rho
    once and build the zero grid of Y once, without slicing Y per pair."""
    roots = [Fraction(-3), Fraction(-1, 3), Fraction(1, 4), Fraction(2, 5), Fraction(3, 2)]
    ident = _planted_train("principal_train", roots)
    solves, slicings = [], []
    solve = identities.rational_roots
    monkeypatch.setattr(identities, "rational_roots", lambda rho: solves.append(rho) or solve(rho))
    slices = peirce._symbol_at.__code__

    def profile(frame, event, arg):  # every call of _symbol_at, by whatever name it is reached
        if event == "call" and frame.f_code is slices:
            slicings.append(frame)

    clear_identity_caches()
    sys.setprofile(profile)
    try:
        rho = identity_peirce_poly(ident)
        report = spectrum(ident)
        sym = identity_symbol(ident)
        generic = fusion_table(ident, mode="generic")
        metrized = fusion_table(ident, mode="metrized_orthogonal")
    finally:
        sys.setprofile(None)
    # the grid is one Horner pass in a per eigenvalue over packed ints
    assert len(solves) == 1 and slicings == []
    assert len(report.roots) == 6 and report.peirce_poly is rho
    assert generic.spectrum == metrized.spectrum and len(generic.spectrum) == 7
    # the cached tables are immutable, but for the position index, which
    # both share and neither writes to
    index = generic.entries._index
    assert isinstance(generic.spectrum, tuple) and metrized.spectrum is generic.spectrum
    for table in (generic, metrized):
        assert isinstance(table.entries._sets, tuple)
        assert all(isinstance(allowed, frozenset) for allowed in table.entries._sets)
    assert index == {v: k for k, v in enumerate(generic.spectrum)}
    assert metrized.entries._index is index
    assert sym == reference.identity_symbol(ident)


def test_both_tables_are_built_once_per_identity(monkeypatch):
    """The first fusion_table call of an identity builds both tables from
    one kernel pass; every later call, in either mode, returns the same
    table object and runs no kernel pass."""
    ident = _planted_train("plenary_train", [Fraction(-2), Fraction(1, 3), HALF])
    passes = []
    kernel = peirce._zero_rows
    monkeypatch.setattr(identities, "_zero_rows", lambda y, fracs: passes.append(fracs) or kernel(y, fracs))
    clear_identity_caches()
    modes = ("metrized_orthogonal", "generic")
    tables = {mode: fusion_table(ident, mode=mode) for mode in modes}
    assert len(passes) == 1
    for _ in range(2):
        for mode in modes:
            assert fusion_table(ident, mode=mode) is tables[mode]
    assert len(passes) == 1
    assert tables["generic"] != tables["metrized_orthogonal"]
    with pytest.raises(ValueError, match="^unknown fusion mode 'metrized'$"):
        fusion_table(ident, mode="metrized")


def test_degenerate_and_irrational_identities_raise_on_every_call():
    clear_identity_caches()
    for _ in range(2):
        with pytest.raises(DegenerateIdentity):
            fusion_table(catalog("elduque_labra"), mode="metrized_orthogonal")
        with pytest.raises(identities.IrrationalSpectrum):
            fusion_table(catalog("principal_train", {"gamma": [1, -1, -2, 2]}))


def test_refusal_is_decided_once_per_identity(monkeypatch):
    """A refused identity raises a fresh exception of one class with one
    message in both modes and on every call, and its residual is rendered
    once per identity, not once per call."""
    renders = []
    render = Poly.render
    monkeypatch.setattr(Poly, "render", lambda self: renders.append(self) or render(self))
    for ident, cls, message, rendered in [
        (catalog("elduque_labra"), DegenerateIdentity, "degenerate identity has no fusion table", 0),
        (catalog("principal_train", {"gamma": [1, -1, -2, 2]}), identities.IrrationalSpectrum,
         "non-rational spectral factor remains: 2*t^2 - 4", 1),
    ]:
        clear_identity_caches()
        renders.clear()
        raised = []
        for _ in range(3):
            for mode in ("generic", "metrized_orthogonal"):
                with pytest.raises(cls) as info:
                    fusion_table(ident, mode=mode)
                assert type(info.value) is cls and str(info.value) == message
                raised.append(info.value)
        assert len(renders) == rendered
        assert len({id(exc) for exc in raised}) == len(raised)


# --- fusion tables: the per-triple definition in reference as the oracle ----------


# coprime denominators, so that the identity's common denominator D is > 1
_SCALES = [Fraction(1, 3), Fraction(1, 7), Fraction(-10, 21), Fraction(5, 2), Fraction(1)]
_PLANTED = [
    Fraction(-3), Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(0), Fraction(1, 7),
    Fraction(1, 3), HALF, Fraction(2, 3), ONE, Fraction(3, 2), Fraction(3), Fraction(-10, 21),
]
_FUSION_MONOMIALS = [m for d in range(1, 6) for m in enumerate_monomials(d)]
_REFINEMENTS = {
    "generic": (),
    "metrized_orthogonal": ("b-orthogonal Peirce components", "first-order weight terms vanish off A_c(1)"),
}


def _planted_train(family, roots):
    """The train identity with the roots 1 and `roots`."""
    return catalog(family, {"gamma": reference.train_gammas(roots)})


def _zero_sum_identity(raw_terms, last):
    """The terms and `last`, weighted so that the coefficients sum to 0, or
    None if they cancel."""
    terms = list(raw_terms)
    rest = -sum(c for c, _ in terms)
    if rest:
        terms.append((rest, last))
    try:
        return make_identity(terms)
    except EmptyIdentity:
        return None


_RATIONAL_SPECTRUM_IDENTITIES = st.one_of(
    st.builds(
        _planted_train,
        st.sampled_from(["principal_train", "plenary_train"]),
        st.lists(st.sampled_from(_PLANTED), min_size=1, max_size=4),
    ),
    st.builds(
        _zero_sum_identity,
        st.lists(
            st.tuples(st.sampled_from(_SCALES), st.sampled_from(_FUSION_MONOMIALS)),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from(_FUSION_MONOMIALS),
    ),
)


@settings(max_examples=80, deadline=None)
@given(_RATIONAL_SPECTRUM_IDENTITIES, st.sampled_from(_SCALES))
def test_fusion_table_matches_the_per_triple_definition(ident, scale):
    assume(ident is not None)
    # scaling an identity changes neither its spectrum nor the zeros of Y
    ident = make_identity([(scale * t.coeff, t.monomial, t.weight) for t in ident.terms])
    report = spectrum(ident)
    assume(not report.degenerate and report.residual.degree < 1)
    for mode in ("generic", "metrized_orthogonal"):
        table = fusion_table(ident, mode=mode)
        assert (table.spectrum, table.entries) == reference.fusion_table(ident, mode)
        assert table.mode == mode and table.refinements_applied == _REFINEMENTS[mode]


def _entries_by_dict(identity, mode):
    """The entries as a dict keyed by (lam, mu): the keys of the per-triple
    definition, in its order, and the sets the table stores by position, in
    grid order, which must be the definition's."""
    want = reference.fusion_table(identity, mode)[1]
    entries = dict(zip(want, fusion_table(identity, mode=mode).entries._sets))
    assert entries == want
    return entries


_NOT_KEYS = [(Fraction(7, 11), ONE), (ONE, Fraction(7, 11)), (0.1, 0.1), (ONE,), (ONE, ONE, ONE), ONE, "ab", None]


@settings(max_examples=60, deadline=None)
@given(_RATIONAL_SPECTRUM_IDENTITIES, st.sampled_from(["generic", "metrized_orthogonal"]))
def test_position_keyed_entries_read_as_the_dict(ident, mode):
    assume(ident is not None)
    report = spectrum(ident)
    assume(not report.degenerate and report.residual.degree < 1)
    entries, want = fusion_table(ident, mode=mode).entries, _entries_by_dict(ident, mode)
    assert type(entries) is not dict and isinstance(entries, Mapping)
    assert entries == want and want == entries and not entries != want
    assert list(entries) == list(want) and list(entries.items()) == list(want.items())
    assert list(entries.values()) == list(want.values())
    assert repr(entries) == repr(want) and len(entries) == len(want)
    for lam, mu in want:
        assert (lam, mu) in entries and entries.get((lam, mu)) is entries[lam, mu]
        if mu.denominator in (1, 2):  # an int or a float equal to an eigenvalue finds it
            assert entries[lam, float(mu)] == want[lam, float(mu)]
        if lam != mu:
            reversed_pair = (mu, lam)
            assert reversed_pair not in entries and entries.get(reversed_pair, "-") == "-"
            with pytest.raises(KeyError) as info:
                entries[reversed_pair]
            assert info.value.args == (reversed_pair,)
    for key in _NOT_KEYS:
        assert (key in entries) is (key in want) is False
        with pytest.raises(KeyError):
            entries[key]
    for unhashable in ([ONE, ONE], ([ONE], ONE)):
        with pytest.raises(TypeError):
            entries[unhashable]
        with pytest.raises(TypeError):
            want[unhashable]
    with pytest.raises(TypeError):
        hash(entries)
    with pytest.raises(TypeError):
        entries[next(iter(want))] = frozenset()
    # a copied frozenset may list its elements in another order, so each copy
    # is compared with the same copy of the dict
    for copier in (copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))):
        copied, copied_want = copier(entries), copier(want)
        assert type(copied) is type(entries) and copied == want
        assert list(copied) == list(want) and repr(copied) == repr(copied_want)
    table = fusion_table(ident, mode=mode)
    assert pickle.loads(pickle.dumps(table)) == table == FusionTable(table.spectrum, want, mode, table.refinements_applied)
    for lam, mu in want:
        assert table.allowed(mu, lam) is table.allowed(lam, mu) is table.entries[lam, mu]


def test_building_a_table_hashes_no_fraction(monkeypatch):
    """Once the tables of an identity are cached, neither mode hashes a
    Fraction; a lookup hashes only the two values asked for."""
    ident = _planted_train("principal_train", [Fraction(-3), Fraction(-1, 3), Fraction(2, 5), Fraction(3, 2)])
    clear_identity_caches()
    fusion_table(ident)
    calls = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    tables = [fusion_table(ident, mode=mode) for mode in ("generic", "metrized_orthogonal")]
    assert calls == []
    key = (Fraction(-1, 3), Fraction(3, 2))
    assert tables[0].entries[key] == tables[0].allowed(*key)
    assert calls == [*key, *key]
