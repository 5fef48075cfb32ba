"""Concrete algebras: builders, spectral analysis, linearization theorems."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from peirce_lab.algebras import (
    StructureAlgebra,
    UnrealizableWeight,
    algebra_from_json,
    algebra_to_json,
    build_algebra,
    builder_names,
    char_poly,
    dimension_constraints_check,
    eigen_decomposition,
    evaluate_monomial,
    fusion_empirical,
    hsiang_tracefree_sym3,
    jordan_sym,
    linearize,
    mat_vec,
    poly_at_matrix,
    second_linearization,
    spectrum_inclusion_check,
    spin_factor,
    verify_first_linearization,
    verify_identity,
    verify_second_linearization,
)
from peirce_lab.identities import FusionTable, catalog, fusion_table, make_identity
from peirce_lab.magma import atom, enumerate_monomials, parse_monomial, plenary_power, principal_power
from peirce_lab.peirce import peirce_poly
from peirce_lab.poly import Poly1

HALF = Fraction(1, 2)
F = Fraction


def _rand_vec(dim, rng):
    return tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))


def _dense_product(alg, x, y):
    """x * y as the full structure-constant sum over every (i, j, k)."""
    return tuple(
        sum((x[i] * y[j] * alg.structure[i][j][k] for i in range(alg.dim) for j in range(alg.dim)), F(0))
        for k in range(alg.dim)
    )


def _labelled_linearization(alg, m, k, x, y):
    """D^k(m; x, y) by its definition: the sum over all C(deg, k) ways to
    label k leaves by y and the others by x, each labelled tree evaluated in full."""

    def walk(node, labels):
        if node.is_atom:
            return next(labels)
        return alg.multiply(walk(node.left, labels), walk(node.right, labels))

    out = tuple(F(0) for _ in range(alg.dim))
    for positions in itertools.combinations(range(m.degree), k):
        labels = iter([y if i in positions else x for i in range(m.degree)])
        out = tuple(a + b for a, b in zip(out, walk(m, labels)))
    return out


# --- builders -----------------------------------------------------------------


def test_builder_registry():
    names = builder_names()
    assert "hsiang_sym3" in names and "jordan_sym2" in names and "spin_factor2" in names
    with pytest.raises(KeyError):
        build_algebra("nope")


@pytest.mark.parametrize("name", ["jordan_sym2", "jordan_sym3", "spin_factor2", "spin_factor3", "hsiang_sym3"])
def test_builders_are_commutative_metrized_with_idempotents(name):
    # construction itself validates commutativity and the associating law
    alg = build_algebra(name)
    assert alg.bilinear_form is not None
    for c in alg.idempotents:
        assert alg.is_idempotent(c)


def test_jordan_sym2_unit_and_product():
    alg = jordan_sym(2)
    assert alg.dim == 3
    unit = alg.idempotents[1]
    for j in range(alg.dim):
        e = alg.basis_vector(j)
        assert alg.multiply(unit, e) == e


def test_spin_factor_guard():
    with pytest.raises(ValueError):
        spin_factor(1)
    with pytest.raises(ValueError):
        jordan_sym(4)


# --- Hsiang pipeline ----------------------------------------------------------


def test_hsiang_eigenstructure():
    alg = hsiang_tracefree_sym3()
    assert alg.dim == 5
    c = alg.idempotents[0]
    assert alg.is_idempotent(c)
    d = eigen_decomposition(alg, c)
    assert d.semisimple
    mults = {lam: d.multiplicity(lam) for lam in d.eigenvalues}
    assert mults == {F(-1): 2, F(1, 2): 2, F(1): 1}
    assert d.residual.degree <= 0
    # sigma(L_c) minus {1} inside the identity's root set
    assert set(d.eigenvalues) - {F(1)} <= {F(-1), F(-1, 2), F(1, 2)}


def test_hsiang_dimension_constraints():
    d = eigen_decomposition(hsiang_tracefree_sym3(), hsiang_tracefree_sym3().idempotents[0])
    report = dimension_constraints_check(d)
    assert report.ok, report.failures


def test_hsiang_identity_random_vectors():
    alg = hsiang_tracefree_sym3()
    report = verify_identity(alg, catalog("hsiang"), trials=50, seed=3)
    assert report.ok, report.failures


def test_hsiang_trace_free_multiplications():
    alg = hsiang_tracefree_sym3()
    for j in range(alg.dim):
        op = alg.mult_operator(alg.basis_vector(j))
        assert sum(op[i][i] for i in range(alg.dim)) == 0


def test_hsiang_spectrum_inclusion():
    alg = hsiang_tracefree_sym3()
    report = spectrum_inclusion_check(alg, alg.idempotents[0], catalog("hsiang"))
    assert report.ok, report.failures


def test_hsiang_empirical_fusion_metrized_table():
    alg = hsiang_tracefree_sym3()
    c = alg.idempotents[0]
    d = eigen_decomposition(alg, c)
    table = fusion_table(catalog("hsiang"), mode="metrized_orthogonal")
    report = fusion_empirical(alg, c, table, d)
    assert report.ok, report.failures


def test_hsiang_form_normalized_at_idempotent():
    alg = hsiang_tracefree_sym3()
    c = alg.idempotents[0]
    assert alg.b(c, c) == 1


def test_jordan_negative_control_fails_hsiang_identity():
    report = verify_identity(jordan_sym(2), catalog("hsiang"), trials=10)
    assert not report.ok


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_identity_needs_a_trial(trials):
    with pytest.raises(ValueError):
        verify_identity(hsiang_tracefree_sym3(), catalog("hsiang"), trials=trials)


def test_fusion_empirical_names_eigenvalue_outside_predicted_spectrum():
    # L_c of E_00 in jordan_sym2 has eigenvalue 0, which the hsiang table lacks
    alg = jordan_sym(2)
    c = alg.idempotents[0]
    report = fusion_empirical(alg, c, fusion_table(catalog("hsiang")), eigen_decomposition(alg, c))
    assert not report.ok
    assert any(f.startswith("eigenvalue 0 ") for f in report.failures), report.failures


def test_fusion_empirical_reports_every_stray_component():
    # jordan_sym2 at E_00: A(1) = <E_00>, A(0) = <E_11>, A(1/2) = <E_01>.
    # A table that allows nothing must flag each nonzero product's components.
    alg = jordan_sym(2)
    c = alg.idempotents[0]
    spectrum = (F(0), HALF, F(1))
    nothing = FusionTable(spectrum, {(a, b): frozenset() for a in spectrum for b in spectrum if a <= b}, "generic")
    report = fusion_empirical(alg, c, nothing, eigen_decomposition(alg, c))
    assert report.failures == (
        "A_c(0) * A_c(0) has components at 0 outside the allowed []",
        "A_c(0) * A_c(1/2) has components at 1/2 outside the allowed []",
        "A_c(1/2) * A_c(1/2) has components at 0, 1 outside the allowed []",
        "A_c(1/2) * A_c(1) has components at 1/2 outside the allowed []",
        "A_c(1) * A_c(1) has components at 1 outside the allowed []",
    )


def test_spectrum_inclusion_negative_control():
    # e0 idempotent, e0*e1 = (1/3) e1: eigenvalue 1/3 is not a Jordan root
    alg = StructureAlgebra(
        dim=2,
        structure=(
            ((F(1), F(0)), (F(0), F(1, 3))),
            ((F(0), F(1, 3)), (F(0), F(0))),
        ),
        idempotents=((F(1), F(0)),),
    )
    report = spectrum_inclusion_check(alg, alg.idempotents[0], catalog("jordan_power_assoc"))
    assert not report.ok
    assert any("1/3" in f for f in report.failures)


# --- spectral machinery -------------------------------------------------------


def test_char_poly_against_known_matrix():
    alg = spin_factor(2)
    unit = alg.idempotents[0]
    cp = char_poly(alg, unit)
    t = Poly1.t()
    assert cp == (t - 1) ** 3  # L_1 is the identity on a 3-dimensional algebra


def test_jordan_sym2_peirce_decomposition():
    alg = jordan_sym(2)
    c = alg.idempotents[0]  # E_00
    d = eigen_decomposition(alg, c)
    mults = {lam: d.multiplicity(lam) for lam in d.eigenvalues}
    assert mults == {F(0): 1, F(1, 2): 1, F(1): 1}
    assert d.semisimple
    # eigenvectors actually satisfy c x = lam x
    for lam, basis in d.eigenbases.items():
        for v in basis:
            assert alg.multiply(c, v) == tuple(lam * vi for vi in v)


def test_eigen_decomposition_requires_idempotent():
    alg = jordan_sym(2)
    with pytest.raises(ValueError):
        eigen_decomposition(alg, (F(2), F(0), F(0)))


def test_spin_factor_idempotent_spectrum():
    alg = spin_factor(3)
    c = alg.idempotents[1]  # (e0 + e1)/2
    d = eigen_decomposition(alg, c)
    mults = {lam: d.multiplicity(lam) for lam in d.eigenvalues}
    assert mults == {F(0): 1, F(1, 2): 2, F(1): 1}


# --- monomial evaluation and linearization ------------------------------------


def test_evaluate_monomial_powers():
    alg = jordan_sym(2)
    rng = random.Random(0)
    x = _rand_vec(alg.dim, rng)
    x2 = alg.multiply(x, x)
    assert evaluate_monomial(alg, parse_monomial("z^2"), x) == x2
    assert evaluate_monomial(alg, parse_monomial("z^3"), x) == alg.multiply(x2, x)
    assert evaluate_monomial(alg, parse_monomial("z^2*z^2"), x) == alg.multiply(x2, x2)


def test_sparse_multiply_matches_dense_sum():
    algs = [build_algebra(name) for name in builder_names()]
    algs.append(algebra_from_json(json.dumps(algebra_to_json(spin_factor(8)))))
    rng = random.Random(8)
    for alg in algs:
        for _ in range(10):
            x, y = _rand_vec(alg.dim, rng), _rand_vec(alg.dim, rng)
            got = alg.multiply(x, y)
            assert got == _dense_product(alg, x, y), alg.name
            assert all(type(v) is F for v in got)
        with pytest.raises(ValueError):
            alg.multiply(x[:-1], y)


def test_nonassociative_shapes_differ():
    # x^2 y + 2 x (x y) style check: distinct tree shapes evaluate differently
    alg = hsiang_tracefree_sym3()
    rng = random.Random(2)
    x = _rand_vec(alg.dim, rng)
    left = evaluate_monomial(alg, parse_monomial("(z*z)*(z*z)"), x)
    right = evaluate_monomial(alg, parse_monomial("z^4"), x)
    assert left != right  # generically distinct in a nonassociative algebra


def test_euler_identity_all_orders():
    # D^k(m; x, x) = C(deg, k) * m(x)
    rng = random.Random(11)
    for alg in (jordan_sym(2), hsiang_tracefree_sym3()):
        x = _rand_vec(alg.dim, rng)
        for d in range(1, 6):
            for m in enumerate_monomials(d):
                mx = evaluate_monomial(alg, m, x)
                for k in range(0, d + 1):
                    got = linearize(alg, m, k, x, x)
                    want = tuple(math.comb(d, k) * v for v in mx)
                    assert got == want, (alg.name, str(m), k)


def test_linearize_order_bounds():
    alg = jordan_sym(2)
    x = alg.basis_vector(0)
    with pytest.raises(ValueError):
        linearize(alg, principal_power(3), 4, x, x)
    with pytest.raises(ValueError):
        linearize(alg, principal_power(3), -1, x, x)


def test_first_linearization_theorem_to_degree_5():
    for alg in (jordan_sym(2), hsiang_tracefree_sym3(), spin_factor(2)):
        for c in alg.idempotents[:1]:
            for d in range(1, 6):
                for m in enumerate_monomials(d):
                    report = verify_first_linearization(alg, c, m)
                    assert report.ok, (alg.name, str(m), report.failures)


def test_second_linearization_theorem_to_degree_5():
    for alg in (jordan_sym(2), hsiang_tracefree_sym3()):
        c = alg.idempotents[0]
        decomp = eigen_decomposition(alg, c)
        for d in range(2, 6):
            for m in enumerate_monomials(d):
                for lam in decomp.eigenvalues:
                    for mu in decomp.eigenvalues:
                        report = verify_second_linearization(alg, c, m, lam, mu, decomp)
                        assert report.ok, (alg.name, str(m), lam, mu, report.failures)


def test_second_linearization_is_polarized_d2():
    rng = random.Random(5)
    for alg in (jordan_sym(2), hsiang_tracefree_sym3(), spin_factor(3)):
        c, x, y = (_rand_vec(alg.dim, rng) for _ in range(3))
        for d in range(2, 7):
            for m in enumerate_monomials(d):
                total = linearize(alg, m, 2, c, tuple(a + b for a, b in zip(x, y)))
                direct = tuple(
                    t - u - v
                    for t, u, v in zip(total, linearize(alg, m, 2, c, x), linearize(alg, m, 2, c, y))
                )
                assert second_linearization(alg, m, c, x, y) == direct, (alg.name, str(m))
        assert second_linearization(alg, atom(), c, x, y) == tuple(F(0) for _ in range(alg.dim))


@pytest.mark.parametrize("name", ["jordan_sym2", "hsiang_sym3", "spin_factor3"])
def test_linearize_matches_labelled_sum(name):
    alg = build_algebra(name)
    rng = random.Random(17)
    x, y = _rand_vec(alg.dim, rng), _rand_vec(alg.dim, rng)
    for d in range(1, 7):
        for m in enumerate_monomials(d):
            for k in range(d + 1):
                assert linearize(alg, m, k, x, y) == _labelled_linearization(alg, m, k, x, y), (str(m), k)


def test_linearize_product_count(monkeypatch):
    # z^[6] has 5 distinct product nodes; mod eps^3 each multiplies at most
    # 6 pairs of jet coefficients.  The labelled sum takes C(32, 2) * 31.
    alg = hsiang_tracefree_sym3()
    rng = random.Random(4)
    x, y = _rand_vec(alg.dim, rng), _rand_vec(alg.dim, rng)
    calls = []
    inner = alg.multiply
    monkeypatch.setattr(alg, "multiply", lambda u, v: calls.append(1) or inner(u, v))
    linearize(alg, plenary_power(6), 2, x, y)
    assert 0 < len(calls) <= 30


def test_deep_monomial_evaluates_without_recursion():
    alg = jordan_sym(2)
    c = alg.idempotents[0]  # E_00; E_01 lies in A_c(1/2)
    m = principal_power(2000)
    assert evaluate_monomial(alg, m, c) == c
    # D^1(m; c, y) = rho(m, L_c) y, and rho(m, 1/2) = 1
    y = alg.basis_vector(2)
    assert linearize(alg, m, 1, c, y) == y
    assert linearize(alg, m, 1, c, c) == tuple(2000 * v for v in c)


# --- weights on concrete algebras ---------------------------------------------


def test_unrealizable_weight():
    alg = StructureAlgebra(
        dim=1, structure=(((F(1),),),), idempotents=((F(1),),)
    )
    baric = catalog("bernstein")
    with pytest.raises(UnrealizableWeight):
        verify_identity(alg, baric, trials=1)


def test_weighted_identity_on_weighted_algebra():
    # one-dimensional algebra e^2 = e with omega(x) = x satisfies Bernstein
    alg = StructureAlgebra(
        dim=1,
        structure=(((F(1),),),),
        weight=(F(1),),
        idempotents=((F(1),),),
    )
    report = verify_identity(alg, catalog("bernstein"), trials=20)
    assert report.ok, report.failures


# --- JSON ---------------------------------------------------------------------


def test_algebra_json_round_trip():
    for name in ["jordan_sym2", "hsiang_sym3", "spin_factor2"]:
        alg = build_algebra(name)
        blob = algebra_to_json(alg)
        text = json.dumps(blob)
        back = algebra_from_json(json.loads(text))
        assert back.dim == alg.dim
        assert back.structure == alg.structure
        assert back.bilinear_form == alg.bilinear_form
        assert back.idempotents == alg.idempotents


def test_algebra_validation_rejects_noncommutative():
    with pytest.raises(ValueError):
        StructureAlgebra(
            dim=2,
            structure=(
                ((F(0), F(1)), (F(0), F(0))),
                ((F(1), F(0)), (F(0), F(0))),
            ),
        )


def test_algebra_validation_rejects_nonassociating_form():
    # commutative, but the form does not satisfy b(xy, z) = b(x, yz)
    with pytest.raises(ValueError):
        StructureAlgebra(
            dim=2,
            structure=(
                ((F(1), F(0)), (F(1), F(0))),
                ((F(1), F(0)), (F(0), F(0))),
            ),
            bilinear_form=((F(1), F(0)), (F(0), F(1))),
        )


def test_poly_at_matrix():
    alg = jordan_sym(2)
    c = alg.idempotents[0]
    lc = alg.mult_operator(c)
    t = Poly1.t()
    m = poly_at_matrix(2 * t**2 - t + 3, lc)
    rng = random.Random(9)
    v = _rand_vec(alg.dim, rng)
    lv = alg.multiply(c, v)
    llv = alg.multiply(c, lv)
    want = tuple(2 * a - b + 3 * w for a, b, w in zip(llv, lv, v))
    assert mat_vec(m, v) == want
