"""Concrete algebras: builders, spectral analysis, linearization theorems."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from peirce_lab import algebras
from peirce_lab.algebras import (
    StructureAlgebra,
    UnrealizableWeight,
    algebra_from_json,
    algebra_to_json,
    build_algebra,
    builder_names,
    char_poly,
    char_poly_matrix,
    dimension_constraints_check,
    eigen_decomposition,
    evaluate_monomial,
    fusion_empirical,
    hsiang_tracefree_sym3,
    jordan_sym,
    linearize,
    second_linearization,
    spectrum_inclusion_check,
    spin_factor,
    verify_first_linearization,
    verify_identity,
    verify_second_linearization,
)
from peirce_lab.identities import (
    FusionTable,
    baric_weight,
    bilinear_weight,
    catalog,
    fusion_table,
    make_identity,
)
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
        jordan_sym(1)


@pytest.mark.parametrize("n", [4, 5])
def test_jordan_sym_beyond_three(n):
    alg = jordan_sym(n)
    assert alg.dim == n * (n + 1) // 2
    e00, unit = alg.idempotents
    d = eigen_decomposition(alg, e00)
    assert d.semisimple
    assert {lam: d.multiplicity(lam) for lam in d.eigenvalues} == {F(0): n * (n - 1) // 2, HALF: n - 1, F(1): 1}
    d1 = eigen_decomposition(alg, unit)
    assert {lam: d1.multiplicity(lam) for lam in d1.eigenvalues} == {F(1): n * (n + 1) // 2}
    jordan = catalog("jordan_power_assoc")
    report = verify_identity(alg, jordan, trials=5)
    assert report.ok, report.failures
    report = spectrum_inclusion_check(alg, e00, jordan, d)
    assert report.ok, report.failures
    report = fusion_empirical(alg, e00, fusion_table(jordan), d)
    assert report.ok, report.failures


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


_TRAIN_WITH_SQRT2 = {"gamma": [1, -1, -2, 2]}  # rho = (2t - 1)(t^2 - 2)


@pytest.mark.parametrize("residual, ok", [("t^2 - 2", True), ("(t^2 - 2)^2", True), ("t^2 - 3", False)])
def test_spectrum_inclusion_decides_an_irrational_factor(residual, ok):
    t = Poly1.t()
    residual = {"t^2 - 2": t**2 - 2, "(t^2 - 2)^2": (t**2 - 2) ** 2, "t^2 - 3": t**2 - 3}[residual]
    decomposition = algebras.PeirceDecomposition(
        idempotent=(F(1), F(0), F(0)),
        char_poly=(t - HALF) * residual,
        eigenvalues=(HALF,),
        eigenbases={HALF: ((F(1), F(0), F(0)),)},
        residual=residual,
        semisimple=False,
    )
    alg = jordan_sym(2)
    report = spectrum_inclusion_check(
        alg, alg.idempotents[0], catalog("principal_train", _TRAIN_WITH_SQRT2), decomposition
    )
    assert report.ok is ok
    expected = () if ok else (f"L_c has non-rational spectral factor {residual.render()}",)
    assert report.failures == expected


def test_spectrum_inclusion_on_an_algebra_with_eigenvalues_plus_minus_sqrt2():
    # e0 e0 = e0, e0 e1 = e2, e0 e2 = 2 e1: chi(L_e0) = (t - 1)(t^2 - 2)
    z, o = F(0), F(1)
    alg = StructureAlgebra(
        dim=3,
        structure=(
            ((o, z, z), (z, z, o), (z, F(2), z)),
            ((z, z, o), (z, z, z), (z, z, z)),
            ((z, F(2), z), (z, z, z), (z, z, z)),
        ),
        idempotents=((o, z, z),),
    )
    d = eigen_decomposition(alg, alg.idempotents[0])
    assert d.eigenvalues == (F(1),) and d.residual == Poly1.t() ** 2 - 2
    report = spectrum_inclusion_check(alg, alg.idempotents[0], catalog("principal_train", _TRAIN_WITH_SQRT2), d)
    assert report.ok, report.failures
    report = spectrum_inclusion_check(alg, alg.idempotents[0], catalog("hsiang"), d)
    assert report.failures == ("L_c has non-rational spectral factor t^2 - 2",)


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


def test_vector_length_is_checked():
    # every entry point clears denominators of vectors it must first check
    zero = (F(0), F(0))
    alg = StructureAlgebra(dim=2, structure=(((F(1), F(0)), zero), (zero, zero)),
                           bilinear_form=((F(1), F(0)), zero), weight=(F(1), F(0)))
    x, short = (F(1), F(2)), (F(1),)
    calls = [
        lambda: alg.multiply(x, short),
        lambda: alg.b(short, x),
        lambda: alg.omega(x + x),
        lambda: evaluate_monomial(alg, principal_power(2), short),
        lambda: linearize(alg, atom(), 0, short, x),
        lambda: second_linearization(alg, atom(), x, x, short),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="vector length does not match algebra dimension"):
            call()


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


@pytest.mark.parametrize("name, columns", [("jordan_sym2", (0, 2)), ("hsiang_sym3", (0, 1, 2, 3, 4))])
def test_linearization_checks_fail_at_twice_the_idempotent(name, columns):
    # Negative controls: both laws hold at the idempotent c and fail at 2c,
    # which is not idempotent; a check that always passed would miss this.
    alg = build_algebra(name)
    c = alg.idempotents[0]
    c2 = tuple(2 * v for v in c)
    decomp = eigen_decomposition(alg, c)
    m = parse_monomial("z^3")
    assert verify_first_linearization(alg, c, m).ok
    first = verify_first_linearization(alg, c2, m)
    assert not first.ok
    assert first.failures == tuple(f"column {j}: D^1 != rho(L_c)" for j in columns)
    assert verify_second_linearization(alg, c, m, HALF, HALF, decomp).ok
    second = verify_second_linearization(alg, c2, m, HALF, HALF, decomp)
    assert not second.ok
    pairs = decomp.multiplicity(HALF) ** 2
    assert second.failures == ("pair in A_c(1/2) x A_c(1/2) fails for z^3",) * pairs


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
    inner = StructureAlgebra._product
    # algebras are slotted, so the kernel is counted on the class
    monkeypatch.setattr(
        StructureAlgebra, "_product", lambda self, u, v: calls.append(1) or inner(self, u, v)
    )
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
    # f(L_c)v against L_c applied by multiply
    alg = jordan_sym(2)
    c = alg.idempotents[0]
    t = Poly1.t()
    rng = random.Random(9)
    v = _rand_vec(alg.dim, rng)
    lv = alg.multiply(c, v)
    llv = alg.multiply(c, lv)
    want = tuple(2 * a - b + 3 * w for a, b, w in zip(llv, lv, v))
    assert algebras._operator_poly(alg, 2 * t**2 - t + 3, c, v) == want


# --- integer kernels against their Fraction definitions -----------------------
#
# algebras computes in ints over cleared denominators.  The oracles below are
# the definitions in Fractions, with no shared code.

small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 5))


def _fraction_mat_mul(m1, m2):
    n = len(m1)
    return [[sum((m1[i][k] * m2[k][j] for k in range(n)), F(0)) for j in range(n)] for i in range(n)]


def _fraction_char_poly(m):
    """Faddeev-LeVerrier in Fractions."""
    n = len(m)
    coeffs = {n: F(1)}
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                mk[i][i] += coeffs[n - k + 1]
            mk = _fraction_mat_mul(m, mk)
        coeffs[n - k] = -sum((mk[i][i] for i in range(n)), F(0)) / k
    return Poly1(coeffs)


def _fraction_poly_at_matrix(f, m):
    """f(M) by Horner's scheme in Fractions."""
    n = len(m)
    out = [[F(0)] * n for _ in range(n)]
    for e in range(f.degree, -1, -1):
        out = _fraction_mat_mul(out, m)
        for i in range(n):
            out[i][i] += f.coeff(e)
    return out


def _form_error(structure, form):
    """The first failing check of StructureAlgebra's validation, per triple in Fractions."""
    n = len(structure)

    def b(x, y):
        return sum((x[i] * form[i][j] * y[j] for i in range(n) for j in range(n)), F(0))

    basis = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(i):
            if structure[i][j] != structure[j][i]:
                return f"structure constants not commutative at ({i}, {j})"
    if any(form[i][j] != form[j][i] for i in range(n) for j in range(n)):
        return "bilinear form is not symmetric"
    for i, j, k in itertools.product(range(n), repeat=3):
        if b(structure[i][j], basis[k]) != b(basis[i], structure[j][k]):
            return f"bilinear form is not associating on basis triple ({i}, {j}, {k})"
    return None


def _fraction_jet(alg, m, leaf, caps=()):
    """The jet of m at `leaf` in Fractions, every product by _dense_product."""
    memo = {atom(): leaf}
    stack = [m]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        pending = [child for child in (node.left, node.right) if child not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        out = {}
        for ea, va in memo[node.left].items():
            for eb, vb in memo[node.right].items():
                e = tuple(i + j for i, j in zip(ea, eb))
                if all(i <= cap for i, cap in zip(e, caps)):
                    v = _dense_product(alg, va, vb)
                    out[e] = tuple(s + t for s, t in zip(out[e], v)) if e in out else v
        memo[node] = out
    return memo[m]


def _fraction_identity_failures(alg, identity, trials, seed):
    """verify_identity's failure lines, with P(x) summed in Fractions."""
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        x = algebras._random_vector(alg.dim, rng)
        acc = [F(0)] * alg.dim
        for t in identity.terms:
            w = F(1)
            if t.weight.baric_exp:
                w *= sum((a * b for a, b in zip(alg.weight, x)), F(0)) ** t.weight.baric_exp
            for m in t.weight.bilinear_args:
                y = _fraction_jet(alg, m, {(): x})[()]
                w *= sum((x[i] * alg.bilinear_form[i][j] * y[j] for i in range(alg.dim) for j in range(alg.dim)), F(0))
            value = _fraction_jet(alg, t.monomial, {(): x})[()]
            acc = [a + t.coeff * w * v for a, v in zip(acc, value)]
        if any(acc):
            failures.append(f"trial {trial}: P(x) != 0")
    return tuple(failures)


@st.composite
def rational_matrices(draw, min_size=0, max_size=5):
    """Square matrices with denominators > 1, negative entries and zero rows."""
    n = draw(st.integers(min_size, max_size))
    m = [[draw(small_fractions) for _ in range(n)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        m[i] = [F(0)] * n
    return m


def _symmetric(draw, n, entries=small_fractions):
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    return m


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_char_poly_matches_fraction_faddeev_leverrier(m):
    assert char_poly_matrix(m) == _fraction_char_poly(m)


def test_integer_faddeev_leverrier_refuses_a_non_integral_matrix():
    # Every trace division is exact for an int matrix; a remainder is an error.
    assert algebras._faddeev_leverrier([[2, 1], [1, 2]]) == [3, -4, 1]
    with pytest.raises(ArithmeticError):
        algebras._faddeev_leverrier([[F(1, 2)]])
    with pytest.raises(ArithmeticError):
        algebras._faddeev_leverrier([[F(1, 2), F(0)], [F(0), F(1, 2)]])


# Six coordinates cover every builder; each algebra reads the first dim.
six_fractions = st.lists(small_fractions, min_size=6, max_size=6)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(builder_names()),
    st.dictionaries(st.integers(0, 5), small_fractions, max_size=4).map(Poly1),
    six_fractions,
    six_fractions,
)
@example("jordan_sym2", Poly1({}), [F(1, 2)] * 6, [F(-3, 4)] * 6)  # the zero polynomial
@example("hsiang_sym3", Poly1({0: F(-5, 3)}), [F(2, 3)] * 6, [F(1, 5)] * 6)  # a constant
@example("spin_factor3", Poly1({1: F(2), 3: F(-1, 4)}), [F(0)] * 6, [F(1)] * 6)  # c = 0
def test_poly_at_matrix_matches_fraction_horner(name, f, c, v):
    alg = build_algebra(name)
    c, v = tuple(c[: alg.dim]), tuple(v[: alg.dim])
    op = _fraction_poly_at_matrix(f, alg.mult_operator(c))
    want = tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in op)
    assert algebras._operator_poly(alg, f, c, v) == want


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_form_check_matches_per_triple_definition(data):
    # A builder's structure with its form scaled (still associating) or with
    # one entry changed, or random constants and a random symmetric form.
    if data.draw(st.booleans()):
        alg = build_algebra(data.draw(st.sampled_from(["jordan_sym2", "spin_factor2", "hsiang_sym3"])))
        n, structure = alg.dim, alg.structure
        scale = data.draw(small_fractions)
        form = [[scale * v for v in row] for row in alg.bilinear_form]
        if data.draw(st.booleans()):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            form[i][j] = form[j][i] = form[i][j] + data.draw(small_fractions)
    else:
        n = data.draw(st.integers(1, 4))
        vectors = st.tuples(*[small_fractions] * n)
        structure = _symmetric(data.draw, n, vectors)
        if data.draw(st.booleans()):  # a noncommutative pair
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            structure[i][j] = data.draw(vectors)
        form = _symmetric(data.draw, n)
        if data.draw(st.booleans()):  # an asymmetric entry
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            form[i][j] = data.draw(small_fractions)
    structure = tuple(tuple(tuple(v) for v in row) for row in structure)
    form = tuple(tuple(row) for row in form)
    want = _form_error(structure, form)
    if want is None:
        StructureAlgebra(dim=n, structure=structure, bilinear_form=form)
    else:
        with pytest.raises(ValueError) as err:
            StructureAlgebra(dim=n, structure=structure, bilinear_form=form)
        assert str(err.value) == want


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["jordan_sym2", "hsiang_sym3", "spin_factor3"]),
    st.integers(1, 6),
    st.data(),
)
def test_integer_jets_match_fraction_jets(name, degree, data):
    alg = build_algebra(name)
    m = data.draw(st.sampled_from(enumerate_monomials(degree)))
    vectors = st.tuples(*[small_fractions] * alg.dim)
    c, x, y = data.draw(vectors), data.draw(vectors), data.draw(vectors)
    assert evaluate_monomial(alg, m, x) == _fraction_jet(alg, m, {(): x})[()]
    jet = _fraction_jet(alg, m, {(0,): x, (1,): y}, (degree,))
    for k in range(degree + 1):
        assert linearize(alg, m, k, x, y) == jet[(k,)], k
    polar = _fraction_jet(alg, m, {(0, 0): c, (1, 0): x, (0, 1): y}, (1, 1))
    assert second_linearization(alg, m, c, x, y) == polar.get((1, 1), tuple(F(0) for _ in range(alg.dim)))


def test_integer_jets_of_a_deep_power():
    alg = hsiang_tracefree_sym3()
    x = (F(1, 2), F(-3, 4), F(2, 3), F(5, 4), F(-1, 3))
    y = (F(0), F(1, 2), F(0), F(-1, 4), F(3))
    m = principal_power(300)
    jet = _fraction_jet(alg, m, {(0,): x, (1,): y}, (1,))
    assert evaluate_monomial(alg, m, x) == jet[(0,)]
    assert linearize(alg, m, 1, x, y) == jet[(1,)]


@pytest.mark.parametrize(
    "name, identity",
    [
        ("hsiang_sym3", "hsiang"),
        ("jordan_sym2", "hsiang"),
        ("jordan_sym3", "jordan_power_assoc"),
        ("hsiang_sym3", "jordan_power_assoc"),
        ("spin_factor3", "pseudo_composition"),
        ("hsiang_sym3", "pseudo_composition"),
    ],
)
def test_verify_identity_matches_fraction_sum(name, identity):
    alg = build_algebra(name)
    report = verify_identity(alg, catalog(identity), trials=8, seed=5)
    assert report.failures == _fraction_identity_failures(alg, catalog(identity), 8, 5)


def test_verify_identity_weights_match_fraction_sum():
    # Weights with denominators, on identities that hold only when every
    # weight is scaled right, and on identities that fail.
    z = atom()
    base = spin_factor(2)
    spin = StructureAlgebra(
        dim=base.dim,
        structure=base.structure,
        bilinear_form=tuple(tuple(v / 3 for v in row) for row in base.bilinear_form),
        weight=(F(3, 2), F(0), F(0)),
    )
    # x = (a, u): x^2 - 2a x + (a^2 - |u|^2) = 0, with a = (2/3) omega(x) and
    # a^2 + |u|^2 = 3 b(x, x); times x this is a cubic identity.
    cubic = make_identity(
        [(1, principal_power(3)), (F(-4, 3), principal_power(2), baric_weight(1)),
         (F(8, 9), z, baric_weight(2)), (-3, z, bilinear_weight(z))],
        require_zero_sum=False,
    )
    # e^2 = (5/4) e, omega(e) = 2/3, b(e, e) = 3/5
    line = StructureAlgebra(dim=1, structure=(((F(5, 4),),),), bilinear_form=((F(3, 5),),), weight=(F(2, 3),))
    line_identity = make_identity(
        [(F(3, 5), principal_power(3), baric_weight(2)),
         (F(-4, 9), principal_power(2), bilinear_weight(principal_power(2)))],
        require_zero_sum=False,
    )
    cases = [(spin, cubic, True), (line, line_identity, True)]
    cases += [(alg, catalog(name), False) for alg in (spin, line) for name in ("bernstein", "walcher")]
    for alg, identity, holds in cases:
        report = verify_identity(alg, identity, trials=6, seed=2)
        assert report.ok == holds, identity
        assert report.failures == _fraction_identity_failures(alg, identity, 6, 2), identity


# --- matrix-unit builders against their Fraction-matrix definitions -----------
#
# The builders read each product off the rule E_ij E_kl = delta_jk E_il in
# ints.  The oracles below are the definitions: d^2 dense Fraction products
# of n x n matrices for the constants, and d^2 more for the trace form.


def _fraction_trace(m):
    return sum((m[i][i] for i in range(len(m))), F(0))


def _fraction_jordan_product(a, b):
    ab, ba = _fraction_mat_mul(a, b), _fraction_mat_mul(b, a)
    return [[(u + v) / 2 for u, v in zip(r, s)] for r, s in zip(ab, ba)]


def _fraction_matrix_algebra(basis, mult, coords, bilinear, name, idempotents):
    return StructureAlgebra(
        dim=len(basis),
        structure=tuple(tuple(tuple(F(v) for v in coords(mult(x, y))) for y in basis) for x in basis),
        bilinear_form=tuple(tuple(F(bilinear(x, y)) for y in basis) for x in basis),
        idempotents=idempotents,
        name=name,
    )


def _oracle_jordan_sym(n):
    slots = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = []
    for i, j in slots:
        e = [[F(0)] * n for _ in range(n)]
        e[i][j] = e[j][i] = F(1)
        basis.append(e)
    e00 = tuple(F(int(k == 0)) for k in range(len(slots)))
    unit = tuple(F(int(k < n)) for k in range(len(slots)))
    return _fraction_matrix_algebra(
        basis,
        _fraction_jordan_product,
        lambda m: [m[i][j] for i, j in slots],
        lambda x, y: _fraction_trace(_fraction_mat_mul(x, y)),
        f"jordan_sym{n}",
        (e00, unit),
    )


def _oracle_hsiang_sym3():
    basis = [
        [[F(v) for v in row] for row in entries]
        for entries in (
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
            [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
        )
    ]

    def mult(a, b):
        ab = _fraction_jordan_product(a, b)
        tr = _fraction_trace(_fraction_mat_mul(a, b))
        return [[ab[i][j] - (tr / 3 if i == j else 0) for j in range(3)] for i in range(3)]

    return _fraction_matrix_algebra(
        basis,
        mult,
        lambda m: [m[0][1], m[0][2], m[1][2], m[0][0], m[0][0] + m[1][1]],
        lambda x, y: _fraction_trace(_fraction_mat_mul(x, y)) / 6,
        "hsiang_sym3",
        ((F(0), F(0), F(0), F(-1), F(-2)),),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jordan_sym_matches_fraction_matrix_oracle(n):
    assert json.dumps(algebra_to_json(jordan_sym(n))) == json.dumps(algebra_to_json(_oracle_jordan_sym(n)))


def test_hsiang_sym3_matches_fraction_matrix_oracle():
    got = json.dumps(algebra_to_json(hsiang_tracefree_sym3()))
    assert got == json.dumps(algebra_to_json(_oracle_hsiang_sym3()))


def test_jordan_sym10_builds_fast():
    # the Fraction-matrix builder took tens of seconds here; the bound is loose
    start = time.perf_counter()
    alg = jordan_sym(10)
    elapsed = time.perf_counter() - start
    assert alg.dim == 55
    d = eigen_decomposition(alg, alg.idempotents[0])
    assert {lam: d.multiplicity(lam) for lam in d.eigenvalues} == {F(0): 45, HALF: 9, F(1): 1}
    assert elapsed < 5, elapsed
