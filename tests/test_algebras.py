"""Concrete algebras: builders, spectral analysis, linearization theorems."""

import functools
import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    DegenerateIdentity,
    FusionTable,
    WeightDescriptor,
    baric_weight,
    bilinear_weight,
    catalog,
    catalog_names,
    fusion_table,
    identity_peirce_poly,
    make_identity,
)
from peirce_lab.magma import atom, enumerate_monomials, fold, parse_monomial, plenary_power, principal_power
from peirce_lab.peirce import _symbol_ints, peirce_poly, peirce_symbol
from peirce_lab.poly import (
    ExactDivisionError,
    Poly1,
    _cleared_coeffs,
    _square_free,
    _symbol_slices,
    format_rational,
    rational_roots,
)
from test_poly import _divide_exact_by_fractions

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
    d = eigen_decomposition(alg, c)
    report = fusion_empirical(alg, c, fusion_table(catalog("hsiang")), d)
    assert not report.ok
    assert any(f.startswith("eigenvalue 0 ") for f in report.failures), report.failures
    assert report == _fusion_by_elimination(alg, c, fusion_table(catalog("hsiang")), d)


def test_fusion_empirical_reports_every_stray_component():
    # jordan_sym2 at E_00: A(1) = <E_00>, A(0) = <E_11>, A(1/2) = <E_01>.
    # A table that allows nothing must flag each nonzero product's components.
    alg = jordan_sym(2)
    c = alg.idempotents[0]
    spectrum = (F(0), HALF, F(1))
    nothing = FusionTable(spectrum, {(a, b): frozenset() for a in spectrum for b in spectrum if a <= b}, "generic")
    report = fusion_empirical(alg, c, nothing, eigen_decomposition(alg, c))
    assert report.failures == (
        "A_c(0) * A_c(0) has components at 0 outside the allowed {}",
        "A_c(0) * A_c(1/2) has components at 1/2 outside the allowed {}",
        "A_c(1/2) * A_c(1/2) has components at 0, 1 outside the allowed {}",
        "A_c(1/2) * A_c(1) has components at 1/2 outside the allowed {}",
        "A_c(1) * A_c(1) has components at 1 outside the allowed {}",
    )
    assert report == _fusion_by_elimination(alg, c, nothing, eigen_decomposition(alg, c))


def _row_reduce(m):
    """Reduced row echelon form of m and its pivot columns, by exact Gauss-Jordan."""
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    a = [[F(v) for v in row] for row in m]
    pivots = []
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [v * inv for v in a[r]]
        for i in range(n_rows):
            if i != r and a[i][col]:
                factor = a[i][col]
                a[i] = [v - factor * w for v, w in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return a, pivots


def _fusion_by_elimination(alg, c, predicted, decomp):
    """fusion_empirical by coordinates: one elimination of [eigenbasis |
    products] leaves every product's eigenbasis coordinates in the right-hand
    block, and a product's components are the eigenvalues of its nonzero ones."""
    bases = decomp.eigenbases
    columns = [v for lam in decomp.eigenvalues for v in bases[lam]]
    column_eigenvalue = [lam for lam in decomp.eigenvalues for _ in bases[lam]]
    failures = [
        f"eigenvalue {format_rational(lam)} of L_c is outside the predicted spectrum"
        for lam in decomp.eigenvalues
        if lam not in predicted.spectrum
    ]
    known = [lam for lam in decomp.eigenvalues if lam in predicted.spectrum]
    blocks = [(lam, mu) for lam in known for mu in known if mu >= lam]
    products = [alg.multiply(x, y) for lam, mu in blocks for x in bases[lam] for y in bases[mu]]
    n = alg.dim
    reduced, _ = _row_reduce([[v[i] for v in columns] + [p[i] for p in products] for i in range(n)])
    col = n
    for lam, mu in blocks:
        allowed = predicted.allowed(lam, mu)
        for _ in range(len(bases[lam]) * len(bases[mu])):
            present = {column_eigenvalue[j] for j in range(n) if reduced[j][col]}
            col += 1
            extra = present - set(allowed)
            if extra:
                failures.append(
                    f"A_c({lam}) * A_c({mu}) has components at "
                    + ", ".join(format_rational(nu) for nu in sorted(extra))
                    + f" outside the allowed {{{', '.join(map(format_rational, sorted(allowed)))}}}"
                )
    return algebras.VerificationReport(not failures, "empirical fusion", tuple(failures))


_FUSION_ALGEBRAS = (*builder_names(), "jordan_sym4", "spin_factor8")


@functools.cache
def _decomposed(name, index):
    """(algebra, idempotent, decomposition) for a builder or a larger algebra."""
    alg = {"jordan_sym4": lambda: jordan_sym(4), "spin_factor8": lambda: spin_factor(8)}.get(
        name, lambda: build_algebra(name)
    )()
    c = alg.idempotents[index]
    return alg, c, eigen_decomposition(alg, c)


def _idempotent_cases():
    return [(name, i) for name in _FUSION_ALGEBRAS for i in range(len(_decomposed(name, 0)[0].idempotents))]


@pytest.mark.parametrize("name, index", _idempotent_cases())
def test_fusion_empirical_matches_elimination_on_catalog_tables(name, index):
    alg, c, d = _decomposed(name, index)
    assert d.semisimple
    for ident in ("bernstein", "hsiang", "jordan_power_assoc", "pseudo_composition", "walcher"):
        for mode in ("generic", "metrized_orthogonal"):
            table = fusion_table(catalog(ident), mode=mode)
            assert fusion_empirical(alg, c, table, d) == _fusion_by_elimination(alg, c, table, d), (ident, mode)


@st.composite
def fusion_cases(draw):
    """A semisimple idempotent and a table over part of its spectrum, perhaps
    with a value that is no eigenvalue; each allowed set is empty, full or a
    random subset of the table's spectrum."""
    name, index = draw(st.sampled_from(_idempotent_cases()))
    eigenvalues = _decomposed(name, index)[2].eigenvalues
    spectrum = [lam for lam in eigenvalues if draw(st.integers(0, 3))]  # a quarter are missed
    if draw(st.booleans()):
        spectrum.append(F(-1, 3))
    spectrum.sort()
    entries = {}
    for i, lam in enumerate(spectrum):
        for mu in spectrum[i:]:
            kind = draw(st.sampled_from(("empty", "full", "subset")))
            entries[lam, mu] = frozenset(
                nu for nu in spectrum if kind == "full" or (kind == "subset" and draw(st.booleans()))
            )
    return name, index, FusionTable(tuple(spectrum), entries, "generic")


_NONE_ALLOWED = FusionTable((F(0), HALF, F(1)), {(a, b): frozenset() for a in (F(0), HALF, F(1))
                                                 for b in (F(0), HALF, F(1)) if a <= b}, "generic")


@settings(max_examples=150, deadline=None)
@given(fusion_cases())
@example(("jordan_sym4", 0, fusion_table(catalog("jordan_power_assoc"))))
@example(("jordan_sym4", 1, _NONE_ALLOWED))
@example(("spin_factor8", 1, fusion_table(catalog("jordan_power_assoc"))))
@example(("spin_factor8", 1, _NONE_ALLOWED))
def test_fusion_empirical_matches_elimination(case):
    name, index, table = case
    alg, c, d = _decomposed(name, index)
    assert fusion_empirical(alg, c, table, d) == _fusion_by_elimination(alg, c, table, d)


def _fusion_by_factors(alg, c, predicted, decomp):
    """fusion_empirical's failures one product xy at a time, with the (L_c - nu)
    applied one factor at a time as q * (s * L_c) - p * s through the kernel:
    the loop that the one Horner pass per eigenvalue pair replaced."""
    (cs,), d = algebras._cleared_vectors(alg, c)
    s = d * alg._den

    def vanishes(v, nus):
        for nu in nus:
            v = [nu.denominator * a - nu.numerator * s * b for a, b in zip(alg._product(cs, v), v)]
        return not any(v)

    spectrum = decomp.eigenvalues
    bases = {lam: algebras._cleared_vectors(alg, *decomp.eigenbases[lam])[0] for lam in spectrum}
    failures = [f"eigenvalue {format_rational(lam)} of L_c is outside the predicted spectrum"
                for lam in spectrum if lam not in predicted.spectrum]
    known = [lam for lam in spectrum if lam in predicted.spectrum]
    for lam, mu in ((lam, mu) for lam in known for mu in known if mu >= lam):
        allowed = predicted.allowed(lam, mu)
        for x in bases[lam]:
            for y in bases[mu]:
                xy = alg._product(x, y)
                if vanishes(xy, [nu for nu in spectrum if nu in allowed]):
                    continue
                extra = [nu for nu in spectrum
                         if nu not in allowed and not vanishes(xy, [o for o in spectrum if o != nu])]
                failures.append(
                    f"A_c({lam}) * A_c({mu}) has components at "
                    + ", ".join(format_rational(nu) for nu in extra)
                    + f" outside the allowed {{{', '.join(map(format_rational, sorted(allowed)))}}}"
                )
    return tuple(failures)


_FUSION_IDENTITIES = ("bernstein", "hsiang", "jordan_power_assoc", "pseudo_composition", "walcher")


def _narrowed(table, rnd):
    """table with one allowed eigenvalue other than 1 dropped from each entry
    that has one, so that products get stray components."""
    entries = {}
    for key, allowed in table.entries.items():
        rest = sorted(nu for nu in allowed if nu != 1)
        entries[key] = allowed - {rnd.choice(rest)} if rest else allowed
    return FusionTable(table.spectrum, entries, table.mode)


@pytest.mark.parametrize("name, index", _idempotent_cases())
@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_FUSION_IDENTITIES), st.booleans(), st.randoms(use_true_random=False))
@example("hsiang", True, random.Random(0))
def test_fusion_empirical_failures_match_the_factor_loop(name, index, ident, narrow, rnd):
    alg, c, d = _decomposed(name, index)
    table = fusion_table(catalog(ident))
    if narrow:
        table = _narrowed(table, rnd)
    assert fusion_empirical(alg, c, table, d).failures == _fusion_by_factors(alg, c, table, d)


def test_narrowed_tables_name_stray_components():
    alg, c, d = _decomposed("spin_factor8", 1)
    table = _narrowed(fusion_table(catalog("jordan_power_assoc")), random.Random(0))
    failures = fusion_empirical(alg, c, table, d).failures
    assert any("has components at" in line for line in failures)
    assert failures == _fusion_by_factors(alg, c, table, d)


def test_fusion_empirical_renders_the_allowed_set_as_rationals():
    # the set used to print as [Fraction(-1, 1), Fraction(-1, 2), Fraction(1, 1)]
    alg, c, d = _decomposed("spin_factor8", 1)
    report = fusion_empirical(alg, c, fusion_table(catalog("hsiang")), d)
    assert report.failures[1] == "A_c(1/2) * A_c(1/2) has components at 0 outside the allowed {-1, -1/2, 1}"


def test_fusion_empirical_with_a_decomposition_neither_multiplies_nor_eliminates(monkeypatch):
    alg, c, d = _decomposed("spin_factor8", 1)
    table = fusion_table(catalog("hsiang"))
    want = _fusion_by_elimination(alg, c, table, d)
    assert not want.ok

    def refuse(*args):
        raise AssertionError("fusion_empirical called multiply or null_space")

    monkeypatch.setattr(StructureAlgebra, "multiply", refuse)
    monkeypatch.setattr(algebras, "null_space", refuse)
    assert fusion_empirical(alg, c, table, d) == want


def test_null_space_of_an_int_matrix_is_exact():
    basis = algebras.null_space([[1, 2], [2, 4]])
    assert basis == [(F(-2), F(1))]
    # -2.0 == F(-2), so equality alone would pass with a float pivot inverse
    assert all(type(v) is F for v in basis[0])
    basis = algebras.null_space([[3, 1, 0], [0, 0, 2]])
    assert basis == [(F(-1, 3), F(1), F(0))] and all(type(v) is F for v in basis[0])


def _fraction_null_space(m):
    """Kernel basis by Gauss-Jordan over Fractions: each free column of the
    reduced row echelon form gives the vector with 1 there."""
    reduced, pivots = _row_reduce(m)
    n_cols = len(m[0]) if m else 0
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [F(0)] * n_cols
        v[fc] = F(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


@st.composite
def kernel_matrices(draw):
    """Int or Fraction matrices from 1x1 to 8x10 of any rank, the zero matrix
    included, with zero rows, negative entries and entries of up to 200 bits.
    A matrix of rank r is a product of random r-column and r-row factors; a
    Fraction one has each row divided by its own denominator."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    rank = draw(st.integers(0, min(n_rows, n_cols)))
    entries = draw(st.sampled_from([st.integers(-3, 3), st.integers(-(2**200), 2**200)]))
    left = [[draw(st.integers(-3, 3)) for _ in range(rank)] for _ in range(n_rows)]
    right = [[draw(entries) for _ in range(n_cols)] for _ in range(rank)]
    m = [[sum(row[k] * right[k][j] for k in range(rank)) for j in range(n_cols)] for row in left]
    for i in draw(st.sets(st.integers(0, n_rows - 1), max_size=n_rows)):
        m[i] = [0] * n_cols
    if draw(st.booleans()):
        m = [[F(v, draw(st.integers(1, 2**64))) for v in row] for row in m]
    return m


@settings(max_examples=200, deadline=None)
@given(kernel_matrices())
@example([[-2, 4, 1], [3, -6, 5]])  # a negative first pivot
@example([[0, 0], [0, 0]])
@example([[1, F(-1, 2), 0], [F(2), 0, -3]])  # ints and Fractions in one row
@example([[-(2**200) + 1, 2**199], [2**200 - 1, -(2**199)], [F(3, 2**64), F(-5, 7)]])
def test_null_space_matches_fraction_gauss_jordan(m):
    basis = algebras.null_space(m)
    assert basis == _fraction_null_space(m)
    assert all(type(v) is F for vec in basis for v in vec)


def _fraction_eigen_decomposition(alg, c):
    """eigen_decomposition over Fractions: chi of the matrix L_c, and each
    eigenbasis by Gauss-Jordan on L_c - lam."""
    lc = alg.mult_operator(c)
    cp = char_poly_matrix(lc)
    roots, residual = rational_roots(cp)
    eigenbases = {}
    for lam, _ in roots:
        eigenbases[lam] = tuple(_fraction_null_space(
            [[v - lam * (i == j) for j, v in enumerate(row)] for i, row in enumerate(lc)]))
    return algebras.PeirceDecomposition(
        idempotent=tuple(F(v) for v in c), char_poly=cp, eigenvalues=tuple(sorted(eigenbases)),
        eigenbases=eigenbases, residual=residual,
        semisimple=sum(len(b) for b in eigenbases.values()) == alg.dim,
    )


def _signed_permutation(alg, seed):
    """alg in the basis s_i e_p(i) for a random permutation p and signs s."""
    rng = random.Random(seed)
    n = alg.dim
    p = rng.sample(range(n), n)
    s = [rng.choice((1, -1)) for _ in range(n)]
    return StructureAlgebra(
        dim=n,
        structure=tuple(tuple(tuple(s[i] * s[j] * s[k] * alg.structure[p[i]][p[j]][p[k]] for k in range(n))
                              for j in range(n)) for i in range(n)),
        idempotents=tuple(tuple(s[k] * c[p[k]] for k in range(n)) for c in alg.idempotents),
        name=f"{alg.name}_shuffled{seed}",
    )


def _one_idempotent_algebra(name, e_u1, e_u2):
    """e, u1, u2 with e e = e, e u1 = e_u1, e u2 = e_u2 and u_i u_j = 0."""
    z, o = F(0), F(1)
    zero = (z, z, z)
    return StructureAlgebra(
        dim=3,
        structure=(((o, z, z), e_u1, e_u2), (e_u1, zero, zero), (e_u2, zero, zero)),
        idempotents=((o, z, z),),
        name=name,
    )


# chi(L_e) = (t - 1)(t^2 - 2): e u1 = u2, e u2 = 2 u1
_SQRT2_MODEL = _one_idempotent_algebra("sqrt2_model", (F(0), F(0), F(1)), (F(0), F(2), F(0)))
# a Jordan block at 1/2: e u1 = u1/2 + u2, e u2 = u2/2
_JORDAN_BLOCK_MODEL = _one_idempotent_algebra("jordan_block_model", (F(0), HALF, F(1)), (F(0), F(0), HALF))


@pytest.mark.parametrize(
    "alg",
    [build_algebra(name) for name in builder_names()]
    + [jordan_sym(4), _signed_permutation(spin_factor(8), 1), _signed_permutation(spin_factor(8), 2),
       _SQRT2_MODEL, _JORDAN_BLOCK_MODEL],
    ids=lambda alg: alg.name,
)
def test_eigen_decomposition_matches_fraction_path(alg):
    for c in alg.idempotents:
        got, want = eigen_decomposition(alg, c), _fraction_eigen_decomposition(alg, c)
        for field in algebras.PeirceDecomposition.__slots__:
            assert getattr(got, field) == getattr(want, field), field
        assert all(type(v) is F for basis in got.eigenbases.values() for vec in basis for v in vec)


def test_eigen_decomposition_of_the_models():
    t = Poly1.t()
    d = eigen_decomposition(_SQRT2_MODEL, _SQRT2_MODEL.idempotents[0])
    assert d.eigenvalues == (F(1),) and d.residual == t**2 - 2 and not d.semisimple
    d = eigen_decomposition(_JORDAN_BLOCK_MODEL, _JORDAN_BLOCK_MODEL.idempotents[0])
    assert d.char_poly == (t - 1) * (t - HALF) ** 2 and d.multiplicity(HALF) == 1 and not d.semisimple


@pytest.mark.parametrize("alg, identity, ok", [
    (hsiang_tracefree_sym3(), "hsiang", True),
    (_SQRT2_MODEL, "hsiang", False),  # rho lacks t^2 - 2
    (_SQRT2_MODEL, "principal_train", True),  # rho = (2t - 1)(t^2 - 2)
    (jordan_sym(2), "hsiang", False),
], ids=["hsiang", "sqrt2_hsiang", "sqrt2_train", "jordan_sym2_hsiang"])
def test_spectrum_inclusion_reads_chi_only(monkeypatch, alg, identity, ok):
    ident = catalog(identity, _TRAIN_WITH_SQRT2) if identity == "principal_train" else catalog(identity)
    c = alg.idempotents[0]
    want = spectrum_inclusion_check(alg, c, ident, eigen_decomposition(alg, c))
    assert want.ok is ok

    def refuse(*args):
        raise AssertionError("spectrum_inclusion_check built an eigenspace")

    monkeypatch.setattr(algebras, "null_space", refuse)
    monkeypatch.setattr(algebras, "eigen_decomposition", refuse)
    assert spectrum_inclusion_check(alg, c, ident) == want
    if alg is _SQRT2_MODEL and not ok:
        assert want.failures == ("L_c has non-rational spectral factor t^2 - 2",)
    with pytest.raises(ValueError, match="requires a nonzero idempotent"):
        spectrum_inclusion_check(alg, (F(0),) * alg.dim, ident)
    with pytest.raises(ValueError, match="requires a nonzero idempotent"):
        spectrum_inclusion_check(alg, tuple(2 * v for v in c), ident)


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


# spectrum_inclusion_check reads rho and the residual in ints.  The oracle is
# the check in Fractions: rho(lam) per eigenvalue, and long division in
# Fractions of rho by the square-free part of the residual.


def _fraction_spectrum_inclusion(identity, eigenvalues, residual):
    rho = identity_peirce_poly(identity)
    failures = [f"eigenvalue {format_rational(lam)} is not a root of rho_c(P, t)"
                for lam in eigenvalues if lam != 1 and rho(lam) != 0]
    if residual.degree >= 1:
        try:
            _divide_exact_by_fractions(rho, Poly1(dict(enumerate(_square_free(_cleared_coeffs(residual)[0])))), "t")
        except ExactDivisionError:
            failures.append(f"L_c has non-rational spectral factor {residual.render()}")
    return tuple(failures)


_CATALOG_PARAMS = {
    "principal_train": _TRAIN_WITH_SQRT2,
    "plenary_train": {"gamma": [1, -3, 2]},
    "nourigat_varro": {"a1": 1, "a2": 2, "b1": 1, "b2": 1, "b3": 1},
}


@pytest.mark.parametrize("alg", [build_algebra(name) for name in builder_names()] + [_SQRT2_MODEL],
                         ids=lambda alg: alg.name)
@pytest.mark.parametrize("name", catalog_names())
def test_spectrum_inclusion_matches_fraction_oracle(alg, name):
    ident = catalog(name, _CATALOG_PARAMS.get(name))
    for c in alg.idempotents:
        d = eigen_decomposition(alg, c)
        if identity_peirce_poly(ident).is_zero:  # degenerate: no spectral data
            with pytest.raises(DegenerateIdentity, match="^spectrum inclusion is vacuous for a degenerate identity$"):
                spectrum_inclusion_check(alg, c, ident)
            continue
        want = _fraction_spectrum_inclusion(ident, d.eigenvalues, d.residual)
        assert spectrum_inclusion_check(alg, c, ident, d).failures == want
        assert spectrum_inclusion_check(alg, c, ident) == algebras.VerificationReport(
            not want, "spectrum inclusion", want)


@pytest.mark.parametrize("residual", ["2t^2 - 4", "(t^2 - 2)^2", "4(t^2 - 2)^2", "t^2 - 3"])
@pytest.mark.parametrize("name", ["principal_train", "hsiang", "jordan_power_assoc"])
def test_spectrum_inclusion_of_a_residual_matches_fraction_oracle(residual, name):
    """A residual with content, with a repeated factor, or with a factor that
    rho lacks; only the train's rho = (2t - 1)(t^2 - 2) has t^2 - 2."""
    t = Poly1.t()
    residual = {"2t^2 - 4": 2 * t**2 - 4, "(t^2 - 2)^2": (t**2 - 2) ** 2, "4(t^2 - 2)^2": 4 * (t**2 - 2) ** 2,
                "t^2 - 3": t**2 - 3}[residual]
    ident = catalog(name, _CATALOG_PARAMS.get(name))
    eigenvalues = (F(-1), HALF, F(1))
    decomposition = algebras.PeirceDecomposition(
        idempotent=(F(1), F(0), F(0)),
        char_poly=(t + 1) * (t - HALF) * (t - 1) * residual,
        eigenvalues=eigenvalues,
        eigenbases={lam: ((F(1), F(0), F(0)),) for lam in eigenvalues},
        residual=residual,
        semisimple=False,
    )
    alg = jordan_sym(2)
    report = spectrum_inclusion_check(alg, alg.idempotents[0], ident, decomposition)
    want = _fraction_spectrum_inclusion(ident, eigenvalues, residual)
    assert report.failures == want
    assert (name == "principal_train" and residual != t**2 - 3) is not any("non-rational" in f for f in want)


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


def test_linearize_product_count():
    # z^[6] has 5 distinct product nodes; mod eps^3 each multiplies at most
    # 6 pairs of jet coefficients.  The labelled sum takes C(32, 2) * 31.
    alg = hsiang_tracefree_sym3()
    rng = random.Random(4)
    x, y = _rand_vec(alg.dim, rng), _rand_vec(alg.dim, rng)
    calls = []
    inner = alg._product
    # the kernel is a slot of this one (immutable) algebra, so it is wrapped
    # there, past the record's __setattr__
    object.__setattr__(alg, "_product", lambda u, v: calls.append(1) or inner(u, v))
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


# --- the batched linearization checks against per-column and per-pair ones --
#
# verify_first_linearization and verify_second_linearization fold once over a
# jet with one infinitesimal per column or eigenvector.  The oracles are the
# checks that did one fold per column or pair over an exponent-dict jet.


def _dict_jet(alg, m, leaf, caps):
    """The jet of m at `leaf` as {exponent tuple: int vector}: each product of
    coefficients goes through the kernel when its exponents are within caps."""

    def step(node, a, b):
        out = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                if all(i <= cap for i, cap in zip(e, caps)):
                    v = alg._product(va, vb)
                    out[e] = [s + t for s, t in zip(out[e], v)] if e in out else v
        return out

    return fold(m, {atom(): leaf}, step)


def _operator_poly(alg, f, c, v):
    """f(L_c) v in Fractions, by algebras._operator_poly's Horner pass over
    the cleared coefficients of the Poly1 f."""
    (cs,), d = algebras._cleared_vectors(alg, c)
    (vs,), e = algebras._cleared_vectors(alg, v)
    ints, q = _cleared_coeffs(f)
    (acc,), scale = algebras._operator_poly(alg, ints, cs, d * alg._den, [vs])
    return tuple(F(a, q * scale * e) for a in acc)


def _fraction_symbol_slice(m, lam, mu):
    """symbol(m)(lam, mu, t) by Fraction substitution into the Poly3."""
    return peirce_symbol(m).substitute("a", lam).substitute("b", mu).change_vars(Poly1.VARS, {"p": "t"})


def _first_linearization_by_columns(alg, c, m):
    rho = peirce_poly(m)
    failures = []
    for j in range(alg.dim):
        e_j = alg.basis_vector(j)
        (cs, es), den = algebras._cleared_vectors(alg, c, e_j)
        lhs = _dict_jet(alg, m, {(0,): cs, (1,): es}, (1,))[(1,)]
        if algebras._divided(lhs, algebras._jet_scale(alg, den, m.degree)) != _operator_poly(alg, rho, c, e_j):
            failures.append(f"column {j}: D^1 != rho(L_c)")
    return algebras.VerificationReport(not failures, f"first linearization of {m}", tuple(failures))


def _second_linearization_by_pairs(alg, c, m, lam, mu, decomp):
    sym_p = _fraction_symbol_slice(m, lam, mu)
    failures = []
    for x in decomp.eigenbases.get(F(lam), ()):
        for y in decomp.eigenbases.get(F(mu), ()):
            (cs, xs, ys), den = algebras._cleared_vectors(alg, c, x, y)
            lhs = _dict_jet(alg, m, {(0, 0): cs, (1, 0): xs, (0, 1): ys}, (1, 1)).get((1, 1), [0] * alg.dim)
            if algebras._divided(lhs, algebras._jet_scale(alg, den, m.degree)) != _operator_poly(
                alg, sym_p, c, alg.multiply(x, y)
            ):
                failures.append(f"pair in A_c({lam}) x A_c({mu}) fails for {m}")
    return algebras.VerificationReport(not failures, f"second linearization of {m}", tuple(failures))


_SLICE_MONOMIALS = [m for d in range(1, 10) for m in enumerate_monomials(d)]
_SLICE_VALUES = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=7))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SLICE_MONOMIALS), _SLICE_VALUES, st.lists(_SLICE_VALUES, min_size=1, max_size=3))
# each lam removes the top power of b: the slice is padded to the symbol's own degree
@example(parse_monomial("z^[3]"), F(0), [HALF])
@example(parse_monomial("z^3*z^3"), F(-1, 2), [F(0), F(3, 7)])
@example(parse_monomial("z^3*z^[3]"), F(-1, 4), [F(-1, 4), F(1)])
@example(parse_monomial("z"), F(2, 7), [F(1)])  # the zero symbol
def test_symbol_slice_matches_fraction_substitution(m, lam, mus):
    y = _symbol_ints(m, {})
    d = max((k[0] for k in y), default=0)
    for mu, ints in zip(mus, _symbol_slices(y, d, lam, mus), strict=True):
        scale = (lam.denominator * mu.denominator) ** d
        assert Poly1({e: F(c, scale) for e, c in enumerate(ints)}) == _fraction_symbol_slice(m, lam, mu)


def test_symbol_slice_examples_remove_the_top_power_of_b():
    for text, lam in (("z^[3]", F(0)), ("z^3*z^3", F(-1, 2)), ("z^3*z^[3]", F(-1, 4))):
        sym = peirce_symbol(parse_monomial(text))
        top = max(k[1] for k in sym.coeffs)
        assert max(k[1] for k in sym.substitute("a", lam).coeffs) < top


def _perturbed(alg, i, j, k, delta):
    """alg with the constant c_ijk = c_jik moved by delta, and no form."""
    structure = [[list(prod) for prod in row] for row in alg.structure]
    structure[i][j][k] += delta
    if i != j:
        structure[j][i][k] += delta
    return StructureAlgebra(alg.dim, tuple(tuple(map(tuple, row)) for row in structure), name="perturbed")


@st.composite
def linearization_cases(draw):
    """An idempotent with its decomposition, a monomial of degree at most 7
    and lam, mu that may be no eigenvalue; the checks run at the idempotent,
    at twice it, or on the algebra with one constant perturbed."""
    name, index = draw(st.sampled_from(_idempotent_cases()))
    alg, c, d = _decomposed(name, index)
    m = draw(st.sampled_from(enumerate_monomials(draw(st.integers(1, 7)))))
    lam, mu = (draw(st.sampled_from((*d.eigenvalues, F(-1, 3), F(2)))) for _ in range(2))
    control = draw(st.sampled_from(("idempotent", "twice", "perturbed")))
    if control == "twice":
        c = tuple(2 * v for v in c)
    elif control == "perturbed":
        i, j, k = (draw(st.integers(0, alg.dim - 1)) for _ in range(3))
        alg = _perturbed(alg, i, j, k, draw(st.sampled_from((F(-1), F(1, 3), F(2)))))
    return alg, c, m, lam, mu, d


@settings(max_examples=120, deadline=None)
@given(linearization_cases())
@example((*_decomposed("jordan_sym4", 0)[:2], parse_monomial("z^7"), HALF, F(0), _decomposed("jordan_sym4", 0)[2]))
@example((*_decomposed("spin_factor8", 1)[:2], parse_monomial("(z^2*z^2)*z^3"), HALF, HALF,
          _decomposed("spin_factor8", 1)[2]))
@example((_perturbed(_decomposed("spin_factor8", 1)[0], 1, 2, 0, F(1)), _decomposed("spin_factor8", 1)[1],
          parse_monomial("z^4"), HALF, HALF, _decomposed("spin_factor8", 1)[2]))
def test_batched_linearization_checks_match_per_column_and_per_pair(case):
    alg, c, m, lam, mu, d = case
    assert verify_first_linearization(alg, c, m) == _first_linearization_by_columns(alg, c, m)
    assert verify_second_linearization(alg, c, m, lam, mu, d) == _second_linearization_by_pairs(alg, c, m, lam, mu, d)


def test_second_linearization_check_kernel_calls(monkeypatch):
    # jordan_sym3 at E_00 has a 2-dimensional A_c(1/2).  One fold over the 9
    # keys 1, eps_p, delta_q and eps_p delta_q takes 17 products at z*z and 21
    # at each of the six nodes above it; then 4 products xy and 4 Horner
    # passes of 6, one per degree of the slice.  One fold per pair took
    # 4 * (55 + 1 + 7) = 252.
    alg = jordan_sym(3)
    c = alg.idempotents[0]
    d = eigen_decomposition(alg, c)
    calls = []
    inner = alg._product
    object.__setattr__(alg, "_product", lambda u, v: calls.append(1) or inner(u, v))

    def refuse(*args):
        raise AssertionError("verify_second_linearization called multiply or second_linearization")

    monkeypatch.setattr(StructureAlgebra, "multiply", refuse)
    monkeypatch.setattr(algebras, "second_linearization", refuse)
    assert verify_second_linearization(alg, c, parse_monomial("z^8"), HALF, HALF, d).ok
    assert 0 < len(calls) <= 171


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
        # a null name is absent, and the algebra stays hashable
        blob["name"] = None
        back = algebra_from_json(blob)
        assert back.name is None and hash(back) == hash(algebra_from_json(blob))


def test_algebra_from_json_decodes_text_once():
    text = json.dumps(algebra_to_json(jordan_sym(2)))
    assert algebra_from_json(text) == jordan_sym(2)
    with pytest.raises(TypeError, match="^expected a JSON object at the top level, got a string$"):
        algebra_from_json(json.dumps(text))
    with pytest.raises(TypeError, match="^expected a JSON object at the top level, got an array$"):
        algebra_from_json([algebra_to_json(jordan_sym(2))])


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
    assert _operator_poly(alg, 2 * t**2 - t + 3, c, v) == want


# --- integer kernels against their Fraction definitions -----------------------
#
# algebras computes in ints over cleared denominators.  The oracles below are
# the definitions in Fractions, with no shared code.

small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 5))


def _loop_product(alg, x, y):
    """The loop kernel, the oracle of the compiled one: _den * (x y) summed
    over the nonzero (k, c) of _terms[i][j] for every ordered pair (i, j)."""
    out = [0] * alg.dim
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for xi, row in zip(x, alg._terms):
        if xi:
            for j, yj in ys:
                s = xi * yj
                for k, c in row[j]:
                    out[k] += s * c
    return out


# constants with zeros, signs, denominators and more than 64 bits
kernel_constants = st.one_of(
    st.just(F(0)), small_fractions, st.integers(-(2**80), 2**80).map(F)
)
# vector entries with zeros, signs and more than 64 bits
kernel_entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**70), 2**70))


@st.composite
def commutative_algebras(draw, max_dim=6):
    n = draw(st.integers(1, max_dim))
    structure = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            structure[i][j] = structure[j][i] = tuple(draw(kernel_constants) for _ in range(n))
    return StructureAlgebra(dim=n, structure=tuple(tuple(row) for row in structure))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compiled_kernel_matches_loop(data):
    alg = data.draw(commutative_algebras())
    vectors = st.lists(kernel_entries, min_size=alg.dim, max_size=alg.dim)
    x, y = data.draw(vectors), data.draw(vectors)
    assert alg._product(x, y) == _loop_product(alg, x, y)
    assert alg._product(y, x) == alg._product(x, y)
    # the same kernel compiled in pieces of a few statements each
    pieces = algebras._compile_product(alg.dim, alg._terms, data.draw(st.integers(1, 4)))
    assert pieces(x, y) == _loop_product(alg, x, y)


def test_kernel_with_one_long_output_sum():
    # e_i e_j = e_0 for all i, j: coordinate 0 sums 78 * 79 / 2 = 3081 pair
    # terms, past the longest single sum CPython 3.11 compiles (2992 terms)
    n = 78
    e0 = tuple(F(int(k == 0)) for k in range(n))
    alg = StructureAlgebra(dim=n, structure=tuple(tuple(e0 for _ in range(n)) for _ in range(n)))
    rng = random.Random(78)
    x, y = _rand_vec(n, rng), _rand_vec(n, rng)
    got = alg.multiply(x, y)
    assert got == _dense_product(alg, x, y)
    assert got[0] == sum(x) * sum(y) and not any(got[1:])


def test_kernel_with_a_constant_past_the_str_limit():
    # str() refuses an int of more than 4300 digits, so the kernel source
    # must never print a constant
    big = F(10**4400 + 7, 3)
    zero = F(0)
    alg = StructureAlgebra(dim=2, structure=(((big, F(1)), (F(-1), zero)), ((F(-1), zero), (zero, big))))
    assert alg._den == 3 and alg._terms[0][0][0][1].bit_length() > 14_000
    x, y = (F(2, 3), F(-5)), (F(7), F(1, 4))
    assert alg.multiply(x, y) == _dense_product(alg, x, y)


def test_mult_operator_columns_are_products():
    for alg in [build_algebra(name) for name in builder_names()] + [spin_factor(8)]:
        for c in alg.idempotents + (_rand_vec(alg.dim, random.Random(alg.dim)),):
            lc = alg.mult_operator(c)
            for j in range(alg.dim):
                col = _dense_product(alg, c, alg.basis_vector(j))
                assert [row[j] for row in lc] == list(col), (alg.name, j)


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


def _random_vector(dim, rng):
    """verify_identity's trial vector, drawn as Fractions."""
    return tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))


def _fraction_identity_failures(alg, identity, trials, seed):
    """verify_identity's failure lines, with P(x) summed in Fractions."""
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        x = _random_vector(alg.dim, rng)
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
    assert _operator_poly(alg, f, c, v) == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(builder_names()), st.lists(st.integers(-9, 9), max_size=6), st.integers(0, 3))
@example("hsiang_sym3", [5], 3)  # a constant
@example("jordan_sym2", [], 2)  # the zero polynomial
def test_operator_poly_makes_one_kernel_call_per_degree(name, coeffs, count):
    # the Horner pass starts at the leading coefficient: n calls per vector
    alg = build_algebra(name)
    calls = []
    inner = alg._product
    object.__setattr__(alg, "_product", lambda u, v: calls.append(1) or inner(u, v))
    (cs,), d = algebras._cleared_vectors(alg, alg.idempotents[0])
    vectors = [[k - i for i in range(alg.dim)] for k in range(count)]
    out, scale = algebras._operator_poly(alg, coeffs, cs, d * alg._den, vectors)
    assert len(calls) == max(len(coeffs) - 1, 0) * count
    assert scale == (d * alg._den) ** max(len(coeffs) - 1, 0) and len(out) == count
    if not coeffs:
        assert out == [[0] * alg.dim] * count


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_char_poly_matches_the_fraction_operator(data):
    # char_poly reads the kernel's int rows; char_poly_matrix clears L_c again
    if data.draw(st.booleans()):
        alg = build_algebra(data.draw(st.sampled_from(builder_names())))
    else:
        alg = data.draw(commutative_algebras(max_dim=4))
    c = tuple(data.draw(st.lists(small_fractions, min_size=alg.dim, max_size=alg.dim)))
    assume(any(v.denominator > 1 for v in c) and not alg.is_idempotent(c))
    assert char_poly(alg, c) == char_poly_matrix(alg.mult_operator(c))


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


def _scaled_weight_cases():
    """(algebra, identity, holds): weights with denominators, on identities
    that hold only when every weight is scaled right, and on identities that
    fail."""
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
    return cases + [(alg, catalog(name), False) for alg in (spin, line) for name in ("bernstein", "walcher")]


def test_verify_identity_weights_match_fraction_sum():
    for alg, identity, holds in _scaled_weight_cases():
        report = verify_identity(alg, identity, trials=6, seed=2)
        assert report.ok == holds, identity
        assert report.failures == _fraction_identity_failures(alg, identity, 6, 2), identity


def test_verify_identity_trial_vectors_match_fraction_draw():
    # On e1^2 = e1, e2^2 = e2, e1 e2 = 0 with omega = (1, 0), x = a e1 + b e2
    # gives P(x) = x^2 - omega(x) x = b (b - a) e2: zero exactly when b = 0 or
    # a = b, so the verdict of each trial depends on the exact vector drawn.
    zero = (F(0), F(0))
    alg = StructureAlgebra(dim=2, structure=(((F(1), F(0)), zero), (zero, (F(0), F(1)))), weight=(F(1), F(0)))
    identity = make_identity(
        [(1, principal_power(2)), (-1, atom(), baric_weight(1))], require_zero_sum=False
    )
    report = verify_identity(alg, identity, trials=200, seed=3)
    assert 0 < len(report.failures) < 200
    assert report.failures == _fraction_identity_failures(alg, identity, 200, 3)


def test_trial_draws_follow_the_randint_stream():
    # verify_identity draws n_i and d_i from getrandbits by fixed-width
    # rejection, as randint(-9, 9) and randint(1, 4) do, so the trial vectors
    # 12 * n_i / d_i and the rest of the stream stay the same
    for seed in range(200):
        bits, rng = random.Random(seed).getrandbits, random.Random(seed)
        for dim in range(1, 13):
            got = algebras._trial_block(bits, dim, 2)
            # n_i, then d_i: the operands of * are evaluated left to right
            assert got == [[rng.randint(-9, 9) * (12 // rng.randint(1, 4)) for _ in range(dim)]
                           for _ in range(2)], (seed, dim)
        assert bits(32) == rng.getrandbits(32), seed


# verify_identity evaluates its trials in blocks of _TRIAL_BLOCK vectors;
# these trial counts cross every block boundary.
_BLOCK = algebras._TRIAL_BLOCK
_BLOCK_TRIALS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
_LOW_MONOMIALS = [m for d in range(1, 4) for m in enumerate_monomials(d)]


@st.composite
def weighted_algebras(draw):
    """A built-in algebra, or a random commutative one of dim 1-4 with
    fractional constants and a weight, and perhaps an associating form."""
    if draw(st.booleans()):
        return build_algebra(draw(st.sampled_from(builder_names())))
    if draw(st.booleans()):
        alg = draw(commutative_algebras(max_dim=4))
        return StructureAlgebra(dim=alg.dim, structure=alg.structure,
                                weight=tuple(draw(small_fractions) for _ in range(alg.dim)))
    n = draw(st.integers(1, 4))
    # c_ijk = t_ijk / b_k with t symmetric in i, j and k: then b(e_i e_j, e_k)
    # = t_ijk, so the diagonal form b is associating
    b = [draw(st.builds(F, st.integers(1, 4), st.integers(1, 5))) for _ in range(n)]
    t = {key: draw(small_fractions) for key in itertools.combinations_with_replacement(range(n), 3)}
    structure = tuple(tuple(tuple(t[tuple(sorted((i, j, k)))] / b[k] for k in range(n)) for j in range(n))
                      for i in range(n))
    form = tuple(tuple(b[i] if i == j else F(0) for j in range(n)) for i in range(n))
    weight = tuple(draw(small_fractions) for _ in range(n))
    return StructureAlgebra(dim=n, structure=structure, bilinear_form=form, weight=weight)


@st.composite
def realizable_identities(draw, alg):
    """A catalog identity, or random terms of degree at most 4 with baric
    weights when alg has a weight and bilinear ones when it has a form."""
    named = [name for name in ("bernstein", "hsiang", "jordan_power_assoc", "pseudo_composition", "walcher")
             if all((alg.weight is not None or not t.weight.baric_exp)
                    and (alg.bilinear_form is not None or not t.weight.bilinear_args)
                    for t in catalog(name).terms)]
    if draw(st.booleans()):
        return catalog(draw(st.sampled_from(named)))
    baric = st.integers(0, 2) if alg.weight is not None else st.just(0)
    args = st.lists(st.sampled_from(_LOW_MONOMIALS), max_size=2 if alg.bilinear_form is not None else 0)
    weights = st.builds(lambda k, ms: WeightDescriptor(k, tuple(sorted(ms))), baric, args)
    monomials = st.sampled_from([m for d in range(1, 5) for m in enumerate_monomials(d)])
    coeffs = st.builds(F, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 4))
    terms = draw(st.lists(st.tuples(coeffs, monomials, weights), min_size=1, max_size=4,
                          unique_by=lambda term: (term[1], term[2])))
    return make_identity(terms, require_zero_sum=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_blocked_trials_match_fraction_sum(data):
    # Failure lines, with their global trial indices, against the Fraction
    # oracle that draws and sums one trial at a time.
    if data.draw(st.booleans()):
        alg, identity, _ = data.draw(st.sampled_from(_scaled_weight_cases()))
    else:
        alg = data.draw(weighted_algebras())
        identity = data.draw(realizable_identities(alg))
    trials, seed = data.draw(st.sampled_from(_BLOCK_TRIALS)), data.draw(st.integers(0, 2**32))
    report = verify_identity(alg, identity, trials=trials, seed=seed)
    assert report.failures == _fraction_identity_failures(alg, identity, trials, seed)
    assert report.ok == (not report.failures)


def test_verify_identity_memory_stays_within_one_block():
    # trials run in blocks, so 5000 trials take at most twice the memory of one block
    alg, identity = hsiang_tracefree_sym3(), catalog("hsiang")
    peaks = []
    for trials in (_BLOCK, 5000):
        tracemalloc.start()
        try:
            assert verify_identity(alg, identity, trials=trials, seed=1).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


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
