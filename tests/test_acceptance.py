"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from peirce_lab.algebras import (
    build_algebra,
    dimension_constraints_check,
    eigen_decomposition,
    evaluate_monomial,
    fusion_empirical,
    hsiang_tracefree_sym3,
    linearize,
    verify_first_linearization,
    verify_identity,
    verify_second_linearization,
)
from peirce_lab.identities import (
    EmptyIdentity,
    WeightedIdentity,
    ZeroSumViolation,
    baric_weight,
    bilinear_weight,
    catalog,
    fusion_table,
    identity_peirce_poly,
    identity_symbol,
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
from peirce_lab.peirce import (
    half_specialization,
    peirce_poly,
    peirce_symbol,
    plenary_peirce_closed,
    plenary_symbol_closed,
    principal_peirce_closed,
    principal_symbol_closed,
)
from peirce_lab.poly import Poly1, Poly3

from reference import random_monomial

F = Fraction
HALF = F(1, 2)


class _Gate:
    def __init__(self, number, title, budget=None):
        self.number = number
        self.title = title
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[{verdict}] criterion {self.number}: {self.title} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s"
            )
        return False


def test_criterion_1_table_goldens():
    with _Gate(1, "rho and symbol goldens for z .. z^2*z^2, z^4", budget=1.0):
        t = Poly1.t()
        a, b, p = Poly3.var("a"), Poly3.var("b"), Poly3.var("p")
        cases = {
            "z": (Poly1.const(1), Poly3.zero()),
            "z^2": (2 * t, 2 * Poly3.const(1)),
            "z^3": (2 * t**2 + t, 2 * (p + a + b)),
            "z^2*z^2": (4 * t**2, 4 * p + 8 * a * b),
            "z^4": (
                2 * t**3 + t**2 + t,
                2 * p**2 + 2 * p * (a + b) + 2 * a**2 + 2 * b**2 + a + b,
            ),
        }
        for text, (rho_want, sym_want) in cases.items():
            m = parse_monomial(text)
            assert peirce_poly(m) == rho_want, text
            assert peirce_symbol(m) == sym_want, text


def test_criterion_2_specialization_suite():
    with _Gate(2, "rho(1)=deg, rho(1/2)=1, rho(0) in {0,1}", budget=10.0):
        for d in range(1, 9):
            for m in enumerate_monomials(d):
                rho = peirce_poly(m)
                assert rho(F(1)) == d
                assert rho(HALF) == 1
                assert rho(F(0)) == (1 if d == 1 else 0)
        rng = random.Random(2024)
        for _ in range(500):
            d = rng.randint(1, 12)
            m = random_monomial(d, rng)
            rho = peirce_poly(m)
            assert rho(F(1)) == d
            assert rho(HALF) == 1
            assert rho(F(0)) == (1 if d == 1 else 0)


def test_criterion_3_half_root_and_validation():
    with _Gate(3, "rho(P, 1/2) = 0 on 200 random identities; zero-sum enforced", budget=10.0):
        rng = random.Random(31)
        built = 0
        while built < 200:
            n = rng.randint(2, 5)
            terms = []
            total = F(0)
            for _ in range(n - 1):
                c = F(rng.randint(-6, 6) or 1, rng.randint(1, 3))
                terms.append((c, random_monomial(rng.randint(1, 7), rng), baric_weight(rng.randint(0, 2))))
                total += c
            terms.append((-total, random_monomial(rng.randint(1, 7), rng), bilinear_weight(atom())))
            try:
                ident = make_identity(terms)
            except EmptyIdentity:
                continue
            built += 1
            assert identity_peirce_poly(ident)(HALF) == 0
        with pytest.raises(ZeroSumViolation):
            make_identity([(1, principal_power(2)), (1, atom())])


def test_criterion_4_jordan():
    with _Gate(4, "Jordan rho = 2t^3 - 3t^2 + t with roots {0, 1/2, 1}"):
        t = Poly1.t()
        ident = catalog("jordan_power_assoc")
        assert identity_peirce_poly(ident) == 2 * t**3 - 3 * t**2 + t
        report = spectrum(ident)
        assert report.roots == ((F(0), 1), (HALF, 1), (F(1), 1))
        assert report.residual.degree == 0


HSIANG_TABLE2 = {
    (F(-1), F(-1)): {F(1)},
    (F(-1), F(-1, 2)): {HALF},
    (F(-1), HALF): {F(-1, 2), HALF},
    (F(-1, 2), F(-1, 2)): {F(1), F(-1, 2)},
    (F(-1, 2), HALF): {F(-1), HALF},
    (HALF, HALF): {F(1), F(-1), F(-1, 2)},
}


def test_criterion_5_hsiang_symbolic():
    with _Gate(5, "Hsiang rho, Y polynomial, metrized fusion table"):
        ident = catalog("hsiang")
        t = Poly1.t()
        rho = identity_peirce_poly(ident)
        assert rho == 2 * (2 * t - 1) * (2 * t + 1) * (t + 1)
        a, b, p = Poly3.var("a"), Poly3.var("b"), Poly3.var("p")
        assert identity_symbol(ident) == (
            8 * (p**2 + a**2 + b**2)
            + 8 * (p * a + p * b + a * b)
            + 4 * (a + b + p)
            - 6 * Poly3.const(1)
        )
        table = fusion_table(ident, mode="metrized_orthogonal")
        for key, want in HSIANG_TABLE2.items():
            assert table.allowed(*key) == frozenset(want), key
        for mu in table.spectrum:
            assert table.allowed(F(1), mu) == frozenset({mu})


def test_criterion_6_divided_difference_and_closed_forms():
    with _Gate(6, "b=1/2 divided-difference identity; closed forms n=1..10"):
        for d in range(1, 9):
            for m in enumerate_monomials(d):
                assert half_specialization(m) == peirce_symbol(m).substitute("b", HALF)
        for n in range(1, 11):
            assert principal_peirce_closed(n) == peirce_poly(principal_power(n))
            assert plenary_peirce_closed(n) == peirce_poly(plenary_power(n))
            assert principal_symbol_closed(n) == peirce_symbol(principal_power(n))
            assert plenary_symbol_closed(n) == peirce_symbol(plenary_power(n))


def test_criterion_7_product_law():
    with _Gate(7, "product law on 100 pairs; squares degenerate; Elduque-Labra degenerate"):
        rng = random.Random(77)
        t = Poly1.t()

        def formal(max_terms=4):
            terms = [
                (F(rng.randint(-5, 5) or 1), random_monomial(rng.randint(1, 6), rng))
                for _ in range(rng.randint(1, max_terms))
            ]
            try:
                return WeightedIdentity(terms)
            except EmptyIdentity:
                return None

        pairs = 0
        while pairs < 100:
            p1, p2 = formal(), formal()
            if p1 is None or p2 is None:
                continue
            pairs += 1
            r1, r2 = identity_peirce_poly(p1), identity_peirce_poly(p2)
            lhs = identity_peirce_poly(multiply_identities(p1, p2))
            rhs = t * (Poly1.const(r2(HALF)) * r1 + Poly1.const(r1(HALF)) * r2)
            assert lhs == rhs

        def valid(rng):
            terms = []
            total = F(0)
            for _ in range(rng.randint(1, 3)):
                c = F(rng.randint(-4, 4) or 1)
                terms.append((c, random_monomial(rng.randint(1, 5), rng), baric_weight(1)))
                total += c
            terms.append((-total, random_monomial(rng.randint(1, 5), rng)))
            try:
                return make_identity(terms)
            except EmptyIdentity:
                return None

        squares = 0
        while squares < 20:
            p = valid(rng)
            if p is None:
                continue
            squares += 1
            assert identity_peirce_poly(multiply_identities(p, p)).is_zero
        assert spectrum(catalog("elduque_labra")).degenerate


def test_criterion_8_concrete_hsiang_pipeline():
    with _Gate(8, "concrete Hsiang algebra: spectrum, dims, identity, fusion", budget=30.0):
        alg = hsiang_tracefree_sym3()
        c = alg.idempotents[0]
        assert alg.is_idempotent(c)
        decomp = eigen_decomposition(alg, c)
        mults = {lam: decomp.multiplicity(lam) for lam in decomp.eigenvalues}
        assert mults == {F(1): 1, F(-1): 2, HALF: 2}
        assert set(decomp.eigenvalues) - {F(1)} <= {F(-1), F(-1, 2), HALF}
        assert dimension_constraints_check(decomp).ok
        assert alg.dim == 5
        assert verify_identity(alg, catalog("hsiang"), trials=50, seed=8).ok
        for j in range(alg.dim):
            op = alg.mult_operator(alg.basis_vector(j))
            assert sum(op[i][i] for i in range(alg.dim)) == 0
        table = fusion_table(catalog("hsiang"), mode="metrized_orthogonal")
        assert fusion_empirical(alg, c, table, decomp).ok


def test_criterion_9_linearization_theorems():
    with _Gate(9, "first/second linearization and Euler identity to degree 5", budget=60.0):
        rng = random.Random(9)
        for name in ("jordan_sym2", "hsiang_sym3"):
            alg = build_algebra(name)
            c = alg.idempotents[0]
            decomp = eigen_decomposition(alg, c)
            x = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(alg.dim))
            for d in range(1, 6):
                for m in enumerate_monomials(d):
                    assert verify_first_linearization(alg, c, m).ok, (name, str(m))
                    mx = evaluate_monomial(alg, m, x)
                    import math

                    for k in range(0, d + 1):
                        got = linearize(alg, m, k, x, x)
                        assert got == tuple(math.comb(d, k) * v for v in mx)
                    if d >= 2:
                        for lam in decomp.eigenvalues:
                            for mu in decomp.eigenvalues:
                                assert verify_second_linearization(
                                    alg, c, m, lam, mu, decomp
                                ).ok, (name, str(m), lam, mu)


def test_criterion_10_train_closed_forms():
    with _Gate(10, "train identities match closed forms for ranks 2..8"):
        rng = random.Random(10)
        for family in ("principal_train", "plenary_train"):
            for rank in range(2, 9):
                gamma = [F(1)] + [
                    F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rank - 2)
                ]
                gamma.append(-sum(gamma))
                ident = catalog(family, {"gamma": gamma})
                rho_closed, y_closed = train_closed_forms(family, gamma)
                assert identity_peirce_poly(ident) == rho_closed
                assert identity_symbol(ident) == y_closed
                assert rho_closed(HALF) == 0
