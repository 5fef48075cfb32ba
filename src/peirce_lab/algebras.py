"""Finite-dimensional commutative algebras over exact rationals.

An algebra is given by symmetric structure constants c[i][j][k] with
e_i e_j = sum_k c[i][j][k] e_k, plus an optional associating bilinear form
and an optional weight functional.  Everything is exact: eigenvalues are
extracted as rational roots of the characteristic polynomial and
eigenspaces come from exact null-space computation, so spectral membership
is decided, never approximated.

Products, monomial evaluation, the form check and characteristic
polynomials run in Python ints: denominators are cleared once on the way
in, every product and sum is an integer operation with no gcd, and each
result is divided once on the way out.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Mapping, Sequence

from ._record import _Record, _set
from .identities import WeightDescriptor, WeightedIdentity, identity_peirce_poly
from .magma import Monomial, atom, fold
from .peirce import peirce_poly, peirce_symbol
from .poly import (
    ExactDivisionError,
    Poly1,
    _cleared_coeffs,
    _square_free,
    divide_exact,
    format_rational,
    parse_rational,
    rational_roots,
)

__all__ = [
    "StructureAlgebra",
    "PeirceDecomposition",
    "UnrealizableWeight",
    "jordan_sym",
    "spin_factor",
    "hsiang_tracefree_sym3",
    "builder_names",
    "build_algebra",
    "char_poly",
    "eigen_decomposition",
    "evaluate_monomial",
    "linearize",
    "second_linearization",
    "verify_first_linearization",
    "verify_second_linearization",
    "verify_identity",
    "spectrum_inclusion_check",
    "fusion_empirical",
    "dimension_constraints_check",
    "algebra_to_json",
    "algebra_from_json",
]

Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


class UnrealizableWeight(ValueError):
    """The identity references a weight map the algebra does not carry."""


def _vec(values: Sequence) -> Vector:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def _zero(dim: int) -> Vector:
    return (Fraction(0),) * dim


def _scaled(values: Sequence[Fraction], den: int) -> list[int]:
    """den * values as ints; den must be a multiple of every denominator."""
    return [v.numerator * (den // v.denominator) for v in values]


def _cleared(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Int rows n and the least den > 0 with rows == n / den."""
    den = lcm(*(v.denominator for row in rows for v in row))
    return [_scaled(row, den) for row in rows], den


def _cleared_vectors(algebra: StructureAlgebra, *vectors: Sequence) -> tuple[list[list[int]], int]:
    """Vectors of the algebra as ints over their least common denominator."""
    vectors = [_vec(v) for v in vectors]
    if any(len(v) != algebra.dim for v in vectors):
        raise ValueError("vector length does not match algebra dimension")
    return _cleared(vectors)


def _check_length(field: str, values: Sequence, dim: int) -> None:
    if len(values) != dim:
        raise ValueError(f"{field} has length {len(values)}, expected {dim}")


def _divided(values: Sequence[int], den: int) -> Vector:
    return tuple(Fraction(v, den) for v in values)


class StructureAlgebra(_Record):
    """Structure constants with an optional form, weight and idempotents."""

    # Integer copies over one denominator each.  _terms[i][j] holds the
    # nonzero (k, _den * c_ijk) of e_i e_j, so _product loops over these only;
    # _form is _form_den * the bilinear form and _omega _omega_den * the weight.
    __slots__ = (
        "dim", "structure", "bilinear_form", "weight", "idempotents", "name",
        "_terms", "_den", "_form", "_form_den", "_omega", "_omega_den",
    )

    def __init__(
        self,
        dim: int,
        structure: tuple,  # structure[i][j] is the product vector e_i e_j
        bilinear_form: tuple | None = None,
        weight: Vector | None = None,
        idempotents: tuple[Vector, ...] = (),
        name: str = "",
    ):
        if dim < 1:
            raise ValueError(f"dim must be at least 1, got {dim}")
        _check_length("structure", structure, dim)
        for i, row in enumerate(structure):
            _check_length(f"structure[{i}]", row, dim)
            for j, prod in enumerate(row):
                _check_length(f"structure[{i}][{j}]", prod, dim)
        if bilinear_form is not None:
            _check_length("bilinear_form", bilinear_form, dim)
            for i, row in enumerate(bilinear_form):
                _check_length(f"bilinear_form[{i}]", row, dim)
        if weight is not None:
            _check_length("weight", weight, dim)
        for i, c in enumerate(idempotents):
            _check_length(f"idempotents[{i}]", c, dim)
        structure = tuple(tuple(_vec(prod) for prod in row) for row in structure)
        den = lcm(*(c.denominator for row in structure for prod in row for c in prod))
        terms = tuple(
            tuple(tuple((k, c) for k, c in enumerate(_scaled(prod, den)) if c) for prod in row)
            for row in structure
        )
        form, form_den = None, 1
        if bilinear_form is not None:
            bilinear_form = tuple(_vec(row) for row in bilinear_form)
            form, form_den = _cleared(bilinear_form)
        omega, omega_den = None, 1
        if weight is not None:
            weight = _vec(weight)
            (omega,), omega_den = _cleared((weight,))
        idempotents = tuple(_vec(c) for c in idempotents)
        # in the order of __slots__
        values = (dim, structure, bilinear_form, weight, idempotents, name,
                  terms, den, form, form_den, omega, omega_den)
        for slot, value in zip(self.__slots__, values):
            _set(self, slot, value)
        self._validate()

    def _validate(self) -> None:
        n = self.dim
        for i in range(n):
            for j in range(i):
                if self._terms[i][j] != self._terms[j][i]:
                    raise ValueError(f"structure constants not commutative at ({i}, {j})")
        if self._form is not None:
            form = self._form
            for i in range(n):
                for j in range(n):
                    if form[i][j] != form[j][i]:
                        raise ValueError("bilinear form is not symmetric")
            # g[i][j][k] = sum_l c_ijl B_lk is b(e_i e_j, e_k) up to one common
            # factor, and b(e_i, e_j e_k) = g[j][k][i] since B is symmetric.
            g = []
            for row in self._terms:
                g.append([])
                for terms in row:
                    v = [0] * n
                    for l, c in terms:
                        v = [acc + c * b for acc, b in zip(v, form[l])]
                    g[-1].append(v)
            for i, j, k in itertools.product(range(n), repeat=3):
                if g[i][j][k] != g[j][k][i]:
                    raise ValueError(
                        f"bilinear form is not associating on basis triple ({i}, {j}, {k})"
                    )

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def _product(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """_den * (x y) for int coordinate vectors x and y of length dim."""
        out = [0] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for xi, row in zip(x, self._terms):
            if xi:
                for j, yj in ys:
                    s = xi * yj
                    for k, c in row[j]:
                        out[k] += s * c
        return out

    def multiply(self, x: Sequence, y: Sequence) -> Vector:
        (xs, ys), den = _cleared_vectors(self, x, y)
        return _divided(self._product(xs, ys), den * den * self._den)

    def mult_operator(self, c: Sequence) -> Matrix:
        """L_c as an exact matrix (columns are c * e_j)."""
        cols = [self.multiply(c, self.basis_vector(j)) for j in range(self.dim)]
        return [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]

    def is_idempotent(self, c: Sequence) -> bool:
        c = _vec(c)
        return self.multiply(c, c) == c

    def _b(self, x: Sequence[int], y: Sequence[int]) -> int:
        """_form_den * b(x, y) for int vectors x and y."""
        if self._form is None:
            raise UnrealizableWeight(f"algebra {self.name or '<anon>'} has no bilinear form")
        return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, self._form) if xi)

    def _omega_of(self, x: Sequence[int]) -> int:
        """_omega_den * omega(x) for an int vector x."""
        if self._omega is None:
            raise UnrealizableWeight(f"algebra {self.name or '<anon>'} has no weight functional")
        return sum(map(mul, self._omega, x))

    def b(self, x: Sequence, y: Sequence) -> Fraction:
        (xs, ys), den = _cleared_vectors(self, x, y)
        return Fraction(self._b(xs, ys), den * den * self._form_den)

    def omega(self, x: Sequence) -> Fraction:
        (xs,), den = _cleared_vectors(self, x)
        return Fraction(self._omega_of(xs), den * self._omega_den)


class PeirceDecomposition(_Record):
    __slots__ = ("idempotent", "char_poly", "eigenvalues", "eigenbases", "residual", "semisimple")

    def __init__(
        self,
        idempotent: Vector,
        char_poly: Poly1,
        eigenvalues: tuple[Fraction, ...],
        eigenbases: Mapping[Fraction, tuple[Vector, ...]],
        residual: Poly1,
        semisimple: bool,
    ):
        _set(self, "idempotent", idempotent)
        _set(self, "char_poly", char_poly)
        _set(self, "eigenvalues", eigenvalues)
        _set(self, "eigenbases", eigenbases)
        _set(self, "residual", residual)
        _set(self, "semisimple", semisimple)

    def multiplicity(self, lam: Fraction) -> int:
        return len(self.eigenbases.get(lam, ()))


# --- exact linear algebra -----------------------------------------------------


def _int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _faddeev_leverrier(a: list[list[int]]) -> list[int]:
    """Coefficients of det(tI - A), lowest degree first, for an int matrix A.

    A_1 = A, A_k = A (A_(k-1) + c_(n-k+1) I) and c_(n-k) = -tr(A_k) / k.  The
    c are ints, so every division is exact; a remainder means A was not an
    int matrix, which is an internal error.
    """
    n = len(a)
    coeffs = [0] * n + [1]
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                mk[i][i] += coeffs[n - k + 1]
            mk = _int_mat_mul(a, mk)
        c, r = divmod(-sum(mk[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError(f"Faddeev-LeVerrier trace not divisible by {k}: the matrix is not integral")
        coeffs[n - k] = c
    return coeffs


def char_poly_matrix(m: Matrix) -> Poly1:
    """Characteristic polynomial by the Faddeev-LeVerrier trace recurrence.

    It runs on the int matrix A = d*M: det(tI - M) = d^-n det(d t I - A), so
    the t^e coefficient is that of A over d^(n-e).
    """
    n = len(m)
    a, d = _cleared(m)
    return Poly1({e: Fraction(c, d ** (n - e)) for e, c in enumerate(_faddeev_leverrier(a))})


def _row_reduce(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of m and its pivot columns, by exact Gauss-Jordan."""
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    a = [row[:] for row in m]
    pivots: list[int] = []
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


def null_space(m: Matrix) -> list[Vector]:
    """Basis of the kernel, by exact Gaussian elimination."""
    n_cols = len(m[0]) if m else 0
    a, pivots = _row_reduce(m)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -a[row_idx][fc]
        basis.append(tuple(v))
    return basis


# --- spectral analysis --------------------------------------------------------


def char_poly(algebra: StructureAlgebra, c: Sequence) -> Poly1:
    return char_poly_matrix(algebra.mult_operator(c))


def eigen_decomposition(algebra: StructureAlgebra, c: Sequence) -> PeirceDecomposition:
    c = _vec(c)
    if not algebra.is_idempotent(c) or c == _zero(algebra.dim):
        raise ValueError("eigen decomposition requires a nonzero idempotent")
    lc = algebra.mult_operator(c)
    cp = char_poly_matrix(lc)
    roots, residual = rational_roots(cp)
    eigenbases: dict[Fraction, tuple[Vector, ...]] = {}
    geometric = 0
    for lam, _mult in roots:
        shifted = [row[:] for row in lc]
        for i in range(algebra.dim):
            shifted[i][i] -= lam
        basis = null_space(shifted)
        eigenbases[lam] = tuple(basis)
        geometric += len(basis)
    semisimple = geometric == algebra.dim
    return PeirceDecomposition(
        idempotent=c,
        char_poly=cp,
        eigenvalues=tuple(sorted(eigenbases)),
        eigenbases=eigenbases,
        residual=residual,
        semisimple=semisimple,
    )


# --- monomial evaluation and linearization ------------------------------------


# One evaluator serves plain evaluation and both linearizations: Taylor-mode
# differentiation over the monomial DAG.  A jet is a dict {exponent tuple:
# vector}, the coefficients of a truncated polynomial in infinitesimals; the
# leaf x + eps*y is {(0,): x, (1,): y}.  A product keeps only the exponents
# within `caps`, so it computes modulo eps^(cap+1) in each infinitesimal.
#
# Jets hold ints.  The leaf vectors are scaled by one common L to ints, and
# the kernel returns D = algebra._den times each product, so every
# coefficient of a node of degree d is its true value times _jet_scale(L, d)
# = L^d * D^(d-1): a monomial is homogeneous.  Callers divide once at the end.


def _jet_scale(algebra: StructureAlgebra, den: int, degree: int) -> int:
    return den**degree * algebra._den ** (degree - 1)


def _jet_product(algebra: StructureAlgebra, a: dict, b: dict, caps: tuple[int, ...]) -> dict:
    out: dict = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            if all(i <= cap for i, cap in zip(e, caps)):
                v = algebra._product(va, vb)
                out[e] = [s + t for s, t in zip(out[e], v)] if e in out else v
    return out


def _evaluate_jet(algebra: StructureAlgebra, m: Monomial, memo: dict, caps: tuple[int, ...] = ()) -> dict:
    """Jet of m, given memo[atom()] = the leaf jet.

    `memo` maps subtrees to their jets; evaluations of several monomials at
    the same leaf may share it.
    """
    return fold(m, memo, lambda node, a, b: _jet_product(algebra, a, b, caps))


def evaluate_monomial(algebra: StructureAlgebra, m: Monomial, x: Sequence) -> Vector:
    (xs,), den = _cleared_vectors(algebra, x)
    value = _evaluate_jet(algebra, m, {atom(): {(): xs}})[()]
    return _divided(value, _jet_scale(algebra, den, m.degree))


def linearize(
    algebra: StructureAlgebra, m: Monomial, k: int, x: Sequence, y: Sequence
) -> Vector:
    """D^k(m; x, y): the sum over all C(deg, k) labelings of k leaves by y and
    the rest by x, computed as the eps^k coefficient of m(x + eps*y)."""
    deg = m.degree
    if not 0 <= k <= deg:
        raise ValueError(f"order k must be in 0..{deg}, got {k}")
    (xs, ys), den = _cleared_vectors(algebra, x, y)
    jet = _evaluate_jet(algebra, m, {atom(): {(0,): xs, (1,): ys}}, (k,))
    return _divided(jet[(k,)], _jet_scale(algebra, den, deg))


def second_linearization(
    algebra: StructureAlgebra, m: Monomial, c: Sequence, x: Sequence, y: Sequence
) -> Vector:
    """Polarized D^2(m; c, x, y) = D^2(c, x+y) - D^2(c, x) - D^2(c, y),
    computed as the eps*delta coefficient of m(c + eps*x + delta*y)."""
    (cs, xs, ys), den = _cleared_vectors(algebra, c, x, y)
    jet = _evaluate_jet(algebra, m, {atom(): {(0, 0): cs, (1, 0): xs, (0, 1): ys}}, (1, 1))
    return _divided(jet.get((1, 1), [0] * algebra.dim), _jet_scale(algebra, den, m.degree))


def _operator_poly(algebra: StructureAlgebra, f: Poly1, c: Sequence, v: Sequence) -> Vector:
    """f(L_c) v by a homogeneous Horner pass through the product kernel.

    With c = cs/d, v = vs/e and s = d * _den, the kernel applied to cs is
    A = s * L_c.  With f = (1/q) * sum a_k t^k of degree n, q * e * s^n *
    f(L_c) v is sum a_k s^(n-k) A^k vs, all in ints; it is divided once at
    the end.
    """
    (cs,), d = _cleared_vectors(algebra, c)
    (vs,), e = _cleared_vectors(algebra, v)
    ints, q = _cleared_coeffs(f)
    s = d * algebra._den
    acc = [0] * algebra.dim
    spow = 1
    for a in reversed(ints):
        acc = [w + a * spow * u for w, u in zip(algebra._product(cs, acc), vs)]
        spow *= s
    return _divided(acc, q * e * s ** max(f.degree, 0))  # the zero polynomial leaves acc zero


# --- verification reports -----------------------------------------------------


class VerificationReport(_Record):
    __slots__ = ("ok", "subject", "failures")

    def __init__(self, ok: bool, subject: str, failures: tuple[str, ...] = ()):
        _set(self, "ok", ok)
        _set(self, "subject", subject)
        _set(self, "failures", failures)

    def __bool__(self) -> bool:
        return self.ok


def verify_first_linearization(
    algebra: StructureAlgebra, c: Sequence, m: Monomial
) -> VerificationReport:
    """Check D^1(m; c, .) == rho(m, L_c) column by column."""
    rho = peirce_poly(m)
    failures = []
    for j in range(algebra.dim):
        e_j = algebra.basis_vector(j)
        if linearize(algebra, m, 1, c, e_j) != _operator_poly(algebra, rho, c, e_j):
            failures.append(f"column {j}: D^1 != rho(L_c)")
    return VerificationReport(not failures, f"first linearization of {m}", tuple(failures))


def verify_second_linearization(
    algebra: StructureAlgebra,
    c: Sequence,
    m: Monomial,
    lam: Fraction,
    mu: Fraction,
    decomposition: PeirceDecomposition | None = None,
) -> VerificationReport:
    """Check D^2(m; c, x, y) == symbol(m)(lam, mu, L_c)(xy) on eigenbasis pairs."""
    decomp = decomposition or eigen_decomposition(algebra, c)
    sym_p = peirce_symbol(m).substitute("a", lam).substitute("b", mu).as_poly1("p")
    failures = []
    for x in decomp.eigenbases.get(Fraction(lam), ()):
        for y in decomp.eigenbases.get(Fraction(mu), ()):
            lhs = second_linearization(algebra, m, c, x, y)
            if lhs != _operator_poly(algebra, sym_p, c, algebra.multiply(x, y)):
                failures.append(f"pair in A_c({lam}) x A_c({mu}) fails for {m}")
    return VerificationReport(not failures, f"second linearization of {m}", tuple(failures))


def _weight_value(
    algebra: StructureAlgebra, w: WeightDescriptor, xs: list[int], den: int, memo: dict
) -> tuple[int, int]:
    """w at x = xs / den as an int numerator and a positive int denominator."""
    num, wden = 1, 1
    if w.baric_exp:
        num *= algebra._omega_of(xs) ** w.baric_exp
        wden *= (algebra._omega_den * den) ** w.baric_exp
    for m in w.bilinear_args:
        num *= algebra._b(xs, _evaluate_jet(algebra, m, memo)[()])
        wden *= algebra._form_den * den * _jet_scale(algebra, den, m.degree)
    return num, wden


def _random_vector(dim: int, rng: random.Random) -> Vector:
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))


def verify_identity(
    algebra: StructureAlgebra,
    identity: WeightedIdentity,
    trials: int = 50,
    seed: int = 0,
) -> VerificationReport:
    """Evaluate the identity at random rational vectors; all must vanish."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        (xs,), den = _cleared_vectors(algebra, _random_vector(algebra.dim, rng))
        memo = {atom(): {(): xs}}  # shared by every term and weight at this x
        # Term t at x is num * value / tden with ints num, value and tden > 0;
        # P(x) is zero when the sum over the common denominator is.
        parts = []
        for t in identity.terms:
            coeff = Fraction(t.coeff)
            num, wden = _weight_value(algebra, t.weight, xs, den, memo)
            tden = coeff.denominator * wden * _jet_scale(algebra, den, t.monomial.degree)
            parts.append((coeff.numerator * num, tden, _evaluate_jet(algebra, t.monomial, memo)[()]))
        common = lcm(*(tden for _, tden, _ in parts))
        acc = [0] * algebra.dim
        for num, tden, value in parts:
            s = num * (common // tden)
            acc = [a + s * v for a, v in zip(acc, value)]
        if any(acc):
            failures.append(f"trial {trial}: P(x) != 0")
    return VerificationReport(
        not failures, f"identity {identity.name or '<anon>'} on {algebra.name or '<anon>'}",
        tuple(failures),
    )


def spectrum_inclusion_check(
    algebra: StructureAlgebra,
    c: Sequence,
    identity: WeightedIdentity,
    decomposition: PeirceDecomposition | None = None,
) -> VerificationReport:
    """Every eigenvalue of L_c except possibly 1 must be a root of rho_c(P, t).

    The irrational eigenvalues are decided together: they are the roots of
    the residual of chi(L_c), so they are roots of rho exactly when the
    square-free part of the residual divides rho.
    """
    rho = identity_peirce_poly(identity)
    if rho.is_zero:
        raise ValueError("spectrum inclusion is vacuous for a degenerate identity")
    decomp = decomposition or eigen_decomposition(algebra, c)
    failures = []
    for lam in decomp.eigenvalues:
        if lam != 1 and rho(lam) != 0:
            failures.append(f"eigenvalue {format_rational(lam)} is not a root of rho_c(P, t)")
    if decomp.residual.degree >= 1:
        ints, _ = _cleared_coeffs(decomp.residual)
        try:
            divide_exact(rho, Poly1(dict(enumerate(_square_free(ints)))))
        except ExactDivisionError:
            failures.append(
                f"L_c has non-rational spectral factor {decomp.residual.render()}"
            )
    return VerificationReport(not failures, "spectrum inclusion", tuple(failures))


def fusion_empirical(
    algebra: StructureAlgebra,
    c: Sequence,
    predicted,
    decomposition: PeirceDecomposition | None = None,
) -> VerificationReport:
    """Project eigenbasis products and compare against a predicted fusion table."""
    decomp = decomposition or eigen_decomposition(algebra, c)
    if not decomp.semisimple:
        raise ValueError("empirical fusion check needs a semisimple decomposition")
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
    products = [algebra.multiply(x, y) for lam, mu in blocks for x in bases[lam] for y in bases[mu]]
    # One elimination of [eigenbasis | products] leaves every product's
    # eigenbasis coordinates in the right-hand block.
    n = algebra.dim
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
                    + f" outside the allowed {sorted(allowed)}"
                )
    return VerificationReport(not failures, "empirical fusion", tuple(failures))


def dimension_constraints_check(decomp: PeirceDecomposition) -> VerificationReport:
    """Peirce-dimension obstructions for the {1, -1, -1/2, 1/2} spectrum."""
    dim = sum(len(v) for v in decomp.eigenbases.values())
    n1 = decomp.multiplicity(Fraction(-1))
    n2 = decomp.multiplicity(Fraction(-1, 2))
    n3 = decomp.multiplicity(Fraction(1, 2))
    failures = []
    if n3 != 2 * n1 + n2 - 2:
        failures.append(f"n3 = {n3} but 2*n1 + n2 - 2 = {2 * n1 + n2 - 2}")
    if dim != 3 * n1 + 2 * n2 - 1:
        failures.append(f"dim = {dim} but 3*n1 + 2*n2 - 1 = {3 * n1 + 2 * n2 - 1}")
    return VerificationReport(not failures, "Peirce dimension constraints", tuple(failures))


# --- builders -----------------------------------------------------------------


def _matrix_unit_algebra(
    n: int, basis: list[dict], coords: list[dict], form_den: int, trace_free: bool, name: str, idempotents
) -> StructureAlgebra:
    """The algebra on a basis of n x n matrices under x o y = (xy + yx)/2,
    minus (tr(xy)/n) I when trace_free, with the form tr(xy)/form_den.

    Matrices are sparse int dicts {(row, col): entry}, multiplied by the
    matrix-unit rule E_ij E_kl = delta_jk E_il; coords[k] is the k-th
    coordinate as a functional {(row, col): weight}.  The constants stay ints
    over den until one shared Fraction is made per distinct value.
    """
    # den * (x o y) = scale * (xy + yx) - shift * tr(xy) * I
    scale, shift = (n, 2) if trace_free else (1, 0)
    den = 2 * scale
    eye = [shift * sum(f.get((i, i), 0) for i in range(n)) for f in coords]
    readers: dict = {}  # (row, col) -> the (k, weight) of each coordinate that reads it
    for k, f in enumerate(coords):
        for pos, w in f.items():
            readers.setdefault(pos, []).append((k, w))
    dim = len(basis)
    ints = [[None] * dim for _ in range(dim)]
    traces = [[0] * dim for _ in range(dim)]
    for a, x in enumerate(basis):
        for b in range(a, dim):
            m: dict = {}  # xy + yx
            tr = 0
            for (i, j), u in x.items():
                for (k, l), v in basis[b].items():
                    if j == k:
                        m[i, l] = m.get((i, l), 0) + u * v
                    if l == i:
                        m[k, j] = m.get((k, j), 0) + u * v
                        if j == k:
                            tr += u * v
            out = [-tr * e for e in eye]
            for pos, v in m.items():
                for k, w in readers.get(pos, ()):
                    out[k] += scale * w * v
            ints[a][b] = ints[b][a] = out
            traces[a][b] = traces[b][a] = tr
    shared = {v: Fraction(v, den) for v in {v for row in ints for out in row for v in out}}
    forms = {v: Fraction(v, form_den) for v in {v for row in traces for v in row}}
    return StructureAlgebra(
        dim=dim,
        structure=tuple(tuple(tuple(shared[v] for v in out) for out in row) for row in ints),
        bilinear_form=tuple(tuple(forms[v] for v in row) for row in traces),
        idempotents=idempotents,
        name=name,
    )


def jordan_sym(n: int) -> StructureAlgebra:
    """Jordan algebra of symmetric n x n matrices, x o y = (xy + yx)/2."""
    if n < 2:
        raise ValueError("jordan_sym needs n >= 2")
    # The diagonal units E_ii, then E_ij + E_ji for i < j, read at (i, j).
    slots = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = [{(i, j): 1, (j, i): 1} for i, j in slots]
    # First basis vector is E_00, an idempotent; the unit is the sum of E_ii.
    e00 = [int(k == 0) for k in range(len(slots))]
    unit = [int(k < n) for k in range(len(slots))]
    return _matrix_unit_algebra(
        n, basis, [{s: 1} for s in slots], 1, False, f"jordan_sym{n}", (e00, unit)
    )


def spin_factor(d: int) -> StructureAlgebra:
    """Spin factor on R + R^d: (a, u)(b, v) = (ab + <u, v>, av + bu)."""
    if d < 2:
        raise ValueError("spin_factor needs d >= 2")
    dim = d + 1
    structure = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            out = [Fraction(0)] * dim
            if i == 0 and j == 0:
                out[0] = Fraction(1)
            elif i == 0:
                out[j] = Fraction(1)
            elif j == 0:
                out[i] = Fraction(1)
            elif i == j:
                out[0] = Fraction(1)
            structure[i][j] = tuple(out)
    form = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    e0 = tuple(Fraction(1 if i == 0 else 0) for i in range(dim))
    # (1 + u)/... idempotents besides the unit: c = (1/2)(e0 + e1)
    c = tuple(Fraction(1, 2) if i in (0, 1) else Fraction(0) for i in range(dim))
    return StructureAlgebra(
        dim=dim,
        structure=tuple(tuple(row) for row in structure),
        bilinear_form=tuple(tuple(row) for row in form),
        idempotents=(e0, c),
        name=f"spin_factor{d}",
    )


def hsiang_tracefree_sym3() -> StructureAlgebra:
    """Trace-free symmetric 3x3 matrices with x o y = (xy + yx)/2 - (tr(xy)/3) Id.

    Carries the associating form b(x, y) = tr(xy)/6, normalized so that
    b(c, c) = 1 at the idempotent diag(-1, -1, 2).
    """
    # E_01 + E_10, E_02 + E_20, E_12 + E_21, E_00 - E_11, E_11 - E_22; the
    # last two coordinates of diag(d0, d1, d2) are d0 and d0 + d1.
    basis = [{(0, 1): 1, (1, 0): 1}, {(0, 2): 1, (2, 0): 1}, {(1, 2): 1, (2, 1): 1},
             {(0, 0): 1, (1, 1): -1}, {(1, 1): 1, (2, 2): -1}]
    coords = [{(0, 1): 1}, {(0, 2): 1}, {(1, 2): 1}, {(0, 0): 1}, {(0, 0): 1, (1, 1): 1}]
    # c = diag(-1, -1, 2) in these coordinates
    return _matrix_unit_algebra(3, basis, coords, 6, True, "hsiang_sym3", ((0, 0, 0, -1, -2),))


_BUILDERS = {
    "jordan_sym2": lambda: jordan_sym(2),
    "jordan_sym3": lambda: jordan_sym(3),
    "spin_factor2": lambda: spin_factor(2),
    "spin_factor3": lambda: spin_factor(3),
    "hsiang_sym3": hsiang_tracefree_sym3,
}


def builder_names() -> list[str]:
    return sorted(_BUILDERS)


def build_algebra(name: str) -> StructureAlgebra:
    if name not in _BUILDERS:
        raise KeyError(f"unknown builder {name!r}; known: {', '.join(builder_names())}")
    return _BUILDERS[name]()


# --- JSON wire format ---------------------------------------------------------


def algebra_to_json(algebra: StructureAlgebra) -> dict:
    out: dict = {
        "dim": algebra.dim,
        "structure": [
            [[format_rational(v) for v in algebra.structure[i][j]] for j in range(algebra.dim)]
            for i in range(algebra.dim)
        ],
    }
    if algebra.bilinear_form is not None:
        out["bilinear_form"] = [[format_rational(v) for v in row] for row in algebra.bilinear_form]
    if algebra.weight is not None:
        out["weight"] = [format_rational(v) for v in algebra.weight]
    if algebra.idempotents:
        out["idempotents"] = [[format_rational(v) for v in c] for c in algebra.idempotents]
    if algebra.name:
        out["name"] = algebra.name
    return out


def _rationals_from_json(value, field: str, depth: int) -> tuple:
    """`depth` levels of nested JSON lists of rational literals, as tuples.

    A JSON string is iterable, so each level must be checked to be a list.
    """
    if not isinstance(value, list):
        raise TypeError(f"{field} must be a JSON list, got {json.dumps(value)}")
    if depth == 1:
        return tuple(parse_rational(v) for v in value)
    return tuple(_rationals_from_json(v, f"{field}[{i}]", depth - 1) for i, v in enumerate(value))


def algebra_from_json(obj: Mapping | str) -> StructureAlgebra:
    if isinstance(obj, str):
        obj = json.loads(obj)
    dim = obj["dim"]
    # bool is an int subclass, but `true` is not a JSON integer
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise TypeError(f"dim must be a JSON integer, got {json.dumps(dim)}")
    # null means absent; an empty list goes on to the length checks
    form, weight = obj.get("bilinear_form"), obj.get("weight")
    return StructureAlgebra(
        dim=dim,
        structure=_rationals_from_json(obj["structure"], "structure", 3),
        bilinear_form=None if form is None else _rationals_from_json(form, "bilinear_form", 2),
        weight=None if weight is None else _rationals_from_json(weight, "weight", 1),
        idempotents=_rationals_from_json(obj.get("idempotents", []), "idempotents", 2),
        name=obj.get("name", ""),
    )
