"""Finite-dimensional commutative algebras over exact rationals.

An algebra is given by symmetric structure constants c[i][j][k] with
e_i e_j = sum_k c[i][j][k] e_k, plus an optional associating bilinear form
and an optional weight functional.  Everything is exact: eigenvalues are
extracted as rational roots of the characteristic polynomial and
eigenspaces come from exact null-space computation, so spectral membership
is decided, never approximated.

Products, monomial evaluation, the form check, characteristic polynomials,
eigenspaces and the rho, Y and chi that the checks read run in Python ints:
denominators are cleared once on the way in, every product and sum is an
integer operation, and each result is divided once on the way out.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul, sub

from ._record import _Record, _set
from .identities import (
    DegenerateIdentity, WeightedIdentity, _field, _json_int, _json_name, _json_object, _require, identity_peirce_poly,
)
from .magma import Monomial, atom, fold
from .peirce import _symbol_at, peirce_poly, peirce_symbol
from .poly import (
    Poly1,
    _cleared_coeffs,
    _divide_dense,
    _horner_hom,
    _integer,
    _make,
    _primitive,
    _rational,
    _square_free,
    format_rational,
    parse_rational,
    rational_roots,
)

__all__ = [
    "StructureAlgebra",
    "PeirceDecomposition",
    "VerificationReport",
    "UnrealizableWeight",
    "jordan_sym",
    "spin_factor",
    "hsiang_tracefree_sym3",
    "builder_names",
    "build_algebra",
    "null_space",
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
    """values as Fractions, text read by parse_rational, which refuses exponent notation."""
    return tuple(v if type(v) is Fraction else _rational(v) for v in values)


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


# Statements per compiled function of a product kernel.  The compiler's
# memory grows with the source it is given (about 2 KB per statement), so a
# dense algebra is compiled in pieces of this size.
_KERNEL_CHUNK = 2048


def _compile_product(
    dim: int, terms: tuple, chunk: int = _KERNEL_CHUNK
) -> Callable[[Sequence[int], Sequence[int]], list[int]]:
    """One straight-line function (x, y) -> out over int vectors of length dim,
    with out[k] = sum over i, j of x_i y_j c for each (k, c) in terms[i][j].

    terms must be symmetric, so each unordered pair {i, j} with nonzero
    constants computes p = x_i y_j + x_j y_i (x_i y_i when i == j) once and
    adds c * p into every output it feeds.  Two guards hold for any input:
    - the source is built from int indices only, and the constants are bound
      as closure cells, because str() refuses an int of more than 4300 digits;
    - each statement updates one output by one pair, so no expression nests
      deeper than a fixed bound (CPython refuses to compile a sum of a few
      thousand terms).
    The source is compiled in pieces of about `chunk` statements, which keeps
    the compiler's memory bounded; each piece after the first takes the
    outputs so far, and the statements of one pair stay in one piece.
    """
    pieces: list[list] = [[]]  # per piece, statements (target, constant or None, product)
    first: dict[int, int] = {}  # output -> the piece that assigns it first
    for i in range(dim):
        for j in range(i, dim):
            row = terms[i][j]
            if not row:
                continue
            if len(pieces[-1]) >= chunk:
                pieces.append([])
            body = pieces[-1]
            pair = f"x{i} * y{i}" if i == j else f"(x{i} * y{j} + x{j} * y{i})"
            if len(row) > 1:
                body.append(("p =", None, pair))
                pair = "p"
            for k, c in row:
                body.append((f"o{k} {'+=' if k in first else '='}", None if c == 1 else c, pair))
                first.setdefault(k, len(pieces) - 1)
    xs = "".join(f"x{i}, " for i in range(dim))
    ys = "".join(f"y{i}, " for i in range(dim))
    os_ = "".join(f"o{k}, " for k in range(dim))
    steps = []
    for n, body in enumerate(pieces):
        consts = list({c: None for _, c, _ in body if c is not None})
        names = {c: f"c{m}" for m, c in enumerate(consts)}
        lines = [f"def make({''.join(f'{name}, ' for name in names.values())}):"]
        if n == 0:
            out = ", ".join(f"o{k}" if first.get(k) == 0 else "0" for k in range(dim))
            lines += ["    def step(x, y):", f"        {xs}= x", f"        {ys}= y"]
        else:  # the outputs come in from the pieces before
            out = os_.rstrip(", ")
            lines += ["    def step(x, y, o):", f"        {xs}= x", f"        {ys}= y", f"        {os_}= o"]
        lines += [f"        {target} {product}" if c is None else f"        {target} {names[c]} * {product}"
                  for target, c, product in body]
        lines += [f"        return [{out}]", "    return step"]
        namespace: dict = {}
        exec(compile("\n".join(lines), f"<product kernel, dim {dim}>", "exec"), namespace)
        steps.append(namespace["make"](*consts))
    head, rest = steps[0], steps[1:]
    if not rest:
        return head

    def product(x, y):
        out = head(x, y)
        for step in rest:
            out = step(x, y, out)
        return out

    return product


class StructureAlgebra(_Record):
    """Structure constants with an optional form, weight and idempotents."""

    # Integer copies over one denominator each.  _terms[i][j] holds the
    # nonzero (k, _den * c_ijk) of e_i e_j; _form is _form_den * the bilinear
    # form and _omega _omega_den * the weight.  _product(x, y) is the kernel
    # compiled from _terms: _den * (x y) for int coordinate vectors x and y.
    __slots__ = (
        "dim", "structure", "bilinear_form", "weight", "idempotents", "name",
        "_terms", "_den", "_form", "_form_den", "_omega", "_omega_den", "_product",
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
        _check_length("structure", structure, _integer(dim, "dim", 1))
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
        values = (dim, structure, bilinear_form, weight, idempotents, _require(name, str, "name"),
                  terms, den, form, form_den, omega, omega_den)
        for slot, value in zip(self.__slots__, values):
            _set(self, slot, value)
        self._validate()
        # after _validate, which proves _terms[i][j] == _terms[j][i]
        _set(self, "_product", _compile_product(dim, terms))

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

    def multiply(self, x: Sequence, y: Sequence) -> Vector:
        (xs, ys), den = _cleared_vectors(self, x, y)
        return _divided(self._product(xs, ys), den * den * self._den)

    def _operator_rows(self, cs: Sequence[int]) -> list[tuple[int, ...]]:
        """The rows of s * L_c for c = cs / d and s = d * _den: column j is the
        kernel's product of cs and e_j."""
        unit = [0] * self.dim
        cols = []
        for j in range(self.dim):
            unit[j] = 1
            cols.append(self._product(cs, unit))
            unit[j] = 0
        return list(zip(*cols))

    def mult_operator(self, c: Sequence) -> Matrix:
        """L_c as an exact matrix (columns are c * e_j)."""
        (cs,), den = _cleared_vectors(self, c)
        s = den * self._den
        return [[Fraction(v, s) for v in row] for row in self._operator_rows(cs)]

    def is_idempotent(self, c: Sequence) -> bool:
        # c = cs / d is idempotent when the kernel's d * s * c^2 is s * cs
        (cs,), den = _cleared_vectors(self, c)
        return self._product(cs, cs) == [den * self._den * v for v in cs]

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
        for slot, value in zip(self.__slots__, (idempotent, char_poly, eigenvalues, eigenbases, residual, semisimple)):
            _set(self, slot, value)

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
    mk = [list(row) for row in a]
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


def _char_poly_ints(a: Sequence[Sequence[int]], d: int) -> Poly1:
    """det(tI - A/d) for an int matrix A and an int d > 0 by Faddeev-LeVerrier on A:
    det(tI - A/d) = d^-n det(d t I - A), so its t^e coefficient is that of A over d^(n-e)."""
    n, coeffs = len(a), _faddeev_leverrier(a)
    return _make(Poly1.VARS, {(e,): c * d**e for e, c in enumerate(coeffs) if c}, d**n)


def null_space(m: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis of the kernel of an int matrix, by fraction-free Gauss-Jordan elimination.

    A pivot step replaces row i by pv * row_i - f * pivot_row and divides it
    by the gcd of its entries, so entries stay small and each row ends as its
    row of the reduced row echelon form times a nonzero int: the basis read
    off is the one Gauss-Jordan over Fractions gives.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    a = list(m)
    pivots: list[int] = []
    for col in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        pv = prow[col]
        for i in range(n_rows):
            f = a[i][col]
            if i != r and f:
                row = [pv * v - f * w for v, w in zip(a[i], prow)]
                g = gcd(*row)
                a[i] = [v // g for v in row] if g > 1 else row
        pivots.append(col)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for row, pc in zip(a, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


# --- spectral analysis --------------------------------------------------------


def char_poly(algebra: StructureAlgebra, c: Sequence) -> Poly1:
    (cs,), den = _cleared_vectors(algebra, c)
    return _char_poly_ints(algebra._operator_rows(cs), den * algebra._den)


def _peirce_operator(algebra: StructureAlgebra, c: Sequence) -> tuple[Vector, int, list, Poly1]:
    """c, s, the int rows of A = s * L_c and chi(L_c), for a nonzero idempotent c."""
    c = _vec(c)
    (cs,), den = _cleared_vectors(algebra, c)
    s = den * algebra._den
    if not any(cs) or algebra._product(cs, cs) != [s * v for v in cs]:
        raise ValueError("eigen decomposition requires a nonzero idempotent")
    a = algebra._operator_rows(cs)
    return c, s, a, _char_poly_ints(a, s)


def eigen_decomposition(algebra: StructureAlgebra, c: Sequence) -> PeirceDecomposition:
    c, s, a, cp = _peirce_operator(algebra, c)
    roots, residual = rational_roots(cp)
    eigenbases: dict[Fraction, tuple[Vector, ...]] = {}
    for lam, _mult in roots:
        # q * A - p * s * I = q * s * (L_c - lam) for lam = p/q, in ints
        p, q = lam.numerator, lam.denominator
        shifted = [[q * v for v in row] for row in a]
        for i, row in enumerate(shifted):
            row[i] -= p * s
        eigenbases[lam] = tuple(null_space(shifted))
    return PeirceDecomposition(
        idempotent=c,
        char_poly=cp,
        eigenvalues=tuple(sorted(eigenbases)),
        eigenbases=eigenbases,
        residual=residual,
        semisimple=sum(map(len, eigenbases.values())) == algebra.dim,
    )


# --- monomial evaluation and linearization ------------------------------------


# One evaluator serves plain evaluation, both linearizations and the checks
# built on them: Taylor-mode differentiation over the monomial DAG.  A jet is
# the list of coefficients of a truncated polynomial in infinitesimals, in
# the key order of _jet_schedule, with None for an absent (zero) one; the
# leaf x + eps*y mod eps^2 is [x, y].  A list of vectors that do not
# interact, as verify_identity's trials, is a jet on the diagonal schedule
# (t, t, t).
#
# Jets hold ints.  The leaf vectors are scaled by one common L to ints, and
# the kernel returns D = algebra._den times each product, so every
# coefficient of a node of degree d is its true value times _jet_scale(L, d)
# = L^d * D^(d-1): a monomial is homogeneous.  Callers divide once at the end.


def _jet_scale(algebra: StructureAlgebra, den: int, degree: int) -> int:
    return den**degree * algebra._den ** (degree - 1)


def _jet_schedule(groups: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Triples (i, j, k), one per split of key k into keys i + j: the product
    of jets a and b is out[k] = sum of a[i] b[j].  Each group (n, cap) adds n
    infinitesimals whose products of total order above cap vanish.  The keys
    run row-major over the groups, each by total order: key 0 is 1, and a
    group (n, 1) has its n infinitesimals at its places 1..n.
    """
    keys = [()]
    for n, cap in groups:
        part = [tuple(map(c.count, range(n)))
                for t in range(cap + 1) for c in itertools.combinations_with_replacement(range(n), t)]
        keys = [k + e for k in keys for e in part]
    index = {k: i for i, k in enumerate(keys)}
    return [(index[i], index[tuple(map(sub, k, i))], n)
            for n, k in enumerate(keys) for i in itertools.product(*(range(e + 1) for e in k))]


def _evaluate_jet(algebra: StructureAlgebra, m: Monomial, memo: dict, schedule) -> list:
    """Jet of m, given memo[atom()] = the leaf jet, of the keys of `schedule`.

    `memo` maps subtrees to their jets; evaluations of several monomials at
    the same leaf may share it.
    """

    def step(node, a, b):
        out = [None] * len(a)
        for i, j, k in schedule:
            if a[i] is not None and b[j] is not None:
                v = algebra._product(a[i], b[j])
                out[k] = v if out[k] is None else [s + t for s, t in zip(out[k], v)]
        return out

    return fold(m, memo, step)


def evaluate_monomial(algebra: StructureAlgebra, m: Monomial, x: Sequence) -> Vector:
    return linearize(algebra, m, 0, x, x)  # D^0(m; x, y) = m(x)


def linearize(
    algebra: StructureAlgebra, m: Monomial, k: int, x: Sequence, y: Sequence
) -> Vector:
    """D^k(m; x, y): the sum over all C(deg, k) labelings of k leaves by y and
    the rest by x, computed as the eps^k coefficient of m(x + eps*y)."""
    deg = m.degree
    if not 0 <= _integer(k, "order k") <= deg:
        raise ValueError(f"order k must be in 0..{deg}, got {k}")
    (xs, ys), den = _cleared_vectors(algebra, x, y)
    jet = _evaluate_jet(algebra, m, {atom(): ([xs, ys] + [None] * k)[: k + 1]}, _jet_schedule([(1, k)]))
    return _divided(jet[k], _jet_scale(algebra, den, deg))


def second_linearization(
    algebra: StructureAlgebra, m: Monomial, c: Sequence, x: Sequence, y: Sequence
) -> Vector:
    """Polarized D^2(m; c, x, y) = D^2(c, x+y) - D^2(c, x) - D^2(c, y),
    computed as the eps*delta coefficient of m(c + eps*x + delta*y)."""
    (cs, xs, ys), den = _cleared_vectors(algebra, c, x, y)
    jet = _evaluate_jet(algebra, m, {atom(): [cs, ys, xs, None]}, _jet_schedule([(1, 1), (1, 1)]))
    return _divided(jet[3] or [0] * algebra.dim, _jet_scale(algebra, den, m.degree))


def _operator_poly(algebra: StructureAlgebra, coeffs: list[int], cs: list[int], s: int,
                   vectors: list) -> tuple[list, int]:
    """f(L_c) applied to each int vector, over one common scale, by a
    homogeneous Horner pass through the product kernel.

    f = sum coeffs[k] t^k, with n = len(coeffs) - 1.  With c = cs/d and
    s = d * _den, the kernel applied to cs is A = s * L_c, and s^n * f(L_c) vs
    is sum coeffs[k] s^(n-k) A^k vs, all in ints; each is returned with s^n.
    The pass starts at coeffs[n] * vs, so it makes n kernel calls per vector.
    """
    if not coeffs:  # the zero polynomial
        return [[0] * algebra.dim for _ in vectors], 1
    *low, top = coeffs
    steps = [a * s ** (n + 1) for n, a in enumerate(reversed(low))]
    out = []
    for vs in vectors:
        acc = [top * u for u in vs]
        for a in steps:
            acc = [w + a * u for w, u in zip(algebra._product(cs, acc), vs)]
        out.append(acc)
    return out, s ** len(low)


def _roots_poly(nus: Sequence[Fraction]) -> list[int]:
    """Int coefficients, lowest first, of the product of q * t - p over nu = p/q."""
    coeffs = [1]
    for nu in nus:
        p, q = nu.numerator, nu.denominator
        coeffs = [q * b - p * a for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


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
    """Check D^1(m; c, e_j) == rho(m, L_c) e_j, each the eps_j coefficient of
    m(c + sum_j eps_j e_j), with the two sides cross-multiplied in ints."""
    n = algebra.dim
    (cs,), den = _cleared_vectors(algebra, c)
    units = [[den * (i == j) for i in range(n)] for j in range(n)]  # den * e_j
    jet = _evaluate_jet(algebra, m, {atom(): [cs, *units]}, _jet_schedule([(n, 1)]))
    rho = _cleared_coeffs(peirce_poly(m))[0]
    rhs, scale = _operator_poly(algebra, rho, cs, den * algebra._den, units)
    left, right = scale * den, _jet_scale(algebra, den, m.degree)
    failures = tuple(f"column {j}: D^1 != rho(L_c)"
                     for j in range(n) if [a * left for a in jet[j + 1]] != [b * right for b in rhs[j]])
    return VerificationReport(not failures, f"first linearization of {m}", failures)


def verify_second_linearization(
    algebra: StructureAlgebra,
    c: Sequence,
    m: Monomial,
    lam: Fraction,
    mu: Fraction,
    decomposition: PeirceDecomposition | None = None,
) -> VerificationReport:
    """Check D^2(m; c, x, y) == symbol(m)(lam, mu, L_c)(xy) on eigenbasis
    pairs, each D^2 the eps_p delta_q coefficient of m(c + sum_p eps_p x_p +
    sum_q delta_q y_q), as verify_first_linearization compares."""
    decomp = decomposition or eigen_decomposition(algebra, c)
    lam, mu = _rational(lam), _rational(mu)
    xs, ys = decomp.eigenbases.get(lam, ()), decomp.eigenbases.get(mu, ())
    if not (xs and ys):
        return VerificationReport(True, f"second linearization of {m}")
    (cs, *vs), den = _cleared_vectors(algebra, c, *xs, *ys)
    xs, ys, w = vs[: len(xs)], vs[len(xs) :], len(ys) + 1
    leaf = [cs, *ys] + [v for x in xs for v in [x] + [None] * len(ys)]  # x_p at (p + 1) * w
    jet = _evaluate_jet(algebra, m, {atom(): leaf}, _jet_schedule([(len(xs), 1), (len(ys), 1)]))
    sym_p, sym_scale = _symbol_at(peirce_symbol(m)._ints, lam, mu)  # sym_scale * symbol(m)(lam, mu, p)
    s = den * algebra._den
    rhs, scale = _operator_poly(algebra, sym_p, cs, s, [algebra._product(x, y) for x in xs for y in ys])
    # each xy is the kernel's s * den * (x y); eps_p delta_q is at (p + 1) * w + q + 1
    left = scale * s * den * sym_scale
    right, zero = _jet_scale(algebra, den, m.degree), [0] * algebra.dim
    lhs = [v or zero for k, v in enumerate(jet[w:]) if k % w]
    failures = tuple(f"pair in A_c({lam}) x A_c({mu}) fails for {m}"
                     for u, v in zip(lhs, rhs) if [a * left for a in u] != [b * right for b in v])
    return VerificationReport(not failures, f"second linearization of {m}", failures)


# A trial coordinate x = n / d, n in -9..9 and d in 1..4, as the int 12 * x:
# one entry per pair (n, d), so a uniform choice draws n and d uniformly.
_TRIAL_VALUES = tuple(n * (12 // d) for n in range(-9, 10) for d in range(1, 5))

# Trials per block of verify_identity.  A block's vectors are evaluated
# together, so its memory is O(block * nodes * dim) for any number of trials.
_TRIAL_BLOCK = 64


def verify_identity(
    algebra: StructureAlgebra,
    identity: WeightedIdentity,
    trials: int = 50,
    seed: int = 0,
) -> VerificationReport:
    """Evaluate the identity at random rational vectors; all must vanish.

    Coordinate i of a trial vector is n_i / d_i, the pair (n_i, d_i) drawn
    uniformly from -9..9 x 1..4 by random.Random(seed).choices over
    _TRIAL_VALUES; the vector is taken as ints xs = 12 * x, 12 = lcm(1..4).
    The trials run in blocks of _TRIAL_BLOCK, each drawn by one choices call:
    one jet evaluation per monomial, on the diagonal schedule, evaluates it at
    every vector of a block, and each trial's P(x) is then summed in ints.
    """
    _integer(trials, "trials", 1)
    draw, dim = random.Random(seed).choices, algebra.dim

    # Term t at x is coeff.numerator * num(x) * value(x) / scale_t, with num(x)
    # the int numerator of its weight and value(x) its monomial's jet at
    # xs.  No scale depends on x, so each term's factor over their lcm is
    # computed once per call.
    scales = [Fraction(t.coeff).denominator * _jet_scale(algebra, 12, t.monomial.degree)
              * (algebra._omega_den * 12) ** t.weight.baric_exp
              * prod(algebra._form_den * 12 * _jet_scale(algebra, 12, m.degree) for m in t.weight.bilinear_args)
              for t in identity.terms]
    common = lcm(*scales)
    terms = [(Fraction(t.coeff).numerator * (common // tden), t.monomial, t.weight)
             for t, tden in zip(identity.terms, scales)]
    failures = []
    for start in range(0, trials, _TRIAL_BLOCK):
        xs = draw(_TRIAL_VALUES, k=min(_TRIAL_BLOCK, trials - start) * dim)
        block = [xs[t : t + dim] for t in range(0, len(xs), dim)]
        schedule = [(t, t, t) for t in range(len(block))]  # the trials do not interact
        memo = {atom(): block}  # shared by every term and weight of the block
        accs = [[0] * dim for _ in block]
        for factor, m, w in terms:
            nums = [factor] * len(block)
            if w.baric_exp:
                nums = [n * algebra._omega_of(x) ** w.baric_exp for n, x in zip(nums, block)]
            for arg in w.bilinear_args:
                nums = [n * algebra._b(x, y)
                        for n, x, y in zip(nums, block, _evaluate_jet(algebra, arg, memo, schedule))]
            accs = [[a + n * v for a, v in zip(acc, value)]
                    for acc, n, value in zip(accs, nums, _evaluate_jet(algebra, m, memo, schedule))]
        failures += [f"trial {start + i}: P(x) != 0" for i, acc in enumerate(accs) if any(acc)]
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
    square-free part of the residual divides rho.  Without a decomposition
    only chi(L_c) is computed: the eigenvalues are its rational roots.
    """
    rho = _cleared_coeffs(identity_peirce_poly(identity))[0]  # a positive multiple of rho
    if not rho:
        raise DegenerateIdentity("spectrum inclusion is vacuous for a degenerate identity")
    if decomposition is None:
        roots, residual = rational_roots(_peirce_operator(algebra, c)[3])
        eigenvalues = [lam for lam, _ in roots]
    else:
        eigenvalues, residual = decomposition.eigenvalues, decomposition.residual
    failures = []
    for lam in eigenvalues:
        if lam != 1 and _horner_hom(rho, lam.numerator, lam.denominator):
            failures.append(f"eigenvalue {format_rational(lam)} is not a root of rho_c(P, t)")
    # a primitive divisor divides in Q[t] exactly when it divides in Z[t]
    if residual.degree >= 1 and _divide_dense(rho, _primitive(_square_free(_cleared_coeffs(residual)[0]))) is None:
        failures.append(f"L_c has non-rational spectral factor {residual.render()}")
    return VerificationReport(not failures, "spectrum inclusion", tuple(failures))


def fusion_empirical(
    algebra: StructureAlgebra,
    c: Sequence,
    predicted,
    decomposition: PeirceDecomposition | None = None,
) -> VerificationReport:
    """Check each eigenbasis product xy against a predicted fusion table.

    xy lies in the sum of the A_c(nu) for nu in S exactly when the product of
    the (L_c - nu) over S kills it, that is when the product of the q * L_c - p
    over nu = p/q in S does; _operator_poly applies it to all of an eigenvalue
    pair's products in one call.  The products that fail are tested again for
    each nu outside S, over the other eigenvalues, to name their stray
    components.
    """
    decomp = decomposition or eigen_decomposition(algebra, c)
    if not decomp.semisimple:
        raise ValueError("empirical fusion check needs a semisimple decomposition")
    spectrum = decomp.eigenvalues
    (cs,), d = _cleared_vectors(algebra, c)
    s = d * algebra._den
    bases = {lam: _cleared_vectors(algebra, *decomp.eigenbases[lam])[0] for lam in spectrum}
    failures = [
        f"eigenvalue {format_rational(lam)} of L_c is outside the predicted spectrum"
        for lam in spectrum
        if lam not in predicted.spectrum
    ]
    known = [lam for lam in spectrum if lam in predicted.spectrum]
    for lam, mu in ((lam, mu) for lam in known for mu in known if mu >= lam):
        allowed = predicted.allowed(lam, mu)
        products = [algebra._product(x, y) for x in bases[lam] for y in bases[mu]]
        left = _operator_poly(algebra, _roots_poly([nu for nu in spectrum if nu in allowed]), cs, s, products)[0]
        stray = [xy for xy, v in zip(products, left) if any(v)]
        extras = [[] for _ in stray]
        for nu in spectrum:
            if stray and nu not in allowed:
                others = _roots_poly([o for o in spectrum if o != nu])
                for extra, v in zip(extras, _operator_poly(algebra, others, cs, s, stray)[0]):
                    if any(v):
                        extra.append(nu)
        shown = ", ".join(map(format_rational, sorted(allowed)))
        failures += [f"A_c({lam}) * A_c({mu}) has components at {', '.join(map(format_rational, extra))}"
                     f" outside the allowed {{{shown}}}" for extra in extras]
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
    _integer(n, "n", 2)
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
    dim = _integer(d, "d", 2) + 1
    e = tuple(tuple(Fraction(int(i == k)) for i in range(dim)) for k in range(dim))
    # e_0 is the unit, and e_i e_j = delta_ij e_0 for i, j >= 1
    structure = tuple(tuple(e[i + j] if not (i and j) else e[0] if i == j else (Fraction(0),) * dim
                            for j in range(dim)) for i in range(dim))
    # besides the unit, the idempotent c = (e_0 + e_1)/2
    c = tuple(Fraction(1, 2) if i in (0, 1) else Fraction(0) for i in range(dim))
    return StructureAlgebra(dim=dim, structure=structure, bilinear_form=e, idempotents=(e[0], c),
                            name=f"spin_factor{d}")


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


def _rationals_from_json(value, field: str, depth: int, memo: dict) -> tuple:
    """`depth` levels of nested JSON lists of rational literals, as tuples.

    A JSON string is iterable, so each level must be checked to be a list.
    `memo` maps each string parsed so far to its value.
    """
    if not isinstance(value, list):
        raise TypeError(f"{field} must be a JSON list, got {json.dumps(value)}")
    if depth == 1:
        return tuple(memo[v] if isinstance(v, str) and v in memo else memo.setdefault(v, parse_rational(v))
                     for v in value)
    return tuple(_rationals_from_json(v, f"{field}[{i}]", depth - 1, memo) for i, v in enumerate(value))


def algebra_from_json(obj: Mapping | str) -> StructureAlgebra:
    """The algebra a wire-format object holds, or its JSON text.

    A missing field raises KeyError, and a value of the wrong JSON type
    TypeError.  Text that is not JSON or a number raises json.JSONDecodeError
    or RationalSyntaxError.  An algebra that breaks a rule raises ValueError:
    a dim below 1, a field of the wrong length, structure constants that do
    not commute, or a form that is not symmetric or not associating.
    """
    obj = _json_object(obj)
    dim = _json_int(_field(obj, "dim", "the top-level object"), "dim")
    name = _json_name(obj, "")
    # null means absent; an empty list goes on to the length checks
    form, weight, memo = obj.get("bilinear_form"), obj.get("weight"), {}
    return StructureAlgebra(
        dim=dim,
        structure=_rationals_from_json(_field(obj, "structure", "the top-level object"), "structure", 3, memo),
        bilinear_form=None if form is None else _rationals_from_json(form, "bilinear_form", 2, memo),
        weight=None if weight is None else _rationals_from_json(weight, "weight", 1, memo),
        idempotents=_rationals_from_json(obj.get("idempotents", []), "idempotents", 2, memo),
        name=name,
    )
