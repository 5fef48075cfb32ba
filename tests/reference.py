"""Reference implementations: every definition the tests check against, once.

Each function computes by the definition, in exact arithmetic on plain data:
polynomials as {exponent tuple: int or Fraction} dicts in a `Poly`, vectors
as tuples and matrices as lists of rows.  Nothing here imports a peirce_lab
module at module level: importing any of them loads the whole package.
Library objects are read only through public attributes: a monomial's .left
and .right, an algebra's .structure, a polynomial's .vars and .coeffs, an
identity's .terms with their .coeff and .monomial.
"""

from fractions import Fraction
from math import isqrt, lcm, prod
from operator import add, itemgetter

T = ("t",)
ABP = ("a", "b", "p")
ONE, HALF = Fraction(1), Fraction(1, 2)


class InexactDivision(ArithmeticError):
    """Long division left a nonzero remainder."""


class Poly:
    """A polynomial in `vars` as `coeffs`, {exponent tuple: nonzero int or
    Fraction}; ints stay ints, which keeps the sums of rho and Y fast.  It
    equals any polynomial with the same vars and coeffs, a library one too."""

    def __init__(self, vars, coeffs=None):
        self.vars = tuple(vars)
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c}

    def __eq__(self, other):
        if not hasattr(other, "coeffs"):
            return NotImplemented
        return self.vars == tuple(other.vars) and self.coeffs == other.coeffs

    def _collect(self, terms, vars=None):
        out = {}
        for k, c in terms:
            out[k] = out.get(k, 0) + c
        return Poly(vars or self.vars, out)

    def _terms(self, other):
        return other.coeffs if isinstance(other, Poly) else {(0,) * len(self.vars): other}

    def __add__(self, other):
        return self._collect([*self.coeffs.items(), *self._terms(other).items()])

    def __mul__(self, other):
        terms = self._terms(other).items()
        return self._collect((tuple(map(add, k1, k2)), c1 * c2) for k1, c1 in self.coeffs.items() for k2, c2 in terms)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other

    def __pow__(self, n):
        return prod([self] * n, start=Poly(self.vars, {(0,) * len(self.vars): 1}))

    def __call__(self, *args):
        """The value at one Fraction or one polynomial per variable."""
        zero = next((x * 0 for x in args if isinstance(x, Poly)), Fraction(0))
        return sum((prod((x**e for x, e in zip(args, k) if e), start=c) for k, c in self.coeffs.items()), zero)

    def substitute(self, name, value):
        i = self.vars.index(name)
        return self._collect((k[:i] + (0,) + k[i + 1 :], c * Fraction(value) ** k[i]) for k, c in self.coeffs.items())

    def derivative(self, name):
        i = self.vars.index(name)
        return Poly(self.vars, {k[:i] + (k[i] - 1,) + k[i + 1 :]: c * k[i] for k, c in self.coeffs.items() if k[i]})

    def change_vars(self, vars, names):
        """The polynomial with each variable v renamed to names[v], in `vars`."""
        vars = tuple(vars)

        def renamed(k):
            key = [0] * len(vars)
            for v, e in zip(self.vars, k):
                if e:
                    key[vars.index(names[v])] += e
            return tuple(key)

        return self._collect(((renamed(k), c) for k, c in self.coeffs.items()), vars)

    def render(self):
        """Terms by descending exponent of the last variable, then of the
        others in order: "2*t^3 - 3*t^2 + t", "4*p + 8*a*b"."""
        out = ""
        for k in sorted(self.coeffs, key=lambda k: k[-1:] + k[:-1], reverse=True):
            c = self.coeffs[k]
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, k) if e)
            if abs(c) != 1 or not body:
                body = f"{abs(c)}*{body}" if body else str(abs(c))
            out += (" - " if c < 0 else " + ") + body if out else ("-" if c < 0 else "") + body
        return out or "0"


# --- Peirce polynomials and symbols --------------------------------------------


def _fold(m, leaf, step, memo):
    """step(value(left), value(right)) at each product node of m, once per
    distinct node, the atom z worth `leaf`."""
    if m.left is None:
        return leaf
    if m not in memo:
        memo[m] = step(_fold(m.left, leaf, step, memo), _fold(m.right, leaf, step, memo))
    return memo[m]


def rho(m):
    """The Peirce polynomial: rho(z) = 1 and rho(m1 m2) = t (rho(m1) + rho(m2))."""
    t = Poly(T, {(1,): 1})
    return _fold(m, Poly(T, {(0,): 1}), lambda r1, r2: t * (r1 + r2), {})


def symbol(m):
    """The Peirce symbol: Y(z) = 0 and Y(m1 m2) = p (Y(m1) + Y(m2))
    + rho(m1)(a) rho(m2)(b) + rho(m1)(b) rho(m2)(a)."""
    t, p = Poly(T, {(1,): 1}), Poly(ABP, {(0, 0, 1): 1})

    def step(left, right):
        (r1, y1), (r2, y2) = left, right
        a1, b1, a2, b2 = (r.change_vars(ABP, {"t": v}) for r in (r1, r2) for v in "ab")
        return t * (r1 + r2), p * (y1 + y2) + a1 * b2 + b1 * a2

    return _fold(m, (Poly(T, {(0,): 1}), Poly(ABP)), step, {})[1]


def symbol_slice(m, lam, mu):
    """Y(m)(lam, mu, t)."""
    return symbol(m).substitute("a", lam).substitute("b", mu).change_vars(T, {"p": "t"})


def identity_rho(identity):
    """The sum of coeff * rho(monomial) over the terms of the identity."""
    return sum((rho(term.monomial) * term.coeff for term in identity.terms), Poly(T))


def identity_symbol(identity):
    """The sum of coeff * Y(monomial) over the terms of the identity."""
    return sum((symbol(term.monomial) * term.coeff for term in identity.terms), Poly(ABP))


def random_monomial(degree, rng):
    """A monomial of the given degree, each product node split at rng.randint."""
    from peirce_lab.magma import atom, product  # importing peirce_lab loads every module

    if degree == 1:
        return atom()
    split = rng.randint(1, degree - 1)
    return product(random_monomial(split, rng), random_monomial(degree - split, rng))


def train_gammas(roots):
    """The coefficients of (t - 1) prod (t - r), leading first: the gammas of
    the train identity with the roots 1 and `roots`."""
    gamma = [ONE, -ONE]
    for r in roots:
        gamma = [a - b * r for a, b in zip(gamma + [0], [0] + gamma)]
    return gamma


# --- division, rational roots and fusion tables ---------------------------------


def divide_exact(f, g, name):
    """f / g by long division in `name`, or InexactDivision."""
    i = f.vars.index(name)
    lead = max(g.coeffs, key=itemgetter(i))
    rem, out = dict(f.coeffs), {}
    while rem:
        top = max(rem, key=itemgetter(i))
        if top[i] < lead[i]:
            raise InexactDivision(f"{g.render()} does not divide {f.render()}")
        shift = top[:i] + (top[i] - lead[i],) + top[i + 1 :]
        c = out[shift] = Fraction(rem[top]) / g.coeffs[lead]
        for gk, gc in g.coeffs.items():
            k = tuple(map(add, shift, gk))
            rem[k] = rem.get(k, 0) - c * gc
            if not rem[k]:
                del rem[k]
    return Poly(f.vars, out)


def divided_difference(f, x):
    """(f(p) - f(x)) / (p - x) for f in t, x a Fraction or a polynomial in a, b, p."""
    f, p = Poly(T, f.coeffs), Poly(ABP, {(0, 0, 1): 1})
    return divide_exact(f(p) - f(x), p - x, "p")


def divide_out_roots(f, candidates):
    """The candidates r with f(r) = 0, in increasing order, each with its
    multiplicity m, and the residual f / prod (t - r)^m."""
    roots, residual = [], Poly(T, f.coeffs)
    for r in sorted(set(candidates)):
        m = 0
        while residual(r) == 0:
            residual, m = divide_exact(residual, Poly(T, {(1,): 1, (0,): -r}), "t"), m + 1
        roots += [(r, m)] if m else []
    return roots, residual


def rational_roots(f):
    """The rational roots of f in t with multiplicities, and the residual.

    With f cleared to integers a_k t^k + ... + a_n t^n, a_k != 0 != a_n, a
    rational root other than 0 is +-u/v with u | a_k and v | a_n.
    """
    if not f.coeffs:
        raise ValueError("the zero polynomial has no well-defined root set")
    den = lcm(*(c.denominator for c in f.coeffs.values()))
    low, top = (abs(f.coeffs[k] * den).numerator for k in (min(f.coeffs), max(f.coeffs)))
    divisors = [{d for k in range(1, isqrt(n) + 1) if not n % k for d in (k, n // k)} for n in (low, top)]
    candidates = {Fraction(s * u, v) for u in divisors[0] for v in divisors[1] for s in (1, -1)}
    return divide_out_roots(f, candidates | {Fraction(0)})


def zero_grid(y, values):
    """{(lam, mu): the nu in values with Y(lam, mu, nu) = 0} for lam <= mu in values."""
    y, values = Poly(ABP, y.coeffs), sorted(values)
    pairs = [(lam, mu) for i, lam in enumerate(values) for mu in values[i:]]
    return {(lam, mu): {nu for nu in values if y(lam, mu, nu) == 0} for lam, mu in pairs}


def fusion_table(identity, mode):
    """(spectrum, entries) of the fusion table: the spectrum is 1 and the
    roots of rho; A(lam) * A(mu) lies where the zeros of Y(lam, mu, .) and
    the rules of the mode, "generic" or "metrized_orthogonal", allow."""
    assert mode in ("generic", "metrized_orthogonal"), mode
    mult = dict(rational_roots(identity_rho(identity))[0])
    spectrum = tuple(sorted(set(mult) | {ONE}))
    entries = {}
    for (lam, mu), zeros in zero_grid(identity_symbol(identity), spectrum).items():
        if mode == "generic":
            allowed = zeros | {ONE, lam, mu}
            for simple, other in ((lam, mu), (mu, lam)):
                if other == HALF and mult.get(simple) == 1:
                    allowed.discard(simple)
        elif ONE in (lam, mu):
            allowed = {mu if lam == ONE else lam}
        else:
            allowed = zeros | {ONE} if lam == mu else zeros
        entries[lam, mu] = frozenset(allowed)
    return spectrum, entries


# --- vectors and matrices --------------------------------------------------------


def product(structure, x, y):
    """x y = sum of x_i y_j e_i e_j, with e_i e_j = structure[i][j]."""
    out = [Fraction(0)] * len(structure)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, c in enumerate(structure[i][j]):
                    if c:
                        out[k] += xi * yj * c
    return tuple(out)


def jet(structure, m, leaf, caps=()):
    """m at a sum of vectors times infinitesimals: `leaf` and the result are
    {exponents of the infinitesimals: vector}, products kept within `caps`."""

    def step(left, right):
        out = {}
        for e1, v1 in left.items():
            for e2, v2 in right.items():
                e = tuple(map(add, e1, e2))
                if all(i <= cap for i, cap in zip(e, caps)):
                    v = product(structure, v1, v2)
                    out[e] = tuple(map(add, out[e], v)) if e in out else v
        return out

    return _fold(m, leaf, step, {})


def mult_matrix(structure, c):
    """L_c: column j is c e_j."""
    n = len(structure)
    return [list(row) for row in zip(*(product(structure, c, [int(i == j) for i in range(n)]) for j in range(n)))]


def mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def poly_at(f, m, v):
    """f(M) v for f in t, by Horner's scheme on vectors."""
    acc = [Fraction(0)] * len(v)
    for e in range(max((k[0] for k in f.coeffs), default=-1), -1, -1):
        c = f.coeffs.get((e,), 0)
        acc = [sum((a * b for a, b in zip(row, acc)), Fraction(0)) + c * x for row, x in zip(m, v)]
    return tuple(acc)


def row_reduce(m):
    """The reduced row echelon form of m and its pivot columns, by Gauss-Jordan."""
    a = [[Fraction(v) for v in row] for row in m]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [v / a[r][col] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                a[i] = [v - a[i][col] * w for v, w in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def null_space(m):
    """A kernel basis of m: each free column of the reduced form gives the
    vector with 1 there and 0 at the other free columns."""
    reduced, pivots = row_reduce(m)
    basis = []
    for free in (c for c in range(len(m[0]) if m else 0) if c not in pivots):
        v = [Fraction(0)] * len(m[0])
        v[free] = ONE
        for row, col in zip(reduced, pivots):
            v[col] = -row[free]
        basis.append(tuple(v))
    return basis


def char_poly(m):
    """det(t - M) by Faddeev-LeVerrier: M_1 = M and c_(n-1) = -tr M, then
    M_k = M (M_(k-1) + c_(n-k+1)) and c_(n-k) = -tr(M_k) / k."""
    n = len(m)
    coeffs = {(n,): ONE}
    mk = [[Fraction(v) for v in row] for row in m]
    for k in range(1, n + 1):
        if k > 1:
            c = coeffs[(n - k + 1,)]
            mk = mat_mul(m, [[v + c * (i == j) for j, v in enumerate(row)] for i, row in enumerate(mk)])
        coeffs[(n - k,)] = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
    return Poly(T, coeffs)


def eigen_decomposition(structure, c):
    """The fields of the Peirce decomposition of L_c: chi, its rational roots
    as the eigenvalues, each eigenspace the null space of L_c - lam, and the
    residual of chi."""
    lc = mult_matrix(structure, c)
    chi = char_poly(lc)
    roots, residual = rational_roots(chi)
    bases = {lam: tuple(null_space([[v - lam * (i == j) for j, v in enumerate(row)] for i, row in enumerate(lc)]))
             for lam, _ in roots}
    return {"idempotent": tuple(map(Fraction, c)), "char_poly": chi, "eigenvalues": tuple(bases), "eigenbases": bases,
            "residual": residual, "semisimple": sum(map(len, bases.values())) == len(lc)}
