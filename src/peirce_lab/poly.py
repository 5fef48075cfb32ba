"""Exact sparse polynomials over the rationals.

`Poly` is a polynomial in the commuting variables `vars`, stored as
`coeffs: {exponent tuple: Fraction}`, so every operation is exact.  No
stored coefficient is ever zero.  `Poly1` (the variable t, for Peirce
polynomials) and `Poly3` (the variables a, b, p, for Peirce symbols) are
constructors of `Poly` that fix the variables.  `divide_exact` is the one
exact division: long division in one variable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter
from itertools import chain
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "Poly",
    "Poly1",
    "Poly3",
    "ExactDivisionError",
    "divide_exact",
    "rational_roots",
    "parse_rational",
    "format_rational",
]

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]


class ExactDivisionError(ArithmeticError):
    """A division expected to be exact left a nonzero remainder."""


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a plain integer string."""
    return Fraction(text.strip())


def format_rational(x: Scalar) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coeff_str(c: Fraction, var_part: str, first: bool) -> str:
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    if var_part and mag == 1:
        body = var_part
    elif var_part:
        body = f"{format_rational(mag)}*{var_part}"
    else:
        body = format_rational(mag)
    if first:
        return body if c > 0 else f"-{body}"
    return f" {sign} {body}"


def _make(vars: tuple[str, ...], coeffs: dict[Exponents, Fraction]) -> "Poly":
    """The polynomial with trusted coeffs (exponent tuples to nonzero
    Fractions); a Poly1 or a Poly3 when `vars` are theirs."""
    out = object.__new__(_CLASSES.get(vars, Poly))
    out.vars = vars
    out.coeffs = coeffs
    return out


def _collect(vars: tuple[str, ...], terms: Iterable[tuple[Exponents, Fraction]]) -> "Poly":
    """The sum of the (exponents, Fraction) terms; like terms are added."""
    out: dict[Exponents, Fraction] = {}
    for k, c in terms:
        out[k] = out[k] + c if k in out else c
    return _make(vars, {k: c for k, c in out.items() if c})


class Poly:
    """Sparse polynomial in the commuting variables `vars`, by default VARS.

    The constructor takes {exponents: coefficient}; with one variable an
    exponent may be a plain int.  `Poly1` and `Poly3` fix VARS, and the
    classmethods below build polynomials in them.
    """

    __slots__ = ("vars", "coeffs")
    VARS: tuple[str, ...] = ()

    def __init__(self, coeffs: Mapping | None = None, vars: Sequence[str] | None = None):
        self.vars = self.VARS if vars is None else tuple(vars)
        self.coeffs: dict[Exponents, Fraction] = {}
        for e, c in (coeffs or {}).items():
            key = (e,) if isinstance(e, int) else tuple(e)
            if len(key) != len(self.vars):
                raise ValueError(f"exponents {e!r} do not match the variables {self.vars}")
            c = Fraction(c)
            if c:
                self.coeffs[key] = c

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls({(0,) * len(cls.VARS): c})

    @classmethod
    def term(cls, exp: int | Exponents, coeff: Scalar = 1) -> "Poly":
        return cls({exp: coeff})

    @classmethod
    def var(cls, name: str) -> "Poly":
        if name not in cls.VARS:
            raise ValueError(f"{name!r} is not one of the variables {cls.VARS}")
        return cls({tuple(int(v == name) for v in cls.VARS): 1})

    def _index(self, name: str | None) -> int:
        if name is None and len(self.vars) == 1:
            return 0
        if name not in self.vars:
            raise ValueError(f"{name!r} is not one of the variables {self.vars}")
        return self.vars.index(name)

    def _coerce(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError(f"variables differ: {self.vars} and {other.vars}")
            return other
        if not isinstance(other, (int, Fraction)):
            raise TypeError(f"cannot combine a polynomial with {type(other).__name__}")
        return _make(self.vars, {(0,) * len(self.vars): Fraction(other)} if other else {})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Total degree, with the convention deg 0 = -1."""
        return max(map(sum, self.coeffs), default=-1)

    def coeff(self, exp: int | Exponents) -> Fraction:
        return self.coeffs.get(exp if isinstance(exp, tuple) else (exp,), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return getattr(other, "vars", self.vars) == self.vars and self._coerce(other).coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.coeffs.items())))

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        return _collect(self.vars, chain(self.coeffs.items(), self._coerce(other).coeffs.items()))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(self.vars, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self + -self._coerce(other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return -self + other

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return _make(self.vars, {k: c * other for k, c in self.coeffs.items()} if other else {})
        other = self._coerce(other).coeffs.items()
        return _collect(
            self.vars,
            ((tuple(map(add, k1, k2)), c1 * c2) for k1, c1 in self.coeffs.items() for k2, c2 in other),
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = self._coerce(1)
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, *args: "Poly | Scalar") -> "Poly | Fraction":
        """The value at one scalar or one polynomial per variable.

        It is a Fraction at scalars and a polynomial (in the variables of the
        arguments) at polynomials.
        """
        if len(args) != len(self.vars):
            raise TypeError(f"expected {len(self.vars)} arguments, got {len(args)}")
        args = [x if isinstance(x, Poly) else Fraction(x) for x in args]
        acc = next((x * 0 for x in args if isinstance(x, Poly)), Fraction(0))
        for k, c in self.coeffs.items():
            for x, e in zip(args, k):
                if e:
                    c = c * x**e
            acc = acc + c
        return acc

    def substitute(self, name: str, value: Scalar) -> "Poly":
        """Partial evaluation of one variable; the variables stay the same."""
        i = self._index(name)
        value = Fraction(value)
        return _collect(
            self.vars, ((k[:i] + (0,) + k[i + 1 :], c * value ** k[i]) for k, c in self.coeffs.items())
        )

    def derivative(self, name: str | None = None) -> "Poly":
        """Partial derivative; `name` may be left out with one variable."""
        i = self._index(name)
        return _make(
            self.vars,
            {k[:i] + (k[i] - 1,) + k[i + 1 :]: c * k[i] for k, c in self.coeffs.items() if k[i]},
        )

    def change_vars(self, vars: Sequence[str], names: Mapping[str, str]) -> "Poly":
        """The same polynomial with each variable v renamed to names[v], as a
        polynomial in `vars`.  A variable not renamed must not occur."""
        vars = tuple(vars)
        where = {v: vars.index(names[v]) for v in names}

        def renamed(k: Exponents) -> Exponents:
            key = [0] * len(vars)
            for v, e in zip(self.vars, k):
                if e:
                    if v not in where:
                        raise ValueError(f"polynomial involves {v!r}")
                    key[where[v]] += e
            return tuple(key)

        return _collect(vars, ((renamed(k), c) for k, c in self.coeffs.items()))

    def render(self) -> str:
        """Terms by descending exponent of the last variable, then of the
        others in order, e.g. "2*t^3 - 3*t^2 + t" or "4*p + 8*a*b"."""
        if self.is_zero:
            return "0"
        parts = []
        for i, k in enumerate(sorted(self.coeffs, key=lambda k: k[-1:] + k[:-1], reverse=True)):
            var = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, k) if e)
            parts.append(_coeff_str(self.coeffs[k], var, first=(i == 0)))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


class Poly1(Poly):
    """Polynomial in t."""

    __slots__ = ()
    VARS = ("t",)

    @classmethod
    def t(cls) -> "Poly1":
        return cls.var("t")

    def compose3(self, arg: "Poly3") -> "Poly3":
        """Substitute a Poly3 for t."""
        return self(arg)


class Poly3(Poly):
    """Polynomial in the commuting variables (a, b, p)."""

    __slots__ = ()
    VARS = ("a", "b", "p")

    @classmethod
    def from_poly1(cls, f: Poly1, name: str) -> "Poly3":
        return f.change_vars(cls.VARS, {"t": name})

    def swap_ab(self) -> "Poly3":
        return self.change_vars(self.vars, {"a": "b", "b": "a", "p": "p"})

    def as_poly1(self, name: str) -> Poly1:
        """Project onto a single variable; other exponents must be zero."""
        return self.change_vars(Poly1.VARS, {name: "t"})

    def div_linear(self, name: str, shift: "Poly3 | Scalar") -> "Poly3":
        """Exact division by (name - shift) where shift does not involve name."""
        return divide_exact(self, self.var(name) - shift, name)


_CLASSES = {Poly1.VARS: Poly1, Poly3.VARS: Poly3}


def divide_exact(f: Poly, g: Poly, name: str = "t") -> Poly:
    """Quotient f/g when g divides f exactly, by long division in `name`.

    The leading coefficient of g in `name` must be a constant, so the
    remainder is unique; a nonzero one raises ExactDivisionError.
    """
    g = f._coerce(g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    i = f._index(name)
    by_degree = itemgetter(i)
    lead = max(g.coeffs, key=by_degree)
    if sum(lead) != lead[i] or sum(k[i] == lead[i] for k in g.coeffs) > 1:
        raise ValueError(f"the leading coefficient of the divisor in {name!r} is not a constant")
    glead = g.coeffs[lead]
    rem = dict(f.coeffs)
    out: dict[Exponents, Fraction] = {}
    while rem:
        top = max(rem, key=by_degree)
        if top[i] < lead[i]:
            raise ExactDivisionError("nonzero remainder in exact division")
        shift = top[:i] + (top[i] - lead[i],) + top[i + 1 :]
        c = out[shift] = rem[top] / glead
        for gk, gc in g.coeffs.items():
            k = tuple(map(add, shift, gk))
            s = rem.get(k, 0) - c * gc
            if s:
                rem[k] = s
            else:
                del rem[k]
    return _make(f.vars, out)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _cleared_coeffs(f: Poly1) -> tuple[list[int], int]:
    """Dense integer coefficients of f, lowest degree first, and the least
    den > 0 with f = (1/den) * sum ints[e] * t^e."""
    den = lcm(*(c.denominator for c in f.coeffs.values()))
    out = [0] * (f.degree + 1)
    for (e,), c in f.coeffs.items():
        out[e] = c.numerator * (den // c.denominator)
    return out, den


def _integer_coeffs(f: Poly1) -> list[int]:
    """Dense primitive integer coefficients of a nonzero f, lowest degree first.

    They are f times a nonzero rational, so they have the same roots as f.
    """
    out, _ = _cleared_coeffs(f)
    g = gcd(*out)
    return [c // g for c in out]


def _horner_hom(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^n * f(p/q) for f = sum coeffs[e] * t^e, n = len(coeffs) - 1, q > 0.

    Homogeneous Horner in integers: zero exactly when f(p/q) is zero.
    """
    acc = 0
    qpow = 1
    for c in reversed(coeffs):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def _symbol_zero_grid(
    y: Poly3, values: Sequence[Fraction]
) -> dict[tuple[Fraction, Fraction], set[Fraction]]:
    """{(lam, mu): {nu in values : y(lam, mu, nu) == 0}} for every pair with
    lam at or before mu in `values`.

    y is scaled to integer coefficients and each variable is homogenized with
    the denominator of the value put in for it, so a is substituted once per
    lam, b once per pair, and each nu is one integer Horner pass.
    """
    fracs = [(v.numerator, v.denominator) for v in values]
    den = lcm(*(c.denominator for c in y.coeffs.values()))
    da, db, dp = (max((k[i] for k in y.coeffs), default=0) for i in range(3))
    # dense a-coefficients of the b^eb * p^ep part of den * y
    by_bp: dict[tuple[int, int], list[int]] = {}
    for (ea, eb, ep), c in y.coeffs.items():
        by_bp.setdefault((eb, ep), [0] * (da + 1))[ea] = c.numerator * (den // c.denominator)
    grid: dict[tuple[Fraction, Fraction], set[Fraction]] = {}
    for i, (pa, qa) in enumerate(fracs):
        # dense b-coefficients of the p^ep part, a substituted
        at_a: dict[int, list[int]] = {}
        for (eb, ep), coeffs in by_bp.items():
            at_a.setdefault(ep, [0] * (db + 1))[eb] = _horner_hom(coeffs, pa, qa)
        for j in range(i, len(values)):
            pb, qb = fracs[j]
            at_ab = [0] * (dp + 1)
            for ep, coeffs in at_a.items():
                at_ab[ep] = _horner_hom(coeffs, pb, qb)
            grid[(values[i], values[j])] = {
                nu for nu, (pn, qn) in zip(values, fracs) if _horner_hom(at_ab, pn, qn) == 0
            }
    return grid


def rational_roots(f: Poly1) -> tuple[list[tuple[Fraction, int]], Poly1]:
    """All rational roots with multiplicities, plus the rootless residual.

    The residual times the product of the (t - r)^m factors reproduces f.
    Each candidate p/q of the rational root theorem is tested in integers by
    `_horner_hom`; a Fraction is built only for a root.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no well-defined root set")
    roots: list[tuple[Fraction, int]] = []

    # Root at zero first.
    (k,) = min(f.coeffs)
    if k > 0:
        roots.append((Fraction(0), k))
        f = _make(f.vars, {(e - k,): c for (e,), c in f.coeffs.items()})

    if f.degree >= 1:
        ints = _integer_coeffs(f)
        dens = _divisors(ints[-1])
        candidates = (
            (p, q)
            for num in _divisors(ints[0])
            for q in dens
            if gcd(num, q) == 1
            for p in (num, -num)
        )
        for p, q in candidates:
            mult = 0
            while len(ints) > 1 and _horner_hom(ints, p, q) == 0:
                f = divide_exact(f, Poly1({1: 1, 0: Fraction(-p, q)}))
                ints = _integer_coeffs(f)
                mult += 1
            if mult:
                roots.append((Fraction(p, q), mult))
            if len(ints) < 2:
                break

    roots.sort(key=lambda rm: rm[0])
    return roots, f
