"""Exact sparse polynomials over the rationals.

Poly1 is univariate in t; Poly3 is in the three commuting variables
(a, b, p).  Coefficients are `fractions.Fraction`, so every operation is
exact.  No stored coefficient is ever zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence, Union

__all__ = [
    "Poly1",
    "Poly3",
    "ExactDivisionError",
    "divide_exact",
    "rational_roots",
    "parse_rational",
    "format_rational",
]

Scalar = Union[int, Fraction]


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


class Poly1:
    """Sparse univariate polynomial in t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[e] = c

    @classmethod
    def zero(cls) -> "Poly1":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "Poly1":
        return cls({0: c})

    @classmethod
    def term(cls, exp: int, coeff: Scalar = 1) -> "Poly1":
        return cls({exp: coeff})

    @classmethod
    def t(cls) -> "Poly1":
        return cls({1: 1})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, exp: int) -> Fraction:
        return self.coeffs.get(exp, Fraction(0))

    def leading(self) -> Fraction:
        return self.coeffs[self.degree]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly1):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly1.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "Poly1 | Scalar") -> "Poly1":
        if isinstance(other, (int, Fraction)):
            other = Poly1.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly1(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly1":
        return Poly1({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Poly1 | Scalar") -> "Poly1":
        if isinstance(other, (int, Fraction)):
            other = Poly1.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly1":
        return Poly1.const(other) - self

    def __mul__(self, other: "Poly1 | Scalar") -> "Poly1":
        if isinstance(other, (int, Fraction)):
            return Poly1({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly1(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly1":
        if n < 0:
            raise ValueError("negative power")
        out = Poly1.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x: Scalar) -> Fraction:
        """Horner's rule over the stored exponents, highest first."""
        if not self.coeffs:
            return Fraction(0)
        x = Fraction(x)
        acc, prev = Fraction(0), self.degree
        for e in sorted(self.coeffs, reverse=True):
            acc = acc * x ** (prev - e) + self.coeffs[e]
            prev = e
        return acc * x**prev

    def derivative(self) -> "Poly1":
        return Poly1({e - 1: c * e for e, c in self.coeffs.items() if e >= 1})

    def compose3(self, arg: "Poly3") -> "Poly3":
        """Substitute a Poly3 for t."""
        out = Poly3.zero()
        for e, c in self.coeffs.items():
            out = out + arg**e * c
        return out

    def render(self) -> str:
        """Descending exponents, e.g. "2*t^3 - 3*t^2 + t"."""
        if self.is_zero:
            return "0"
        parts = []
        for i, e in enumerate(sorted(self.coeffs, reverse=True)):
            var = "t" if e == 1 else (f"t^{e}" if e else "")
            parts.append(_coeff_str(self.coeffs[e], var, first=(i == 0)))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly1({self.render()})"


VARS3 = ("a", "b", "p")
_VAR_INDEX = {v: i for i, v in enumerate(VARS3)}

Key3 = tuple[int, int, int]


class Poly3:
    """Sparse polynomial in the commuting variables (a, b, p)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Key3, Scalar] | None = None):
        self.coeffs: dict[Key3, Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[k] = c

    @classmethod
    def zero(cls) -> "Poly3":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "Poly3":
        return cls({(0, 0, 0): c})

    @classmethod
    def var(cls, name: str) -> "Poly3":
        key = [0, 0, 0]
        key[_VAR_INDEX[name]] = 1
        return cls({tuple(key): 1})

    @classmethod
    def from_poly1(cls, f: Poly1, name: str) -> "Poly3":
        i = _VAR_INDEX[name]
        out: dict[Key3, Fraction] = {}
        for e, c in f.coeffs.items():
            key = [0, 0, 0]
            key[i] = e
            out[tuple(key)] = c
        return cls(out)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly3):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly3.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "Poly3 | Scalar") -> "Poly3":
        if isinstance(other, (int, Fraction)):
            other = Poly3.const(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Poly3(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly3":
        return Poly3({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "Poly3 | Scalar") -> "Poly3":
        if isinstance(other, (int, Fraction)):
            other = Poly3.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly3":
        return Poly3.const(other) - self

    def __mul__(self, other: "Poly3 | Scalar") -> "Poly3":
        if isinstance(other, (int, Fraction)):
            return Poly3({k: c * other for k, c in self.coeffs.items()})
        out: dict[Key3, Fraction] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return Poly3(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly3":
        if n < 0:
            raise ValueError("negative power")
        out = Poly3.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, a: Scalar, b: Scalar, p: Scalar) -> Fraction:
        vals = (Fraction(a), Fraction(b), Fraction(p))
        acc = Fraction(0)
        for k, c in self.coeffs.items():
            term = c
            for v, e in zip(vals, k):
                if e:
                    term *= v**e
            acc += term
        return acc

    def substitute(self, name: str, value: Scalar) -> "Poly3":
        """Partial evaluation of one variable."""
        i = _VAR_INDEX[name]
        value = Fraction(value)
        out: dict[Key3, Fraction] = {}
        for k, c in self.coeffs.items():
            key = list(k)
            e, key[i] = k[i], 0
            key = tuple(key)
            out[key] = out.get(key, 0) + c * value**e
        return Poly3(out)

    def derivative(self, name: str) -> "Poly3":
        i = _VAR_INDEX[name]
        out: dict[Key3, Fraction] = {}
        for k, c in self.coeffs.items():
            if k[i] >= 1:
                key = list(k)
                key[i] = k[i] - 1
                out[tuple(key)] = c * k[i]
        return Poly3(out)

    def swap_ab(self) -> "Poly3":
        return Poly3({(kb, ka, kp): c for (ka, kb, kp), c in self.coeffs.items()})

    def as_poly1(self, name: str) -> Poly1:
        """Project onto a single variable; other exponents must be zero."""
        i = _VAR_INDEX[name]
        out: dict[int, Fraction] = {}
        for k, c in self.coeffs.items():
            if any(e and j != i for j, e in enumerate(k)):
                raise ValueError(f"polynomial involves more than {name!r}")
            out[k[i]] = c
        return Poly1(out)

    def div_linear(self, name: str, shift: "Poly3 | Scalar") -> "Poly3":
        """Exact division by (name - shift) where shift does not involve name."""
        if isinstance(shift, (int, Fraction)):
            shift = Poly3.const(shift)
        i = _VAR_INDEX[name]
        if any(k[i] for k in shift.coeffs):
            raise ValueError(f"shift must not involve {name!r}")
        # Collect coefficient layers in the chosen variable, then run Horner.
        layers: dict[int, Poly3] = {}
        for k, c in self.coeffs.items():
            key = list(k)
            e, key[i] = k[i], 0
            layers[e] = layers.get(e, Poly3.zero()) + Poly3({tuple(key): c})
        if not layers:
            return Poly3.zero()
        var_mono = Poly3.var(name)
        top = max(layers)
        quotient = Poly3.zero()
        carry = Poly3.zero()
        for e in range(top, 0, -1):
            carry = carry * shift + layers.get(e, Poly3.zero()) if e != top else layers[e]
            quotient = quotient + carry * var_mono ** (e - 1)
        remainder = carry * shift + layers.get(0, Poly3.zero())
        if not remainder.is_zero:
            raise ExactDivisionError(f"({name} - shift) does not divide exactly")
        return quotient

    def render(self) -> str:
        if self.is_zero:
            return "0"

        def sort_key(k: Key3):
            # p-degree first, then a, then b, descending
            return (k[2], k[0], k[1])

        parts = []
        for i, k in enumerate(sorted(self.coeffs, key=sort_key, reverse=True)):
            factors = []
            for v, e in zip(VARS3, k):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            parts.append(_coeff_str(self.coeffs[k], "*".join(factors), first=(i == 0)))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly3({self.render()})"


def divide_exact(f: Poly1, g: Poly1) -> Poly1:
    """Quotient f/g when g divides f exactly; raises ExactDivisionError otherwise."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = dict(f.coeffs)
    out: dict[int, Fraction] = {}
    gdeg, glead = g.degree, g.leading()
    while rem:
        rdeg = max(rem)
        if rdeg < gdeg:
            raise ExactDivisionError("nonzero remainder in exact division")
        e = rdeg - gdeg
        c = rem[rdeg] / glead
        out[e] = c
        for ge, gc in g.coeffs.items():
            k = ge + e
            s = rem.get(k, Fraction(0)) - c * gc
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return Poly1(out)


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


def _integer_coeffs(f: Poly1) -> list[int]:
    """Dense primitive integer coefficients of a nonzero f, lowest degree first.

    They are f times a nonzero rational, so they have the same roots as f.
    """
    den = lcm(*(c.denominator for c in f.coeffs.values()))
    out = [0] * (f.degree + 1)
    for e, c in f.coeffs.items():
        out[e] = c.numerator * (den // c.denominator)
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
    k = min(f.coeffs)
    if k > 0:
        roots.append((Fraction(0), k))
        f = Poly1({e - k: c for e, c in f.coeffs.items()})

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
            while f.degree >= 1 and _horner_hom(ints, p, q) == 0:
                f = divide_exact(f, Poly1({1: 1, 0: Fraction(-p, q)}))
                ints = _integer_coeffs(f)
                mult += 1
            if mult:
                roots.append((Fraction(p, q), mult))
            if f.degree < 1:
                break

    roots.sort(key=lambda rm: rm[0])
    return roots, f
