"""Exact sparse polynomials over the rationals.

`Poly` is a polynomial in the commuting variables `vars`, stored as nonzero
ints `_ints: {exponent tuple: int}` over one denominator `_den > 0` that
shares no factor with all of them; `coeffs` is a new Fraction dict on each
read.  `Poly1` (t, for Peirce polynomials) and `Poly3` (a, b, p, for Peirce
symbols) are constructors of `Poly` that fix the variables.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add
from itertools import chain

__all__ = [
    "Poly",
    "Poly1",
    "Poly3",
    "RationalSyntaxError",
    "rational_roots",
    "parse_rational",
    "format_rational",
]

Scalar = int | Fraction
Exponents = tuple[int, ...]


class RationalSyntaxError(ValueError):
    """Text that is not a rational number, has a zero denominator or is in exponent notation."""


def _refuse_exponent(text: str) -> str:
    """text, unless Fraction would read it in exponent notation: "1e50000000" has 166 million bits."""
    if re.fullmatch(r"\s*[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.\d*(?:_\d+)*)?e[-+]?\d+(?:_\d+)*\s*", text, re.I):
        raise RationalSyntaxError(f"exponent notation in {text!r}")
    return text


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a plain integer string."""
    if not isinstance(text, str):
        raise RationalSyntaxError(f"expected a rational number as a string, got {text!r}")
    try:
        return Fraction(_refuse_exponent(text).strip())
    except ValueError as exc:
        raise RationalSyntaxError(str(exc)) from None
    except ZeroDivisionError:
        raise RationalSyntaxError(f"zero denominator in {text!r}") from None


def _not_a_number(v: float | bool) -> TypeError:
    return TypeError(f"expected an int, a Fraction or text, not the {type(v).__name__} {v!r}")


def _rational(v: "str | Scalar") -> Fraction:
    """v as a Fraction, text read by parse_rational, which refuses exponent notation."""
    if isinstance(v, (float, bool)):  # Fraction(0.1) is 3602879701896397/2^55, and True is 1
        raise _not_a_number(v)
    return parse_rational(v) if isinstance(v, str) else Fraction(v)


def _integer(value, what: str, least: int | None = None) -> int:
    """value, an int that is not a bool (True would read as 1), and at least `least` if given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, not the {type(value).__name__} {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be nonnegative, got {value}" if least == 0
                         else f"{what} must be at least {least}, got {value}")
    return value


def format_rational(x: Scalar) -> str:
    num, den = x.numerator, x.denominator  # an int is num/1
    return str(num) if den == 1 else f"{num}/{den}"


def _coeff_str(c: Fraction, var_part: str, first: bool) -> str:
    body = format_rational(c).lstrip("-")
    if var_part:
        body = var_part if body == "1" else f"{body}*{var_part}"
    if first:
        return body if c.numerator > 0 else f"-{body}"
    return f" {'-' if c.numerator < 0 else '+'} {body}"


def _make(vars: tuple[str, ...], ints: dict[Exponents, int], den: int = 1) -> "Poly":
    """sum ints[k] * x^k / den for trusted nonzero ints and den > 0, their
    common factor divided out; a Poly1 or a Poly3 when `vars` are theirs."""
    g = gcd(den, *ints.values())
    if g > 1:
        ints, den = {k: c // g for k, c in ints.items()}, den // g
    out = object.__new__(_CLASSES.get(vars, Poly))
    out.vars, out._ints, out._den = vars, ints, den
    return out


def _collect(vars: tuple[str, ...], terms: Iterable[tuple[Exponents, Scalar]], den: int = 1) -> "Poly":
    """The sum of the (exponents, int or Fraction) terms over den, in ints."""
    out: dict[Exponents, Scalar] = {}
    for k, c in terms:
        out[k] = out[k] + c if k in out else c
    d = lcm(*(c.denominator for c in out.values()))
    return _make(vars, {k: c.numerator * (d // c.denominator) for k, c in out.items() if c}, den * d)


class Poly:
    """Sparse polynomial in the commuting variables `vars`, by default VARS.

    The constructor takes {exponents: coefficient}; with one variable an
    exponent may be a plain int.  `Poly1` and `Poly3` fix VARS, and the
    classmethods below build polynomials in them.
    """

    __slots__ = ("vars", "_ints", "_den")
    VARS: tuple[str, ...] = ()

    def __init__(self, coeffs: Mapping | None = None, vars: Sequence[str] | None = None):
        vars = self.VARS if vars is None else tuple(vars)
        terms = []
        for e, c in (coeffs or {}).items():
            # True would be t^1, and a str or a float a key that has no degree
            key = tuple(_integer(x, "an exponent", 0) for x in (e if isinstance(e, Iterable) else (e,)))
            if len(key) != len(vars):
                raise ValueError(f"exponents {e!r} do not match the variables {vars}")
            terms.append((key, _rational(c)))
        p = _collect(vars, terms)  # sums the terms of equal keys, e.g. 2 and (2,)
        self.vars, self._ints, self._den = vars, p._ints, p._den

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls({(0,) * len(cls.VARS): c})

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
        if isinstance(other, bool):  # True is not read as 1
            raise _not_a_number(other)
        return _make(self.vars, {(0,) * len(self.vars): other.numerator} if other else {}, other.denominator)

    @property
    def coeffs(self) -> dict[Exponents, Fraction]:
        """{exponents: nonzero Fraction}, a new dict on each read."""
        return {k: Fraction(c, self._den) for k, c in self._ints.items()}

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def degree(self) -> int:
        """Total degree, with the convention deg 0 = -1."""
        return max(map(sum, self._ints), default=-1)

    def coeff(self, exp: int | Exponents) -> Fraction:
        # (True,) and (1.0,) would find the key (1,)
        key = tuple(_integer(e, "an exponent", 0) for e in (exp if isinstance(exp, tuple) else (exp,)))
        return Fraction(self._ints.get(key, 0), self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            if other.vars != self.vars:  # constants equal their values, whatever the variables
                return other.degree < 1 and self == Fraction(sum(other._ints.values()), other._den)
            return other._den == self._den and other._ints == self._ints
        if isinstance(other, (int, Fraction)):  # True equals 1 here, as it equals Fraction(1)
            return self.degree < 1 and sum(self._ints.values()) == other * self._den
        return NotImplemented

    def __hash__(self) -> int:
        if self.degree < 1:  # a constant equals its value, so it hashes as that value
            return hash(Fraction(sum(self._ints.values()), self._den))
        return hash((self.vars, self._den, frozenset(self._ints.items())))

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        other = self._coerce(other)
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        terms = chain(((k, a * c) for k, c in self._ints.items()), ((k, b * c) for k, c in other._ints.items()))
        return _collect(self.vars, terms, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(self.vars, {k: -c for k, c in self._ints.items()}, self._den)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self + -self._coerce(other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return -self + other

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, bool):
            raise _not_a_number(other)
        if isinstance(other, (int, Fraction)):
            ints = {k: c * other.numerator for k, c in self._ints.items()} if other else {}
            return _make(self.vars, ints, self._den * other.denominator)
        other = self._coerce(other)
        return _collect(
            self.vars,
            ((tuple(map(add, k1, k2)), c1 * c2) for k1, c1 in self._ints.items() for k2, c2 in other._ints.items()),
            self._den * other._den,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        out = self._coerce(1)
        for _ in range(_integer(n, "an exponent", 0)):
            out = out * self
        return out

    def __call__(self, *args: "Poly | Scalar") -> "Poly | Fraction":
        """The value at one scalar or one polynomial per variable.

        It is a Fraction at scalars and a polynomial (in the variables of the
        arguments) at polynomials.
        """
        if len(args) != len(self.vars):
            raise TypeError(f"expected {len(self.vars)} arguments, got {len(args)}")
        args = [x if isinstance(x, Poly) else _rational(x) for x in args]
        acc = next((x * 0 for x in args if isinstance(x, Poly)), Fraction(0))
        for k, c in self._ints.items():
            for x, e in zip(args, k):
                if e:
                    c = c * x**e
            acc = acc + c
        return acc * Fraction(1, self._den)

    def substitute(self, name: str, value: Scalar) -> "Poly":
        """Partial evaluation of one variable; the variables stay the same."""
        i = self._index(name)
        value = _rational(value)
        return _collect(
            self.vars, ((k[:i] + (0,) + k[i + 1 :], c * value ** k[i]) for k, c in self._ints.items()), self._den
        )

    def derivative(self, name: str | None = None) -> "Poly":
        """Partial derivative; `name` may be left out with one variable."""
        i = self._index(name)
        ints = {k[:i] + (k[i] - 1,) + k[i + 1 :]: c * k[i] for k, c in self._ints.items() if k[i]}
        return _make(self.vars, ints, self._den)

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

        return _collect(vars, ((renamed(k), c) for k, c in self._ints.items()), self._den)

    def render(self) -> str:
        """Terms by descending exponent of the last variable, then of the
        others in order, e.g. "2*t^3 - 3*t^2 + t" or "4*p + 8*a*b"."""
        if self.is_zero:
            return "0"
        parts = []
        for i, k in enumerate(sorted(self._ints, key=lambda k: k[-1:] + k[:-1], reverse=True)):
            var = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, k) if e)
            parts.append(_coeff_str(Fraction(self._ints[k], self._den), var, first=(i == 0)))
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


class Poly3(Poly):
    """Polynomial in the commuting variables (a, b, p)."""

    __slots__ = ()
    VARS = ("a", "b", "p")


_CLASSES = {Poly1.VARS: Poly1, Poly3.VARS: Poly3}


def _cleared_coeffs(f: Poly1) -> tuple[list[int], int]:
    """Dense integer coefficients of f, lowest degree first, and the least
    den > 0 with f = (1/den) * sum ints[e] * t^e: the stored ones."""
    out = [0] * (f.degree + 1)
    for (e,), c in f._ints.items():
        out[e] = c
    return out, f._den


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


# --- rational roots ----------------------------------------------------------
#
# Root finding runs on dense integer polynomials: lists of ints, lowest degree
# first, with a nonzero last entry.  No coefficient is ever factored.


def _primitive(a: list[int]) -> list[int]:
    """a over the gcd of its entries, with a positive leading entry."""
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [c // g for c in a]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b, deg b >= 1."""
    r = a[:]
    db, lead = len(b) - 1, b[-1]
    while len(r) > db:
        g = gcd(lead, r[-1])
        u, v = lead // g, r[-1] // g
        shift = len(r) - 1 - db
        r = [c * u for c in r]
        for j in range(db):
            r[shift + j] -= v * b[j]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _divide_dense(a: list[int], b: list[int]) -> list[int] | None:
    """The quotient a/b when b divides a in Z[t], else None."""
    rem = a[:]
    db, lead = len(b) - 1, b[-1]
    out = [0] * max(len(a) - db, 0)
    for i in reversed(range(len(out))):
        c, r = divmod(rem[i + db], lead)
        if r:
            return None
        if c:
            out[i] = c
            for j in range(db):
                rem[i + j] -= c * b[j]
    return None if any(rem[:db]) else out


def _derivative(a: list[int]) -> list[int]:
    return [e * c for e, c in enumerate(a)][1:]


def _square_free(f: list[int]) -> list[int]:
    """f / gcd(f, f') for f of degree >= 1: f with every repeated factor
    taken once, by a primitive pseudo-remainder sequence."""
    a, b = f, _primitive(_derivative(f))
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return _divide_dense(f, b)
        a, b = b, _primitive(r)
    return f


def _lift(g: list[int], x: int, p: int, bound: int) -> int | None:
    """The k with |k| <= bound and g(k / L) = 0 for which k / L is x mod p,
    if there is one; L = lc(g), x is a simple root of g mod p and p ∤ L.

    Newton steps x -> x - g(x) / g'(x) mod m, squaring m each time, lift x
    to the one p-adic root of g above it.  Once m > 2 * bound, L * x mod m
    read between -m/2 and m/2 is k.
    """
    m = p
    while m <= 2 * bound:
        v = w = 0  # g(x) and g'(x), by one Horner pass
        for c in reversed(g):
            w = w * x + v
            v = v * x + c
        x = (x - v * pow(w, -1, m)) % (m * m)
        m *= m
    k = g[-1] * x % m
    k = k - m if 2 * k > m else k
    return k if abs(k) <= bound and not _horner_hom(g, k, g[-1]) else None


def _lifted_roots(f: list[int]) -> list[Fraction]:
    """The distinct rational roots of f, in increasing order, where f(0) != 0
    and lc(f) = L > 0.

    Loos's p-adic method (SIAM J. Comput. 12(2), 1983).  A rational root has
    a denominator dividing L, so it is k/L with |k| <= K = L + max |a_i| by
    Cauchy's bound, and it has an image mod every prime p ∤ L.  Such primes
    are tried from 11 up, with no last one, and f mod p is evaluated at
    0..p-1.  If every root r mod p is simple, f'(r) != 0 mod p, Hensel's
    lemma gives r exactly one lift, so `_lift` finds every rational root,
    each above its own r.  At the first prime with a repeated root f is
    replaced once by its square-free part, which has a repeated root mod p
    only for the finitely many p that divide its discriminant, so the
    search ends.
    """
    square_free, p = False, 9
    while True:
        p += 2
        if not f[-1] % p or not all(p % d for d in range(3, isqrt(p) + 1, 2)):
            continue
        fp = [c % p for c in reversed(f)]
        roots = []
        for r in range(p):
            acc = 0
            for c in fp:
                acc = acc * r + c
            if not acc % p:
                roots.append(r)
        df = _derivative(f)
        if all(_horner_hom(df, r, 1) % p for r in roots):
            bound = f[-1] + max(map(abs, f[:-1]))
            found = (_lift(f, r, p, bound) for r in roots)
            return [Fraction(k, f[-1]) for k in sorted(k for k in found if k is not None)]  # as k sorts, L > 0
        if not square_free:
            f, square_free = _primitive(_square_free(f)), True


def rational_roots(f: Poly1) -> tuple[list[tuple[Fraction, int]], Poly1]:
    """All rational roots with multiplicities, plus the rootless residual.

    The residual times the product of the (t - r)^m factors reproduces f.
    No coefficient is factored.  The roots of the primitive integer
    coefficients F of f are found by `_lifted_roots`, which proves each one
    exact; each root r = p/q is divided out of F as q*t - p once, then as
    often as `_horner_hom` finds that it divides, and the residual is built
    once, from the content of f, the q^m and the quotient.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no well-defined root set")
    roots: list[tuple[Fraction, int]] = []
    ints, den = _cleared_coeffs(f)
    k = next(e for e, c in enumerate(ints) if c)
    num = gcd(*ints)  # f = (num / den) * rest * t^k
    rest = [c // num for c in ints[k:]]
    for r in _lifted_roots(_primitive(rest)) if len(rest) > 1 else ():
        p, q = r.numerator, r.denominator
        rest, m = _divide_dense(rest, [-p, q]), 1  # _lifted_roots proved r a root
        while not _horner_hom(rest, p, q):
            rest = _divide_dense(rest, [-p, q])
            m += 1
        num *= q**m
        roots.append((r, m))
    if k:
        roots.insert(sum(r.numerator < 0 for r, _ in roots), (Fraction(0), k))
    return roots, _make(f.vars, {(e,): num * c for e, c in enumerate(rest) if c}, den)
