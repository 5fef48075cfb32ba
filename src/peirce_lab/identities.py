"""Weighted univariate identities: spectra, Peirce symbols, fusion tables.

An identity is a finite sum  P(z) = sum_i  coeff_i * w_i(z) * m_i  that an
algebra is assumed to satisfy identically, where each weight w_i(z) is 1,
a power of a weight homomorphism omega(z)^k, or a bilinear value b(z, z^m).
The symbolic machinery only ever uses the coefficient value at a normalized
idempotent (omega(c) = 1, b(c, c) = 1, b(c, c^2) = 1), which is exactly the
`coeff` carried on each term.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import compress
from math import lcm

from ._record import _Record, _set
from .magma import Monomial, format_monomial, parse_monomial, plenary_power, principal_power, product
from .peirce import _divided_difference, _plenary_symbol, _principal_symbol, _rho_ints, _symbol_ints, _zero_rows
from .poly import (
    Poly1,
    Poly3,
    RationalSyntaxError,
    _cleared_coeffs,
    _horner_hom,
    _integer,
    _make,
    _rational,
    _refuse_exponent,
    format_rational,
    parse_rational,
    rational_roots,
)

__all__ = [
    "WeightDescriptor",
    "IdentityTerm",
    "WeightedIdentity",
    "SpectrumReport",
    "FusionTable",
    "ZeroSumViolation",
    "EmptyIdentity",
    "InvalidWeight",
    "DegenerateIdentity",
    "IrrationalSpectrum",
    "InternalHalfRootMissing",
    "CatalogParameterError",
    "constant_weight",
    "baric_weight",
    "bilinear_weight",
    "make_identity",
    "identity_peirce_poly",
    "spectrum",
    "identity_symbol",
    "fusion_table",
    "multiply_identities",
    "catalog",
    "catalog_names",
    "train_closed_forms",
    "identity_to_json",
    "identity_from_json",
]


class ZeroSumViolation(ValueError):
    """Coefficient values at an idempotent do not sum to zero."""


class EmptyIdentity(ValueError):
    """An identity needs at least one term."""


class InvalidWeight(ValueError):
    """A weight's baric exponent is negative."""


class DegenerateIdentity(ValueError):
    """The Peirce polynomial vanishes identically; no spectral data exists."""


class IrrationalSpectrum(ValueError):
    """The Peirce polynomial has a nonconstant rational-root-free factor."""


class InternalHalfRootMissing(AssertionError):
    """rho(P, 1/2) != 0 for a validated identity; indicates a bug."""


class CatalogParameterError(ValueError):
    """Family parameters are missing, unknown, of the wrong kind, or violate
    the family's defining constraint."""


# Identity-level results (rho, spectrum, symbol, fusion tables) are memoized per
# identity in bounded caches of this size and shared between callers.
_IDENTITY_CACHE_SIZE = 256


def _require(value, cls: type | tuple[type, ...], field: str):
    """value, or a TypeError naming the field if it is not a cls (one of them, for a tuple)."""
    if not isinstance(value, cls):
        kinds = " or ".join(("an " if c.__name__[0] in "AEIOUaeiou" else "a ") + c.__name__
                            for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise TypeError(f"{field} must be {kinds}, not the {type(value).__name__} {value!r}")
    return value


@functools.total_ordering
class WeightDescriptor(_Record):
    """Normalized weight w(z) = omega(z)^baric_exp * prod b(z, z^m).

    Products of weights close under this normal form, which is what
    multiply_identities produces.  Weights are ordered by their fields.
    """

    __slots__ = ("baric_exp", "bilinear_args")

    def __init__(self, baric_exp: int = 0, bilinear_args: tuple[Monomial, ...] = ()):
        if _integer(baric_exp, "baric exponent") < 0:  # JSON writes True as true
            raise InvalidWeight(f"baric exponent must be nonnegative, got {baric_exp}")
        if not isinstance(bilinear_args, Iterable):  # tuple(3) would name no field
            raise TypeError(f"bilinear_args must be iterable, not the {type(bilinear_args).__name__} {bilinear_args!r}")
        bilinear_args = tuple(bilinear_args)  # a list would make the weight unhashable
        for m in bilinear_args:  # a str is iterable too, one character at a time
            _require(m, Monomial, "each of bilinear_args")
        _set(self, "baric_exp", baric_exp)
        _set(self, "bilinear_args", tuple(sorted(bilinear_args)))  # the factors b(z, z^m) commute

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented

    @property
    def kind(self) -> str:
        if self.baric_exp == 0 and not self.bilinear_args:
            return "constant"
        if not self.bilinear_args:
            return "baric"
        if self.baric_exp == 0 and len(self.bilinear_args) == 1:
            return "bilinear"
        return "product"

    def combine(self, other: "WeightDescriptor") -> "WeightDescriptor":
        return WeightDescriptor(self.baric_exp + other.baric_exp, self.bilinear_args + other.bilinear_args)

    def describe(self) -> str:
        factors = []
        if self.baric_exp == 1:
            factors.append("w(z)")
        elif self.baric_exp:
            factors.append(f"w(z)^{self.baric_exp}")
        factors.extend(f"b(z, {format_monomial(m)})" for m in self.bilinear_args)
        return "*".join(factors) if factors else "1"


def constant_weight() -> WeightDescriptor:
    return WeightDescriptor()


def baric_weight(k: int) -> WeightDescriptor:
    return WeightDescriptor(baric_exp=k)


def bilinear_weight(m: Monomial) -> WeightDescriptor:
    return WeightDescriptor(bilinear_args=(m,))


class IdentityTerm(_Record):
    __slots__ = ("coeff", "monomial", "weight")

    def __init__(
        self,
        coeff: Fraction,  # value of the polynomial-map coefficient at the idempotent
        monomial: Monomial,
        weight: WeightDescriptor = WeightDescriptor(),  # immutable, so one is shared
    ):
        # text is read by parse_rational; a float or a bool raises TypeError
        _set(self, "coeff", coeff if isinstance(coeff, Fraction) else _rational(coeff))
        _set(self, "monomial", _require(monomial, Monomial, "monomial"))
        _set(self, "weight", _require(weight, WeightDescriptor, "weight"))


class WeightedIdentity(_Record):
    """A formal sum of terms, stored in normal form: terms with the same
    monomial and weight are merged, zero terms dropped and the rest sorted by
    monomial, then weight.  A term may be given as the tuple of its fields."""

    __slots__ = ("terms", "name", "_hash")

    def __init__(self, terms: Iterable[IdentityTerm | tuple], name: str | None = None):
        if not isinstance(terms, Iterable):  # iterating 5 would name no field
            raise TypeError(f"terms must be iterable, not the {type(terms).__name__} {terms!r}")
        merged: dict[tuple[Monomial, WeightDescriptor], Fraction] = {}
        for t in terms:
            if not isinstance(t, IdentityTerm):  # a str would be unpacked one character at a time
                _require(t, (IdentityTerm, tuple), "each term")
                if not 2 <= len(t) <= 3:  # IdentityTerm's arity error would name no term
                    raise TypeError(f"each term tuple must be (coeff, monomial[, weight]), not of length {len(t)}")
                t = IdentityTerm(*t)
            key = (t.monomial, t.weight)
            merged[key] = merged.get(key, Fraction(0)) + t.coeff
        # a tuple keeps the identity hashable, so it can key the caches below;
        # the hash is taken once, since every cache lookup asks for it
        terms = tuple(IdentityTerm(merged[k], *k) for k in sorted(merged) if merged[k])
        if not terms:
            raise EmptyIdentity("identity has no nonzero terms")
        _set(self, "terms", terms)
        _set(self, "name", name if name is None else _require(name, str, "name"))  # JSON holds a string or null
        _set(self, "_hash", hash((terms, name)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        parts = []
        for t in self.terms:
            w = t.weight.describe()
            body = format_monomial(t.monomial) if w == "1" else f"{w}*{format_monomial(t.monomial)}"
            parts.append(f"{format_rational(t.coeff)}*{body}")
        return " + ".join(parts)


class SpectrumReport(_Record):
    __slots__ = ("peirce_poly", "roots", "residual", "degenerate")

    def __init__(
        self,
        peirce_poly: Poly1,
        roots: tuple[tuple[Fraction, int], ...],
        residual: Poly1,
        degenerate: bool,
    ):
        _set(self, "peirce_poly", peirce_poly)
        _set(self, "roots", roots)
        _set(self, "residual", residual)
        _set(self, "degenerate", degenerate)


class FusionTable(_Record):
    __slots__ = ("spectrum", "entries", "mode", "refinements_applied")

    def __init__(
        self,
        spectrum: tuple[Fraction, ...],  # eigenvalues, always including 1
        entries: Mapping[tuple[Fraction, Fraction], frozenset[Fraction]],
        mode: str,  # "generic" | "metrized_orthogonal"
        refinements_applied: tuple[str, ...] = (),
    ):
        _set(self, "spectrum", spectrum)
        _set(self, "entries", entries)
        _set(self, "mode", mode)
        _set(self, "refinements_applied", refinements_applied)

    def allowed(self, lam: Fraction, mu: Fraction) -> frozenset[Fraction]:
        key = (lam, mu) if lam <= mu else (mu, lam)
        return self.entries[key]


class _FusionEntries(Mapping):
    """The entries of a computed FusionTable: a read-only mapping from
    (lam_i, lam_j), i <= j, to the allowed set, stored by position.

    sets holds the allowed sets in grid order (row i, then j >= i), which is
    also the order of iteration, and index maps each eigenvalue to its
    position, so building the entries hashes no key and a lookup hashes only
    the caller's lam and mu.  It reads as the dict of the same pairs would:
    ==, repr, len, in, get and KeyError (a reversed pair, a value that is not
    an eigenvalue, a key that is not a pair); assignment raises TypeError.
    """

    __slots__ = ("_eigenvalues", "_index", "_sets")

    def __init__(self, eigenvalues: tuple[Fraction, ...], index: dict, sets: tuple):
        self._eigenvalues = eigenvalues
        self._index = index
        self._sets = sets

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            i, j = self._index.get(key[0], -1), self._index.get(key[1], -1)
            if 0 <= i <= j:  # row i starts at i*n - i*(i-1)/2 and holds j >= i
                return self._sets[i * (2 * len(self._eigenvalues) - i - 1) // 2 + j]
        else:
            hash(key)  # an unhashable key raises TypeError, as in a dict
        raise KeyError(key)

    def __iter__(self):
        ev = self._eigenvalues
        return ((lam, mu) for i, lam in enumerate(ev) for mu in ev[i:])

    def __len__(self) -> int:
        return len(self._sets)

    def __repr__(self) -> str:
        return repr(dict(zip(self, self._sets)))

    def __reduce__(self):
        return self.__class__, (self._eigenvalues, self._index, self._sets)


def make_identity(terms: Iterable[IdentityTerm | tuple], name: str | None = None) -> WeightedIdentity:
    """WeightedIdentity(terms, name), whose coefficients at an idempotent must
    sum to zero, as they do in any identity an algebra with a nonzero
    idempotent satisfies.  A coefficient given as text is read by
    parse_rational, which refuses exponent notation.
    """
    identity = WeightedIdentity(terms, name)
    if total := sum(t.coeff for t in identity.terms):
        raise ZeroSumViolation(f"coefficients at an idempotent sum to {format_rational(total)}, not 0")
    return identity


def _integer_sum(
    identity: WeightedIdentity, ints: Callable[[Monomial, dict], dict]
) -> tuple[int, dict]:
    """(D, D * sum coeff_i * ints(m_i)) in integers, without zero terms, where
    D is the lcm of the coefficient denominators and `ints` is one of the
    per-monomial integer forms of `peirce`; the terms share one memo, so a
    subtree common to several monomials is folded once."""
    den = lcm(*(t.coeff.denominator for t in identity.terms))
    memo: dict = {}
    out: dict = {}
    for t in identity.terms:
        n = t.coeff.numerator * (den // t.coeff.denominator)
        for k, c in ints(t.monomial, memo).items():
            out[k] = out.get(k, 0) + n * c
    return den, {k: c for k, c in out.items() if c}


@functools.lru_cache(maxsize=_IDENTITY_CACHE_SIZE)
def identity_peirce_poly(identity: WeightedIdentity) -> Poly1:
    """rho_c(P, t) = sum coeff * rho(monomial, t)."""
    den, ints = _integer_sum(identity, _rho_ints)
    return _make(Poly1.VARS, {(e,): c for e, c in ints.items()}, den)


@functools.lru_cache(maxsize=_IDENTITY_CACHE_SIZE)
def identity_symbol(identity: WeightedIdentity) -> Poly3:
    """Y(a, b, p) = sum coeff * symbol(monomial)."""
    den, ints = _integer_sum(identity, _symbol_ints)
    return _make(Poly3.VARS, ints, den)


@functools.lru_cache(maxsize=_IDENTITY_CACHE_SIZE)
def spectrum(identity: WeightedIdentity) -> SpectrumReport:
    rho = identity_peirce_poly(identity)
    if rho.is_zero:
        return SpectrumReport(rho, (), Poly1.zero(), degenerate=True)
    if sum(t.coeff for t in identity.terms) == 0 and _horner_hom(_cleared_coeffs(rho)[0], 1, 2):
        raise InternalHalfRootMissing("rho(P, 1/2) != 0 for a validated identity; this is a bug")
    roots, residual = rational_roots(rho)
    return SpectrumReport(rho, tuple(roots), residual, degenerate=False)


_METRIZED = ("b-orthogonal Peirce components", "first-order weight terms vanish off A_c(1)")


@functools.lru_cache(maxsize=_IDENTITY_CACHE_SIZE)
def _fusion_tables(identity: WeightedIdentity) -> dict[str, FusionTable] | ValueError:
    """Both fusion tables of an identity by mode, or the exception that
    refuses it, decided once per identity.  The eigenvalues are the rational
    roots of rho and 1.  The rules of each mode set and clear bytes of the
    zero rows, each distinct row becomes one union of singletons, which reuses
    their stored hashes, and both tables share one index of the positions."""
    report = spectrum(identity)
    if report.degenerate:
        return DegenerateIdentity("degenerate identity has no fusion table")
    if report.residual.degree >= 1:
        return IrrationalSpectrum(f"non-rational spectral factor remains: {report.residual.render()}")
    roots, one = report.roots, sum(r.numerator < r.denominator for r, _ in report.roots)
    if one == len(roots) or roots[one][0] != 1:  # the roots are sorted; 1 goes here
        roots = roots[:one] + ((Fraction(1), 0),) + roots[one:]
    eigenvalues = tuple(r for r, _ in roots)
    fracs = [(v.numerator, v.denominator) for v in eigenvalues]
    n, half = len(fracs), fracs.index((1, 2)) if (1, 2) in fracs else -1
    zeros = _zero_rows(identity_symbol(identity)._ints, fracs)
    generic, metrized = bytearray(zeros), bytearray(zeros)
    generic[one::n] = b"\1" * (len(zeros) // n)  # generic: the zeros, 1, lam and mu
    for at, (i, j) in zip(range(0, len(zeros), n), ((i, j) for i in range(n) for j in range(i, n))):
        generic[at + i] = generic[at + j] = 1
        for simple, other in ((i, j), (j, i)):  # less a simple root on the 1/2 row
            if other == half and roots[simple][1] == 1:
                generic[at + simple] = 0
        if one in (i, j):  # metrized: the zeros, but only the other one on the 1 row
            metrized[at : at + n] = bytes(n)
            metrized[at + i + j - one] = 1
        elif i == j:  # and 1 on the diagonal
            metrized[at + one] = 1
    singletons = tuple(frozenset((v,)) for v in eigenvalues)
    index: dict[Fraction, int] = {}
    for k, v in enumerate(singletons):  # a dict built from a set reuses its stored hashes
        index.update(dict.fromkeys(v, k))
    as_values: dict[bytes, frozenset[Fraction]] = {}
    tables = {}
    for mode, rows in (("generic", bytes(generic)), ("metrized_orthogonal", bytes(metrized))):
        rows = [rows[at : at + n] for at in range(0, len(rows), n)]
        for row in set(rows).difference(as_values):
            as_values[row] = frozenset().union(*compress(singletons, row))
        entries = _FusionEntries(eigenvalues, index, tuple(map(as_values.__getitem__, rows)))
        tables[mode] = FusionTable(eigenvalues, entries, mode, () if mode == "generic" else _METRIZED)
    return tables


def fusion_table(identity: WeightedIdentity, mode: str = "generic") -> FusionTable:
    """Allowed-eigenvalue table for products of Peirce components.

    generic mode is a sound superset: structural vanishing of Y plus the
    always-allowed exceptions {1, lam, mu}, then the simple-root removal
    from the lam * (1/2) row.  metrized_orthogonal additionally assumes
    b-orthogonal Peirce components and vanishing first-order weight terms,
    which lets the exceptions be dropped except for lam = mu (diagonal) and
    the lam = 1 row.  Both tables are built once per identity and cached.
    """
    if mode not in ("generic", "metrized_orthogonal"):
        raise ValueError(f"unknown fusion mode {mode!r}")
    tables = _fusion_tables(identity)
    if isinstance(tables, ValueError):  # no table: a fresh exception on every call
        raise type(tables)(*tables.args)
    return tables[mode]


def multiply_identities(p1: WeightedIdentity, p2: WeightedIdentity) -> WeightedIdentity:
    """Free product: coefficients multiply, monomials multiply, weights combine."""
    terms = [IdentityTerm(t1.coeff * t2.coeff, product(t1.monomial, t2.monomial), t1.weight.combine(t2.weight))
             for t1 in p1.terms for t2 in p2.terms]
    name = f"({p1.name})*({p2.name})" if p1.name and p2.name else None
    return WeightedIdentity(terms, name)


# --- catalog -----------------------------------------------------------------


def _number(family: str, name: str, value, whole=None) -> Fraction:
    """Fraction(value), or a CatalogParameterError naming the family and the
    parameter and showing `whole`, the list that value comes from, if any."""
    kind, shown = ("a number", value) if whole is None else ("a list of numbers", whole)
    if isinstance(value, (float, bool)):  # Fraction(0.1) is 3602879701896397/2^55, and True is 1
        where = "" if whole is None else f" in {whole!r}"
        raise CatalogParameterError(f"{family} parameter {name} takes an int, a Fraction or text, "
                                    f"not the {type(value).__name__} {value!r}{where}")
    try:
        return Fraction(_refuse_exponent(value) if isinstance(value, str) else value)
    except RationalSyntaxError:
        raise CatalogParameterError(f"{family} parameter {name} takes no exponent notation, got {shown!r}") from None
    except (TypeError, ValueError):
        raise CatalogParameterError(
            f"{family} parameter {name} must be {kind}, got {shown!r}"
        ) from None
    except ZeroDivisionError:
        raise CatalogParameterError(
            f"{family} parameter {name} has a zero denominator: {shown!r}"
        ) from None


def _numbers(family: str, name: str, values) -> list[Fraction]:
    if isinstance(values, str):  # one number, not a list of its characters
        values = [values]
    try:
        items = iter(values)
    except TypeError:
        raise CatalogParameterError(
            f"{family} parameter {name} must be a list of numbers, got {values!r}"
        ) from None
    return [_number(family, name, v, values) for v in items]


def _catalog_jordan_power_assoc() -> WeightedIdentity:
    return make_identity(
        [(1, principal_power(4)), (-1, plenary_power(3))],
        name="jordan_power_assoc",
    )


def _catalog_bernstein() -> WeightedIdentity:
    return make_identity(
        [(1, plenary_power(3)), (-1, principal_power(2), baric_weight(2))],
        name="bernstein",
    )


def _catalog_pseudo_composition() -> WeightedIdentity:
    return make_identity(
        [(1, principal_power(3)), (-1, principal_power(1), bilinear_weight(principal_power(1)))],
        name="pseudo_composition",
    )


def _catalog_walcher(a_c="1/2", b_c=None) -> WeightedIdentity:
    a_c = _number("walcher", "a_c", a_c)
    b_c = 1 - a_c if b_c is None else _number("walcher", "b_c", b_c)
    if a_c + b_c != 1:
        raise CatalogParameterError(
            f"walcher requires a(c) + b(c) = 1, got {format_rational(a_c + b_c)}"
        )
    return make_identity(
        [
            (1, principal_power(3)),
            (-a_c, principal_power(2), baric_weight(1)),
            (-b_c, principal_power(1), baric_weight(1)),
        ],
        name="walcher",
    )


def _catalog_hsiang() -> WeightedIdentity:
    z = principal_power(1)
    return make_identity(
        [
            (4, principal_power(4)),
            (1, plenary_power(3)),
            (-3, principal_power(2), bilinear_weight(z)),
            (-2, z, bilinear_weight(principal_power(2))),
        ],
        name="hsiang",
    )


def _validate_train_gammas(gamma: Sequence[Fraction], family: str) -> list[Fraction]:
    gamma = _numbers(family, "gamma", gamma)
    if len(gamma) < 2:
        raise CatalogParameterError(f"{family} needs rank >= 2 (at least two gammas)")
    if gamma[0] != 1:
        raise CatalogParameterError(f"{family} requires the leading gamma = 1")
    if sum(gamma) != 0:
        raise CatalogParameterError(f"{family} requires the gammas to sum to zero")
    return gamma


def _catalog_principal_train(gamma) -> WeightedIdentity:
    gamma = _validate_train_gammas(gamma, "principal_train")
    n = len(gamma)
    terms = [
        (gamma[n - k], principal_power(k), baric_weight(n - k))
        for k in range(1, n + 1)
        if gamma[n - k]
    ]
    return make_identity(terms, name="principal_train")


def _catalog_plenary_train(gamma) -> WeightedIdentity:
    gamma = _validate_train_gammas(gamma, "plenary_train")
    n = len(gamma)
    terms = [
        (gamma[n - k], plenary_power(k), baric_weight(2 ** (n - 1) - 2 ** (k - 1)))
        for k in range(1, n + 1)
        if gamma[n - k]
    ]
    return make_identity(terms, name="plenary_train")


def _catalog_nourigat_varro(a1, a2, b1, b2, b3) -> WeightedIdentity:
    a1, a2, b1, b2, b3 = (
        _number("nourigat_varro", name, v)
        for name, v in zip(("a1", "a2", "b1", "b2", "b3"), (a1, a2, b1, b2, b3))
    )
    if a1 + a2 - b1 - b2 - b3 != 0:
        raise CatalogParameterError(
            "nourigat_varro requires a1 + a2 = b1 + b2 + b3 (coefficient sum zero)"
        )
    return make_identity(
        [
            (a1, plenary_power(3)),
            (a2, principal_power(4)),
            (-b1, principal_power(3), baric_weight(1)),
            (-b2, principal_power(2), baric_weight(2)),
            (-b3, principal_power(1), baric_weight(3)),
        ],
        name="nourigat_varro",
    )


def _catalog_elduque_labra() -> WeightedIdentity:
    return make_identity(
        [
            (1, plenary_power(3)),
            (-2, principal_power(3), baric_weight(1)),
            (1, principal_power(2), baric_weight(2)),
        ],
        name="elduque_labra",
    )


_CATALOG = {
    "jordan_power_assoc": _catalog_jordan_power_assoc,
    "bernstein": _catalog_bernstein,
    "pseudo_composition": _catalog_pseudo_composition,
    "walcher": _catalog_walcher,
    "hsiang": _catalog_hsiang,
    "principal_train": _catalog_principal_train,
    "plenary_train": _catalog_plenary_train,
    "nourigat_varro": _catalog_nourigat_varro,
    "elduque_labra": _catalog_elduque_labra,
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog(name: str, params: Mapping | None = None) -> WeightedIdentity:
    """Named identity families; `params` holds family-specific arguments.

    A parameter the family does not take, or a required one left out, raises
    CatalogParameterError.
    """
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog identity {name!r}; known: {', '.join(catalog_names())}")
    family = _CATALOG[name]
    params = dict(params or {})
    # every family takes plain positional-or-keyword parameters, the
    # trailing ones with defaults
    code = family.__code__
    known = code.co_varnames[: code.co_argcount]
    unknown = [k for k in params if k not in known]
    if unknown:
        takes = f"its parameters are {', '.join(known)}" if known else "it takes none"
        raise CatalogParameterError(f"{name} has no parameter {unknown[0]!r}; {takes}")
    required = known[: len(known) - len(family.__defaults__ or ())]
    missing = [k for k in required if k not in params]
    if missing:
        plural = "s" if len(missing) > 1 else ""
        raise CatalogParameterError(f"{name} needs the parameter{plural} {', '.join(missing)}")
    return family(**params)


# --- train closed forms -------------------------------------------------------


def train_closed_forms(family: str, gamma: Sequence) -> tuple[Poly1, Poly3]:
    """Closed-form (rho, Y) for principal/plenary train identities.

    Both must agree with the generic computation on the catalog identity.
    """
    gamma = _validate_train_gammas(gamma, family)
    n = len(gamma)
    if family == "principal_train":
        numerator = Poly1({k - 1: gamma[n - k] for k in range(1, n + 1)})  # zero at 1: the gammas sum to 0
        rho = Poly1({1: 2, 0: -1}) * _divided_difference(numerator, 1, Poly1.t())  # times the train polynomial
        return rho, _principal_symbol(rho)
    if family == "plenary_train":
        rho = Poly1({k - 1: gamma[n - k] * 2 ** (k - 1) for k in range(1, n + 1)})
        return rho, _plenary_symbol(rho)
    raise ValueError(f"unknown train family {family!r}")


# --- JSON wire format ----------------------------------------------------------


def _weight_to_json(w: WeightDescriptor) -> dict:
    kind = w.kind
    if kind == "constant":
        return {"kind": "constant"}
    if kind == "baric":
        return {"kind": "baric", "k": w.baric_exp}
    if kind == "bilinear":
        return {"kind": "bilinear", "monomial": format_monomial(w.bilinear_args[0])}
    return {
        "kind": "product",
        "k": w.baric_exp,
        "monomials": [format_monomial(m) for m in w.bilinear_args],
    }


def _json_int(k, field: str) -> int:
    # bool is an int subclass, but `true` is not a JSON integer
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"{field} must be a JSON integer, got {json.dumps(k)}")
    return k


def _monomial_from_json(text, field: str) -> Monomial:
    if not isinstance(text, str):
        raise TypeError(f"{field} must be a JSON string, got {json.dumps(text)}")
    return parse_monomial(text)


def _weight_from_json(obj: Mapping, field: str) -> WeightDescriptor:
    kind = obj.get("kind", "constant")
    if kind == "constant":
        return constant_weight()
    if kind == "baric":
        return baric_weight(_json_int(_field(obj, "k", field), f"{field}.k"))
    if kind == "bilinear":
        return bilinear_weight(_monomial_from_json(_field(obj, "monomial", field), f"{field}.monomial"))
    if kind == "product":
        monomials = obj.get("monomials", [])
        # a JSON string is iterable, one character at a time
        if not isinstance(monomials, list):
            raise TypeError(f"{field}.monomials must be a JSON list, got {json.dumps(monomials)}")
        return WeightDescriptor(
            _json_int(obj.get("k", 0), f"{field}.k"),
            [_monomial_from_json(s, f"{field}.monomials[{j}]") for j, s in enumerate(monomials)],
        )
    raise _WireKeyError(f"{field}.kind: unknown weight kind {kind!r}")


def identity_to_json(identity: WeightedIdentity) -> dict:
    out: dict = {
        "terms": [
            {
                "coeff": format_rational(t.coeff),
                "monomial": format_monomial(t.monomial),
                "weight": _weight_to_json(t.weight),
            }
            for t in identity.terms
        ]
    }
    if identity.name is not None:  # "" is a name, which reads back as ""
        out["name"] = identity.name
    return out


_JSON_KINDS = {list: "an array", str: "a string", bool: "a boolean", int: "a number", float: "a number"}


class _WireKeyError(KeyError):  # a wire-format object lacks a required field or names an unknown kind
    __str__ = BaseException.__str__  # the message, without KeyError's quotes


def _field(obj: Mapping, key: str, where: str):
    """obj[key], or _WireKeyError naming the object and the key."""
    if key not in obj:
        raise _WireKeyError(f'{where} has no "{key}"')
    return obj[key]


def _json_name(obj: Mapping, default: str | None = None) -> str | None:
    """obj["name"], or default if it is absent or null; a name must be a string or null."""
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise TypeError(f"name must be a JSON string or null, got {json.dumps(name)}")
    return default if name is None else name


def _json_object(obj: Mapping | str) -> Mapping:
    """obj, decoded from JSON text once if it is a str; it must be an object.

    The message names the kind of value found, never the value: a file may
    be large.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # an integer literal past int's digit limit: a number that cannot be read
            raise RationalSyntaxError(str(exc)) from None
    if not isinstance(obj, Mapping):
        kind = "null" if obj is None else _JSON_KINDS.get(type(obj), f"a {type(obj).__name__}")
        raise TypeError(f"expected a JSON object at the top level, got {kind}")
    return obj


def identity_from_json(obj: Mapping | str) -> WeightedIdentity:
    """The identity a wire-format object holds, or its JSON text.

    A missing field or an unknown weight kind raises KeyError, and a value of
    the wrong JSON type TypeError.  Text that is not JSON, a number or a
    monomial raises json.JSONDecodeError, RationalSyntaxError or
    MonomialSyntaxError.  An identity that breaks a rule raises ValueError:
    ZeroSumViolation, EmptyIdentity or InvalidWeight.
    """
    obj = _json_object(obj)
    raw = _field(obj, "terms", "the top-level object")
    if not isinstance(raw, list):
        raise TypeError(f"terms must be a JSON list, got {json.dumps(raw)}")
    for i, t in enumerate(raw):
        if not isinstance(t, dict):
            raise TypeError(f"terms[{i}] must be a JSON object, got {json.dumps(t)}")
        if not isinstance(t.get("weight", {}), dict):
            raise TypeError(f"terms[{i}].weight must be a JSON object, got {json.dumps(t['weight'])}")
        if t.get("weight") and "kind" not in t["weight"]:  # {} alone is the constant weight
            raise _WireKeyError(f"terms[{i}].weight has no \"kind\", got {json.dumps(t['weight'])}")
    name = _json_name(obj)
    terms = [
        IdentityTerm(
            parse_rational(_field(t, "coeff", f"terms[{i}]")),
            _monomial_from_json(_field(t, "monomial", f"terms[{i}]"), f"terms[{i}].monomial"),
            _weight_from_json(t.get("weight", {}), f"terms[{i}].weight"),
        )
        for i, t in enumerate(raw)
    ]
    return make_identity(terms, name=name)
