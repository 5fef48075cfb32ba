"""The three seeded workloads and their oracles.

A workload is a fixed list of slots.  One cycle turns every slot into one op,
with inputs drawn from ``random.Random(f"{workload}:{seed}:{cycle}")``, so the
same seed gives the same inputs and every cycle has the same mix of sizes.
The runner only ever runs whole cycles and takes each latency percentile per
cycle, at the nearest rank ceil(pct / 100 * slots); the slot lists are laid
out so that these ranks fall inside a class of ops of like cost.

An op is one closed-loop request: ``call`` runs the library on the generated
inputs and is the only timed part; ``check`` is the oracle, run afterwards,
and returns ``(ok, text)`` where ``text`` is a canonical rendering of the
result.  Oracles lean on the paper's definitions recomputed here (``rho_of``,
``symbol_of``), on planted answers, and on the library's own closed forms.

Why each workload exists:

* ``symbolic``: identity -> rho -> spectrum -> symbol -> fusion tables, and
  ``rational_roots`` on a planted polynomial.  All work is in ``peirce``,
  ``poly`` and ``identities``; none in ``algebras``.
* ``concrete``: verification jobs on structure-constant algebras.  Almost all
  work is ``StructureAlgebra.multiply`` under ``evaluate_monomial`` and
  ``linearize``; monomials mix shapes with and without repeated subtrees.  One
  job per cycle reads a spin factor from JSON and decomposes it, so exact
  linear algebra and form validation are measured too.
* ``cli``: README commands as subprocesses, paying interpreter start-up and
  import the way a user does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

HALF = F(1, 2)


@dataclass
class Op:
    kind: str
    inputs: str  # canonical text of the generated inputs
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]
    desc: dict = field(default_factory=dict)
    inproc: Callable[[], object] | None = None  # in-process variant (cli only)


def cycle_rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


# --- independent definitions: trees, rho, symbol, rendered polynomials ------------

def tree_of(m, memo: dict) -> object:
    """A library monomial as a nested tuple tree; the atom is "z"."""
    if m not in memo:
        memo[m] = "z" if m.is_atom else (tree_of(m.left, memo), tree_of(m.right, memo))
    return memo[m]


def shape_of(t) -> str:
    def principal(u):
        return u == "z" or (u[0] == "z" and principal(u[1])) or (u[1] == "z" and principal(u[0]))

    def plenary(u):
        return u == "z" or (u[0] == u[1] and plenary(u[0]))

    return "principal" if principal(t) else "plenary" if plenary(t) else "other"


def has_repeated_subtree(t) -> bool:
    """True when some product subtree occurs twice; a DAG evaluator shares it."""
    seen = {}

    def walk(u):
        if u != "z":
            seen[u] = seen.get(u, 0) + 1
            walk(u[0])
            walk(u[1])

    walk(t)
    return any(n > 1 for n in seen.values())


def text_of(t) -> str:
    return "z" if t == "z" else f"({text_of(t[0])})*({text_of(t[1])})"


def random_tree(degree: int, rng: random.Random):
    if degree == 1:
        return "z"
    left = rng.randint(1, degree - 1)
    return (random_tree(left, rng), random_tree(degree - left, rng))


def _padd(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for k, c in q.items():
        s = out.get(k, 0) + scale * c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def rho_of(t, memo: dict) -> dict:
    """rho(z) = 1, rho(m1 m2) = t (rho(m1) + rho(m2)); keys are (exp,)."""
    if t not in memo:
        if t == "z":
            memo[t] = {(0,): 1}
        else:
            s = _padd(rho_of(t[0], memo), rho_of(t[1], memo))
            memo[t] = {(e + 1,): c for (e,), c in s.items()}
    return memo[t]


def symbol_of(t, memo: dict, rho_memo: dict) -> dict:
    """sym(z) = 0, sym(m1 m2) = p (sym1 + sym2) + rho1(a) rho2(b) + rho1(b) rho2(a)."""
    if t not in memo:
        if t == "z":
            memo[t] = {}
        else:
            left, right = t
            inner = _padd(symbol_of(left, memo, rho_memo), symbol_of(right, memo, rho_memo))
            out = {(a, b, p + 1): c for (a, b, p), c in inner.items()}
            ra, rb = rho_of(left, rho_memo), rho_of(right, rho_memo)
            la = {(e, 0, 0): c for (e,), c in ra.items()}
            lb = {(0, e, 0): c for (e,), c in ra.items()}
            ra_ = {(e, 0, 0): c for (e,), c in rb.items()}
            rb_ = {(0, e, 0): c for (e,), c in rb.items()}
            out = _padd(out, _pmul(la, rb_))
            memo[t] = _padd(out, _pmul(lb, ra_))
    return memo[t]


def combine(polys: list[tuple[F, dict]]) -> dict:
    out: dict = {}
    for coeff, p in polys:
        out = _padd(out, p, coeff)
    return out


def parse_rendered(text: str, names: str) -> dict:
    """Inverse of the library's render(): "8*t^3 - 2*t + 1" -> {(3,): 8, ...}."""
    text = text.strip()
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    out: dict = {}
    for sign, term in zip(["+"] + parts[1::2], parts[0::2]):
        negative = sign == "-"
        if term.startswith("-"):
            negative, term = not negative, term[1:]
        coeff, exps = F(1), [0] * len(names)
        for factor in term.split("*"):
            if factor[0].isdigit():
                coeff = F(factor)
            else:
                var, _, e = factor.partition("^")
                exps[names.index(var)] += int(e or 1)
        out[tuple(exps)] = -coeff if negative else coeff
    return out


def linear_power(r: F, m: int) -> dict:
    out = {(0,): F(1)}
    for _ in range(m):
        out = _pmul(out, {(1,): F(1), (0,): -r})
    return out


def fmt_q(x: F) -> str:
    return str(F(x))


def coeff_bits(coeffs) -> int:
    """Largest numerator or denominator bit length among rational coefficients."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in coeffs), default=0)


# --- symbolic -------------------------------------------------------------------

# Planted roots: nonzero and never 1, 1/2 or 2, so 1 never enters a train's
# spectrum and 1/2 stays simple (plenary trains halve the planted roots).
ROOT_POOL = tuple(F(x) for x in (
    "-3", "-2", "-1", "-1/2", "-1/3", "-2/3", "-1/4", "-3/4", "-3/2", "-1/5", "-2/5",
    "1/3", "2/3", "1/4", "3/4", "3/2", "3", "1/5", "2/5", "3/5",
))

# (kind, parameter): combos have `parameter` terms of degree 6..12; trains
# have `parameter` planted roots; ("roots", bits) is rational_roots on a
# planted polynomial with a `bits`-bit constant term (about 0.07 s, between
# the 4-root and the 5-root trains).  With 26 slots, p50 and p90 are ranks 13
# and 24 in cost order, here the middle of the ten 3-root trains and of the
# five principal 5-root trains, so the percentiles never fall on the boundary
# between two classes of different cost.
SYMBOLIC_SLOTS = (
    [("combo", 6)] * 7
    + [("principal_train", 3)] * 5
    + [("plenary_train", 3)] * 5
    + [("principal_train", 4), ("plenary_train", 4), ("plenary_train", 4), ("roots", 38)]
    + [("principal_train", 5)] * 5
)


def symbolic_setup(pl, seed):
    return {"monomials": {d: pl.enumerate_monomials(d) for d in range(6, 13)}}


def gamma_for(roots: list[F]) -> list[F]:
    """Coefficients of (t - 1) * prod (t - r), leading first."""
    p = {(1,): F(1), (0,): F(-1)}
    for r in roots:
        p = _pmul(p, {(1,): F(1), (0,): -r})
    top = max(e for (e,) in p)
    return [p.get((e,), F(0)) for e in range(top, -1, -1)]


def symbolic_cycle(pl, ctx, seed, cycle):
    rng = cycle_rng("symbolic", seed, cycle)
    ops = []
    for kind, n in SYMBOLIC_SLOTS:
        if kind == "combo":
            while True:
                terms = [(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
                          rng.choice(ctx["monomials"][rng.randint(6, 12)])) for _ in range(n - 1)]
                last = -sum(c for c, _ in terms)
                if last:
                    terms.append((last, rng.choice(ctx["monomials"][rng.randint(6, 12)])))
                    try:
                        ident = pl.make_identity(terms)
                        break
                    except ValueError:
                        continue
            ops.append(_symbolic_op(pl, kind, ident, None, None))
        elif kind == "roots":
            ops.append(roots_op(pl, n, rng))
        else:
            roots = sorted(rng.sample(ROOT_POOL, n))
            gamma = gamma_for(roots)
            ident = pl.catalog(kind, {"gamma": gamma})
            ops.append(_symbolic_op(pl, kind, ident, roots, gamma))
    return ops


def _table_text(table) -> str:
    if isinstance(table, str):
        return table
    rows = [f"{fmt_q(lam)}*{fmt_q(mu)}={','.join(fmt_q(v) for v in sorted(table.entries[(lam, mu)]))}"
            for lam, mu in sorted(table.entries)]
    return f"{table.mode}[{','.join(fmt_q(v) for v in table.spectrum)}]{';'.join(rows)}"


def _symbolic_op(pl, kind, ident, roots, gamma) -> Op:
    memo: dict = {}
    trees = [tree_of(t.monomial, memo) for t in ident.terms]
    desc = {
        "degree": max(t.monomial.degree for t in ident.terms),
        "terms": len(ident.terms),
        "shapes": sorted({shape_of(t) for t in trees}),
        "repeated_subtrees": any(has_repeated_subtree(t) for t in trees),
    }

    def call():
        rho = pl.identity_peirce_poly(ident)
        report = pl.spectrum(ident)
        sym = pl.identity_symbol(ident)
        tables = []
        for mode in ("generic", "metrized_orthogonal"):
            try:
                tables.append(pl.fusion_table(ident, mode=mode))
            except (pl.IrrationalSpectrum, pl.DegenerateIdentity) as exc:
                tables.append(type(exc).__name__)
        return rho, report, sym, tables

    def check(result):
        rho, report, sym, tables = result
        text = "|".join([rho.render(), report.peirce_poly.render(),
                         ";".join(f"{fmt_q(r)}^{m}" for r, m in report.roots),
                         report.residual.render(), str(report.degenerate), sym.render()]
                        + [_table_text(t) for t in tables])
        desc["eigenvalues"] = len(report.roots)
        rho_memo, sym_memo = {}, {}
        want_rho = combine([(t.coeff, rho_of(tr, rho_memo)) for t, tr in zip(ident.terms, trees)])
        want_sym = combine([(t.coeff, symbol_of(tr, sym_memo, rho_memo))
                            for t, tr in zip(ident.terms, trees)])
        ok = parse_rendered(rho.render(), "t") == want_rho
        ok &= parse_rendered(sym.render(), "abp") == want_sym
        ok &= report.peirce_poly == rho
        if not want_rho:
            return ok and report.degenerate and tables == ["DegenerateIdentity"] * 2, text
        # The roots and the residual must rebuild rho; 1/2 is always a root.
        rebuilt = parse_rendered(report.residual.render(), "t")
        for r, m in report.roots:
            rebuilt = _pmul(rebuilt, linear_power(r, m))
        ok &= rebuilt == want_rho and any(r == HALF for r, _ in report.roots)
        ok &= not report.degenerate
        if report.residual.degree >= 1:
            ok &= tables == ["IrrationalSpectrum"] * 2
        else:
            spec = sorted({r for r, _ in report.roots} | {F(1)})
            ok &= all(not isinstance(t, str) and list(t.spectrum) == spec for t in tables)
        for t, tr in zip(ident.terms, trees):
            m = t.monomial
            ok &= pl.peirce_poly(m)(1) == m.degree and pl.peirce_poly(m)(HALF) == 1
            ok &= pl.half_specialization(m) == pl.peirce_symbol(m).substitute("b", HALF)
            n = m.degree
            if shape_of(tr) == "principal":
                ok &= pl.principal_peirce_closed(n) == pl.peirce_poly(m)
                ok &= pl.principal_symbol_closed(n) == pl.peirce_symbol(m)
            elif shape_of(tr) == "plenary":
                k = n.bit_length()
                ok &= pl.plenary_peirce_closed(k) == pl.peirce_poly(m)
                ok &= pl.plenary_symbol_closed(k) == pl.peirce_symbol(m)
        if roots is not None:
            planted = [r if kind == "principal_train" else r / 2 for r in roots]
            ok &= sorted(report.roots) == sorted([(r, 1) for r in planted] + [(HALF, 1)])
            ok &= (pl.train_closed_forms(kind, gamma) == (rho, sym))
        return bool(ok), text

    return Op(kind, f"{kind}:{ident}", call, check, desc)


# --- concrete -------------------------------------------------------------------

# Identity verification on builder x catalog pairs; the last pair is the
# negative control, whose expected verdict is fail.
VERIFY_PAIRS = (
    ("hsiang_sym3", "hsiang", True),
    ("hsiang_sym3", "pseudo_composition", True),
    ("jordan_sym2", "jordan_power_assoc", True),
    ("jordan_sym3", "jordan_power_assoc", True),
    ("spin_factor2", "jordan_power_assoc", True),
    ("spin_factor3", "jordan_power_assoc", True),
    ("jordan_sym2", "hsiang", False),
)

# (builder, idempotent index) -> Peirce multiplicities, known by hand.
EIGEN = {
    ("hsiang_sym3", 0): {F(-1): 2, HALF: 2, F(1): 1},
    ("jordan_sym2", 0): {F(0): 1, HALF: 1, F(1): 1},
    ("jordan_sym2", 1): {F(1): 3},
    ("jordan_sym3", 0): {F(0): 3, HALF: 2, F(1): 1},
    ("jordan_sym3", 1): {F(1): 6},
    ("spin_factor2", 0): {F(1): 3},
    ("spin_factor2", 1): {F(0): 1, HALF: 1, F(1): 1},
    ("spin_factor3", 0): {F(1): 4},
    ("spin_factor3", 1): {F(0): 1, HALF: 2, F(1): 1},
}

SPECTRAL_TRIPLES = (
    ("hsiang_sym3", "hsiang", 0),
    ("hsiang_sym3", "pseudo_composition", 0),
    ("spin_factor2", "jordan_power_assoc", 1),
) + tuple((b, "jordan_power_assoc", i) for b in ("jordan_sym2", "jordan_sym3", "spin_factor3") for i in (0, 1))

# (builder, idempotent, degree, shape); "other" monomials are drawn per cycle.
FIRST_LIN = (
    ("hsiang_sym3", 0, 10, "principal"),
    ("hsiang_sym3", 0, 8, "plenary"),
    ("jordan_sym3", 0, 12, "other"),
    ("spin_factor3", 1, 12, "other"),
)

# (builder, idempotent, lambda, mu, degree, shape); degree <= 8 keeps the
# C(deg, 2) labelling sum of peirce-lab 1.0.0 under 0.3 s per job.  A cycle
# has 46 ops: the 27 eigen, inclusion and fusion checks (1-8 ms) hold ranks
# 1-27, so p50 (rank 23) is one of them; the five hsiang jobs here and the
# two slowest identity checks (0.2-0.3 s) hold ranks 40-46, so p90 (rank 42)
# is the third of them and at least twice the cost of any job below them,
# the spin_factor(SPIN_D) JSON job (about 0.1 s) included.
# The hsiang monomials are the unique principal and plenary ones of degree 8:
# the cost of an "other" one there varies twofold with its shape, which would
# move p90 with the seed.
SECOND_LIN = (
    ("hsiang_sym3", 0, F(-1), HALF, 8, "plenary"),
    ("hsiang_sym3", 0, HALF, F(-1), 8, "principal"),
    ("hsiang_sym3", 0, HALF, HALF, 8, "principal"),
    ("hsiang_sym3", 0, F(-1), F(-1), 8, "principal"),
    ("hsiang_sym3", 0, F(-1), F(-1), 8, "plenary"),
    ("jordan_sym3", 0, F(0), HALF, 7, "other"),
    ("spin_factor3", 1, HALF, HALF, 6, "other"),
)

# spin_factor(SPIN_D) read from JSON and decomposed: the form validation in
# algebra_from_json is O(d^5), so this job is where exact linear algebra and
# validation at a dimension beyond the builders' shows.
SPIN_D = 8


def concrete_setup(pl, seed):
    algebras = {b: pl.build_algebra(b) for b in {p[0] for p in VERIFY_PAIRS}}
    identities = {n: pl.catalog(n) for n in {p[1] for p in VERIFY_PAIRS}}
    tables = {n: pl.fusion_table(identities[n]) for n in {t[1] for t in SPECTRAL_TRIPLES}}
    decomps = {(b, i): pl.eigen_decomposition(algebras[b], algebras[b].idempotents[i]) for b, i in EIGEN}
    monomials, memo = {}, {}
    for d in range(2, 13):
        for m in pl.enumerate_monomials(d):
            monomials.setdefault((d, shape_of(tree_of(m, memo))), []).append(m)
    return {"algebras": algebras, "identities": identities, "tables": tables,
            "decomps": decomps, "monomials": monomials}


def _product(alg, x, y) -> tuple:
    """x * y straight from the structure constants."""
    out = [F(0)] * alg.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, c in enumerate(alg.structure[i][j]):
                    out[k] += xi * yj * c
    return tuple(out)


def _report_text(report) -> str:
    return f"{report.ok}:{'/'.join(report.failures)}"


def _decomp_text(d) -> str:
    parts = [d.char_poly.render(), d.residual.render(), str(d.semisimple)]
    for lam in d.eigenvalues:
        parts.append(fmt_q(lam) + "=" + ";".join(",".join(fmt_q(v) for v in vec) for vec in d.eigenbases[lam]))
    return "|".join(parts)


def _decomp_ok(alg, c, d, expected) -> bool:
    if not d.semisimple or d.residual.degree >= 1:
        return False
    if {lam: d.multiplicity(lam) for lam in d.eigenvalues} != expected:
        return False
    return all(_product(alg, c, v) == tuple(lam * x for x in v)
               for lam in d.eigenvalues for v in d.eigenbases[lam])


def concrete_cycle(pl, ctx, seed, cycle):
    rng = cycle_rng("concrete", seed, cycle)
    algs, idents, tables, decomps = ctx["algebras"], ctx["identities"], ctx["tables"], ctx["decomps"]
    ops = []

    def op(kind, inputs, call, check, dim, monomials=(), eigenvalues=None):
        desc = {"dim": dim}
        if monomials:
            trees = [tree_of(m, {}) for m in monomials]
            desc.update(degree=max(m.degree for m in monomials), shapes=sorted({shape_of(t) for t in trees}),
                        repeated_subtrees=any(has_repeated_subtree(t) for t in trees))
        if eigenvalues is not None:
            desc["eigenvalues"] = eigenvalues
        ops.append(Op(kind, inputs, call, check, desc))

    for b, name, expected in VERIFY_PAIRS:
        alg, ident, trial_seed = algs[b], idents[name], rng.randrange(2**31)
        op("verify_identity", f"{b}:{name}:{trial_seed}",
           lambda alg=alg, ident=ident, s=trial_seed: pl.verify_identity(alg, ident, trials=50, seed=s),
           lambda r, e=expected: (r.ok == e, _report_text(r)), alg.dim,
           monomials=[t.monomial for t in ident.terms])

    for (b, name, i), job in [(t, j) for j in ("eigen", "inclusion", "fusion") for t in SPECTRAL_TRIPLES]:
        alg, ident, table = algs[b], idents[name], tables[name]
        c, expected = alg.idempotents[i], EIGEN[(b, i)]
        if job == "eigen":
            op("eigen_decomposition", f"{b}:{i}", lambda alg=alg, c=c: pl.eigen_decomposition(alg, c),
               lambda d, alg=alg, c=c, e=expected: (_decomp_ok(alg, c, d, e), _decomp_text(d)),
               alg.dim, eigenvalues=len(expected))
        elif job == "inclusion":
            op("spectrum_inclusion_check", f"{b}:{name}:{i}",
               lambda alg=alg, c=c, ident=ident: pl.spectrum_inclusion_check(alg, c, ident),
               lambda r: (r.ok, _report_text(r)), alg.dim, eigenvalues=len(expected))
        else:
            d = decomps[(b, i)]
            op("fusion_empirical", f"{b}:{name}:{i}",
               lambda alg=alg, c=c, t=table, d=d: pl.fusion_empirical(alg, c, t, d),
               lambda r: (r.ok, _report_text(r)), alg.dim, eigenvalues=len(expected))

    for b, i, degree, shape in FIRST_LIN:
        alg, m = algs[b], rng.choice(ctx["monomials"][(degree, shape)])
        c = alg.idempotents[i]
        op("verify_first_linearization", f"{b}:{i}:{m}",
           lambda alg=alg, c=c, m=m: pl.verify_first_linearization(alg, c, m),
           lambda r: (r.ok, _report_text(r)), alg.dim, monomials=[m])

    for b, i, lam, mu, degree, shape in SECOND_LIN:
        alg, m = algs[b], rng.choice(ctx["monomials"][(degree, shape)])
        c, d = alg.idempotents[i], decomps[(b, i)]
        op("verify_second_linearization", f"{b}:{i}:{lam}:{mu}:{m}",
           lambda alg=alg, c=c, m=m, lam=lam, mu=mu, d=d: pl.verify_second_linearization(alg, c, m, lam, mu, d),
           lambda r: (r.ok, _report_text(r)), alg.dim, monomials=[m], eigenvalues=len(EIGEN[(b, i)]))

    ops.append(spin_op(pl, SPIN_D, rng))
    return ops


# --- JSON algebras and planted roots (used by concrete and symbolic) -------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def spin_payload(d: int, rng: random.Random) -> tuple[str, list, list]:
    """spin_factor(d) in the algebra_to_json format, in a shuffled basis.

    The idempotent is c = (e0 + u)/2 with u = (+-3/5, +-4/5) on two seeded
    coordinates, so L_c has eigenvalues 0, 1/2, 1 with multiplicities
    1, d - 1, 1.  The fixed 3-4-5 triple keeps the cost of one d the same
    for every seed.
    """
    n = d + 1
    perm = list(range(n))
    rng.shuffle(perm)
    zero = ["0"] * n
    structure = [[list(zero) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out = structure[perm[i]][perm[j]]
            if i == 0 or j == 0:
                out[perm[max(i, j)]] = "1"
            elif i == j:
                out[perm[0]] = "1"
    i, j = rng.sample(range(1, n), 2)
    abstract = [F(0)] * n
    abstract[0] = HALF
    abstract[i] = F(rng.choice((-3, 3)), 10)
    abstract[j] = F(rng.choice((-4, 4)), 10)
    idem = [F(0)] * n
    for k in range(n):
        idem[perm[k]] = abstract[k]
    payload = {
        "dim": n,
        "structure": structure,
        "bilinear_form": [["1" if r == s else "0" for s in range(n)] for r in range(n)],
        "idempotents": [[fmt_q(v) for v in idem]],
        "name": f"spin_factor{d}",
    }
    return json.dumps(payload), perm, idem


def _spin_product(x, y, perm) -> tuple:
    n = len(perm)
    xa = [x[perm[k]] for k in range(n)]
    ya = [y[perm[k]] for k in range(n)]
    out = [F(0)] * n
    out[0] = xa[0] * ya[0] + sum(xa[k] * ya[k] for k in range(1, n))
    for k in range(1, n):
        out[k] = xa[0] * ya[k] + ya[0] * xa[k]
    result = [F(0)] * n
    for k in range(n):
        result[perm[k]] = out[k]
    return tuple(result)


def planted_poly(bits: int, rng: random.Random):
    """Three roots +-p/q (multiplicities 1, 1, 2) times the irreducible t^2 - s.

    p, q and s are distinct primes, so the divisor counts of the constant and
    leading terms, and with them the candidate count, are the same for every
    seed; s is chosen so that the constant term has exactly `bits` bits.
    """
    pb = max(4, (bits - 10) // 4)
    ps = rng.sample([q for q in range(2**pb, 2 ** (pb + 1)) if _is_prime(q)], 3)
    qs = rng.sample((2, 3, 5, 7, 11, 13), 3)
    roots = sorted((F(rng.choice((-1, 1)) * p, q), m) for p, q, m in zip(ps, qs, (1, 1, 2)))
    core = ps[0] * ps[1] * ps[2] ** 2
    s = _next_prime(-(-(2 ** (bits - 1)) // core))
    while s in ps:
        s = _next_prime(s + 1)
    f = {(2,): F(1), (0,): F(-s)}
    for r, m in roots:
        for _ in range(m):
            f = _pmul(f, {(1,): F(r.denominator), (0,): F(-r.numerator)})
    return f, roots


def spin_op(pl, d: int, rng: random.Random) -> Op:
    """spin_factor(d) from its JSON payload through eigen_decomposition, as ``verify --algebra`` pays it."""
    payload, perm, idem = spin_payload(d, rng)
    expected = {F(0): 1, HALF: d - 1, F(1): 1}

    def call():
        alg = pl.algebra_from_json(payload)
        return pl.eigen_decomposition(alg, alg.idempotents[0])

    def check(dec):
        ok = dec.semisimple and dec.residual.degree < 1
        ok &= {lam: dec.multiplicity(lam) for lam in dec.eigenvalues} == expected
        ok &= all(_spin_product(idem, v, perm) == tuple(lam * x for x in v)
                  for lam in dec.eigenvalues for v in dec.eigenbases[lam])
        return bool(ok), _decomp_text(dec)

    return Op("algebra_json", payload, call, check, {"dim": d + 1, "eigenvalues": 3})


def roots_op(pl, bits: int, rng: random.Random) -> Op:
    """rational_roots on a planted polynomial whose constant term has `bits` bits."""
    f, roots = planted_poly(bits, rng)
    poly = pl.Poly1({e: c for (e,), c in f.items()})

    def check(result):
        found, residual = result
        rebuilt = parse_rendered(residual.render(), "t")
        for r, m in found:
            rebuilt = _pmul(rebuilt, linear_power(r, m))
        ok = list(found) == roots and rebuilt == f and residual.degree == 2
        text = ";".join(f"{fmt_q(r)}^{m}" for r, m in found) + "|" + residual.render()
        return ok, text

    return Op("roots", poly.render(), lambda: pl.rational_roots(poly), check,
              {"degree": 6, "coeff_bits": coeff_bits(f.values()), "eigenvalues": len(roots)})


# --- cli ------------------------------------------------------------------------

# README commands with their golden stdout and exit code.  For the negative
# control a tuple gives the first two and the last line; the indented failure
# lines between them are sampled witnesses, not golden.
README = (
    (["poly", "z^[4]"], 0, "rho = 8*t^3\n"),
    (["symbol", "z^2*z^2"], 0, "D = 4*p + 8*a*b\n"),
    (["spectrum", "--catalog", "hsiang"], 0,
     "rho = 8*t^3 + 8*t^2 - 2*t - 2\nroot -1  multiplicity 1\n"
     "root -1/2  multiplicity 1\nroot 1/2  multiplicity 1\n"),
    (["spectrum", "--catalog", "elduque_labra"], 0, "rho = 0\ndegenerate: true\n"),
    (["fusion", "--catalog", "hsiang", "--mode", "metrized"], 0,
     "mode: metrized_orthogonal\nprecondition: b-orthogonal Peirce components\n"
     "precondition: first-order weight terms vanish off A_c(1)\nspectrum: -1, -1/2, 1/2, 1\n"
     "-1 * -1 = {1}\n-1 * -1/2 = {1/2}\n-1 * 1/2 = {-1/2, 1/2}\n-1 * 1 = {-1}\n"
     "-1/2 * -1/2 = {-1/2, 1}\n-1/2 * 1/2 = {-1, 1/2}\n-1/2 * 1 = {-1/2}\n"
     "1/2 * 1/2 = {-1, -1/2, 1}\n1/2 * 1 = {1/2}\n1 * 1 = {1}\n"),
    (["fusion", "--catalog", "jordan_power_assoc"], 0,
     "mode: generic\nspectrum: 0, 1/2, 1\n0 * 0 = {0, 1}\n0 * 1/2 = {1/2, 1}\n0 * 1 = {0, 1}\n"
     "1/2 * 1/2 = {0, 1}\n1/2 * 1 = {0, 1/2}\n1 * 1 = {1}\n"),
    (["enumerate", "6"], 0,
     "z^6\nz*(z*z^[3])\nz*(z^2*z^3)\nz^2*z^4\nz^2*z^[3]\nz^3*z^3\ncount: 6\n"),
    (["catalog", "list"], 0,
     "identities:\n  bernstein\n  elduque_labra\n  hsiang\n  jordan_power_assoc\n  nourigat_varro\n"
     "  plenary_train\n  principal_train\n  pseudo_composition\n  walcher\nbuilders:\n"
     "  hsiang_sym3\n  jordan_sym2\n  jordan_sym3\n  spin_factor2\n  spin_factor3\n"),
    (["verify", "--builder", "hsiang_sym3", "--catalog", "hsiang", "--idempotent", "0"], 0,
     "[PASS] idempotent\n[PASS] identity holds\n[PASS] spectrum inclusion\n"
     "[PASS] empirical fusion within generic table\neigenvalue -1  multiplicity 2\n"
     "eigenvalue 1/2  multiplicity 2\neigenvalue 1  multiplicity 1\nverdict: pass\n"),
    (["verify", "--builder", "jordan_sym2", "--catalog", "hsiang"], 1,
     ("[PASS] idempotent", "[FAIL] identity holds", "verdict: fail")),
)

# Seeded commands beside the README ones, checked against the definitions
# above: poly/symbol of a random monomial of the given degree, the spectrum of
# a principal train with that many planted roots, and verify on jordan_sym3
# with each of its two idempotents, twice.  18 slots in all: p50 (rank 9) is
# among the twelve ~0.1 s commands, and p90 (rank 17) is the third of the four
# jordan_sym3 verifies (about 0.45 s), which the hsiang verify (0.36 s) would
# have to outlast twice over to displace.
CLI_EXTRA = (("poly", 8), ("poly", 10), ("symbol", 7), ("spectrum_train", 3),
             ("verify_jordan", 0), ("verify_jordan", 1), ("verify_jordan", 0), ("verify_jordan", 1))


def _verify_text(eigen: dict) -> str:
    lines = ["[PASS] idempotent", "[PASS] identity holds", "[PASS] spectrum inclusion",
             "[PASS] empirical fusion within generic table"]
    lines += [f"eigenvalue {fmt_q(lam)}  multiplicity {m}" for lam, m in sorted(eigen.items())]
    return "\n".join(lines + ["verdict: pass"]) + "\n"


def cli_setup(pl, seed):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PEIRCE_LAB_MAX_DEGREE", None)
    return {"env": env, "root": root}


def _expect_stdout(code: int, want):
    def check(result):
        got_code, out = result
        text = f"{got_code}|{out}"
        if isinstance(want, str):
            return got_code == code and out == want, text
        lines = out.splitlines()
        ok = lines[:2] == list(want[:2]) and lines[-1:] == [want[2]]
        return got_code == code and ok and all(x.startswith("    ") for x in lines[2:-1]), text
    return check


def _expect_poly(label: str, names: str, want: dict):
    def check(result):
        code, out = result
        ok = code == 0 and out.startswith(f"{label} = ") and out.count("\n") == 1
        ok = ok and parse_rendered(out[len(label) + 3:], names) == want
        return ok, f"{code}|{out}"
    return check


def cli_cycle(pl, ctx, seed, cycle):
    rng = cycle_rng("cli", seed, cycle)
    jobs = [(argv, _expect_stdout(code, want), {}) for argv, code, want in README]
    for kind, n in CLI_EXTRA:
        if kind in ("poly", "symbol"):
            tree = random_tree(n, rng)
            rho_memo = {}
            want = rho_of(tree, rho_memo) if kind == "poly" else symbol_of(tree, {}, rho_memo)
            check = _expect_poly("rho" if kind == "poly" else "D", "t" if kind == "poly" else "abp", want)
            jobs.append(([kind, text_of(tree)], check, {
                "degree": n, "shapes": [shape_of(tree)], "repeated_subtrees": has_repeated_subtree(tree)}))
        elif kind == "spectrum_train":
            roots = sorted(rng.sample(ROOT_POOL, n))
            rho = {(1,): F(2), (0,): F(-1)}
            for r in roots:
                rho = _pmul(rho, {(1,): F(1), (0,): -r})
            want = tuple(f"root {fmt_q(r)}  multiplicity 1" for r in sorted(roots + [HALF]))
            argv = ["spectrum", "--catalog", "principal_train",
                    "--params", "gamma=" + ":".join(fmt_q(g) for g in gamma_for(roots))]

            def check(result, want=want, rho=rho):
                code, out = result
                lines = out.splitlines()
                ok = code == 0 and lines[0].startswith("rho = ")
                ok = ok and parse_rendered(lines[0][6:], "t") == rho and tuple(lines[1:]) == want
                return ok, f"{code}|{out}"

            jobs.append((argv, check, {"eigenvalues": n + 1}))
        else:
            eigen = EIGEN[("jordan_sym3", n)]
            argv = ["verify", "--builder", "jordan_sym3", "--catalog", "jordan_power_assoc",
                    "--idempotent", str(n)]
            jobs.append((argv, _expect_stdout(0, _verify_text(eigen)), {"dim": 6, "eigenvalues": len(eigen)}))
    ops = []
    for argv, check, desc in jobs:
        ops.append(Op(argv[0], " ".join(argv),
                      lambda argv=argv: _run_subprocess(argv, ctx),
                      check, desc, inproc=lambda argv=argv: _run_inproc(pl, argv)))
    return ops


def run_child(argv: list[str], timeout_s: float = 120, **popen) -> tuple[int, str]:
    """Run a child to completion and return (exit code, stdout).

    subprocess.run(timeout=...) polls the child with sleeps of up to 50 ms,
    which would round every latency up; here a timer kills a hung child and
    the wait itself blocks.
    """
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, **popen) as proc:
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            out, _ = proc.communicate()
        finally:
            killer.cancel()
    return proc.returncode, out


def _run_subprocess(argv, ctx):
    return run_child([sys.executable, "-m", "peirce_lab.cli", *argv], cwd=ctx["root"], env=ctx["env"])


def _run_inproc(pl, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = pl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


WORKLOADS = {
    "symbolic": (symbolic_setup, symbolic_cycle),
    "concrete": (concrete_setup, concrete_cycle),
    "cli": (cli_setup, cli_cycle),
}
