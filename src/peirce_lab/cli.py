"""Command-line front end.

Commands: poly, spectrum, symbol, fusion, enumerate, verify, catalog list.
Exit codes: 0 success / all verifications pass, 1 a verification failed,
2 parse error (monomial text, JSON files, --trials below 1), 3 validation
error (zero-sum violation, degenerate identity, bad parameters).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import algebras, identities, magma
from .poly import RationalSyntaxError, format_rational

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_params(text: str | None) -> dict:
    """Parse `k=v,...`; colon-separated values become lists (gamma=1:0:-1)."""
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise _CliError(f"bad --params entry {item!r}, expected k=v", EXIT_PARSE_ERROR)
        key, value = item.split("=", 1)
        out[key.strip()] = value.split(":") if ":" in value else value
    return out


def _read_identity(args) -> identities.WeightedIdentity:
    sources = [s for s in (args.catalog, args.identity, getattr(args, "source", None)) if s]
    if len(sources) != 1:
        raise _CliError(
            "provide exactly one identity source: a monomial argument, "
            "--catalog NAME, or --identity FILE",
            EXIT_PARSE_ERROR,
        )
    if args.catalog:
        try:
            return identities.catalog(args.catalog, _parse_params(args.params))
        except KeyError as exc:
            raise _CliError(exc.args[0], EXIT_PARSE_ERROR)
        except (identities.CatalogParameterError, ValueError) as exc:
            raise _CliError(str(exc), EXIT_VALIDATION_ERROR)
    if args.identity:
        try:
            with open(args.identity) as fh:
                payload = json.load(fh)
            return identities.identity_from_json(payload)
        except (
            identities.ZeroSumViolation,
            identities.EmptyIdentity,
            identities.InvalidWeight,
        ) as exc:
            raise _CliError(str(exc), EXIT_VALIDATION_ERROR)
        except (OSError, KeyError, TypeError, AttributeError, ValueError, RecursionError) as exc:
            # ValueError covers JSON syntax, monomial syntax and bad numbers;
            # the JSON decoder recurses on nested brackets
            raise _CliError(f"cannot read identity file: {exc}", EXIT_PARSE_ERROR)
    # bare monomial: treat as the formal identity 1 * m, no zero-sum demand
    m = _parse_monomial_arg(args.source)
    return identities.WeightedIdentity(
        (identities.IdentityTerm(Fraction(1), m),), name=None
    )


def _parse_monomial_arg(text: str) -> magma.Monomial:
    try:
        return magma.parse_monomial(text)
    except magma.MonomialSyntaxError as exc:
        raise _CliError(f"monomial parse error: {exc}", EXIT_PARSE_ERROR)


def _is_bare_monomial(args) -> bool:
    return getattr(args, "source", None) is not None and not args.catalog and not args.identity


def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _spectrum_payload(report: identities.SpectrumReport) -> dict:
    return {
        "peirce_poly": report.peirce_poly.render(),
        "degenerate": report.degenerate,
        "roots": [
            {"root": format_rational(r), "multiplicity": m} for r, m in report.roots
        ],
        "residual": report.residual.render(),
    }


def _fusion_payload(table: identities.FusionTable) -> dict:
    return {
        "mode": table.mode,
        "spectrum": [format_rational(v) for v in table.spectrum],
        "preconditions": list(table.refinements_applied),
        "entries": [
            {
                "lam": format_rational(lam),
                "mu": format_rational(mu),
                "allowed": sorted(format_rational(v) for v in table.entries[(lam, mu)]),
            }
            for (lam, mu) in sorted(table.entries)
        ],
    }


def cmd_poly(args) -> int:
    identity = _read_identity(args)
    rho = identities.identity_peirce_poly(identity)
    lines = [f"rho = {rho.render()}"]
    payload = {"command": "poly", "input": str(identity), "rho": rho.render()}
    if not _is_bare_monomial(args):
        report = identities.spectrum(identity)
        payload["spectrum"] = _spectrum_payload(report)
        if report.degenerate:
            lines.append("degenerate: true")
        else:
            lines.append(
                "roots: "
                + ", ".join(
                    f"{format_rational(r)} (x{m})" if m > 1 else format_rational(r)
                    for r, m in report.roots
                )
            )
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    identity = _read_identity(args)
    report = identities.spectrum(identity)
    lines = [f"rho = {report.peirce_poly.render()}"]
    if report.degenerate:
        lines.append("degenerate: true")
    else:
        for root, mult in report.roots:
            lines.append(f"root {format_rational(root)}  multiplicity {mult}")
        if report.residual.degree >= 1:
            lines.append(f"non-rational factor: {report.residual.render()}")
    payload = {
        "command": "spectrum",
        "input": str(identity),
        "spectrum": _spectrum_payload(report),
    }
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_symbol(args) -> int:
    identity = _read_identity(args)
    sym = identities.identity_symbol(identity)
    label = "D" if _is_bare_monomial(args) else "Y"
    lines = [f"{label} = {sym.render()}"]
    payload = {"command": "symbol", "input": str(identity), "symbol": sym.render()}
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_fusion(args) -> int:
    identity = _read_identity(args)
    mode = "metrized_orthogonal" if args.mode == "metrized" else "generic"
    try:
        table = identities.fusion_table(identity, mode=mode)
    except (identities.DegenerateIdentity, identities.IrrationalSpectrum) as exc:
        raise _CliError(str(exc), EXIT_VALIDATION_ERROR)
    lines = [f"mode: {table.mode}"]
    for pre in table.refinements_applied:
        lines.append(f"precondition: {pre}")
    lines.append("spectrum: " + ", ".join(format_rational(v) for v in table.spectrum))
    for (lam, mu) in sorted(table.entries):
        allowed = sorted(table.entries[(lam, mu)])
        body = "{" + ", ".join(format_rational(v) for v in allowed) + "}"
        lines.append(f"{format_rational(lam)} * {format_rational(mu)} = {body}")
    payload = {"command": "fusion", "input": str(identity), "fusion": _fusion_payload(table)}
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    max_degree = magma.MAX_ENUMERATION_DEGREE
    env = os.environ.get("PEIRCE_LAB_MAX_DEGREE")
    if env:
        try:
            max_degree = int(env)
        except ValueError:
            raise _CliError(
                f"PEIRCE_LAB_MAX_DEGREE must be an integer, got {env!r}", EXIT_PARSE_ERROR
            )
    try:
        monomials = magma.enumerate_monomials(args.degree, max_degree=max_degree)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_VALIDATION_ERROR)
    texts = [magma.format_monomial(m) for m in monomials]
    lines = texts + [f"count: {len(texts)}"]
    payload = {"command": "enumerate", "degree": args.degree, "count": len(texts), "monomials": texts}
    _emit(args, lines, payload)
    return EXIT_OK


def _load_algebra(args) -> algebras.StructureAlgebra:
    sources = [s for s in (args.builder, args.algebra) if s]
    if len(sources) != 1:
        raise _CliError("provide exactly one of --builder NAME or --algebra FILE", EXIT_PARSE_ERROR)
    if args.builder:
        try:
            return algebras.build_algebra(args.builder)
        except KeyError as exc:
            raise _CliError(exc.args[0], EXIT_PARSE_ERROR)
    try:
        with open(args.algebra) as fh:
            payload = json.load(fh)
        return algebras.algebra_from_json(payload)
    except (
        OSError,
        json.JSONDecodeError,
        RecursionError,  # the JSON decoder recurses on nested brackets
        RationalSyntaxError,
        KeyError,
        TypeError,
    ) as exc:
        raise _CliError(f"cannot read algebra file: {exc}", EXIT_PARSE_ERROR)
    except ValueError as exc:
        raise _CliError(f"invalid algebra: {exc}", EXIT_VALIDATION_ERROR)


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise _CliError(f"--trials must be at least 1, got {args.trials}", EXIT_PARSE_ERROR)
    algebra = _load_algebra(args)
    identity = _read_identity(args)
    if not algebra.idempotents:
        raise _CliError("algebra declares no idempotents", EXIT_VALIDATION_ERROR)
    if not 0 <= args.idempotent < len(algebra.idempotents):
        raise _CliError(
            f"--idempotent must be in 0..{len(algebra.idempotents) - 1}", EXIT_VALIDATION_ERROR
        )
    c = algebra.idempotents[args.idempotent]
    if not any(c):
        raise _CliError(f"idempotent {args.idempotent} is the zero vector", EXIT_VALIDATION_ERROR)
    checks: list[tuple[str, bool, list[str]]] = []

    ok_idem = algebra.is_idempotent(c)
    checks.append(("idempotent", ok_idem, [] if ok_idem else ["c*c != c"]))

    try:
        id_report = algebras.verify_identity(algebra, identity, trials=args.trials)
    except algebras.UnrealizableWeight as exc:
        raise _CliError(str(exc), EXIT_VALIDATION_ERROR)
    checks.append(("identity holds", id_report.ok, list(id_report.failures)))

    spectrum_lines: list[str] = []
    if ok_idem and id_report.ok:
        decomp = algebras.eigen_decomposition(algebra, c)
        try:
            sp = algebras.spectrum_inclusion_check(algebra, c, identity, decomp)
            checks.append(("spectrum inclusion", sp.ok, list(sp.failures)))
        except (ValueError, identities.DegenerateIdentity) as exc:
            spectrum_lines.append(f"spectrum inclusion skipped: {exc}")
        for lam in decomp.eigenvalues:
            spectrum_lines.append(
                f"eigenvalue {format_rational(lam)}  multiplicity {decomp.multiplicity(lam)}"
            )
        try:
            table = identities.fusion_table(identity, mode="generic")
            fu = algebras.fusion_empirical(algebra, c, table, decomp)
            checks.append(("empirical fusion within generic table", fu.ok, list(fu.failures)))
        except (identities.DegenerateIdentity, ValueError) as exc:
            spectrum_lines.append(f"fusion check skipped: {exc}")

    all_ok = all(ok for _, ok, _ in checks)
    lines = []
    for name, ok, failures in checks:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}")
        lines.extend(f"    {f}" for f in failures[:5])
    lines.extend(spectrum_lines)
    lines.append("verdict: " + ("pass" if all_ok else "fail"))
    payload = {
        "command": "verify",
        "algebra": algebra.name or args.algebra,
        "identity": str(identity),
        "idempotent": args.idempotent,
        "checks": [
            {"name": name, "ok": ok, "failures": failures} for name, ok, failures in checks
        ],
        "pass": all_ok,
    }
    _emit(args, lines, payload)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_catalog(args) -> int:
    if args.what != "list":
        raise _CliError(f"unknown catalog action {args.what!r}", EXIT_PARSE_ERROR)
    names, builders = identities.catalog_names(), algebras.builder_names()
    payload = {"command": "catalog list", "identities": names, "builders": builders}
    lines = ["identities:"]
    lines.extend(f"  {n}" for n in names)
    lines.append("builders:")
    lines.extend(f"  {n}" for n in builders)
    _emit(args, lines, payload)
    return EXIT_OK


def _add_identity_source(parser, positional: bool = True) -> None:
    if positional:
        parser.add_argument("source", nargs="?", help="monomial text, e.g. \"z^[4]\" or \"z^2*z^2\"")
    parser.add_argument("--catalog", help="named identity family")
    parser.add_argument("--params", help="family parameters k=v,... (lists colon-separated)")
    parser.add_argument("--identity", help="identity JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peirce-lab",
        description="Peirce polynomials, spectra, symbols, and fusion tables "
        "of commutative nonassociative algebra identities.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="Peirce polynomial of a monomial or identity")
    _add_identity_source(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("spectrum", help="roots of the identity's Peirce polynomial")
    _add_identity_source(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("symbol", help="Peirce symbol / Y polynomial in (a, b, p)")
    _add_identity_source(p)
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("fusion", help="fusion table of an identity")
    _add_identity_source(p)
    p.add_argument("--mode", choices=["generic", "metrized"], default="generic")
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("enumerate", help="all monomials of a given degree")
    p.add_argument("degree", type=int)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="check an identity on a concrete algebra")
    _add_identity_source(p, positional=False)
    p.add_argument("--builder", help="built-in algebra name")
    p.add_argument("--algebra", help="algebra JSON file")
    p.add_argument("--idempotent", type=int, default=0, help="index into the algebra's idempotent list")
    p.add_argument("--trials", type=int, default=50, help="random vectors for the identity check (at least 1)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list catalog identities and builders")
    p.add_argument("what", choices=["list"])
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
