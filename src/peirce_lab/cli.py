"""Command-line front end.

Commands: poly, spectrum, symbol, fusion, enumerate, verify, catalog list.
Exit codes: 0 success / all verifications pass, 1 a verification failed,
2 an input that cannot be read, 3 an input that is read but breaks a rule.
The kind of the library's exception decides between 2 and 3, in one place
(_refused): one of _UNREADABLE exits 2, any other ValueError exits 3, and
anything else is a bug and keeps its traceback.  The CLI's own argument
checks (--trials below 1, --params without --catalog) raise _CliError.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebras, identities, magma
from .poly import RationalSyntaxError, format_rational

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3

# What a command returns: its text lines, its --json payload and its exit code.
Report = tuple[list[str], dict, int]


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# What the library raises for an input it cannot read: a missing field or an
# unknown name is a KeyError, a wrong JSON type a TypeError; the JSON decoder
# recurses on nested brackets
_UNREADABLE = (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError,
               RationalSyntaxError, magma.MonomialSyntaxError, KeyError, TypeError)


def _refused(read, unreadable: str = "", invalid: str = ""):
    """read(), or a _CliError: exit 2 after the prefix `unreadable` if the input
    cannot be read, exit 3 after the prefix `invalid` on any other ValueError."""
    try:
        return read()
    except _UNREADABLE as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc  # str() would quote a KeyError's
        raise _CliError(f"{unreadable}{message}", EXIT_PARSE_ERROR)
    except ValueError as exc:
        raise _CliError(f"{invalid}{exc}", EXIT_VALIDATION_ERROR)


def _from_file(path: str, reader):
    with open(path) as fh:
        return reader(fh.read())


def _parse_params(text: str | None) -> dict:
    """Parse `k=v,...`; colon-separated values become lists (gamma=1:0:-1)."""
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise _CliError(f"bad --params entry {item!r}, expected k=v", EXIT_PARSE_ERROR)
        key, value = item.split("=", 1)
        key = key.strip()
        if key in out:
            raise _CliError(f"duplicate --params key {key!r}", EXIT_PARSE_ERROR)
        out[key] = value.split(":") if ":" in value else value
    return out


def _read_identity(args) -> identities.WeightedIdentity:
    sources = [s for s in (args.catalog, args.identity, getattr(args, "source", None)) if s]
    if len(sources) != 1:
        raise _CliError(
            "provide exactly one identity source: a monomial argument, "
            "--catalog NAME, or --identity FILE",
            EXIT_PARSE_ERROR,
        )
    if args.params is not None and not args.catalog:
        raise _CliError("--params needs --catalog", EXIT_PARSE_ERROR)
    if args.catalog:
        return _refused(lambda: identities.catalog(args.catalog, _parse_params(args.params)))
    if args.identity:
        return _refused(lambda: _from_file(args.identity, identities.identity_from_json),
                        "cannot read identity file: ")
    # bare monomial: treat as the formal identity 1 * m, no zero-sum demand
    monomial = _refused(lambda: magma.parse_monomial(args.source), "monomial parse error: ")
    return identities.WeightedIdentity([(1, monomial)])


def _is_bare_monomial(args) -> bool:
    return getattr(args, "source", None) is not None and not args.catalog and not args.identity


def _spectrum_payload(report: identities.SpectrumReport) -> dict:
    return {
        "peirce_poly": report.peirce_poly.render(),
        "degenerate": report.degenerate,
        "roots": [{"root": format_rational(r), "multiplicity": m} for r, m in report.roots],
        "residual": report.residual.render(),
    }


def _fusion_payload(table: identities.FusionTable) -> dict:
    """The table with the entries and every set in increasing order; cmd_fusion prints these rows."""
    return {
        "mode": table.mode,
        "spectrum": [format_rational(v) for v in table.spectrum],
        "preconditions": list(table.refinements_applied),
        "entries": [
            {"lam": format_rational(lam), "mu": format_rational(mu),
             "allowed": [format_rational(v) for v in sorted(table.entries[(lam, mu)])]}
            for (lam, mu) in sorted(table.entries)
        ],
    }


def cmd_poly(args) -> Report:
    identity = _read_identity(args)
    rho = identities.identity_peirce_poly(identity)
    lines = [f"rho = {rho.render()}"]
    payload = {"command": "poly", "input": str(identity), "rho": rho.render()}
    if not _is_bare_monomial(args):
        spec = payload["spectrum"] = _spectrum_payload(identities.spectrum(identity))
        if spec["degenerate"]:
            lines.append("degenerate: true")
        else:
            lines.append("roots: " + ", ".join(
                f"{r['root']} (x{r['multiplicity']})" if r["multiplicity"] > 1 else r["root"]
                for r in spec["roots"]
            ))
    return lines, payload, EXIT_OK


def cmd_spectrum(args) -> Report:
    identity = _read_identity(args)
    report = identities.spectrum(identity)
    spec = _spectrum_payload(report)
    lines = [f"rho = {spec['peirce_poly']}"]
    if spec["degenerate"]:
        lines.append("degenerate: true")
    else:
        lines.extend(f"root {r['root']}  multiplicity {r['multiplicity']}" for r in spec["roots"])
        if report.residual.degree >= 1:
            lines.append(f"non-rational factor: {spec['residual']}")
    return lines, {"command": "spectrum", "input": str(identity), "spectrum": spec}, EXIT_OK


def cmd_symbol(args) -> Report:
    identity = _read_identity(args)
    sym = identities.identity_symbol(identity).render()
    label = "D" if _is_bare_monomial(args) else "Y"
    return [f"{label} = {sym}"], {"command": "symbol", "input": str(identity), "symbol": sym}, EXIT_OK


def cmd_fusion(args) -> Report:
    identity = _read_identity(args)
    mode = "metrized_orthogonal" if args.mode == "metrized" else "generic"
    fusion = _fusion_payload(_refused(lambda: identities.fusion_table(identity, mode=mode)))
    lines = [f"mode: {fusion['mode']}"]
    lines.extend(f"precondition: {pre}" for pre in fusion["preconditions"])
    lines.append("spectrum: " + ", ".join(fusion["spectrum"]))
    lines.extend(f"{e['lam']} * {e['mu']} = {{{', '.join(e['allowed'])}}}" for e in fusion["entries"])
    return lines, {"command": "fusion", "input": str(identity), "fusion": fusion}, EXIT_OK


def cmd_enumerate(args) -> Report:
    max_degree = magma.MAX_ENUMERATION_DEGREE
    env = os.environ.get("PEIRCE_LAB_MAX_DEGREE")
    if env:
        try:
            max_degree = int(env)
        except ValueError:
            max_degree = 0  # refused below, as a bound below 1 is
        if max_degree < 1:  # else enumerate_monomials would blame the degree asked for
            raise _CliError(f"PEIRCE_LAB_MAX_DEGREE must be a positive integer, got {env!r}", EXIT_PARSE_ERROR)
    monomials = _refused(lambda: magma.enumerate_monomials(args.degree, max_degree=max_degree))
    texts = [magma.format_monomial(m) for m in monomials]
    lines = texts + [f"count: {len(texts)}"]
    payload = {"command": "enumerate", "degree": args.degree, "count": len(texts), "monomials": texts}
    return lines, payload, EXIT_OK


def _load_algebra(args) -> algebras.StructureAlgebra:
    sources = [s for s in (args.builder, args.algebra) if s]
    if len(sources) != 1:
        raise _CliError("provide exactly one of --builder NAME or --algebra FILE", EXIT_PARSE_ERROR)
    if args.builder:
        return _refused(lambda: algebras.build_algebra(args.builder))
    return _refused(lambda: _from_file(args.algebra, algebras.algebra_from_json),
                    "cannot read algebra file: ", "invalid algebra: ")


def cmd_verify(args) -> Report:
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

    ok_idem = algebra.is_idempotent(c)
    checks = [{"name": "idempotent", "ok": ok_idem, "failures": [] if ok_idem else ["c*c != c"]}]

    id_report = _refused(lambda: algebras.verify_identity(algebra, identity, trials=args.trials))
    checks.append({"name": "identity holds", "ok": id_report.ok, "failures": list(id_report.failures)})

    eigenvalues: list[dict] = []
    notes: list[str] = []
    fusion_notes_from = 0  # the text prints a skipped fusion check after the eigenvalues
    if ok_idem and id_report.ok:
        decomp = algebras.eigen_decomposition(algebra, c)
        try:
            sp = algebras.spectrum_inclusion_check(algebra, c, identity, decomp)
            checks.append({"name": "spectrum inclusion", "ok": sp.ok, "failures": list(sp.failures)})
        except ValueError as exc:  # DegenerateIdentity included
            notes.append(f"spectrum inclusion skipped: {exc}")
        eigenvalues = [
            {"eigenvalue": format_rational(lam), "multiplicity": decomp.multiplicity(lam)}
            for lam in decomp.eigenvalues
        ]
        fusion_notes_from = len(notes)
        try:
            table = identities.fusion_table(identity, mode="generic")
            fu = algebras.fusion_empirical(algebra, c, table, decomp)
            checks.append({"name": "empirical fusion within generic table", "ok": fu.ok,
                           "failures": list(fu.failures)})
        except ValueError as exc:  # DegenerateIdentity included
            notes.append(f"fusion check skipped: {exc}")

    all_ok = all(row["ok"] for row in checks)
    lines = []
    for row in checks:
        lines.append(f"[{'PASS' if row['ok'] else 'FAIL'}] {row['name']}")
        lines.extend(f"    {f}" for f in row["failures"][:5])
    lines.extend(notes[:fusion_notes_from])
    lines.extend(f"eigenvalue {e['eigenvalue']}  multiplicity {e['multiplicity']}" for e in eigenvalues)
    lines.extend(notes[fusion_notes_from:])
    lines.append("verdict: " + ("pass" if all_ok else "fail"))
    payload = {
        "command": "verify",
        "algebra": algebra.name or args.algebra,
        "identity": str(identity),
        "idempotent": args.idempotent,
        "checks": checks,
        "eigenvalues": eigenvalues,
        "notes": notes,
        "pass": all_ok,
    }
    return lines, payload, EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_catalog(args) -> Report:
    names, builders = identities.catalog_names(), algebras.builder_names()
    payload = {"command": "catalog list", "identities": names, "builders": builders}
    lines = ["identities:"]
    lines.extend(f"  {n}" for n in names)
    lines.append("builders:")
    lines.extend(f"  {n}" for n in builders)
    return lines, payload, EXIT_OK


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
    """Run one command and print its report: the text lines, or the payload under --json."""
    args = build_parser().parse_args(argv)
    try:
        lines, payload, code = args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
