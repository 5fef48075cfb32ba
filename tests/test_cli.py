"""Command-line interface: output, JSON schema, exit-code contract."""

import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

import peirce_lab
from peirce_lab.algebras import StructureAlgebra, algebra_to_json, build_algebra, jordan_sym
from peirce_lab.cli import (
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VALIDATION_ERROR,
    EXIT_VERIFY_FAILED,
    main,
)
from peirce_lab.identities import catalog, identity_peirce_poly, identity_to_json, make_identity
from peirce_lab.magma import parse_monomial, principal_power
from peirce_lab.peirce import plenary_symbol_closed

from reference import train_gammas

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command"],
    "properties": {
        "command": {"type": "string"},
        "rho": {"type": "string"},
        "symbol": {"type": "string"},
        "spectrum": {
            "type": "object",
            "required": ["peirce_poly", "degenerate", "roots"],
            "properties": {
                "peirce_poly": {"type": "string"},
                "degenerate": {"type": "boolean"},
                "roots": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["root", "multiplicity"],
                        "properties": {
                            "root": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                            "multiplicity": {"type": "integer", "minimum": 1},
                        },
                    },
                },
            },
        },
        "fusion": {
            "type": "object",
            "required": ["mode", "spectrum", "entries"],
            "properties": {
                "mode": {"enum": ["generic", "metrized_orthogonal"]},
                "entries": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["lam", "mu", "allowed"],
                    },
                },
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ok", "failures"],
            },
        },
        "eigenvalues": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["eigenvalue", "multiplicity"],
                "properties": {
                    "eigenvalue": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                    "multiplicity": {"type": "integer", "minimum": 1},
                },
            },
        },
        "notes": {"type": "array", "items": {"type": "string"}},
        "pass": {"type": "boolean"},
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    # round-trips through re-serialization
    assert json.loads(json.dumps(payload)) == payload
    return code, payload


def test_poly_plenary_power(capsys):
    code, out, _ = run(capsys, "poly", "z^[4]")
    assert code == EXIT_OK
    assert "8*t^3" in out


def test_poly_json(capsys):
    code, payload = run_json(capsys, "poly", "z^[4]")
    assert code == EXIT_OK
    assert payload["rho"] == "8*t^3"


def test_spectrum_hsiang(capsys):
    code, out, _ = run(capsys, "spectrum", "--catalog", "hsiang")
    assert code == EXIT_OK
    for root in ["-1", "-1/2", "1/2"]:
        assert f"root {root}" in out


def test_spectrum_hsiang_json(capsys):
    code, payload = run_json(capsys, "spectrum", "--catalog", "hsiang")
    assert code == EXIT_OK
    roots = {r["root"]: r["multiplicity"] for r in payload["spectrum"]["roots"]}
    assert roots == {"-1": 1, "-1/2": 1, "1/2": 1}


def test_spectrum_degenerate(capsys):
    code, out, _ = run(capsys, "spectrum", "--catalog", "elduque_labra")
    assert code == EXIT_OK
    assert "degenerate: true" in out


def test_symbol_examples(capsys):
    code, out, _ = run(capsys, "symbol", "z^2*z^2")
    assert code == EXIT_OK
    assert "4*p + 8*a*b" in out
    code, out, _ = run(capsys, "symbol", "z")
    assert code == EXIT_OK
    assert "D = 0" in out


def test_symbol_catalog(capsys):
    code, payload = run_json(capsys, "symbol", "--catalog", "hsiang")
    assert code == EXIT_OK
    assert payload["symbol"].startswith("8*p^2")


def test_fusion_metrized_table(capsys):
    code, out, _ = run(capsys, "fusion", "--catalog", "hsiang", "--mode", "metrized")
    assert code == EXIT_OK
    assert "precondition" in out
    assert "-1 * -1 = {1}" in out
    assert "1/2 * 1/2 = {-1, -1/2, 1}" in out


# every catalog family with a rational spectrum, with parameters where it needs them
_RATIONAL_FAMILIES = [
    ["--catalog", "bernstein"],
    ["--catalog", "hsiang"],
    ["--catalog", "jordan_power_assoc"],
    ["--catalog", "pseudo_composition"],
    ["--catalog", "walcher"],
    ["--catalog", "nourigat_varro", "--params", "a1=1,a2=1,b1=1,b2=1,b3=0"],
    ["--catalog", "principal_train", "--params", "gamma=1:-2:-1:2"],
    ["--catalog", "plenary_train", "--params", "gamma=1:-2:-1:2"],
]


@pytest.mark.parametrize("mode", ["generic", "metrized"])
@pytest.mark.parametrize("family", _RATIONAL_FAMILIES, ids=lambda argv: argv[1])
def test_fusion_json_lists_allowed_sets_in_the_text_order(capsys, family, mode):
    """Both outputs list each allowed set in increasing numeric order, so
    `0 * 1/2 = {1/2, 1}` is ["1/2", "1"] in JSON, not the string order."""
    code, out, _ = run(capsys, "fusion", *family, "--mode", mode)
    assert code == EXIT_OK
    text = {}
    for line in out.splitlines():
        if " * " in line:
            pair, body = line.split(" = ")
            text[pair] = body.strip("{}").split(", ") if body != "{}" else []
    code, payload = run_json(capsys, "fusion", *family, "--mode", mode)
    assert code == EXIT_OK
    entries = payload["fusion"]["entries"]
    assert {f"{e['lam']} * {e['mu']}": e["allowed"] for e in entries} == text
    for e in entries:
        assert e["allowed"] == sorted(e["allowed"], key=Fraction)
    if family == ["--catalog", "jordan_power_assoc"] and mode == "generic":
        assert {"lam": "0", "mu": "1/2", "allowed": ["1/2", "1"]} in entries


def test_fusion_degenerate_exit_3(capsys):
    code, _, err = run(capsys, "fusion", "--catalog", "elduque_labra")
    assert code == EXIT_VALIDATION_ERROR
    assert err


def test_enumerate(capsys):
    code, payload = run_json(capsys, "enumerate", "6")
    assert code == EXIT_OK
    assert payload["count"] == 6


def test_enumerate_env_guard(capsys, monkeypatch):
    monkeypatch.setenv("PEIRCE_LAB_MAX_DEGREE", "4")
    code, _, err = run(capsys, "enumerate", "5")
    assert code == EXIT_VALIDATION_ERROR
    monkeypatch.setenv("PEIRCE_LAB_MAX_DEGREE", "5")
    code, out, _ = run(capsys, "enumerate", "5")
    assert code == EXIT_OK
    # a bound below 1 used to exit 3 with "degree must be in 1..-3, got 3"
    for env in ("-3", "0", "x"):
        monkeypatch.setenv("PEIRCE_LAB_MAX_DEGREE", env)
        code, out, err = run(capsys, "enumerate", "3")
        assert (code, out) == (EXIT_PARSE_ERROR, "")
        assert err == f"error: PEIRCE_LAB_MAX_DEGREE must be a positive integer, got {env!r}\n"


def test_catalog_list(capsys):
    code, payload = run_json(capsys, "catalog", "list")
    assert code == EXIT_OK
    assert "hsiang" in payload["identities"]
    assert "hsiang_sym3" in payload["builders"]


def test_verify_pass(capsys):
    code, payload = run_json(
        capsys, "verify", "--builder", "hsiang_sym3", "--catalog", "hsiang", "--idempotent", "0"
    )
    assert code == EXIT_OK
    assert payload["pass"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_verify_negative_control(capsys):
    code, payload = run_json(capsys, "verify", "--builder", "jordan_sym2", "--catalog", "hsiang")
    assert code == EXIT_VERIFY_FAILED
    assert payload["pass"] is False


def _benchmark_readme():
    """README of perfbench/workloads.py, read as a literal: (argv, exit code,
    stdout) with stdout a string, or for a failing verify the first two lines
    and the last."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text())
    value = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "README")
    return ast.literal_eval(value)


_README = _benchmark_readme()


@pytest.mark.parametrize("argv, want_code, want", _README, ids=[" ".join(argv) for argv, _, _ in _README])
def test_benchmark_readme_commands_print_their_goldens(capsys, monkeypatch, argv, want_code, want):
    # the cli workload's goldens, in process, as the benchmark compares them
    monkeypatch.delenv("PEIRCE_LAB_MAX_DEGREE", raising=False)
    code, out, _ = run(capsys, *argv)
    assert code == want_code
    if isinstance(want, str):
        assert out == want
    else:  # the failure lines between carry trial indices
        lines = out.splitlines()
        assert lines[:2] == list(want[:2]) and lines[-1] == want[2]
        assert all(line.startswith("    ") for line in lines[2:-1])


def test_installed_console_script_prints_the_readme_goldens():
    # the script pip puts on PATH, in a new interpreter; fusion goes through the packed zero grid
    script = shutil.which("peirce-lab")
    if script is None:
        pytest.skip("no peirce-lab console script on PATH; pip install -e . puts one there")
    env = dict(os.environ)
    env.pop("PEIRCE_LAB_MAX_DEGREE", None)
    for argv in (["poly", "z^[4]"], ["fusion", "--catalog", "hsiang", "--mode", "metrized"]):
        want = next(out for a, _, out in _README if a == argv)
        done = subprocess.run([script, *argv], env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, want, "")


def test_readme_python_example_prints_what_its_comment_says(capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("\n## Example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.rsplit(")  # ", 1)[1] for line in example.splitlines() if line.startswith("print(") and ")  # " in line]
    exec(compile(example, "README.md", "exec"), {})
    assert want and capsys.readouterr().out.splitlines() == want


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "poly", "z^^")
    assert code == EXIT_PARSE_ERROR
    assert err


def test_zero_sum_violation_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"terms": [{"coeff": "1", "monomial": "z"}]}))
    code, _, err = run(capsys, "spectrum", "--identity", str(bad))
    assert code == EXIT_VALIDATION_ERROR


def test_malformed_identity_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "poly", "--identity", str(bad))
    assert code == EXIT_PARSE_ERROR
    code, _, _ = run(capsys, "poly", "--identity", str(tmp_path / "missing.json"))
    assert code == EXIT_PARSE_ERROR


def test_malformed_algebra_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "alg.json"
    bad.write_text("[1, 2")
    code, _, _ = run(capsys, "verify", "--algebra", str(bad), "--catalog", "hsiang")
    assert code == EXIT_PARSE_ERROR


def test_nonassociating_algebra_file_exit_3(capsys, tmp_path):
    # commutative, but b(e0 e0, e1) = 0 while b(e0, e0 e1) = 1
    bad = tmp_path / "alg.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "structure": [[["1", "0"], ["1", "0"]], [["1", "0"], ["0", "0"]]],
        "bilinear_form": [["1", "0"], ["0", "1"]],
        "idempotents": [["1", "0"]],
    }))
    code, out, err = run(capsys, "verify", "--algebra", str(bad), "--catalog", "jordan_power_assoc")
    assert code == EXIT_VALIDATION_ERROR
    assert err == "error: invalid algebra: bilinear form is not associating on basis triple (0, 0, 1)\n"
    assert out == ""


def test_verify_decomposes_l_c_once(capsys, monkeypatch):
    from peirce_lab import algebras

    calls = []
    inner = algebras.eigen_decomposition
    monkeypatch.setattr(algebras, "eigen_decomposition", lambda *a: calls.append(1) or inner(*a))
    code, out, _ = run(capsys, "verify", "--builder", "hsiang_sym3", "--catalog", "hsiang")
    assert code == EXIT_OK
    assert "[PASS] spectrum inclusion" in out and "[PASS] empirical fusion within generic table" in out
    assert len(calls) == 1


def test_algebra_file_round_trip_via_cli(capsys, tmp_path):
    from peirce_lab.algebras import hsiang_tracefree_sym3, spin_factor

    path = tmp_path / "hsiang.json"
    path.write_text(json.dumps(algebra_to_json(hsiang_tracefree_sym3())))
    code, payload = run_json(
        capsys, "verify", "--algebra", str(path), "--catalog", "hsiang", "--idempotent", "0"
    )
    assert code == EXIT_OK
    assert payload["pass"] is True
    path = tmp_path / "spin8.json"
    path.write_text(json.dumps(algebra_to_json(spin_factor(8))))
    code, out, _ = run(capsys, "verify", "--algebra", str(path), "--catalog", "jordan_power_assoc", "--idempotent", "1")
    assert code == EXIT_OK
    assert {"eigenvalue 1/2  multiplicity 7", "verdict: pass"} <= set(out.splitlines())


def test_weighted_algebra_file_round_trip_via_cli(capsys, tmp_path):
    # the line e*e = e with w(e) = 1 satisfies Bernstein's baric identity
    alg = StructureAlgebra(dim=1, structure=(((Fraction(1),),),), weight=(Fraction(1),), idempotents=((Fraction(1),),))
    path = tmp_path / "line.json"
    path.write_text(json.dumps(algebra_to_json(alg)))
    assert json.loads(path.read_text())["weight"] == ["1"]
    code, payload = run_json(capsys, "verify", "--algebra", str(path), "--catalog", "bernstein")
    assert code == EXIT_OK and payload["pass"] is True
    assert payload["eigenvalues"] == [{"eigenvalue": "1", "multiplicity": 1}]


def test_verify_json_carries_the_eigenvalues_and_notes_of_the_text(capsys, tmp_path):
    # F holds on every power-associative algebra and its rho is 0, so both
    # spectral checks are skipped; --json used to look like a plain pass
    path = tmp_path / "F.json"
    path.write_text(json.dumps(identity_to_json(make_identity([
        (1, parse_monomial("z*(z*z^[3])")), (-1, parse_monomial("z*(z^2*z^3)")),
        (-1, parse_monomial("z^2*z^4")), (1, parse_monomial("z^2*z^[3]")),
    ]))))
    argv = ("verify", "--builder", "jordan_sym3", "--identity", str(path))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    notes = [line for line in out.splitlines() if " skipped: " in line]
    assert notes == [
        "spectrum inclusion skipped: spectrum inclusion is vacuous for a degenerate identity",
        "fusion check skipped: degenerate identity has no fusion table",
    ]
    code, payload = run_json(capsys, *argv)
    assert code == EXIT_OK and payload["pass"] is True
    assert payload["notes"] == notes
    assert [f"eigenvalue {e['eigenvalue']}  multiplicity {e['multiplicity']}" for e in payload["eigenvalues"]] == [
        line for line in out.splitlines() if line.startswith("eigenvalue ")
    ] == ["eigenvalue 0  multiplicity 3", "eigenvalue 1/2  multiplicity 2", "eigenvalue 1  multiplicity 1"]


def test_identity_file_input(capsys, tmp_path):
    from peirce_lab.identities import catalog, identity_to_json

    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(identity_to_json(catalog("jordan_power_assoc"))))
    code, payload = run_json(capsys, "spectrum", "--identity", str(path))
    assert code == EXIT_OK
    roots = {r["root"] for r in payload["spectrum"]["roots"]}
    assert roots == {"0", "1/2", "1"}


def test_conflicting_sources_rejected(capsys):
    code, _, _ = run(capsys, "poly", "z", "--catalog", "hsiang")
    assert code == EXIT_PARSE_ERROR
    code, _, _ = run(capsys, "poly")
    assert code == EXIT_PARSE_ERROR


def test_catalog_params_cli(capsys):
    code, payload = run_json(
        capsys, "spectrum", "--catalog", "principal_train", "--params", "gamma=1:-3:2"
    )
    assert code == EXIT_OK
    assert payload["spectrum"]["degenerate"] is False
    code, _, _ = run(capsys, "spectrum", "--catalog", "principal_train", "--params", "gamma=1:1")
    assert code == EXIT_VALIDATION_ERROR


def test_bad_idempotent_index(capsys):
    code, _, _ = run(capsys, "verify", "--builder", "hsiang_sym3", "--catalog", "hsiang", "--idempotent", "9")
    assert code == EXIT_VALIDATION_ERROR


def test_unrealizable_weight_exit_3(capsys):
    # elduque_labra is baric; hsiang_sym3 carries no weight functional
    code, out, err = run(capsys, "verify", "--builder", "hsiang_sym3", "--catalog", "elduque_labra")
    assert code == EXIT_VALIDATION_ERROR
    assert err == "error: algebra hsiang_sym3 has no weight functional\n"
    assert out == ""


def test_degenerate_identity_skips_the_spectral_checks(capsys, tmp_path):
    # the line with e*e = e and w(e) = 1 satisfies elduque_labra, whose rho is 0
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"dim": 1, "structure": [[["1"]]], "weight": ["1"], "idempotents": [["1"]]}))
    code, out, err = run(capsys, "verify", "--algebra", str(path), "--catalog", "elduque_labra")
    assert (code, err) == (0, "")
    assert out == (
        "[PASS] idempotent\n"
        "[PASS] identity holds\n"
        "spectrum inclusion skipped: spectrum inclusion is vacuous for a degenerate identity\n"
        "eigenvalue 1  multiplicity 1\n"
        "fusion check skipped: degenerate identity has no fusion table\n"
        "verdict: pass\n"
    )


def test_zero_idempotent_exit_3(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 1, "structure": [[["1"]]], "idempotents": [["0"]]}))
    code, out, err = run(capsys, "verify", "--algebra", str(path), "--catalog", "jordan_power_assoc")
    assert code == EXIT_VALIDATION_ERROR
    assert err == "error: idempotent 0 is the zero vector\n"
    assert out == ""


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_trials_below_one(capsys, trials):
    code, out, err = run(capsys, "verify", "--builder", "jordan_sym2", "--catalog", "hsiang", "--trials", trials)
    assert code == EXIT_PARSE_ERROR
    assert "--trials" in err and "Traceback" not in err
    assert "[PASS]" not in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--catalog", "nourigat_varro"],
            "nourigat_varro needs the parameters a1, a2, b1, b2, b3",
        ),
        (["--catalog", "hsiang", "--params", "x=1"], "hsiang has no parameter 'x'; it takes none"),
        (
            ["--catalog", "walcher", "--params", "a_c=1/3:b_c=1"],
            "walcher parameter a_c must be a number, got ['1/3', 'b_c=1']",
        ),
        (
            ["--catalog", "principal_train", "--params", "gamma=1:1/0"],
            "principal_train parameter gamma has a zero denominator: ['1', '1/0']",
        ),
        (
            ["--catalog", "walcher", "--params", "a_c=1/0"],
            "walcher parameter a_c has a zero denominator: '1/0'",
        ),
        (
            ["--catalog", "principal_train", "--params", "gamma=1:x"],
            "principal_train parameter gamma must be a list of numbers, got ['1', 'x']",
        ),
        (
            ["--catalog", "walcher", "--params", "a_c=x"],
            "walcher parameter a_c must be a number, got 'x'",
        ),
        # Fraction would read the literal as an integer of 166 million bits
        (
            ["--catalog", "walcher", "--params", "a_c=1e50000000"],
            "walcher parameter a_c takes no exponent notation, got '1e50000000'",
        ),
        (
            ["--catalog", "principal_train", "--params", "gamma=1:-1e50000000"],
            "principal_train parameter gamma takes no exponent notation, got ['1', '-1e50000000']",
        ),
    ],
    ids=[
        "missing", "unknown", "list-for-a-number", "zero-denominator-in-list", "zero-denominator",
        "not-a-number-in-list", "not-a-number", "exponent-notation", "exponent-notation-in-list",
    ],
)
def test_bad_catalog_parameters_exit_3(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", *argv)
    assert time.perf_counter() - start < 10
    assert code == EXIT_VALIDATION_ERROR
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize(
    "params, message",
    [
        # the last value used to win without a word, here with "needs rank >= 2"
        ("gamma=1:-1,gamma=2", "duplicate --params key 'gamma'"),
        ("gamma=1:-1, gamma =2", "duplicate --params key 'gamma'"),
        ("gamma", "bad --params entry 'gamma', expected k=v"),
    ],
    ids=["repeated-key", "repeated-key-with-spaces", "no-equals-sign"],
)
def test_malformed_params_exit_2(capsys, params, message):
    code, out, err = run(capsys, "spectrum", "--catalog", "principal_train", "--params", params)
    assert code == EXIT_PARSE_ERROR
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("argv", [
    # `poly --params gamma=1 "z^2"` used to print rho = 2*t and exit 0
    ["poly", "--params", "gamma=1", "z^2"],
    ["spectrum", "--identity", "{file}", "--params", "gamma=1"],
    ["verify", "--builder", "jordan_sym2", "--identity", "{file}", "--params", "gamma=1"],
], ids=["poly", "spectrum-identity", "verify-identity"])
def test_params_without_catalog_exit_2(capsys, tmp_path, argv):
    from peirce_lab.identities import catalog

    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(identity_to_json(catalog("jordan_power_assoc"))))
    code, out, err = run(capsys, *(arg.format(file=path) for arg in argv))
    assert code == EXIT_PARSE_ERROR
    assert err == "error: --params needs --catalog\n"
    assert out == ""


def test_deep_principal_power_answers(capsys):
    # rho(z^n) = 2*t^(n-1) + t^(n-2) + ... + t; 3000 is past the default
    # recursion limit on every supported version, and nothing recurses
    for n in (2000, 3000):
        start = time.perf_counter()
        code, out, err = run(capsys, "poly", f"z^{n}")
        assert time.perf_counter() - start < 20
        assert code == EXIT_OK
        assert out.startswith(f"rho = 2*t^{n - 1} + t^{n - 2} + ")
        assert err == ""


def test_deep_parentheses_answer(capsys):
    # the parser keeps its own stack, so nesting past the recursion limit
    # answers
    code, out, err = run(capsys, "poly", "(" * 400 + "z" + ")" * 400)
    assert code == EXIT_OK
    assert out == "rho = 1\n"
    assert err == ""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["poly", "z^[64]"], "rho = 9223372036854775808*t^63"),
        (["symbol", "z^[40]"], f"D = {plenary_symbol_closed(40).render()}"),
    ],
    ids=["poly", "symbol"],
)
def test_deep_plenary_power_is_fast(capsys, argv, expected):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert out == expected + "\n"
    assert err == ""


@pytest.mark.parametrize(
    "payload, code, message",
    [
        ({"terms": []}, EXIT_VALIDATION_ERROR, "identity has no nonzero terms"),
        (
            {"terms": [{"coeff": "x", "monomial": "z"}]},
            EXIT_PARSE_ERROR,
            "cannot read identity file: ",
        ),
        (
            {"terms": [{"coeff": "1/0", "monomial": "z^2"}, {"coeff": "-1", "monomial": "z"}]},
            EXIT_PARSE_ERROR,
            "cannot read identity file: zero denominator in '1/0'\n",
        ),
        (
            {"terms": [{"coeff": "1e50000000", "monomial": "z^2"}, {"coeff": "-1", "monomial": "z"}]},
            EXIT_PARSE_ERROR,
            "cannot read identity file: exponent notation in '1e50000000'\n",
        ),
        ([1, 2], EXIT_PARSE_ERROR, "cannot read identity file: expected a JSON object at the top level, got an array\n"),
        # a file holding a JSON string of a document used to be decoded twice and read
        (
            json.dumps({"terms": [{"coeff": "1", "monomial": "z^2"}, {"coeff": "-1", "monomial": "z"}]}),
            EXIT_PARSE_ERROR,
            "cannot read identity file: expected a JSON object at the top level, got a string\n",
        ),
        (3, EXIT_PARSE_ERROR, "cannot read identity file: expected a JSON object at the top level, got a number\n"),
        (None, EXIT_PARSE_ERROR, "cannot read identity file: expected a JSON object at the top level, got null\n"),
        (
            {
                "terms": [
                    {"coeff": "1", "monomial": "z^2", "weight": {"kind": "baric", "k": -1}},
                    {"coeff": "-1", "monomial": "z"},
                ]
            },
            EXIT_VALIDATION_ERROR,
            "baric exponent must be nonnegative",
        ),
        *(
            (
                {
                    "terms": [
                        {"coeff": "1", "monomial": "z^2", "weight": weight},
                        {"coeff": "-1", "monomial": "z"},
                    ]
                },
                EXIT_PARSE_ERROR,
                f"cannot read identity file: terms[0].weight.k must be a JSON integer, got {got}\n",
            )
            for weight, got in [
                ({"kind": "baric", "k": 1.5}, "1.5"),
                ({"kind": "baric", "k": "2"}, '"2"'),
                ({"kind": "baric", "k": True}, "true"),
                ({"kind": "product", "k": 1.5, "monomials": ["z"]}, "1.5"),
            ]
        ),
        (
            # a string used to be read one character at a time, as b(z, z)
            {
                "terms": [
                    {"coeff": "1", "monomial": "z^2", "weight": {"kind": "product", "k": 0, "monomials": "z"}},
                    {"coeff": "-1", "monomial": "z"},
                ]
            },
            EXIT_PARSE_ERROR,
            'cannot read identity file: terms[0].weight.monomials must be a JSON list, got "z"\n',
        ),
        # these used to end in "string indices must be integers" or an unhashable name
        ({"terms": "abc"}, EXIT_PARSE_ERROR, 'cannot read identity file: terms must be a JSON list, got "abc"\n'),
        ({"terms": [3]}, EXIT_PARSE_ERROR, "cannot read identity file: terms[0] must be a JSON object, got 3\n"),
        (
            {"terms": [{"coeff": "1", "monomial": "z^2"}, {"coeff": "-1", "monomial": "z"}], "name": {"a": 1}},
            EXIT_PARSE_ERROR,
            'cannot read identity file: name must be a JSON string or null, got {"a": 1}\n',
        ),
        # these used to end in "'int' object has no attribute 'get'" or "object of type 'int' has no len()"
        *(
            ({"terms": [term, {"coeff": "-1", "monomial": "z"}]}, EXIT_PARSE_ERROR, f"cannot read identity file: {message}\n")
            for term, message in [
                ({"coeff": "1", "monomial": "z^2", "weight": 3}, "terms[0].weight must be a JSON object, got 3"),
                ({"coeff": "1", "monomial": "z^2", "weight": None}, "terms[0].weight must be a JSON object, got null"),
                ({"coeff": "1", "monomial": 2}, "terms[0].monomial must be a JSON string, got 2"),
                ({"coeff": "1", "monomial": "z^2", "weight": {"kind": "bilinear", "monomial": 2}},
                 "terms[0].weight.monomial must be a JSON string, got 2"),
                ({"coeff": "1", "monomial": "z^2", "weight": {"kind": "product", "monomials": ["z", ["z"]]}},
                 'terms[0].weight.monomials[1] must be a JSON string, got ["z"]'),
                ({"coeff": "1", "monomial": "z^2", "weight": {"kind": "product", "monomials": ["z", 3]}},
                 "terms[0].weight.monomials[1] must be a JSON string, got 3"),
                ({"coeff": "1", "monomial": "z^2", "weight": {"kind": "product", "monomials": "z"}},
                 'terms[0].weight.monomials must be a JSON list, got "z"'),
                # this used to read as the constant weight
                ({"coeff": "1", "monomial": "z^2", "weight": {"k": 2}}, 'terms[0].weight has no "kind", got {"k": 2}'),
                # these used to end in the bare field name, as "'coeff'"
                ({"monomial": "z^2"}, 'terms[0] has no "coeff"'),
                ({"coeff": "1"}, 'terms[0] has no "monomial"'),
                ({"coeff": "1", "monomial": "z^2", "weight": {"kind": "baric"}}, 'terms[0].weight has no "k"'),
                ({"coeff": "1", "monomial": "z^2", "weight": {"kind": "bilinear"}},
                 'terms[0].weight has no "monomial"'),
            ]
        ),
        ({"name": "x"}, EXIT_PARSE_ERROR, 'cannot read identity file: the top-level object has no "terms"\n'),
        (
            {"terms": [{"coeff": "1", "monomial": "z^2", "weight": {"kind": "x"}}, {"coeff": "-1", "monomial": "z"}]},
            EXIT_PARSE_ERROR,
            "cannot read identity file: terms[0].weight.kind: unknown weight kind 'x'\n",
        ),
        # a bad weight value on a later term names that term
        *(
            ({"terms": [{"coeff": "-1", "monomial": "z"}, {"coeff": "1", "monomial": "z^2", "weight": weight}]},
             EXIT_PARSE_ERROR, f"cannot read identity file: terms[1].weight.{message}\n")
            for weight, message in [
                ({"kind": "bilinear", "monomial": 2}, "monomial must be a JSON string, got 2"),
                ({"kind": "product", "monomials": ["z", 3]}, "monomials[1] must be a JSON string, got 3"),
                ({"kind": "product", "monomials": "z"}, 'monomials must be a JSON list, got "z"'),
            ]
        ),
    ],
    ids=[
        "empty-terms",
        "bad-coefficient",
        "zero-denominator-coefficient",
        "exponent-notation-coefficient",
        "top-level-list",
        "double-encoded",
        "top-level-number",
        "top-level-null",
        "negative-baric-exponent",
        "fractional-baric-exponent",
        "string-baric-exponent",
        "boolean-baric-exponent",
        "fractional-product-exponent",
        "string-monomials",
        "string-terms",
        "number-term",
        "object-name",
        "number-weight",
        "null-weight",
        "number-monomial",
        "number-bilinear-monomial",
        "list-in-monomials",
        "number-in-monomials",
        "string-monomials-without-k",
        "weight-without-kind",
        "no-coeff",
        "no-monomial",
        "baric-weight-without-k",
        "bilinear-weight-without-monomial",
        "no-terms",
        "unknown-weight-kind",
        "number-bilinear-monomial-second-term",
        "number-in-monomials-second-term",
        "string-monomials-second-term",
    ],
)
def test_bad_identity_file_exit_codes(capsys, tmp_path, payload, code, message):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    got, out, err = run(capsys, "poly", "--identity", str(path))
    assert time.perf_counter() - start < 10
    assert got == code
    assert err.startswith(f"error: {message}")
    assert out == ""


@pytest.mark.parametrize(
    "value, message",
    [
        ("1/0", "zero denominator in '1/0'"),
        ("x", "Invalid literal for Fraction: 'x'"),
        (1, "expected a rational number as a string, got 1"),
        ("1e50000000", "exponent notation in '1e50000000'"),
        # not exponent notation as Fraction reads it, so Fraction's message stays
        ("1e", "Invalid literal for Fraction: '1e'"),
        ("e5", "Invalid literal for Fraction: 'e5'"),
        ("1/2e5", "Invalid literal for Fraction: '1/2e5'"),
    ],
    ids=["zero-denominator", "not-a-number", "json-number", "exponent-notation", "bare-e", "no-mantissa",
         "exponent-on-a-quotient"],
)
def test_unreadable_number_in_algebra_file_exit_2(capsys, tmp_path, value, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 1, "structure": [[[value]]], "idempotents": [["1"]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--algebra", str(path), "--catalog", "jordan_power_assoc")
    assert time.perf_counter() - start < 10
    assert code == EXIT_PARSE_ERROR
    assert err == f"error: cannot read algebra file: {message}\n"
    assert out == ""


SQUARE = [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]  # e0 e0 = e0, e1 e1 = e1


@pytest.mark.parametrize(
    "payload, catalog, message",
    [
        ({"dim": 2, "structure": SQUARE[:1], "idempotents": [["1", "0"]]},
         "jordan_power_assoc", "structure has length 1, expected 2"),
        ({"dim": 1, "structure": [[["1", "0"]]], "idempotents": [["1"]]},
         "jordan_power_assoc", "structure[0][0] has length 2, expected 1"),
        ({"dim": 2, "structure": SQUARE, "bilinear_form": [["1", "0"], ["0"]], "idempotents": [["1", "0"]]},
         "jordan_power_assoc", "bilinear_form[1] has length 1, expected 2"),
        ({"dim": 1, "structure": [[["1"]]], "idempotents": [["1", "0"]]},
         "jordan_power_assoc", "idempotents[0] has length 2, expected 1"),
        # the weight used to be zipped against shorter vectors and verified
        ({"dim": 1, "structure": [[["1"]]], "weight": ["1", "2"], "idempotents": [["1"]]},
         "bernstein", "weight has length 2, expected 1"),
        ({"dim": 0, "structure": [], "idempotents": []}, "jordan_power_assoc", "dim must be at least 1, got 0"),
        ({"dim": -1, "structure": [], "idempotents": []}, "jordan_power_assoc", "dim must be at least 1, got -1"),
        # an empty weight or form used to read as absent
        ({"dim": 2, "structure": SQUARE, "weight": [], "idempotents": [["1", "0"]]},
         "bernstein", "weight has length 0, expected 2"),
        ({"dim": 2, "structure": SQUARE, "bilinear_form": [], "idempotents": [["1", "0"]]},
         "jordan_power_assoc", "bilinear_form has length 0, expected 2"),
    ],
    ids=[
        "structure-rows", "long-product", "short-form-row", "long-idempotent", "long-weight", "dim-0",
        "dim-negative", "empty-weight", "empty-form",
    ],
)
def test_misshapen_algebra_file_exit_3(capsys, tmp_path, payload, catalog, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--algebra", str(path), "--catalog", catalog)
    assert code == EXIT_VALIDATION_ERROR
    assert err == f"error: invalid algebra: {message}\n"
    assert out == ""


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"dim": 2, "structure": SQUARE, "idempotents": ["10"]}, 'idempotents[0] must be a JSON list, got "10"'),
        ({"dim": 2, "structure": SQUARE, "weight": "10", "idempotents": [["1", "0"]]},
         'weight must be a JSON list, got "10"'),
        ({"dim": 2, "structure": [SQUARE[0], [["0", "0"], "01"]], "idempotents": [["1", "0"]]},
         'structure[1][1] must be a JSON list, got "01"'),
        ({"dim": 2, "structure": SQUARE, "bilinear_form": ["10", ["0", "1"]], "idempotents": [["1", "0"]]},
         'bilinear_form[0] must be a JSON list, got "10"'),
        ({"dim": 1, "structure": "1", "idempotents": [["1"]]}, 'structure must be a JSON list, got "1"'),
        ({"dim": 2, "structure": SQUARE, "idempotents": {"0": ["1", "0"]}},
         'idempotents must be a JSON list, got {"0": ["1", "0"]}'),
        # a list name used to load, and made the algebra unhashable
        ({"dim": 2, "structure": SQUARE, "idempotents": [["1", "0"]], "name": ["x"]},
         'name must be a JSON string or null, got ["x"]'),
        # a file holding a JSON string of a document used to be decoded twice and verify
        (json.dumps({"dim": 1, "structure": [[["1"]]], "idempotents": [["1"]]}),
         "expected a JSON object at the top level, got a string"),
        ([{"dim": 1}], "expected a JSON object at the top level, got an array"),
        (1, "expected a JSON object at the top level, got a number"),
        (None, "expected a JSON object at the top level, got null"),
        # these used to end in the bare field name, as "'dim'"
        ({"structure": [[["1"]]], "idempotents": [["1"]]}, 'the top-level object has no "dim"'),
        ({"dim": 1, "idempotents": [["1"]]}, 'the top-level object has no "structure"'),
    ],
    ids=[
        "idempotent", "weight", "product", "form-row", "structure", "object", "list-name",
        "double-encoded", "top-level-array", "top-level-number", "top-level-null", "no-dim", "no-structure",
    ],
)
def test_string_for_a_list_in_algebra_file_exit_2(capsys, tmp_path, fields, message):
    # a string is iterable, so "10" used to read as the vector (1, 0) and verify
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(fields))
    code, out, err = run(capsys, "verify", "--algebra", str(path), "--catalog", "jordan_power_assoc")
    assert code == EXIT_PARSE_ERROR
    assert err == f"error: cannot read algebra file: {message}\n"
    assert out == ""


@pytest.mark.parametrize("dim, got", [(1.5, "1.5"), (True, "true"), ("x", '"x"')], ids=["float", "bool", "string"])
def test_non_integer_dim_in_algebra_file_exit_2(capsys, tmp_path, dim, got):
    # int() used to read 1.5 and true as 1, and both verified
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": dim, "structure": [[["1"]]], "idempotents": [["1"]]}))
    code, out, err = run(capsys, "verify", "--algebra", str(path), "--catalog", "jordan_power_assoc")
    assert code == EXIT_PARSE_ERROR
    assert err == f"error: cannot read algebra file: dim must be a JSON integer, got {got}\n"
    assert out == ""


def test_undecodable_algebra_file_exit_2(capsys, tmp_path):
    # a UnicodeDecodeError is a ValueError, and used to read as an invalid algebra, exit 3
    path = tmp_path / "alg.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "verify", "--algebra", str(path), "--catalog", "jordan_power_assoc")
    assert code == EXIT_PARSE_ERROR
    assert err.startswith("error: cannot read algebra file: ")
    assert out == ""


DEEP_BRACKETS = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["poly", "--identity"], DEEP_BRACKETS, "cannot read identity file: "),
        (
            ["verify", "--catalog", "hsiang", "--algebra"],
            '{"dim": ' + DEEP_BRACKETS + ', "structure": []}',
            "cannot read algebra file: ",
        ),
    ],
    ids=["identity", "algebra-dim"],
)
def test_json_nested_past_the_recursion_limit_exit_2(capsys, tmp_path, argv, text, message):
    # the JSON decoder raises RecursionError; that is an unreadable file
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_PARSE_ERROR
    assert err.startswith(f"error: {message}")
    assert out == ""


def test_deep_identity_file_round_trips(capsys, tmp_path):
    # identity_to_json writes the 397-factor chain z^[3]*z*...*z with 395
    # nested parentheses, and the CLI reads it back
    m = parse_monomial("z^[3]" + "*z" * 396)
    identity = make_identity([(1, m), (-1, principal_power(m.degree))])
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(identity_to_json(identity)))
    assert path.read_text().count("(") == 395
    start = time.perf_counter()
    code, out, err = run(capsys, "--json", "poly", "--identity", str(path))
    assert code == EXIT_OK
    assert err == ""
    payload = json.loads(out)
    assert payload["input"] == str(identity)
    assert payload["rho"] == identity_peirce_poly(identity).render()
    code, out, err = run(capsys, "poly", "--identity", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert "roots: 0 (x397), 1/2, 1" in out.splitlines()
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["spectrum", "--catalog", "nope"],
            "unknown catalog identity 'nope'; known: bernstein, elduque_labra, hsiang, "
            "jordan_power_assoc, nourigat_varro, plenary_train, principal_train, "
            "pseudo_composition, walcher",
        ),
        (
            ["verify", "--builder", "nope", "--catalog", "hsiang"],
            "unknown builder 'nope'; known: hsiang_sym3, jordan_sym2, jordan_sym3, "
            "spin_factor2, spin_factor3",
        ),
    ],
    ids=["catalog", "builder"],
)
def test_unknown_name_message_has_no_stray_quotes(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE_ERROR
    assert err == f"error: {message}\n"
    assert out == ""


class _FreshRefusal(ValueError):
    """A ValueError subclass that no reader of the command line names."""


# source: (the library call the source is read through, argv, exit-2 prefix, exit-3 prefix)
_SOURCES = {
    "catalog": ("identities.catalog", ["spectrum", "--catalog", "hsiang"], "", ""),
    "identity-file": ("identities.make_identity", ["spectrum", "--identity", "identity.json"],
                      "cannot read identity file: ", ""),
    "monomial": ("magma.parse_monomial", ["poly", "z^2"], "monomial parse error: ", ""),
    "algebra-file": ("algebras.StructureAlgebra", ["verify", "--catalog", "hsiang", "--algebra", "algebra.json"],
                     "cannot read algebra file: ", "invalid algebra: "),
}


@pytest.mark.parametrize("raised, code", [(_FreshRefusal, EXIT_VALIDATION_ERROR), (TypeError, EXIT_PARSE_ERROR)],
                         ids=["ValueError", "TypeError"])
@pytest.mark.parametrize("source", list(_SOURCES))
def test_every_source_refuses_by_the_kind_of_exception(capsys, monkeypatch, tmp_path, source, raised, code):
    """One rule for every input: a TypeError is an input that cannot be read
    (exit 2), and a ValueError that no reader names breaks a rule (exit 3)."""
    call, argv, unreadable, invalid = _SOURCES[source]
    (tmp_path / "identity.json").write_text(json.dumps(identity_to_json(catalog("hsiang"))))
    (tmp_path / "algebra.json").write_text(json.dumps(algebra_to_json(build_algebra("hsiang_sym3"))))
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise raised("the library refused")

    monkeypatch.setattr(f"peirce_lab.{call}", refuse)
    prefix = invalid if code == EXIT_VALIDATION_ERROR else unreadable
    assert run(capsys, *argv) == (code, "", f"error: {prefix}the library refused\n")


@pytest.mark.parametrize("argv, prefix", [
    (["poly", "--identity"], "cannot read identity file: "),
    (["verify", "--catalog", "hsiang", "--algebra"], "cannot read algebra file: "),
], ids=["identity", "algebra"])
def test_integer_past_the_digit_limit_in_a_file_exit_2(capsys, tmp_path, argv, prefix):
    # the JSON decoder raises a plain ValueError for it, which would read as a broken rule
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter reads integer text of any length")
    path = tmp_path / "doc.json"
    path.write_text('{"dim": %s, "terms": [], "structure": []}' % ("1" * (limit + 1)))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err.startswith(f"error: {prefix}Exceeds the limit") and err.count("\n") == 1


_CLI = ("-m", "peirce_lab.cli")
_ODD_PRIMES = [p for p in range(3, 50) if all(p % d for d in range(2, p))]


def _planted_train(roots):
    """--params of the principal train with the roots 1 and `roots`."""
    return "gamma=" + ":".join(map(str, train_gammas(roots)))


_TEN_ROOTS = "gamma=1:-3/4:-479/36:539/48:53713/1296:-4723/108:-5347/216:40949/1296:649/144:-539/72:-1/4:1/2"
# roots (2^61 - 1)/3, -(2^61 - 1)/5 and 1/3
_BIG_ROOTS = ("gamma=1:-4611686018427387922/15:-3190147189883798088512776518874483916/9:"
              "21267647932558653943402482872348573702/45:-5316911983139663487003542222693990401/45")
_LINEARIZATIONS = (
    "from peirce_lab.algebras import eigen_decomposition, jordan_sym, verify_first_linearization, "
    "verify_second_linearization; from peirce_lab.magma import parse_monomial; a = jordan_sym(6); "
    "c = a.idempotents[0]; d = eigen_decomposition(a, c); m = parse_monomial('z^8'); "
    "print(verify_first_linearization(a, c, m).ok, "
    "all(verify_second_linearization(a, c, m, x, y, d).ok for x in d.eigenvalues for y in d.eigenvalues))"
)

# one of 2, 3 and 6 is a square mod every prime above 3, so the squared
# quadratics have a repeated root mod every prime that the root finder may
# use, and only its switch to the square-free part ends the search
_SQUARED_QUADRATICS = (
    "from peirce_lab.poly import Poly1, rational_roots; t = Poly1.t(); h = (t**2 - 2) * (t**2 - 3) * (t**2 - 6); "
    "roots, residual = rational_roots((3 * t - 1) * h**2); print(roots, residual == 3 * h**2)"
)


@pytest.mark.parametrize(
    "argv, timeout, code, want",
    [
        ([*_CLI, "spectrum", "--catalog", "principal_train", "--params",
          "gamma=1:-1:-2305843009213693951:2305843009213693951"], 20, EXIT_OK,
         ["root 1/2  multiplicity 1", "non-rational factor: 2*t^2 - 4611686018427387902"]),
        # planted roots 1/p: every odd prime below 50 divides the leading coefficient
        ([*_CLI, "spectrum", "--catalog", "principal_train", "--params",
          _planted_train(Fraction(1, p) for p in _ODD_PRIMES)], 20, EXIT_OK,
         ["root 1/47  multiplicity 1", "root 1/2  multiplicity 1"]),
        ([*_CLI, "verify", "--builder", "jordan_sym3", "--catalog", "jordan_power_assoc", "--trials", "5000"],
         60, EXIT_OK, ["verdict: pass"]),
        ([*_CLI, "verify", "--algebra", "jordan4.json", "--catalog", "jordan_power_assoc"], 20, EXIT_OK,
         ["[PASS] empirical fusion within generic table", "eigenvalue 1/2  multiplicity 3", "verdict: pass"]),
        ([*_CLI, "verify", "--algebra", "jordan6.json", "--catalog", "jordan_power_assoc"], 20, EXIT_OK,
         ["eigenvalue 0  multiplicity 15", "eigenvalue 1/2  multiplicity 5", "verdict: pass"]),
        (["-c", _LINEARIZATIONS], 20, EXIT_OK, "True True\n"),
        (["-c", _SQUARED_QUADRATICS], 20, EXIT_OK, "[(Fraction(1, 3), 1)] True\n"),
        ([*_CLI, "fusion", "--catalog", "principal_train", "--params", _TEN_ROOTS], 20, EXIT_OK,
         ["spectrum: -3, -2, -2/3, -1/2, -1/3, 1/3, 1/2, 2/3, 3/4, 1, 3/2, 3"]),
        ([*_CLI, "fusion", "--catalog", "principal_train", "--params", _TEN_ROOTS, "--mode", "metrized"], 20,
         EXIT_OK, ["-1/2 * 3/4 = {-3, -2, -2/3, -1/3, 1/3, 2/3, 3/2, 3}"]),
        ([*_CLI, "fusion", "--catalog", "principal_train", "--params", _BIG_ROOTS, "--mode", "metrized"], 20,
         EXIT_OK, ["spectrum: -2305843009213693951/5, 1/3, 1/2, 1, 2305843009213693951/3"]),
        ([*_CLI, "fusion", "--catalog", "principal_train", "--params", "gamma=1:-1:-2:2"], 20,
         EXIT_VALIDATION_ERROR, ["error: non-rational spectral factor remains: 2*t^2 - 4"]),
    ],
    ids=[
        "spectrum-61-bit-train", "spectrum-odd-primes-train", "verify-5000-trials", "verify-jordan-sym4-file",
        "verify-jordan-sym6-file", "linearizations-of-z8-on-jordan-sym6", "roots-of-squared-quadratics",
        "fusion-10-root-train", "fusion-10-root-train-metrized", "fusion-61-bit-train-metrized",
        "fusion-irrational-refusal",
    ],
)
def test_hard_inputs_answer_within_their_time_limit(tmp_path, argv, timeout, code, want):
    # in a subprocess, so that a hang fails the case instead of stalling the suite
    for n in (4, 6):
        if f"jordan{n}.json" in argv:
            (tmp_path / f"jordan{n}.json").write_text(json.dumps(algebra_to_json(jordan_sym(n))))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(peirce_lab.__file__)))
    env.pop("PEIRCE_LAB_MAX_DEGREE", None)
    done = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=timeout)
    assert done.returncode == code
    out = done.stdout if code == EXIT_OK else done.stderr
    if isinstance(want, str):  # the whole output
        assert out == want
    else:  # lines among others
        assert set(want) <= set(out.splitlines())


# Every value a mutation puts in place of a field; deleting the field is one more mutation.
_MUTANTS = (None, True, 1.5, -1, 0, 2, "", "x", "1/0", [], {}, [[]], ["1"], {"kind": "baric"})
_WIRE_DOCUMENTS = {
    "identity": (identity_to_json(catalog("hsiang")), ["spectrum", "--identity"]),
    "algebra": (algebra_to_json(build_algebra("hsiang_sym3")),
                ["verify", "--catalog", "hsiang", "--trials", "3", "--algebra"]),
    "weighted-algebra": (
        {"dim": 1, "structure": [[["1"]]], "bilinear_form": [["1"]], "weight": ["1"], "idempotents": [["1"]]},
        ["verify", "--catalog", "bernstein", "--trials", "3", "--algebra"],
    ),
}


def _field_paths(node, path=()):
    """The path of every field below node; of a list, only its first two entries."""
    children = node.items() if isinstance(node, dict) else enumerate(node[:2]) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _mutations(doc):
    """(label, document) for each field deleted, or replaced by each of _MUTANTS."""
    for path in _field_paths(doc):
        for value in ("delete",) + _MUTANTS:
            mutant = json.loads(json.dumps(doc))
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if value == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield f"{'.'.join(map(str, path))} = {'deleted' if value == 'delete' else json.dumps(value)}", mutant


@pytest.mark.parametrize("name", list(_WIRE_DOCUMENTS))
def test_mutated_wire_documents_get_an_exit_code_and_one_error_line(capsys, tmp_path, name):
    """Each field of a wire document deleted or given a value of another kind:
    the command answers within 2 s with exit 0-3, and a refusal prints no
    report and exactly one `error:` line."""
    doc, argv = _WIRE_DOCUMENTS[name]
    path = tmp_path / "doc.json"
    faults = []
    for label, mutant in _mutations(doc):
        path.write_text(json.dumps(mutant))
        start = time.perf_counter()
        try:
            code = main([*argv, str(path)])
        except Exception as exc:  # a traceback: the input got no defined result
            code = f"none, it raised {exc!r}"
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        if code not in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR):
            faults.append(f"{label}: exit {code}")
        elif code >= EXIT_PARSE_ERROR and (out or not err.startswith("error: ") or err.count("\n") != 1
                                           or not err.endswith("\n")):
            faults.append(f"{label}: exit {code} printed {out!r} and {err!r}")
        elif code < EXIT_PARSE_ERROR and err:
            faults.append(f"{label}: exit {code} printed {err!r} to stderr")
        if elapsed >= 2:
            faults.append(f"{label}: took {elapsed:.2f} s")
    assert faults == []
