"""Command-line interface: output, JSON schema, exit-code contract."""

import json
import time

import jsonschema
import pytest

from peirce_lab.cli import (
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VALIDATION_ERROR,
    EXIT_VERIFY_FAILED,
    main,
)
from peirce_lab.identities import identity_peirce_poly, identity_to_json, make_identity
from peirce_lab.magma import parse_monomial, principal_power
from peirce_lab.peirce import plenary_symbol_closed

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
    from peirce_lab.algebras import algebra_to_json, hsiang_tracefree_sym3

    path = tmp_path / "hsiang.json"
    path.write_text(json.dumps(algebra_to_json(hsiang_tracefree_sym3())))
    code, payload = run_json(
        capsys, "verify", "--algebra", str(path), "--catalog", "hsiang", "--idempotent", "0"
    )
    assert code == EXIT_OK
    assert payload["pass"] is True


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
    code, out, err = run(capsys, "spectrum", *argv)
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
        code, out, err = run(capsys, "poly", f"z^{n}")
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
    got, out, err = run(capsys, "poly", "--identity", str(path))
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
    code, out, err = run(capsys, "verify", "--algebra", str(path), "--catalog", "jordan_power_assoc")
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
    code, out, err = run(capsys, "--json", "poly", "--identity", str(path))
    assert code == EXIT_OK
    assert err == ""
    payload = json.loads(out)
    assert payload["input"] == str(identity)
    assert payload["rho"] == identity_peirce_poly(identity).render()


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
