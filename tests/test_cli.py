import io
import json
import random
from contextlib import redirect_stdout

import pytest

from conftest import rand_element
from rhpwn import jsonio
from rhpwn.algebra import RHPWN, WINFTY
from rhpwn.cli import main
from rhpwn.errors import SchemaError
from rhpwn.mupoly import MuPoly


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def element_payload(elt):
    return jsonio.encode_element(elt)


def test_commutator_roundtrip(monkeypatch):
    rng = random.Random(40)
    for tag in (RHPWN, WINFTY):
        a = rand_element(rng, tag)
        b = rand_element(rng, tag)
        payload = json.dumps({"a": element_payload(a), "b": element_payload(b)})
        code, text = run_cli(["commutator"], payload, monkeypatch)
        assert code == 0
        decoded = jsonio.decode_element(json.loads(text))
        from rhpwn.algebra import commutator

        assert decoded == commutator(a, b)


def test_involute_roundtrip(monkeypatch):
    rng = random.Random(41)
    a = rand_element(rng, RHPWN)
    payload = json.dumps({"a": element_payload(a)})
    code, text = run_cli(["involute"], payload, monkeypatch)
    assert code == 0
    from rhpwn.algebra import involution

    assert jsonio.decode_element(json.loads(text)) == involution(a)


def test_stirling_and_normal_order():
    code, text = run_cli(["stirling", "--n", "3", "--k", "2"])
    assert code == 0 and json.loads(text)["value"] == "-3"
    code, text = run_cli(["normal-order", "--n", "2"])
    assert json.loads(text)["terms"] == [
        {"power": 1, "coeff": "-1"},
        {"power": 2, "coeff": "1"},
    ]


def test_vacuum_moment(monkeypatch):
    word = [{"n": 0, "k": 4, "function": "chi_I"}, {"n": 4, "k": 0, "function": "chi_I"}]
    code, text = run_cli(["vacuum-moment"], json.dumps(word), monkeypatch)
    assert code == 0
    assert json.loads(text) == {"mu_poly": ["0", "4"]}


def test_kernel_output():
    code, text = run_cli(["kernel", "--n", "2", "--k", "2"])
    obj = json.loads(text)
    assert obj["pi"] == ["0", "16", "8"]
    assert MuPoly.from_strings(obj["h"]).to_strings() == ["0", "8", "4"]


def test_nogo_boundary():
    code, text = run_cli(["nogo", "--n", "3", "--mu", "18"])
    obj = json.loads(text)
    assert code == 0
    assert obj["verdict"] == "PSD"
    assert obj["threshold"] == "18"
    assert MuPoly.from_strings(obj["d2"]).eval_exact(18).is_zero
    code, text = run_cli(["nogo", "--n", "3", "--mu", "17"])
    assert json.loads(text)["verdict"] == "NOT_PSD"


def test_nogo_out_of_scope_exit_code(capsys):
    assert main(["nogo", "--n", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]


def test_gram_and_inner_product(monkeypatch):
    f = [{"a": "1", "b": "2", "re": "1/5", "im": "0"}]
    payload = json.dumps({"n": 2, "fs": [[], f], "tol": "1/10000000000"})
    code, text = run_cli(["gram"], payload, monkeypatch)
    obj = json.loads(text)
    assert code == 0 and obj["verdict"] == "PSD"
    payload = json.dumps({"n": 1, "f": f, "g": f})
    code, text = run_cli(["inner-product"], payload, monkeypatch)
    value = json.loads(text)
    assert float(value["re"]) == pytest.approx(2.718281828459045 ** 0.04, rel=1e-12)


def test_schema_error_carries_pointer(capsys):
    import sys

    old = sys.stdin
    sys.stdin = io.StringIO(json.dumps({"a": [{"tag": "RHPWN", "n": 1}]}))
    try:
        assert main(["involute"]) == 2
    finally:
        sys.stdin = old
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/a/0"


def test_unknown_field_rejected(capsys):
    import sys

    old = sys.stdin
    payload = {"a": [{"tag": "RHPWN", "n": 1, "k": 0, "pieces": [], "extra": 1}]}
    sys.stdin = io.StringIO(json.dumps(payload))
    try:
        assert main(["involute"]) == 2
    finally:
        sys.stdin = old
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"].endswith("/extra")


def test_split_check_and_mgf_csv():
    code, text = run_cli(["split-check", "--n", "3", "--order", "6"])
    assert code == 0 and json.loads(text)["passed"] is True
    code, text = run_cli(["mgf", "--n", "2", "--t", "1", "--s-grid", "0:0.3:0.1", "--format", "csv"])
    lines = text.strip().splitlines()
    assert lines[0] == "s,closed_form"
    assert len(lines) == 5
    assert lines[1].startswith("0,1")


def test_density_grid_and_scaled():
    code, text = run_cli(["density", "--t", "1", "--x-grid", "0:1:0.5"])
    rows = json.loads(text)["rows"]
    assert [r["x"] for r in rows] == ["0", "0.5", "1"]
    assert float(rows[0]["p"]) == pytest.approx(0.5, rel=1e-10)  # p_1(0) = 1/2
    code, text = run_cli(["density", "--t", "1", "--n", "2", "--x-grid", "0:1:1"])
    rows = json.loads(text)["rows"]
    from rhpwn.processes import density_q_scaled

    assert float(rows[1]["p"]) == pytest.approx(density_q_scaled(2, 1.0, 1.0), rel=1e-12)


def test_sample_deterministic_lines():
    code, first = run_cli(["sample", "--t", "2", "--count", "50", "--seed", "7"])
    code, second = run_cli(["sample", "--t", "2", "--count", "50", "--seed", "7"])
    assert code == 0
    assert first == second
    assert len(first.strip().splitlines()) == 50
    code, as_json = run_cli(["sample", "--t", "2", "--count", "50", "--seed", "7", "--format", "json"])
    obj = json.loads(as_json)
    assert obj["samples"] == first.strip().splitlines()


def test_classical_check_cli(monkeypatch):
    payload = {
        "coeffs": [
            {"n": 2, "k": 0, "re": "1", "im": "1/2"},
            {"n": 0, "k": 2, "re": "1", "im": "-1/2"},
        ],
        "horizon": ["1", "3/2"],
    }
    code, text = run_cli(["classical-check"], json.dumps(payload), monkeypatch)
    assert code == 0 and json.loads(text)["classical"] is True
    payload["coeffs"][1]["im"] = "1/2"
    code, text = run_cli(["classical-check"], json.dumps(payload), monkeypatch)
    assert json.loads(text)["classical"] is False


def test_mgf_domain_error_exit_code(capsys):
    assert main(["mgf", "--n", "2", "--t", "1", "--s-grid", "0:1:0.5"]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["mgf", "--n", "2", "--s-grid", "0:0.1:0.1"],
        ["density", "--x-grid", "0:0.1:0.1"],
        ["sample", "--count", "3", "--seed", "1"],
    ],
)
def test_non_finite_t_rejected(capsys, argv, bad):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(argv + [f"--t={bad}"])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert f"argument --t: must be finite, got '{bad}'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["1/0", "abc"])
def test_bad_mu_rejected(capsys, bad):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["nogo", "--n", "3", "--mu", bad])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert f"argument --mu: not a rational number: '{bad}'" in capsys.readouterr().err


def test_negative_split_order_rejected(capsys):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["split-check", "--n", "2", "--order", "-1"]) == 2
    assert out.getvalue() == ""
    assert "order must be >= 0" in json.loads(capsys.readouterr().err)["error"]


def test_grid_cap(capsys, monkeypatch):
    import rhpwn.cli as cli_mod

    # 10^9 + 1 points: refused from the count, before any point is built.
    assert main(["density", "--t", "2", "--x-grid", "0:1:1e-9"]) == 2
    assert "more than the cap 1000000" in json.loads(capsys.readouterr().err)["error"]
    monkeypatch.setattr(cli_mod, "MAX_GRID_POINTS", 5)
    assert len(cli_mod._parse_grid("0:4:1")) == 5
    with pytest.raises(SchemaError):
        cli_mod._parse_grid("0:5:1")


def _never(*_args, **_kwargs):
    raise AssertionError("the library must not be called")


def assert_refused(capsys, argv, message):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 2
    assert out.getvalue() == ""
    assert message in json.loads(capsys.readouterr().err)["error"]


def test_sample_count_cap(capsys, monkeypatch):
    import rhpwn.cli as cli_mod

    # Counts below 1 are refused before the sampler's table is built.
    monkeypatch.setattr(cli_mod.processes, "SecantSampler", _never)
    for count in ("0", "-1"):
        argv = ["sample", "--t", "2", "--count", count, "--seed", "1"]
        assert_refused(capsys, argv, f"sample count must be >= 1, got {count}")
    monkeypatch.setattr(cli_mod.processes, "sample_X", _never)
    argv = ["sample", "--t", "2", "--count", "1000001", "--seed", "1"]
    assert_refused(capsys, argv, "exceeds the cap 1000000")


def test_stirling_and_kernel_caps(capsys, monkeypatch):
    import rhpwn.cli as cli_mod

    monkeypatch.setattr(cli_mod, "stirling_first", _never)
    monkeypatch.setattr(cli_mod, "normal_order_expansion", _never)
    monkeypatch.setattr(cli_mod.fock, "kernel_values", _never)
    assert_refused(capsys, ["stirling", "--n", "501", "--k", "2"],
                   "stirling --n 501 exceeds the cap 500")
    assert_refused(capsys, ["normal-order", "--n", "501"],
                   "normal-order --n 501 exceeds the cap 500")
    assert_refused(capsys, ["kernel", "--n", "6", "--k", "401"],
                   "kernel --k 401 exceeds the cap 400")


def test_split_check_fock_order_message(capsys):
    assert_refused(capsys, ["split-check", "--n", "0"], "Fock order must be >= 1, got 0")


def test_density_imaginary_residual_is_a_domain_error(capsys, monkeypatch):
    import rhpwn.cli as cli_mod

    monkeypatch.setattr(cli_mod.processes, "complex_log_gamma", lambda z: 1j)
    assert_refused(capsys, ["density", "--t", "2", "--x-grid", "0:1:1"],
                   "density residual imaginary part")


def test_internal_failure_exit_code(capsys, monkeypatch):
    import rhpwn.cli as cli_mod

    def boom(*_args, **_kwargs):
        raise RuntimeError("kaput")

    monkeypatch.setattr(cli_mod.processes, "mgf_eval", boom)
    assert main(["mgf", "--n", "1", "--t", "1", "--s-grid", "0:0.1:0.1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("internal")


def test_byte_identical_reruns():
    for argv in (
        ["nogo", "--n", "4", "--mu", "40"],
        ["kernel", "--n", "3", "--k", "4"],
        ["density", "--t", "2", "--x-grid=-1:1:0.25", "--format", "csv"],
    ):
        _, a = run_cli(list(argv))
        _, b = run_cli(list(argv))
        assert a == b
