import io
import json
import random
from contextlib import redirect_stdout

import pytest

from conftest import rand_element
from rhpwn import jsonio
from rhpwn.algebra import RHPWN, WINFTY
from rhpwn.cli import main
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
