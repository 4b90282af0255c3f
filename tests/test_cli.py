import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rand_element
from oracles import mu_poly_from_strings
from rhpwn import cli, jsonio
from rhpwn.algebra import RHPWN, WINFTY
from rhpwn.cli import main
from rhpwn.errors import SchemaError


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


@pytest.mark.parametrize("word", [
    [{"n": 0, "k": 1}, {"n": 1, "k": 0, "function": [{"a": "0", "b": "1", "re": "1"}]}],
    [{"n": 0, "k": 1, "function": [{"a": "0", "b": "1", "re": "1"}]}, {"n": 1, "k": 0}],
], ids=["chi-left", "chi-right"])
def test_vacuum_moment_refuses_a_product_of_chi_and_a_step_function(word, capsys, monkeypatch):
    code, text = run_cli(["vacuum-moment"], json.dumps(word), monkeypatch)
    assert code == 2 and text == ""
    assert json.loads(capsys.readouterr().err) == {
        "error": "cannot mix symbolic chi_I with concrete step functions"
    }


def test_kernel_output():
    code, text = run_cli(["kernel", "--n", "2", "--k", "2"])
    obj = json.loads(text)
    assert obj["pi"] == ["0", "16", "8"]
    assert mu_poly_from_strings(obj["h"]).to_strings() == ["0", "8", "4"]


def test_nogo_boundary():
    code, text = run_cli(["nogo", "--n", "3", "--mu", "18"])
    obj = json.loads(text)
    assert code == 0
    assert obj["verdict"] == "PSD"
    assert obj["threshold"] == "18"
    assert mu_poly_from_strings(obj["d2"]).eval_exact(18).is_zero
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


def test_key_value_csv_reads_back_two_fields_per_row(monkeypatch):
    cases = [
        (["nogo", "--n", "3"], None),
        (["classical-check"], _CLASSICAL),
        (["classical-check"], _NOT_HERMITIAN),
    ]
    for argv, payload in cases:
        stdin_text = None if payload is None else json.dumps(payload)
        code, text = run_cli(argv + ["--format", "csv"], stdin_text, monkeypatch)
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and all(len(row) == 2 for row in rows), rows
        cells = dict(rows)
        obj = json.loads(run_cli(argv, stdin_text, monkeypatch)[1])
        for key, value in obj.items():
            if value is None:
                assert cells[key] == ""
            elif isinstance(value, list):
                assert cells[key] == ";".join(str(v) for v in value)
            else:
                assert cells[key] == str(value)
    assert cells["witness"] == "c[1,2] = 2 but conj(c[2,1]) = 1"


def test_csv_cell_quotes_as_the_csv_module_does():
    row = ["a,b", 'say "hi"', None, 1.5, True, "x\ny", "", "plain", 'q"']
    theirs = io.StringIO()
    csv.writer(theirs, lineterminator="\n").writerow(row)
    assert ",".join(cli._csv_cell(cell) for cell in row) + "\n" == theirs.getvalue()


def test_density_grid_and_scaled():
    code, text = run_cli(["density", "--t", "1", "--x-grid", "0:1:0.5"])
    rows = json.loads(text)["rows"]
    assert [r["x"] for r in rows] == ["0", "0.5", "1"]
    assert float(rows[0]["p"]) == pytest.approx(0.5, rel=1e-10)  # p_1(0) = 1/2
    code, text = run_cli(["density", "--t", "1", "--n", "2", "--x-grid", "0:1:1"])
    rows = json.loads(text)["rows"]
    from rhpwn.processes import scaled_density

    assert float(rows[1]["p"]) == pytest.approx(scaled_density(2, 1.0)(1.0), rel=1e-12)


def test_sample_deterministic_lines():
    code, first = run_cli(["sample", "--t", "2", "--count", "50", "--seed", "7"])
    code, second = run_cli(["sample", "--t", "2", "--count", "50", "--seed", "7"])
    assert code == 0
    assert first == second
    assert len(first.strip().splitlines()) == 50
    code, as_json = run_cli(["sample", "--t", "2", "--count", "50", "--seed", "7", "--format", "json"])
    obj = json.loads(as_json)
    assert obj["samples"] == first.strip().splitlines()


def test_sample_csv_holds_no_second_copy_of_the_samples(monkeypatch):
    # The CSV rows are generated one at a time, so the default format peaks
    # no higher than --format json, which streams the same strings.  The
    # draws are made once, before tracing, and served to both runs.
    import tracemalloc

    from rhpwn import processes

    draws = processes.sample_X(2.0, 200000, 1)
    monkeypatch.setattr(processes, "sample_X", lambda t, count, seed: draws)

    def peak_mb(fmt):
        argv = ["sample", "--t", "2", "--count", "200000", "--seed", "1", "--format", fmt]
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr("sys.stdout", sink)
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

    csv_peak, json_peak = peak_mb("csv"), peak_mb("json")
    assert csv_peak <= json_peak + 1, (csv_peak, json_peak)


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


def test_classical_check_non_hermitian_family_commutes(monkeypatch):
    # x(t) = (1+i) B[1,0](chi_[0,t)) is not Hermitian, but it commutes with
    # itself at any two times.
    payload = '{"coeffs":[{"n":1,"k":0,"re":"1","im":"1"}],"horizon":["1","3/2"]}'
    code, text = run_cli(["classical-check"], payload, monkeypatch)
    assert code == 0
    assert text == (
        '{\n  "classical": false,\n  "hermitian": false,\n  "commuting": true,\n'
        '  "witness": "c[1,0] = 1+1i but conj(c[0,1]) = 0"\n}\n'
    )


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


@pytest.mark.parametrize("bad", ["1/0", "abc", "nan", "1e1000000"])
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


def _grid_by_loop(spec):
    # the grid as it was built before: a running sum up to stop + step/1000
    start, stop, step = (Fraction(p) for p in spec.split(":"))
    values = []
    v = start
    while v <= stop + step / 1000:
        values.append(v)
        v += step
    return values


def test_grid_matches_running_sum():
    import rhpwn.cli as cli_mod

    specs = [
        "0:1:0.3",  # step does not divide the range
        "0:6001/6000:1/3",  # stop just above a grid point
        "0:5999/6000:1/3",  # stop within step/1000 below a grid point
        "0:2999/3000:1/3",  # stop exactly step/1000 below a grid point
        "0:2998/3000:1/3",  # stop just past step/1000 below a grid point
        "2:2:1",  # one point
        "1/3:1/3:1/7",
        "-3:3:1/4",
        "-1:-1/2:0.1",
        "-7/3:5/6:2/9",
    ]
    rng = random.Random(1234)
    for _ in range(200):
        start = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
        step = Fraction(rng.randint(1, 300), rng.randint(1, 90))
        near = Fraction(rng.randint(-3, 3), 1000 * rng.randint(1, 3))
        stop = start + step * (rng.randint(0, 40) + near)
        if stop >= start:
            specs.append(f"{start}:{stop}:{step}")
    for spec in specs:
        got = cli_mod._parse_grid(spec)
        want = _grid_by_loop(spec)
        assert got == [float(v) for v in want], spec


_GRID_START = st.one_of(
    st.builds("{}/{}".format, st.integers(-10**40, 10**40), st.integers(1, 10**30)),
    st.builds("{}e{}".format, st.integers(-10**6, 10**6), st.integers(-210, 210)),
)
_GRID_STEP = st.one_of(
    st.builds("{}/{}".format, st.integers(1, 10**40), st.integers(1, 10**30)),
    st.builds("{}e{}".format, st.integers(1, 10**6), st.integers(-210, 210)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_GRID_START, _GRID_STEP, st.integers(0, 30), st.sampled_from([-1, 0, 1]))
def test_grid_points_are_the_floats_of_the_exact_points(start_text, step_text, last, nudge):
    # stop lies within step/1000 of the last point, on either side
    start, step = Fraction(start_text), Fraction(step_text)
    stop = start + step * (last + Fraction(nudge, 1001))
    assume(stop >= start)
    got = cli._parse_grid(f"{start_text}:{stop}:{step_text}")
    assert got == [float(start + i * step) for i in range(last + 1)]


def _never(*_args, **_kwargs):
    raise AssertionError("the library must not be called")


def assert_refused(capsys, argv, message):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 2
    assert out.getvalue() == ""
    assert message in json.loads(capsys.readouterr().err)["error"]


# One rational field of each payload command, with @ standing for the value.
_RATIONAL_FIELDS = [
    ("inner-product", '{"n": 2, "f": [{"a": "0", "b": @, "re": "1/5"}], "g": []}', "/f/0/b"),
    ("vacuum-moment", '[{"n": 0, "k": 1, "function": [{"a": @, "b": "1", "re": "1"}]}]',
     "/0/function/0/a"),
    ("gram", '{"n": 2, "fs": [[]], "tol": @}', "/tol"),
    ("classical-check", '{"coeffs": [{"n": 1, "k": 1, "re": @}], "horizon": ["1"]}',
     "/coeffs/0/re"),
    ("classical-check", '{"coeffs": [], "horizon": ["1", @]}', "/horizon/1"),
]


@pytest.mark.parametrize("value", ["1e400", "-1e400", "NaN", "true"])
@pytest.mark.parametrize("command, template, pointer", _RATIONAL_FIELDS,
                         ids=[f"{c}{ptr}" for c, _, ptr in _RATIONAL_FIELDS])
def test_non_finite_payload_rational_rejected(capsys, monkeypatch, command, template,
                                              pointer, value):
    # json reads 1e400 as inf, NaN as nan and true as a bool: none is a rational
    code, text = run_cli([command], template.replace("@", value), monkeypatch)
    assert code == 2
    assert text == ""
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == pointer
    assert err["error"].startswith(f"{pointer}: expected a rational")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mgf", "--n", "1", "--t", "1000", "--s-grid", "0:40:40"], "overflows a float"),
        (["mgf", "--n", "2", "--t", "1e300", "--s-grid", "0:0.5:0.5"], "overflows a float"),
        (["mgf", "--n", "1", "--t", "1e308", "--s-grid", "0:30:30"], "overflows a float"),
        (["mgf", "--n", "2", "--t", "1e308", "--s-grid", "0:0:1"], "overflows a float"),
        (["density", "--t", "1e300", "--x-grid", "0:0:1"], "exceeds 10000"),
        (["density", "--t", "1e300", "--n", "2", "--x-grid", "0:0:1"], "exceeds 10000"),
        (["sample", "--t", "1e5", "--count", "2", "--seed", "1"], "exceeds 10000"),
        (["mgf", "--n", "1", "--t", "1", "--s-grid", "1e400:1e400:1"], "leaves the float range"),
        (["density", "--t", "1", "--x-grid=-1e400:0:1"], "leaves the float range"),
        # stop is in range, but the last point lies past it by up to step/1000
        (["density", "--t", "1", "--x-grid", "0:1.7976931348623157e308:8.99e307"],
         "leaves the float range"),
    ],
)
def test_numbers_beyond_the_float_domain_exit_2(capsys, argv, message):
    assert_refused(capsys, argv, message)



def _pieces(*triples):
    return [{"a": a, "b": b, "re": re} for a, b, re in triples]


_ACROSS_ZERO_A = _pieces(("-1", "0", "1"), ("0", "1", "2"))
_ACROSS_ZERO_B = _pieces(("-1", "0", "2"), ("0", "1", "1"))


def test_products_across_zero_are_computed(capsys, monkeypatch):
    # f * g is 2 on [-1, 0) and on [0, 1): two pieces that touch at 0
    payload = {"a": [{"tag": "RHPWN", "n": 0, "k": 1, "pieces": _ACROSS_ZERO_A}],
               "b": [{"tag": "RHPWN", "n": 1, "k": 0, "pieces": _ACROSS_ZERO_B}]}
    code, text = run_cli(["commutator"], json.dumps(payload), monkeypatch)
    assert code == 0
    two = {"re": "2", "im": "0"}
    assert json.loads(text) == [{"tag": "RHPWN", "n": 0, "k": 0, "pieces": [
        {"a": "-1", "b": "0", **two}, {"a": "0", "b": "1", **two}]}]
    word = [{"n": 0, "k": 1, "function": _ACROSS_ZERO_A},
            {"n": 1, "k": 0, "function": _ACROSS_ZERO_B}]
    code, text = run_cli(["vacuum-moment"], json.dumps(word), monkeypatch)
    assert code == 0 and json.loads(text) == {"mu_poly": ["4"]}
    payload = {"n": 1, "f": _pieces(("-1", "0", "1/2"), ("0", "1", "1/4")),
               "g": _pieces(("-1", "0", "1/4"), ("0", "1", "1/2"))}
    code, text = run_cli(["inner-product"], json.dumps(payload), monkeypatch)
    assert code == 0
    assert json.loads(text) == {"n": 1, "re": cli._fmt(math.exp(0.25)), "im": "0"}
    # an input piece across 0 is still refused
    payload = {"n": 1, "f": _pieces(("-1", "1", "1")), "g": []}
    code, text = run_cli(["inner-product"], json.dumps(payload), monkeypatch)
    assert code == 2 and text == ""
    assert "straddles 0" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("inner-product", {"n": 1, "f": _pieces(("0", "1", "30")),
                           "g": _pieces(("0", "1", "30"))}, "leaves the float range"),
        ("inner-product", {"n": 2, "f": _pieces(("0", "100000", "1/10")),
                           "g": _pieces(("0", "100000", "1/10"))}, "leaves the float range"),
        ("inner-product", {"n": 2, "f": _pieces(("0", "1e400", "1/10")),
                           "g": _pieces(("0", "1e400", "1/10"))}, "leaves the float range"),
        ("gram", {"n": 1, "fs": [_pieces(("0", "1", "30"))]}, "leaves the float range"),
        ("gram", {"n": 1, "fs": [], "tol": "1e400"}, "/tol: tol leaves the float range"),
    ],
    ids=["n1-exponent", "n2-exponent", "piece-length", "gram-entry", "gram-tol"],
)
def test_float_overflow_exits_2(capsys, monkeypatch, command, payload, message):
    code, text = run_cli([command], json.dumps(payload), monkeypatch)
    assert code == 2 and text == ""
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


def test_gram_size_cap(capsys, monkeypatch):
    import rhpwn.cli as cli_mod

    monkeypatch.setattr(cli_mod, "MAX_GRAM_SIZE", 2)
    _, text = run_cli(["gram"], json.dumps({"n": 2, "fs": [[], []]}), monkeypatch)
    assert json.loads(text)["verdict"] == "PSD"
    # Refused from the length, before any function is decoded or the matrix built.
    monkeypatch.setattr(cli_mod.fock, "gram_psd_check", _never)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": 2, "fs": ["x", "y", "z"]})))
    assert_refused(capsys, ["gram"], "gram fs length 3 exceeds the cap 2")


def test_word_length_cap(capsys, monkeypatch):
    import rhpwn.cli as cli_mod

    # (B[0,1])^128 (B[1,0])^128 over chi_I: 256 factors, the most allowed.
    balanced = [{"n": 0, "k": 1}] * 128 + [{"n": 1, "k": 0}] * 128
    code, text = run_cli(["vacuum-moment"], json.dumps(balanced), monkeypatch)
    assert code == 0
    assert json.loads(text)["mu_poly"][-1] == str(math.factorial(128))
    # One more factor is refused before the reduction starts; 500 of them
    # used to overflow the recursion and exit 1.
    monkeypatch.setattr(cli_mod, "vacuum_expectation", _never)
    word = [{"n": 0, "k": 1}] + [{"n": 1, "k": 0}] * 256
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(word)))
    assert_refused(capsys, ["vacuum-moment"], "vacuum-moment word length 257 exceeds the cap 256")


def test_inner_product_at_the_bound_is_computed(capsys, monkeypatch):
    # |f|^2 = 1/4 - 10^-20 at order 2 (bound 1/4): <psi(f), psi(f)> =
    # (1 - 4|f|^2)^(-1/2) = 5e9, once the cancelled float base is redone exactly
    piece = [{"a": "0", "b": "1", "re": "49999999999999999999/100000000000000000000"}]
    payload = {"n": 2, "f": piece, "g": piece}
    code, text = run_cli(["inner-product"], json.dumps(payload), monkeypatch)
    assert code == 0
    out = json.loads(text)
    assert float(out["re"]) == pytest.approx(5e9, rel=1e-12)
    assert out["im"] == "0"


def test_parser_is_built_once(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    run_cli(["stirling", "--n", "3", "--k", "1"])
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _, kernel = run_cli(["kernel", "--n", "3", "--k", "5"])
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--n", "3"])
    assert exc.value.code == 2
    _, nogo = run_cli(["nogo", "--n", "3", "--mu", "37/2"])
    _, sample = run_cli(["sample", "--t", "2", "--count", "20", "--seed", "7"])
    assert built == []
    # A later call prints what a call in a fresh process prints.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, text in (
        (["kernel", "--n", "3", "--k", "5"], kernel),
        (["nogo", "--n", "3", "--mu", "37/2"], nogo),
        (["sample", "--t", "2", "--count", "20", "--seed", "7"], sample),
    ):
        fresh = subprocess.run([sys.executable, "-m", "rhpwn.cli"] + argv, env=env,
                               capture_output=True, text=True, check=True)
        assert fresh.stdout == text, argv


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


# -- pinned stdout bytes ---------------------------------------------------------

_PIECE = {"a": "0", "b": "1", "re": "1/5", "im": "0"}
_COMMUTATOR_PAYLOAD = {
    "a": [
        {"tag": "RHPWN", "n": 2, "k": 1, "pieces": [
            {"a": "0", "b": "1", "re": "1", "im": "1/2"},
            {"a": "1", "b": "3", "re": "-2/3", "im": "0"},
        ]},
        {"tag": "RHPWN", "n": 0, "k": 2, "pieces": [{"a": "1/2", "b": "2", "re": "1", "im": "0"}]},
    ],
    "b": [{"tag": "RHPWN", "n": 1, "k": 2, "pieces": [{"a": "0", "b": "2", "re": "3", "im": "-1"}]}],
}
_WINFTY_PAYLOAD = {
    "a": [{"tag": "WINFTY", "n": 3, "k": 1, "pieces": [{"a": "0", "b": "1", "re": "1", "im": "0"}]}],
    "b": [{"tag": "WINFTY", "n": 2, "k": 2, "pieces": [{"a": "1/3", "b": "3/2", "re": "0", "im": "2"}]}],
}
_WORD = [{"n": 0, "k": 2}, {"n": 1, "k": 1}, {"n": 0, "k": 1}, {"n": 1, "k": 0}, {"n": 2, "k": 0}]
# Overlapping rational indicators: the reduction multiplies concrete functions.
_OVERLAP_WORD = [
    {"n": 0, "k": 2, "function": [{"a": "0", "b": "3/2", "re": "1", "im": "0"}]},
    {"n": 1, "k": 1, "function": [{"a": "1/2", "b": "2", "re": "2/3", "im": "-1"}]},
    {"n": 0, "k": 1, "function": [{"a": "1/3", "b": "1", "re": "1", "im": "1/2"}]},
    {"n": 2, "k": 0, "function": [{"a": "1/4", "b": "5/4", "re": "1", "im": "0"}]},
    {"n": 1, "k": 0, "function": [{"a": "0", "b": "1", "re": "-1/4", "im": "0"},
                                  {"a": "1", "b": "5/2", "re": "3", "im": "0"}]},
]
_GRAM = {
    "n": 2,
    "fs": [
        [],
        [_PIECE],
        [{"a": "0", "b": "1/2", "re": "0", "im": "1/3"}, {"a": "1/2", "b": "2", "re": "1/4", "im": "0"}],
    ],
    "tol": "1/10000000000",
}
_INNER = {
    "n": 2,
    "f": [_PIECE, {"a": "1", "b": "3/2", "re": "-1/7", "im": "1/9"}],
    "g": [{"a": "1/2", "b": "2", "re": "1/8", "im": "-1/6"}],
}
_CLASSICAL = {
    "coeffs": [{"n": 2, "k": 0, "re": "1", "im": "1/2"}, {"n": 0, "k": 2, "re": "1", "im": "-1/2"}],
    "horizon": ["1", "3/2"],
}
_NOT_HERMITIAN = {
    "coeffs": [{"n": 2, "k": 1, "re": "1"}, {"n": 1, "k": 2, "re": "2"}, {"n": 1, "k": 1, "re": "3"}],
    "horizon": ["1/2", "2"],
}

# (name, argv, payload): every subcommand, payload commands, density with and
# without --n, and grids with negative starts.
_PINNED_CASES = [
    ("commutator", ["commutator"], _COMMUTATOR_PAYLOAD),
    ("commutator-winfty", ["commutator"], _WINFTY_PAYLOAD),
    ("involute", ["involute"], {"a": _COMMUTATOR_PAYLOAD["a"]}),
    ("stirling", ["stirling", "--n", "9", "--k", "4"], None),
    ("normal-order", ["normal-order", "--n", "6"], None),
    ("vacuum-moment", ["vacuum-moment"], _WORD),
    ("vacuum-moment-overlap", ["vacuum-moment"], _OVERLAP_WORD),
    ("kernel", ["kernel", "--n", "3", "--k", "5"], None),
    ("gram", ["gram"], _GRAM),
    ("inner-product", ["inner-product"], _INNER),
    ("nogo-mu", ["nogo", "--n", "3", "--mu", "37/2"], None),
    ("nogo", ["nogo", "--n", "4"], None),
    ("split-check", ["split-check", "--n", "3", "--order", "6"], None),
    ("mgf", ["mgf", "--n", "2", "--t", "1.5", "--s-grid=-0.7:0.7:0.1"], None),
    ("mgf-n1", ["mgf", "--n", "1", "--t", "2", "--s-grid", "0:1:1/3"], None),
    ("density", ["density", "--t", "2", "--x-grid=-3:3:1/4"], None),
    ("density-n", ["density", "--t", "0.5", "--n", "3", "--x-grid=-2:2:0.3"], None),
    ("sample", ["sample", "--t", "2", "--count", "20", "--seed", "7"], None),
    ("sample-small-t", ["sample", "--t", "0.7", "--count", "5", "--seed", "3"], None),
    ("classical-check", ["classical-check"], _CLASSICAL),
    ("classical-check-witness", ["classical-check"], _NOT_HERMITIAN),
]

# SHA-256 of stdout for the default format, --format json and --format csv.
_PINNED_DIGESTS = {
    "commutator": (
        "ed3a633845dcb9fab7cce300005ed81c810906ea664d25b81e26557b0034356f",
        "ed3a633845dcb9fab7cce300005ed81c810906ea664d25b81e26557b0034356f",
        "2e66175c5709fa95edfda5e9674bd6cd0f774c883f71aba7b235a431f647c06b",
    ),
    "commutator-winfty": (
        "1bd3e36b32982fb1dca44f9ff888889286271c25466460f5d53a9c7c05565dcc",
        "1bd3e36b32982fb1dca44f9ff888889286271c25466460f5d53a9c7c05565dcc",
        "5e6f13cd2d05103eb259b0c87b907a7472115b059d205f4a98e45ad2764d3a45",
    ),
    "involute": (
        "3235c6abe4d3517c9c687f886bbdb6a94bf01743bb90b1d1b68a7c3122a57671",
        "3235c6abe4d3517c9c687f886bbdb6a94bf01743bb90b1d1b68a7c3122a57671",
        "604544a9aad730c75edc862adccd70fede9a863a3e5722841eb15cc05f979e72",
    ),
    "stirling": (
        "aa8b0bf30512b8cbd323fbb44f3b67ca5354c82bfcb5aa8fcbda14a9823a28ac",
        "aa8b0bf30512b8cbd323fbb44f3b67ca5354c82bfcb5aa8fcbda14a9823a28ac",
        "3ff421b5f26738d48ba287dac94ac4e278621305d6da5f93fbe23c417487674a",
    ),
    "normal-order": (
        "b442e9f5c100731b519bb96854f2cc2f059227e2de6caaecf6fde606b9e3cd4f",
        "b442e9f5c100731b519bb96854f2cc2f059227e2de6caaecf6fde606b9e3cd4f",
        "8a09f31f2bc223880e217de92533ee6a83ff56e86a01d41d2b5f54a2920aca3a",
    ),
    "vacuum-moment": (
        "61f95b3140b76bbf3db45c81b2f8cc36415fb304df4e9916558ddc7860472116",
        "61f95b3140b76bbf3db45c81b2f8cc36415fb304df4e9916558ddc7860472116",
        "b7a0f138fa40bc052a8ae50b50daf176112bce8e590cbd626f320308ec24f91c",
    ),
    "vacuum-moment-overlap": (
        "b62e67a5ceac8f151468ee79b4e92e9f5736b8e4b2c5db65a0e0b35ef9083a7a",
        "b62e67a5ceac8f151468ee79b4e92e9f5736b8e4b2c5db65a0e0b35ef9083a7a",
        "5f36e655c3a79881ae07bc4a77ae5b33b598cf4fdabd2ab7647424a1615e4411",
    ),
    "kernel": (
        "0211b3edf6557fc8bc909435e086cb8d3d804dd65c7d6873a929f65c16c2bc6a",
        "0211b3edf6557fc8bc909435e086cb8d3d804dd65c7d6873a929f65c16c2bc6a",
        "893d877adff96e61f78ee26bccef3fda1e65aed75fd50eb460a3f7dc7fa31899",
    ),
    "gram": (
        "0e6316a4a3a4416a60f0df32f46e355e8aaf0e9f59c9fbcbe302b643cf3c14fe",
        "0e6316a4a3a4416a60f0df32f46e355e8aaf0e9f59c9fbcbe302b643cf3c14fe",
        "5339ad7288f3a7749f4627862155aaa54b53dcfa26860d3a66d93c6e8729f503",
    ),
    "inner-product": (
        "b5a160d3d8245c284b9cd2073471d68d802560bc9f2243fc2a790b15981f7156",
        "b5a160d3d8245c284b9cd2073471d68d802560bc9f2243fc2a790b15981f7156",
        "14956799e6f7ac42df11bb7e69f971f9183c0d49b26fb6c48e7fed40ba91a881",
    ),
    "nogo-mu": (
        "fd5a538a17aa6b0609c9f31a78b259bdcc021ae3fc40c5b0504df6281b51f7ad",
        "fd5a538a17aa6b0609c9f31a78b259bdcc021ae3fc40c5b0504df6281b51f7ad",
        "1070bf185bd59f63ead988c4ff18db58341298e24b8286ab77d3eba0c85ebc9b",
    ),
    "nogo": (
        "1ab17c74c39523816f6987f452f7f5b264ac51d85c30f687ac3e96f979ae0023",
        "1ab17c74c39523816f6987f452f7f5b264ac51d85c30f687ac3e96f979ae0023",
        "be3f237498085d0937975e6fd83cee5d27b710b0bf86cde252dddbf7b9ba9725",
    ),
    "split-check": (
        "f5149c4982109685be13567c39c6dc33c69083565bd171a8b8220a32280639fe",
        "f5149c4982109685be13567c39c6dc33c69083565bd171a8b8220a32280639fe",
        "3c5bf0756239d7904356a56c3ea6dda1a74edefa06e31d93c2497a04280616e4",
    ),
    "mgf": (
        "d8584961870505127d1a566ac0c100770ff918533f5cdd56c36e21dcd29ed986",
        "d8584961870505127d1a566ac0c100770ff918533f5cdd56c36e21dcd29ed986",
        "db4a3569061b5e1fa055627e36682d77a890e6943f64d15756813a6accf11531",
    ),
    "mgf-n1": (
        "eb9e5e700283c218a120ae157748988ca7b3ae52adca0ef28f00139161d3ee30",
        "eb9e5e700283c218a120ae157748988ca7b3ae52adca0ef28f00139161d3ee30",
        "5450931757278f9dea275b3637a24233ee89fb5f701176e98855f505ab5f98df",
    ),
    "density": (
        "03ca73187d16285b6cd79367ca6b47b594641a458a58108dbdf2147cb0bb5b15",
        "03ca73187d16285b6cd79367ca6b47b594641a458a58108dbdf2147cb0bb5b15",
        "a389d7f2fc8110f81c59c056da527c0f4e8c6896734d804c587b9a431379b9b9",
    ),
    "density-n": (
        "b6800053bc8748527b03cdd23092c88b4cdec51fd85b81fb134c5da78c93ec34",
        "b6800053bc8748527b03cdd23092c88b4cdec51fd85b81fb134c5da78c93ec34",
        "6680687a43d4b87a8b0999f9f417edc4abb157cb6ad275c0cd9ba02ebbeff33c",
    ),
    "sample": (
        "045c5c2ebc2868907109fd4da94f9f5f421a3f6358d2e348923b1edb501f79ec",
        "6ff47ba390c204f15148c7cf23d4affd7a2d95231b2bcb165a393876ffca9a10",
        "045c5c2ebc2868907109fd4da94f9f5f421a3f6358d2e348923b1edb501f79ec",
    ),
    "sample-small-t": (
        "5e400655e78e05ad7314b8873cb4393f0bfbf4c476235bf1dd7ed2317d13f403",
        "78667bc9a4336d30a7e26fcff444e6c283d2b809ff586c1903d6603ed252d917",
        "5e400655e78e05ad7314b8873cb4393f0bfbf4c476235bf1dd7ed2317d13f403",
    ),
    "classical-check": (
        "d9916332e9f5615e4e73d9635cf5f7bf5d809ff2d064304fedcf0f2a17992c7e",
        "d9916332e9f5615e4e73d9635cf5f7bf5d809ff2d064304fedcf0f2a17992c7e",
        "e5aea0c48c84f33c7807a9cb5de21708ec605f5e773fa7a247ad3aefb881fa02",
    ),
    "classical-check-witness": (
        "e86bb7445b7b66499c6a5a49c7cb084eadd4400050d21903c2c9fd0562895e46",
        "e86bb7445b7b66499c6a5a49c7cb084eadd4400050d21903c2c9fd0562895e46",
        "e3e4ae14aad2116083846db2b2c9662c2fef40a17947b4e253b5384f04977314",
    ),
}


@pytest.mark.parametrize("name,argv,payload", _PINNED_CASES, ids=[c[0] for c in _PINNED_CASES])
def test_csv_output_is_what_the_csv_module_writes(monkeypatch, name, argv, payload):
    stdin_text = None if payload is None else json.dumps(payload)
    code, text = run_cli(argv + ["--format", "csv"], stdin_text, monkeypatch)
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert len({len(row) for row in rows}) == 1  # no cell split into extra columns
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(rows)
    assert again.getvalue() == text


@pytest.mark.parametrize("fmt", [None, "json", "csv"])
@pytest.mark.parametrize("name,argv,payload", _PINNED_CASES, ids=[c[0] for c in _PINNED_CASES])
def test_stdout_bytes_are_pinned(monkeypatch, name, argv, payload, fmt):
    import hashlib

    argv = argv + (["--format", fmt] if fmt else [])
    stdin_text = None if payload is None else json.dumps(payload)
    code, text = run_cli(argv, stdin_text, monkeypatch)
    assert code == 0
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == _PINNED_DIGESTS[name][[None, "json", "csv"].index(fmt)]
