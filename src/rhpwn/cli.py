"""Batch command-line front end.

One subcommand per library operation, JSON on stdout by default, CSV with
--format csv; exact rationals are emitted as "p/q" strings and floats with
17 significant digits, so identical invocations produce byte-identical
output.  Exit codes: 0 success, 2 domain or input errors, 1 internal
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import fock, jsonio, nogo, processes
from .algebra import commutator, involution, normal_order_expansion, stirling_first
from .errors import RhpwnError, SchemaError
from .rewrite import vacuum_expectation
from .scalars import ComplexRational, fraction_str


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0:
        x = 0.0  # never emit -0
    return format(x, ".17g")


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _read_payload(args):
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from exc


def _parse_grid(spec: str):
    """start:stop:step with decimal or p/q entries, endpoints inclusive."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise SchemaError("", f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError("", f"bad grid entry in {spec!r}") from exc
    if step <= 0 or stop < start:
        raise SchemaError("", f"grid {spec!r} must have step > 0 and stop >= start")
    values = []
    v = start
    while v <= stop + step / 1000:
        values.append(v)
        v += step
    return values


def _element_rows(encoded):
    rows = [("tag", "n", "k", "a", "b", "re", "im")]
    for term in encoded:
        for piece in term["pieces"]:
            rows.append(
                (
                    term["tag"],
                    term["n"],
                    term["k"],
                    piece["a"],
                    piece["b"],
                    piece["re"],
                    piece["im"],
                )
            )
    return rows


def _kv_rows(obj, prefix=""):
    rows = []
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_kv_rows(value, prefix=f"{name}."))
        elif isinstance(value, list):
            rows.append((name, ";".join(str(v) for v in value)))
        else:
            rows.append((name, value))
    return rows


# -- handlers: each returns (json_object, csv_rows) ---------------------------


def _cmd_commutator(args):
    payload = _read_payload(args)
    obj = jsonio._require_object(payload, "", required=("a", "b"))
    a = jsonio.decode_element(obj["a"], "/a")
    b = jsonio.decode_element(obj["b"], "/b")
    encoded = jsonio.encode_element(commutator(a, b))
    return encoded, _element_rows(encoded)


def _cmd_involute(args):
    payload = _read_payload(args)
    obj = jsonio._require_object(payload, "", required=("a",))
    a = jsonio.decode_element(obj["a"], "/a")
    encoded = jsonio.encode_element(involution(a))
    return encoded, _element_rows(encoded)


def _cmd_stirling(args):
    value = stirling_first(args.n, args.k)
    obj = {"n": args.n, "k": args.k, "value": str(value)}
    return obj, [("n", "k", "value"), (args.n, args.k, value)]


def _cmd_normal_order(args):
    terms = normal_order_expansion(args.n)
    obj = {"n": args.n, "terms": [{"power": m, "coeff": str(c)} for m, c in terms]}
    rows = [("power", "coeff")] + [(m, c) for m, c in terms]
    return obj, rows


def _cmd_vacuum_moment(args):
    word = jsonio.decode_word(_read_payload(args), "")
    poly = vacuum_expectation(word)
    obj = jsonio.encode_mu_poly(poly)
    rows = [("degree", "coeff")] + [(d, c) for d, c in enumerate(poly.to_strings())]
    return obj, rows


def _cmd_kernel(args):
    pi, h = fock.kernel_values(args.n, args.k)
    obj = {"n": args.n, "k": args.k, "pi": pi.to_strings(), "h": h.to_strings()}
    rows = [("degree", "pi", "h")]
    for d in range(max(len(pi.coeffs), len(h.coeffs))):
        rows.append((d, str(pi.coefficient(d)), str(h.coefficient(d))))
    return obj, rows


def _cmd_gram(args):
    payload = _read_payload(args)
    obj = jsonio._require_object(payload, "", required=("n", "fs"), optional=("tol",))
    n = jsonio._require_int(obj["n"], "/n")
    fs = [
        jsonio.decode_step_function(item, f"/fs/{i}")
        for i, item in enumerate(jsonio._require_list(obj["fs"], "/fs"))
    ]
    tol = float(jsonio._read_fraction(obj.get("tol", "1/10000000000"), "/tol"))
    report = fock.gram_psd_check(n, fs, tol)
    matrix = [
        [{"re": _fmt(z.real), "im": _fmt(z.imag)} for z in row] for row in report.matrix
    ]
    out = {
        "n": n,
        "tol": _fmt(tol),
        "matrix": matrix,
        "min_eigenvalue": _fmt(report.min_eigenvalue),
        "verdict": "PSD" if report.psd else "NOT_PSD",
    }
    rows = [("i", "j", "re", "im")]
    for i, row in enumerate(report.matrix):
        for j, z in enumerate(row):
            rows.append((i, j, _fmt(z.real), _fmt(z.imag)))
    return out, rows


def _cmd_inner_product(args):
    payload = _read_payload(args)
    obj = jsonio._require_object(payload, "", required=("n", "f", "g"))
    n = jsonio._require_int(obj["n"], "/n")
    f = jsonio.decode_step_function(obj["f"], "/f")
    g = jsonio.decode_step_function(obj["g"], "/g")
    value = fock.exp_inner_product(n, f, g)
    out = {"n": n, "re": _fmt(value.real), "im": _fmt(value.imag)}
    return out, [("re", "im"), (_fmt(value.real), _fmt(value.imag))]


def _cmd_nogo(args):
    mu = Fraction(args.mu) if args.mu is not None else None
    report = nogo.nogo_report(args.n, mu)
    (a11, a12), (_, a22) = report.entries
    out = {
        "n": report.n,
        "entries": [
            [a11.to_strings(), a12.to_strings()],
            [a12.to_strings(), a22.to_strings()],
        ],
        "d1": report.d1.to_strings(),
        "d2": report.d2.to_strings(),
        "threshold": fraction_str(report.threshold),
        "mu": fraction_str(report.mu) if report.mu is not None else None,
        "verdict": None if report.psd is None else ("PSD" if report.psd else "NOT_PSD"),
    }
    return out, _kv_rows(out)


def _cmd_split_check(args):
    report = processes.splitting_series_check(args.n, args.order)
    out = {
        "n": report.n,
        "order": report.order,
        "passed": report.passed,
        "first_mismatch": (
            None
            if report.first_mismatch is None
            else dict(zip(("j", "k", "lhs", "rhs"), report.first_mismatch))
        ),
    }
    return out, _kv_rows({k: v for k, v in out.items() if k != "first_mismatch"})


def _cmd_mgf(args):
    rows = [("s", "closed_form")]
    body = []
    for s in _parse_grid(args.s_grid):
        value = processes.mgf_eval(args.n, float(s), args.t)
        rows.append((_fmt(s), _fmt(value)))
        body.append({"s": _fmt(s), "value": _fmt(value)})
    return {"n": args.n, "t": _fmt(args.t), "rows": body}, rows


def _cmd_density(args):
    rows = [("x", "p")]
    body = []
    for x in _parse_grid(args.x_grid):
        if args.n is None:
            value = processes.density_p(args.t, float(x))
        else:
            value = processes.density_q_scaled(args.n, args.t, float(x))
        rows.append((_fmt(x), _fmt(value)))
        body.append({"x": _fmt(x), "p": _fmt(value)})
    return {"t": _fmt(args.t), "n": args.n, "rows": body}, rows


def _cmd_sample(args):
    samples = processes.sample_X(args.t, args.count, args.seed)
    lines = [_fmt(x) for x in samples]
    return {"t": _fmt(args.t), "count": args.count, "seed": args.seed, "samples": lines}, [
        (line,) for line in lines
    ]


def _cmd_classical_check(args):
    payload = _read_payload(args)
    obj = jsonio._require_object(payload, "", required=("coeffs", "horizon"))
    coeffs = {}
    for i, item in enumerate(jsonio._require_list(obj["coeffs"], "/coeffs")):
        here = f"/coeffs/{i}"
        term = jsonio._require_object(item, here, required=("n", "k", "re"), optional=("im",))
        n = jsonio._require_int(term["n"], f"{here}/n")
        k = jsonio._require_int(term["k"], f"{here}/k")
        re = jsonio._read_fraction(term["re"], f"{here}/re")
        im = jsonio._read_fraction(term.get("im", 0), f"{here}/im")
        coeffs[(n, k)] = ComplexRational(re, im)
    horizon = [
        jsonio._read_fraction(item, f"/horizon/{i}")
        for i, item in enumerate(jsonio._require_list(obj["horizon"], "/horizon"))
    ]
    report = processes.classical_check(coeffs, horizon)
    out = {
        "classical": report.classical,
        "hermitian": report.hermitian,
        "commuting": report.commuting,
        "witness": report.witness,
    }
    return out, _kv_rows(out)


_HANDLERS = {
    "commutator": _cmd_commutator,
    "involute": _cmd_involute,
    "stirling": _cmd_stirling,
    "normal-order": _cmd_normal_order,
    "vacuum-moment": _cmd_vacuum_moment,
    "kernel": _cmd_kernel,
    "gram": _cmd_gram,
    "inner-product": _cmd_inner_product,
    "nogo": _cmd_nogo,
    "split-check": _cmd_split_check,
    "mgf": _cmd_mgf,
    "density": _cmd_density,
    "sample": _cmd_sample,
    "classical-check": _cmd_classical_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhpwn",
        description="white-noise algebra toolkit: brackets, vacuum moments, "
        "Fock kernels, the no-go minors, and the secant-family processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, payload=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv"), default=None)
        if payload:
            p.add_argument("--input", default="-", help="JSON payload file ('-' = stdin)")
        return p

    add("commutator", "bracket of two elements (payload {'a':..., 'b':...})", payload=True)
    add("involute", "star of an element (payload {'a': ...})", payload=True)

    p = add("stirling", "signed Stirling number of the first kind")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("normal-order", "(b+)^n b^n in powers of the number operator")
    p.add_argument("--n", type=int, required=True)

    add("vacuum-moment", "vacuum expectation of a word (payload = word JSON)", payload=True)

    p = add("kernel", "closed-form Fock kernel pi and h")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    add("gram", "Gram matrix PSD check (payload {'n','fs','tol'})", payload=True)
    add("inner-product", "exponential-vector inner product (payload {'n','f','g'})", payload=True)

    p = add("nogo", "no-go Gram matrix, minors and threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", default=None, help="interval measure as p/q")

    p = add("split-check", "exact splitting-formula series comparison")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, default=8)

    p = add("mgf", "closed-form MGF sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--s-grid", dest="s_grid", required=True, help="start:stop:step")

    p = add("density", "secant-family density sweep (base law, or order n with --n)")
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--x-grid", dest="x_grid", required=True, help="start:stop:step")
    p.add_argument("--n", type=int, default=None)

    p = add("sample", "draw from the base law (one sample per line)")
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    add("classical-check", "classicality of a coefficient family", payload=True)
    return parser


def _write_csv(rows, stream):
    for row in rows:
        stream.write(",".join(str(cell) for cell in row))
        stream.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        json_obj, csv_rows = handler(args)
    except SchemaError as exc:
        print(json.dumps({"error": str(exc), "pointer": exc.pointer}), file=sys.stderr)
        return 2
    except (RhpwnError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(
            json.dumps({"error": f"internal: {type(exc).__name__}: {exc}"}),
            file=sys.stderr,
        )
        return 1
    fmt = args.format
    if fmt is None:
        fmt = "csv" if args.command == "sample" else "json"
    if fmt == "json":
        json.dump(json_obj, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _write_csv(csv_rows, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
