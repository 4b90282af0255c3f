"""Batch command-line front end.

One subcommand per library operation, registered once, in `build_parser`.
Each handler returns one JSON object; it goes to stdout as JSON by default,
and with --format csv its rows are rendered from that same object.  The JSON
is written by `jsonio.write_json`: the bytes the standard `json` module
writes with indent=2, ASCII only, streamed one element at a time, for dicts,
lists, str, int, bool and None only.  The float sweeps of `mgf`, `density`
and `sample` return their rows as a `jsonio.FloatRows` table, which both
formats write `jsonio.TABLE_CHUNK` rows at a time: a chunk of at least
`jsonio.ARRAY_MIN_ROWS` rows through the numpy writer `rhpwn.floattext`, a
shorter one with one `%`, in the same bytes.  Exact rationals are
emitted as "p/q" strings and floats by `jsonio.float_text`, with 17
significant digits, so identical invocations produce byte-identical output.
Exit codes: 0 success, 2 domain or input errors, 1 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import fock, jsonio, nogo, processes
from .algebra import commutator, involution, normal_order_expansion, stirling_first
from .errors import DomainError, RhpwnError, SchemaError
from .rewrite import vacuum_expectation
from .scalars import ComplexRational, parse_fraction


_fmt = jsonio.float_text


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _fraction(text: str) -> Fraction:
    """argparse type: an exact rational given as a decimal or p/q."""
    try:
        return parse_fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


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


# Caps on the sizes a single call may request; larger ones exit 2 before
# anything is allocated.
MAX_GRID_POINTS = 10**6
MAX_SAMPLE_COUNT = 10**6
MAX_STIRLING_N = 500  # stirling and normal-order share one table: 29 MB at n = 500
MAX_KERNEL_K = 400  # kernel_values(6, k): about 0.5 s at k = 400, 3.5 s at 1000
MAX_GRAM_SIZE = 200  # len(fs)^2 inner products: about 1.9 s for 200 one-piece functions at n = 2
MAX_WORD_LENGTH = 256  # two frames of recursion per creator: about 490 factors overflow it


def _check_cap(name: str, value: int, cap: int):
    if value > cap:
        raise DomainError(f"{name} {value} exceeds the cap {cap}")


def _parse_grid(spec: str):
    """start:stop:step with decimal or p/q entries, endpoints inclusive.

    Returns start + i*step as a float64 array, each the correctly rounded
    int quotient (a + i*b) / d for start = a/d and step = b/d.  The count is
    exact and is checked against MAX_GRID_POINTS before the array is built.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise SchemaError("", f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (parse_fraction(p) for p in parts)
    except ValueError as exc:
        raise SchemaError("", f"bad grid entry in {spec!r}") from exc
    if step <= 0 or stop < start:
        raise SchemaError("", f"grid {spec!r} must have step > 0 and stop >= start")
    count = math.floor((stop - start) / step + Fraction(1, 1000)) + 1
    if max(-start, start + (count - 1) * step) > sys.float_info.max:
        raise SchemaError("", f"grid {spec!r} leaves the float range")
    if count > MAX_GRID_POINTS:
        raise SchemaError(
            "", f"grid {spec!r} has {count} points, more than the cap {MAX_GRID_POINTS}"
        )
    d = math.lcm(start.denominator, step.denominator)
    a, b = int(start * d), int(step * d)
    import numpy as np

    if max(abs(a), abs(a + (count - 1) * b), b, d) <= 2**53:
        # Every integer here is an exact double, and b*i fits int64, so the
        # float division rounds the exact quotient once, as int division does.
        return (a + b * np.arange(count, dtype=np.int64)) / float(d)
    return np.array([(a + i * b) / d for i in range(count)])


# -- handlers: each returns its JSON object ---------------------------------


def _cmd_commutator(args):
    payload = _read_payload(args)
    obj = jsonio._require_object(payload, "", required=("a", "b"))
    a = jsonio.decode_element(obj["a"], "/a")
    b = jsonio.decode_element(obj["b"], "/b")
    return jsonio.encode_element(commutator(a, b))


def _cmd_involute(args):
    payload = _read_payload(args)
    obj = jsonio._require_object(payload, "", required=("a",))
    a = jsonio.decode_element(obj["a"], "/a")
    return jsonio.encode_element(involution(a))


def _cmd_stirling(args):
    _check_cap("stirling --n", args.n, MAX_STIRLING_N)
    return {"n": args.n, "k": args.k, "value": str(stirling_first(args.n, args.k))}


def _cmd_normal_order(args):
    _check_cap("normal-order --n", args.n, MAX_STIRLING_N)
    terms = normal_order_expansion(args.n)
    return {"n": args.n, "terms": [{"power": m, "coeff": str(c)} for m, c in terms]}


def _cmd_vacuum_moment(args):
    word = jsonio.decode_word(_read_payload(args), "")
    _check_cap("vacuum-moment word length", len(word), MAX_WORD_LENGTH)
    return jsonio.encode_mu_poly(vacuum_expectation(word))


def _cmd_kernel(args):
    _check_cap("kernel --k", args.k, MAX_KERNEL_K)
    pi, h = fock.kernel_values(args.n, args.k)
    return {"n": args.n, "k": args.k, "pi": pi.to_strings(), "h": h.to_strings()}


def _cmd_gram(args):
    payload = _read_payload(args)
    obj = jsonio._require_object(payload, "", required=("n", "fs"), optional=("tol",))
    n = jsonio._require_int(obj["n"], "/n")
    items = jsonio._require_list(obj["fs"], "/fs")
    _check_cap("gram fs length", len(items), MAX_GRAM_SIZE)
    fs = [jsonio.decode_step_function(item, f"/fs/{i}") for i, item in enumerate(items)]
    tol = jsonio._read_fraction(obj.get("tol", "1/10000000000"), "/tol")
    if abs(tol) > sys.float_info.max:
        raise SchemaError("/tol", "tol leaves the float range")
    tol = float(tol)
    report = fock.gram_psd_check(n, fs, tol)
    matrix = [
        [{"re": _fmt(z.real), "im": _fmt(z.imag)} for z in row] for row in report.matrix
    ]
    return {
        "n": n,
        "tol": _fmt(tol),
        "matrix": matrix,
        "min_eigenvalue": _fmt(report.min_eigenvalue),
        "verdict": "PSD" if report.psd else "NOT_PSD",
    }


def _cmd_inner_product(args):
    payload = _read_payload(args)
    obj = jsonio._require_object(payload, "", required=("n", "f", "g"))
    n = jsonio._require_int(obj["n"], "/n")
    f = jsonio.decode_step_function(obj["f"], "/f")
    g = jsonio.decode_step_function(obj["g"], "/g")
    value = fock.exp_inner_product(n, f, g)
    return {"n": n, "re": _fmt(value.real), "im": _fmt(value.imag)}


def _cmd_nogo(args):
    report = nogo.nogo_report(args.n, args.mu)
    (a11, a12), (_, a22) = report.entries
    return {
        "n": report.n,
        "entries": [
            [a11.to_strings(), a12.to_strings()],
            [a12.to_strings(), a22.to_strings()],
        ],
        "d1": report.d1.to_strings(),
        "d2": report.d2.to_strings(),
        "threshold": str(report.threshold),
        "mu": str(report.mu) if report.mu is not None else None,
        "verdict": None if report.psd is None else ("PSD" if report.psd else "NOT_PSD"),
    }


def _cmd_split_check(args):
    report = processes.splitting_series_check(args.n, args.order)
    return {
        "n": report.n,
        "order": report.order,
        "passed": report.passed,
        "first_mismatch": (
            None
            if report.first_mismatch is None
            else dict(zip(("j", "k", "lhs", "rhs"), report.first_mismatch))
        ),
    }


def _cmd_mgf(args):
    ss = _parse_grid(args.s_grid)
    values = processes.mgf_sweep(args.n, ss, args.t)
    return {"n": args.n, "t": _fmt(args.t), "rows": jsonio.FloatRows(("s", "value"), ss, values)}


def _cmd_density(args):
    xs = _parse_grid(args.x_grid)
    if args.n is None:
        density = processes.SecantDensity(args.t)
    else:
        density = processes.scaled_density(args.n, args.t)
    ps = density.values(xs)
    return {"t": _fmt(args.t), "n": args.n, "rows": jsonio.FloatRows(("x", "p"), xs, ps)}


def _cmd_sample(args):
    _check_cap("sample count", args.count, MAX_SAMPLE_COUNT)
    samples = processes.sample_X(args.t, args.count, args.seed)
    return {
        "t": _fmt(args.t),
        "count": args.count,
        "seed": args.seed,
        "samples": jsonio.FloatRows(None, samples),
    }


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
    return {
        "classical": report.classical,
        "hermitian": report.hermitian,
        "commuting": report.commuting,
        "witness": report.witness,
    }


# -- CSV rows, rendered from a handler's JSON object -------------------------


def _element_rows(obj):
    return [("tag", "n", "k", "a", "b", "re", "im")] + [
        (term["tag"], term["n"], term["k"], p["a"], p["b"], p["re"], p["im"])
        for term in obj
        for p in term["pieces"]
    ]


def _csv_cell(value) -> str:
    """A cell as `csv.writer` writes it: None is empty, and a cell holding a
    comma, a quote or a line break is quoted, its quotes doubled."""
    if value is None:
        return ""
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _kv_rows(obj):
    """One (key, value) row per entry of a flat object; a list value is one
    cell, its items joined by ";"."""
    return [
        (key, _csv_cell(";".join(map(str, value)) if isinstance(value, list) else value))
        for key, value in obj.items()
    ]


def _gram_rows(obj):
    rows = [("i", "j", "re", "im")]
    for i, row in enumerate(obj["matrix"]):
        rows.extend((i, j, z["re"], z["im"]) for j, z in enumerate(row))
    return rows


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subparser is its command's
    one registry entry: it holds the handler, the CSV row function and the
    default --format."""
    parser = argparse.ArgumentParser(
        prog="rhpwn",
        description="white-noise algebra toolkit: brackets, vacuum moments, "
        "Fock kernels, the no-go minors, and the secant-family processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, rows=_kv_rows, payload=False, fmt="json"):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv"), default=fmt)
        if payload:
            p.add_argument("--input", default="-", help="JSON payload file ('-' = stdin)")
        p.set_defaults(handler=handler, rows=rows)
        return p

    add("commutator", "bracket of two elements (payload {'a':..., 'b':...})",
        _cmd_commutator, _element_rows, payload=True)
    add("involute", "star of an element (payload {'a': ...})",
        _cmd_involute, _element_rows, payload=True)

    p = add("stirling", "signed Stirling number of the first kind", _cmd_stirling,
            lambda o: [("n", "k", "value"), (o["n"], o["k"], o["value"])])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("normal-order", "(b+)^n b^n in powers of the number operator", _cmd_normal_order,
            lambda o: [("power", "coeff")] + [(t["power"], t["coeff"]) for t in o["terms"]])
    p.add_argument("--n", type=int, required=True)

    add("vacuum-moment", "vacuum expectation of a word (payload = word JSON)", _cmd_vacuum_moment,
        lambda o: [("degree", "coeff")] + list(enumerate(o["mu_poly"])), payload=True)

    p = add("kernel", "closed-form Fock kernel pi and h", _cmd_kernel,
            lambda o: [("degree", "pi", "h")]
            + [(d, pi, h) for d, (pi, h) in enumerate(zip(o["pi"], o["h"]))])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    add("gram", "Gram matrix PSD check (payload {'n','fs','tol'})",
        _cmd_gram, _gram_rows, payload=True)
    add("inner-product", "exponential-vector inner product (payload {'n','f','g'})",
        _cmd_inner_product, lambda o: [("re", "im"), (o["re"], o["im"])], payload=True)

    p = add("nogo", "no-go Gram matrix, minors and threshold", _cmd_nogo)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=_fraction, default=None, help="interval measure as p/q")

    p = add("split-check", "exact splitting-formula series comparison", _cmd_split_check,
            lambda o: _kv_rows({k: v for k, v in o.items() if k != "first_mismatch"}))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, default=8)

    p = add("mgf", "closed-form MGF sweep", _cmd_mgf, lambda o: [("s", "closed_form"), o["rows"]])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--s-grid", dest="s_grid", required=True, help="start:stop:step")

    p = add("density", "secant-family density sweep (base law, or order n with --n)", _cmd_density,
            lambda o: [("x", "p"), o["rows"]])
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--x-grid", dest="x_grid", required=True, help="start:stop:step")
    p.add_argument("--n", type=int, default=None)

    p = add("sample", "draw from the base law (one sample per line)", _cmd_sample,
            lambda o: [o["samples"]], fmt="csv")
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    add("classical-check", "classicality of a coefficient family",
        _cmd_classical_check, payload=True)
    return parser


def _write_csv(rows, stream):
    # Cells are written as str(cell), with no per-cell check: every table but
    # _kv_rows holds numbers and exact-rational strings only, and _kv_rows,
    # whose values can be free text, lists or null, quotes its own cells.  A
    # FloatRows in place of a row stands for all its rows.
    for row in rows:
        if isinstance(row, jsonio.FloatRows):
            for text in row.chunks(("",) + (",",) * (len(row.columns) - 1) + ("\n",)):
                stream.write(text)
            continue
        stream.write(",".join(str(cell) for cell in row))
        stream.write("\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        json_obj = args.handler(args)
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
    if args.format == "json":
        jsonio.write_json(json_obj, sys.stdout)
        sys.stdout.write("\n")
    else:
        _write_csv(args.rows(json_obj), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
