"""Output checks that share no code with the engine.

Each call in a workload carries a `check` entry; `check_outputs` returns the
indices of the calls whose stdout fails it.  The oracles are closed forms
computed here with `Fraction`, `math`, `sympy` and `mpmath`, and, for vacuum
moments, a re-derivation of the documented untruncated vacuum action.

`adjoint_mismatches` compares the moments of a word and of its adjoint.  It
is reported, not checked: the documented vacuum action does not make the
moments Hermitian (see `vacuum_moment`).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

_SCALAR = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)i)?$")


def _complex_rational(text: str):
    """Parse the wire form "p/q" or "a+bi" into a (re, im) pair of Fractions."""
    m = _SCALAR.match(text)
    if m is None:
        raise ValueError(f"not a complex rational: {text!r}")
    return Fraction(m.group(1)), Fraction(m.group(2) or 0)


def _real_poly(strings):
    coeffs = [_complex_rational(s) for s in strings]
    if any(im for _, im in coeffs):
        raise ValueError("expected real coefficients")
    return [re for re, _ in coeffs]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim(poly, zero=0):
    poly = list(poly)
    while poly and poly[-1] == zero:
        poly.pop()
    return poly


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _stirling_first(n: int, m: int) -> int:
    """Signed Stirling number of the first kind s(n, m), from sympy."""
    from sympy.functions.combinatorial.numbers import stirling

    return int(stirling(n, m, kind=1, signed=True))


def check_kernel(out, spec):
    """pi = k! n^k prod_{i<k} (mu + n^2 (n-1) i / 2), h = pi / k!."""
    n, k = spec["n"], spec["k"]
    h = [Fraction(1)]
    for i in range(k):
        h = _poly_mul(h, [Fraction(n * n * (n - 1) * i, 2) * n, Fraction(n)])
    pi = [c * math.factorial(k) for c in h]
    return _trim(_real_poly(out["pi"])) == _trim(pi) and _trim(_real_poly(out["h"])) == _trim(h)


def check_nogo(out, spec):
    """Threshold n^2 (n+1)/2, d2 = 2 n^3 mu^2 (2 mu - n^2 - n^3), PSD iff mu >= threshold."""
    n, mu = spec["n"], Fraction(spec["mu"])
    threshold = Fraction(n * n * (n + 1), 2)
    d2 = [0, 0, -2 * n**3 * (n * n + n**3), 4 * n**3]
    return (
        Fraction(out["threshold"]) == threshold
        and _trim(_real_poly(out["d2"])) == _trim([Fraction(c) for c in d2])
        and out["verdict"] == ("PSD" if mu >= threshold else "NOT_PSD")
    )


def check_stirling(out, spec):
    return int(out["value"]) == _stirling_first(spec["n"], spec["k"])


def check_normal_order(out, spec):
    n = spec["n"]
    expected = {m: s for m in range(n + 1) if (s := _stirling_first(n, m))}
    return {t["power"]: int(t["coeff"]) for t in out["terms"]} == expected


def _density_reference(t: float, x: float) -> float:
    """p_t(x) = 2^(t-1)/(2 pi) |Gamma((t+ix)/2)|^2 / Gamma(t) through mpmath.loggamma."""
    import mpmath

    with mpmath.workdps(30):
        t, x = mpmath.mpf(t), mpmath.mpf(x)
        log_p = ((t - 1) * mpmath.log(2) - mpmath.log(2 * mpmath.pi)
                 + 2 * mpmath.loggamma(mpmath.mpc(t, x) / 2).real - mpmath.loggamma(t))
        return float(mpmath.exp(log_p))


def check_density(out, spec, samples=16):
    rows = out["rows"]
    if len(rows) != spec["points"]:
        return False
    t, n = float(spec["t"]), spec["n"]
    for row in rows[:: max(1, len(rows) // samples)]:
        x, p = float(row["x"]), float(row["p"])
        if n is None:
            ref = _density_reference(t, x)
        else:
            sigma = math.sqrt(n**3 * (n - 1) / 2)
            ref = _density_reference(2 * n * t / (n**3 * (n - 1)), x / sigma) / sigma
        if not _close(p, ref, 1e-10):
            return False
    return True


def check_mgf(out, spec):
    """n = 1: exp(s^2 t / 2); n >= 2: sec(a s)^tau, a = sqrt(n^3(n-1)/2), tau = 2nt/(n^3(n-1))."""
    rows = out["rows"]
    if len(rows) != spec["points"]:
        return False
    n, t = spec["n"], float(spec["t"])
    for row in rows:
        s, value = float(row["s"]), float(row["value"])
        if n == 1:
            ref = math.exp(s * s * t / 2)
        else:
            a = math.sqrt(n**3 * (n - 1) / 2)
            ref = (1 / math.cos(a * s)) ** (2 * n * t / (n**3 * (n - 1)))
        if not _close(value, ref, 1e-11):
            return False
    return True


def check_sample(text, spec):
    """Mean 0 and variance t, each within six standard errors.

    p_t has cumulants k2 = t and k4 = 2t, so the sample variance has
    variance (2t + 2t^2)/N.
    """
    values = [float(line) for line in text.split()]
    count, t = spec["count"], float(spec["t"])
    if len(values) != count:
        return False
    mean = sum(values) / count
    var = sum((v - mean) ** 2 for v in values) / (count - 1)
    return (abs(mean) <= 6 * math.sqrt(t / count)
            and abs(var - t) <= 6 * math.sqrt((2 * t + 2 * t * t) / count))


def check_gram(out, spec):
    matrix = [[complex(float(z["re"]), float(z["im"])) for z in row] for row in out["matrix"]]
    size = len(matrix)
    return all(
        abs(matrix[i][j] - matrix[j][i].conjugate()) <= 1e-12 * max(1.0, abs(matrix[i][j]))
        for i in range(size) for j in range(size)
    )


def check_classical(out, spec, payload):
    """`hermitian` must say whether c[n,k] = conj(c[k,n]) for every listed pair."""
    coeffs = {(c["n"], c["k"]): (Fraction(c["re"]), Fraction(c.get("im", 0)))
              for c in payload["coeffs"]}
    zero = (Fraction(0), Fraction(0))
    hermitian = all(
        (re, im) == (coeffs.get((k, n), zero)[0], -coeffs.get((k, n), zero)[1])
        for (n, k), (re, im) in coeffs.items()
    )
    return out["hermitian"] == hermitian and (out["classical"] is False or hermitian)


# -- vacuum moments ------------------------------------------------------------
#
# Complex rationals are (re, im) pairs of Fractions and mu-polynomials are
# tuples of them, lowest degree first.  A test function is "chi_I" or one
# interval (a, b, re, im); the product of two intervals is their intersection
# with the product coefficient, or None (zero) when it is empty.

_CZERO = (Fraction(0), Fraction(0))


def _cmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    return tuple((x[0] + y[0], x[1] + y[1]) for x, y in zip(p, q)) + p[len(q):]


def _pmul(p, q):
    out = [_CZERO] * (len(p) + len(q) - 1) if p and q else []
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            z = _cmul(x, y)
            out[i + j] = (out[i + j][0] + z[0], out[i + j][1] + z[1])
    return tuple(out)


def _pscale(p, c):
    return tuple((x[0] * c, x[1] * c) for x in p)


def _fn_product(f, g):
    if f == "chi_I" or g == "chi_I":
        if f != g:
            raise ValueError("chi_I mixed with a concrete function")
        return f
    a, b = max(f[0], g[0]), min(f[1], g[1])
    return (a, b, *_cmul(f[2:], g[2:])) if a < b else None


def _fn_integral(f):
    if f == "chi_I":
        return (_CZERO, (Fraction(1), Fraction(0)))
    return ((f[2] * (f[1] - f[0]), f[3] * (f[1] - f[0])),)


def _fn_sort_key(f):
    """The engine keeps the creators of a monomial sorted by (degree, this)."""
    return (0, ()) if f == "chi_I" else (1, (f,))


def _decode_word(payload):
    word = []
    for item in payload:
        spec = item.get("function", "chi_I")
        if spec == "chi_I":
            fn = "chi_I"
        else:
            (piece,) = spec  # the workloads draw single intervals only
            fn = tuple(Fraction(piece[key]) for key in ("a", "b", "re")) + (Fraction(piece.get("im", 0)),)
        word.append((item["n"], item["k"], fn))
    return word


def vacuum_moment(word):
    """<Phi, W Phi> for W = [(n, k, fn), ...], by the documented untruncated action.

    Factors act right to left on creator monomials applied to Phi, with

        B[0,0](f) acts as the scalar integral of f,
        B[n,0](f) is a creator,
        B[n,k](f) Phi = 0 if n < k, (integral f)/(n+1) Phi if n == k,
                        B[n-k,0](f) Phi if n > k,

    and a factor with k > 0 is moved past the last creator B[m,0](g) of the
    monomial in sort order, adding the bracket term k m B[n+m-1,k-1](fg).
    The moment is the Phi coefficient.  These rules do not make the moment
    Hermitian: B[2,3] B[1,2] B[3,1] over chi_I gives 4 mu and its adjoint
    B[1,3] B[2,1] B[3,2] gives 5 mu.
    """
    memo = {}
    one = ((Fraction(1), Fraction(0)),)

    def insert(mono, m, fn):
        return tuple(sorted(mono + ((m, fn),), key=lambda c: (c[0], _fn_sort_key(c[1]))))

    def apply(n, k, fn, mono):
        key = (n, k, fn, mono)
        if key in memo:
            return memo[key]
        out = {}
        if fn is None or n < 0 or k < 0:
            pass
        elif n == 0 and k == 0:
            out[mono] = _fn_integral(fn)
        elif k == 0:
            out[insert(mono, n, fn)] = one
        elif not mono:
            if n == k:
                out[()] = _pscale(_fn_integral(fn), Fraction(1, n + 1))
            elif n > k:
                out[((n - k, fn),)] = one
        else:
            (m, g), rest = mono[-1], mono[:-1]
            for mono2, c in apply(n, k, fn, rest).items():
                key2 = insert(mono2, m, g)
                out[key2] = _padd(out.get(key2, ()), c)
            for mono2, c in apply(n + m - 1, k - 1, _fn_product(fn, g), rest).items():
                out[mono2] = _padd(out.get(mono2, ()), _pscale(c, k * m))
        memo[key] = out
        return out

    state = {(): one}
    for n, k, fn in reversed(word):
        new = {}
        for mono, c in state.items():
            for mono2, c2 in apply(n, k, fn, mono).items():
                new[mono2] = _padd(new.get(mono2, ()), _pmul(c, c2))
        state = {mono: c for mono, c in new.items() if any(x != _CZERO for x in c)}
    return _trim(state.get((), ()), _CZERO)


def check_moment(out, spec, payload):
    return _trim(map(_complex_rational, out["mu_poly"]), _CZERO) == vacuum_moment(_decode_word(payload))


def adjoint_mismatches(calls, outputs):
    """Pair ids whose adjoint moment is not the conjugate of the word's moment."""
    pairs = {}
    for call, text in zip(calls, outputs):
        spec = call["check"]
        if "pair" in spec:
            try:
                moment = _trim(map(_complex_rational, json.loads(text)["mu_poly"]), _CZERO)
            except (ValueError, KeyError, TypeError):
                moment = None
            pairs.setdefault(spec["pair"], {})[spec["side"]] = moment
    return sorted(
        pair for pair, sides in pairs.items()
        if sides.get("word") is None
        or sides.get("adjoint") != [(re, -im) for re, im in sides["word"]]
    )


def check_outputs(calls, outputs):
    """Indices of calls whose output fails its check; unparseable output fails too."""
    failed = set()
    for i, (call, text) in enumerate(zip(calls, outputs)):
        spec = call["check"]
        kind = spec["kind"]
        try:
            if kind == "sample":
                ok = check_sample(text, spec)
            else:
                out = json.loads(text)
                if kind == "parses":
                    ok = True
                elif kind == "split":
                    ok = out["passed"] is True
                elif kind in ("classical", "moment"):
                    ok = globals()[f"check_{kind}"](out, spec, json.loads(call["stdin"]))
                else:
                    ok = globals()[f"check_{kind}"](out, spec)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            failed.add(i)
    return failed
