"""Seeded call lists for the three workloads.

Each workload is a list of distinct `rhpwn` invocations.  A call is a dict
with the argv, the stdin payload and a `check` entry that tells `checks.py`
what the output must satisfy.  The same seed always gives the same list.

Sizes are not drawn freely: every call fills a slot on a fixed ladder of
sizes (points, pieces, draws, or estimated rewrite steps from `proxy.py`),
and the seed picks the contents within each slot.  Random words have a heavy
cost tail, so free draws would make one seed's list many times dearer than
another's; the ladder keeps the cost mix the same for every seed while the
tail stays in on purpose (the top rungs).
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from proxy import CHI, adjoint, rewrite_cost, rewrite_steps

WORKLOADS = ("symbolic_words", "step_function_ops", "density_sampling")


def _frac(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _ladder(lo: float, hi: float, count: int):
    """`count` geometrically spaced values from lo to hi."""
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


def _call(argv, check, stdin=""):
    return {"argv": [str(a) for a in argv], "stdin": stdin, "check": check}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _time_arg(rng, lo=0.3, hi=8.0) -> str:
    """A decimal time in [lo, hi], log-uniform, with three decimals."""
    return f"{_log_uniform(rng, lo, hi):.3f}"


def _time_in_band(rng, band, bands, lo=0.3, hi=8.0) -> str:
    """A decimal time in band `band` of `bands` log-equal bands of [lo, hi]."""
    return _time_arg(rng, lo * (hi / lo) ** (band / bands), lo * (hi / lo) ** ((band + 1) / bands))


# -- step functions ----------------------------------------------------------------


def _coeff(rng, bound_sq=None):
    """Nonzero complex rational; |c|^2 < bound_sq when a bound is given."""
    if bound_sq is None:
        while True:
            den = rng.choice((2, 3, 4, 5, 6, 8))
            re, im = Fraction(rng.randint(-6, 6), den), Fraction(rng.randint(-6, 6), den)
            if re or im:
                return re, im
    # |re|, |im| <= 0.9 sqrt(bound/2) keeps |c|^2 <= 0.81 bound.
    root = Fraction(math.isqrt(int(bound_sq / 2 * 10**6)), 1000)
    while True:
        re = root * Fraction(rng.randint(-9, 9), 10)
        im = root * Fraction(rng.randint(-9, 9), 10)
        if re or im:
            return re, im


def _pieces(rng, count, bound_sq=None):
    """`count` disjoint pieces on [0, 4) with endpoints in (1/240)Z, as wire dicts.

    Every function lives on the same short range, so two of them overlap a
    lot and their common refinement has about as many segments as both have
    pieces.
    """
    cuts = sorted(rng.sample(range(4 * 240), 2 * count))
    out = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        re, im = _coeff(rng, bound_sq)
        out.append({"a": _frac(Fraction(a, 240)), "b": _frac(Fraction(b, 240)),
                    "re": _frac(re), "im": _frac(im)})
    return out


def _admissible_bound(n: int):
    """The order-n bound |f|^2 < 2/(n^3(n-1)); |f| < 1 for n = 1 keeps exp() small."""
    return Fraction(1) if n == 1 else Fraction(2, n**3 * (n - 1))


def _bracket(tag, a, b):
    """(constant, index) of [B[a], B[b]], as in the two algebras' brackets."""
    (n, k), (N, K) = a, b
    if tag == "RHPWN":
        return k * N - K * n, (n + N - 1, k + K - 1)
    return (N - 1) * k - (n - 1) * K, (n + N - 2, k + K)


def _indices(rng, tag, count):
    if tag == "RHPWN":
        return [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(count)]
    return [(rng.randint(2, 5), rng.randint(-3, 3)) for _ in range(count)]


def _element(rng, total_pieces, tag, indices):
    """Generators at `indices`, sharing `total_pieces` pieces between them."""
    share, extra = divmod(total_pieces, len(indices))
    return [{"tag": tag, "n": n, "k": k, "pieces": _pieces(rng, share + (i < extra))}
            for i, (n, k) in enumerate(indices)]


def _commutator_payload(rng, size, tag):
    """Two elements of two generators each; the four brackets are nonzero
    generators at four distinct indices.

    Fixing the shape keeps the number of step-function products per call,
    and of sums of their results, the same for every seed.
    """
    while True:
        a, b = _indices(rng, tag, 2), _indices(rng, tag, 2)
        brackets = [_bracket(tag, x, y) for x in a for y in b]
        if (len(set(a)) == len(set(b)) == 2
                and all(c and (tag == "WINFTY" or min(idx) >= 0) for c, idx in brackets)
                and len({idx for _, idx in brackets}) == 4):
            return {"a": _element(rng, size, tag, a), "b": _element(rng, size, tag, b)}


# -- words -------------------------------------------------------------------------


def _gram_word(rng, fns, length, order):
    """<C1 Phi, M C2 Phi> as a word: B[0,m] factors, B[k,k] factors, B[m,0] factors.

    The creator degrees on both sides balance, so the moment is not trivially 0.
    """
    while True:
        mid = rng.randint(0, max(0, length - 2) // 3)
        rest = length - mid
        left = rng.randint(1, rest - 1)
        down = [rng.randint(1, order) for _ in range(left)]
        up = [rng.randint(1, order) for _ in range(rest - left)]
        if sum(down) == sum(up):
            break
    word = [(0, m, rng.choice(fns)) for m in down]
    word += [(k, k, rng.choice(fns)) for k in (rng.randint(1, order) for _ in range(mid))]
    word += [(m, 0, rng.choice(fns)) for m in up]
    return word


def _word_payload(word):
    items = []
    for n, k, fn in word:
        item = {"n": n, "k": k}
        if fn != CHI:
            a, b, re, im = fn
            item["function"] = [{"a": _frac(a), "b": _frac(b), "re": _frac(re), "im": _frac(im)}]
        items.append(item)
    return json.dumps(items)


def _fill_ladder(rng, targets, draw, tolerance=0.2, attempts=300, cost=rewrite_steps):
    """For each target cost, a drawn word whose pair costs about the target.

    A pair is the word and its adjoint, and each of the two should cost
    half the target by `cost`, within the tolerance.  `draw(rng, target)`
    returns a word.  When no draw lands within the tolerance, the closest
    one is kept, so the result depends on the seed alone.
    """
    chosen = []
    seen = set()
    for target in targets:
        best = None
        for _ in range(attempts):
            word = draw(rng, target)
            mirror = adjoint(word)
            key, mirror_key = _word_payload(word), _word_payload(mirror)
            if key == mirror_key or key in seen or mirror_key in seen:
                continue
            miss = abs(math.log(2 * cost(word) / target))
            if best is not None and miss >= best[0]:
                continue
            miss = max(miss, abs(math.log(2 * cost(mirror) / target)))
            if best is None or miss < best[0]:
                best = (miss, word, key, mirror_key)
            if miss <= math.log1p(tolerance):
                break
        seen.update(best[2:])
        chosen.append(best[1])
    return chosen


def _moment_pair_calls(words):
    calls = []
    for i, word in enumerate(words):
        for side, w in (("word", word), ("adjoint", adjoint(word))):
            calls.append(_call(["vacuum-moment"], {"kind": "moment", "pair": i, "side": side},
                               stdin=_word_payload(w)))
    return calls


def _probes(rng, commands):
    """One small call per command, so that each layer sees at least one call.

    Every workload enters every layer, so no per-layer time of a traced run
    is a constant zero; these calls are a small share of a pass.
    """
    calls = []
    if "nogo" in commands:
        mu = Fraction(rng.randint(1, 36))
        calls.append(_call(["nogo", "--n", 3, "--mu", _frac(mu)], {"kind": "nogo", "n": 3, "mu": _frac(mu)}))
    if "kernel" in commands:
        k = rng.randint(1, 4)
        calls.append(_call(["kernel", "--n", 2, "--k", k], {"kind": "kernel", "n": 2, "k": k}))
    if "split-check" in commands:
        calls.append(_call(["split-check", "--n", 2, "--order", rng.randint(2, 4)], {"kind": "split"}))
    if "vacuum-moment" in commands:
        calls += _moment_pair_calls([[(0, 2, CHI), (1, 1, CHI), (1, 0, CHI), (1, 0, CHI)]])
    return calls


# -- workloads ---------------------------------------------------------------------


def symbolic_words(rng):
    calls = []

    def draw(rng, target):
        # Longer words of higher order reach the upper rungs in fewer draws.
        length = (rng.randint(6, 9) if target < 150 else
                  rng.randint(6 if target < 1500 else 11 if target < 10000 else 14, 16))
        order = rng.randint(1 if target < 1500 else 3, 4)
        return _gram_word(rng, [CHI], length, order)

    # The upper rungs are closer together: the words there decide call_p90_ms.
    rungs = _ladder(60, 1500, 10) + _ladder(1800, 12000, 12)
    # Rungs are in estimated engine work, not steps: the work per step of
    # chi_I words varies by a factor of two with their mu-polynomial degrees.
    calls += _moment_pair_calls(_fill_ladder(rng, rungs, draw, tolerance=0.15, attempts=200,
                                             cost=rewrite_cost))

    for i, k in enumerate(_ladder(8, 100, 12)):
        k = round(k)
        n = i % 6 + 1
        calls.append(_call(["kernel", "--n", n, "--k", k], {"kind": "kernel", "n": n, "k": k}))

    for n in range(3, 9):
        threshold = Fraction(n * n * (n + 1), 2)
        mu = threshold * Fraction(rng.randint(5, 15), 10)
        calls.append(_call(["nogo", "--n", n, "--mu", _frac(mu)],
                           {"kind": "nogo", "n": n, "mu": _frac(mu)}))

    for n, order in zip((2, 3, 4, 2), (8, 9, 10, 11)):
        calls.append(_call(["split-check", "--n", n, "--order", order], {"kind": "split"}))

    pairs = set()
    while len(pairs) < 40:
        n = rng.randint(5, 250)
        pairs.add((n, rng.randint(0, n)))
    for n, k in sorted(pairs):
        calls.append(_call(["stirling", "--n", n, "--k", k], {"kind": "stirling", "n": n, "k": k}))

    for n in rng.sample(range(2, 61), 12):
        calls.append(_call(["normal-order", "--n", n], {"kind": "normal_order", "n": n}))

    rng.shuffle(calls)
    return calls


def _indicator(rng):
    """c chi_[a, b) with a in [0, 6) and width 1/3 to 2, in sixths."""
    a = Fraction(rng.randint(0, 34), 6)
    b = a + Fraction(rng.randint(2, 12), 6)
    re, im = _coeff(rng)
    return (a, b, re, im)


def _roadmap_word(rng):
    """(B[0,3](f_i))^8 (B[3,0](f_j))^8 over six unit indicators shifted by 1/3.

    The factors take the indicators in turn; the seed moves the origin.
    """
    origin = Fraction(rng.randint(0, 12), 3)
    ind = [(origin + Fraction(i, 3), origin + Fraction(i, 3) + 1, Fraction(1), Fraction(0))
           for i in range(6)]
    return [(0, 3, ind[i % 6]) for i in range(8)] + [(3, 0, ind[i % 6]) for i in range(8)]


def step_function_ops(rng):
    calls = []
    tags = ("RHPWN", "WINFTY")

    for i, size in enumerate(_ladder(50, 300, 5)):
        payload = _commutator_payload(rng, round(size), tags[i % 2])
        calls.append(_call(["commutator"], {"kind": "parses"}, stdin=json.dumps(payload)))

    for i, size in enumerate(_ladder(50, 300, 30)):
        size = round(size)
        tag = tags[i % 2]
        payload = {"a": _element(rng, size, tag, sorted(set(_indices(rng, tag, 3))))}
        calls.append(_call(["involute"], {"kind": "parses"}, stdin=json.dumps(payload)))

    for n, size in zip((1, 2, 3), _ladder(20, 200, 3)):
        bound = _admissible_bound(n)
        fs = [_pieces(rng, round(size), bound_sq=bound) for _ in range(2)]
        calls.append(_call(["gram"], {"kind": "gram"}, stdin=json.dumps({"n": n, "fs": fs})))

    for i, size in enumerate(_ladder(20, 160, 20)):
        n = i % 3 + 1
        bound = _admissible_bound(n)
        payload = {"n": n, "f": _pieces(rng, round(size), bound_sq=bound),
                   "g": _pieces(rng, round(size), bound_sq=bound)}
        calls.append(_call(["inner-product"], {"kind": "parses"}, stdin=json.dumps(payload)))

    def draw(rng, target):
        fns = [_indicator(rng) for _ in range(rng.randint(3, 5))]
        length = rng.randint(6 if target > 400 else 4, 10)
        return _gram_word(rng, fns, length, 3)

    # The pairs stay below the calls that decide call_p90_ms; the word below
    # is the tail.
    calls += _moment_pair_calls(_fill_ladder(rng, _ladder(30, 1200, 10), draw,
                                             tolerance=0.15, attempts=200))
    calls.append(_call(["vacuum-moment"], {"kind": "moment"}, stdin=_word_payload(_roadmap_word(rng))))

    for i in range(24):
        # Two off-diagonal pairs with their mirrors and three horizon times;
        # every other family breaks c[k,n] = conj(c[n,k]) and exits early.
        coeffs = {}
        pairs = rng.sample([(n, k) for n in range(4) for k in range(n + 1, 4)], 2)
        for n, k in pairs:
            re, im = _coeff(rng)
            coeffs[(n, k)] = (re, im)
            coeffs[(k, n)] = (re, -im) if i % 2 == 0 else (re + 1, -im)
        horizon = sorted(rng.sample([Fraction(p, q) for q in (1, 2, 3, 4) for p in range(1, 13)
                                     if math.gcd(p, q) == 1], 3))
        payload = {
            "coeffs": [{"n": n, "k": k, "re": _frac(re), "im": _frac(im)}
                       for (n, k), (re, im) in sorted(coeffs.items())],
            "horizon": [_frac(t) for t in horizon],
        }
        calls.append(_call(["classical-check"], {"kind": "classical"}, stdin=json.dumps(payload)))

    calls += _probes(rng, ("nogo", "split-check"))
    rng.shuffle(calls)
    return calls


def _grid(half_width: Fraction, points: int) -> str:
    step = 2 * half_width / (points - 1)
    return f"{_frac(-half_width)}:{_frac(half_width)}:{_frac(step)}"


def density_sampling(rng):
    calls = []

    # The time per point grows with t by about a quarter over its range, so
    # each rung takes its t from a fixed band and its order from a fixed
    # cycle; the biggest grids decide call_p90_ms.
    for i, points in enumerate(_ladder(1000, 10000, 20)):
        points = round(points)
        half = Fraction(rng.randint(12, 40), 2)
        t = _time_in_band(rng, 7 * i % 20, 20)
        argv = ["density", "--t", t, f"--x-grid={_grid(half, points)}"]
        n = None
        if i % 2:
            n = 2 + i // 2 % 3
            argv += ["--n", n]
        calls.append(_call(argv, {"kind": "density", "t": t, "n": n, "points": points}))

    for points in _ladder(100, 1000, 80):
        points = round(points)
        n = rng.randint(1, 4)
        t = _time_arg(rng)
        if n == 1:
            limit = Fraction(3)
        else:
            # Stay inside the singularity |s| < (pi/2) / sqrt(n^3(n-1)/2).
            limit = Fraction(math.floor(900 * (math.pi / 2) / math.sqrt(n**3 * (n - 1) / 2)), 1000)
        half = limit * Fraction(rng.randint(50, 100), 100)
        calls.append(_call(["mgf", "--n", n, "--t", t, f"--s-grid={_grid(half, points)}"],
                           {"kind": "mgf", "n": n, "t": t, "points": points}))

    for count, t in zip(_ladder(10000, 100000, 4), _ladder(0.3, 8, 4)):
        count = round(count)
        t = f"{t * rng.uniform(0.95, 1.05):.3f}"
        seed = rng.randint(0, 2**31 - 1)
        calls.append(_call(["sample", "--t", t, "--count", count, "--seed", seed],
                           {"kind": "sample", "t": t, "count": count}))

    calls += _probes(rng, ("nogo", "kernel", "split-check", "vacuum-moment"))
    rng.shuffle(calls)
    return calls


def generate(workload: str, seed: int):
    """The call list of `workload` for `seed`; every invocation is distinct."""
    rng = random.Random(f"{workload}:{seed}")
    calls = globals()[workload](rng)
    keys = [(tuple(c["argv"]), c["stdin"]) for c in calls]
    if len(set(keys)) != len(keys):
        raise RuntimeError(f"{workload} seed {seed}: duplicate invocations")
    return calls
