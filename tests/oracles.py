"""Oracles the tests check the engine with, kept out of the package: routes
to its values that it does not take, point evaluation and output readers."""

import cmath
import math
import operator
from collections import namedtuple
from fractions import Fraction

import numpy as np
import sympy

from rhpwn import jsonio
from rhpwn.algebra import order_constants
from rhpwn.errors import DomainError, SchemaError, TagMismatchError, UnsupportedGeneratorError
from rhpwn.mupoly import MuPoly
from rhpwn.processes import SecantDensity, quad
from rhpwn.rewrite import VacuumState, Word, reduce_truncated
from rhpwn.scalars import QC_ZERO, ComplexRational, parse_fraction
from rhpwn.stepfn import CHI, SymbolicIndicator


def G_eval(n: int, u: complex, mu: float) -> complex:
    """Exponential-vector generating function G_n(u, mu)."""
    u = complex(u)
    if n == 1:
        return cmath.exp(u * mu)
    half, c = order_constants(n)
    if abs(c * u) >= 1:
        raise DomainError(f"G_{n} needs |{c}*u| < 1 for the principal log, got u={u}")
    return cmath.exp(-(mu / half) * cmath.log(1 - c * u))


def Ghat_eval(n: int, u: complex) -> complex:
    """Exponent density: G_n = exp(mu * Ghat_n(u))."""
    u = complex(u)
    if n == 1:
        return u
    half, c = order_constants(n)
    if abs(c * u) >= 1:
        raise DomainError(f"Ghat_{n} needs |{c}*u| < 1 for the principal log, got u={u}")
    return -(1 / half) * cmath.log(1 - c * u)


def _riccati_scale(n: int, s: float) -> float:
    """a = sqrt(n^3 (n-1) / 2) for n >= 2, once |s| a < pi/2 is checked."""
    a = math.sqrt(n**3 * (n - 1) / 2)
    if abs(s) * a >= math.pi / 2:
        raise DomainError(f"|s| must stay below {math.pi / (2 * a):.6g} for n={n}")
    return a


def v_eval(n: int, s: float) -> float:
    """V_n(s) = tan(a s) / a; s for n = 1."""
    if n == 1:
        return float(s)
    a = _riccati_scale(n, s)
    return math.tan(a * s) / a


def w_eval(n: int, s: float, mu: float) -> float:
    """W_n(s) = -(2 n mu / (n^3 (n-1))) log cos(a s); mu s^2 / 2 for n = 1."""
    if n == 1:
        return s * s * mu / 2
    a = _riccati_scale(n, s)
    return -(2 * n * mu / (n**3 * (n - 1))) * math.log(math.cos(a * s))


def weighted_tail_cutoff(t: float, eps: float, weight: float) -> float:
    """X with integral_X^inf e^(weight x) p_t(x) dx < eps, for |weight| < pi/2,
    from the Chernoff bound: for |weight| < lam < pi/2 that tail is at most
    e^(-(lam - |weight|) X) (sec lam)^t, the MGF of p_t at lam.  Here lam is
    midway to pi/2, and X is rounded up to a power of 2, so that nearby
    weights share one cutoff."""
    if not abs(weight) < math.pi / 2:
        raise DomainError(f"tail weight must satisfy |w| < pi/2, got {weight}")
    lam = (abs(weight) + math.pi / 2) / 2
    x = (-t * math.log(math.cos(lam)) - math.log(eps)) / (lam - abs(weight))
    return 2.0 ** math.ceil(math.log2(max(x, 1.0)))


def mgf_series(n: int, order: int):
    """Exact Taylor coefficients in s of the MGF through s^order, mu standing
    for t, as MuPolys: sympy's series of exp(mu s^2 / 2) for n = 1 and of
    exp(-(n/c) mu log cos(sqrt(c) s)), c = n^3 (n-1)/2, for n >= 2.  Neither
    the Riccati and rewrite routes nor the package's series code."""
    if n < 1:
        raise DomainError(f"Fock order must be >= 1, got {n}")
    s, mu = sympy.symbols("s mu")
    if n == 1:
        mgf = sympy.exp(mu * s**2 / 2)
    else:
        c = sympy.Rational(n**3 * (n - 1), 2)
        mgf = sympy.exp(-(n / c) * mu * sympy.log(sympy.cos(sympy.sqrt(c) * s)))
    poly = sympy.expand(sympy.series(mgf, s, 0, order + 1).removeO())
    out = []
    for j in range(order + 1):
        coeffs = reversed(sympy.Poly(poly.coeff(s, j), mu).all_coeffs())
        out.append(MuPoly([Fraction(int(q.p), int(q.q)) for q in coeffs]))
    return out


MgfNumericCheck = namedtuple("MgfNumericCheck", "numeric closed_form rel_err")


def mgf_numeric_check(t: float, s: float) -> MgfNumericCheck:
    """MGF of p_t by `quad` of 2 cosh(s x) p_t(x) on [0, cutoff], against (sec s)^t."""
    s = float(s)
    if abs(s) >= math.pi / 2:
        raise DomainError(f"MGF argument needs |s| < pi/2, got {s}")
    dens = SecantDensity(t)
    cutoff = weighted_tail_cutoff(t, 1e-16, s)
    numeric = math.fsum(quad(lambda x: 2 * np.cosh(s * x) * dens.values(x), 0.0, cutoff)[1])
    closed = math.exp(-t * math.log(math.cos(s)))
    rel = abs(numeric - closed) / abs(closed)
    return MgfNumericCheck(numeric=numeric, closed_form=closed, rel_err=rel)


def recursive_quad(f, a: float, b: float):
    """Adaptive Simpson quadrature as a depth-first recursion, one point of f
    per call: the reference for `processes.quad`, which runs level by level.

    64 seed panels cut as `numpy.linspace(a, b, 65)` cuts them; a panel is
    kept once its Simpson and trapezoid sums agree to 1e-11 + 1e-9 |Simpson|
    or at depth 30, and halved otherwise.  Returns the lists of knots and of
    the Simpson mass of each panel, left to right."""
    knots = [a]
    masses = []

    def refine(a, b, fa, fb, depth):
        m = 0.5 * (a + b)
        fm = f(m)
        trap = 0.5 * (fa + fb) * (b - a)
        simpson = (fa + 4 * fm + fb) * (b - a) / 6
        if depth >= 30 or (abs(simpson - trap) < 1e-11 + 1e-9 * abs(simpson)):
            knots.append(b)
            masses.append(simpson)
            return
        refine(a, m, fa, fm, depth + 1)
        refine(m, b, fm, fb, depth + 1)

    step = (b - a) / 64
    seeds = [i * step + a for i in range(64)] + [b]
    values = [f(x) for x in seeds]
    for lo, hi, flo, fhi in zip(seeds, seeds[1:], values, values[1:]):
        refine(lo, hi, flo, fhi, 0)
    return knots, masses


def kernel_bruteforce(n: int, k: int) -> MuPoly:
    """<(B[n,0])^k Phi, (B[n,0])^k Phi> by k truncated annihilations."""
    if n < 1 or k < 0:
        raise UnsupportedGeneratorError(f"kernel needs n >= 1, k >= 0, got ({n}, {k})")
    word = Word.from_indices([(0, n)] * k + [(n, 0)] * k)
    for basis_k, coeff in reduce_truncated(n, word):
        if basis_k == 0:
            return coeff
    return MuPoly.zero()


def state_in_number_basis(n: int, state):
    """An untruncated result in the {(B[n,0])^k Phi} basis; ValueError if a
    monomial is not a power of B[n,0](chi_I), never for n <= 2."""
    out = {}
    for mono, coeff in state.terms.items():
        for m, fn in mono:
            if m != n or fn != CHI:
                raise ValueError(f"monomial {mono} is not a power of B[{n},0](chi_I)")
        out[len(mono)] = out.get(len(mono), MuPoly.zero()) + coeff
    return sorted((k, c) for k, c in out.items() if not c.is_zero)


def step_bound(word: Word) -> int:
    """Rewrite-step bound L (L+1)^(sum of (k_i + 1)) + 1: a factor of degree k
    on j <= L creators costs at most (j+1)^(k+1) steps."""
    length = len(word)
    exponent = sum(idx.k + 1 for idx, _ in word)
    return length * (length + 1) ** exponent + 1


def _insert_creator(mono, m, fn):
    """`mono` with the creator B[m,0](fn) added, creators in (m, sort key) order."""
    return tuple(sorted(mono + ((m, fn),), key=lambda p: (p[0], p[1].sort_key())))


class UnmemoizedReducer:
    """The untruncated recursion without a memo or interning: every
    sub-reduction is a step, and the rightmost creator of a monomial is the
    last one in (m, sort key) order.

    `mixed_firings` counts the applications of the mixed vacuum rule
    B[n,k] Phi = B[n-k,0] Phi with k >= 1 and n - k >= 2, the rule that is
    not compatible with the involution.
    """

    def __init__(self):
        self.steps = 0
        self.mixed_firings = 0

    def apply_generator(self, n, k, fn, mono):
        self.steps += 1
        if fn.is_zero or n < 0 or k < 0:
            return {}
        if n == 0 and k == 0:
            return {mono: fn.integral_mu()}
        if k == 0:
            return {_insert_creator(mono, n, fn): MuPoly.one()}
        if not mono:
            if n < k:
                return {}
            if n == k:
                return {(): fn.integral_mu().scaled(Fraction(1, n + 1))}
            self.mixed_firings += n - k >= 2
            return {((n - k, fn),): MuPoly.one()}
        m, g = mono[-1]
        rest = mono[:-1]
        out = {}
        for mono2, coeff in self.apply_generator(n, k, fn, rest).items():
            key = _insert_creator(mono2, m, g)
            out[key] = out.get(key, MuPoly.zero()) + coeff
        for mono2, coeff in self.apply_generator(n + m - 1, k - 1, fn * g, rest).items():
            out[mono2] = out.get(mono2, MuPoly.zero()) + coeff.scaled(k * m)
        return out

    def reduce(self, word):
        terms = {(): MuPoly.one()}
        for idx, fn in reversed(tuple(word)):
            out = {}
            for mono, coeff in terms.items():
                for mono2, c2 in self.apply_generator(idx.n, idx.k, fn, mono).items():
                    out[mono2] = out.get(mono2, MuPoly.zero()) + coeff * c2
            terms = {mono: c for mono, c in out.items() if not c.is_zero}
            if not terms:
                break
        return VacuumState(terms)


def value_at(f, t) -> ComplexRational:
    t = parse_fraction(t)
    for a, b, c in f.pieces:
        if a <= t < b:
            return c
    return ComplexRational(0)


def eval_float(p: MuPoly, mu) -> complex:
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * mu + c.to_complex()
    return acc


def parse_complex_rational(s: str) -> ComplexRational:
    """Parse "p/q", "a/b+c/di", "a/b-c/di", or "c/di"."""
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    if not s.endswith("i"):
        return ComplexRational(parse_fraction(s))
    body = s[:-1]
    # Parts are plain p/q tokens, so the first sign past the lead splits them.
    for pos in range(1, len(body)):
        if body[pos] in "+-":
            re_part = body[:pos]
            im_part = body[pos:]
            if im_part in ("+", "-"):
                im_part += "1"
            return ComplexRational(parse_fraction(re_part), parse_fraction(im_part))
    if body in ("", "+", "-"):
        body += "1"
    return ComplexRational(0, parse_fraction(body))


def mu_poly_from_strings(items) -> MuPoly:
    return MuPoly(tuple(parse_complex_rational(str(s)) for s in items))


def decode_mu_poly(value, pointer="") -> MuPoly:
    obj = jsonio._require_object(value, pointer, required=("mu_poly",))
    items = jsonio._require_list(obj["mu_poly"], f"{pointer}/mu_poly")
    try:
        return mu_poly_from_strings(items)
    except ValueError as exc:
        raise SchemaError(f"{pointer}/mu_poly", str(exc)) from exc


def encode_word(word: Word) -> list:
    out = []
    for idx, fn in word:
        entry = {"n": idx.n, "k": idx.k}
        entry["function"] = "chi_I" if fn == CHI else jsonio.encode_step_function(fn)
        out.append(entry)
    return out


# -- the Fraction-based step function, a reference for the integer one --------


def step_sort_key(fn):
    """The order of step functions, read off the public pieces: piece by
    piece, its endpoints and then the real and imaginary part of its
    coefficient."""
    return (1, tuple((a, b, c.re, c.im) for a, b, c in fn.pieces))


class FractionStepFunction:
    """The engine's step function as it was with Fraction endpoints and
    ComplexRational coefficients: the reference for the integer one."""

    __slots__ = ("pieces", "_hash")

    def __init__(self, pieces=()):
        cleaned = []
        for a, b, c in pieces:
            a = parse_fraction(a)
            b = parse_fraction(b)
            c = ComplexRational.coerce(c)
            if a >= b:
                raise ValueError(f"empty or reversed interval [{a}, {b})")
            if c.is_zero:
                continue
            if a < 0 < b:
                raise ValueError(
                    f"piece [{a}, {b}) straddles 0; test functions vanish at zero"
                )
            cleaned.append((a, b, c))
        cleaned.sort(key=lambda p: (p[0], p[1]))
        merged = []
        for a, b, c in cleaned:
            if merged:
                pa, pb, pc = merged[-1]
                if a < pb:
                    raise ValueError(f"overlapping pieces at [{a}, {b})")
                if a == pb != 0 and c == pc:
                    merged[-1] = (pa, b, pc)
                    continue
            merged.append((a, b, c))
        object.__setattr__(self, "pieces", tuple(merged))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("FractionStepFunction is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "FractionStepFunction":
        return cls()

    @classmethod
    def indicator(cls, a, b, coeff=1) -> "FractionStepFunction":
        """coeff * chi_[a, b)."""
        return cls(((a, b, coeff),))

    # -- pointwise algebra ----------------------------------------------

    def _pointwise(self, other, op):
        if isinstance(other, SymbolicIndicator):
            raise TagMismatchError("cannot mix symbolic chi_I with concrete step functions")
        if not isinstance(other, FractionStepFunction):
            return NotImplemented
        return FractionStepFunction(
            [(a, b, op(cf, cg)) for a, b, (cf, cg) in fraction_refinement([self, other])]
        )

    def __add__(self, other):
        return self._pointwise(other, operator.add)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        """Pointwise product; partitions are refined against each other."""
        return self._pointwise(other, operator.mul)

    def scaled(self, c) -> "FractionStepFunction":
        c = ComplexRational.coerce(c)
        return FractionStepFunction(tuple((a, b, pc * c) for a, b, pc in self.pieces))

    def conjugate(self) -> "FractionStepFunction":
        return FractionStepFunction(tuple((a, b, c.conjugate()) for a, b, c in self.pieces))

    def support_indicator(self) -> "FractionStepFunction":
        """Indicator of the support (coefficient 1 on every piece)."""
        return FractionStepFunction(tuple((a, b, 1) for a, b, _ in self.pieces))

    # -- measure and integral ---------------------------------------------

    def integral(self) -> ComplexRational:
        acc = ComplexRational(0)
        for a, b, c in self.pieces:
            acc = acc + c * (b - a)
        return acc

    def integral_mu(self) -> MuPoly:
        return MuPoly.constant(self.integral())

    # -- protocol --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.pieces

    def sort_key(self):
        return step_sort_key(self)

    def __eq__(self, other):
        if not isinstance(other, FractionStepFunction):
            return NotImplemented
        return self.pieces == other.pieces

    def __hash__(self):
        # Cached on first use: most step functions are never hashed, while
        # the rewrite memo hashes the same few over and over.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.pieces))
        return self._hash

    def __str__(self):
        if not self.pieces:
            return "0"
        return " + ".join(f"({c})*chi[{a},{b})" for a, b, c in self.pieces)

    __repr__ = __str__


def fraction_refinement(fns) -> list:
    """Refine several step functions over one partition.

    Returns a list of (a, b, coeffs) with coeffs[i] the constant value of
    fns[i] on [a, b); segments where every function vanishes are dropped.

    One sweep over the sorted cut points, with a cursor into each
    function's sorted, non-overlapping pieces: O(P log P + P F) for P cut
    points and F functions.
    """
    cuts = set()
    for f in fns:
        for a, b, _ in f.pieces:
            cuts.add(a)
            cuts.add(b)
    points = sorted(cuts)
    pieces = [f.pieces for f in fns]
    cursors = [0] * len(pieces)
    out = []
    for a, b in zip(points, points[1:]):
        coeffs = []
        covered = False
        for i, ps in enumerate(pieces):
            j = cursors[i]
            while j < len(ps) and ps[j][1] <= a:
                j += 1
            cursors[i] = j
            if j < len(ps) and ps[j][0] <= a:
                coeffs.append(ps[j][2])
                covered = True
            else:
                coeffs.append(QC_ZERO)
        if covered:
            out.append((a, b, tuple(coeffs)))
    return out


def segments_as_fractions(segments) -> list:
    """`stepfn.common_refinement` segments with Fraction endpoints and
    ComplexRational coefficients, as `fraction_refinement` gives them."""
    return [
        (Fraction(*a), Fraction(*b),
         tuple(ComplexRational(Fraction(re, den), Fraction(im, den)) for re, im, den in coeffs))
        for a, b, coeffs in segments
    ]


# -- a reader of step-function payloads that shares no code with jsonio --------


def _payload_rational(value):
    """A payload value read with Fraction, or None where it is not a rational."""
    if type(value) is bool or not isinstance(value, (str, int, float)):
        return None
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def read_step_payload(value, pointer=""):
    """(rows, None) for a valid step-function payload, its canonical int rows
    as `StepFunction.rows` holds them; (None, (pointer, message)) for an
    invalid one, its first fault in read order.  Each piece is read in turn:
    its shape (unknown fields, then missing ones), its fields a, b, re, im,
    then its interval."""
    if not isinstance(value, list):
        return None, (pointer, f"expected a list, got {type(value).__name__}")
    pieces = []
    for i, item in enumerate(value):
        here = f"{pointer}/{i}"
        if not isinstance(item, dict):
            return None, (here, f"expected an object, got {type(item).__name__}")
        unknown = [key for key in item if key not in ("a", "b", "re", "im")]
        if unknown:
            return None, (f"{here}/{unknown[0]}", "unknown field")
        missing = [key for key in ("a", "b", "re") if key not in item]
        if missing:
            return None, (here, f"missing required field {missing[0]!r}")
        parts = []
        for key in ("a", "b", "re", "im"):
            text = item.get(key, 0)
            part = _payload_rational(text)
            if part is None:
                return None, (f"{here}/{key}", f"expected a rational ('p/q'), got {text!r}")
            parts.append(part)
        a, b, re, im = parts
        if a >= b:
            return None, (here, f"empty interval [{a}, {b})")
        pieces.append((a, b, ComplexRational(re, im)))
    rows = []
    for a, b, c in FractionStepFunction(pieces).pieces:
        re, im = Fraction(c.re), Fraction(c.im)
        den = math.lcm(re.denominator, im.denominator)
        rows.append(((a.numerator, a.denominator), (b.numerator, b.denominator),
                     (int(re * den), int(im * den), den)))
    return tuple(rows), None
