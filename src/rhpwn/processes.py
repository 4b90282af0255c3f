"""Classical processes carried by the truncated Fock spaces.

The field operator B[n,0](t) + B[0,n](t) on the order-n space is, in the
vacuum state, Brownian motion for n = 1 and a continuous binomial/Beta
process for n >= 2 with moment generating function

    (sec(a s))^(2 n t / (n^3 (n-1))),     a = sqrt(n^3 (n-1) / 2).

The exponential splits as exp(s(B[n,0]+B[0,n])) Phi
= exp(W(s)) exp(V(s) B[n,0]) Phi with V solving the Riccati equation
V' = 1 + (n^3(n-1)/2) V^2, V(0) = 0, and W' = n mu V, W(0) = 0.

The normalized law has density p_t(x) = (2^(t-1) / (2 pi)) Gamma((t+ix)/2)
Gamma((t-ix)/2) / Gamma(t), an even probability density with MGF (sec s)^t;
the order-n process at time t is sigma X_tau with sigma = a and
tau = 2 n t/(n^3 (n-1)).  `SecantDensity(t)` and `SecantDensity(t, n)` are
their one evaluator: it computes the terms free of x once and evaluates the
rest with `log_gamma_array`, a numpy Lanczos sum, on the distinct values of
|x|, so the density is even by construction.  `complex_log_gamma` and a call
at one point are one-point calls of the same code.  The density is integrated
by a level-by-level adaptive Simpson quadrature (`quad`), which evaluates
all the midpoints of one level in one array call, and sampled by linear
interpolation of the tabulated inverse CDF.

`mgf_eval` is the one scalar formula; `mgf_sweep` is its array form over the
distinct |s|, bit for bit, since cos and s*s do not see the sign of s.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import order_constants, require_order
from .errors import DomainError, OutOfScopeError
from .mupoly import MU, MuPoly
from .rewrite import Word, reduce_truncated
from .scalars import ComplexRational, parse_fraction
from .series import series_exp, series_mul, series_scale


# -- splitting formula and Riccati series -------------------------------------


@dataclass(frozen=True)
class SplittingSolution:
    """Exact series for the splitting pair (V, W)."""

    n: int
    order: int
    v_series: tuple  # MuPoly (constant in mu), coefficient of s^j
    w_series: tuple  # MuPoly, degree <= 1 in mu


def riccati_split(n: int, order: int = 16) -> SplittingSolution:
    """Solve V' = 1 + (n^3(n-1)/2) V^2 and W' = n mu V as exact series.

    For n = 1 this is V = s, W = mu s^2/2; for n >= 2 the closed forms are
    V = tan(a s)/a and W = -(2 n mu / (n^3(n-1))) ln cos(a s).
    """
    require_order(n)
    if order < 0:
        raise DomainError(f"series order must be >= 0, got {order}")
    beta = order_constants(n)[1]
    v = [Fraction(0)] * (order + 1)
    for j in range(order):
        square = sum((v[i] * v[j - i] for i in range(j + 1)), Fraction(0))
        rhs = (1 if j == 0 else 0) + beta * square
        v[j + 1] = Fraction(rhs, j + 1)
    w = [MuPoly.zero()] * (order + 1)
    for j in range(order):
        w[j + 1] = MU.scaled(Fraction(n) * v[j] / (j + 1))
    return SplittingSolution(
        n=n,
        order=order,
        v_series=tuple(MuPoly.constant(c) for c in v),
        w_series=tuple(w),
    )


@dataclass(frozen=True)
class SplitCheckReport:
    n: int
    order: int
    passed: bool
    first_mismatch: Optional[tuple]  # (j, k, lhs, rhs)
    phi_component: tuple  # MuPoly coefficients of s^j on Phi (left side)


def _field_power_states(n: int, order: int):
    """States (B[n,0] + B[0,n])^j Phi for j = 0..order, in the number basis.

    Each state is the field applied once to the one before: the engine
    reduces the one-factor words B[n,0] and B[0,n] from state j-1 and the two
    results are summed.  That is 2 order engine calls on states of at most
    order + 1 terms, O(order^2) work, where expanding every word of length j
    would take 2^(j+1) - 2 calls in all.
    """
    fields = (Word.from_indices([(n, 0)]), Word.from_indices([(0, n)]))
    states = [{0: MuPoly.one()}]
    for _ in range(order):
        acc = {}
        for word in fields:
            for k, coeff in reduce_truncated(n, word, state=states[-1].items()):
                acc[k] = acc.get(k, MuPoly.zero()) + coeff
        states.append({k: c for k, c in acc.items() if not c.is_zero})
    return states


def splitting_series_check(n: int, order: int) -> SplitCheckReport:
    """Compare both sides of the splitting formula through s^order, exactly.

    Left side: exp(s(B[n,0]+B[0,n])) Phi expanded with the truncated action.
    Right side: exp(W(s)) exp(V(s) B[n,0]) Phi by exact series composition.
    """
    if order > 12:
        raise DomainError(f"series check capped at order 12, got {order}")
    split = riccati_split(n, order)
    states = _field_power_states(n, order)
    exp_w = series_exp(list(split.w_series), order)
    v_power = [MuPoly.one()] + [MuPoly.zero()] * order
    rhs_by_k = []
    for k in range(order + 1):
        rhs_by_k.append(series_scale(series_mul(exp_w, v_power, order),
                                     Fraction(1, math.factorial(k)), order))
        v_power = series_mul(v_power, list(split.v_series), order)
    phi_component = []
    mismatch = None
    for j in range(order + 1):
        inv_fact = Fraction(1, math.factorial(j))
        lhs_state = states[j]
        phi_component.append(lhs_state.get(0, MuPoly.zero()).scaled(inv_fact))
        for k in range(order + 1):
            lhs = lhs_state.get(k, MuPoly.zero()).scaled(inv_fact)
            rhs = rhs_by_k[k][j]
            if lhs != rhs and mismatch is None:
                mismatch = (j, k, str(lhs), str(rhs))
    return SplitCheckReport(
        n=n,
        order=order,
        passed=mismatch is None,
        first_mismatch=mismatch,
        phi_component=tuple(phi_component),
    )


# -- moment generating functions ----------------------------------------------

# exp(w) is a finite float exactly when w <= log(max float), about 709.78.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def mgf_eval(n: int, s: float, t: float) -> float:
    """Closed-form MGF exp(W_n(s)) of the order-n field process at time t = mu.

    n = 1: exp(s^2 t / 2); n >= 2: (sec(a s))^(2 n t/(n^3(n-1))) with
    a = sqrt(n^3(n-1)/2), valid for |s| a < pi/2, the pole of V_n and W_n.
    """
    require_order(n)
    if t <= 0:
        raise DomainError(f"time must be positive, got t={t}")
    u = float(s)  # s itself is kept for the overflow message
    if n == 1:
        w = u * u * t / 2
    else:
        c = order_constants(n)[1]
        a = math.sqrt(c)
        if abs(u) * a >= math.pi / 2:
            raise DomainError(
                f"|s| must stay below {math.pi / (2 * a):.6g} for n={n}: "
                f"V_{n}, W_{n} and the MGF are singular there"
            )
        w = -(n * t / c) * math.log(math.cos(a * u))
    if not w <= _LOG_FLOAT_MAX:  # also refuses the NaN of inf * 0 at s = 0
        raise DomainError(f"the MGF at s={s}, t={t} overflows a float: W_{n}(s) = {w:.6g}")
    return math.exp(w)


# -- complex log-Gamma (Lanczos) ------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# The terms i >= 1 with i as a float, so the loop neither slices nor converts.
_LANCZOS_TERMS = tuple((float(i), c) for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1))
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b, entrywise, as Python's complex product computes it.  numpy's own
    complex product and complex abs use fused multiply-adds on some CPUs and
    not on others; separate real products and sums round the same on all."""
    out = np.empty_like(a)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def log_gamma_array(z: np.ndarray) -> np.ndarray:
    """Principal-branch log Gamma of each entry of a complex array with Re z > 0
    (not checked here; `complex_log_gamma` checks its one point).

    Lanczos approximation with g = 607/128 and 15 coefficients, one term at a
    time into one accumulator; absolute accuracy well below 1e-12 on Re z in
    (0, 50], |Im z| <= 200.  Each entry is computed by itself, so its bits do
    not depend on the other entries, and conj(z) gives the conjugate, bit for
    bit.  Callers run it under `np.errstate(all="ignore")`.
    """
    # For |z| < 1e-3 the sum would lose the low bits of z in (z - 1) + 1, so
    # those entries take log Gamma(z + 1) - log z.
    small = np.hypot(z.real, z.imag) < 1e-3
    zm1 = np.where(small, z + 1, z) - 1
    acc = np.full(z.shape, _LANCZOS_COEFFS[0], dtype=complex)
    term = np.empty_like(acc)
    for i, c in _LANCZOS_TERMS:
        np.add(zm1, i, out=term)
        np.divide(c, term, out=term)
        acc += term
    t = zm1 + _LANCZOS_G + 0.5
    out = _HALF_LOG_2PI + _times(zm1 + 0.5, np.log(t)) - t + np.log(acc)
    if small.any():
        out[small] -= np.log(z[small])
    return out


def complex_log_gamma(z: complex) -> complex:
    """log Gamma(z) for Re z > 0: the one-point form of `log_gamma_array`."""
    z = complex(z)
    if z.real <= 0:
        raise DomainError(f"log Gamma implemented for Re z > 0, got {z}")
    with np.errstate(all="ignore"):
        return complex(log_gamma_array(np.array([z]))[0])


# -- the hyperbolic-secant family densities -------------------------------------


def density_p(t: float, x: float) -> float:
    """One point of `SecantDensity(t)`.  Nothing in the package calls it; it
    stays because the benchmark's traced pass counts calls to it by name."""
    return SecantDensity(t)(x)


def scaled_density(n: int, t: float) -> "SecantDensity":
    """`SecantDensity(t, n)`, the law of the order-n field process at time t."""
    return SecantDensity(t, n)


# Largest t the density accepts.  The rounding error of log Gamma(t), which
# grows like t log t, becomes relative error in p_t: against mpmath at 60
# digits it stays below 1e-10 for t <= 1e4 (4e-11 at worst), and reaches
# 2e-10 at t = 5e4 and 2e-9 at t = 1e6.
MAX_DENSITY_T = 1e4


# A |x| past which p_t(x) underflows to 0 for every allowed t.
_X_ZERO_DENSITY = 1e300

# Points per array call of the evaluator, which bounds its temporaries.
_CHUNK = 1 << 16


class SecantDensity:
    """p_t, the density with MGF (sec s)^t, with a certified tail cutoff, for
    0 < t <= MAX_DENSITY_T:

        p_t(x) = (2^(t-1)/(2 pi)) Gamma((t+ix)/2) Gamma((t-ix)/2) / Gamma(t).

    The terms free of x, (t-1) log 2 - log 2 pi and log Gamma(t), are
    computed once.  `values` takes one array log-Gamma a = log Gamma((t+ix)/2)
    per distinct |x|, since log Gamma((t-ix)/2) is its conjugate; so the
    density is even by construction, refusals included.  A call at one point
    is `values` on that point.

    With n >= 2 it is y -> p_tau(y/sigma)/sigma, the law of sigma X_tau with
    sigma = sqrt(n^3(n-1)/2) and tau = 2nt/(n^3(n-1)) = `self.t` (the exponent
    takes log sigma where p_tau alone overflows).  Refusals name the t passed.

    The tail of p_t decays like x^(t-1) exp(-pi x / 2); past the returned
    cutoff the discarded mass is below the requested epsilon.
    """

    def __init__(self, t: float, n: Optional[int] = None):
        if n is None:
            t = float(t)
        elif n < 2:
            raise OutOfScopeError(f"the scaled density concerns n >= 2, got n={n}")
        if t <= 0:
            raise DomainError(f"time must be positive, got t={t}")
        self.shown_t, self.t, self.scale = t, t, 1.0
        where = f"the density's time t={t}"
        if n is not None:
            c = order_constants(n)[1]
            self.t, self.scale = float(n * t / c), math.sqrt(c)
            where = f"the order-{n} density's time t={t} gives the base law's tau={self.t}"
            if self.t == 0:
                raise DomainError(f"{where}: 2nt/(n^3(n-1)) underflows to 0")
            where += ", which"
        if not self.t <= MAX_DENSITY_T:
            raise DomainError(
                f"{where} exceeds {MAX_DENSITY_T:g}, "
                "past which its relative error is not held below 1e-10"
            )
        self._lead = (self.t - 1) * math.log(2) - math.log(2 * math.pi)
        self._log_gamma_t = complex_log_gamma(complex(self.t, 0))

    def __call__(self, x: float) -> float:
        return float(self.values([x])[0])

    def values(self, xs) -> np.ndarray:
        """The density at each point of xs, in their order.

        Raises at the first point, in that order, where the value is not a
        finite float: a NaN x, or a value that overflows.  At real x the
        imaginary part of the exponent is exactly 0, so the value is real.
        """
        xs = np.asarray(xs, dtype=float)
        distinct, back = np.unique(np.abs(xs), return_inverse=True)
        p = np.empty(distinct.shape)
        with np.errstate(all="ignore"):
            for lo in range(0, len(distinct), _CHUNK):
                p[lo:lo + _CHUNK] = np.exp(self._exponent(distinct[lo:lo + _CHUNK])).real
            p /= self.scale
            huge = np.isinf(p)
            if huge.any():  # p_t near x = 0 once t < about 1.8e-309: p_t(0) ~ 1/(pi t)
                p[huge] = np.exp(self._exponent(distinct[huge]) - math.log(self.scale)).real
        p = p[back]
        refused = ~np.isfinite(p)
        if refused.any():
            x = float(xs[refused.argmax()])
            if math.isnan(x):
                raise DomainError(f"the density at t={self.shown_t} needs a number, got x={x}")
            raise DomainError(f"the density at t={self.shown_t}, x={x} overflows a float")
        return p

    def _exponent(self, u: np.ndarray) -> np.ndarray:
        """log p_t(u / scale), complex, at each u >= 0."""
        z = np.empty(u.shape, dtype=complex)
        z.real = 0.5 * self.t
        # Past |x| = 1e300 the density has long underflowed to 0; the cap
        # keeps Im log Gamma finite, where the float range would end it.
        z.imag = 0.5 * np.minimum(u / self.scale, _X_ZERO_DENSITY)
        a = log_gamma_array(z)
        # Complex, in this order: a real sum 2 Re a would move the last ULP.
        return self._lead + a + np.conj(a) - self._log_gamma_t

    def tail_cutoff(self, eps: float) -> float:
        """Grid cutoff X with integral_X^inf p_t dx < eps.

        Past X >= 4(t-1)/r with r = pi/2, p_t decays at rate >= 3r/4, so the
        tail is bounded by p_t(X) times 4/(3r); the threshold below leaves
        margin.  X is the first of the 64 points max(10, 2t, 4(t-1)/r) 1.25^k
        where p_t falls below it; the last lies past where p_t underflows for
        every t allowed.
        """
        rate = math.pi / 2
        x = max(10.0, 2.0 * self.t, 4.0 * max(0.0, self.t - 1) / rate)
        steps = [x]
        for _ in range(63):
            steps.append(steps[-1] * 1.25)
        below = self.values(steps) < eps * rate / 2
        if not below.any():
            raise DomainError(f"tail cutoff for eps={eps} not found")
        return steps[int(below.argmax())]


def mgf_sweep(n: int, ss, t: float) -> np.ndarray:
    """[mgf_eval(n, s, t) for s in ss] as a float64 array, bit for bit.

    `mgf_eval` is even bit for bit, so each distinct |s| is evaluated once
    and a grid symmetric about 0 costs about half its points.  numpy takes
    only the steps that IEEE arithmetic rounds exactly (abs, the products,
    the comparisons); cos, log and exp are `math`'s, as in `mgf_eval`, since
    numpy's SIMD exp and log differ from them in the last bit on some CPUs.
    A refusal is raised by `mgf_eval` itself, at the first point of ss whose
    |s| is refused, with the message it gives there.
    """
    u = np.abs(np.asarray(ss, dtype=float))
    if not len(u):
        return u
    if n < 1 or t <= 0:
        mgf_eval(n, ss[0], t)  # raises
    distinct, back = np.unique(u, return_inverse=True)
    with np.errstate(all="ignore"):
        if n == 1:
            w = distinct * distinct * t / 2
            refused = ~(w <= _LOG_FLOAT_MAX)
        else:
            c = order_constants(n)[1]
            a = math.sqrt(c)
            au = a * distinct
            pole = au >= math.pi / 2
            au[pole] = 0.0  # past the pole math.cos may refuse inf and math.log a cos <= 0
            w = -(n * t / c) * np.array(list(map(math.log, map(math.cos, au.tolist()))))
            refused = pole | ~(w <= _LOG_FLOAT_MAX)
    if refused.any():
        mgf_eval(n, ss[int(refused[back].argmax())], t)  # raises
    return np.array(list(map(math.exp, w.tolist())))[back]


# -- quadrature and sampling ------------------------------------------------------

# Halvings a seed panel of `quad` may take.
_QUAD_MAX_DEPTH = 30


def quad(f, a: float, b: float):
    """Adaptive Simpson quadrature of f on [a, b], one level at a time.

    f maps an array of points to the array of their values.  The 64 seed
    panels are cut by `numpy.linspace(a, b, 65)`.  A panel is kept when its
    Simpson and trapezoid sums agree to 1e-11 + 1e-9 |Simpson|, or once it
    is 30 halvings deep; the others are halved, and all the midpoints of one
    level go through one call of f.  Returns the arrays of knots
    a = x_0, ..., x_m = b and of the Simpson mass of each panel.  Where
    b - a > 2^-14 max(|a|, |b|), floats resolve the narrowest panels: the
    knots increase strictly and, fed the same values of f, the result is what
    the depth-first recursion returns, bit for bit.  Every caller has a = 0;
    on a narrower interval knots may repeat.
    """
    cuts = np.linspace(a, b, 65)
    f_cuts = f(cuts)
    lo, hi, f_lo, f_hi = cuts[:-1], cuts[1:], f_cuts[:-1], f_cuts[1:]
    kept = []
    for depth in range(_QUAD_MAX_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        width = hi - lo
        trap = 0.5 * (f_lo + f_hi) * width
        simpson = (f_lo + 4 * f_mid + f_hi) * width / 6
        if depth == _QUAD_MAX_DEPTH:
            kept.append((hi, simpson))
            break
        keep = np.abs(simpson - trap) < 1e-11 + 1e-9 * np.abs(simpson)
        kept.append((hi[keep], simpson[keep]))
        split = ~keep
        if not split.any():
            break
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        f_lo = np.concatenate((f_lo[split], f_mid[split]))
        f_hi = np.concatenate((f_mid[split], f_hi[split]))
    ends, masses = (np.concatenate(column) for column in zip(*kept))
    # Kept panels are disjoint and >= (b - a) 2^-36 wide, so right ends differ
    # where floats resolve that width.
    order = np.argsort(ends)
    return np.concatenate(([a], ends[order])), masses[order]


# Bound on the tail mass the sampler's table leaves out on each side.
SAMPLER_TAIL_EPS = 1e-12


class SecantSampler:
    """Inverse-CDF sampler for p_t: linear interpolation of the CDF on the
    knots of `quad`, mirrored to [-cutoff, cutoff]."""

    def __init__(self, t: float):
        dens = SecantDensity(t)
        cutoff = dens.tail_cutoff(SAMPLER_TAIL_EPS)
        xs, masses = quad(dens.values, 0.0, cutoff)
        half_cdf = np.concatenate(([0.0], np.cumsum(masses)))
        total = 2 * half_cdf[-1]
        # Symmetrize and normalize so the table spans exactly [0, 1].
        grid = np.concatenate((-xs[::-1], xs[1:]))
        cdf = np.concatenate(
            ((half_cdf[-1] - half_cdf[::-1]) / total, (half_cdf[-1] + half_cdf[1:]) / total)
        )
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        grid, cdf = grid[keep], cdf[keep]
        cdf[0], cdf[-1] = 0.0, 1.0
        self.t = float(t)
        self.grid = grid
        self.cdf = cdf

    def sample(self, count: int, seed: int) -> np.ndarray:
        _check_draw(count, seed)
        u = np.random.default_rng(seed).random(count)
        # Each draw takes the same interval and slope in any order; sorted,
        # np.interp's searches start from the last one's interval.  The
        # sorted draws' buffer takes the values back in draw order.
        order = u.argsort()
        u = u[order]
        u[order] = np.interp(u, self.cdf, self.grid)
        return u


def _check_draw(count: int, seed: int):
    if count < 1:
        raise DomainError(f"sample count must be >= 1, got {count}")
    if seed < 0:
        raise DomainError(f"sample seed must be >= 0, got {seed}")


def sample_X(t: float, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws from p_t; deterministic for a fixed seed.

    The count and the seed are checked before the sampler's table is built.
    """
    _check_draw(count, seed)
    return SecantSampler(t).sample(count, seed)


# -- classicality of coefficient families -----------------------------------------


@dataclass(frozen=True)
class ClassicalityReport:
    classical: bool
    hermitian: bool
    commuting: bool
    witness: Optional[str]


def classical_check(coeffs, horizon) -> ClassicalityReport:
    """Decide whether x(t) = sum c_{n,k} B[n,k](chi_[0,t)) is classical.

    Self-adjointness needs c_{n,k} = conj(c_{k,n}) for every index pair.
    Commutation [x(t), x(s)] = 0 holds for every family: each pair of terms
    cancels under the swap of its two factors, so `commuting` is always
    true, only the Hermitian test can fail and the verdict does not depend on
    the horizon.  Horizon times must still be positive.  On failure the
    witness names the offending pair.
    """
    table = {}
    for (n, k), value in coeffs.items():
        n, k = int(n), int(k)
        if n < 0 or k < 0:
            raise DomainError(f"coefficient index ({n},{k}) must be nonnegative")
        table[(n, k)] = ComplexRational.coerce(value)
    times = [parse_fraction(t) for t in horizon]
    if times and min(times) <= 0:
        raise DomainError(f"horizon times must be positive, got {min(times)}")

    for (n, k), value in sorted(table.items()):
        mirror = table.get((k, n), ComplexRational(0))
        if value != mirror.conjugate():
            witness = (
                f"c[{n},{k}] = {value} but conj(c[{k},{n}]) = {mirror.conjugate()}"
            )
            return ClassicalityReport(
                classical=False, hermitian=False, commuting=True, witness=witness
            )
    return ClassicalityReport(classical=True, hermitian=True, commuting=True, witness=None)
