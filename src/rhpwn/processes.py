"""Classical processes carried by the truncated Fock spaces.

The field operator B[n,0](t) + B[0,n](t) on the order-n space is, in the
vacuum state, Brownian motion for n = 1 and a continuous binomial/Beta
process for n >= 2 with moment generating function

    (sec(a s))^(2 n t / (n^3 (n-1))),     a = sqrt(n^3 (n-1) / 2).

The exponential splits as exp(s(B[n,0]+B[0,n])) Phi
= exp(W(s)) exp(V(s) B[n,0]) Phi with V solving the Riccati equation
V' = 1 + (n^3(n-1)/2) V^2, V(0) = 0, and W' = n mu V, W(0) = 0.

The normalized law has density p_t(x) = (2^(t-1) / (2 pi))
Gamma((t+ix)/2) Gamma((t-ix)/2) / Gamma(t), an even probability density with
MGF (sec s)^t.  `SecantDensity(t)` is its one evaluator: it computes the
terms free of x once and takes one complex log-Gamma per point.  The density
is integrated by adaptive Simpson quadrature (`quad`) and sampled by linear
interpolation of the tabulated inverse CDF.

The density, `scaled_density` and `mgf_eval` are even bit for bit, failures
included: log Gamma of a conjugate is the conjugate of log Gamma, and cos and
s*s do not see the sign of s.  `even_sweep` evaluates such a function on an
ascending grid and gives each positive point the value already computed at
its mirror, so a grid symmetric about 0 costs about half its points.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import order_constants
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


def _inside_pole(n: int, s: float):
    """(c, sqrt c) for order n >= 2, once |s| sqrt(c) < pi/2 is checked: V_n,
    W_n and the MGF all have their pole at |s| = pi / (2 sqrt c)."""
    c = order_constants(n)[1]
    a = math.sqrt(c)
    if abs(s) * a >= math.pi / 2:
        raise DomainError(
            f"|s| must stay below {math.pi / (2 * a):.6g} for n={n}: "
            f"V_{n}, W_{n} and the MGF are singular there"
        )
    return c, a


def _w_closed_form(n: int, s: float, mu: float) -> float:
    """W_n(s) = -(n mu / c) ln cos(sqrt(c) s); mu s^2 / 2 for n = 1."""
    if n == 1:
        return s * s * mu / 2
    c, a = _inside_pole(n, s)
    return -(n * mu / c) * math.log(math.cos(a * s))


def riccati_split(n: int, order: int = 16) -> SplittingSolution:
    """Solve V' = 1 + (n^3(n-1)/2) V^2 and W' = n mu V as exact series.

    For n = 1 this is V = s, W = mu s^2/2; for n >= 2 the closed forms are
    V = tan(a s)/a and W = -(2 n mu / (n^3(n-1))) ln cos(a s).
    """
    if n < 1:
        raise DomainError(f"Fock order must be >= 1, got {n}")
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
    """Closed-form MGF of the order-n field process at time t.

    n = 1: exp(s^2 t / 2); n >= 2: (sec(a s))^(2 n t/(n^3(n-1))) with
    a = sqrt(n^3(n-1)/2), valid for |s| a < pi/2; that is exp(W_n(s)) at mu = t.
    """
    if n < 1:
        raise DomainError(f"Fock order must be >= 1, got {n}")
    if t <= 0:
        raise DomainError(f"time must be positive, got t={t}")
    w = _w_closed_form(n, float(s), t)
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

# The terms i >= 1 with i as a float, so the hot loop neither slices nor converts.
_LANCZOS_TERMS = tuple((float(i), c) for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1))
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def complex_log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma on the right half plane.

    Lanczos approximation with g = 607/128 and 15 coefficients; absolute
    accuracy well below 1e-12 on Re z in (0, 50], |Im z| <= 200.
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError(f"log Gamma implemented for Re z > 0, got {z}")
    if abs(z) < 1e-3:
        # the sum below would lose the low bits of z in (z - 1) + 1
        return complex_log_gamma(z + 1) - cmath.log(z)
    zm1 = z - 1
    acc = _LANCZOS_COEFFS[0]
    for i, c in _LANCZOS_TERMS:
        acc += c / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(acc)


# -- the hyperbolic-secant family densities -------------------------------------


def density_p(t: float, x: float) -> float:
    """One point of `SecantDensity(t)`.  Nothing in the package calls it; it
    stays because the benchmark's traced pass counts calls to it by name."""
    return SecantDensity(t)(x)


def scaled_density(n: int, t: float):
    """Density y -> p_tau(y / sigma) / sigma of the order-n field process
    sigma X_tau, with sigma = sqrt(n^3(n-1)/2) and tau = 2 n t/(n^3(n-1)).

    One `SecantDensity(tau)` serves every point, so each point takes one
    log-Gamma."""
    if n < 2:
        raise OutOfScopeError(f"the scaled density concerns n >= 2, got n={n}")
    if t <= 0:
        raise DomainError(f"time must be positive, got t={t}")
    c = order_constants(n)[1]
    sigma = math.sqrt(c)
    dens = SecantDensity(n * t / c)
    return lambda y: dens(y / sigma) / sigma


# Largest t the density accepts.  The rounding error of log Gamma(t), which
# grows like t log t, becomes relative error in p_t: against mpmath at 60
# digits it stays below 1e-10 for t <= 1e4 (4e-11 at worst), and reaches
# 2e-10 at t = 5e4 and 2e-9 at t = 1e6.
MAX_DENSITY_T = 1e4


class SecantDensity:
    """p_t, the density with MGF (sec s)^t, with a certified tail cutoff, for
    0 < t <= MAX_DENSITY_T:

        p_t(x) = (2^(t-1)/(2 pi)) Gamma((t+ix)/2) Gamma((t-ix)/2) / Gamma(t).

    The terms free of x, (t-1) log 2 - log 2 pi and log Gamma(t), are
    computed once; each point then takes one log-Gamma a = log Gamma((t+ix)/2),
    since log Gamma((t-ix)/2) is its conjugate, bit for bit.  For the same
    reason the value at -x is the value at x, bit for bit, and a call raises
    at -x exactly when it raises at x; `even_sweep` reuses the value on a grid
    that holds both.

    The tail of p_t decays like x^(t-1) exp(-pi x / 2); past the returned
    cutoff the discarded mass is below the requested epsilon.
    """

    def __init__(self, t: float):
        t = float(t)
        if t <= 0:
            raise DomainError(f"time must be positive, got t={t}")
        if not t <= MAX_DENSITY_T:
            raise DomainError(
                f"the density's time t={t} exceeds {MAX_DENSITY_T:g}, "
                "past which its relative error is not held below 1e-10"
            )
        self.t = t
        self._lead = (t - 1) * math.log(2) - math.log(2 * math.pi)
        self._log_gamma_t = complex_log_gamma(complex(t, 0))

    def __call__(self, x: float) -> float:
        t, x = self.t, float(x)
        a = complex_log_gamma(complex(t, x) / 2)
        # Complex, in this order: the bits of a separate conjugate call.  A real
        # sum would move the last ULP.
        value = cmath.exp(self._lead + a + a.conjugate() - self._log_gamma_t)
        if abs(value.imag) >= 1e-12 * max(1.0, abs(value.real)):
            raise DomainError(f"density residual imaginary part {value.imag} at ({t}, {x})")
        return value.real

    def tail_cutoff(self, eps: float, weight: float = 0.0) -> float:
        """Grid cutoff X with integral_X^inf e^(weight x) p_t dx < eps.

        Valid for |weight| < pi/2.  Past X >= 4(t-1)/r with r = pi/2 - |weight|
        the weighted integrand decays at rate >= 3r/4, so the tail is bounded
        by its value at X times 4/(3r); the threshold below leaves margin.
        """
        if abs(weight) >= math.pi / 2:
            raise DomainError(f"tail weight must satisfy |w| < pi/2, got {weight}")
        rate = math.pi / 2 - abs(weight)
        x = max(10.0, 2.0 * self.t, 4.0 * max(0.0, self.t - 1) / rate)
        while x < 10000.0:
            if math.exp(weight * x) * self(x) < eps * rate / 2:
                return x
            x *= 1.25
        raise DomainError(f"tail cutoff for eps={eps}, weight={weight} not found")


def even_sweep(f, xs) -> list:
    """[f(x) for x in xs] for an f with f(-x) == f(x) bit for bit.

    A positive x takes the value already computed at an earlier point equal
    to -x.  For ascending xs those mirrors are met from right to left, so one
    pointer moving left through xs finds them and nothing is stored besides
    the result.  Every other point is evaluated at its own x, in grid order,
    so the first point that raises is the one the comprehension raises at: a
    mirror is reused only after it was computed.
    """
    values = []
    j = None  # the mirror candidate; starts just left of the first positive x
    for i, x in enumerate(xs):
        if x > 0:
            if j is None:
                j = i - 1
            while j >= 0 and xs[j] > -x:
                j -= 1
            if j >= 0 and xs[j] == -x:
                values.append(values[j])
                continue
        values.append(f(x))
    return values


# -- quadrature and sampling ------------------------------------------------------


def quad(f, a: float, b: float):
    """Adaptive Simpson quadrature of f on [a, b] from 64 seed panels: returns
    the knots a = x_0 < ... < x_m = b and the Simpson mass of each panel."""
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

    seeds = np.linspace(a, b, 65)
    values = [f(x) for x in seeds]
    for lo, hi, flo, fhi in zip(seeds, seeds[1:], values, values[1:]):
        refine(float(lo), float(hi), flo, fhi, 0)
    return np.asarray(knots), np.asarray(masses)


# Bound on the tail mass the sampler's table leaves out on each side.
SAMPLER_TAIL_EPS = 1e-12


class SecantSampler:
    """Inverse-CDF sampler for p_t: linear interpolation of the CDF on the
    knots of `quad`, mirrored to [-cutoff, cutoff]."""

    def __init__(self, t: float):
        dens = SecantDensity(t)
        cutoff = dens.tail_cutoff(SAMPLER_TAIL_EPS)
        xs, masses = quad(dens, 0.0, cutoff)
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
        _check_count(count)
        return np.interp(np.random.default_rng(seed).random(count), self.cdf, self.grid)


def _check_count(count: int):
    if count < 1:
        raise DomainError(f"sample count must be >= 1, got {count}")


def sample_X(t: float, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws from p_t; deterministic for a fixed seed.

    The count is checked before the sampler's table is built.
    """
    _check_count(count)
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
