import cmath
import io
import itertools
import json
import math
import os
import random
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import mupoly_to_sympy
from oracles import (
    eval_float,
    mgf_numeric_check,
    mgf_series,
    recursive_quad,
    v_eval,
    w_eval,
    weighted_tail_cutoff,
)
from rhpwn import processes
from rhpwn.algebra import RHPWN, AlgebraElement, commutator, order_constants
from rhpwn.cli import main as cli_main
from rhpwn.errors import DomainError, OutOfScopeError
from rhpwn.mupoly import MU, MuPoly
from rhpwn.processes import (
    SecantDensity,
    _field_power_states,
    SecantSampler,
    classical_check,
    complex_log_gamma,
    log_gamma_array,
    mgf_eval,
    mgf_sweep,
    riccati_split,
    sample_X,
    scaled_density,
    splitting_series_check,
)
from rhpwn.rewrite import Word, reduce_truncated
from rhpwn.scalars import ComplexRational
from rhpwn.series import series_exp, series_mul
from rhpwn.stepfn import StepFunction


# -- series utilities -----------------------------------------------------------


def test_series_exp_log_inverse():
    a = [MuPoly.zero(), MU, MuPoly.constant(Fraction(1, 3)), MU * MU]
    e = series_exp(a, 8)
    s, mu = sympy.symbols("s mu")
    e_sym = sum(mupoly_to_sympy(c, mu) * s**j for j, c in enumerate(e))
    a_sym = sum(mupoly_to_sympy(c, mu) * s**j for j, c in enumerate(a))
    assert sympy.expand(sympy.series(sympy.log(e_sym), s, 0, 9).removeO() - a_sym) == 0
    one = [MuPoly.one()] + [MuPoly.zero()] * 8
    assert series_mul(e, series_exp([c.scaled(-1) for c in a], 8), 8) == one


# -- Riccati splitting -----------------------------------------------------------


def test_riccati_closed_forms_n1():
    sol = riccati_split(1, 8)
    assert [str(c) for c in sol.v_series] == ["0", "1", "0", "0", "0", "0", "0", "0", "0"]
    assert sol.w_series[2] == MU.scaled(Fraction(1, 2))
    assert v_eval(1, 0.4) == 0.4
    assert w_eval(1, 0.4, 3.0) == pytest.approx(0.24)


def test_riccati_residual_exact():
    # V' - 1 - (n^3 (n-1)/2) V^2 = 0 through order 12
    for n in (1, 2, 3, 4):
        sol = riccati_split(n, 13)
        beta = Fraction(n**3 * (n - 1), 2)
        v = list(sol.v_series)
        square = [MuPoly.zero()] * 13
        for i in range(13):
            for j in range(13 - i):
                square[i + j] = square[i + j] + v[i] * v[j]
        for m in range(13):
            derivative = v[m + 1].scaled(m + 1)
            rhs = MuPoly.constant(1 if m == 0 else 0) + square[m].scaled(beta)
            assert derivative == rhs


def test_riccati_series_matches_tangent():
    # V = tan(a s) / a has series s + beta s^3/3 + ...
    sol = riccati_split(2, 15)
    for s in (0.05, 0.11, 0.15):
        series_value = sum(
            float(c.coefficient(0).re) * s**j for j, c in enumerate(sol.v_series)
        )
        assert series_value == pytest.approx(v_eval(2, s), rel=1e-9)
    with pytest.raises(DomainError):
        v_eval(2, 1.0)  # tan singularity at pi/4 for n=2


def test_initial_conditions():
    for n in (1, 2, 5):
        sol = riccati_split(n, 6)
        assert sol.v_series[0].is_zero and sol.w_series[0].is_zero


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_splitting_series_exact(n):
    for order in (8, 12):
        report = splitting_series_check(n, order)
        assert report.passed, report.first_mismatch


def _field_power_states_enumerated(n, order):
    """Reference: expand (B[n,0] + B[0,n])^j into all 2^j words and reduce each."""
    states = [{0: MuPoly.one()}]
    for j in range(1, order + 1):
        acc = {}
        for choices in itertools.product([(n, 0), (0, n)], repeat=j):
            for k, coeff in reduce_truncated(n, Word.from_indices(choices)):
                acc[k] = acc.get(k, MuPoly.zero()) + coeff
        states.append({k: c for k, c in acc.items() if not c.is_zero})
    return states


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_field_power_recurrence_matches_enumeration(n):
    reference = _field_power_states_enumerated(n, 10)
    for order in range(11):
        assert _field_power_states(n, order) == reference[: order + 1]


def test_reduce_truncated_from_a_state():
    # A word applied to a given state equals the longer word applied to Phi.
    start = reduce_truncated(3, Word.from_indices([(3, 0), (3, 0)]))
    tail = Word.from_indices([(0, 3), (2, 2), (3, 0)])
    longer = Word.from_indices([(0, 3), (2, 2), (3, 0), (3, 0), (3, 0)])
    assert reduce_truncated(3, tail, state=start) == reduce_truncated(3, longer)
    assert reduce_truncated(3, Word(), state=start) == start


def test_splitting_order_two_coefficient():
    # s^2 coefficient: (1/2)(B+A)^2 Phi = (1/2)(B^2 Phi + n mu Phi)
    for n in (1, 2, 3):
        report = splitting_series_check(n, 2)
        assert report.phi_component[2] == MU.scaled(Fraction(n, 2))


def test_splitting_order_cap():
    with pytest.raises(DomainError):
        splitting_series_check(2, 13)
    with pytest.raises(DomainError):
        splitting_series_check(2, -1)


# -- moment generating functions ---------------------------------------------------


def test_mgf_closed_forms():
    assert mgf_eval(1, 0.7, 2.0) == pytest.approx(math.exp(0.49), rel=1e-12)
    assert mgf_eval(4, 0.0, 3.0) == 1.0
    # n = 2: (sec 2s)^(t/2)
    s, t = 0.3, 1.7
    assert mgf_eval(2, s, t) == pytest.approx((1 / math.cos(2 * s)) ** (t / 2), rel=1e-12)


def test_mgf_domain():
    with pytest.raises(DomainError):
        mgf_eval(2, math.pi / 4, 1.0)
    with pytest.raises(DomainError):
        mgf_eval(1, 0.1, -1.0)


def test_mgf_overflow_edge():
    # exp(W) is finite exactly while W <= log(max float), about 709.78;
    # for n = 1 and t = 1, W = s^2 / 2 crosses it between s = 37.67 and 37.68
    assert 1e308 < mgf_eval(1, 37.67, 1.0) < math.inf
    with pytest.raises(DomainError, match="overflows a float"):
        mgf_eval(1, 37.68, 1.0)


def test_constant_home_matches_inline_expressions():
    # The float expressions as they were written before the order-n
    # constants had one home; the rewritten ones must agree bit for bit.
    def mgf_old(n, s, t):
        a = math.sqrt(n**3 * (n - 1) / 2)
        exponent = 2 * n * t / (n**3 * (n - 1))
        return math.exp(-exponent * math.log(math.cos(a * s)))

    def density_old(n, t, y):
        sigma = math.sqrt(n**3 * (n - 1) / 2)
        tau = 2 * n * t / (n**3 * (n - 1))
        return SecantDensity(tau)(y / sigma) / sigma

    def w_old(n, s, mu):
        a = math.sqrt(n**3 * (n - 1) / 2)
        return -(2 * n * mu / (n**3 * (n - 1))) * math.log(math.cos(a * s))

    rng = random.Random(4711)
    for _ in range(3000):
        n = rng.randint(2, 8)
        a = math.sqrt(n**3 * (n - 1) / 2)
        s = rng.uniform(-1, 1) * 0.999 * math.pi / (2 * a)
        t = rng.uniform(0.01, 12.0)
        mu = rng.uniform(0.01, 40.0)
        assert mgf_eval(n, s, t) == mgf_old(n, s, t)
        assert v_eval(n, s) == math.tan(a * s) / a
        assert w_eval(n, s, mu) == w_old(n, s, mu)
    for _ in range(400):
        n = rng.randint(2, 8)
        t = rng.uniform(0.05, 8.0)
        y = rng.uniform(-60.0, 60.0)
        assert scaled_density(n, t)(y) == density_old(n, t, y)


def test_mgf_bridge_phi_component():
    # Phi-component of the splitting equals the independent MGF series (t <-> mu)
    for n in (1, 2, 3, 4):
        report = splitting_series_check(n, 8)
        assert list(report.phi_component) == mgf_series(n, 8)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mgf_series_against_sympy(n):
    # exact Taylor coefficients of sec(a s)^(n t / c), c = n^3 (n-1)/2, a = sqrt(c);
    # exp(s^2 t / 2) for n = 1
    s, t = sympy.symbols("s t")
    if n == 1:
        mgf = sympy.exp(s**2 * t / 2)
    else:
        c = sympy.Rational(n**3 * (n - 1), 2)
        mgf = sympy.sec(sympy.sqrt(c) * s) ** (n * t / c)
    want = sympy.expand(sympy.series(mgf, s, 0, 9).removeO())
    got = mgf_series(n, 8)
    assert len(got) == 9
    for j, coeff in enumerate(got):
        assert sympy.expand(mupoly_to_sympy(coeff, t) - want.coeff(s, j)) == 0


def test_mgf_series_against_float():
    for n in (2, 3):
        coeffs = mgf_series(n, 12)
        t = 1.3
        for s in (0.01, 0.03):
            series_value = sum(float(eval_float(c, t).real) * s**j for j, c in enumerate(coeffs))
            assert series_value == pytest.approx(mgf_eval(n, s, t), rel=1e-10)


def test_variance_from_second_derivative():
    h = 2e-3
    for n, t in ((2, 1.0), (3, 2.0), (4, 1.0)):
        def second(hh):
            return (mgf_eval(n, hh, t) - 2 + mgf_eval(n, -hh, t)) / hh**2

        richardson = (4 * second(h / 2) - second(h)) / 3
        assert abs(richardson - n * t) <= 1e-6 * n * t


# -- log-Gamma ----------------------------------------------------------------------


def test_log_gamma_integers():
    assert abs(complex_log_gamma(1)) < 1e-13
    assert complex_log_gamma(5).real == pytest.approx(math.log(24), rel=1e-14)
    assert abs(complex_log_gamma(5).imag) < 1e-14


def test_log_gamma_reflection_oracle():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y)
    for y in (0.1, 1.0, 3.0, 10.0, 40.0):
        lhs = 2 * complex_log_gamma(complex(0.5, y)).real
        rhs = math.log(math.pi) - _log_cosh(math.pi * y)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def _log_cosh(x):
    return abs(x) + math.log1p(math.exp(-2 * abs(x))) - math.log(2)


def test_log_gamma_recurrence():
    # log Gamma(z+1) = log z + log Gamma(z) on the used domain
    for z in (complex(0.7, 0.0), complex(2.5, 30.0), complex(10.0, -100.0)):
        lhs = complex_log_gamma(z + 1)
        rhs = complex_log_gamma(z) + np.log(complex(z))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=50.0, exclude_min=True),
    st.floats(min_value=-200.0, max_value=200.0),
)
def test_log_gamma_against_mpmath(re, im):
    # the documented domain: Re z in (0, 50], |Im z| <= 200, absolute error < 1e-12
    z = complex(re, im)
    with mpmath.workdps(40):
        want = complex(mpmath.loggamma(mpmath.mpc(re, im)))
    assert abs(complex_log_gamma(z) - want) < 1e-12


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        complex_log_gamma(complex(-1.0, 2.0))


# -- densities -------------------------------------------------------------------------


def test_density_p1_is_hyperbolic_secant():
    for x in (0.0, 1.0, 2.0):
        expected = 1 / (2 * math.cosh(math.pi * x / 2))
        assert SecantDensity(1.0)(x) == pytest.approx(expected, rel=1e-10)


def test_density_even_and_positive():
    for t in (0.5, 2.0):
        for x in (0.3, 1.7, 8.0):
            assert SecantDensity(t)(x) == SecantDensity(t)(-x)
            assert SecantDensity(t)(x) > 0


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
def test_density_normalization(t):
    cutoff = SecantDensity(t).tail_cutoff(1e-12)
    total, _ = quad(SecantDensity(t), -cutoff, cutoff, limit=300, epsabs=1e-12)
    assert abs(total - 1) < 1e-8


def test_density_domain():
    with pytest.raises(DomainError):
        SecantDensity(0.0)
    for t in (math.nextafter(processes.MAX_DENSITY_T, math.inf), 1e300, math.inf, math.nan):
        with pytest.raises(DomainError):
            SecantDensity(t)
    with pytest.raises(OutOfScopeError):
        scaled_density(1, 1.0)(0.0)


def test_density_refuses_nan():
    # the first non-finite value in the order of xs is refused, with its reason
    message = "the density at t=2.0 needs a number, got x=nan"
    for dens in (SecantDensity(2.0), scaled_density(3, 2.0)):
        with pytest.raises(DomainError, match=f"^{message}$"):
            dens(math.nan)
        with pytest.raises(DomainError, match=f"^{message}$"):
            dens.values([0.5, -math.nan, 1.0])
    with pytest.raises(DomainError, match=r"^the density at t=1e-309, x=-0.0 overflows a float$"):
        SecantDensity(1e-309).values([1.0, -0.0, math.nan])


def _density_mpmath(t, x):
    with mpmath.workdps(60):
        t, x = mpmath.mpf(t), mpmath.mpf(x)
        gammas = abs(mpmath.gamma((t + 1j * x) / 2)) ** 2 / mpmath.gamma(t)
        return 2 ** (t - 1) / (2 * mpmath.pi) * gammas


def test_density_against_mpmath_up_to_the_time_bound():
    # the stated accuracy of SecantDensity over (0, MAX_DENSITY_T]
    top = math.log10(processes.MAX_DENSITY_T)
    rng = random.Random(11)
    ts = [10 ** rng.uniform(-300, top) for _ in range(40)]
    ts += [10 ** rng.uniform(top - 1, top) for _ in range(20)]
    ts += [1e-300, 8.0, processes.MAX_DENSITY_T]
    for t in ts:
        dens = SecantDensity(t)
        for x in (0.0, 0.5 * math.sqrt(t), 2 * math.sqrt(t), 5 * math.sqrt(t)):
            want = _density_mpmath(t, x)
            assert abs((dens(x) - want) / want) < 1e-10, (t, x)


# The largest relative error against mpmath of the scalar evaluator this one
# replaced, per t: at x in {0, sqrt(t)/2, 2 sqrt(t), 5 sqrt(t)} as the README
# gave it (its 1e-12 at t = 1e3 was 1.1e-12), and at 200 seeded points of
# [0, 5 sqrt(t)], rounded up.
_SCALAR_PATH_ERROR = {
    1e-300: (1e-13, 1e-13),
    1e-3: (1e-13, 1e-13),
    0.3: (1e-13, 1e-13),
    2.0: (1e-13, 1e-13),
    8.0: (4e-15, 9e-15),
    1e3: (1.2e-12, 1.7e-12),
    1e4: (3e-11, 3e-11),
}


@pytest.mark.parametrize("t", list(_SCALAR_PATH_ERROR))
def test_array_density_against_mpmath(t):
    rng = random.Random(int(t * 1000) + 7)
    root = math.sqrt(t)
    dens = SecantDensity(t)
    for bound, xs in zip(_SCALAR_PATH_ERROR[t], (
        [0.0, 0.5 * root, 2 * root, 5 * root],
        [rng.uniform(0, 5 * root) for _ in range(200)],
    )):
        errors = [abs(float((p - _density_mpmath(t, x)) / _density_mpmath(t, x)))
                  for p, x in zip(dens.values(xs), xs)]
        assert max(errors) <= bound, (max(errors), bound)


def test_density_at_huge_x_is_zero_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e-3, 1.0, processes.MAX_DENSITY_T):
            for x in (1e20, 1e200, 1e300, sys.float_info.max):
                assert SecantDensity(t).values([x, -x]).tolist() == [0.0, 0.0], (t, x)
                assert scaled_density(3, t).values([x]).tolist() == [0.0], (t, x)
            assert SecantDensity(t)(1e300) == 0.0


def test_scaled_density_substitution():
    # n=2: sigma = 2, tau = t/2
    t, y = 1.4, 0.8
    assert scaled_density(2, t)(y) == pytest.approx(SecantDensity(t / 2)(y / 2) / 2, rel=1e-14)
    assert scaled_density(3, t)(y) == scaled_density(3, t)(-y)


@pytest.mark.parametrize("n", range(2, 9))
def test_order_n_density_bound_is_on_tau_and_names_t(n):
    # tau = n t / c reaches MAX_DENSITY_T exactly at t = MAX_DENSITY_T c / n
    c = order_constants(n)[1]
    t = processes.MAX_DENSITY_T * c / n
    dens = SecantDensity(t, n)
    assert (dens.t, dens.scale) == (n * t / c, math.sqrt(c))
    assert dens.t <= processes.MAX_DENSITY_T
    past = math.nextafter(t, math.inf)
    with pytest.raises(DomainError, match=rf"^the order-{n} density's time t={past!r} gives "):
        SecantDensity(past, n)
    with pytest.raises(DomainError, match=rf"^time must be positive, got t=0$"):
        SecantDensity(0, n)
    with pytest.raises(OutOfScopeError, match=r"^the scaled density concerns n >= 2, got n=1$"):
        SecantDensity(-1.0, 1)


@pytest.mark.parametrize("n,s", [(2, 0.3), (3, 0.15)])
def test_scaled_density_mgf(n, s):
    t = 1.5
    sigma = math.sqrt(n**3 * (n - 1) / 2)
    tau = 2 * n * t / (n**3 * (n - 1))
    cutoff = sigma * weighted_tail_cutoff(tau, 1e-15, s * sigma)
    got, _ = quad(
        lambda y: math.exp(s * y) * scaled_density(n, t)(y),
        -cutoff,
        cutoff,
        limit=400,
        epsabs=1e-12,
    )
    want = mgf_eval(n, s, t)
    assert abs(got - want) <= 1e-6 * want


def _density_three_log_gammas(t, x):
    # the formula as written, with log Gamma(t) and the conjugate term per point
    value = cmath.exp(
        (t - 1) * math.log(2)
        - math.log(2 * math.pi)
        + complex_log_gamma(complex(t, x) / 2)
        + complex_log_gamma(complex(t, -x) / 2)
        - complex_log_gamma(complex(t, 0))
    )
    return value.real


def test_density_bits_match_three_log_gamma_formula():
    rng = random.Random(2024)
    ts = [1e-4, 3e-4, 1.5e-3, 0.5, 1.0, 2.0, 50.0]
    ts += [rng.uniform(1e-4, 2e-3) for _ in range(20)]
    ts += [rng.uniform(2e-3, 50.0) for _ in range(40)]
    xs = [0.0, -0.0, 60.0, -60.0, 1e-300] + [rng.uniform(-60.0, 60.0) for _ in range(40)]
    for t in ts:
        dens = SecantDensity(t)
        for x in xs:
            want = _density_three_log_gammas(t, x)
            assert dens(x) == want, (t, x)
    for n in (2, 3, 4):
        c = order_constants(n)[1]
        sigma = math.sqrt(c)
        for t in ts[:30]:
            tau = n * t / c
            for y in xs:
                want = _density_three_log_gammas(tau, y / sigma) / sigma
                assert scaled_density(n, t)(y) == want, (n, t, y)


@pytest.fixture
def log_gamma_counter(monkeypatch):
    """The points log Gamma is evaluated at, one entry per point."""
    calls = []

    def counting(z):
        calls.extend(z.tolist())
        return log_gamma_array(z)

    monkeypatch.setattr(processes, "log_gamma_array", counting)
    return calls


def test_secant_density_takes_one_log_gamma_per_point(log_gamma_counter):
    dens = SecantDensity(2.0)
    assert len(log_gamma_counter) == 1
    for m, x in enumerate([0.0, 0.5, -3.0, 17.0], start=1):
        dens(x)
        assert len(log_gamma_counter) == m + 1


def test_density_cli_takes_one_log_gamma_per_point(log_gamma_counter):
    with redirect_stdout(io.StringIO()):
        assert cli_main(["density", "--t", "2", "--x-grid", "0:1:1/10"]) == 0
    assert len(log_gamma_counter) == 12


def test_scaled_density_cli_takes_one_log_gamma_per_point(log_gamma_counter):
    with redirect_stdout(io.StringIO()):
        assert cli_main(["density", "--n", "2", "--t", "1", "--x-grid", "0:1:1/10"]) == 0
    assert len(log_gamma_counter) == 12


def test_one_point_density_is_the_array_density_bit_for_bit():
    # A call at one point and `values` over a whole grid give the same bits,
    # as do complex_log_gamma and log_gamma_array.
    rng = random.Random(2025)
    ts = [1e-300, 1e-4, 1.5e-3, 0.3, 1.0, 2.0, 8.0, 50.0, 1e3, processes.MAX_DENSITY_T]
    ts += [10 ** rng.uniform(-4, 4) for _ in range(20)]
    xs = [0.0, -0.0, 5e-324, 1e-300, 1e-3, -60.0, 2000.0, 1e300]
    xs += [rng.uniform(-60.0, 60.0) for _ in range(200)]
    for t in ts:
        dens = SecantDensity(t)
        assert dens.values(xs).tolist() == [dens(x) for x in xs], t
        zs = np.array([complex(t, x) / 2 for x in xs if x >= 0])
        with np.errstate(all="ignore"):
            assert log_gamma_array(zs).tolist() == [complex_log_gamma(z) for z in zs], t
    for n in (2, 3, 5):
        for t in ts[:12]:
            dens = scaled_density(n, t)
            assert dens.values(xs).tolist() == [dens(x) for x in xs], (n, t)


def test_scaled_density_reused_matches_one_point_form():
    rng = random.Random(808)
    for n in (2, 3, 5):
        t = rng.uniform(0.05, 8.0)
        dens = scaled_density(n, t)
        for y in [0.0, -0.0] + [rng.uniform(-60.0, 60.0) for _ in range(30)]:
            assert dens(y) == scaled_density(n, t)(y), (n, t, y)


# -- bitwise evenness, which mgf_sweep relies on ----------------------------------


def _outcome(f, x):
    """float.hex of f(x), or the type of the exception it raised."""
    try:
        return float.hex(f(x))
    except Exception as exc:
        return type(exc).__name__


_DENSITY_TIMES = st.floats(min_value=0.0, max_value=processes.MAX_DENSITY_T, exclude_min=True)
# +-0, the least subnormal, points where p_t underflows to 0, and the float range
_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2000.0, 1e6, 1e300, sys.float_info.max]),
    st.floats(min_value=-200.0, max_value=200.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def test_evenness_points_reach_underflow():
    assert SecantDensity(1.0)(2000.0) == 0.0
    assert SecantDensity(processes.MAX_DENSITY_T)(1e6) == 0.0
    assert scaled_density(5, 1.0)(1e6) == 0.0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_DENSITY_TIMES, _POINTS)
@example(5e-324, 0.0)
@example(1.0, 5e-324)
@example(processes.MAX_DENSITY_T, 2000.0)
def test_secant_density_is_even_bit_for_bit(t, x):
    dens = SecantDensity(t)
    assert _outcome(dens, -x) == _outcome(dens, x), (t, x)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(2, 5), st.floats(min_value=1e-300, max_value=processes.MAX_DENSITY_T), _POINTS)
@example(2, 1.0, 5e-324)
def test_scaled_density_is_even_bit_for_bit(n, t, y):
    dens = scaled_density(n, t)
    assert _outcome(dens, -y) == _outcome(dens, y), (n, t, y)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(1, 8),
    st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.0, max_value=processes.MAX_DENSITY_T, exclude_min=True),
)
@example(1, 5e-324, 1.0)
@example(3, 0.0, 1.0)
def test_mgf_is_even_bit_for_bit(n, u, t):
    # s a fraction u of the pole pi / (2 sqrt c); n = 1 has none and overflows past 40 at t = 1
    pole = 40.0 if n == 1 else math.pi / (2 * math.sqrt(order_constants(n)[1]))
    s = u * pole
    f = lambda s: mgf_eval(n, s, t)  # noqa: E731
    assert _outcome(f, -s) == _outcome(f, s), (n, s, t)


# -- the sweeps ------------------------------------------------------------------------


def _sweep_outcome(sweep, xs):
    """The values of sweep(xs) as float.hex, or the type and message it raised."""
    try:
        return [float.hex(float(v)) for v in sweep(xs)]
    except DomainError as exc:
        return ("DomainError", str(exc))


# Points that are refused at t = 1e-309 (p_t overflows near x = 0) and points
# that are not; signed zeros and the least subnormal.
_SWEEP_POINTS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 1.0, -1.0, 2.0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(_SWEEP_POINTS), min_size=1, max_size=12),
    st.booleans(),
    st.sampled_from([1e-309, 2.0]),
    st.sampled_from([None, 2, 3]),
)
def test_density_values_are_the_comprehension(xs, ascending, t, n):
    # values, or which point raises and with which message
    if ascending:
        xs.sort()
    dens = SecantDensity(t) if n is None else scaled_density(n, t)
    got = _sweep_outcome(dens.values, xs)
    assert got == _sweep_outcome(lambda xs: [dens(x) for x in xs], xs), (xs, t, n)


# |s| = 0.8 is past the pole for n = 2 and 3, 38 overflows for n = 1 at t = 1
_MGF_POINTS = [0.0, -0.0, 0.5, -0.5, 0.7, -0.7, 0.8, -0.8, 38.0, -38.0]
_MGF_TIMES = [1.0, 0.37, 1e3, 1e5]


def _ulps_around(x, k):
    """x with the k floats on each side of it, ascending."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def _mgf_edges(n, t):
    """The least float s >= 0 that mgf_eval(n, s, t) refuses, found by
    bisection on the bit patterns of the floats, which order as the floats
    do; and, for n >= 2, the pole pi/(2a)."""
    as_float = lambda k: struct.unpack("<d", struct.pack("<q", k))[0]  # noqa: E731
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", 1e3))[0]  # 0 is accepted, 1e3 refused
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outcome(lambda s: mgf_eval(n, s, t), as_float(mid)) == "DomainError":
            hi = mid
        else:
            lo = mid
    if n == 1:
        return [as_float(hi)]
    return [as_float(hi), math.pi / (2 * math.sqrt(order_constants(n)[1]))]


@st.composite
def _mgf_sweep_case(draw):
    n = draw(st.integers(1, 4))
    t = draw(st.sampled_from(_MGF_TIMES))
    edges = _mgf_edges(n, t)
    near = [s for edge in edges for s in _ulps_around(edge, 6)]
    reach = 1.2 * max(edges)
    point = st.one_of(st.sampled_from(_MGF_POINTS), st.sampled_from(near),
                      st.floats(min_value=-reach, max_value=reach))
    signed = st.tuples(point, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    return n, t, draw(st.lists(signed, min_size=1, max_size=12))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_mgf_sweep_case(), st.booleans(), st.booleans())
def test_mgf_sweep_is_the_comprehension(case, ascending, as_array):
    # values, or which point raises and with which message, on a list or an
    # array, with points a few ULPs either side of the pole and of the overflow
    n, t, ss = case
    if ascending:
        ss.sort()
    if as_array:
        ss = np.array(ss)
    got = _sweep_outcome(lambda ss: mgf_sweep(n, ss, t), ss)
    assert got == _sweep_outcome(lambda ss: [mgf_eval(n, s, t) for s in ss], ss), (ss, n, t)


def _grid_spec(rng, kind):
    """start:stop:step of one seeded grid of the given shape."""
    step = Fraction(rng.randint(1, 60), rng.randint(1, 12)) * rng.choice(
        [Fraction(1, 100), Fraction(1, 10), Fraction(1), Fraction(5)]
    )
    offset = step * Fraction(rng.randint(1, 9), 10)
    count = rng.randint(1, 20)
    if kind == "symmetric":
        start = -step * count - rng.choice([0, offset])
        stop = -start
    elif kind == "off-centre":
        start = -step * rng.randint(1, 20) + rng.choice([offset, -offset])
        stop = start + step * count * 2
    elif kind == "positive":
        start = offset + step * rng.randint(0, 5)
        stop = start + step * count
    elif kind == "negative":
        stop = -offset - step * rng.randint(0, 5)
        start = stop - step * count
    elif kind == "one-point":
        start = stop = rng.choice([1, -1]) * offset * rng.randint(0, 3)
    else:  # huge: about 2^54 to 2^70
        big = Fraction(2 ** rng.randint(54, 70)) + Fraction(rng.randint(0, 3), rng.randint(1, 4))
        if rng.random() < 0.5:  # across 0 in steps of about 2^e
            step = big / rng.randint(1, 3)
            start, stop = -big, big
        else:  # 1/4..1 apart, so neighbours round to the same float
            step = Fraction(1, rng.randint(1, 4))
            start = rng.choice([1, -1]) * big
            stop = start + 40 * step
    return f"{start}:{stop}:{step}"


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_sweeps_write_what_the_comprehension_writes(monkeypatch):
    rng = random.Random(2020)
    kinds = ("symmetric", "off-centre", "positive", "negative", "one-point", "huge")
    cases = []
    for i in range(200):
        spec = _grid_spec(rng, kinds[i % len(kinds)])
        t = repr(round(rng.uniform(0.3, 8.0), 4))
        cases += [
            ["density", "--t", t, f"--x-grid={spec}"],
            ["density", "--n", str(rng.randint(2, 4)), "--t", t, f"--x-grid={spec}"],
            ["mgf", "--n", str(rng.randint(1, 4)), "--t", t, f"--s-grid={spec}"],
        ]
    swept = [_run_quiet(argv) for argv in cases]
    values = SecantDensity.values
    monkeypatch.setattr(SecantDensity, "values",
                        lambda dens, xs: np.concatenate([values(dens, [x]) for x in xs]))
    monkeypatch.setattr(processes, "mgf_sweep",
                        lambda n, ss, t: [processes.mgf_eval(n, s, t) for s in ss])
    for argv, got in zip(cases, swept):
        assert got == _run_quiet(argv), argv
    # the cases reach both results and refusals
    assert {code for code, _, _ in swept} == {0, 2}


def test_symmetric_density_grid_takes_half_the_log_gammas(log_gamma_counter):
    # 21 points with 11 distinct |x|, plus log Gamma(t): one evaluation at
    # (t + i|x|)/2 per distinct |x|, in ascending order
    for argv, sigma in (
        (["density", "--t", "2", "--x-grid=-1:1:1/10"], 1.0),
        (["density", "--n", "2", "--t", "2", "--x-grid=-1:1:1/10"], 2.0),
    ):
        log_gamma_counter.clear()
        with redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 0
        assert len(log_gamma_counter) == 12, argv
        assert [z.imag for z in log_gamma_counter[1:]] == [0.5 * (i / 10 / sigma) for i in range(11)]


def test_symmetric_mgf_grid_takes_half_the_evaluations(monkeypatch):
    # one cos per distinct |s|, of a|s| with a = 2 at n = 2, in ascending order
    calls = []

    def counting(x):
        calls.append(x)
        return math.cos(x)

    monkeypatch.setattr(processes, "math", SimpleNamespace(**{**vars(math), "cos": counting}))
    with redirect_stdout(io.StringIO()):
        assert cli_main(["mgf", "--n", "2", "--t", "1", "--s-grid=-0.3:0.3:0.1"]) == 0
    assert calls == [2 * u for u in (0.0, 0.1, 0.2, 0.3)]


def test_sweep_refuses_at_the_first_failing_point():
    code, out, err = _run_quiet(["mgf", "--n", "1", "--t", "1000", "--s-grid=-40:40:40"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith("the MGF at s=-40.0, ")


@pytest.mark.parametrize("t", [0.3, 2.0, 8.0])
@pytest.mark.parametrize("s", [0.0, 0.5])
def test_quad_against_scipy(t, s):
    # half the normalization of the even p_t (s = 0), and half-line MGF integrals
    dens = SecantDensity(t)
    eps = processes.SAMPLER_TAIL_EPS
    cutoff = dens.tail_cutoff(eps) if s == 0.0 else weighted_tail_cutoff(t, eps, s)

    def f(x):
        return math.exp(s * x) * dens(x)

    knots, masses = processes.quad(lambda xs: np.exp(s * xs) * dens.values(xs), 0.0, cutoff)
    assert knots[0] == 0.0 and knots[-1] == cutoff
    if s == 0.0:  # the sampler's half table keeps its size
        assert len(knots) == {0.3: 7609, 2.0: 6085, 8.0: 5538}[t]
    assert len(masses) == len(knots) - 1 and np.all(np.diff(knots) > 0)
    want, _ = quad(f, 0.0, cutoff, limit=400, epsabs=1e-14, epsrel=1e-13)
    assert abs(math.fsum(masses) - want) <= 1e-10 * want


def test_quad_exact_integral():
    knots, masses = processes.quad(np.exp, -1.0, 2.0)
    assert knots[0] == -1.0 and knots[-1] == 2.0
    assert math.fsum(masses) == pytest.approx(math.e**2 - 1 / math.e, rel=1e-13)


@pytest.mark.parametrize("f", [lambda x: 1 / (1 + x * x), lambda x: (x < 1 / 3) * 1.0],
                         ids=["smooth", "step"])
def test_quad_is_the_recursion_bit_for_bit(f):
    # the step keeps halving its panel to the depth cap
    knots, masses = processes.quad(f, -1.0, 3.0)
    assert (knots.tolist(), masses.tolist()) == recursive_quad(f, -1.0, 3.0)


@pytest.mark.parametrize("t,count", [(0.3, 7609), (2.0, 6085), (8.0, 5538)])
def test_sampler_table_is_the_recursion_bit_for_bit(t, count):
    # The recursion is fed the values the level-by-level quad computed, so a
    # point it asks for that quad never evaluated fails the lookup.
    dens = SecantDensity(t)
    table = {}

    def f(xs):
        values = dens.values(xs)
        table.update(zip(xs.tolist(), values.tolist()))
        return values

    cutoff = dens.tail_cutoff(processes.SAMPLER_TAIL_EPS)
    knots, masses = processes.quad(f, 0.0, cutoff)
    assert len(knots) == count
    assert (knots.tolist(), masses.tolist()) == recursive_quad(table.__getitem__, 0.0, cutoff)


def test_cli_import_leaves_scipy_out():
    src = str(Path(processes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, rhpwn.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_mgf_numeric_check():
    check = mgf_numeric_check(1.0, 0.0)
    assert check.closed_form == 1.0
    assert check.rel_err < 1e-10
    check = mgf_numeric_check(2.0, 0.75)
    assert check.rel_err < 1e-6
    with pytest.raises(DomainError):
        mgf_numeric_check(1.0, 1.6)


def test_mgf_numeric_second_derivative_is_variance():
    t, h = 2.0, 1e-3
    values = {
        s: mgf_numeric_check(t, s).numeric
        for s in (-h, -h / 2, 0.0, h / 2, h)
    }

    def second(hh):
        return (values[hh] - 2 * values[0.0] + values[-hh]) / hh**2

    richardson = (4 * second(h / 2) - second(h)) / 3
    assert abs(richardson - t) < 1e-6


# -- sampling ----------------------------------------------------------------------------


def test_sampler_deterministic():
    a = sample_X(2.0, 500, 7)
    b = sample_X(2.0, 500, 7)
    assert np.array_equal(a, b)
    c = sample_X(2.0, 500, 8)
    assert not np.array_equal(a, c)


def test_sampler_moments_and_ks():
    sampler = SecantSampler(2.0)
    xs = sampler.sample(20000, 3)
    assert abs(xs.mean()) < 4 * math.sqrt(2.0 / len(xs))
    assert abs(xs.var() - 2.0) < 0.1
    u = np.sort(np.interp(np.sort(xs), sampler.grid, sampler.cdf))
    n = len(xs)
    grid = np.arange(n)
    d = np.max(np.maximum(u - grid / n, (grid + 1) / n - u))
    assert d < 1.6276 / math.sqrt(n)


@pytest.mark.parametrize("t", [0.3, 2.0, 37.5, 900.0, processes.MAX_DENSITY_T])
def test_sampler_draws_are_the_unsorted_interp(t):
    sampler = SecantSampler(t)
    for count, seed in ((1, 0), (1, 9), (2, 4), (257, 1), (30000, 11)):
        want = np.interp(np.random.default_rng(seed).random(count), sampler.cdf, sampler.grid)
        assert sampler.sample(count, seed).tobytes() == want.tobytes(), (t, count, seed)


def test_sampler_repeated_and_knot_draws_are_the_unsorted_interp(monkeypatch):
    # equal draws, draws on the knots of the CDF and at its ends, shuffled
    sampler = SecantSampler(0.7)
    u = np.random.default_rng(3).random(300)
    draws = np.concatenate([u, u[::-1], u[:50], sampler.cdf[::37], sampler.cdf[-2:],
                            [0.0, 0.0, 0.5, 0.5, np.nextafter(1.0, 0.0)]])
    np.random.default_rng(5).shuffle(draws)
    monkeypatch.setattr(processes.np.random, "default_rng",
                        lambda seed: SimpleNamespace(random=lambda count: draws[:count].copy()))
    got = sampler.sample(len(draws), 0)
    assert got.tobytes() == np.interp(draws, sampler.cdf, sampler.grid).tobytes()


def test_sampler_rejects_bad_count():
    with pytest.raises(DomainError):
        SecantSampler(1.0).sample(0, 1)


def test_sampler_rejects_negative_seed():
    with pytest.raises(DomainError, match="sample seed must be >= 0, got -1"):
        SecantSampler(1.0).sample(3, -1)


# -- classicality --------------------------------------------------------------------------


def test_classical_field_family():
    for n in (1, 2, 5):
        report = classical_check({(n, 0): 1, (0, n): 1}, horizon=[1, 2])
        assert report.classical and report.witness is None


def test_classical_fails_on_missing_mirror():
    report = classical_check({(1, 0): ComplexRational(0, 1)}, horizon=[1])
    assert not report.classical and not report.hermitian
    assert "c[0,1]" in report.witness or "c[1,0]" in report.witness


def test_classical_random_symmetric_families():
    rng = random.Random(30)
    for _ in range(25):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            n, k = rng.randint(0, 4), rng.randint(0, 4)
            c = ComplexRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
            if n == k:
                c = ComplexRational(c.re, 0)
            coeffs[(n, k)] = c
            coeffs[(k, n)] = c.conjugate()
        report = classical_check(coeffs, horizon=[Fraction(1, 2), 1, 3])
        assert report.classical, report.witness


def test_classical_detects_single_broken_symmetry():
    coeffs = {(2, 1): ComplexRational(1, 1), (1, 2): ComplexRational(1, -1)}
    good = classical_check(coeffs, horizon=[1])
    assert good.classical
    coeffs[(1, 2)] = ComplexRational(1, 1)
    bad = classical_check(coeffs, horizon=[1])
    assert not bad.classical and bad.witness is not None


def test_classical_diagonal_must_be_real():
    report = classical_check({(3, 3): ComplexRational(0, 1)}, horizon=[1])
    assert not report.classical


def test_coefficient_families_commute_at_all_times():
    # [x(t), x(s)] = 0 for x(t) = sum c_{n,k} B[n,k](chi_[0,t)), Hermitian or
    # not; classical_check relies on it and runs no commutator.
    rng = random.Random(31)
    hermitian = 0
    for _ in range(200):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            n, k = rng.randint(0, 3), rng.randint(0, 3)
            c = ComplexRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
            if rng.random() < 0.5:  # this pair Hermitian
                c = c if n != k else ComplexRational(c.re, 0)
                coeffs[(k, n)] = c.conjugate()
            coeffs[(n, k)] = c
        times = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        xs = []
        for t in times:
            x = AlgebraElement.zero(RHPWN)
            for (n, k), c in coeffs.items():
                x = x + AlgebraElement.generator(RHPWN, n, k, StepFunction.indicator(0, t, c))
            xs.append(x)
        for i, x in enumerate(xs):
            for y in xs[i:]:
                assert commutator(x, y).is_zero, (coeffs, times)
        report = classical_check(coeffs, times)
        assert report.commuting is True
        assert report.hermitian == report.classical
        hermitian += report.hermitian
    assert 50 < hermitian < 150


def test_classical_check_refuses_bad_horizon_first(capsys, monkeypatch):
    # A non-positive horizon time is refused whether or not the family is
    # Hermitian, before the Hermitian test can return a report.
    for coeffs in ({(1, 0): ComplexRational(1, 1)}, {(1, 0): 1, (0, 1): 1}):
        for horizon in ([-1], [2, 0]):
            with pytest.raises(DomainError, match="horizon times must be positive"):
                classical_check(coeffs, horizon)
    payload = '{"coeffs":[{"n":1,"k":0,"re":"1","im":"1"}],"horizon":["-1"]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(["classical-check"]) == 2
    assert out.getvalue() == ""
    assert "horizon times must be positive, got -1" in capsys.readouterr().err
