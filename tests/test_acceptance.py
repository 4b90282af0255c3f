"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All random checks are seeded and deterministic.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from conftest import admissible_scale, rand_admissible, rand_element, rand_step_function
from oracles import (
    G_eval,
    Ghat_eval,
    kernel_bruteforce,
    mgf_numeric_check,
    mgf_series,
    state_in_number_basis,
    weighted_tail_cutoff,
)
from rhpwn.algebra import RHPWN, WINFTY, AlgebraElement, commutator, involution
from rhpwn.fock import (
    ExponentialVector,
    JetSum,
    apply_annihilator,
    apply_creator,
    apply_number,
    gram_psd_check,
    kernel_values,
    pair,
)
from rhpwn.mupoly import MU, MuPoly
from rhpwn.nogo import nogo_report
from rhpwn.processes import (
    SecantDensity,
    SecantSampler,
    classical_check,
    mgf_eval,
    sample_X,
    scaled_density,
    splitting_series_check,
)
from rhpwn.rewrite import (
    Word,
    reduce_truncated,
    reduce_untruncated,
    vacuum_expectation,
)
from rhpwn.scalars import ComplexRational
from rhpwn.stepfn import CHI


def _criterion(num, description):
    def decorate(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {description}")
                raise
            print(f"[criterion {num:02d}] PASS  {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@_criterion(1, "algebra axioms exact on 500 random triples per tag")
def test_criterion_01_algebra_axioms():
    for tag in (RHPWN, WINFTY):
        rng = random.Random(1001 if tag == RHPWN else 1002)
        zero = AlgebraElement.zero(tag)
        for _ in range(500):
            a = rand_element(rng, tag, max_index=6)
            b = rand_element(rng, tag, max_index=6)
            c = rand_element(rng, tag, max_index=6)
            assert commutator(a, b) + commutator(b, a) == zero
            jacobi = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert jacobi == zero
            assert involution(commutator(a, b)) == commutator(
                involution(b), involution(a)
            )


@_criterion(2, "no-go moments reproduced symbolically; d2 root at n^2(n+1)/2")
def test_criterion_02_nogo_reproduction():
    for n in (3, 4, 5):
        assert vacuum_expectation(
            Word.from_indices([(0, 2 * n), (2 * n, 0)])
        ) == MU.scaled(2 * n)
        assert vacuum_expectation(
            Word.from_indices([(0, 2 * n), (n, 0), (n, 0)])
        ) == MU.scaled(2 * n**3)
        assert vacuum_expectation(
            Word.from_indices([(0, n), (0, n), (n, 0), (n, 0)])
        ) == (MU * MU).scaled(2 * n * n) + MU.scaled(n**4 * (n - 1))
        state = reduce_untruncated(Word.from_indices([(0, n)] + [(n, 0)] * 3))
        assert state.terms == {
            ((n, CHI), (n, CHI)): (MU + n * n * (n - 1)).scaled(3 * n),
            ((2 * n, CHI),): MuPoly.constant(n**4 * (n - 1) * (n - 2)),
        }
        report = nogo_report(n)
        threshold = Fraction(n * n * (n + 1), 2)
        assert report.threshold == threshold
        assert report.d2.eval_exact(threshold).is_zero
        assert report.d2.eval_exact(threshold - Fraction(1, 7)).re < 0
        assert report.d2.eval_exact(threshold + Fraction(1, 7)).re > 0
    assert nogo_report(3).threshold == 18


@_criterion(3, "kernel closed form = recursion = brute force, n <= 5, k <= 8, exact")
def test_criterion_03_kernel_triple_agreement():
    for n in range(1, 6):
        half = Fraction(n * n * (n - 1), 2)
        recursion = MuPoly.one()
        for k in range(9):
            closed = kernel_values(n, k)[0]
            brute = kernel_bruteforce(n, k)
            assert closed == recursion == brute
            recursion = recursion * (MU + half * k).scaled(n * (k + 1))


@_criterion(4, "truncated = untruncated for n in {1,2} on 200 random words each")
def test_criterion_04_truncation_vacuity():
    for n in (1, 2):
        rng = random.Random(1700 + n)
        generators = [(n, 0), (0, n), (n - 1, n - 1)]
        for _ in range(200):
            indices = [rng.choice(generators) for _ in range(rng.randint(0, 6))]
            w = Word.from_indices(indices)
            assert reduce_truncated(n, w) == state_in_number_basis(
                n, reduce_untruncated(w)
            )


@_criterion(5, "G Taylor = h exactly (n<=5, k<=10); G = exp(mu Ghat) to 1e-12")
def test_criterion_05_generating_functions():
    # G_n(u) = exp(mu u) for n = 1 and (1 - c u)^(-alpha) with alpha = mu/half
    # for n >= 2, so its k-th derivative at 0 is mu^k or c^k alpha (alpha+1)...(alpha+k-1)
    for n in range(1, 6):
        half, c = Fraction(n * n * (n - 1), 2), Fraction(n**3 * (n - 1), 2)
        taylor = MuPoly.one()
        for k in range(11):
            assert taylor == kernel_values(n, k)[1]
            taylor = taylor * (MU if n == 1 else (MU.scaled(1 / half) + k).scaled(c))
    rng = random.Random(1005)
    for _ in range(100):
        n = rng.randint(2, 5)
        c = n**3 * (n - 1) / 2
        u = rng.uniform(0, 0.95) / c * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        mu = rng.uniform(0.05, 5.0)
        lhs = G_eval(n, u, mu)
        rhs = cmath.exp(mu * Ghat_eval(n, u))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@_criterion(6, "Gram min eigenvalue >= -1e-10 on 100 random admissible families")
def test_criterion_06_gram_positivity():
    rng = random.Random(1006)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        fs = [rand_admissible(rng, n) for _ in range(rng.randint(1, 5))]
        report = gram_psd_check(n, fs, 1e-10)
        assert report.min_eigenvalue >= -1e-10
        assert report.psd


@_criterion(7, "adjointness and represented commutator to rel 1e-8, 100 triples")
def test_criterion_07_representation_duality():
    rng = random.Random(1007)
    for _ in range(100):
        n = rng.choice([1, 2, 3, 4])
        f = rand_step_function(rng, scale=admissible_scale(n))
        phi = rand_admissible(rng, n)
        g = rand_admissible(rng, n)
        lhs = pair(
            apply_creator(n, f, ExponentialVector(n, phi)), ExponentialVector(n, g)
        )
        rhs = pair(
            ExponentialVector(n, phi),
            apply_annihilator(n, f.conjugate(), ExponentialVector(n, g)),
        )
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))

        op_f = rand_step_function(rng, scale=admissible_scale(n))
        op_g = rand_step_function(rng, scale=admissible_scale(n))
        h = rand_admissible(rng, n)
        p = rand_admissible(rng, n)
        vh, vp = ExponentialVector(n, h), ExponentialVector(n, p)
        creator_first = apply_annihilator(n, op_f, apply_creator(n, op_g, vh))
        annihilator_first = JetSum()
        for jet, coeff in apply_annihilator(n, op_f, vh).terms.items():
            annihilator_first = annihilator_first + JetSum.of(
                apply_creator(n, op_g, jet)
            ).scaled(coeff)
        lhs = pair(creator_first - annihilator_first, vp)
        rhs = n * n * pair(apply_number(n, op_f, op_g, vh), vp)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


@_criterion(8, "splitting series exact to s^8 (n<=4); MGF bridge exact; variance = n t")
def test_criterion_08_splitting_formula():
    for n in (1, 2, 3, 4):
        report = splitting_series_check(n, 8)
        assert report.passed, report.first_mismatch
        assert list(report.phi_component) == mgf_series(n, 8)
    h = 2e-3
    for n in (2, 3, 4):
        for t in (1.0, 2.0):

            def second(hh):
                return (mgf_eval(n, hh, t) - 2 + mgf_eval(n, -hh, t)) / hh**2

            richardson = (4 * second(h / 2) - second(h)) / 3
            assert abs(richardson - n * t) <= 1e-6 * n * t
    # normalized law: variance of X_t is t, via (sec s)^t
    for t in (1.0, 2.0):

        def closed_second(hh, t=t):
            sec = lambda s: math.exp(-t * math.log(math.cos(s)))
            return (sec(hh) - 2 + sec(-hh)) / hh**2

        richardson = (4 * closed_second(h / 2) - closed_second(h)) / 3
        assert abs(richardson - t) <= 1e-6


@_criterion(9, "density suite: normalization, sech law, numeric MGF, scaled MGF")
def test_criterion_09_density_suite():
    for t in (0.5, 1.0, 2.0, 5.0):
        cutoff = SecantDensity(t).tail_cutoff(1e-12)
        total, _ = quad(SecantDensity(t), -cutoff, cutoff, limit=300, epsabs=1e-12)
        assert abs(total - 1) < 1e-8
    for x in (0.0, 1.0, 2.0):
        expected = 1 / (2 * math.cosh(math.pi * x / 2))
        assert abs(SecantDensity(1.0)(x) - expected) <= 1e-10 * expected
    for s in (0.25, 0.75, 1.3):
        assert mgf_numeric_check(2.0, s).rel_err < 1e-6
    t = 1.5
    for n, s in ((2, 0.3), (3, 0.15)):
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


@_criterion(10, "sampler: KS below 1% critical value, variance within 5%, seed-stable")
def test_criterion_10_sampler():
    t, count, seed = 2.0, 100_000, 7
    sampler = SecantSampler(t)
    xs = sampler.sample(count, seed)
    u = np.sort(np.interp(np.sort(xs), sampler.grid, sampler.cdf))
    grid = np.arange(count)
    ks = np.max(np.maximum(u - grid / count, (grid + 1) / count - u))
    assert ks < 1.6276 / math.sqrt(count)  # asymptotic 1% point
    assert abs(xs.var() - t) <= 0.05 * t
    again = sample_X(t, count, seed)
    assert np.array_equal(xs, again)
    assert [format(a, ".17g") for a in xs[:1000]] == [
        format(a, ".17g") for a in again[:1000]
    ]


@_criterion(11, "classicality: 50 symmetric families commute exactly; breaks detected")
def test_criterion_11_classicality():
    rng = random.Random(1011)
    horizon = [Fraction(1, 2), 1, Fraction(7, 3)]
    for _ in range(50):
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
        report = classical_check(coeffs, horizon)
        assert report.classical and report.commuting, report.witness
        # break one symmetry: pick any off-diagonal pair, or inject one
        broken = dict(coeffs)
        off = [(n, k) for (n, k) in broken if n != k]
        if off:
            n, k = off[0]
            broken[(n, k)] = broken[(n, k)] + ComplexRational(0, 1)
        else:
            broken[(0, 1)] = ComplexRational(1)
        report = classical_check(broken, horizon)
        assert not report.classical
        assert report.witness is not None
