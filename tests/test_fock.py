import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from conftest import admissible_scale, mupoly_to_sympy, rand_admissible, rand_step_function
from oracles import G_eval, Ghat_eval, kernel_bruteforce, segments_as_fractions
from rhpwn.errors import (
    DomainError,
    PrescriptionError,
    UnsupportedGeneratorError,
    UnsupportedOrderError,
)
from rhpwn.fock import (
    ExponentialVector,
    JetSum,
    apply_annihilator,
    apply_creator,
    apply_number,
    exp_inner_product,
    generic_rep_build,
    gram_psd_check,
    jet_inner_product,
    kernel_values,
    pair,
)
from rhpwn.algebra import order_constants
from rhpwn.mupoly import MU, MuPoly
from rhpwn.scalars import ComplexRational
from rhpwn.stepfn import StepFunction, common_refinement

CHI12 = StepFunction.indicator(1, 2)


def vac(n):
    return ExponentialVector(n, StepFunction.zero())


# -- kernels and generating functions -------------------------------------------


def test_kernel_values_examples():
    pi, h = kernel_values(1, 3)
    assert h == MuPoly.monomial(3)
    assert pi == MuPoly.monomial(3).scaled(6)
    assert kernel_values(4, 0) == (MuPoly.one(), MuPoly.one())
    pi22, _ = kernel_values(2, 2)
    assert pi22 == (MU * MU).scaled(8) + MU.scaled(16)
    assert pi22 == kernel_bruteforce(2, 2)


def test_taylor_coeff_examples():
    # the Taylor coefficients G_n^{(k)}(0) are the second half of kernel_values
    assert kernel_values(3, 0)[1] == MuPoly.one()
    assert kernel_values(2, 1)[1] == MU.scaled(2)
    assert kernel_values(2, 2)[1] == (MU * MU).scaled(4) + MU.scaled(8)


def test_g_eval_closed_forms():
    # G_2(u, mu) = (1 - 4u)^(-mu/2)
    for u in (0.0, 0.1, -0.2, 0.05 + 0.02j):
        got = G_eval(2, u, 1.8)
        assert got == pytest.approx((1 - 4 * u) ** (-0.9), rel=1e-12)
    assert G_eval(5, 0.0, 3.0) == 1.0
    assert Ghat_eval(1, 0.37) == 0.37
    assert G_eval(1, 0.25, 2.0) == pytest.approx(math.exp(0.5), rel=1e-12)


def test_constant_home_matches_inline_expressions():
    # The float expressions as they were written before the order-n
    # constants had one home; the rewritten ones must agree bit for bit.
    def G_old(n, u, mu):
        c = n**3 * (n - 1) / 2
        return cmath.exp(-(2 * mu / (n * n * (n - 1))) * cmath.log(1 - c * u))

    def Ghat_old(n, u):
        c = n**3 * (n - 1) / 2
        return -(2 / (n * n * (n - 1))) * cmath.log(1 - c * u)

    def inner_old(n, f, g):
        if n == 1:
            return cmath.exp((f.conjugate() * g).integral().to_complex())
        c = float(Fraction(n**3 * (n - 1), 2))
        gamma = float(Fraction(2, n * n * (n - 1)))
        exponent = 0j
        for a, b, (cf, cg) in segments_as_fractions(common_refinement([f, g])):
            w = (cf.conjugate() * cg).to_complex()
            exponent += -gamma * float(b - a) * cmath.log(1 - c * w)
        return cmath.exp(exponent)

    def many_pieces(rng, n):
        # 20 to 60 pieces on [0, 4) with endpoints in (1/240)Z and |coeff|^2
        # at most 0.81 of the order-n bound (of 1 for n = 1)
        count = rng.randint(20, 60)
        cuts = sorted(rng.sample(range(960), 2 * count))
        bound = Fraction(1) if n == 1 else Fraction(2, n**3 * (n - 1))
        root = Fraction(math.isqrt(int(bound / 2 * 10**6)), 1000)
        return StepFunction([
            (Fraction(a, 240), Fraction(b, 240),
             ComplexRational(root * Fraction(rng.randint(-9, 9), 10),
                             root * Fraction(rng.randint(-9, 9), 10)))
            for a, b in zip(cuts[::2], cuts[1::2])
        ])

    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randint(2, 8)
        radius = 0.999 / (n**3 * (n - 1) / 2)
        u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * radius / 1.5
        mu = rng.uniform(0.01, 40.0)
        assert G_eval(n, u, mu) == G_old(n, u, mu)
        assert Ghat_eval(n, u) == Ghat_old(n, u)
    for _ in range(200):
        n = rng.randint(2, 6)
        f = rand_admissible(rng, n, max_pieces=3)
        g = rand_admissible(rng, n, max_pieces=3)
        assert exp_inner_product(n, f, g) == inner_old(n, f, g)
    for _ in range(100):
        f = rand_admissible(rng, 1, max_pieces=3)
        g = rand_admissible(rng, 1, max_pieces=3)
        assert exp_inner_product(1, f, g) == inner_old(1, f, g)
    for _ in range(60):
        n = rng.randint(1, 6)
        f, g = many_pieces(rng, n), many_pieces(rng, n)
        assert exp_inner_product(n, f, g) == inner_old(n, f, g)


def test_g_eval_domain_errors():
    with pytest.raises(DomainError):
        G_eval(2, 0.25, 1.0)  # |4u| = 1 on the branch circle
    with pytest.raises(DomainError):
        Ghat_eval(3, 0.04)


def test_g_exponential_form():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 5)
        c = n**3 * (n - 1) / 2
        radius = rng.uniform(0, 0.95) / c
        angle = rng.uniform(0, 2 * math.pi)
        u = radius * cmath.exp(1j * angle)
        mu = rng.uniform(0.1, 5.0)
        lhs = G_eval(n, u, mu)
        rhs = cmath.exp(mu * Ghat_eval(n, u))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_taylor_identity(n):
    # h_{n,k} against the k-th derivative at 0 of G_n(u) = exp(mu u) for n = 1
    # and (1 - c u)^(-alpha), alpha = mu/half, for n >= 2, written as the
    # binomial series gives it: mu^k or c^k alpha (alpha+1) ... (alpha+k-1)
    half, c = Fraction(n * n * (n - 1), 2), Fraction(n**3 * (n - 1), 2)
    taylor = MuPoly.one()
    for k in range(11):
        assert kernel_values(n, k)[1] == taylor
        taylor = taylor * (MU if n == 1 else (MU.scaled(1 / half) + k).scaled(c))


def test_taylor_coeff_against_sympy_series():
    # G_n(u) = exp(mu u) for n = 1 and (1 - c u)^(-mu/half) for n >= 2, with
    # half = n^2 (n-1)/2 and c = n^3 (n-1)/2, expanded by sympy
    mu, u = sympy.symbols("mu u")
    for n in range(1, 6):
        if n == 1:
            G = sympy.exp(mu * u)
        else:
            half, c = sympy.Rational(n * n * (n - 1), 2), sympy.Rational(n**3 * (n - 1), 2)
            G = (1 - c * u) ** (-mu / half)
        series = sympy.expand(sympy.series(G, u, 0, 9).removeO())
        for k in range(9):
            want = sympy.expand(sympy.factorial(k) * series.coeff(u, k))
            got = mupoly_to_sympy(kernel_values(n, k)[1], mu)
            assert sympy.expand(got - want) == 0, (n, k)


# -- inner products ---------------------------------------------------------------


def test_inner_product_vacuum_normalized():
    z = StepFunction.zero()
    for n in (1, 2, 5):
        assert exp_inner_product(n, z, z) == 1.0


def test_inner_product_order_one():
    c = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    f = CHI12.scaled(c)
    got = exp_inner_product(1, f, f)
    assert got == pytest.approx(math.exp(float(c.abs_squared())), rel=1e-12)


def test_inner_product_order_two_closed_form():
    c = Fraction(1, 4)
    f = CHI12.scaled(c)
    got = exp_inner_product(2, f, f)
    assert got == pytest.approx((1 - 4 * float(c) ** 2) ** -0.5, rel=1e-12)


def test_inner_product_bound_violation():
    f = CHI12.scaled(Fraction(1, 2))  # |f|^2 = 1/4 >= 2/24 for n = 3
    with pytest.raises(DomainError) as err:
        exp_inner_product(3, f, f)
    assert "[1,2)" in str(err.value)


@pytest.mark.parametrize(
    "n, end, coeff",
    [
        (1, "1e400", Fraction(1, 10)),  # the exact exponent has no float
        (2, "17e307", Fraction(12, 25)),  # each factor is finite, the exponent is inf
        (1, "1", 30),  # the exponent 900 is finite, its exp is not
    ],
)
def test_inner_product_beyond_the_float_range(n, end, coeff):
    f = StepFunction([(0, end, coeff)])
    v = ExponentialVector(n, f)
    for inner in (lambda: exp_inner_product(n, f, f), lambda: jet_inner_product(v, v),
                  lambda: pair(v, v)):
        with pytest.raises(DomainError, match="leaves the float range"):
            inner()


def test_inner_product_ignores_the_length_of_a_piece_where_f_or_g_vanishes():
    # n = 2 (half = 2, c = 4): on [1, 10^400) g = 0, so that piece adds log 1 = 0,
    # and the value is (1 - 4/100)^(-1/2) from [0, 1) alone; a left direction h
    # differentiates conj(f), adding the factor (1/2) 4 (1/10) / 0.96
    f = StepFunction.indicator(0, 10**400, Fraction(1, 10))
    g = StepFunction.indicator(0, 1, Fraction(1, 10))
    h = StepFunction.indicator(0, 1)
    with mpmath.workdps(30):
        base = 1 - mpmath.mpf(4) / 100
        want = complex(base ** (-mpmath.mpf(1) / 2))
        want_jet = complex(base ** (-mpmath.mpf(3) / 2) / 5)
    assert exp_inner_product(2, f, g) == pytest.approx(want, rel=1e-15)
    assert exp_inner_product(2, g, f) == pytest.approx(want, rel=1e-15)
    u, v = ExponentialVector(2, f), ExponentialVector(2, g)
    assert jet_inner_product(apply_creator(2, h, u), v) == pytest.approx(want_jet, rel=1e-14)
    assert jet_inner_product(v, apply_creator(2, h, u)) == pytest.approx(want_jet, rel=1e-14)
    # where the long piece carries conj(f) f, as a base or as a direction, the
    # value really does leave the float range
    for left, right in ((u, u), (apply_creator(2, f, v), u)):
        with pytest.raises(DomainError, match="leaves the float range"):
            jet_inner_product(left, right)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("digits", range(1, 19))
def test_inner_product_near_the_bound_against_mpmath(n, digits):
    # f = a chi_[0,1) with |a|^2 = (1 - 10^-digits) / c, just inside the
    # order-n bound: the float 1 - c a^2 cancels, the exact one does not.
    half, c = order_constants(n)
    target = (1 - Fraction(1, 10**digits)) / c
    a = Fraction(math.isqrt(target.numerator * 10**80 // target.denominator), 10**40)
    with mpmath.workdps(60):
        base = 1 - c * mpmath.mpf((a * a).numerator) / (a * a).denominator
        want = complex(base ** (-mpmath.mpf(1) / half))
    f = StepFunction.indicator(0, 1, a)
    v = ExponentialVector(n, f)
    assert exp_inner_product(n, f, f) == pytest.approx(want, rel=1e-12)
    assert jet_inner_product(v, v) == pytest.approx(want, rel=1e-12)


# a = 1/2 - 1/(4 10^400): at n = 2 the exact base 1 - 4 a^2 is about 10^-400,
# which rounds to 0.0 as a float
TINY_BASE_COEFF = Fraction(1, 2) - Fraction(1, 4 * 10**400)


@pytest.mark.parametrize("end", [Fraction(1), Fraction(1, 1000)])
def test_inner_product_on_a_base_below_the_float_range_against_mpmath(end):
    base = 1 - 4 * TINY_BASE_COEFF**2
    with mpmath.workdps(30):
        base = mpmath.mpf(base.numerator) / base.denominator
        want = complex(base ** (-mpmath.mpf(end.numerator) / (2 * end.denominator)))
    f = StepFunction.indicator(0, end, TINY_BASE_COEFF)
    assert exp_inner_product(2, f, f) == pytest.approx(want, rel=1e-10)


def test_jet_on_a_base_below_the_float_range_leaves_the_float_range():
    v = ExponentialVector(2, StepFunction.indicator(0, 1, TINY_BASE_COEFF))
    jet = apply_creator(2, StepFunction.indicator(0, 1), v)
    for u, w in ((jet, v), (v, jet), (jet, jet)):
        with pytest.raises(DomainError, match="leaves the float range"):
            jet_inner_product(u, w)


def test_inner_product_hermitian_symmetry():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 4)
        f = rand_admissible(rng, n)
        g = rand_admissible(rng, n)
        lhs = exp_inner_product(n, f, g)
        rhs = exp_inner_product(n, g, f)
        assert lhs == pytest.approx(rhs.conjugate(), rel=1e-12, abs=1e-12)


def test_inner_product_series_expansion():
    # against sum_k u^k h_{n,k}(mu) / k! for f = c chi_[1,2], u = |c|^2, mu = 1
    for n in (1, 2, 3, 4):
        c = admissible_scale(n) / 3
        f = CHI12.scaled(c)
        u = float(c * c)
        total = 0.0
        for k in range(21):
            total += u**k * float(
                kernel_values(n, k)[1].eval_exact(1).re
            ) / math.factorial(k)
        got = exp_inner_product(n, f, f)
        assert abs(got - total) < 1e-10


def test_gram_psd_check():
    z = StepFunction.zero()
    report = gram_psd_check(2, [z], 1e-10)
    assert report.psd and report.matrix[0][0] == 1.0
    c = Fraction(1, 5)
    report = gram_psd_check(2, [z, CHI12.scaled(c)], 1e-10)
    det = (1 - 4 * float(c) ** 2) ** -0.5 - 1
    got_det = (
        report.matrix[0][0] * report.matrix[1][1]
        - report.matrix[0][1] * report.matrix[1][0]
    )
    assert got_det.real == pytest.approx(det, rel=1e-12)
    assert report.psd


def test_gram_random_families():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        fs = [rand_admissible(rng, n) for _ in range(rng.randint(1, 5))]
        report = gram_psd_check(n, fs, 1e-10)
        assert report.min_eigenvalue >= -1e-10
        assert report.psd


def test_gram_rejects_inadmissible():
    with pytest.raises(DomainError):
        gram_psd_check(3, [CHI12], 1e-10)


# -- jets --------------------------------------------------------------------------


def test_jet_order_cap():
    f = CHI12.scaled(Fraction(1, 100))
    v = ExponentialVector(3, f)
    j2 = apply_creator(3, f, apply_creator(3, f, v))
    assert j2.order == 2
    with pytest.raises(UnsupportedOrderError):
        apply_creator(3, f, j2)
    with pytest.raises(UnsupportedOrderError):
        ExponentialVector(3, f, (f, f, f))


# Two directions given out of order; the text is what the two-class spelling
# of the same jet printed.
_D1 = StepFunction([(0, 1, ComplexRational(Fraction(1, 3), Fraction(-1, 5))), (2, Fraction(5, 2), 1)])
_D2 = StepFunction.indicator(1, 2, Fraction(1, 7))
_F = StepFunction.indicator(Fraction(1, 2), 2, Fraction(1, 10))


def test_jet_directions_are_sorted():
    a, b = ExponentialVector(2, _F, (_D1, _D2)), ExponentialVector(2, _F, (_D2, _D1))
    assert a == b and hash(a) == hash(b)
    assert a.directions == b.directions and a.order == 2
    assert a != ExponentialVector(2, _F, (_D1,)) != ExponentialVector(2, _F)
    assert ExponentialVector(2, _F, (_D1, StepFunction.zero())).is_zero
    assert not a.is_zero and not ExponentialVector(2, _F).is_zero


def test_jet_text_is_pinned():
    assert str(ExponentialVector(2, _F, (_D2, _D1))) == (
        "jet(psi_2((1/10)*chi[1/2,2)); (1/3-1/5i)*chi[0,1) + (1)*chi[2,5/2); (1/7)*chi[1,2))"
    )
    assert str(ExponentialVector(2, _F)) == repr(ExponentialVector(2, _F)) == "psi_2((1/10)*chi[1/2,2))"


def test_jet_argument_must_be_admissible():
    # the bound holds for the argument, with or without directions
    for directions in ((), (_D1,), (_D1, _D2)):
        with pytest.raises(DomainError):
            ExponentialVector(3, CHI12, directions)


def test_creator_norm_is_kernel():
    for n in (1, 2, 3, 4):
        j = apply_creator(n, CHI12, vac(n))
        got = jet_inner_product(j, j)
        assert got.real == pytest.approx(n, rel=1e-12)  # n * measure([1,2))
        assert abs(got.imag) < 1e-14


def test_annihilator_on_vacuum_vanishes():
    f = CHI12
    for n in (1, 2, 3):
        assert apply_annihilator(n, f, vac(n)).is_zero


def test_annihilator_order_one_is_scalar():
    rng = random.Random(10)
    g = rand_admissible(rng, 1)
    f = rand_step_function(rng)
    out = apply_annihilator(1, f, ExponentialVector(1, g))
    assert out == JetSum.of(ExponentialVector(1, g), (f * g).integral())


def test_annihilator_order_two_example():
    # n=2, g = c chi, f = chi: 2 c mu(I) psi(g) + 4 jet(g; c^2 chi)
    c = Fraction(1, 8)
    g = CHI12.scaled(c)
    out = apply_annihilator(2, CHI12, ExponentialVector(2, g))
    expected = JetSum(
        [
            (ExponentialVector(2, g), ComplexRational(2 * c)),
            (ExponentialVector(2, g, (CHI12.scaled(c * c),)), 4),
        ]
    )
    assert out == expected


def test_number_on_vacuum_scalar():
    for n in (1, 2, 3):
        out = apply_number(n, CHI12, CHI12, vac(n))
        assert out == JetSum.of(vac(n), ComplexRational(Fraction(1, n)))
        got = pair(out, vac(n))
        assert got.real == pytest.approx(1 / n, rel=1e-12)


def test_number_order_one_has_no_jets():
    rng = random.Random(11)
    h = rand_admissible(rng, 1)
    out = apply_number(1, CHI12, CHI12, ExponentialVector(1, h))
    assert out == JetSum.of(ExponentialVector(1, h), (CHI12 * CHI12).integral())
    # B[n-1,n-1](f g) psi_n(h) = (1/n)(integral f g) psi_n(h)
    # + (n(n-1)/2) jet(psi_n(h); 2 f g h), worked out by hand:
    # integral f g = (1+i)/2 - 1/12, and 2 f g h is (3+i)/40 on [1,2), -1/90 on [2,5/2)
    f = StepFunction([(0, 2, ComplexRational(1, 1)), (2, 3, Fraction(-1, 3))])
    g = StepFunction.indicator(1, Fraction(5, 2), Fraction(1, 2))
    h = StepFunction([(Fraction(1, 2), 2, ComplexRational(Fraction(1, 20), Fraction(-1, 40))),
                      (2, 3, Fraction(1, 30))])
    fgh2 = StepFunction([(1, 2, ComplexRational(Fraction(3, 40), Fraction(1, 40))),
                         (2, Fraction(5, 2), Fraction(-1, 90))])
    for n in (1, 2, 3, 4):
        psi = ExponentialVector(n, h)
        expected = JetSum([
            (psi, ComplexRational(Fraction(5, 12 * n), Fraction(1, 2 * n))),
            (ExponentialVector(n, h, (fgh2,)), Fraction(n * (n - 1), 2)),
        ])
        assert apply_number(n, f, g, psi) == expected
        assert len(expected.terms) == (1 if n == 1 else 2)


def test_jet_pairs_with_vacuum():
    d = CHI12.scaled(Fraction(1, 3))
    j = ExponentialVector(2, StepFunction.zero(), (d,))
    assert jet_inner_product(vac(2), j) == 0
    # <jet(0, f), psi_1(h)> = integral conj(f) h
    f = CHI12.scaled(ComplexRational(Fraction(1, 2), Fraction(1, 5)))
    h = CHI12.scaled(Fraction(1, 3))
    got = jet_inner_product(ExponentialVector(1, StepFunction.zero(), (f,)), ExponentialVector(1, h))
    expected = (f.conjugate() * h).integral().to_complex()
    assert got == pytest.approx(expected, rel=1e-12)


def test_cross_order_pairing_is_zero():
    assert jet_inner_product(vac(1), vac(2)) == 0


def test_creator_on_vacuum_paired_with_exponential():
    # <B[1,0](f) psi_1(0), psi_1(h)> = integral conj(f) h
    f = CHI12.scaled(ComplexRational(Fraction(2, 3), Fraction(-1, 4)))
    h = CHI12.scaled(Fraction(1, 2))
    got = pair(JetSum.of(apply_creator(1, f, vac(1))), ExponentialVector(1, h))
    want = (f.conjugate() * h).integral().to_complex()
    assert got == pytest.approx(want, rel=1e-12)


def test_one_particle_pairing_is_n_weighted_overlap():
    # <B[n,0](f) Phi, B[n,0](g) Phi> = n integral conj(f) g, any step functions
    rng = random.Random(18)
    for n in (1, 2, 3):
        f = rand_step_function(rng, max_pieces=3)
        g = rand_step_function(rng, max_pieces=3)
        got = jet_inner_product(
            apply_creator(n, f, vac(n)), apply_creator(n, g, vac(n))
        )
        want = n * (f.conjugate() * g).integral().to_complex()
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_two_particle_norm_matches_kernel():
    # <(B[n,0](c chi))^2 Phi, same> = |c|^4 pi_{n,2}(mu(I)): a combined
    # order-4 jet pairing cross-checked against the rewrite-engine kernel
    for n in (1, 2, 3):
        c = admissible_scale(n) / 2
        f = CHI12.scaled(c)
        two = apply_creator(n, f, apply_creator(n, f, vac(n)))
        got = jet_inner_product(two, two)
        pi2 = kernel_values(n, 2)[0].eval_exact(1)  # mu([1,2)) = 1
        want = float(c) ** 4 * float(pi2.re)
        assert got.real == pytest.approx(want, rel=1e-10)
        assert abs(got.imag) <= 1e-13 * want


def test_particle_number_orthogonality():
    n = 3
    c = admissible_scale(n) / 2
    f = CHI12.scaled(c)
    zero_jet = JetSum.of(vac(n))
    one = apply_creator(n, f, vac(n))
    two = apply_creator(n, f, one)
    assert abs(jet_inner_product(two, vac(n))) < 1e-15
    assert abs(jet_inner_product(two, one)) < 1e-15
    assert abs(pair(zero_jet, JetSum.of(one))) < 1e-15


def _fd_first_derivative(n, f, d, g, eps=Fraction(1, 100000)):
    plus = exp_inner_product(n, f + d.scaled(eps), g)
    minus = exp_inner_product(n, f + d.scaled(-eps), g)
    return (plus - minus) / (2 * float(eps))


def test_jet_matches_finite_difference_first_order():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.choice([1, 2, 3])
        f = rand_admissible(rng, n)
        g = rand_admissible(rng, n)
        d = rand_admissible(rng, n)
        got = jet_inner_product(ExponentialVector(n, f, (d,)), ExponentialVector(n, g))
        fd = _fd_first_derivative(n, f, d, g)
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_jet_matches_finite_difference_second_order():
    rng = random.Random(13)
    eps = Fraction(1, 2000)
    for _ in range(8):
        n = rng.choice([2, 3])
        f = rand_admissible(rng, n)
        g = rand_admissible(rng, n)
        d1 = rand_admissible(rng, n)
        d2 = rand_admissible(rng, n)
        jet = ExponentialVector(n, f, (d1, d2))
        got = jet_inner_product(jet, ExponentialVector(n, g))
        values = {}
        for s1 in (1, -1):
            for s2 in (1, -1):
                shifted = f + d1.scaled(eps * s1) + d2.scaled(eps * s2)
                values[(s1, s2)] = exp_inner_product(n, shifted, g)
        fd = (
            values[(1, 1)] - values[(1, -1)] - values[(-1, 1)] + values[(-1, -1)]
        ) / (4 * float(eps) ** 2)
        assert got == pytest.approx(fd, rel=1e-4, abs=1e-6)


# -- duality and the represented commutator ------------------------------------------


def test_creator_annihilator_adjointness():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.choice([1, 2, 3, 4])
        f = rand_step_function(rng, scale=admissible_scale(n))
        phi = rand_admissible(rng, n)
        g = rand_admissible(rng, n)
        lhs = pair(apply_creator(n, f, ExponentialVector(n, phi)), ExponentialVector(n, g))
        rhs = pair(
            ExponentialVector(n, phi),
            apply_annihilator(n, f.conjugate(), ExponentialVector(n, g)),
        )
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs))


def test_represented_commutator_matches_number():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        f = rand_step_function(rng, scale=admissible_scale(n), complex_ok=False)
        g = rand_step_function(rng, scale=admissible_scale(n), complex_ok=False)
        h = rand_admissible(rng, n)
        p = rand_admissible(rng, n)
        vh = ExponentialVector(n, h)
        vp = ExponentialVector(n, p)
        creator_first = apply_annihilator(n, f, apply_creator(n, g, vh))
        annihilator_first = JetSum()
        for jet, coeff in apply_annihilator(n, f, vh).terms.items():
            annihilator_first = annihilator_first + JetSum.of(
                apply_creator(n, g, jet)
            ).scaled(coeff)
        lhs = pair(creator_first - annihilator_first, vp)
        rhs = n * n * pair(apply_number(n, f, g, vh), vp)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


# -- the generic prescription ----------------------------------------------------------


def test_generic_rep_number_from_annihilator_creator():
    # (n,k,N,K) = (0,n,n,0) gives B[n-1,n-1](g f) as [B[0,n](g), B[n,0](f)] / n^2
    rng = random.Random(16)
    for n in (2, 3):
        g = rand_step_function(rng, scale=admissible_scale(n), complex_ok=False)
        f = rand_step_function(rng, scale=admissible_scale(n), complex_ok=False)
        h = rand_admissible(rng, n)
        p = rand_admissible(rng, n)
        op = generic_rep_build(0, n, n, 0, g, f)
        got = pair(op.apply(JetSum.of(ExponentialVector(n, h))), ExponentialVector(n, p))
        want = pair(
            apply_number(n, g, f, ExponentialVector(n, h)), ExponentialVector(n, p)
        )
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_generic_rep_scalar_sector():
    rng = random.Random(17)
    g = rand_step_function(rng)
    f = rand_step_function(rng)
    h = rand_admissible(rng, 1)
    p = rand_admissible(rng, 1)
    op = generic_rep_build(1, 0, 0, 1, g, f)
    got = pair(op.apply(JetSum.of(ExponentialVector(1, h))), ExponentialVector(1, p))
    want = (g * f).integral().to_complex() * exp_inner_product(1, h, p)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_generic_rep_inapplicable():
    with pytest.raises(PrescriptionError):
        generic_rep_build(1, 1, 2, 2, CHI12, CHI12)


def test_generator_op_rejects_foreign_index():
    op = generic_rep_build(0, 2, 5, 0, CHI12.scaled(Fraction(1, 9)), CHI12.scaled(Fraction(1, 9)))
    with pytest.raises(UnsupportedGeneratorError):
        op.apply(JetSum.of(vac(2)))
