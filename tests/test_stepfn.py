import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COEFFS, rand_step_function, step_functions
from rhpwn.scalars import ComplexRational
from rhpwn.stepfn import CHI, StepFunction, common_refinement
from rhpwn.errors import TagMismatchError


def test_constructor_invariants():
    with pytest.raises(ValueError):
        StepFunction([(1, 1, 1)])  # empty interval
    with pytest.raises(ValueError):
        StepFunction([(0, 2, 1), (1, 3, 1)])  # overlap
    with pytest.raises(ValueError):
        StepFunction([(-1, 1, 1)])  # straddles 0
    with pytest.raises(ValueError):
        # merging adjacent equal pieces exposes an essential straddle
        StepFunction([(-1, 0, 1), (0, 1, 1)])
    # endpoint at 0 and distinct coefficients around it are fine
    StepFunction([(-1, 0, 1), (0, 1, 2)])


def test_merge_and_zero_drop():
    f = StepFunction([(1, 2, 1), (2, 3, 1), (4, 5, 0)])
    assert f.pieces == ((Fraction(1), Fraction(3), ComplexRational(1)),)
    assert StepFunction([(1, 2, 0)]).is_zero


def test_product_refines_partitions():
    f = StepFunction.indicator(0, 2, 3)
    g = StepFunction.indicator(1, 3, Fraction(1, 3))
    fg = f * g
    assert fg == StepFunction.indicator(1, 2, 1)
    assert (f * StepFunction.zero()).is_zero


def test_integral_measure_and_conjugate():
    f = StepFunction([(0, 1, ComplexRational(1, 2)), (2, 4, ComplexRational(0, -1))])
    assert f.integral() == ComplexRational(1, 0)
    assert f.support_measure() == 3
    assert f.conjugate().integral() == f.integral().conjugate()
    assert f.max_abs_squared() == 5


def test_sum_is_pointwise():
    rng = random.Random(5)
    for _ in range(50):
        f = rand_step_function(rng)
        g = rand_step_function(rng)
        h = f + g
        for t in (Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2)):
            assert h.value_at(t) == f.value_at(t) + g.value_at(t)


def test_common_refinement_consistency():
    rng = random.Random(6)
    for _ in range(30):
        fns = [rand_step_function(rng) for _ in range(3)]
        for a, b, coeffs in common_refinement(fns):
            assert a < b
            mid = (a + b) / 2
            for fn, c in zip(fns, coeffs):
                assert fn.value_at(mid) == c


def reference_refinement(fns):
    """The pointwise definition: every function read at each segment start."""
    cuts = set()
    for f in fns:
        for a, b, _ in f.pieces:
            cuts.add(a)
            cuts.add(b)
    points = sorted(cuts)
    out = []
    for a, b in zip(points, points[1:]):
        coeffs = tuple(f.value_at(a) for f in fns)
        if any(not c.is_zero for c in coeffs):
            out.append((a, b, coeffs))
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(step_functions(), min_size=1, max_size=4))
def test_common_refinement_matches_pointwise_reference(fns):
    assert common_refinement(fns) == reference_refinement(fns)


def test_symbolic_indicator():
    assert CHI * CHI is CHI
    assert CHI.conjugate() is CHI
    assert str(CHI.integral_mu()) == "mu"
    with pytest.raises(TagMismatchError):
        CHI * StepFunction.indicator(0, 1)
    with pytest.raises(TagMismatchError):
        StepFunction.indicator(0, 1) * CHI


_REFUSED = object()


def _or_refused(op):
    """op(), or _REFUSED when the constructor refuses the result because its
    canonical form merges a piece across 0."""
    try:
        return op()
    except ValueError as exc:
        assert "straddles 0" in str(exc)
        return _REFUSED


def _law(lhs, rhs):
    """Both sides equal wherever both are defined."""
    lhs, rhs = _or_refused(lhs), _or_refused(rhs)
    if lhs is not _REFUSED and rhs is not _REFUSED:
        assert lhs == rhs


def test_sum_and_product_across_zero_are_refused():
    # + and * are partial: chi_[-1,0) + chi_[0,1) would be chi_[-1,1), whose
    # interior holds 0, so the ring laws below hold where both sides exist
    left, right = StepFunction.indicator(-1, 0), StepFunction.indicator(0, 1)
    assert _or_refused(lambda: left + right) is _REFUSED
    assert _or_refused(lambda: (left + right.scaled(2)) * (left.scaled(2) + right)) is _REFUSED


@settings(derandomize=True, max_examples=200, deadline=None)
@given(step_functions(), step_functions(), step_functions(), COEFFS)
def test_ring_laws(f, g, h, c):
    # commutativity holds outright: a sum or product is refused on both sides
    # or on neither
    assert _or_refused(lambda: f + g) == _or_refused(lambda: g + f)
    assert _or_refused(lambda: f * g) == _or_refused(lambda: g * f)
    _law(lambda: (f + g) + h, lambda: f + (g + h))
    _law(lambda: (f * g) * h, lambda: f * (g * h))
    _law(lambda: f * (g + h), lambda: f * g + f * h)
    # conjugation is an additive, multiplicative involution
    assert f.conjugate().conjugate() == f
    _law(lambda: (f + g).conjugate(), lambda: f.conjugate() + g.conjugate())
    _law(lambda: (f * g).conjugate(), lambda: f.conjugate() * g.conjugate())
    # scaled(c) is the product with c on each half line
    neg, pos = StepFunction([(-4, 0, c)]), StepFunction([(0, 4, c)])
    assert f.scaled(c) == f * neg + f * pos
    # the integral is linear
    assert f.scaled(c).integral() == f.integral() * c
    _law(lambda: (f + g).integral(), lambda: f.integral() + g.integral())
