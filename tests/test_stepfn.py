import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COEFFS, rand_step_function, step_functions
from oracles import value_at
from rhpwn.scalars import ComplexRational
from rhpwn.stepfn import CHI, StepFunction, SymbolicIndicator, common_refinement
from rhpwn.errors import TagMismatchError


def test_constructor_invariants():
    with pytest.raises(ValueError):
        StepFunction([(1, 1, 1)])  # empty interval
    with pytest.raises(ValueError):
        StepFunction([(0, 2, 1), (1, 3, 1)])  # overlap
    with pytest.raises(ValueError, match="straddles 0"):
        StepFunction([(-1, 1, 1)])  # an input piece straddles 0
    # 0 is a cut point: equal neighbours touching at 0 stay two pieces
    assert StepFunction([(-1, 0, 1), (0, 1, 1)]).pieces == (
        (Fraction(-1), Fraction(0), ComplexRational(1)),
        (Fraction(0), Fraction(1), ComplexRational(1)),
    )
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
    assert sum(b - a for a, b, _ in f.pieces) == 3
    assert f.conjugate().integral() == f.integral().conjugate()
    assert max(c.abs_squared() for _, _, c in f.pieces) == 5


def test_sum_is_pointwise():
    rng = random.Random(5)
    for _ in range(50):
        f = rand_step_function(rng)
        g = rand_step_function(rng)
        h = f + g
        for t in (Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2)):
            assert value_at(h, t) == value_at(f, t) + value_at(g, t)


def test_common_refinement_consistency():
    rng = random.Random(6)
    for _ in range(30):
        fns = [rand_step_function(rng) for _ in range(3)]
        for a, b, coeffs in common_refinement(fns):
            assert a < b
            mid = (a + b) / 2
            for fn, c in zip(fns, coeffs):
                assert value_at(fn, mid) == c


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
        coeffs = tuple(value_at(f, a) for f in fns)
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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(step_functions())
def test_chi_is_equal_only_to_itself(fn):
    # CHI is the one SymbolicIndicator, so identity is its equality
    assert "__eq__" not in vars(SymbolicIndicator)
    assert "__hash__" not in vars(SymbolicIndicator)
    assert CHI == CHI and hash(CHI) == hash(CHI)
    assert CHI != fn and fn != CHI
    assert CHI != StepFunction.zero() and StepFunction.indicator(0, 1) != CHI


def test_sum_and_product_across_zero_are_closed():
    # chi_[-1,0) + chi_[0,1) keeps its cut at 0 instead of becoming chi_[-1,1)
    left, right = StepFunction.indicator(-1, 0), StepFunction.indicator(0, 1)
    assert left + right == StepFunction([(-1, 0, 1), (0, 1, 1)])
    product = (left + right.scaled(2)) * (left.scaled(2) + right)
    assert product == StepFunction([(-1, 0, 2), (0, 1, 2)])
    assert value_at(product, Fraction(-1, 2)) == value_at(product, Fraction(1, 2)) == 2
    assert product.support_indicator() == left + right
    assert (left + right).scaled(3).conjugate() == left.scaled(3) + right.scaled(3)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(step_functions(), step_functions(), step_functions(), COEFFS)
def test_ring_laws(f, g, h, c):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    # conjugation is an additive, multiplicative involution
    assert f.conjugate().conjugate() == f
    assert (f + g).conjugate() == f.conjugate() + g.conjugate()
    assert (f * g).conjugate() == f.conjugate() * g.conjugate()
    # scaled(c) is the product with c on each half line
    neg, pos = StepFunction([(-4, 0, c)]), StepFunction([(0, 4, c)])
    assert f.scaled(c) == f * neg + f * pos
    # the integral is linear
    assert f.scaled(c).integral() == f.integral() * c
    assert (f + g).integral() == f.integral() + g.integral()
