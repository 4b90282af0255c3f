import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COEFFS, rand_step_function, step_functions
from oracles import FractionStepFunction, fraction_refinement, segments_as_fractions, value_at
from rhpwn.jsonio import encode_step_function
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
        for a, b, coeffs in segments_as_fractions(common_refinement(fns)):
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
    assert segments_as_fractions(common_refinement(fns)) == reference_refinement(fns)


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


def test_difference_checks_its_operand_as_the_sum_does():
    f = StepFunction.indicator(0, 1, 2)
    with pytest.raises(TagMismatchError):
        f - CHI
    with pytest.raises(TypeError):
        f - 1
    assert f - StepFunction.indicator(0, 1) == StepFunction.indicator(0, 1)


# -- the integer representation against the Fraction-based reference ----------

# Endpoints over several denominators, so cut points of different
# denominators interleave and sums and products reduce; coefficients from a
# short list, so neighbours are often equal and merge.
_ENDPOINTS = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 5, 6, 7, 12]))
_DIFF_COEFFS = st.sampled_from([
    None, 0, 1, -1, Fraction(2, 4), Fraction(-1, 3), ComplexRational(Fraction(1, 2), Fraction(-1, 6)),
    ComplexRational(0, 2), 3.5, 0.25 - 2j,
])


@st.composite
def reference_pairs(draw):
    """A StepFunction and the FractionStepFunction of the same pieces, given
    in any order."""
    points = sorted(draw(st.sets(_ENDPOINTS, max_size=10)) | {Fraction(0)})
    coeffs = draw(st.lists(_DIFF_COEFFS, min_size=len(points), max_size=len(points)))
    pieces = [(a, b, c) for a, b, c in zip(points, points[1:], coeffs) if c is not None]
    pieces = draw(st.permutations(pieces))
    return StepFunction(pieces), FractionStepFunction(pieces)


def _encode_reference(fn):
    return [{"a": str(a), "b": str(b), "re": str(c.re), "im": str(c.im)} for a, b, c in fn.pieces]


def _assert_same(fn, ref):
    assert fn.pieces == ref.pieces
    assert str(fn) == str(ref)
    assert encode_step_function(fn) == _encode_reference(ref)
    assert fn.integral() == ref.integral()
    assert str(fn.integral()) == str(ref.integral())
    assert fn.sort_key() == ref.sort_key()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(reference_pairs(), reference_pairs(), reference_pairs(), COEFFS)
def test_integer_step_functions_match_the_fraction_reference(x, y, z, c):
    (f, rf), (g, rg), (h, rh) = x, y, z
    _assert_same(f, rf)
    _assert_same(f + g, rf + rg)
    _assert_same(f - g, rf + rg.scaled(-1))
    _assert_same(f * g, rf * rg)
    _assert_same(f.scaled(c), rf.scaled(c))
    _assert_same(f.conjugate(), rf.conjugate())
    _assert_same(f.support_indicator(), rf.support_indicator())
    assert (f == g) == (rf == rg)
    assert f == StepFunction(rf.pieces) and hash(f) == hash(StepFunction(rf.pieces))
    if f == g:
        assert hash(f) == hash(g)
    assert segments_as_fractions(common_refinement([f, g, h])) == fraction_refinement([rf, rg, rh])


def _primes(count):
    out, n = [], 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def test_product_parts_stay_as_long_as_its_factors_parts():
    # 1,000 pieces a side, every denominator a different prime: over one common
    # denominator per function each numerator would carry all of them
    ps = iter(_primes(4000))
    f = StepFunction([(i + Fraction(1, next(ps)), i + 1, Fraction(1, next(ps)))
                      for i in range(1000)])
    g = StepFunction([(i, i + 1 - Fraction(1, next(ps)),
                       ComplexRational(Fraction(1, p), Fraction(-1, p)))
                      for i, p in zip(range(1000), ps)])

    def longest(fn):
        return max(abs(x).bit_length() for row in fn.rows for part in row for x in part)

    fg = f * g
    assert len(fg.rows) == 1000
    assert longest(fg) <= longest(f) + longest(g)
    assert fg.pieces == (FractionStepFunction(f.pieces) * FractionStepFunction(g.pieces)).pieces


@pytest.mark.parametrize(
    "pieces_f, pieces_g",
    [
        # 1 and 1 + 10^-20 round to the same float
        ([(1, Fraction(10**20 + 1, 10**20), 2), (2, 3, 1)], [(Fraction(1, 2), 1, 3), (1, 2, 5)]),
        # -10^-400 rounds to -0.0, which equals 0.0
        ([(Fraction(-1, 10**400), 0, 1)], [(-1, 0, 2), (0, 1, 3)]),
        # 10^400 leaves the float range
        ([(1, 10**400, 2)], [(0, 2, 3), (10**400 - 1, 10**400 + 1, 1j)]),
    ],
    ids=["equal-floats", "signed-zero", "past-the-float-range"],
)
def test_cut_points_that_floats_cannot_order(pieces_f, pieces_g):
    f, g = StepFunction(pieces_f), StepFunction(pieces_g)
    rf, rg = FractionStepFunction(pieces_f), FractionStepFunction(pieces_g)
    assert segments_as_fractions(common_refinement([f, g])) == fraction_refinement([rf, rg])
    assert (f * g).pieces == (rf * rg).pieces
    assert (f + g).pieces == (rf + rg).pieces
    assert StepFunction(pieces_f[::-1] + [(-3, -2, 1)]).pieces == FractionStepFunction(
        pieces_f + [(-3, -2, 1)]).pieces


def test_integral_parts_of_results_are_ints():
    f = StepFunction([(0, Fraction(1, 2), Fraction(8, 2)), (1, 3, ComplexRational(Fraction(1, 2), 3))])
    g = StepFunction.indicator(0, 4, 2)
    fg = f * g
    assert str(fg) == "(8)*chi[0,1/2) + (1+6i)*chi[1,3)"
    assert str(fg.integral()) == "6+12i" and str(f.integral()) == "3+6i"
    for c in (fg.pieces[0][2], fg.pieces[1][2], fg.integral(), f.integral(), f.scaled(4).pieces[1][2]):
        assert type(c.re) is int and type(c.im) is int, c
    # over a common denominator one part may be integral and the other not
    [(_, _, half)] = g.scaled(ComplexRational(Fraction(1, 2), Fraction(1, 4))).pieces
    assert type(half.re) is int and half.im == Fraction(1, 2)
