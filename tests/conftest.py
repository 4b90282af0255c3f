"""Shared deterministic random generators for the test suite."""

import math
from fractions import Fraction

import sympy
from hypothesis import strategies as st

from rhpwn.algebra import RHPWN, AlgebraElement
from rhpwn.scalars import ComplexRational
from rhpwn.stepfn import StepFunction


def rand_fraction(rng, span=6, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_coeff(rng, span=6, den=4, complex_ok=True):
    re = rand_fraction(rng, span, den)
    im = rand_fraction(rng, span, den) if complex_ok else 0
    return ComplexRational(re, im)


def rand_step_function(rng, max_pieces=2, complex_ok=True, scale=None):
    """Random step function on unit slots [i, i+1), i in -4..3 (never straddling 0)."""
    count = rng.randint(0, max_pieces)
    slots = rng.sample(range(-4, 4), count)
    pieces = []
    for i in slots:
        r1 = Fraction(rng.randint(0, 2), 4)
        r2 = Fraction(rng.randint(3, 4), 4)
        c = rand_coeff(rng, complex_ok=complex_ok)
        if scale is not None:
            c = c * scale
        pieces.append((i + r1, i + r2, c))
    return StepFunction(pieces)


# Rationals drawn as a mix of int and Fraction; coefficients as a mix of
# int, Fraction and ComplexRational.
RATIONALS = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
)
SCALARS = st.builds(ComplexRational, RATIONALS, RATIONALS)
COEFFS = st.one_of(RATIONALS, SCALARS)


# Endpoints on a coarse grid, so that functions share endpoints and their
# pieces touch; a None coefficient leaves a gap, and equal neighbours merge
# except at 0, which is always an endpoint, so no piece straddles the origin.
_GRID = [Fraction(i, 2) for i in range(-6, 7)]
_COEFFS = [None, 0, 1, Fraction(-1, 2), ComplexRational(1, 1), ComplexRational(0, -3)]


@st.composite
def step_functions(draw):
    points = sorted(draw(st.sets(st.sampled_from(_GRID), max_size=8)) | {Fraction(0)})
    coeffs = draw(st.lists(st.sampled_from(_COEFFS), min_size=len(points),
                           max_size=len(points)))
    return StepFunction(
        [(a, b, c) for a, b, c in zip(points, points[1:], coeffs) if c is not None]
    )


def admissible_scale(n: int) -> Fraction:
    """A rational s with (max raw |coeff|)^2 * s^2 safely below the order-n bound.

    Raw coefficients from rand_coeff(span=6, den=4) satisfy |c|^2 <= 2 * 36 = 72.
    """
    if n == 1:
        return Fraction(1)
    bound2 = Fraction(2, n**3 * (n - 1))
    target = bound2 / 146  # |c|^2 * s^2 <= 72/146 * bound2 < bound2, strictly
    num = target.numerator * 64 * 64 // target.denominator
    return Fraction(math.isqrt(num), 64)


def rand_admissible(rng, n, max_pieces=2, complex_ok=True):
    return rand_step_function(
        rng, max_pieces=max_pieces, complex_ok=complex_ok, scale=admissible_scale(n)
    )


def rand_element(rng, tag, max_index=6, max_terms=2, complex_ok=True):
    out = AlgebraElement.zero(tag)
    for _ in range(rng.randint(1, max_terms)):
        if tag == RHPWN:
            n = rng.randint(0, max_index)
            k = rng.randint(0, max_index)
        else:
            n = rng.randint(2, max_index)
            k = rng.randint(-max_index, max_index)
        fn = rand_step_function(rng, complex_ok=complex_ok)
        out = out + AlgebraElement.generator(tag, n, k, fn)
    return out


def mupoly_to_sympy(p, symbol):
    """A real MuPoly as an exact sympy polynomial in `symbol`."""
    assert all(c.im == 0 for c in p.coeffs)
    return sum(
        (sympy.Rational(c.re.numerator, c.re.denominator) * symbol**d for d, c in enumerate(p.coeffs)),
        sympy.Integer(0),
    )
