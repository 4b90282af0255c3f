import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COEFFS, RATIONALS, SCALARS
from oracles import eval_float, mu_poly_from_strings, parse_complex_rational
from rhpwn import scalars
from rhpwn.mupoly import MU, MuPoly
from rhpwn.scalars import ComplexRational, parse_fraction, read_rational


def test_parse_and_format_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-5") == Fraction(-5)
    assert str(ComplexRational(Fraction(8, 4))) == "2"
    assert str(ComplexRational(Fraction(-3, 7))) == "-3/7"
    assert str(ComplexRational(Fraction(1, 2), Fraction(-3, 7))) == "1/2-3/7i"
    third = Fraction(1, 3)
    assert parse_fraction(third) is third
    assert parse_fraction(" 1/3\n") == third
    assert parse_fraction("1e-9") == Fraction(1, 10**9)
    assert parse_fraction(0.1) == Fraction(3602879701896397, 2**55)  # the float's binary value
    assert type(parse_fraction(7)) is Fraction and parse_fraction(7) == 7


@pytest.mark.parametrize(
    "value, error",
    [
        (True, TypeError),
        (False, TypeError),
        (None, TypeError),
        (object(), TypeError),
        ([1], TypeError),
        (float("nan"), ValueError),
        (float("inf"), ValueError),
        (float("-inf"), ValueError),
        ("1/0", ValueError),
        ("abc", ValueError),
        ("inf", ValueError),
        ("", ValueError),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "object()" if type(v) is object else repr(v),
)
def test_parse_fraction_refuses(value, error):
    with pytest.raises(error):
        parse_fraction(value)


_RATIO_TEXT = st.lists(
    st.sampled_from(["0", "1", "7", "00", "12", "-", "+", "/", "_", " ", ".", "e", "\u0663"]),
    max_size=8,
).map("".join)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_RATIO_TEXT)
def test_read_rational_reads_strings_as_fraction_does(text):
    # "p" and "p/q" are read with int(); every string must read as Fraction
    # reads it, reduced, or be refused with ValueError as Fraction refuses it
    try:
        exact = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            read_rational(text)
    else:
        assert read_rational(text) == (exact.numerator, exact.denominator)


def test_read_rational_keeps_only_short_strings_that_read():
    memo = scalars._read_memo
    memo.cache_clear()
    short = " 3/4 ".center(scalars.MEMO_TEXT_LENGTH)
    padded = " 3/4 ".center(10**5)  # whitespace of any length reads
    assert read_rational(short) == read_rational(padded) == (3, 4)
    assert read_rational(short) == (3, 4)
    assert memo.cache_info()[:2] == (1, 1)  # one hit, one miss: the long one is not kept
    for text in ("1/0", "1/0"):
        with pytest.raises(ValueError):
            read_rational(text)
    assert memo.cache_info()[1:] == (3, scalars.MEMO_SIZE, 1)
    # the equal int and bool are not strings, and are read as before
    assert read_rational(1) == (1, 1)
    with pytest.raises(TypeError):
        read_rational(True)


def test_parse_fraction_caps_the_decimal_exponent():
    # 10**e is computed in full, so a long exponent is refused before it is read
    assert parse_fraction("1e4300") == 10**4300
    assert parse_fraction("-2.5E-4300") == Fraction(-25, 10**4301)
    for text in ("1e4301", "1E-4301", "1e1000000", "1e" + "9" * 5000):
        with pytest.raises(ValueError):
            parse_fraction(text)


def test_complex_rational_parts_go_through_parse_fraction():
    for text in ("1/0", "1+1/0i", "nan", "1e4301i"):
        with pytest.raises(ValueError):
            parse_complex_rational(text)
    with pytest.raises(ValueError):
        ComplexRational.coerce(complex(1, float("inf")))


def test_complex_rational_arithmetic():
    a = ComplexRational(Fraction(1, 2), Fraction(-1, 3))
    b = ComplexRational(2, 5)
    assert (a + b) - b == a
    assert a * b / b == a
    assert (a * a.conjugate()).im == 0
    assert a.abs_squared() == Fraction(1, 4) + Fraction(1, 9)
    assert -a + a == ComplexRational(0)


def test_complex_rational_parse_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        c = ComplexRational(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        )
        assert parse_complex_rational(str(c)) == c
    assert parse_complex_rational("1/2i") == ComplexRational(0, Fraction(1, 2))
    assert parse_complex_rational("-3/4-1/2i") == ComplexRational(
        Fraction(-3, 4), Fraction(-1, 2)
    )


def test_mupoly_ring_operations():
    p = MU.scaled(2) + 3  # 2 mu + 3
    q = MU * MU - 1
    assert p * q == q * p
    assert (p + q) - q == p
    assert p**2 == p * p
    assert MuPoly.zero() * p == MuPoly.zero()
    assert p.eval_exact(Fraction(1, 2)) == ComplexRational(4)


def test_mupoly_canonical_and_strings():
    p = MuPoly([1, 0, Fraction(0)])
    assert p.degree == 0
    q = mu_poly_from_strings(["0", "16", "8"])
    assert q == MU.scaled(16) + (MU * MU).scaled(8)
    assert q.to_strings() == ["0", "16", "8"]
    assert str(q) == "8*mu^2 + 16*mu"


def test_mupoly_conjugate_and_eval():
    p = MuPoly([ComplexRational(1, 1), ComplexRational(0, -2)])
    assert p.conjugate() == MuPoly([ComplexRational(1, -1), ComplexRational(0, 2)])
    assert eval_float(p, 2.0) == pytest.approx(complex(1, -3))


# -- ring laws with parts drawn as a mix of int and Fraction (conftest.SCALARS) --

_POLYS = st.lists(SCALARS, max_size=4).map(MuPoly)


def test_constructor_keeps_rationals_and_refuses_the_rest():
    assert type(ComplexRational(3).re) is int
    assert type(ComplexRational(Fraction(1, 2)).re) is Fraction
    for bad in ("1/2", 0.5, 1j, True):
        with pytest.raises(TypeError):
            ComplexRational(bad)
    for bad in ("2", False):
        with pytest.raises(TypeError):
            ComplexRational(1, bad)
    assert parse_complex_rational("1/2") == ComplexRational(Fraction(1, 2))
    assert ComplexRational.coerce(0.5) == ComplexRational(Fraction(1, 2))
    assert ComplexRational.coerce(1j) == ComplexRational(0, 1)


def test_int_and_fraction_parts_are_interchangeable():
    one, one_f = ComplexRational(1), ComplexRational(Fraction(1))
    assert one == one_f and hash(one) == hash(one_f) and str(one) == str(one_f) == "1"
    z, z_f = ComplexRational(2, -3), ComplexRational(Fraction(2), Fraction(-3))
    assert z == z_f and hash(z) == hash(z_f) and str(z) == str(z_f) == "2-3i"
    third = ComplexRational(1) / ComplexRational(3)
    assert type(third.re) is Fraction and type(third.im) is Fraction
    assert third == ComplexRational(Fraction(1, 3)) and str(third) == "1/3"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(SCALARS, SCALARS, SCALARS)
def test_complex_rational_ring_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0 and a + 0 == a and a * 1 == a
    as_fractions = ComplexRational(Fraction(a.re), Fraction(a.im))
    assert a == as_fractions
    assert hash(a) == hash(as_fractions) and str(a) == str(as_fractions)
    assert parse_complex_rational(str(a)) == a
    if not b.is_zero:
        q = a / b
        assert type(q.re) is Fraction and type(q.im) is Fraction
        assert q * b == a


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_POLYS, _POLYS, _POLYS)
def test_mupoly_ring_laws(p, q, r):
    assert p + q == q + p and p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero and p * MuPoly.one() == p
    assert mu_poly_from_strings(p.to_strings()) == p
    assert hash(mu_poly_from_strings(p.to_strings())) == hash(p)


def test_mupoly_coeffs_have_int_parts_where_integral():
    p = MU.scaled(Fraction(1, 2)) + 3
    c0, c1 = p.coeffs
    assert type(c0.re) is int and c0.re == 3 and type(c0.im) is int
    assert type(c1.re) is Fraction and c1.re == Fraction(1, 2) and type(c1.im) is int
    assert str(p) == "1/2*mu + 3" and p.to_strings() == ["3", "1/2"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_POLYS, SCALARS)
def test_mupoly_coeff_parts_are_ints_exactly_where_integral(p, c):
    q = p.scaled(c) + c
    for z in q.coeffs:
        for part in (z.re, z.im):
            assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)
    # the same values, strings and hash as coefficients built from Fractions
    as_fractions = tuple(ComplexRational(Fraction(z.re), Fraction(z.im)) for z in q.coeffs)
    assert q.coeffs == as_fractions and hash(q.coeffs) == hash(as_fractions)
    assert q.to_strings() == [str(z) for z in as_fractions]


# -- MuPoly against the dense ComplexRational-coefficient reference ------------


class _DensePoly:
    """The dense reference: a tuple of ComplexRational, trailing zeros stripped.

    Shares no arithmetic with MuPoly, whose parts are Gaussian-integer
    numerators over one common denominator.
    """

    def __init__(self, coeffs=()):
        cs = [ComplexRational.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return _DensePoly(out)

    def __neg__(self):
        return _DensePoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return _DensePoly()
        out = [ComplexRational(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _DensePoly(out)

    def __pow__(self, k):
        out = _DensePoly([1])
        for _ in range(k):
            out = out * self
        return out

    def scaled(self, c):
        return _DensePoly(a * ComplexRational.coerce(c) for a in self.coeffs)

    def conjugate(self):
        return _DensePoly(c.conjugate() for c in self.coeffs)

    def eval_exact(self, mu):
        acc = ComplexRational(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(mu) + c
        return acc

    def eval_float(self, mu):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * mu + c.to_complex()
        return acc

    def __str__(self):
        parts = []
        for d, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            cs = str(c)
            if d == 0:
                parts.append(cs)
            else:
                var = "mu" if d == 1 else f"mu^{d}"
                parts.append(var if cs == "1" else f"{cs}*{var}")
        return " + ".join(reversed(parts)) or "0"


def _assert_canonical(p):
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(x) is int for pair in num for x in pair)
    assert not num or num[-1] != (0, 0)
    assert gcd(den, *(x for pair in num for x in pair)) == 1
    if not num:
        assert den == 1


def _assert_matches(p, ref):
    _assert_canonical(p)
    assert p.coeffs == ref.coeffs
    assert all(
        type(x) is (int if Fraction(x).denominator == 1 else Fraction)
        for c in p.coeffs
        for x in (c.re, c.im)
    )
    assert str(p) == str(ref)
    assert p.to_strings() == [str(c) for c in ref.coeffs]
    assert mu_poly_from_strings(p.to_strings()) == p
    assert hash(p) == hash(ref.coeffs)
    assert p.degree == len(ref.coeffs) - 1 and p.is_zero == (not ref.coeffs)


# Coefficient lists mixing int, Fraction and ComplexRational, with trailing
# zeros appended; the empty list is the zero polynomial.
_COEFF_LISTS = st.builds(
    lambda cs, zeros: cs + [0] * zeros,
    st.lists(COEFFS, max_size=4),
    st.integers(0, 2),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_COEFF_LISTS, _COEFF_LISTS, COEFFS, st.integers(0, 3), RATIONALS)
def test_mupoly_matches_dense_reference(cs, ds, c, k, mu):
    p, q = MuPoly(cs), MuPoly(ds)
    rp, rq = _DensePoly(cs), _DensePoly(ds)
    _assert_matches(p, rp)
    _assert_matches(q, rq)
    _assert_matches(p + q, rp + rq)
    _assert_matches(p - q, rp - rq)
    _assert_matches(-p, -rp)
    _assert_matches(p * q, rp * rq)
    _assert_matches(p**k, rp**k)
    _assert_matches(p.scaled(c), rp.scaled(c))
    _assert_matches(p.conjugate(), rp.conjugate())
    # Scalar operands: any exact scalar on the right, a rational on the left.
    rc, rmu = _DensePoly([c]), _DensePoly([mu])
    _assert_matches(p + c, rp + rc)
    _assert_matches(p - c, rp - rc)
    _assert_matches(p * c, rp * rc)
    _assert_matches(mu + p, rmu + rp)
    _assert_matches(mu - p, rmu - rp)
    _assert_matches(mu * p, rmu * rp)
    assert (p == q) == (rp.coeffs == rq.coeffs)
    assert (p == c) == (rp.coeffs == rc.coeffs)
    value = p.eval_exact(mu)
    assert value == rp.eval_exact(mu) and str(value) == str(rp.eval_exact(mu))
    assert eval_float(p, 0.3) == rp.eval_float(0.3)


def _as_sympy(p, mu):
    """A MuPoly as an exact sympy expression in `mu`, Gaussian coefficients and all."""
    part = lambda x: sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
    return sum((part(c.re) + sympy.I * part(c.im)) * mu**d for d, c in enumerate(p.coeffs))


# Constant operands: any exact scalar, with zero, one and Gaussian units drawn often.
_CONSTANTS = st.one_of(
    st.sampled_from([0, 1, Fraction(1), ComplexRational(0, 1), ComplexRational(1, -1)]),
    COEFFS,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_COEFF_LISTS, _CONSTANTS)
def test_product_with_a_constant_matches_sympy(cs, c):
    mu = sympy.Symbol("mu")
    p, k = MuPoly(cs), MuPoly.constant(c)
    want = sympy.expand(_as_sympy(p, mu) * _as_sympy(k, mu))
    for got in (p * k, k * p, p * c):
        _assert_canonical(got)
        assert sympy.expand(_as_sympy(got, mu) - want) == 0
    assert p * k == p.scaled(c)
    assert p * MuPoly.one() == p == MuPoly.one() * p


def test_monomial_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="negative monomial degree -1"):
        MuPoly.monomial(-1, 5)
    assert MuPoly.monomial(0, 5) == 5
    assert MuPoly.monomial(2, ComplexRational(0, 3)) == (MU * MU).scaled(ComplexRational(0, 3))
