import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhpwn.mupoly import MU, MuPoly
from rhpwn.scalars import ComplexRational, fraction_str, parse_fraction


def test_parse_and_format_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-5") == Fraction(-5)
    assert fraction_str(Fraction(8, 4)) == "2"
    assert fraction_str(Fraction(-3, 7)) == "-3/7"


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
        assert ComplexRational.parse(str(c)) == c
    assert ComplexRational.parse("1/2i") == ComplexRational(0, Fraction(1, 2))
    assert ComplexRational.parse("-3/4-1/2i") == ComplexRational(
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
    q = MuPoly.from_strings(["0", "16", "8"])
    assert q == MU.scaled(16) + (MU * MU).scaled(8)
    assert q.to_strings() == ["0", "16", "8"]
    assert str(q) == "8*mu^2 + 16*mu"


def test_mupoly_conjugate_and_eval():
    p = MuPoly([ComplexRational(1, 1), ComplexRational(0, -2)])
    assert p.conjugate() == MuPoly([ComplexRational(1, -1), ComplexRational(0, 2)])
    assert p.eval_float(2.0) == pytest.approx(complex(1, -3))


# -- ring laws with parts drawn as a mix of int and Fraction ------------------

_PARTS = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
)
_SCALARS = st.builds(ComplexRational, _PARTS, _PARTS)
_POLYS = st.lists(_SCALARS, max_size=4).map(MuPoly)


def test_constructor_keeps_rationals_and_refuses_the_rest():
    assert type(ComplexRational(3).re) is int
    assert type(ComplexRational(Fraction(1, 2)).re) is Fraction
    for bad in ("1/2", 0.5, 1j):
        with pytest.raises(TypeError):
            ComplexRational(bad)
    with pytest.raises(TypeError):
        ComplexRational(1, "2")
    assert ComplexRational.parse("1/2") == ComplexRational(Fraction(1, 2))
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
@given(_SCALARS, _SCALARS, _SCALARS)
def test_complex_rational_ring_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0 and a + 0 == a and a * 1 == a
    as_fractions = ComplexRational(Fraction(a.re), Fraction(a.im))
    assert a == as_fractions
    assert hash(a) == hash(as_fractions) and str(a) == str(as_fractions)
    assert ComplexRational.parse(str(a)) == a
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
    assert MuPoly.from_strings(p.to_strings()) == p
    assert hash(MuPoly.from_strings(p.to_strings())) == hash(p)
