"""Exact complex-rational scalars.

Every structure constant in the two algebras is an integer and every test
function has rational data, so all symbolic computation in this package runs
over Q(i): pairs of `int` or `fractions.Fraction`, integers kept as integers.
Step functions and mu-polynomials keep their scalars as Gaussian-integer
triples (re, im, den) instead; `gaussian` and `from_gaussian` convert.
Floats appear only at the numeric boundary (kernels, densities, sampling).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


# The largest decimal exponent read: 10**e is computed in full, so "1e99999999"
# would take minutes.  Python's str(int) refuses more than 4300 digits anyway.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")
# "p" and "p/q" in ASCII digits, read with int(); every other string goes
# through Fraction, which accepts these with the same value.
_INTEGER_RATIO = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def read_rational(value) -> tuple:
    """The one reader of exact rationals from outside the program, as ints.

    Returns (num, den) in lowest terms with den > 0.  A Fraction, an int, a
    finite float (its exact binary value) or a "p/q" or decimal string is read
    exactly.  A bool or any other type raises TypeError; NaN, an infinity, a
    zero denominator, a malformed string or a decimal exponent beyond
    MAX_DECIMAL_EXPONENT raises ValueError.  A string of at most
    MEMO_TEXT_LENGTH characters is read through a memo of the last MEMO_SIZE
    distinct such strings that read; a refused one raises each time.
    """
    if isinstance(value, str):
        return _read_memo(value) if len(value) <= MEMO_TEXT_LENGTH else _read(value)
    kind = type(value)
    if kind is Fraction:
        return value.numerator, value.denominator
    if kind is int:
        return value, 1
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise TypeError(f"cannot read a rational from {value!r}")
    return _read(value)


def _read(value) -> tuple:
    try:
        if isinstance(value, str):
            ratio = _INTEGER_RATIO.fullmatch(value)
            if ratio:
                num, den = ratio.groups()
                num, den = int(num), int(den or 1)
                if not den:
                    raise ZeroDivisionError
                g = gcd(num, den)
                return num // g, den // g
            if "e" in value or "E" in value:
                exponent = _EXPONENT.search(value)
                if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
                    raise ValueError
        exact = Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {value!r}") from None
    return exact.numerator, exact.denominator


# Fraction accepts whitespace padding of any length, so the memo keeps only
# short strings, read as ints of fewer than 256 + MAX_DECIMAL_EXPONENT digits.
MEMO_SIZE, MEMO_TEXT_LENGTH = 4096, 256
_read_memo = lru_cache(maxsize=MEMO_SIZE)(_read)


def parse_fraction(value) -> Fraction:
    """`read_rational` as a Fraction."""
    if type(value) is Fraction:
        return value
    return Fraction(*read_rational(value))


def rational_str(num: int, den: int) -> str:
    """num/den as str(Fraction(num, den)) spells it: "p" or "p/q"."""
    g = gcd(num, den)
    return reduced_str(num // g, den // g)


def reduced_str(num: int, den: int) -> str:
    """`rational_str` of num/den already in lowest terms with den > 0, with no gcd."""
    return f"{num}/{den}" if den != 1 else str(num)


def gaussian(value) -> tuple:
    """An exact scalar as ints (re, im, den): den > 0 and gcd(re, im, den) = 1."""
    if type(value) is int:
        return value, 0, 1
    if type(value) is Fraction:
        return value.numerator, 0, value.denominator
    c = ComplexRational.coerce(value)
    re, im = c.re, c.im
    return gaussian_from_ratios(re.numerator, re.denominator, im.numerator, im.denominator)


def gaussian_from_ratios(re_num: int, re_den: int, im_num: int, im_den: int) -> tuple:
    """re_num/re_den + i im_num/im_den, each ratio in lowest terms, as ints
    (re, im, den) in lowest terms: over the lcm of the two denominators."""
    den = lcm(re_den, im_den)
    return re_num * (den // re_den), im_num * (den // im_den), den


def gaussian_sum(terms) -> tuple:
    """The sum of (re, im, den) terms as (re, im, den) in lowest terms."""
    re, im, den = 0, 0, 1
    for r, i, d in terms:
        if d == den:
            re += r
            im += i
        else:
            g = gcd(den, d)
            s, t = d // g, den // g
            re, im, den = re * s + r * t, im * s + i * t, den * s
    g = gcd(re, im, den)
    return re // g, im // g, den // g


def from_gaussian(re: int, im: int, den: int) -> "ComplexRational":
    """(re + im i)/den as a ComplexRational, each part an int where it is integral."""
    if den == 1:
        return ComplexRational(re, im)
    return ComplexRational(_part(re, den), _part(im, den))


def _part(num, den):
    g = gcd(num, den)
    return num // g if g == den else Fraction(num // g, den // g)


_RATIONAL = (int, Fraction)


class ComplexRational:
    """An element of Q(i), immutable.

    Arithmetic is exact; `to_complex` is the only lossy exit.  Mixed
    arithmetic with int and Fraction coerces the other operand.  Parts are
    exactly `int` or `Fraction` (no `bool`), stored as given: `str` prints each
    as "p" or "p/q", and an `int` part and the equal `Fraction` compare, hash
    and print alike.  Floats and `complex` go through `coerce`.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) not in _RATIONAL or type(im) not in _RATIONAL:
            raise TypeError(f"parts must be int or Fraction, got {re!r}, {im!r}")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, _RATIONAL):
            return cls(value)
        if isinstance(value, (float, complex)):
            return cls(parse_fraction(value.real), parse_fraction(value.imag))
        raise TypeError(f"cannot coerce {value!r} to ComplexRational")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not ComplexRational:
            other = ComplexRational.coerce(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ComplexRational:
            other = ComplexRational.coerce(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ComplexRational.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not ComplexRational:
            other = ComplexRational.coerce(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ComplexRational.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            Fraction(self.re * other.re + self.im * other.im, d),
            Fraction(self.im * other.re - self.re * other.im, d),
        )

    def __rtruediv__(self, other):
        return ComplexRational.coerce(other) / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs_squared(self):
        return self.re * self.re + self.im * self.im

    # -- predicates / conversions ---------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __eq__(self, other):
        if type(other) is not ComplexRational:
            try:
                other = ComplexRational.coerce(other)
            except TypeError:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"


QC_ZERO = ComplexRational(0)
