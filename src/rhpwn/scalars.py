"""Exact complex-rational scalars.

Every structure constant in the two algebras is an integer and every test
function has rational data, so all symbolic computation in this package runs
over Q(i): pairs of `int` or `fractions.Fraction`, integers kept as integers.
Floats appear only at the numeric boundary (kernels, densities, sampling).
"""

from __future__ import annotations

import re
from fractions import Fraction


# The largest decimal exponent read: 10**e is computed in full, so "1e99999999"
# would take minutes.  Python's str(int) refuses more than 4300 digits anyway.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")


def parse_fraction(value) -> Fraction:
    """The one reader of exact rationals from outside the program.

    A Fraction, an int, a finite float (its exact binary value) or a "p/q" or
    decimal string is read exactly.  A bool or any other type raises
    TypeError; NaN, an infinity, a zero denominator, a malformed string or a
    decimal exponent beyond MAX_DECIMAL_EXPONENT raises ValueError.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float, Fraction)):
        raise TypeError(f"cannot read a rational from {value!r}")
    try:
        if isinstance(value, str) and ("e" in value or "E" in value):
            exponent = _EXPONENT.search(value)
            if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
                raise ValueError
        return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {value!r}") from None


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
