"""Exact complex-rational scalars.

Every structure constant in the two algebras is an integer and every test
function has rational data, so all symbolic computation in this package runs
over Q(i): pairs of arbitrary-precision `fractions.Fraction`.  Floats appear
only at the numeric boundary (kernels, densities, sampling).
"""

from __future__ import annotations

from fractions import Fraction


def parse_fraction(s) -> Fraction:
    """Parse an exact rational from "p/q", "p", an int, or a Fraction.

    Floats are accepted and converted via their exact binary value.
    """
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s.strip())
    raise TypeError(f"cannot read a rational from {s!r}")


def fraction_str(x: Fraction) -> str:
    """Render "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class ComplexRational:
    """An element of Q(i), immutable.

    Arithmetic is exact; `to_complex` is the only lossy exit.  Mixed
    arithmetic with int and Fraction coerces the other operand.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", parse_fraction(re))
        object.__setattr__(self, "im", parse_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, float):
            return cls(Fraction(value))
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        raise TypeError(f"cannot coerce {value!r} to ComplexRational")

    @classmethod
    def parse(cls, s: str) -> "ComplexRational":
        """Parse "p/q", "a/b+c/di", "a/b-c/di", or "c/di"."""
        s = s.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar string")
        if not s.endswith("i"):
            return cls(Fraction(s))
        body = s[:-1]
        # Split at the first sign that is not the leading one; real and
        # imaginary parts are plain p/q tokens so any interior +/- separates.
        for pos in range(1, len(body)):
            if body[pos] in "+-":
                re_part = body[:pos]
                im_part = body[pos:]
                if im_part in ("+", "-"):
                    im_part += "1"
                return cls(Fraction(re_part), Fraction(im_part))
        if body in ("", "+", "-"):
            body += "1"
        return cls(0, Fraction(body))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = ComplexRational.coerce(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ComplexRational.coerce(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ComplexRational.coerce(other) - self

    def __mul__(self, other):
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
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return ComplexRational.coerce(other) / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- predicates / conversions ---------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __eq__(self, other):
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
            return fraction_str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{fraction_str(self.re)}{sign}{fraction_str(abs(self.im))}i"

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"


QC_ZERO = ComplexRational(0)
QC_ONE = ComplexRational(1)
