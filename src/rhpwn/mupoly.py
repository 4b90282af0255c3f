"""Polynomials in the symbolic interval measure mu.

Vacuum moments, Fock kernels and no-go minors are all polynomials in the
measure mu of the fixed reference interval.  Coefficients live in Q(i) so
words with complex test functions stay exact.  Internally a polynomial is a
tuple of Gaussian-integer numerators over one positive common denominator,
so the ring operations run on Python ints and reduce once per result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .scalars import ComplexRational, QC_ZERO, from_gaussian, gaussian, parse_fraction


def _make(num: tuple, den: int) -> "MuPoly":
    """A MuPoly from parts already in canonical form."""
    p = _new(MuPoly)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _canonical(num: list, den: int) -> "MuPoly":
    """Strip trailing zero pairs and reduce `num / den` to lowest terms."""
    while num and num[-1] == (0, 0):
        num.pop()
    if not num:
        return _ZERO
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = [(a // g, b // g) for a, b in num]
            den //= g
    return _make(tuple(num), den)


def _times(p: "MuPoly", cr: int, ci: int, cd: int) -> "MuPoly":
    """`p` times the constant (cr + ci i)/cd: one pass over `p`, no convolution."""
    if not ci:
        if cr == 1 and cd == 1:
            return p
        num = [(a * cr, b * cr) for a, b in p._num]
    else:
        num = [(a * cr - b * ci, a * ci + b * cr) for a, b in p._num]
    return _canonical(num, p._den * cd)


def _poly(value) -> "MuPoly":
    if isinstance(value, MuPoly):
        return value
    re, im, den = gaussian(value)
    return _canonical([(re, im)], den)


class MuPoly:
    """Dense polynomial in mu with Q(i) coefficients.

    Stored as `_num`, a tuple of (re, im) int pairs for mu^0, mu^1, ..., over
    `_den`, one positive int.  The canonical form is in lowest terms (the gcd
    of `_den` and every numerator part is 1) with trailing zero pairs
    stripped; zero is ((), 1).  So two polynomials are equal exactly when
    their parts are.  `coeffs` is the public view as ComplexRational.  All
    ring operations are exact.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        parts = [gaussian(c) for c in coeffs]
        den = lcm(1, *(d for _, _, d in parts))
        p = _canonical([(re * (den // d), im * (den // d)) for re, im, d in parts], den)
        _set_num(self, p._num)
        _set_den(self, p._den)

    def __setattr__(self, name, value):
        raise AttributeError("MuPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MuPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "MuPoly":
        return _ONE

    @classmethod
    def constant(cls, c) -> "MuPoly":
        return _poly(c)

    @classmethod
    def mu(cls) -> "MuPoly":
        return MU

    @classmethod
    def monomial(cls, degree: int, c=1) -> "MuPoly":
        if degree < 0:
            raise ValueError(f"negative monomial degree {degree}")
        re, im, den = gaussian(c)
        return _canonical([(0, 0)] * degree + [(re, im)], den)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _poly(other)
        a, b = self._num, other._num
        if not b:
            return self
        if not a:
            return other
        den, db = self._den, other._den
        if den != db:
            common = lcm(den, db)
            sa, sb = common // den, common // db
            if sa != 1:
                a = [(x * sa, y * sa) for x, y in a]
            if sb != 1:
                b = [(x * sb, y * sb) for x, y in b]
            den = common
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, (x, y) in enumerate(b):
            r, s = out[i]
            out[i] = (r + x, s + y)
        return _canonical(out, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_poly(other))

    def __rsub__(self, other):
        return _poly(other) + (-self)

    def __neg__(self):
        return _make(tuple((-a, -b) for a, b in self._num), self._den)

    def __mul__(self, other):
        other = _poly(other)
        a, b = self._num, other._num
        if not a or not b:
            return _ZERO
        # A constant operand scales the other one: most products in a
        # reduction have one, so they skip the convolution.
        if len(b) == 1:
            return _times(self, *b[0], other._den)
        if len(a) == 1:
            return _times(other, *a[0], self._den)
        size = len(a) + len(b) - 1
        out_re, out_im = [0] * size, [0] * size
        for i, (ar, ai) in enumerate(a):
            if ai:
                for j, (br, bi) in enumerate(b, i):
                    out_re[j] += ar * br - ai * bi
                    out_im[j] += ar * bi + ai * br
            elif ar:
                for j, (br, bi) in enumerate(b, i):
                    out_re[j] += ar * br
                    out_im[j] += ar * bi
        return _canonical(list(zip(out_re, out_im)), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = MuPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scaled(self, c) -> "MuPoly":
        if type(c) is int:
            return _times(self, c, 0, 1)
        return _times(self, *gaussian(c))

    def conjugate(self) -> "MuPoly":
        return _make(tuple((a, -b) for a, b in self._num), self._den)

    # -- queries --------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients c0..cd as ComplexRational, each part an `int` where it is integral."""
        den = self._den
        return tuple(from_gaussian(a, b, den) for a, b in self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    def coefficient(self, degree: int) -> ComplexRational:
        if 0 <= degree < len(self._num):
            return self.coeffs[degree]
        return QC_ZERO

    def eval_exact(self, mu: Fraction) -> ComplexRational:
        mu = parse_fraction(mu)
        acc = QC_ZERO
        for c in reversed(self.coeffs):
            acc = acc * mu + c
        return acc

    # -- protocol --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MuPoly):
            if not isinstance(other, (int, Fraction, ComplexRational)):
                return NotImplemented
            other = _poly(other)
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self._num)

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                var = "mu" if d == 1 else f"mu^{d}"
                cs = str(c)
                parts.append(var if cs == "1" else f"{cs}*{var}")
        return " + ".join(reversed(parts))

    def __repr__(self):
        return f"MuPoly({self})"

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list:
        """Coefficient strings c0..cd, exact ("p/q" or "a/b+c/di")."""
        return [str(c) for c in self.coeffs]


# Slot setters: `__setattr__` refuses every write from outside the module.
_new = object.__new__
_set_num = MuPoly._num.__set__
_set_den = MuPoly._den.__set__

_ZERO = _make((), 1)
_ONE = _make(((1, 0),), 1)
MU = _make(((0, 0), (1, 0)), 1)
