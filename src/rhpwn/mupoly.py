"""Polynomials in the symbolic interval measure mu.

Vacuum moments, Fock kernels and no-go minors are all polynomials in the
measure mu of the fixed reference interval.  Coefficients live in Q(i) so
words with complex test functions stay exact.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ComplexRational, QC_ONE, QC_ZERO


class MuPoly:
    """Dense polynomial in mu with ComplexRational coefficients.

    Canonical form strips trailing zeros; the zero polynomial has an empty
    coefficient tuple.  All ring operations are exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [ComplexRational.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("MuPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MuPoly":
        return cls()

    @classmethod
    def one(cls) -> "MuPoly":
        return cls((QC_ONE,))

    @classmethod
    def constant(cls, c) -> "MuPoly":
        return cls((c,))

    @classmethod
    def mu(cls) -> "MuPoly":
        return cls((QC_ZERO, QC_ONE))

    @classmethod
    def monomial(cls, degree: int, c=1) -> "MuPoly":
        return cls((QC_ZERO,) * degree + (c,))

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _as_poly(value) -> "MuPoly":
        if isinstance(value, MuPoly):
            return value
        return MuPoly.constant(value)

    def __add__(self, other):
        other = MuPoly._as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return MuPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-MuPoly._as_poly(other))

    def __rsub__(self, other):
        return MuPoly._as_poly(other) + (-self)

    def __neg__(self):
        return MuPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = MuPoly._as_poly(other)
        if not self.coeffs or not other.coeffs:
            return MuPoly.zero()
        out = [QC_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return MuPoly(out)

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
        c = ComplexRational.coerce(c)
        return MuPoly(tuple(a * c for a in self.coeffs))

    def conjugate(self) -> "MuPoly":
        return MuPoly(tuple(c.conjugate() for c in self.coeffs))

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, degree: int) -> ComplexRational:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return QC_ZERO

    def eval_exact(self, mu: Fraction) -> ComplexRational:
        mu = Fraction(mu)
        acc = QC_ZERO
        for c in reversed(self.coeffs):
            acc = acc * mu + c
        return acc

    def eval_float(self, mu) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * mu + c.to_complex()
        return acc

    # -- protocol --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, MuPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self == MuPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
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

    @classmethod
    def from_strings(cls, items) -> "MuPoly":
        return cls(tuple(ComplexRational.parse(str(s)) for s in items))


MU = MuPoly.mu()
