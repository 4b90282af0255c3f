"""Dense truncated power series with MuPoly coefficients.

A series is a list [c0, c1, ...] of MuPoly, meaning sum c_j s^j.  All
operations are exact and truncate at a requested order (inclusive).
"""

from __future__ import annotations

from fractions import Fraction

from .mupoly import MuPoly


def _coeff(a, j) -> MuPoly:
    return a[j] if j < len(a) else MuPoly.zero()


def series_scale(a, c, order: int):
    return [_coeff(a, j).scaled(c) for j in range(order + 1)]


def series_mul(a, b, order: int):
    out = [MuPoly.zero() for _ in range(order + 1)]
    for i in range(min(len(a), order + 1)):
        if _coeff(a, i).is_zero:
            continue
        for j in range(min(len(b), order + 1 - i)):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def series_exp(a, order: int):
    """exp of a series with zero constant term (b' = a' b)."""
    if len(a) > 0 and not a[0].is_zero:
        raise ValueError("series_exp needs a vanishing constant term")
    b = [MuPoly.one()] + [MuPoly.zero()] * order
    for m in range(1, order + 1):
        acc = MuPoly.zero()
        for j in range(1, m + 1):
            acc = acc + _coeff(a, j).scaled(j) * b[m - j]
        b[m] = acc.scaled(Fraction(1, m))
    return b

