"""Truncated Fock spaces: kernels, exponential vectors, jets and operators.

The order-n space is spanned by exponential vectors psi_n(f) with inner
product

    n = 1:   <psi_1(f), psi_1(g)> = exp( integral conj(f) g )
    n >= 2:  <psi_n(f), psi_n(g)> =
             exp( -(2/(n^2(n-1))) integral ln(1 - (n^3(n-1)/2) conj(f) g) )

defined for |f|, |g| < (1/n) sqrt(2/(n(n-1))) pointwise (strict; the log
kernel diverges at the bound).  Creation acts as a directional derivative of
psi_n in its argument, so vectors produced by the operators are jets:
psi_n(f) differentiated along up to two directions, which
`ExponentialVector` carries itself.  The number operator acts on psi_n(h)
as a scalar plus one first-order jet.  Inner products of jets are the
corresponding mixed partial derivatives of the closed-form kernel, computed
here with square-free nilpotent arithmetic rather than finite differences: a
nilpotent is a dict from subsets of the directions (bitmasks) to
coefficients, one first-order infinitesimal per direction.

Spaces of different order are orthogonal (the full space is their direct
sum), so cross-order pairings are 0.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    RHPWN,
    GeneratorIndex,
    bracket_index_and_constant,
    order_constants,
    require_order,
)
from .errors import (
    DomainError,
    PrescriptionError,
    UnsupportedGeneratorError,
    UnsupportedOrderError,
)
from .mupoly import MU, MuPoly
from .scalars import ComplexRational, gaussian_sum
from .stepfn import ZERO, StepFunction, common_refinement

# -- closed-form kernels -----------------------------------------------------


def kernel_values(n: int, k: int):
    """Squared norm pi_{n,k} of (B[n,0])^k Phi and h_{n,k} = pi_{n,k}/k!.

    pi_{n,k}(mu) = k! n^k prod_{i<k} (mu + n^2(n-1)/2 * i), exact.  h_{n,k}
    is also the k-th derivative at u = 0 of the generating function
    G_n(u) = (1 - c u)^(-mu/half), c = n^3(n-1)/2: the rising factorial of
    the binomial series gives prod_{i<k} (n mu + c i).  For n = 1,
    G_1 = exp(mu u) and both are mu^k.
    """
    if n < 1 or k < 0:
        raise DomainError(f"kernel indices need n >= 1, k >= 0, got ({n}, {k})")
    half, _ = order_constants(n)
    h = MuPoly.one()
    for i in range(k):
        h = h * (MU + half * i).scaled(n)
    return h.scaled(math.factorial(k)), h


# -- admissibility -----------------------------------------------------------


def require_admissible(n: int, f: StepFunction):
    """Strict pointwise bound |f|^2 < 2/(n^3(n-1)); none for n = 1."""
    require_order(n)
    if n == 1:
        return
    c = order_constants(n)[1]
    for i, (_, _, (re, im, den)) in enumerate(f.rows):
        if c * (re * re + im * im) >= den * den:
            a, b, coeff = f.pieces[i]
            raise DomainError(
                f"piece [{a},{b}) with |coeff|^2 = {coeff.abs_squared()} violates the "
                f"order-{n} bound |f|^2 < {Fraction(1, c)}"
            )


# -- vectors -----------------------------------------------------------------


@dataclass(frozen=True, slots=True, repr=False)
class ExponentialVector:
    """psi_n(f), or its iterated directional derivative along `directions`.

    psi_n(f) is the product of creator exponentials over the pieces of f, and
    psi_n(0) is the vacuum; f must satisfy the order-n sup-norm bound
    strictly.  directions = (d1, ..., dp), p <= 2, means
    d^p/(de_1 ... de_p) psi_n(f + e_1 d_1 + ... + e_p d_p) at e = 0.
    Mixed partials commute, so directions are kept sorted; a zero direction
    makes the whole vector zero.
    """

    n: int
    f: StepFunction
    directions: tuple = ()

    def __post_init__(self):
        require_admissible(self.n, self.f)
        directions = tuple(sorted(self.directions, key=lambda d: d.sort_key()))
        if len(directions) > 2:
            raise UnsupportedOrderError(
                f"jet order capped at 2, got {len(directions)} directions"
            )
        object.__setattr__(self, "directions", directions)

    @property
    def order(self) -> int:
        return len(self.directions)

    @property
    def is_zero(self) -> bool:
        return any(d.is_zero for d in self.directions)

    def __str__(self):
        psi = f"psi_{self.n}({self.f})"
        if not self.directions:
            return psi
        dirs = "; ".join(str(d) for d in self.directions)
        return f"jet({psi}; {dirs})"

    __repr__ = __str__


class JetSum:
    """Finite formal combination of jets with exact complex-rational weights."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canon = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for jet, coeff in items:
            coeff = ComplexRational.coerce(coeff)
            if coeff.is_zero or jet.is_zero:
                continue
            acc = canon.get(jet)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero:
                canon.pop(jet, None)
            else:
                canon[jet] = acc
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("JetSum is immutable")

    @classmethod
    def of(cls, v, coeff=1) -> "JetSum":
        return cls({v: coeff})

    def __add__(self, other):
        return JetSum([*self.terms.items(), *_as_jetsum(other).terms.items()])

    def __sub__(self, other):
        return self + _as_jetsum(other).scaled(-1)

    def scaled(self, c) -> "JetSum":
        c = ComplexRational.coerce(c)
        return JetSum({jet: coeff * c for jet, coeff in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, JetSum):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c}) {jet}" for jet, c in self.terms.items())

    __repr__ = __str__


def _as_jetsum(v) -> JetSum:
    return v if isinstance(v, JetSum) else JetSum.of(v)


# -- nilpotent arithmetic (one infinitesimal per direction) ------------------
# A nilpotent maps a bitmask S of directions to the coefficient of
# prod_{i in S} e_i (e_i^2 = 0); zero coefficients are dropped as they appear.


def _dual_mul(a: dict, b: dict) -> dict:
    """a b: pairs whose masks overlap vanish, the rest add under s | t."""
    out = {}
    for s, x in a.items():
        for t, y in b.items():
            if not s & t:
                out[s | t] = out.get(s | t, 0j) + x * y
    return {s: x for s, x in out.items() if x}


def _dual_add(acc: dict, a: dict, c) -> None:
    """acc += c a, in place."""
    for s, x in a.items():
        x *= c
        if x:
            acc[s] = acc.get(s, 0j) + x
            if not acc[s]:
                del acc[s]


def _dual_series(a: dict, coeff) -> dict:
    """sum_{j >= 1} coeff(j) a^j; finite, as a has no constant term."""
    out, power, j = {}, a, 1
    while power:
        _dual_add(out, power, coeff(j))
        power, j = _dual_mul(power, a), j + 1
    return out


# -- inner products -----------------------------------------------------------

# Near the admissibility bound c conj(f) g -> 1, so the log kernel's float
# base 1 - c w, with w = conj(f) g rounded, cancels.  Below this limit it is
# recomputed from the exact product and rounded once.  Against mpmath
# (tests/test_fock.py, rel. 1e-12) any limit from 2^-12 up passes; at 1/16 the
# float path errs by about 2e-15 there, and inputs with |f|^2 up to 0.81 of
# the bound keep it.
CANCELLATION_LIMIT = 1 / 16


def _log_base(c: int, w: tuple) -> complex:
    """log of the log kernel's base 1 - c w, with w = conj(f) g on one piece
    as ints (re, im, den).

    Where the float base cancelled it is recomputed from the exact w and
    rounded once; where even that rounds to 0 or a subnormal, log|base| and
    arg(base) are taken from its integer parts.
    """
    re, im, den = w
    base = 1 - c * complex(re / den, im / den)
    if abs(base) < CANCELLATION_LIMIT:
        re, im = den - c * re, -c * im
        base = complex(re / den, im / den)
        if abs(base) < sys.float_info.min:
            g = math.gcd(re, im, den)
            re, im, d = re // g, im // g, den // g
            m = max(abs(re), abs(im))
            return complex(math.log(re * re + im * im) / 2 - math.log(d),
                           math.atan2(im / m, re / m))
    return cmath.log(base)


def _to_complex(c: tuple, conjugate=False) -> complex:
    """A coefficient (re, im, den), or its conjugate, rounded to complex."""
    re, im, den = c
    return complex(re / den, (-im if conjugate else im) / den)


def exp_inner_product(n: int, f: StepFunction, g: StepFunction) -> complex:
    """<psi_n(f), psi_n(g)>, conjugate-linear in f: the jet pairing of
    psi_n(f) and psi_n(g), which have no directions."""
    return jet_inner_product(ExponentialVector(n, f), ExponentialVector(n, g))


def jet_inner_product(u, v) -> complex:
    """Pairing of two jets: a mixed partial of the closed-form kernel.

    Left directions differentiate the conjugated slot, right directions the
    linear slot; pairs of different Fock order return 0 (direct sum).  On
    each piece of the common refinement the constant part of the exponent
    uses the exact conj(f) g: for n = 1 it is summed exactly and rounded
    once, for n >= 2 each piece adds its float log term.  Directions add
    only nilpotent parts, and the value is exp(constant) times the mixed
    coefficient of exp(nilpotent).  A piece where conj(f) g = 0 adds nothing
    to the constant part, and one with no nilpotent part adds nothing to the
    rest, however long it is.  Raises DomainError when the length of a piece
    that does add or the value leaves the float range; an exponent below it
    gives 0.
    """
    if u.n != v.n:
        return 0j
    n, p, q = u.n, u.order, v.order
    if n >= 2:
        half, c = order_constants(n)
        gamma = 1 / half
    exact, exponent, nil = [], 0j, {}
    try:
        for a, b, coeffs in common_refinement([u.f, *u.directions, v.f, *v.directions]):
            cf, cg = coeffs[0], coeffs[1 + p]
            length, per = b[0] * a[1] - a[0] * b[1], a[1] * b[1]
            if cf is ZERO or cg is ZERO:
                # conj(f) g = 0 adds nothing to the exponent (log 1 = 0 for
                # n >= 2), however long the piece
                log_base = 0j
            else:
                (fr, fi, fd), (gr, gi, gd) = cf, cg
                w = (fr * gr + fi * gi, fr * gi - fi * gr, fd * gd)
                if n >= 2:
                    log_base = _log_base(c, w)
                    exponent += -gamma * (length / per) * log_base
                else:
                    exact.append((w[0] * length, w[1] * length, w[2] * per))
            if not p + q:
                continue
            left, right = coeffs[1 : 1 + p], coeffs[2 + p :]
            xy = _dual_mul(
                {0: _to_complex(cf, conjugate=True)}
                | {1 << i: _to_complex(d, conjugate=True) for i, d in enumerate(left)},
                {0: _to_complex(cg)} | {1 << (p + j): _to_complex(d) for j, d in enumerate(right)},
            )
            xy.pop(0, None)
            if not xy:  # no nilpotent part, however long the piece
                continue
            if n == 1:
                _dual_add(nil, xy, length / per)
            else:
                # log(1 - c xy) = log(base) + log(1 - (c / base) xy_nilpotent)
                k = c * cmath.exp(-log_base)
                scaled = {s: z for s, x in xy.items() if (z := x * k)}
                _dual_add(nil, _dual_series(scaled, lambda j: -1 / j), -gamma * (length / per))
        if n == 1:
            re, im, den = gaussian_sum(exact)
            exponent = complex(re / den, im / den)
        value = cmath.exp(exponent)
        if p + q:
            value *= _dual_series(nil, lambda j: 1 / math.factorial(j)).get((1 << (p + q)) - 1, 0j)
    except OverflowError:
        value = cmath.inf
    if not cmath.isfinite(value):
        raise DomainError("the inner product leaves the float range")
    return value


def pair(u, v) -> complex:
    """Sesquilinear extension of jet_inner_product to formal jet sums."""
    us, vs = _as_jetsum(u), _as_jetsum(v)
    total = 0j
    for ju, cu in us.terms.items():
        for jv, cv in vs.terms.items():
            w = (cu.conjugate() * cv).to_complex()
            if w:
                total += w * jet_inner_product(ju, jv)
    return total


@dataclass(frozen=True)
class GramReport:
    matrix: np.ndarray
    min_eigenvalue: float
    psd: bool


def gram_psd_check(n: int, fs, tol: float) -> GramReport:
    """Gram matrix of exponential vectors and its PSD verdict."""
    require_order(n)
    fs = list(fs)
    size = len(fs)
    m = np.zeros((size, size), dtype=complex)
    for i in range(size):
        for j in range(i, size):
            val = exp_inner_product(n, fs[i], fs[j])
            m[i, j] = val
            m[j, i] = val.conjugate()
    if size:
        min_eig = float(np.min(np.linalg.eigvalsh(m)))
    else:
        min_eig = 0.0
    return GramReport(matrix=m, min_eigenvalue=min_eig, psd=min_eig >= -tol)


# -- operator actions ---------------------------------------------------------


def apply_creator(n: int, f: StepFunction, v: ExponentialVector) -> ExponentialVector:
    """B[n,0](f): shift the exponential-vector argument along f (a 1-jet)."""
    if v.n != n:
        raise UnsupportedGeneratorError(f"creator of order {n} on a {v.n}-vector")
    if v.order >= 2:
        raise UnsupportedOrderError("creator on a jet of order 2 would exceed the cap")
    return ExponentialVector(n, v.f, v.directions + (f,))


def apply_annihilator(n: int, f: StepFunction, v: ExponentialVector) -> JetSum:
    """B[0,n](f) psi_n(g) = n (integral f g) psi_n(g)
    + (n^3(n-1)/2) d/de psi_n(g + e f g^2).

    On a 1-jet along d this is differentiated along d: the scalar integral
    adds n (integral f d) psi_n(g), and the curve adds the cross term 2 f d g.
    """
    if v.n != n:
        raise UnsupportedGeneratorError(f"annihilator of order {n} on a {v.n}-vector")
    if v.order > 1:
        raise UnsupportedOrderError("annihilator implemented on jets of order <= 1")
    g = v.f
    weight = ComplexRational(order_constants(n)[1])
    terms = [
        (v, (f * g).integral() * n),
        (ExponentialVector(n, g, v.directions + (f * g * g,)), weight),
    ]
    if v.order:
        (d,) = v.directions
        terms = [
            (ExponentialVector(n, g), (f * d).integral() * n),
            *terms,
            (ExponentialVector(n, g, ((f * d * g).scaled(2),)), weight),
        ]
    return JetSum(terms)


def apply_number(n: int, f: StepFunction, g: StepFunction, v: ExponentialVector) -> JetSum:
    """B[n-1,n-1](f g) on psi_n(h): the scalar part (1/n) integral(f g) times
    psi_n(h), plus n(n-1)/2 times the first-order jet of psi_n(h) along
    2 f g h.

    It is the weighted difference of two mixed second derivatives of psi_n,
    along the curves h + e g + r f h^2 + 2 e r f g h and h + e f h^2 + r g;
    their second-order jets agree, as mixed partials commute, and cancel.
    """
    if v.n != n:
        raise UnsupportedGeneratorError(f"number operator of order {n} on a {v.n}-vector")
    if v.order != 0:
        raise UnsupportedOrderError("number operator implemented on exponential vectors")
    h = v.f
    return JetSum(
        [
            (v, (f * g).integral() * Fraction(1, n)),
            (ExponentialVector(n, h, ((f * g * h).scaled(2),)), Fraction(order_constants(n)[0], n)),
        ]
    )


# -- generic representation via the commutator prescription -------------------


@dataclass(frozen=True, slots=True)
class GeneratorOp:
    """B[n,k](fn), applicable where (n,k) matches a representable primitive:
    the order-m creator (m,0), annihilator (0,m), number (m-1,m-1) or the
    central scalar (0,0)."""

    n: int
    k: int
    fn: StepFunction

    def apply(self, state) -> JetSum:
        return JetSum([
            (jet, c * coeff)
            for v, coeff in _as_jetsum(state).terms.items()
            for jet, c in self._apply_jet(v).terms.items()
        ])

    def _apply_jet(self, jet: ExponentialVector) -> JetSum:
        m = jet.n
        n, k = self.n, self.k
        if (n, k) == (0, 0):
            return JetSum.of(jet, self.fn.integral())
        if (n, k) == (m, 0):
            return JetSum.of(apply_creator(m, self.fn, jet))
        if (n, k) == (0, m):
            return apply_annihilator(m, self.fn, jet)
        if (n, k) == (m - 1, m - 1) and m >= 1:
            return apply_number(m, self.fn, self.fn.support_indicator(), jet)
        raise UnsupportedGeneratorError(
            f"B[{n},{k}] is not a representable primitive on the order-{m} space"
        )

    def __str__(self):
        return f"B[{self.n},{self.k}]({self.fn})"


@dataclass(frozen=True, slots=True)
class ScaledCommutatorOp:
    scale: ComplexRational
    left: GeneratorOp
    right: GeneratorOp

    def apply(self, state) -> JetSum:
        lr = self.left.apply(self.right.apply(state))
        rl = self.right.apply(self.left.apply(state))
        return (lr - rl).scaled(self.scale)

    def __str__(self):
        return f"({self.scale}) [{self.left}, {self.right}]"


def generic_rep_build(
    n: int, k: int, N: int, K: int, g: StepFunction, f: StepFunction
) -> ScaledCommutatorOp:
    """Represent B[n+N-1, k+K-1](g f) as (kN - Kn)^(-1) [B[n,k](g), B[N,K](f)].

    The factors must resolve to representable primitives on the space the
    result is applied to; kN - Kn = 0 makes the prescription inapplicable.
    """
    const, _ = bracket_index_and_constant(GeneratorIndex(RHPWN, n, k), GeneratorIndex(RHPWN, N, K))
    if const == 0:
        raise PrescriptionError(
            f"kN - Kn = 0 for (n,k,N,K) = ({n},{k},{N},{K}); prescription inapplicable"
        )
    scale = ComplexRational(Fraction(1, const))
    return ScaledCommutatorOp(scale, GeneratorOp(n, k, g), GeneratorOp(N, K, f))
