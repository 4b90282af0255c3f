"""Structure-constant algebra for the two star-Lie algebras.

RHPWN generators B[n,k](f) (n creation, k annihilation powers) obey

    [B[n,k](g), B[N,K](f)] = (kN - Kn) * B[n+N-1, k+K-1](g f)

with involution B[n,k](f)* = B[k,n](conj f).  The w-infinity family
Bw[n,k](f) (n >= 2 the conformal weight, k in Z the mode index) obeys

    [Bw[n,k](g), Bw[N,K](f)] = ((N-1)k - (n-1)K) * Bw[n+N-2, k+K](g f)

with involution Bw[n,k](f)* = Bw[n,-k](conj f); its n = N = 2 sector is the
centerless Virasoro algebra.  Everything here is exact: structure constants
are integers and coefficient functions are rational step functions.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

from .errors import IndexRangeError, TagMismatchError
from .stepfn import StepFunction

RHPWN = "RHPWN"
WINFTY = "WINFTY"

_TAGS = (RHPWN, WINFTY)


@dataclass(frozen=True)
class GeneratorIndex:
    """Index (n, k) of a generator, tagged with its algebra."""

    tag: str
    n: int
    k: int

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise TagMismatchError(f"unknown algebra tag {self.tag!r}")
        if self.tag == WINFTY and self.n < 2:
            raise IndexRangeError(f"w-infinity generators need n >= 2, got n={self.n}")

    @property
    def is_zero_generator(self) -> bool:
        """RHPWN indices with n < 0 or k < 0 denote the zero element."""
        return self.tag == RHPWN and (self.n < 0 or self.k < 0)

    def involuted(self) -> "GeneratorIndex":
        if self.tag == RHPWN:
            return GeneratorIndex(RHPWN, self.k, self.n)
        return GeneratorIndex(WINFTY, self.n, -self.k)

    def __str__(self):
        name = "B" if self.tag == RHPWN else "Bw"
        return f"{name}[{self.n},{self.k}]"


class AlgebraElement:
    """Finite linear combination of generators with step-function coefficients.

    Canonical form: zero coefficient functions and zero generators (invalid
    RHPWN indices) are dropped, so equality of elements is equality of the
    term maps.
    """

    __slots__ = ("tag", "terms")

    def __init__(self, tag: str, terms=None):
        if tag not in _TAGS:
            raise TagMismatchError(f"unknown algebra tag {tag!r}")
        canon = {}
        for idx, fn in (terms or {}).items():
            if idx.tag != tag:
                raise TagMismatchError(f"term {idx} does not belong to {tag}")
            if idx.is_zero_generator or fn.is_zero:
                continue
            canon[idx] = fn
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, tag: str = RHPWN) -> "AlgebraElement":
        return cls(tag)

    @classmethod
    def generator(cls, tag: str, n: int, k: int, fn: StepFunction) -> "AlgebraElement":
        return cls(tag, {GeneratorIndex(tag, n, k): fn})

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        # The zero element is shared between the algebras (its JSON form is
        # the empty list, which carries no tag).
        if not self.terms:
            return other
        if not other.terms:
            return self
        if other.tag != self.tag:
            raise TagMismatchError(f"cannot add {self.tag} and {other.tag} elements")
        terms = dict(self.terms)
        for idx, fn in other.terms.items():
            terms[idx] = terms[idx] + fn if idx in terms else fn
        return AlgebraElement(self.tag, terms)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c) -> "AlgebraElement":
        return AlgebraElement(
            self.tag, {idx: fn.scaled(c) for idx, fn in self.terms.items()}
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if not self.terms and not other.terms:
            return True
        return self.tag == other.tag and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda i: (i.n, i.k))
        return " + ".join(f"{idx}({self.terms[idx]})" for idx in keys)

    __repr__ = __str__


def bracket_index_and_constant(a: GeneratorIndex, b: GeneratorIndex):
    """Structure constant and resulting index for [a, b]; index may be invalid."""
    if a.tag != b.tag:
        raise TagMismatchError(f"bracket between {a.tag} and {b.tag}")
    if a.tag == RHPWN:
        const = a.k * b.n - b.k * a.n
        return const, (a.n + b.n - 1, a.k + b.k - 1)
    const = (b.n - 1) * a.k - (a.n - 1) * b.k
    return const, (a.n + b.n - 2, a.k + b.k)


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the bracket; coefficient functions multiply."""
    if a.tag != b.tag:
        raise TagMismatchError(f"cannot bracket {a.tag} with {b.tag}")
    terms = {}
    for ia, fa in a.terms.items():
        for ib, fb in b.terms.items():
            const, (n, k) = bracket_index_and_constant(ia, ib)
            if const == 0:
                continue
            idx = GeneratorIndex(a.tag, n, k)
            fn = (fa * fb).scaled(const)
            terms[idx] = terms[idx] + fn if idx in terms else fn
    return AlgebraElement(a.tag, terms)


def involution(a: AlgebraElement) -> AlgebraElement:
    """The star map: index involution plus conjugation of the coefficients."""
    return AlgebraElement(
        a.tag, {idx.involuted(): fn.conjugate() for idx, fn in a.terms.items()}
    )


# -- the order-n truncated calculus ------------------------------------------


@functools.cache
def order_constants(n: int):
    """The two integer constants of the order-n truncated calculus.

    Returns (half, c) with half = n^2(n-1)/2, the step of the kernel
    pi_{n,k} = k! n^k prod_{i<k} (mu + half i), and c = n half = n^3(n-1)/2,
    the Riccati coefficient of V' = 1 + c V^2.  Both are integers because
    n(n-1) is even.  Derived quantities: 2/(n^2(n-1)) = 1/half,
    2/(n^3(n-1)) = 1/c (the admissibility bound), sqrt(n^3(n-1)/2) =
    sqrt(c), n(n-1)/2 = half/n and k n(n-1) = 2 k half / n.
    """
    half = n * n * (n - 1) // 2
    return half, n * half


# -- Stirling numbers of the first kind and normal ordering -----------------


# Rows of the signed Stirling numbers of the first kind, grown on demand:
# s[n+1][k] = s[n][k-1] - n*s[n][k] with s[0][0] = 1.  A row is appended
# only once it is complete, so a reader never needs the lock.
_ROWS = [[1]]
_ROWS_LOCK = threading.Lock()


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k); cached."""
    if n < 0 or k < 0 or k > n:
        raise IndexRangeError(f"Stirling index (n={n}, k={k}) out of range")
    if n >= len(_ROWS):
        with _ROWS_LOCK:
            while len(_ROWS) <= n:
                m, prev = len(_ROWS) - 1, _ROWS[-1]
                _ROWS.append([above - m * right for above, right in zip([0] + prev, prev + [0])])
    return _ROWS[n][k]


def normal_order_expansion(n: int):
    """Expansion of (b+)^n b^n in powers of the number operator b+b.

    Returns the pairs (m, s(n, m)) with nonzero coefficient; the identity is
    (b+)^n b^n = N(N-1)...(N-n+1) with N = b+b, the falling factorial whose
    coefficients are the signed Stirling numbers of the first kind.
    """
    if n < 0:
        raise IndexRangeError(f"normal ordering needs n >= 0, got {n}")
    if n == 0:
        return [(0, 1)]
    return [(m, s) for m in range(n + 1) if (s := stirling_first(n, m)) != 0]
