"""Reduction of RHPWN words applied to the vacuum vector Phi.

Two modes.

Untruncated: the vacuum action is

    B[n,k](f) Phi = 0                          if n < k
                  = B[n-k,0](f) Phi            if n > k >= 0
                  = (1/(n+1)) (integral f) Phi if n == k

and a factor that is not a pure creator is commuted past the rightmost
creator with the bracket, branching into the commutator term.  The
annihilation degree of the pending factor strictly decreases along both
branches, so reduction terminates; the result is a linear combination of
creator monomials applied to Phi with mu-polynomial coefficients.

Each reduction memoizes the action of B[n,k](f) on a creator monomial, keyed
on (n, k, f, monomial), for as long as the reduction runs.  Its step count
is the number of such actions actually computed, so repeated sub-reductions
cost one dict lookup and no step.

Truncated (order n >= 1): states live in the number-vector basis
{(B[n,0])^k Phi} and only the three generators of the order-n algebra act:

    B[n,0]          raises k by one,
    B[0,n]          B[0,n] (B[n,0])^k Phi
                        = n k (mu + (k-1) n^2 (n-1)/2) (B[n,0])^(k-1) Phi,
    B[n-1,n-1]      eigenvector rule, eigenvalue mu/n + k n (n-1).

Truncated words use the symbolic single-interval indicator chi_I; any other
factor is rejected rather than guessed.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from .algebra import RHPWN, GeneratorIndex, order_constants
from .errors import UnsupportedGeneratorError
from .mupoly import MuPoly
from .stepfn import CHI, SymbolicIndicator


class Word:
    """Ordered product of RHPWN factors; the rightmost factor acts first."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        factors = tuple(factors)
        for idx, _fn in factors:
            if idx.tag != RHPWN:
                raise UnsupportedGeneratorError(
                    f"words are RHPWN-only, got {idx}"
                )
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def from_indices(cls, indices, fn=CHI) -> "Word":
        """Single-interval convenience: all factors share one test function."""
        return cls(tuple((GeneratorIndex(RHPWN, n, k), fn) for n, k in indices))

    def adjoint(self) -> "Word":
        """Reverse the factor order and star each factor."""
        return Word(
            tuple(
                (idx.involuted(), fn.conjugate())
                for idx, fn in reversed(self.factors)
            )
        )

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return " ".join(f"{idx}({fn})" for idx, fn in self.factors)

    __repr__ = __str__


class VacuumState:
    """Linear combination of creator monomials applied to Phi.

    A monomial is a sorted tuple of (m, fn) pairs, each a creator B[m,0](fn)
    with m >= 1; the empty tuple is Phi itself.  Coefficients are MuPoly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canon = {}
        for mono, coeff in (terms or {}).items():
            if not coeff.is_zero:
                canon[mono] = coeff
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("VacuumState is immutable")

    @classmethod
    def vacuum(cls) -> "VacuumState":
        return cls({(): MuPoly.one()})

    def coefficient(self, mono) -> MuPoly:
        return self.terms.get(tuple(mono), MuPoly.zero())

    @property
    def phi_coefficient(self) -> MuPoly:
        return self.terms.get((), MuPoly.zero())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, VacuumState):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            body = " ".join(f"B[{m},0]({fn})" for m, fn in mono) or "Phi"
            if body != "Phi":
                body += " Phi"
            parts.append(f"({self.terms[mono]}) {body}")
        return " + ".join(parts)

    __repr__ = __str__


def _mono_sort_key(mono):
    return tuple((m, fn.sort_key()) for m, fn in mono)


def _insert_creator(mono, m, fn):
    out = list(mono)
    out.append((m, fn))
    out.sort(key=lambda p: (p[0], p[1].sort_key()))
    return tuple(out)


def reduce_untruncated_with_stats(word: Word):
    """Normal form of `word` applied to Phi, plus the rewrite-step count.

    The step count is the memo's miss count: the distinct sub-reductions
    computed.  The memo's result dicts are shared and only ever read.  Each
    product fn * g is also computed once, so equal products are one object.
    """
    product = functools.cache(operator.mul)

    @functools.cache
    def apply(n, k, fn, mono):
        """Apply B[n,k](fn) to one creator monomial; returns {monomial: MuPoly}."""
        if fn.is_zero or n < 0 or k < 0:
            return {}
        if n == 0 and k == 0:
            # B[0,0](f) is central and acts as the scalar integral of f.
            return {mono: fn.integral_mu()}
        if k == 0:
            return {_insert_creator(mono, n, fn): MuPoly.one()}
        if not mono:
            if n < k:
                return {}
            if n == k:
                return {(): fn.integral_mu().scaled(Fraction(1, n + 1))}
            return {((n - k, fn),): MuPoly.one()}
        m, g = mono[-1]
        rest = mono[:-1]
        out = {}
        # Direct term: slide the factor past the creator, then restore it.
        for mono2, coeff in apply(n, k, fn, rest).items():
            key = _insert_creator(mono2, m, g)
            out[key] = out.get(key, MuPoly.zero()) + coeff
        # Bracket term: [B[n,k], B[m,0]] = k m B[n+m-1, k-1](fn g).
        const = k * m
        for mono2, coeff in apply(n + m - 1, k - 1, product(fn, g), rest).items():
            out[mono2] = out.get(mono2, MuPoly.zero()) + coeff.scaled(const)
        return out

    terms = {(): MuPoly.one()}
    for idx, fn in reversed(tuple(word)):
        out = {}
        for mono, coeff in terms.items():
            for mono2, c2 in apply(idx.n, idx.k, fn, mono).items():
                out[mono2] = out.get(mono2, MuPoly.zero()) + coeff * c2
        terms = {mono: c for mono, c in out.items() if not c.is_zero}
        if not terms:
            break
    steps = apply.cache_info().misses
    apply.cache_clear()  # `apply` refers to itself: free the memo now, not at GC
    product.cache_clear()
    return VacuumState(terms), steps


def reduce_untruncated(word: Word) -> VacuumState:
    return reduce_untruncated_with_stats(word)[0]


def vacuum_expectation(word: Word) -> MuPoly:
    """<Phi, word Phi>: the Phi coefficient of the normal form.

    Nonempty creator monomials pair to zero against Phi because annihilators
    kill the vacuum and creators are their adjoints.
    """
    return reduce_untruncated(word).phi_coefficient


# -- truncated mode ----------------------------------------------------------


def reduce_truncated(n: int, word: Word, state=((0, MuPoly.one()),)):
    """Reduce a word over {B[n,0], B[0,n], B[n-1,n-1]} in the number basis.

    The word acts on `state`, given as (k, coefficient) pairs for the
    expansion in {(B[n,0])^k Phi} and Phi by default.  Returns the sorted
    list of (k, coefficient) of the result, in the same shape.  Factors
    outside the order-n generator set, or with a concrete (non-symbolic)
    test function, are rejected: the truncated action is defined only there.
    """
    if n < 1:
        raise UnsupportedGeneratorError(f"truncated order must be >= 1, got {n}")
    creator, annihilator, number = (n, 0), (0, n), (n - 1, n - 1)
    half, _ = order_constants(n)
    state = dict(state)
    for idx, fn in reversed(tuple(word)):
        if not isinstance(fn, SymbolicIndicator):
            raise UnsupportedGeneratorError(
                f"truncated reduction is single-interval (chi_I) only, got {fn}"
            )
        pair = (idx.n, idx.k)
        new = {}
        if pair == creator:
            for k, c in state.items():
                new[k + 1] = new.get(k + 1, MuPoly.zero()) + c
        elif pair == annihilator:
            for k, c in state.items():
                if k == 0:
                    continue
                eig = (MuPoly.mu() + half * (k - 1)).scaled(n * k)
                new[k - 1] = new.get(k - 1, MuPoly.zero()) + c * eig
        elif pair == number:
            for k, c in state.items():
                eig = MuPoly.mu().scaled(Fraction(1, n)) + MuPoly.constant(
                    2 * k * half // n
                )
                new[k] = new.get(k, MuPoly.zero()) + c * eig
        else:
            raise UnsupportedGeneratorError(
                f"{idx} is outside the order-{n} truncated generator set"
            )
        state = {k: c for k, c in new.items() if not c.is_zero}
        if not state:
            break
    return sorted(state.items())
