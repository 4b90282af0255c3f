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

Each reduction interns its test functions: a function gets an int id the
first time the reduction sees it, as a factor of the word or as a product.
Inside the reduction a creator is an (m, id) pair, and the action of
B[n,k](f) on a creator monomial is memoized on (n, k, id, monomial), a tuple
of ints, for as long as the reduction runs.  Products are keyed by the
unordered pair of ids, so f g and g f are one product and one id.  The step
count is the number of actions actually computed, so repeated
sub-reductions cost one dict lookup and no step.  The recursion commutes a
factor past the creator with the largest (m, id), so the step count depends
on the order in which the functions were first seen; the result does not.
It is returned with each monomial's creators in (m, sort key) order: the
ids that survive in the result are ranked once by the sort key of their
function, and each monomial is sorted by (m, rank).

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

from bisect import bisect_right
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
    """The order of the printed monomials."""
    return tuple((m, fn.sort_key()) for m, fn in mono)


def reduce_untruncated_with_stats(word: Word):
    """Normal form of `word` applied to Phi, plus the rewrite-step count.

    Each distinct test function gets an int id the first time the reduction
    sees it, so inside the recursion a monomial is a sorted tuple of
    (m, id) pairs and the memo keys on (n, k, id, monomial): tuples of ints.
    Each product is computed once per unordered pair of ids, so f g and g f
    share one product and one memo entry.  The step count is the memo's
    miss count, the distinct sub-reductions computed.  The rightmost
    creator of a monomial is the one with the largest (m, id), so the path
    the recursion takes, and with it the step count, depends on the order
    in which the functions were first seen; the state does not.  The memo's
    result dicts are shared and only ever read.
    """
    ids = {}  # test function -> id
    fns = []  # id -> test function
    products = {}  # (i, j) with i <= j -> id of fns[i] * fns[j]
    memo = {}  # (n, k, id, monomial) -> {monomial: MuPoly}

    def intern(fn):
        i = ids.get(fn)
        if i is None:
            i = ids[fn] = len(fns)
            fns.append(fn)
        return i

    def product(i, j):
        pair = (i, j) if i <= j else (j, i)
        p = products.get(pair)
        if p is None:
            p = products[pair] = intern(fns[pair[0]] * fns[pair[1]])
        return p

    def with_creator(mono, creator):
        at = bisect_right(mono, creator)
        return mono[:at] + (creator,) + mono[at:]

    def apply(n, k, i, mono):
        """Apply B[n,k](fns[i]) to one monomial; returns {monomial: MuPoly}."""
        key = (n, k, i, mono)
        out = memo.get(key)
        if out is not None:
            return out
        fn = fns[i]
        if fn.is_zero or n < 0 or k < 0:
            out = {}
        elif n == 0 and k == 0:
            # B[0,0](f) is central and acts as the scalar integral of f.
            out = {mono: fn.integral_mu()}
        elif k == 0:
            out = {with_creator(mono, (n, i)): MuPoly.one()}
        elif not mono:
            if n < k:
                out = {}
            elif n == k:
                out = {(): fn.integral_mu().scaled(Fraction(1, n + 1))}
            else:
                out = {((n - k, i),): MuPoly.one()}
        else:
            creator = mono[-1]
            m, j = creator
            rest = mono[:-1]
            out = {}
            # Direct term: slide the factor past the creator, then restore it.
            for mono2, coeff in apply(n, k, i, rest).items():
                key2 = with_creator(mono2, creator)
                out[key2] = out.get(key2, MuPoly.zero()) + coeff
            # Bracket term: [B[n,k], B[m,0]] = k m B[n+m-1, k-1](fn g).
            const = k * m
            for mono2, coeff in apply(n + m - 1, k - 1, product(i, j), rest).items():
                out[mono2] = out.get(mono2, MuPoly.zero()) + coeff.scaled(const)
        memo[key] = out
        return out

    terms = {(): MuPoly.one()}
    for idx, fn in reversed(tuple(word)):
        i = intern(fn)
        out = {}
        for mono, coeff in terms.items():
            for mono2, c2 in apply(idx.n, idx.k, i, mono).items():
                out[mono2] = out.get(mono2, MuPoly.zero()) + coeff * c2
        terms = {mono: c for mono, c in out.items() if not c.is_zero}
        if not terms:
            break
    steps = len(memo)
    memo.clear()  # the largest structure here: free it before the state is built
    # Rank the surviving ids by sort key, one key per function: ids are
    # value-distinct and the key tells distinct functions apart, so sorting
    # a monomial by (m, rank) sorts it by (m, sort key).
    ranked = sorted({i for mono in terms for _, i in mono}, key=lambda i: fns[i].sort_key())
    rank = {i: r for r, i in enumerate(ranked)}
    by_rank = [fns[i] for i in ranked]
    state = VacuumState({
        tuple((m, by_rank[r]) for m, r in sorted((m, rank[i]) for m, i in mono)): c
        for mono, c in terms.items()
    })
    return state, steps


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
