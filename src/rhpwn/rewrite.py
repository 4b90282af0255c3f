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

from fractions import Fraction

from .algebra import RHPWN, GeneratorIndex
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


class _Reducer:
    """Recursive normal-form computation, memoized, with a step counter.

    The memo lives as long as the reducer, i.e. one reduction.  Its result
    dicts are shared between callers and are only ever read.
    """

    def __init__(self):
        self.steps = 0
        self.memo = {}

    def apply_generator(self, n, k, fn, mono):
        """Apply B[n,k](fn) to one creator monomial; returns {monomial: MuPoly}."""
        key = (n, k, fn, mono)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self._expand(n, k, fn, mono)
        return out

    def _expand(self, n, k, fn, mono):
        self.steps += 1
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
        for mono2, coeff in self.apply_generator(n, k, fn, rest).items():
            key = _insert_creator(mono2, m, g)
            out[key] = out.get(key, MuPoly.zero()) + coeff
        # Bracket term: [B[n,k], B[m,0]] = k m B[n+m-1, k-1](fn g).
        const = k * m
        for mono2, coeff in self.apply_generator(n + m - 1, k - 1, fn * g, rest).items():
            out[mono2] = out.get(mono2, MuPoly.zero()) + coeff.scaled(const)
        return out

    def apply_to_state(self, n, k, fn, state_terms):
        out = {}
        for mono, coeff in state_terms.items():
            for mono2, c2 in self.apply_generator(n, k, fn, mono).items():
                prev = out.get(mono2, MuPoly.zero())
                out[mono2] = prev + coeff * c2
        return {mono: c for mono, c in out.items() if not c.is_zero}


def reduce_untruncated_with_stats(word: Word):
    """Normal form of `word` applied to Phi, plus the rewrite-step count.

    The step count is the number of distinct sub-reductions B[n,k](f) applied
    to a creator monomial that were actually computed; repeats are served
    from the reduction's memo and not counted.
    """
    reducer = _Reducer()
    terms = {(): MuPoly.one()}
    for idx, fn in reversed(tuple(word)):
        terms = reducer.apply_to_state(idx.n, idx.k, fn, terms)
        if not terms:
            break
    return VacuumState(terms), reducer.steps


def reduce_untruncated(word: Word) -> VacuumState:
    state, _ = reduce_untruncated_with_stats(word)
    return state


def step_bound(word: Word) -> int:
    """Coarse rewrite-step bound: L * (L+1)^(sum of (k_i + 1)) + 1.

    Applying one factor with annihilation degree k to a monomial of j
    creators costs at most (j+1)^(k+1) recursive steps, and monomial length
    never exceeds the word length.
    """
    length = len(word)
    exponent = sum(idx.k + 1 for idx, _ in word)
    return length * (length + 1) ** exponent + 1


def vacuum_expectation(word: Word) -> MuPoly:
    """<Phi, word Phi>: the Phi coefficient of the normal form.

    Nonempty creator monomials pair to zero against Phi because annihilators
    kill the vacuum and creators are their adjoints.
    """
    return reduce_untruncated(word).phi_coefficient


# -- truncated mode ----------------------------------------------------------


def _truncated_rules(n: int):
    creator = (n, 0)
    annihilator = (0, n)
    number = (n - 1, n - 1)
    return creator, annihilator, number


def reduce_truncated(n: int, word: Word):
    """Reduce a word over {B[n,0], B[0,n], B[n-1,n-1]} in the number basis.

    Returns the sorted list of (k, coefficient) for the expansion in
    {(B[n,0])^k Phi}.  Factors outside the order-n generator set, or with a
    concrete (non-symbolic) test function, are rejected: the truncated action
    is defined only there.
    """
    if n < 1:
        raise UnsupportedGeneratorError(f"truncated order must be >= 1, got {n}")
    creator, annihilator, number = _truncated_rules(n)
    state = {0: MuPoly.one()}
    half = Fraction(n * n * (n - 1), 2)
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
                    k * n * (n - 1)
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


def kernel_bruteforce(n: int, k: int) -> MuPoly:
    """<(B[n,0])^k Phi, (B[n,0])^k Phi> by k truncated annihilations."""
    if n < 1 or k < 0:
        raise UnsupportedGeneratorError(f"kernel needs n >= 1, k >= 0, got ({n}, {k})")
    word = Word.from_indices([(0, n)] * k + [(n, 0)] * k)
    for basis_k, coeff in reduce_truncated(n, word):
        if basis_k == 0:
            return coeff
    return MuPoly.zero()


def state_in_number_basis(n: int, state: VacuumState):
    """Rewrite an untruncated result in the {(B[n,0])^k Phi} basis.

    Raises ValueError if some monomial is not a pure power of B[n,0](chi_I);
    for orders n <= 2 that never happens for words over the order-n set.
    """
    out = {}
    for mono, coeff in state.terms.items():
        for m, fn in mono:
            if m != n or fn != CHI:
                raise ValueError(f"monomial {mono} is not a power of B[{n},0](chi_I)")
        out[len(mono)] = out.get(len(mono), MuPoly.zero()) + coeff
    return sorted((k, c) for k, c in out.items() if not c.is_zero)
