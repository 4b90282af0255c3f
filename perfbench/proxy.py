"""Rewrite-step and cost estimates for vacuum-moment words, independent of the engine.

Workload generators use it to pick words of a target cost without asking the
program under test, so a change to the engine never changes the inputs.  It
follows the recursion of the untruncated vacuum action on creator monomials
but tracks only which monomials occur, not their coefficients, and memoizes
the subtree size of each (n, k, function, monomial) call.

A test function is CHI (the symbolic chi_I) or a single interval with a
complex-rational coefficient, `(a, b, re, im)` of Fractions; the product of two
intervals is their intersection, or zero when it is empty.
"""

from __future__ import annotations

import bisect

CHI = "chi_I"
_ZERO = -1


class _Functions:
    """Interns test functions as small ints so memo keys hash quickly."""

    def __init__(self):
        self.fns = []
        self.ids = {}
        self.sort_keys = []
        self.products = {}

    def intern(self, fn) -> int:
        fid = self.ids.get(fn)
        if fid is None:
            fid = self.ids[fn] = len(self.fns)
            self.fns.append(fn)
            # The engine orders creators by (degree, function sort key).
            self.sort_keys.append((0, ()) if fn == CHI else (1, (fn,)))
        return fid

    def product(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        out = self.products.get(key)
        if out is None:
            f, g = self.fns[i], self.fns[j]
            if f == CHI and g == CHI:
                out = i
            else:
                a, b = max(f[0], g[0]), min(f[1], g[1])
                if a >= b:
                    out = _ZERO
                else:
                    re = f[2] * g[2] - f[3] * g[3]
                    im = f[2] * g[3] + f[3] * g[2]
                    out = self.intern((a, b, re, im))
            self.products[key] = out
        return out


# Engine work per coefficient-length unit of the two kinds of mu-polynomial
# sums, divided by the median work per rewrite step, so that `rewrite_cost`
# reads in rewrite steps.  Fitted once to the engine's Python call counts on
# 72 chi_I words of 800 to 6,300 steps: on held-out words the fit is off by
# 2% (standard deviation of the log ratio), and the step count by 16%.
_RECURSION_SUM, _STATE_SUM = 0.39, 0.70


def _estimate(factors):
    """(rewrite steps, cost) for the word [(n, k, fn), ...], leftmost first.

    The cost counts the coefficient sums the reduction does, each weighted by
    the length of its mu-polynomial: the sums that merge the branches of the
    recursion, and those that fold each result into the state.  A mu
    polynomial grows by one degree at each contraction of chi_I.
    """
    fns = _Functions()
    creators = []  # creator id -> (degree, function id)
    creator_ids = {}
    creator_keys = []  # creator id -> the engine's sort key for B[m,0](f)
    inserted = {}
    memo = {}

    def creator(m, fid):
        cid = creator_ids.get((m, fid))
        if cid is None:
            cid = creator_ids[(m, fid)] = len(creators)
            creators.append((m, fid))
            creator_keys.append((m, fns.sort_keys[fid]))
        return cid

    def insert(mono, cid):
        key = (mono, cid)
        out = inserted.get(key)
        if out is None:
            items = list(mono)
            bisect.insort(items, cid, key=creator_keys.__getitem__)
            out = inserted[key] = tuple(items)
        return out

    def contraction_degree(fid):
        return 1 if fns.fns[fid] == CHI else 0

    def apply(n, k, fid, mono):
        """(steps, weighted sums, {monomial: mu-degree}) of one application."""
        key = (n, k, fid, mono)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if fid == _ZERO or n < 0 or k < 0:
            out = (1, 0, {})
        elif n == 0 and k == 0:
            out = (1, 0, {mono: contraction_degree(fid)})
        elif k == 0:
            out = (1, 0, {insert(mono, creator(n, fid)): 0})
        elif not mono:
            if n < k:
                out = (1, 0, {})
            elif n == k:
                out = (1, 0, {(): contraction_degree(fid)})
            else:
                out = (1, 0, {(creator(n - k, fid),): 0})
        else:
            last = mono[-1]
            m, g = creators[last]
            rest = mono[:-1]
            s1, w1, direct = apply(n, k, fid, rest)
            s2, w2, bracket = apply(n + m - 1, k - 1, fns.product(fid, g), rest)
            degrees, sums = {}, 0
            for items in ({insert(x, last): d for x, d in direct.items()}, bracket):
                for x, d in items.items():
                    degrees[x] = max(degrees.get(x, 0), d)
                    sums += degrees[x] + 1
            out = (1 + s1 + s2, w1 + w2 + sums, degrees)
        memo[key] = out
        return out

    state = {(): 0}
    steps = recursion_sums = state_sums = 0
    for n, k, fn in reversed(factors):
        fid = fns.intern(fn)
        new = {}
        for mono, degree in state.items():
            s, w, outs = apply(n, k, fid, mono)
            steps += s
            recursion_sums += w
            for x, d in outs.items():
                new[x] = max(new.get(x, 0), degree + d)
                state_sums += degree + d + 1
        state = new
        if not state:
            break
    return steps, _RECURSION_SUM * recursion_sums + _STATE_SUM * state_sums


def rewrite_steps(factors) -> int:
    """Estimated rewrite steps for the word [(n, k, fn), ...], leftmost first."""
    return _estimate(factors)[0]


def rewrite_cost(factors) -> float:
    """Estimated engine work for the word, in rewrite steps of a typical word."""
    return _estimate(factors)[1]


def adjoint(factors):
    """Reverse the word, swap (n, k) and conjugate each coefficient."""
    return [
        (k, n, fn if fn == CHI else (fn[0], fn[1], fn[2], -fn[3]))
        for n, k, fn in reversed(factors)
    ]
