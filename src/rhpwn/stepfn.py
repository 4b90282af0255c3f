"""Step functions: the test-function class for every operator argument.

A step function is a finite sum sum_i c_i * chi_[a_i, b_i) with rational
endpoints and ComplexRational coefficients, with pointwise sum, product and
conjugation, which is what the brackets and kernels need.

Each piece is stored as reduced Python ints, a row

    ((an, ad), (bn, bd), (re, im, den))  for  (re + im i)/den on [an/ad, bn/bd),

every denominator positive and every ratio in lowest terms (for the
coefficient, gcd(re, im, den) = 1), so equal functions have equal rows.
Each piece keeps its own denominators: over one common denominator per
function, the numerators of a many-piece function would grow with every
coprime denominator in it.  The rows are all a function holds: `pieces`,
the read-only public view as (Fraction, Fraction, ComplexRational), the
hash and the sort key are built from them on each use.

Test functions vanish at zero, so 0 is a cut point of every one of them: a
nonzero input piece with a < 0 < b is refused, and canonicalization (sorting
and merging touching pieces with equal coefficients) never merges across 0.
Endpoints at 0 are fine; half-open boundary membership never affects a
product or an integral.  A sum or product only refines its operands, so it
never refuses: chi_[-1,0) + chi_[0,1) is the two pieces [-1,0) and [0,1).

`CHI` is the symbolic indicator of the fixed reference interval I of
measure mu.  It supports the same product/conjugate/integral protocol, with
the integral returning the symbolic polynomial mu, and lets the rewrite
engine produce exact mu-polynomials for single-interval words.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import EmptyIntervalError, TagMismatchError
from .mupoly import MuPoly
from .scalars import ComplexRational, from_gaussian, gaussian, gaussian_sum, rational_str, read_rational

# The coefficient of a refinement segment where a function vanishes.
ZERO = (0, 0, 1)
_ONE = (1, 0, 1)


def _reduced(re, im, den):
    g = gcd(re, im, den)
    return (re, im, den) if g == 1 else (re // g, im // g, den // g)


def _add(x, y):
    if x is ZERO:
        return y
    if y is ZERO:
        return x
    xr, xi, xd = x
    yr, yi, yd = y
    if xd == yd:
        re, im, den = xr + yr, xi + yi, xd
    else:
        re, im, den = xr * yd + yr * xd, xi * yd + yi * xd, xd * yd
    return _reduced(re, im, den)


def _sub(x, y):
    return x if y is ZERO else _add(x, (-y[0], -y[1], y[2]))


def _mul(x, y):
    if x is ZERO or y is ZERO:
        return ZERO
    xr, xi, xd = x
    yr, yi, yd = y
    if xi or yi:
        re, im = xr * yr - xi * yi, xr * yi + xi * yr
    else:
        re, im = xr * yr, 0
    return _reduced(re, im, xd * yd)


def _interval(a, b) -> str:
    return f"[{rational_str(*a)}, {rational_str(*b)})"


def _validated(rows) -> tuple:
    """Canonical rows from rows in any order: the one check of every input.

    Each row is checked as it is read for an empty or reversed interval
    (EmptyIntervalError); once all are read, a nonzero piece straddling 0 and
    then overlapping nonzero pieces raise ValueError.  Zero pieces are dropped.
    """
    kept = []
    for a, b, c in rows:
        if a[0] * b[1] >= b[0] * a[1]:
            raise EmptyIntervalError(_interval(a, b))
        if c[0] or c[1]:
            kept.append((a, b, c))
    for a, b, _ in kept:
        if a[0] < 0 < b[0]:
            raise ValueError(f"piece {_interval(a, b)} straddles 0; test functions vanish at zero")
    (keyed,), points = _keyed([kept])
    keyed.sort(key=lambda k: (k[0], k[1]))
    for (_, pb, _), (a, b, _) in zip(keyed, keyed[1:]):
        if a < pb:
            raise ValueError(f"overlapping pieces at {_interval(points[a], points[b])}")
    return _merged((points[a], points[b], c) for a, b, c in keyed)


def _merged(rows) -> tuple:
    """Canonical rows from sorted, disjoint ones: zero rows are dropped and
    touching neighbours with equal coefficients merge, except at 0."""
    out = []
    for a, b, c in rows:
        if not (c[0] or c[1]):
            continue
        if out:
            pa, pb, pc = out[-1]
            if pb == a and a[0] and pc == c:
                out[-1] = (pa, b, c)
                continue
        out.append((a, b, c))
    return tuple(out)


class StepFunction:
    """Immutable, canonical piecewise-constant function on the line."""

    __slots__ = ("rows",)

    def __init__(self, pieces=()):
        _set_rows(self, _validated(
            (read_rational(a), read_rational(b), gaussian(c)) for a, b, c in pieces
        ))

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "StepFunction":
        """The function of int rows in any order, each ratio in lowest terms;
        checked as `StepFunction(pieces)` checks its pieces."""
        return _make(_validated(rows))

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls()

    @classmethod
    def indicator(cls, a, b, coeff=1) -> "StepFunction":
        """coeff * chi_[a, b)."""
        return cls(((a, b, coeff),))

    # -- pointwise algebra ----------------------------------------------

    def _pointwise(self, other, op):
        if isinstance(other, SymbolicIndicator):
            raise TagMismatchError("cannot mix symbolic chi_I with concrete step functions")
        if not isinstance(other, StepFunction):
            return NotImplemented
        return _make(_merged(
            (a, b, op(cf, cg)) for a, b, (cf, cg) in common_refinement([self, other])
        ))

    def __add__(self, other):
        return self._pointwise(other, _add)

    def __sub__(self, other):
        return self._pointwise(other, _sub)

    def __mul__(self, other):
        """Pointwise product; partitions are refined against each other."""
        return self._pointwise(other, _mul)

    def scaled(self, c) -> "StepFunction":
        c = gaussian(c)
        if not (c[0] or c[1]):
            return _make(())
        return _make(tuple((a, b, _mul(pc, c)) for a, b, pc in self.rows))

    def conjugate(self) -> "StepFunction":
        return _make(tuple((a, b, (re, -im, den)) for a, b, (re, im, den) in self.rows))

    def support_indicator(self) -> "StepFunction":
        """Indicator of the support (coefficient 1 on every piece)."""
        return _make(_merged((a, b, _ONE) for a, b, _ in self.rows))

    # -- measure and integral ---------------------------------------------

    def integral(self) -> ComplexRational:
        terms = []
        for (an, ad), (bn, bd), (re, im, den) in self.rows:
            length = bn * ad - an * bd
            terms.append((re * length, im * length, den * ad * bd))
        return from_gaussian(*gaussian_sum(terms))

    def integral_mu(self) -> MuPoly:
        return MuPoly.constant(self.integral())

    # -- protocol --------------------------------------------------------

    @property
    def pieces(self) -> tuple:
        """The pieces as (a, b, c): Fraction endpoints and a ComplexRational
        coefficient with int parts where they are integral."""
        return tuple((Fraction(*a), Fraction(*b), from_gaussian(*c)) for a, b, c in self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def sort_key(self):
        """Orders functions piece by piece on the values (a, b, re, im), each
        after `CHI`, whose key is (0, ()); distinct functions have distinct
        keys."""
        return (1, tuple(
            (Fraction(*a), Fraction(*b), Fraction(re, den), Fraction(im, den))
            for a, b, (re, im, den) in self.rows
        ))

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        if not self.rows:
            return "0"
        return " + ".join(f"({c})*chi[{a},{b})" for a, b, c in self.pieces)

    __repr__ = __str__


# The slot setter: `__setattr__` refuses every write from outside the module.
_new = object.__new__
_set_rows = StepFunction.rows.__set__


def _make(rows) -> StepFunction:
    """A StepFunction from rows already in canonical form."""
    fn = _new(StepFunction)
    _set_rows(fn, rows)
    return fn


class SymbolicIndicator:
    """chi_I for the fixed abstract interval I of measure mu.

    Closed under product and conjugation (both return chi_I itself); the
    integral is the symbolic measure mu.  `CHI` is the only instance, so
    equality and hashing are the default identity ones, done in C.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, SymbolicIndicator):
            return self
        raise TagMismatchError("cannot mix symbolic chi_I with concrete step functions")

    def conjugate(self) -> "SymbolicIndicator":
        return self

    def integral_mu(self) -> MuPoly:
        return MuPoly.mu()

    @property
    def is_zero(self) -> bool:
        return False

    def sort_key(self):
        return (0, ())

    def __str__(self):
        return "chi_I"

    __repr__ = __str__


CHI = SymbolicIndicator()


def _keyed_by(row_lists, key):
    """Each list of rows as (key(a), key(b), c), and every cut point by its
    key; None when two different cut points share a key."""
    points = {}
    keyed = []
    for rows in row_lists:
        ks = []
        for a, b, c in rows:
            ka, kb = key(a), key(b)
            if points.setdefault(ka, a) != a or points.setdefault(kb, b) != b:
                return None
            ks.append((ka, kb, c))
        keyed.append(ks)
    return keyed, points


def _keyed(row_lists):
    """`_keyed_by` with keys that order the cut points exactly.

    The key is the correctly rounded float num / den: rounding never reverses
    two values, so while no two cut points share a float the floats order
    them.  When two do, or one leaves the float range, the key is the
    Fraction.  (Ints over the lcm of the denominators would be exact too, but
    with many coprime denominators every key is as long as that lcm.)
    """
    try:
        keyed = _keyed_by(row_lists, lambda p: p[0] / p[1])
    except OverflowError:
        keyed = None
    return keyed or _keyed_by(row_lists, lambda p: Fraction(*p))


def common_refinement(fns) -> list:
    """Refine several step functions over one partition.

    Returns a list of (a, b, coeffs): a and b are (num, den) int pairs and
    coeffs[i] is the (re, im, den) of fns[i] on [a, b), `ZERO` where it
    vanishes; segments where every function vanishes are dropped.

    One sweep over the sorted cut points, with a cursor into each
    function's sorted, non-overlapping pieces: O(P log P + P F) for P cut
    points and F functions.
    """
    keyed, points = _keyed([f.rows for f in fns])
    keys = sorted(points)
    cursors = [0] * len(keyed)
    out = []
    for ka, kb in zip(keys, keys[1:]):
        coeffs = []
        covered = False
        for i, ks in enumerate(keyed):
            j = cursors[i]
            while j < len(ks) and ks[j][1] <= ka:
                j += 1
            cursors[i] = j
            if j < len(ks) and ks[j][0] <= ka:
                coeffs.append(ks[j][2])
                covered = True
            else:
                coeffs.append(ZERO)
        if covered:
            out.append((points[ka], points[kb], tuple(coeffs)))
    return out
