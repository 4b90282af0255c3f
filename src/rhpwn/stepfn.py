"""Step functions: the test-function class for every operator argument.

A step function is a finite sum sum_i c_i * chi_[a_i, b_i) with rational
endpoints and ComplexRational coefficients.  The class is closed under
pointwise product, sum and conjugation, which is exactly what the brackets
and kernels need.

Test functions must vanish at zero, so no piece may straddle the origin:
after canonicalization (sorting and merging touching pieces with equal
coefficients) an interval with a < 0 < b is rejected.  Endpoints at 0 are
fine; half-open boundary membership never affects a product, an integral or
a measure.

`CHI` is the symbolic indicator of the fixed reference interval I of
measure mu.  It supports the same product/conjugate/integral protocol, with
the integral returning the symbolic polynomial mu, and lets the rewrite
engine produce exact mu-polynomials for single-interval words.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TagMismatchError
from .mupoly import MuPoly
from .scalars import ComplexRational, QC_ZERO, fraction_str, parse_fraction


class StepFunction:
    """Immutable, canonical piecewise-constant function on the line."""

    __slots__ = ("pieces", "_hash")

    def __init__(self, pieces=()):
        cleaned = []
        for a, b, c in pieces:
            a = parse_fraction(a)
            b = parse_fraction(b)
            c = ComplexRational.coerce(c)
            if a >= b:
                raise ValueError(f"empty or reversed interval [{a}, {b})")
            if c.is_zero:
                continue
            cleaned.append((a, b, c))
        cleaned.sort(key=lambda p: (p[0], p[1]))
        merged = []
        for a, b, c in cleaned:
            if merged:
                pa, pb, pc = merged[-1]
                if a < pb:
                    raise ValueError(f"overlapping pieces at [{a}, {b})")
                if a == pb and c == pc:
                    merged[-1] = (pa, b, pc)
                    continue
            merged.append((a, b, c))
        for a, b, _ in merged:
            if a < 0 < b:
                raise ValueError(
                    f"piece [{a}, {b}) straddles 0; test functions vanish at zero"
                )
        object.__setattr__(self, "pieces", tuple(merged))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls()

    @classmethod
    def indicator(cls, a, b, coeff=1) -> "StepFunction":
        """coeff * chi_[a, b)."""
        return cls(((a, b, coeff),))

    # -- pointwise algebra ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, SymbolicIndicator):
            raise TagMismatchError("cannot mix symbolic chi_I with concrete step functions")
        if not isinstance(other, StepFunction):
            return NotImplemented
        out = []
        for a, b, cs in common_refinement([self, other]):
            out.append((a, b, cs[0] + cs[1]))
        return StepFunction(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        """Pointwise product; partitions are refined against each other."""
        if isinstance(other, SymbolicIndicator):
            raise TagMismatchError("cannot mix symbolic chi_I with concrete step functions")
        if not isinstance(other, StepFunction):
            return NotImplemented
        out = []
        for a, b, cs in common_refinement([self, other]):
            out.append((a, b, cs[0] * cs[1]))
        return StepFunction(out)

    def scaled(self, c) -> "StepFunction":
        c = ComplexRational.coerce(c)
        return StepFunction(tuple((a, b, pc * c) for a, b, pc in self.pieces))

    def conjugate(self) -> "StepFunction":
        return StepFunction(tuple((a, b, c.conjugate()) for a, b, c in self.pieces))

    def support_indicator(self) -> "StepFunction":
        """Indicator of the support (coefficient 1 on every piece)."""
        return StepFunction(tuple((a, b, 1) for a, b, _ in self.pieces))

    # -- measure and integral ---------------------------------------------

    def integral(self) -> ComplexRational:
        acc = ComplexRational(0)
        for a, b, c in self.pieces:
            acc = acc + c * (b - a)
        return acc

    def integral_mu(self) -> MuPoly:
        return MuPoly.constant(self.integral())

    def support_measure(self) -> Fraction:
        return sum((b - a for a, b, _ in self.pieces), Fraction(0))

    def max_abs_squared(self) -> Fraction:
        """sup_t |f(t)|^2, exact; 0 for the zero function."""
        return max((c.abs_squared() for _, _, c in self.pieces), default=Fraction(0))

    def value_at(self, t) -> ComplexRational:
        t = parse_fraction(t)
        for a, b, c in self.pieces:
            if a <= t < b:
                return c
        return ComplexRational(0)

    # -- protocol --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.pieces

    def sort_key(self):
        return (1, tuple((a, b, c.re, c.im) for a, b, c in self.pieces))

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self.pieces == other.pieces

    def __hash__(self):
        # Cached on first use: most step functions are never hashed, while
        # the rewrite memo hashes the same few over and over.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.pieces))
        return self._hash

    def __str__(self):
        if not self.pieces:
            return "0"
        return " + ".join(
            f"({c})*chi[{fraction_str(a)},{fraction_str(b)})" for a, b, c in self.pieces
        )

    __repr__ = __str__


class SymbolicIndicator:
    """chi_I for the fixed abstract interval I of measure mu.

    Closed under product and conjugation (both return chi_I itself); the
    integral is the symbolic measure mu.
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

    def __eq__(self, other):
        return isinstance(other, SymbolicIndicator)

    def __hash__(self):
        return hash("chi_I")

    def __str__(self):
        return "chi_I"

    __repr__ = __str__


CHI = SymbolicIndicator()


def common_refinement(fns) -> list:
    """Refine several step functions over one partition.

    Returns a list of (a, b, coeffs) with coeffs[i] the constant value of
    fns[i] on [a, b); segments where every function vanishes are dropped.

    One sweep over the sorted cut points, with a cursor into each
    function's sorted, non-overlapping pieces: O(P log P + P F) for P cut
    points and F functions.
    """
    cuts = set()
    for f in fns:
        for a, b, _ in f.pieces:
            cuts.add(a)
            cuts.add(b)
    points = sorted(cuts)
    pieces = [f.pieces for f in fns]
    cursors = [0] * len(pieces)
    out = []
    for a, b in zip(points, points[1:]):
        coeffs = []
        covered = False
        for i, ps in enumerate(pieces):
            j = cursors[i]
            while j < len(ps) and ps[j][1] <= a:
                j += 1
            cursors[i] = j
            if j < len(ps) and ps[j][0] <= a:
                coeffs.append(ps[j][2])
                covered = True
            else:
                coeffs.append(QC_ZERO)
        if covered:
            out.append((a, b, tuple(coeffs)))
    return out
