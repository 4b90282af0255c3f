"""The Fock-representation obstruction for the order-n algebras, n >= 3.

Without truncation, the Gram matrix of the pair {B[2n,0] Phi, (B[n,0])^2 Phi}
is

    A = [[ 2 n mu,            2 n^3 mu                        ],
         [ 2 n^3 mu,          2 n^2 mu^2 + n^4 (n-1) mu       ]]

whose determinant 2 n^3 mu^2 (2 mu - n^2 - n^3) is negative exactly when
mu < n^2 (n+1) / 2: positivity fails on small intervals, so no Fock
representation exists on arbitrarily small supports.  The entries are the
rewrite engine's vacuum moments of the three words; the closed forms above
are the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import OutOfScopeError
from .mupoly import MuPoly
from .rewrite import Word, vacuum_expectation
from .scalars import parse_fraction


@dataclass(frozen=True)
class NoGoReport:
    n: int
    entries: tuple  # 2x2 of MuPoly, symmetric
    d1: MuPoly  # top-left minor
    d2: MuPoly  # determinant
    threshold: Fraction  # PSD iff mu >= threshold
    mu: Optional[Fraction] = None
    psd: Optional[bool] = None


def _moment(indices) -> MuPoly:
    return vacuum_expectation(Word.from_indices(indices))


def nogo_report(n: int, mu=None) -> NoGoReport:
    """Gram matrix, minors and measure threshold for order n >= 3.

    With a numeric mu the verdict is an exact rational comparison; the
    boundary mu = n^2(n+1)/2 counts as positive semidefinite (the minor
    vanishes there).
    """
    if n < 3:
        raise OutOfScopeError(f"the obstruction concerns n >= 3, got n={n}")
    a11 = _moment([(0, 2 * n), (2 * n, 0)])
    a12 = _moment([(0, 2 * n), (n, 0), (n, 0)])
    a22 = _moment([(0, n), (0, n), (n, 0), (n, 0)])
    d1 = a11
    d2 = a11 * a22 - a12 * a12
    threshold = Fraction(n * n * (n + 1), 2)

    verdict = None
    mu_frac = None
    if mu is not None:
        mu_frac = parse_fraction(mu)
        if mu_frac <= 0:
            raise OutOfScopeError(f"the interval measure must be positive, got {mu_frac}")
        verdict = mu_frac >= threshold
    return NoGoReport(
        n=n,
        entries=((a11, a12), (a12, a22)),
        d1=d1,
        d2=d2,
        threshold=threshold,
        mu=mu_frac,
        psd=verdict,
    )
