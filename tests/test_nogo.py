from fractions import Fraction

import pytest

from rhpwn.errors import OutOfScopeError
from rhpwn.mupoly import MU, MuPoly
from rhpwn.nogo import nogo_report
from rhpwn.rewrite import Word, vacuum_expectation


def test_threshold_values():
    assert nogo_report(3).threshold == 18
    assert nogo_report(4).threshold == 40
    assert nogo_report(5).threshold == 75


def test_closed_form_entries_and_minors():
    rep = nogo_report(3)
    (a11, a12), (a21, a22) = rep.entries
    assert a11 == MU.scaled(6)
    assert a12 == a21 == MU.scaled(54)
    assert a22 == (MU * MU).scaled(18) + MU.scaled(162)
    assert rep.d1 == a11
    # d2 = 2 n^3 mu^2 (2 mu - n^2 - n^3)
    assert rep.d2 == (MU**3).scaled(108) - (MU**2).scaled(1944)


def closed_form_entries(n):
    """The Gram entries of {B[2n,0] Phi, (B[n,0])^2 Phi}, written out by hand."""
    a11 = MU.scaled(2 * n)
    a12 = MU.scaled(2 * n**3)
    a22 = (MU * MU).scaled(2 * n * n) + MU.scaled(n**4 * (n - 1))
    return ((a11, a12), (a12, a22))


@pytest.mark.parametrize("n", range(3, 9))
def test_entries_match_engine(n):
    rep = nogo_report(n)
    assert rep.entries == closed_form_entries(n)
    words = {
        (0, 0): [(0, 2 * n), (2 * n, 0)],
        (0, 1): [(0, 2 * n), (n, 0), (n, 0)],
        (1, 1): [(0, n), (0, n), (n, 0), (n, 0)],
    }
    for (i, j), indices in words.items():
        assert rep.entries[i][j] == vacuum_expectation(Word.from_indices(indices))
    # d2 = 2 n^3 mu^2 (2 mu - n^2 - n^3)
    assert rep.d2 == (MU * MU * (MU.scaled(2) - MuPoly.constant(n * n + n**3))).scaled(2 * n**3)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sign_change_exactly_at_threshold(n):
    rep = nogo_report(n)
    thr = rep.threshold
    assert rep.d2.eval_exact(thr).is_zero
    below = rep.d2.eval_exact(thr - Fraction(1, 1000))
    above = rep.d2.eval_exact(thr + Fraction(1, 1000))
    assert below.re < 0 < above.re
    # the linear factor 2 mu - n^2 - n^3 has its only root at the threshold
    assert thr == Fraction(n * n + n**3, 2) == Fraction(n * n * (n + 1), 2)


def test_verdicts():
    assert nogo_report(3, mu=18).psd is True
    assert nogo_report(3, mu=1).psd is False
    d2_at_1 = nogo_report(3).d2.eval_exact(1)
    assert d2_at_1.re == -1836
    assert nogo_report(3, mu=Fraction(35, 2)).psd is False
    assert nogo_report(3).psd is None


def test_out_of_scope():
    with pytest.raises(OutOfScopeError):
        nogo_report(2)
    with pytest.raises(OutOfScopeError):
        nogo_report(3, mu=0)
