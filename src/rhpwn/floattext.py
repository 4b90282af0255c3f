"""The array writer of `jsonio.float_text`, for every chunk of a float table.

For finite nonzero x, "%.17g" writes the integer D nearest x·10^(16-E), ties
to even, where E is the decimal exponent that puts D in [10^16, 10^17): in
the fixed form when -4 <= E < 17, else as d.ddd...e±XX, with trailing
fraction zeros removed.  `float_slots` takes x·10^(16-E) as a double-double
product, within 1e-14 of the exact value, and leaves to `float_text` each
element it cannot settle: 0, ±inf and NaN, a fraction within _TIE_GUARD of
one half, and a product still outside the decade after two corrections of
E.  (The product of 1e20 at E = 20 lands 5.6e-17 under 10^16, and at E = 19
it rounds up to 10^17.)

A text is written into a slot of _SLOT bytes, with NULs where it has no
character: 0 the sign, 1..5 the "0.000" of -4 <= E < 0, 11 the first digit
and 12..27 the other sixteen, with trailing zeros as NULs, then the
exponent.  A point after digit q takes column 12 + q and moves the digits
after it one column on.  `rows_text` lays the slots out between the row's
fixed text and drops the NULs with one mask.

`jsonio.FloatRows.chunks` sends here every chunk of a table, the last,
shorter one included, and imports this module at the first one, so a
process that writes none neither imports it nor builds its tables.  The
tables are built here with integer arithmetic, as whole arrays but for the
big-integer powers of ten.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .jsonio import float_text

_POW10_LOW, _POW10_HIGH = -300, 350  # the k of 10^k: 16 - E for every float's E, ± 2
_EXP_LOW, _EXP_HIGH = -330, 330  # E for every float, ± 2
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
_TIE_GUARD = 1e-6
_P16, _P17 = 10**16, 10**17
_SLOT = 36


def _powers_of_ten():
    """shift, and hi, hi_hi, hi_lo, lo as the rows of one array: 10^k =
    (hi + lo)·2^shift at index k - _POW10_LOW, with hi in [1, 2] and hi + lo
    within 2^-105 of 10^k·2^-shift; hi_hi + hi_lo is hi split by Dekker's
    rule."""
    tens = list(accumulate(repeat(10, max(-_POW10_LOW, _POW10_HIGH)), mul, initial=1))
    down, up = tens[-_POW10_LOW:0:-1], tens[:_POW10_HIGH + 1]  # 10^-k for k < 0, 10^k for k >= 0
    shift = [-t.bit_length() for t in down] + [t.bit_length() - 1 for t in up]
    # m = floor(10^k·2^(109 - shift)), 110 bits, and its top 53 bits rounded
    m = [(1 << (109 - s)) // t for t, s in zip(down, shift)]
    m += [(t << 109) >> s for t, s in zip(up, shift[len(down):])]
    top = [(x + (1 << 56)) >> 57 for x in m]
    hi = np.array(top, np.float64) / 2.0**52
    lo = np.array([x - (t << 57) for x, t in zip(m, top)], np.int64) / 2.0**109
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    return np.array(shift, np.intc), np.stack([hi, hi_hi, hi - hi_hi, lo])


def _digit_groups():
    """Four bytes as a uint32 per index: for i < 10^4 the digits of i, at
    10^4 + i the same with trailing zeros as NULs, at 20000 + d the digit d
    after three NULs, at 20010 four NULs."""
    place = np.indices((10,) * 4, np.uint8).reshape(4, 10000)
    kept = place != 0  # then: a digit that is not among the trailing zeros
    for j in (2, 1, 0):
        kept[j] |= kept[j + 1]
    lead = np.zeros((4, 11), np.uint8)
    lead[3, :10] = np.arange(48, 58)
    groups = np.concatenate([place + 48, (place + 48) * kept, lead], axis=1)
    return np.ascontiguousarray(groups.T).view(np.uint32).ravel()


def _point_masks():
    """Byte masks of a slot with no point (row 0) or a point after digit q
    (row q + 1): the digits that stay, and the digits moved one column on."""
    column = np.arange(_SLOT)
    q = np.arange(-1, 16)[:, None]
    keep = (q < 0) | (column <= 11 + q)
    moved = (q >= 0) & (column >= 13 + q)
    return keep.astype(np.uint8) * 255, moved.astype(np.uint8) * 255


def _marks():
    """The slot's characters other than digits, at ((E - _EXP_LOW)·2 +
    point)·2 + sign, where point says that a point follows the integer part."""
    e = np.arange(_EXP_LOW, _EXP_HIGH + 1)
    marks = np.zeros((len(e), 2, 2, _SLOT), np.uint8)  # E, point, sign, column
    # the exponent form: a point after the first digit, then e, the sign of
    # E and at least two digits of |E|
    a = np.abs(e)
    three = a >= 100
    marks[:, 1, :, 12] = 46
    marks[:, :, :, 29] = 101
    marks[:, :, :, 30] = np.where(e < 0, 45, 43)[:, None, None]
    marks[:, :, :, 31] = (np.where(three, a // 100, a // 10 % 10) + 48)[:, None, None]
    marks[:, :, :, 32] = (np.where(three, a // 10 % 10, a % 10) + 48)[:, None, None]
    marks[:, :, :, 33] = (three * (a % 10 + 48))[:, None, None]
    # -4 <= E < 0: "0." and -E - 1 more zeros, from column 1
    column = np.arange(_SLOT)
    at = -_EXP_LOW  # the row of E = 0
    E = np.arange(-4, 0)[:, None, None, None]
    marks[at - 4:at] = np.where(column == 2, 46, 48 * ((column == 1) | (column >= 3) & (column < 2 - E)))
    # 0 <= E < 17: the integer part's E + 1 zeros, then a point but at E = 16
    E = np.arange(17)[:, None, None, None]
    marks[at:at + 17] = 48 * ((column >= 11) & (column <= 11 + E))
    marks[at + np.arange(16), 1, :, 12 + np.arange(16)] = 46
    marks[:, :, 1, 0] = 45
    return marks.reshape(-1, _SLOT)


def _point_columns():
    """q at E - _EXP_LOW: a point may follow digit q, in column 12 + q.  E
    for the fixed form, 0 for the exponent form, and for -4 <= E < 0, whose
    point is among the marks, -12: column 0 never holds a digit."""
    e = np.arange(_EXP_LOW, _EXP_HIGH + 1)
    return np.where((e >= 0) & (e < 17), e, np.where((e >= -4) & (e < 0), -12, 0))


_SHIFT, _POWERS = _powers_of_ten()
_GROUPS = _digit_groups()
_KEEP, _MOVED = _point_masks()
_MARKS = _marks()
_POINT_AT = _point_columns()


def _scaled(a, e):
    """floor(a·10^(16-e)) as int64 and the fraction it leaves, from a
    double-double product: a scaled by the power of two of 10^(16-e) times
    that power's [1, 2] part, the high product exact by Dekker's split."""
    i = 16 - _POW10_LOW - e
    x = np.ldexp(a, _SHIFT[i])
    hi, hi_hi, hi_lo, lo = _POWERS.take(i, axis=1)
    c = x * _SPLIT
    x_hi = c - (c - x)
    x_lo = x - x_hi
    p = x * hi
    rest = ((x_hi * hi_hi - p) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo + x * lo
    floor = np.floor(rest)
    return p.astype(np.int64) + floor.astype(np.int64), rest - floor


def float_slots(values):
    """float_text of each element of a float64 array, in the rows of a uint8
    array _SLOT wide, laid out as the module docstring says."""
    a = np.abs(values)
    unsettled = ~((a > 0) & (a < np.inf))
    a[unsettled] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    d, frac = _scaled(a, e)
    up = frac > 0.5
    off = (d < _P16) | (d + up >= _P17)
    for _ in range(2):
        j = off.nonzero()[0]
        if not len(j):
            break
        e[j] += np.where(d[j] < _P16, -1, 1)
        d[j], frac[j] = _scaled(a[j], e[j])
        up[j] = frac[j] > 0.5
        off[j] = (d[j] < _P16) | (d[j] + up[j] >= _P17)
    unsettled |= off | (np.abs(frac - 0.5) < _TIE_GUARD)
    d += up

    # the digits of D in slot columns 11..27: the first, then four groups of
    # four, a group with its trailing zeros as NULs when every later one is 0
    size = len(d)
    lead, rest = np.divmod(d, _P16)
    high, low = np.divmod(rest, 10**8)
    g0, g1 = np.divmod(high, 10000)
    g2, g3 = np.divmod(low, 10000)
    index = np.full((size, _SLOT // 4), 20010)
    np.add(lead, 20000, out=index[:, 2])
    np.add(g3, 10000, out=index[:, 6])
    np.add(g2, 10000 * (g3 == 0), out=index[:, 5])
    nil = low == 0
    np.add(g1, 10000 * nil, out=index[:, 4])
    nil &= g1 == 0
    np.add(g0, 10000 * nil, out=index[:, 3])
    digits = _GROUPS[index].view(np.uint8)

    # a point follows digit q of the fixed form, or the first digit of the
    # exponent form, when a digit follows it; -4 <= E < 0 has its point
    # among the marks, and a q whose column never holds a digit
    k = e - _EXP_LOW
    q = _POINT_AT[k]
    point = digits.ravel()[np.arange(12, _SLOT * size, _SLOT) + q] != 0
    row = point * (q + 1)
    out = digits & _KEEP.take(row, axis=0)
    flat = out.ravel()
    flat[1:] |= digits.ravel()[:-1] & _MOVED.take(row, axis=0).ravel()[1:]
    k *= 2
    k += point
    k *= 2
    k += np.signbit(values)
    out |= _MARKS.take(k, axis=0)
    for i in unsettled.nonzero()[0].tolist():
        text = float_text(float(values[i])).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def rows_text(columns, start, stop, fields, sep):
    """Rows start..stop of the columns as `FloatRows.chunks` spells them:
    each row the float_text of its values between the ASCII, NUL-free
    `fields`, and rows joined by `sep`."""
    width, size = len(columns), stop - start
    values = np.array([column[start:stop] for column in columns], np.float64)
    slots = float_slots(values.T.ravel()).reshape(size, width, _SLOT)
    row = ("\0" * _SLOT).join(fields) + sep
    text = np.empty((size, len(row)), np.uint8)
    text[:] = np.frombuffer(row.encode("ascii"), np.uint8)
    at = 0
    for i, field in enumerate(fields[:width]):
        at += len(field)
        text[:, at:at + _SLOT] = slots[:, i]
        at += _SLOT
    text[-1, len(row) - len(sep):] = 0
    flat = text.ravel()
    return flat[flat != 0].tobytes().decode("ascii")
