"""The array writer of `jsonio.float_text`, for the full chunks of a table.

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

`jsonio.FloatRows.chunks` imports this module at its first full chunk, so a
process that writes none neither imports it nor builds its tables.  The
tables are built here with integer arithmetic.
"""

from __future__ import annotations

import numpy as np

from .jsonio import float_text

_POW10_LOW, _POW10_HIGH = -300, 350  # the k of 10^k: 16 - E for every float's E, ± 2
_EXP_LOW, _EXP_HIGH = -330, 330  # E for every float, ± 2
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
_TIE_GUARD = 1e-6
_P16, _P17 = 10**16, 10**17
_SLOT = 36


def _powers_of_ten():
    """shift, hi, hi_hi, hi_lo, lo: 10^k = (hi + lo)·2^shift at index
    k - _POW10_LOW, with hi in [1, 2] and hi + lo within 2^-105 of
    10^k·2^-shift; hi_hi + hi_lo is hi split by Dekker's rule."""

    def pair(m):  # m = floor(T·2^109) for T in [1, 2): T as two doubles
        top = (m + (1 << 56)) >> 57
        return top / (1 << 52), (m - (top << 57)) / (1 << 109)

    powers = {}
    up = down = 1
    for k in range(_POW10_HIGH + 1):
        s = up.bit_length() - 1
        powers[k] = (s, *pair(up << (109 - s) if s <= 109 else up >> (s - 109)))
        up *= 10
    for k in range(1, 1 - _POW10_LOW):
        down *= 10
        s = down.bit_length()
        powers[-k] = (-s, *pair((1 << (s + 109)) // down))
    shift, hi, lo = zip(*(powers[k] for k in range(_POW10_LOW, _POW10_HIGH + 1)))
    hi = np.array(hi)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    return np.array(shift, np.intc), hi, hi_hi, hi - hi_hi, np.array(lo)


def _digit_groups():
    """Four bytes as a uint32 per index: for i < 10^4 the digits of i, at
    10^4 + i the same with trailing zeros as NULs, at 20000 + d the digit d
    after three NULs, at 20010 four NULs."""
    place = np.arange(10000) // np.array([[1000], [100], [10], [1]]) % 10 + 48
    lead = np.zeros((4, 11), np.int64)
    lead[3, :10] = np.arange(48, 58)
    kept = np.logical_or.accumulate(place[::-1] != 48)[::-1]
    groups = np.concatenate([place, place * kept, lead], axis=1)
    return np.ascontiguousarray(groups.T, np.uint8).view(np.uint32).ravel()


def _point_masks():
    """Byte masks of a slot with no point (row 0) or a point after digit q
    (row q + 1): the digits that stay, and the digits moved one column on."""
    column = np.arange(_SLOT)
    q = np.arange(-1, 16)[:, None]
    keep = np.where((q < 0) | (column <= 11 + q), 255, 0).astype(np.uint8)
    moved = np.where((q >= 0) & (column >= 13 + q), 255, 0).astype(np.uint8)
    return keep, moved


def _marks():
    """The slot's characters other than digits, at ((E - _EXP_LOW)·2 +
    point)·2 + sign, where point says that a point follows the integer part."""
    texts = []
    for e in range(_EXP_LOW, _EXP_HIGH + 1):
        if -4 <= e < 0:
            plain = dotted = "\0" + "0." + "0" * (-e - 1)
        elif 0 <= e < 17:
            plain = "\0" * 11 + "0" * (e + 1)  # the integer part's zeros
            dotted = plain + "." if e < 16 else plain
        else:
            plain = "\0" * 29 + "e%+03d" % e
            dotted = plain[:12] + "." + plain[13:]
        texts += plain.ljust(_SLOT, "\0"), dotted.ljust(_SLOT, "\0")
    marks = np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(-1, _SLOT).repeat(2, axis=0)
    marks[1::2, 0] = 45
    return marks


_SHIFT, _HI, _HI_HI, _HI_LO, _LO = _powers_of_ten()
_GROUPS = _digit_groups()
_KEEP, _MOVED = _point_masks()
_MARKS = _marks()


def _scaled(a, e):
    """floor(a·10^(16-e)) as int64 and the fraction it leaves, from a
    double-double product: a scaled by the power of two of 10^(16-e) times
    that power's [1, 2] part, the high product exact by Dekker's split."""
    i = 16 - _POW10_LOW - e
    x = np.ldexp(a, _SHIFT[i])
    c = x * _SPLIT
    x_hi = c - (c - x)
    x_lo = x - x_hi
    y_hi, y_lo = _HI_HI[i], _HI_LO[i]
    p = x * _HI[i]
    rest = ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo + x * _LO[i]
    floor = np.floor(rest)
    return p.astype(np.int64) + floor.astype(np.int64), rest - floor


def float_slots(values):
    """float_text of each element of a float64 array, in the rows of a uint8
    array _SLOT wide, laid out as the module docstring says."""
    a = np.abs(values)
    settled = (a > 0) & (a < np.inf)
    a[~settled] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, e)
    off = (d < _P16) | (d + (frac > 0.5) >= _P17)
    for _ in range(2):
        j = np.flatnonzero(off)
        if not len(j):
            break
        e[j] += np.where(d[j] < _P16, -1, 1)
        d[j], frac[j] = _scaled(a[j], e[j])
        off[j] = (d[j] < _P16) | (d[j] + (frac[j] > 0.5) >= _P17)
    settled &= ~off & (np.abs(frac - 0.5) >= _TIE_GUARD)
    d += frac > 0.5

    # the digits of D in slot columns 11..27: the first, then four groups of
    # four, a group with its trailing zeros as NULs when every later one is 0
    size = len(d)
    lead, rest = np.divmod(d, _P16)
    high, low = np.divmod(rest, 10**8)
    g0, g1 = np.divmod(high, 10000)
    g2, g3 = np.divmod(low, 10000)
    index = np.empty((size, _SLOT // 4), np.intp)
    index[:, :2] = index[:, 7:] = 20010
    index[:, 2] = lead + 20000
    index[:, 6] = g3 + 10000
    trailing = g3 == 0
    for c, g in ((5, g2), (4, g1), (3, g0)):
        index[:, c] = g + trailing * 10000
        trailing &= g == 0
    digits = _GROUPS[index].view(np.uint8)

    # a point follows digit E of the fixed form, or the first digit of the
    # exponent form, when a digit follows it
    q = e * ((e >= 0) & (e < 17))
    point = (digits.ravel()[np.arange(12, _SLOT * size, _SLOT) + q] != 0) & ~((e >= -4) & (e < 0))
    row = point * (q + 1)
    moving = np.empty(size * _SLOT, np.uint8)
    moving[0] = 0
    moving[1:] = digits.ravel()[:-1]
    out = digits & np.take(_KEEP, row, axis=0)
    out |= moving.reshape(size, _SLOT) & np.take(_MOVED, row, axis=0)
    mark = ((np.clip(e, _EXP_LOW, _EXP_HIGH) - _EXP_LOW) * 2 + point) * 2 + np.signbit(values)
    out |= np.take(_MARKS, mark, axis=0)
    for i in np.flatnonzero(~settled).tolist():
        text = float_text(float(values[i])).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def rows_text(columns, start, stop, fields, sep):
    """Rows start..stop of the columns as `FloatRows.chunks` spells them:
    each row the float_text of its values between the ASCII, NUL-free
    `fields`, and rows joined by `sep`."""
    width, size = len(columns), stop - start
    values = np.empty(size * width)
    for i, column in enumerate(columns):
        values[i::width] = column[start:stop]
    slots = float_slots(values).reshape(size, width, _SLOT)
    parts = []
    for i, text in enumerate((*fields, sep)):
        parts.append(np.broadcast_to(np.frombuffer(text.encode("ascii"), np.uint8), (size, len(text))))
        if i < width:
            parts.append(slots[:, i])
    flat = np.concatenate(parts, axis=1).ravel()
    text = flat[flat != 0].tobytes().decode("ascii")
    return text[:len(text) - len(sep)]
