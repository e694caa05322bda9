"""The text of format(v, '.17g') for whole float64 arrays at a time.

`fill(values, text, keep)` writes each value's text into a row of WIDTH
bytes, with a mask of the bytes that belong to it, so that a caller can lay
rows side by side and take its lines with one boolean compress.

Digits. For 1e-280 <= |v| <= 1e280, E = floor(log10 |v|) and the product
Y = |v| * 10**(16 - E) is formed as the unevaluated sum p + s: 10**k is held
as its correctly rounded double-double (hi, lo), Dekker's TwoProduct
(T. J. Dekker, Numer. Math. 18, 1971; split form, as numpy has no fma) gives
|v| * hi = p + err exactly, and s = err + |v| * lo. The 17 digits are Y
rounded half-even. The table-driven idea is Ryu's (U. Adams, PLDI 2018).

Every other value takes format(float(v), '.17g'):
- zero, subnormals, values outside that range and non-finite values;
- values whose Y lies within 2**-40 of a half-integer, which covers the
  exact 18-digit ties, unless 10**(16 - E) is a double (1e-6 <= |v| < 1e17):
  then lo = 0, p + s is Y exactly, and ties are decided exactly;
- values whose integer part falls outside [10**16, 10**17), where log10 was
  one off, or whose rounding carries to 10**17 (only the doubles next below
  14 powers of ten do, 1e-14 among them).

Text. A row holds every byte any layout takes, at fixed columns, so no byte
moves; the layout and the count of significant digits only choose which
bytes are kept:

    0..6    sign, and '0.' and zeros for 1e-4 <= |v| < 1, right-aligned
    7       d0          8..23   d1..d16
    29      sign        30  d0  31  '.'     32..47  d1..d16
    48..55  the exponent, 'e-05' or 'e+100', right-aligned

Values in [1e-4, 1) keep one run, from 0..6 on into 7..23; values in [10,
1e17) keep d0..dE from 7 and the point and the rest from 31; all others
keep 29.. and, in exponent form, the exponent. Each word is written as one
column of the rows, which numpy does in one strided pass, where a block of
several words would take a pass per row.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

WIDTH = 56  # bytes of a row; at most 24 are kept, '-1.7976931348623157e+308'
WORDS = WIDTH // 8

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_E_MIN, _E_MAX = -282, 281  # the table's E, one past what log10 gives on the fast path
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_TIE_GAP = 2.0 ** -40
_FIRST, _SECOND = 7, 30  # columns of the two copies of d0
_LAYOUTS = 23  # positional with E = layout - 4 for 0..20; exponent form 21, 22


def _layout_prefix(layout):
    """Bytes 0..6 of a row: the sign, and '0.' and zeros below 1."""
    e = layout - 4
    prefix = "-0." + "0" * (-e - 1) if e < 0 else "-" if 0 < e <= 16 else ""
    return prefix.rjust(_FIRST, "\0").encode()


def _kept(layout, nd, negative):
    """The columns a value keeps, from its layout and significant digits."""
    e = layout - 4
    if e < 0:  # '0.', -e - 1 zeros and the digits
        cols = list(range(_FIRST - 1 + e, _FIRST + nd))
    else:
        point = e if e <= 16 else 0  # the point follows d_point
        cols = list(range(_FIRST, _FIRST + point + 1)) if point else [_SECOND]
        if nd > point + 1:  # the point at _SECOND + 1, d_i at _SECOND + 1 + i
            cols += [_SECOND + 1] + [_SECOND + 1 + i for i in range(point + 1, nd)]
        if layout >= 21:
            cols += list(range(WIDTH - 4 - (layout - 21), WIDTH))
    return [cols[0] - 1] * negative + cols


@functools.cache
def _tables() -> SimpleNamespace:
    """Power-of-ten, digit and keep-mask tables, built on first use."""

    def pow10(k):
        # int/int true division rounds correctly, so hi and lo are both
        # the correctly rounded doubles of their exact values
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        n, d = hi.as_integer_ratio()
        return hi, (num * d - n * den) / (den * d)

    hi, lo = np.array([pow10(16 - e) for e in range(_E_MIN, _E_MAX + 1)]).T
    c = _SPLIT * hi
    hi_h = c - (c - hi)

    def words(rows, dtype):
        # each row right-aligned in one native word, so its bytes keep their order
        size = np.dtype(dtype).itemsize
        return np.frombuffer(b"".join(r.rjust(size, b"\0") for r in rows), dtype)

    q = np.arange(10_000)
    # keep[:, (layout * 18 + nd) * 2 + negative], one row per uint64 word
    keep = np.zeros((_LAYOUTS, 18, 2, WIDTH), bool)
    for layout in range(_LAYOUTS):
        for nd in range(1, 18):
            for negative in (0, 1):
                keep[layout, nd, negative, _kept(layout, nd, negative)] = True
    return SimpleNamespace(
        hi=hi, lo=lo, hi_h=hi_h, hi_l=hi - hi_h,
        quad=words([b"%04d" % i for i in range(10_000)], np.uint32),  # '0000'..'9999'
        quad_zeros=((q % 10 == 0).astype(np.uint8) + (q % 100 == 0)
                    + (q % 1000 == 0) + (q % 10_000 == 0)),  # trailing zeros, 4 for 0000
        # words 0 by layout * 10 + d0, 3 by d0 and 6 by E - _E_MIN
        head=words([_layout_prefix(layout) + b"%d" % d
                    for layout in range(_LAYOUTS) for d in range(10)], np.uint64),
        middle=words([b"-%d." % d for d in range(10)], np.uint64),
        tail=words([b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)], np.uint64),
        keep=keep.reshape(-1, WORDS * 8).view(np.uint64).T.copy(),
        first=(np.arange(WIDTH) < np.arange(WIDTH + 1)[:, None]).view(np.uint64))


def fill(values, text, keep) -> None:
    """Write the texts of values into text and their masks into keep.

    text and keep are uint64 arrays of shape values.shape + (WORDS,), of
    any strides between rows; the bytes of keep are bools. The kept bytes
    of row i, in order, are format(float(values[i]), '.17g').
    """
    t = _tables()
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)  # may be one off: checked below
    j = np.clip(e - _E_MIN, 0, t.hi.size - 1)   # row of 10**(16 - e)

    # Y = a * 10**(16 - e) = p + s. With |lo| <= ulp(hi) / 2 the table's
    # error is at most 2**-106 Y, and a * lo and err + a * lo each round
    # off at most 2**-53 of terms below 2**-53 Y and 2**5: below 2**-47 in
    # all for Y < 10**17, far inside the 2**-40 tie gap.
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    hi_h, hi_l = t.hi_h[j], t.hi_l[j]
    p = a * t.hi[j]
    err = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    s = err + a * t.lo[j]
    floor_s = np.floor(s)
    frac = s - floor_s
    # p >= 2**53 is an even integer on the fast path, so rounding half-even
    # needs only the fraction of s
    ip = p.astype(np.int64) + floor_s.astype(np.int64)
    # where 10**(16 - e) is a double, lo = 0 and p + s is Y exactly, so
    # ties are exact too
    digits = ip + ((frac > 0.5) | ((frac == 0.5) & (ip & 1 == 1)))
    ok = (fast & ((t.lo[j] == 0) | (np.abs(frac - 0.5) >= _TIE_GAP))
          & (ip >= 10 ** 16) & (digits < 10 ** 17))
    digits = np.where(ok, digits, 10 ** 16)
    e = np.where(ok, e, 0)

    lead, rest = np.divmod(digits, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    groups = [*np.divmod(upper, 10 ** 4), *np.divmod(lower, 10 ** 4)]
    layout = np.where((e < -4) | (e > 16), 21 + (np.abs(e) >= 100), e + 4)
    text[..., 0] = t.head[layout * 10 + lead]
    text32 = text.view(np.uint32)
    for col, group in enumerate(groups):
        text32[..., 2 + col] = t.quad[group]
    text[..., 3] = t.middle[lead]
    text[..., 4], text[..., 5] = text[..., 1], text[..., 2]
    text[..., 6] = t.tail[e - _E_MIN]

    # trailing zeros: the last group's, then each earlier group's while all
    # later groups are 0000 (a group of four zeros counts 4)
    z0, z1, z2, z3 = (t.quad_zeros[group] for group in groups)
    trailing = z3 + (z3 == 4) * (z2 + (z2 == 4) * (z1 + (z1 == 4) * z0))
    key = (layout * 18 + 17 - trailing) * 2 + np.signbit(v)
    for word in range(WORDS):
        keep[..., word] = t.keep[word][key]

    fallback = ~ok
    if fallback.any():
        texts = [format(x, ".17g").encode() for x in v[fallback].tolist()]
        text.view(np.uint8)[fallback] = np.frombuffer(
            b"".join(x.ljust(WIDTH, b"\0") for x in texts), np.uint8).reshape(-1, WIDTH)
        keep[fallback] = t.first[[len(x) for x in texts]]


def slots(values):
    """(text, keep) of values as (n, WIDTH) uint8 and bool arrays."""
    n = np.size(values)
    text, keep = np.empty((n, WORDS), np.uint64), np.empty((n, WORDS), np.uint64)
    fill(values, text, keep)
    return text.view(np.uint8), keep.view(bool)
