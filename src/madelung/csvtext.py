"""CSV text of column blocks, with numpy: ``'%.17g' % x`` byte for byte.

``rows(cols, fmts)`` formats a block of rows of 1-D columns.  Each cell
gets a fixed slot of 64-bit words in the row buffer: six for a float, one
for a float column that is all NaN, and enough for the UTF-8 text plus one
byte for a text cell.  The last byte of a slot is its separator, and every
byte that is no part of the text is NUL, so one ``translate`` that deletes
NUL leaves the rows.  Text cells therefore must not hold NUL.

A float cell is six 64-bit words, each looked up in a table:

    word 0     sign, a "0.000" prefix, the first digit d0, a point slot
    words 1-4  digits d1..d16 in groups of four, each followed by a point slot
    word 5     the exponent "e+XX" or "e-XXX"

The 17 digits d are |x| 10^(16 - e) rounded to an integer, e = floor(log10|x|).
The product is formed as a double-double, hi + lo, from a hi + lo pair of
10^(16 - e); its error is ~2^-104 of the product, far below the unit that
the rounding resolves.  Digits past the last significant one become NUL,
as ``%g`` drops trailing zeros, and at most one point slot holds '.'.
Cells the fast path cannot decide take Python's own ``'%.17g' % x``: a
fraction within _TIE of one half, where the double-double cannot tell the
rounding direction, |x| outside [1e-280, 1e280], where the scaled factors
would leave the normal range, +-inf, an exponent that log10 got wrong by
one, and digits that round up to the next power of ten.  NaN cells are
blank.
"""

from __future__ import annotations

import numpy as np

# a product whose fraction lies this close to one half takes the slow path
_TIE = 1e-7
# magnitudes the fast path formats; their exponents e lie in [-281, 280]
_MIN, _MAX = 1e-280, 1e280
# float cells per pass of the kernel, unless one column has more; a pass
# holds ~200 bytes of temporaries a cell
_PASS_CELLS = 2048
# the exponent tables cover e in [-_E0, _E0), and index 2 _E0 stands for a
# cell the fast path leaves blank
_E0 = 300

# rows hi, h, l, lo of 10**k at column k + _E0, hi = h + l in 26-bit halves
# and hi + lo = 10**k; NaN until a block first needs them
_POW10 = None


def _pow10(k):
    """(hi, h, l, lo), from Python ints (int / int rounds correctly)."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    a, b = hi.as_integer_ratio()
    h = 134217729.0 * hi
    h -= h - hi
    return hi, h, hi - h, (num * b - a * den) / (den * b)


def _powers(ks):
    """The rows of _POW10 at the exponents ks, a (4, len(ks)) array."""
    global _POW10
    if _POW10 is None:
        _POW10 = np.full((4, 2 * _E0), np.nan)
    k0, k1 = int(ks.min()), int(ks.max())
    if np.isnan(_POW10[0, k0 + _E0:k1 + _E0 + 1]).any():
        for k in range(k0, k1 + 1):
            _POW10[:, k + _E0] = _pow10(k)
    return _POW10.take(ks + _E0, axis=1)


def _tables():
    """The lookup tables of _float_cells."""
    # a group of four digits a b c d, each followed by an empty point slot
    quad = np.zeros((10, 10, 10, 10, 8), np.uint8)
    digits = np.arange(48, 58, dtype=np.uint8)
    quad[..., 0], quad[..., 2] = digits[:, None, None, None], digits[:, None, None]
    quad[..., 4], quad[..., 6] = digits[:, None], digits
    # the place 1..4 of its last nonzero digit, 0 for the group 0; group j
    # holds digits 4j + 1..4j + 4, so the significant digits up to it are
    # 4j + 1 + that place
    d = (np.arange(10) != 0).astype(np.uint8)
    last = np.maximum(np.maximum(d[:, None, None, None], 2 * d[:, None, None]),
                      np.maximum(3 * d[:, None], 4 * d)).ravel()
    sig = (np.arange(1, 17, 4, dtype=np.uint8)[:, None] + last) * (last > 0)
    # masks of group j that keep the digits before digit `keep`, keep = 0..17
    kept = np.clip(np.arange(18)[:, None] - np.arange(1, 17, 4), 0, 4)
    keep = np.where(np.arange(8) < 2 * kept[..., None], 255, 0).astype(np.uint8)
    # by exponent: word 5, digits before the point, and the prefix "0."
    # plus p - 1 zeros of the fixed form, p = 5 for a blank cell
    e = np.arange(-_E0, _E0 + 1)
    fixed = (e >= -4) & (e < 17)
    exp = np.zeros((len(e), 8), np.uint8)
    exp[:, 0] = ord("e")
    exp[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exp[:, 2] = np.where(abs(e) >= 100, abs(e) // 100 + 48, 0)
    exp[:, 3] = abs(e) // 10 % 10 + 48
    exp[:, 4] = abs(e) % 10 + 48
    exp[fixed | (e == _E0)] = 0
    ints = np.where(fixed, np.maximum(e + 1, 0), 1).astype(np.uint8)
    ints[-1] = 0
    pre = np.where(fixed & (e < 0), -e, 0)
    pre[-1] = 5
    # word 0 by (negative, p, d0)
    lead = np.zeros((2, 6, 10, 8), np.uint8)
    lead[1, :5, :, 0] = ord("-")
    for p in range(1, 5):
        lead[:, p, :, 1:p + 2] = np.frombuffer(b"0." + b"0" * (p - 1), np.uint8)
    lead[:, :5, :, 6] = digits
    return (quad.view(np.uint64).ravel(), sig, keep.view(np.uint64).reshape(18, 4),
            lead.view(np.uint64).ravel(), exp.view(np.uint64).ravel(), ints,
            (pre * 10).astype(np.int16))


# built when the first table is written: importing cli imports no csvtext
_QUAD, _SIG, _KEEP, _LEAD, _EXP, _INTS, _PREFIX = _tables()


def _digits(x):
    """(d, e, ok): |x| = d 10**(e - 16) with d the 17 digits, rounded to
    nearest, and d = e = 0 at x = 0; ok is False where the fast path cannot
    decide, and there d = 0.  A d that rounds up to 10**17 is not ok."""
    ax = np.abs(x)
    ok = (ax >= _MIN) & (ax <= _MAX)
    ax[~ok] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    # y = ax 10**(16 - e) = hi + lo; hi is an integer, as y > 2**53
    ph, bh, bl, pl = _powers(16 - e)
    p = ax * ph
    ah = 134217729.0 * ax
    ah -= ah - ax
    al = ax - ah
    s = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + ax * pl
    hi = p + s
    lo = s - (hi - p)
    fl = np.floor(lo)
    frac = lo - fl
    d = hi.astype(np.int64) + fl.astype(np.int64)  # floor(y)
    ok &= (d >= 10 ** 16) & (np.abs(frac - 0.5) >= _TIE)
    d += frac > 0.5
    ok &= d < 10 ** 17
    d *= ok
    # e = 0 wherever ok was False
    return d, e, ok | (x == 0.0)


def _float_cells(x):
    """The cells of the floats x, a (len(x), 6) array of words."""
    d, e, ok = _digits(x)
    # d = d0 g0 g1 g2 g3: one digit, then four groups of four
    groups = np.empty((len(x), 4), np.int64)
    top = d // 10 ** 8
    low = d - top * 10 ** 8
    a = top // 10 ** 4
    d0 = a // 10 ** 4
    groups[:, 0] = a - d0 * 10 ** 4
    groups[:, 1] = top - a * 10 ** 4
    groups[:, 2] = low // 10 ** 4
    groups[:, 3] = low - groups[:, 2] * 10 ** 4
    del d, top, low, a
    sig = np.ones(len(x), np.uint8)
    for j in range(4):
        np.maximum(sig, _SIG[j].take(groups[:, j]), out=sig)
    ei = np.where(ok, e + _E0, 2 * _E0)
    ints = _INTS.take(ei)
    words = np.empty((len(x), 6), np.uint64)
    words[:, 0] = _LEAD.take(_PREFIX.take(ei) + np.signbit(x) * 60 + d0)
    words[:, 1:5] = _QUAD.take(groups) & _KEEP.take(np.maximum(sig, ints), axis=0)
    words[:, 5] = _EXP.take(ei)
    # the point follows digit ints - 1; a fixed form below 1 has it in word 0
    dot = np.flatnonzero((sig > ints) & (ints > 0))
    words.view(np.uint8)[dot, 5 + 2 * ints[dot].astype(np.intp)] = ord(".")

    slow = np.flatnonzero(~ok & ~np.isnan(x))
    if len(slow):
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S48")
        words[slow] = text.view(np.uint64).reshape(-1, 6)
    return words


def _text_cells(col):
    """The UTF-8 bytes of a str array, as a bytes array."""
    try:
        return col.astype(np.bytes_)  # ASCII: a plain cast, no per-cell call
    except UnicodeEncodeError:
        return np.char.encode(col, "utf-8")


def rows(cols, fmts):
    """The CSV text of equal-length 1-D columns: a float array where fmts
    says "%.17g", a str array where it says "%s"; each row ends in a newline."""
    n = len(cols[0])
    cells = [_text_cells(c) if f == "%s" else c for c, f in zip(cols, fmts)]
    # words per cell: the text and its separator, six for a float, and just
    # the separator's for a float column that is all NaN
    widths = [c.itemsize // 8 + 1 if f == "%s" else 1 if np.isnan(c).all() else 6
              for c, f in zip(cells, fmts)]
    ends = np.cumsum(widths)
    buf = np.zeros((n, int(ends[-1])), np.uint64)
    raw = buf.view(np.uint8)
    floats = []  # (first word, column) of the float columns that hold a number
    for c, f, width, end in zip(cells, fmts, widths, ends.tolist()):
        if f == "%s":
            first = 8 * (end - width)
            raw[:, first:first + c.itemsize] = c.view(np.uint8).reshape(n, c.itemsize)
        elif width == 6:
            floats.append((end - 6, c))
    # numpy costs per call as well as per cell, so a kernel pass takes as
    # many columns as _PASS_CELLS allows, and at least one
    step = max(1, _PASS_CELLS // n)
    for first in range(0, len(floats), step):
        part = floats[first:first + step]
        words = _float_cells(np.concatenate([c for _, c in part]))
        for j, (w, _) in enumerate(part):
            buf[:, w:w + 6] = words[j * n:(j + 1) * n]
        del words
    seps = np.full(len(cols), ord(","), np.uint8)
    seps[-1] = ord("\n")
    raw[:, 8 * ends - 1] = seps
    text = buf.tobytes()
    del buf, raw  # before translate makes its copy
    return text.translate(None, b"\0").decode("utf-8")
