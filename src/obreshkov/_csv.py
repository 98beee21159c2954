"""CSV text whose every float reads exactly as ``"%.17g" % v``.

`table` formats float64 columns a chunk of `_CHUNK` values at a time. For a
finite nonzero v of decade e it scales |v| by 10**(16 - e) into [1e16, 1e17),
rounds to a 17-digit integer and writes the digits through a 4-digit lookup
table into fixed-width fields. A template per layout (fixed with a given
decimal exponent, or scientific) and count of significant digits masks those
fields: it keeps the sign, "0.", leading zeros, digits, decimal point and
exponent that the value shows. Every other byte is NUL. Each chunk is
formatted into one reused buffer of about 200 kB and compacted (its NULs
removed) at once, while its bytes are still in cache; the compacted chunks
are joined into the table's text.

The power of ten is held as two doubles, hi = 10**p and lo = 10**p - hi,
each correctly rounded, so hi + lo lies within 2**-105 * 10**p of it. The
product a * hi is its rounding x plus an error that Dekker's split (each
factor into two 26-bit halves through a product with 2**27 + 1; Dekker
1971) gives exactly. x >= 1e16 > 2**53 is a whole number, and that error
plus a * lo is d, the exact product's distance from x within about 1e-14.
So q = x + rint(d) is the correctly rounded 17-digit integer unless d lies
within 1e-9 of a half (Gay 1990; Steele & White 1990). The split holds for
decades -284 <= e <= 299: there both factors, a < 1e300 and 10**p <= 1e300,
stay below DBL_MAX / (2**27 + 1) = 1.34e300, and every partial product is a
multiple of ulp(a) * ulp(hi) >= 2**-56, far above underflow. Values within
1e-9 of a tie, values whose q does not fall in (10**16, 10**17) (a decade
boundary, or log10 a decade off next to a power of ten), values outside
those decades, non-finite values, tables shorter than `CROSSOVER` rows while
the lookup tables are not yet built, and tables of fewer than `_WARM_VALUES`
values after that (the empty table among them) are formatted one value at a
time with ``%``.
"""
from __future__ import annotations

import functools
import itertools

from ._numpy import np

__all__ = ["CROSSOVER", "table"]

# Until the lookup tables exist, tables with fewer rows are formatted row by row:
# the first long table of a process builds them (2.9-4.6 ms, 1.6-2.3 ms of it in
# the hi/lo loop), so a short one-off table such as a figure trace stays on the
# per-row path.
CROSSOVER = 500
# Once they exist, the array path costs about 50-140 us plus 0.12-0.18 us a value,
# "%" 0.56-0.95 us a value (shared, loaded 2-core Intel Xeon, numpy 2.4), so it
# takes every table of this many values or more: a 64-row sweep, a 32-row trace.
_WARM_VALUES = 128

# A field is six 8-byte words. Word 0 holds the sign, "0.000" and the first
# digit, words 1-4 four digits each, every digit followed by a decimal-point
# slot; word 5 holds the exponent "e+308" and the separator.
_WIDTH = 48
_SEPARATOR = 45
_X_MIN, _X_MAX = -324, 308  # decimal exponents of the nonzero finite doubles
_E_MIN, _E_MAX = -284, 299  # the decades that the scaling serves (see the module docstring)
_TIE = 1e-9  # values whose scaled fraction lies this close to 1/2 take the % path
# digit-table rows: four digits at 0, sign and first digit at _HEAD, exponent words at _EXP
_HEAD, _EXP = 10_000, 10_020
_CHUNK = 4096  # values a chunk: 1,024 rows of a 4-column trace, whose buffer stays in cache


def table(header: str, columns, labels=None) -> str:
    """header, then one line per row: the columns' values as "%.17g", joined
    by commas, and ",label" after them when labels are given.

    columns are equal-length float64 arrays; labels is a sequence of str.
    """
    n = len(columns[0])
    warm = n * len(columns) >= _WARM_VALUES and _tables.cache_info().currsize
    joined = "" if labels is None else "".join(labels)
    if (n >= CROSSOVER or warm) and joined.isascii() and "\0" not in joined:
        return header + "\n" + _rows(columns, labels, _tables())
    fmt = ",".join(["%.17g"] * len(columns)) + ("" if labels is None else ",%s")
    cols = [c.tolist() for c in columns] + ([] if labels is None else [labels])
    return "\n".join([header, *(fmt % row for row in zip(*cols))]) + "\n"


def _rows(columns, labels, tables) -> str:
    """The lines of the columns, with labels appended when given (ASCII, no NUL: compaction drops NULs)."""
    n, ncols = len(columns[0]), len(columns)
    start = ncols * _WIDTH
    if labels is not None:
        lab = _label_bytes(labels)
    stop = start if labels is None else start + lab.shape[1] + 1
    # one buffer of _CHUNK fields, reused: a chunk is compacted while it is in cache
    step = -(-_CHUNK // ncols)
    width = -(-stop // 8) * 8
    buf = bytearray(min(n, step) * width)
    rows = np.frombuffer(buf, np.uint8).reshape(-1, width)
    fields = rows[:, :start].reshape(len(rows), ncols, _WIDTH)
    text = bytearray()
    for i in range(0, n, step):
        values = np.column_stack([c[i : i + step] for c in columns])
        size = len(values)
        _fields(values, fields[:size], tables)
        if labels is None:
            fields[:size, -1, _SEPARATOR] = ord("\n")
        else:
            rows[:size, start : stop - 1] = lab[i : i + step]
            rows[:size, stop - 1] = ord("\n")
        text += (buf if size == len(rows) else buf[: size * width]).translate(None, b"\0")
    return text.decode("ascii")


def _label_bytes(labels):
    """labels as an (n, width) uint8 array, converted a run of equal labels at a
    time: a trace's flags come in a few runs (init, startup, main)."""
    runs = [(label, len(list(run))) for label, run in itertools.groupby(labels)]
    distinct = np.array([label for label, _ in runs], dtype=np.bytes_)
    lab = np.repeat(distinct, [count for _, count in runs])
    return lab.view(np.uint8).reshape(len(labels), lab.itemsize)


def _fields(values, out, tables) -> None:
    """Write the "%.17g" text of each float of values into its field of out,
    an (n, ncols, _WIDTH) uint8 view; every byte of it is written."""
    digits, last, templates = tables[-3:]
    v = values.ravel()
    q, e, slow = _scaled(v, tables)

    # digit-table rows of the six words: q = first * 10**16 + hi * 10**8 + lo, and
    # every part below 10**8 splits in int32, where // is cheap
    top = q // 10**8
    lo = (q - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    first = top // 10**8
    hi = top - first * 10**8
    g = np.empty((len(v), 6), np.intp)
    g[:, 0] = first + np.signbit(v) * 10 + _HEAD
    for col, part in ((1, hi), (3, lo)):
        upper = part // 10**4
        g[:, col], g[:, col + 1] = upper, part - upper * 10**4
    g[:, 5] = e + (_EXP - _X_MIN)
    nd = last[0][g[:, 1]]
    for k in (1, 2, 3):
        np.maximum(nd, last[k][g[:, k + 1]], out=nd)

    code = (np.clip(e, -5, 17) + 5) * 17 + nd
    code[slow] = 0
    words = out.view(np.uint64)
    np.bitwise_and(
        np.take(templates, code, axis=0, mode="clip").reshape(words.shape),
        np.take(digits, g, mode="clip").reshape(words.shape),
        out=words,
    )
    idx = np.flatnonzero(slow)
    if idx.size:
        text = np.array(["%.17g" % f for f in v[idx].tolist()], dtype="S24")
        row, col = np.divmod(idx, out.shape[1])
        out[row, col, :24] = text.view(np.uint8).reshape(-1, 24)


def _scaled(v, tables):
    """(q, e, slow) for the floats v: |v| rounds to q * 10**(e - 16) with q a
    17-digit integer, except where slow marks a value for the % path."""
    a = np.abs(v)
    with np.errstate(divide="ignore"):
        e = np.log10(a)
    np.floor(e, out=e)
    off = ~((e >= _E_MIN) & (e <= _E_MAX))  # True for 0, inf and nan too
    a[off] = 0.0
    e[off] = 0.0
    e = e.astype(np.intp)
    i = _E_MAX - e  # the row of 10**(16 - e) = hi + lo, with hi = hi1 + hi2 split as a is
    hi, hi1, hi2, lo = (t[i] for t in tables[:4])
    # a * 10**(16 - e) = x + d: x = a * hi rounded, d its error (exact) plus a * lo,
    # d = (((a1 * hi1 - x) + a1 * hi2) + a2 * hi1) + a2 * hi2 + a * lo summed in that order
    x = a * hi
    c = a * 134217729.0
    a2 = c - a
    a1 = np.subtract(c, a2, out=c)  # c - (c - a)
    np.subtract(a, a1, out=a2)
    d = a1 * hi1
    d -= x
    d += np.multiply(a1, hi2, out=a1)
    d += np.multiply(a2, hi1, out=hi1)
    d += np.multiply(a2, hi2, out=hi2)
    d += np.multiply(a, lo, out=lo)
    r = np.rint(d)
    q = x.astype(np.int64) + r.astype(np.int64)
    np.abs(np.subtract(d, r, out=d), out=d)
    slow = d > 0.5 - _TIE
    slow |= (q <= 10**16) & (v != 0.0)
    slow |= q >= 10**17
    q[slow] = 0
    return q, e, slow


@functools.cache
def _tables():
    """Scale, digit and layout tables."""
    # 10**p, p = 16 - e, as hi + lo, both correctly rounded (int true division is)
    hi, lo = [], []
    for p in range(16 - _E_MAX, 16 - _E_MIN + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    c = hi * 134217729.0
    hi1 = c - (c - hi)

    place = np.indices((10,) * 4).reshape(4, -1)  # the digits of 0000..9999
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None]
    sci = (x < -4) | (x >= 17)
    mag = np.abs(x)
    # word images, 0xFF wherever the template decides
    words = np.full((_EXP + len(x), 8), 0xFF, np.uint8)
    words[:_HEAD, 0::2] = place.T + ord("0")
    words[_HEAD:_EXP, 0] = np.repeat([0, 0xFF], 10)  # the sign mask
    words[_HEAD:_EXP, 6] = np.tile(np.arange(10), 2) + ord("0")
    exp = words[_EXP:]
    exp[:, 0:1] = np.where(sci, ord("e"), 0)
    exp[:, 1:2] = np.where(sci, np.where(x < 0, ord("-"), ord("+")), 0)
    exp[:, 2:3] = np.where(sci & (mag >= 100), ord("0") + mag // 100, 0)
    exp[:, 3:5] = np.where(sci, ord("0") + mag // np.array([10, 1]) % 10, 0)
    exp[:, _SEPARATOR % 8] = ord(",")
    exp[:, 6:] = 0
    # significant digits through the last nonzero digit of each group of four
    pos = ((place != 0) * np.arange(1, 5)[:, None]).max(axis=0)
    last = np.where(pos > 0, pos + 1 + 4 * np.arange(4)[:, None], 0).astype(np.uint8)
    last[0, 0] = 1  # the first digit always counts
    return (
        hi, hi1, hi - hi1, lo, words.view(np.uint64).ravel(), last, _templates(),
    )


def _templates():
    """Field masks, row c * 17 + nd for nd significant digits in layout c:
    scientific for c = 0 and 22, fixed with decimal exponent c - 5 between.
    Row 0, for the values formatted with %, keeps only the separator."""
    x = np.repeat(np.arange(-5, 18), 17)[:, None]
    nd = np.tile(np.arange(1, 18), 23)[:, None]
    fixed = (x >= -4) & (x < 17)
    small = fixed & (x < 0)
    rows = np.zeros((len(x) + 1, _WIDTH), np.uint8)
    rows[0, _SEPARATOR] = 0xFF
    body = rows[1:]
    body[:, 0] = ord("-")
    body[:, 1:3] = np.where(small, np.array([ord("0"), ord(".")]), 0)
    body[:, 3:6] = np.where(small & (np.arange(3) < -x - 1), ord("0"), 0)
    keep = np.where(fixed & (x >= 0), np.maximum(nd, x + 1), nd)
    body[:, 6:39:2] = np.where(np.arange(17) < keep, 0xFF, 0)
    point = np.where(fixed, x, 0)  # the point follows this digit; none for x < 0
    body[:, 7:38:2] = np.where((np.arange(16) == point) & (np.arange(1, 17) < nd), ord("."), 0)
    body[:, 40:] = 0xFF  # the exponent word
    return rows.view(np.uint64)
