"""CSV text whose every float reads exactly as ``"%.17g" % v``.

`table` formats whole float64 columns at once. For a finite nonzero v it
scales |v| into [1e16, 1e17) by a correctly rounded long-double power of
ten, rounds to a 17-digit integer and writes the digits through a 4-digit
lookup table into fixed-width fields. A template per layout (fixed with a
given decimal exponent, or scientific) and count of significant digits
masks those fields: it keeps the sign, "0.", leading zeros, digits, decimal
point and exponent that the value shows. Every other byte is NUL, and the
NULs are removed once per table.

The scaled value carries two long-double roundings, so it lies within
1e17 * eps(longdouble) of the exact product, and its rounding is the
correct one unless it lies within twice that of a rounding tie (Gay 1990;
Steele & White 1990). Those values, every value whose scaled form does not
round into (10**16, 10**17) (a decade boundary, or log10 a decade off next
to a power of ten), every non-finite value, and every table shorter than
`CROSSOVER` rows are formatted one value at a time with ``%``.
Where long double is a plain double the tolerance exceeds 1/2, and every
value takes that path.
"""
from __future__ import annotations

import functools

from ._numpy import np

__all__ = ["CROSSOVER", "table"]

# Tables with fewer rows are formatted row by row. Once the tables exist, the
# array path wins from about 100 rows (2-core Xeon, numpy 2.4), but the first
# long table of a process also builds them (about 3 ms), so a short one-off
# table such as a figure trace stays on the per-row path.
CROSSOVER = 500

# A field is six 8-byte words. Word 0 holds the sign, "0.000" and the first
# digit, words 1-4 four digits each, every digit followed by a decimal-point
# slot; word 5 holds the exponent "e+308" and the separator.
_WIDTH = 48
_SEPARATOR = 45
_X_MIN, _X_MAX = -324, 308  # decimal exponents of the nonzero finite doubles
_P_MIN, _P_MAX = 16 - _X_MAX - 1, 16 - _X_MIN + 1  # scale exponents, one spare each way
# digit-table rows: four digits at 0, sign and first digit at _HEAD, exponent words at _EXP
_HEAD, _EXP = 10_000, 10_020
_CHUNK = 4096  # values formatted per pass


def table(header: str, columns, labels=None) -> str:
    """header, then one line per row: the columns' values as "%.17g", joined
    by commas, and ",label" after them when labels are given.

    columns are equal-length float64 arrays; labels is a sequence of str.
    """
    if len(columns[0]) >= CROSSOVER and (labels is None or "".join(labels).isascii()):
        tables = _tables()
        if tables is not None:
            return header + "\n" + _rows(columns, labels, tables)
    fmt = ",".join(["%.17g"] * len(columns)) + ("" if labels is None else ",%s")
    cols = [c.tolist() for c in columns] + ([] if labels is None else [labels])
    return "\n".join([header, *(fmt % row for row in zip(*cols))]) + "\n"


def _rows(columns, labels, tables) -> str:
    """The lines of the columns, with labels appended when given."""
    n, ncols = len(columns[0]), len(columns)
    start = ncols * _WIDTH
    if labels is not None:
        lab = np.array(labels, dtype=np.bytes_)
        lab = lab.view(np.uint8).reshape(n, lab.itemsize)
    stop = start if labels is None else start + lab.shape[1] + 1
    buf = bytearray(n * (-(-stop // 8) * 8))
    rows = np.frombuffer(buf, np.uint8).reshape(n, -1)
    fields = rows[:, :start].reshape(n, ncols, _WIDTH)
    # a few thousand values at a time keep the temporaries small
    step = -(-_CHUNK // ncols)
    for i in range(0, n, step):
        values = np.column_stack([c[i : i + step] for c in columns])
        _fields(values, fields[i : i + step], tables)
    if labels is None:
        fields[:, -1, _SEPARATOR] = ord("\n")
    else:
        rows[:, start : stop - 1] = lab
        rows[:, stop - 1] = ord("\n")
    return buf.translate(None, b"\0").decode("ascii")


def _fields(values, out, tables) -> None:
    """Write the "%.17g" text of each float of values into its field of out,
    an (n, ncols, _WIDTH) uint8 view of zeros."""
    pow10, half, digits, last, templates = tables
    v = values.ravel()
    finite = np.isfinite(v)
    a = np.where(finite, np.abs(v), 0.0)
    nonzero = a > 0
    with np.errstate(divide="ignore"):
        e = np.where(nonzero, np.floor(np.log10(a)), 0.0).astype(np.intp)
    x = a.astype(np.longdouble) * pow10[(16 - _P_MIN) - e]
    r = np.rint(x)
    q = r.astype(np.int64)
    slow = np.abs((x - r).astype(np.float64)) > half
    slow |= (nonzero & (q <= 10**16)) | (q >= 10**17) | ~finite
    q[slow] = 0

    # digit-table rows of the six words
    hi, lo = np.divmod(q, 10**8)
    first, hi = np.divmod(hi, 10**8)
    g = np.empty((len(v), 6), np.intp)
    g[:, 0] = first + np.signbit(v) * 10 + _HEAD
    g[:, 1], g[:, 2] = np.divmod(hi, 10**4)
    g[:, 3], g[:, 4] = np.divmod(lo, 10**4)
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


@functools.cache
def _tables():
    """Scale, digit and layout tables, or None where long double is too narrow."""
    info = np.finfo(np.longdouble)
    tol = np.longdouble(2e17) * info.eps
    if not tol < 0.5:
        return None
    pow10 = _pow10(info.nmant + 1)
    if not (np.all(np.isfinite(pow10)) and pow10[0] > 0):
        return None

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
    return pow10, float(0.5 - tol), words.view(np.uint64).ravel(), last, _templates()


def _pow10(bits: int):
    """10**p for p in [_P_MIN, _P_MAX], correctly rounded to `bits` significant bits."""
    mantissas, shifts = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        s = num.bit_length() - den.bit_length() - bits
        while True:
            d = den << s if s > 0 else den
            q, r = divmod(num << -s if s < 0 else num, d)
            if q < 1 << bits:
                break
            s += 1
        if 2 * r > d or (2 * r == d and q & 1):
            q += 1
            if q == 1 << bits:
                q, s = q >> 1, s + 1
        mantissas.append(q)
        shifts.append(s)
    # the mantissa in 32-bit pieces, summed from the top: every partial sum is exact
    value = np.zeros(len(mantissas), np.longdouble)
    for k in range((bits - 1) // 32, -1, -1):
        piece = np.array([(m >> (32 * k)) & 0xFFFFFFFF for m in mantissas], np.float64)
        value += np.ldexp(piece.astype(np.longdouble), 32 * k)
    return np.ldexp(value, np.array(shifts))


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
