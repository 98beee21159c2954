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
Steele & White 1990). Those few values (about 4%) are scaled again by the
power of ten split as hi + lo, where hi has so few significant bits that
v * hi is exact in long double (Dekker 1971): the distance of the exact
product from its rounding is then known within about 2**-11 of the first
tolerance. Values still within that of a tie, every value whose scaled form
does not round into (10**16, 10**17) (a decade boundary, or log10 a decade
off next to a power of ten), every non-finite value, and every table
shorter than `CROSSOVER` rows are formatted one value at a time with ``%``.
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
_MAX_RUNS = 8  # label runs repeated as a block; more are converted one by one


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
        lab = _label_bytes(labels)
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


def _label_bytes(labels):
    """labels as an (n, width) uint8 array. A trace's flags come in a few runs
    (init, startup, main); runs are repeated, not converted label by label."""
    distinct, counts, i = [], [], 0
    while i < len(labels) and len(distinct) < _MAX_RUNS:
        label = labels[i]
        if labels.index(label) != i:  # a label back after another: not runs
            break
        distinct.append(label)
        counts.append(labels.count(label))
        i += counts[-1]
    if i == len(labels):
        lab = np.repeat(np.array(distinct, dtype=np.bytes_), counts)
    else:
        lab = np.array(labels, dtype=np.bytes_)
    return lab.view(np.uint8).reshape(len(labels), lab.itemsize)


def _fields(values, out, tables) -> None:
    """Write the "%.17g" text of each float of values into its field of out,
    an (n, ncols, _WIDTH) uint8 view of zeros."""
    digits, last, templates = tables[-3:]
    v = values.ravel()
    q, e, slow = _scaled(v, tables)

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


def _scaled(v, tables):
    """(q, e, slow) for the floats v: |v| rounds to q * 10**(e - 16) with q a
    17-digit integer, except where slow marks a value for the % path."""
    pow10, pow10_hi, pow10_lo, half, tie = tables[:5]
    finite = np.isfinite(v)
    a = np.where(finite, np.abs(v), 0.0)
    nonzero = a > 0
    with np.errstate(divide="ignore"):
        e = np.where(nonzero, np.floor(np.log10(a)), 0.0).astype(np.intp)
    p = (16 - _P_MIN) - e
    x = a.astype(np.longdouble) * pow10[p]
    r = np.rint(x)
    slow = np.zeros(len(v), bool)
    # near a tie: a * pow10_hi is exact and a * pow10_lo small, so d is the exact
    # product's distance from r within the second tolerance
    near = np.flatnonzero(np.abs((x - r).astype(np.float64)) > half)
    an, pn = a[near].astype(np.longdouble), p[near]
    d = (an * pow10_hi[pn] - r[near]) + an * pow10_lo[pn]
    shift = np.rint(d)
    r[near] += shift
    slow[near] = np.abs((d - shift).astype(np.float64)) > tie
    q = r.astype(np.int64)
    slow |= (nonzero & (q <= 10**16)) | (q >= 10**17) | ~finite
    q[slow] = 0
    return q, e, slow


@functools.cache
def _tables():
    """Scale, digit and layout tables, or None where long double is too narrow
    or does not parse the powers of ten correctly rounded."""
    info = np.finfo(np.longdouble)
    tol = np.longdouble(2e17) * info.eps
    if not tol < 0.5:
        return None
    scale = _pow10(info.nmant + 1)
    if scale is None:
        return None
    pow10, residual = scale
    # hi: pow10 rounded to the bits whose product with a double is exact; lo: 10**p - hi.
    # |lo| <= 2**-bits * 10**p, so lo, a * lo and the residual add errors of that order
    bits = info.nmant + 1 - 53
    mantissa, exponent = np.frexp(pow10)
    hi = np.ldexp(np.rint(np.ldexp(mantissa, bits)), exponent - bits)
    lo = (pow10 - hi) + residual
    tie = tol * np.longdouble(2.0) ** -min(bits, 53)

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
        pow10, hi, lo, float(0.5 - tol), float(0.5 - tie),
        words.view(np.uint64).ravel(), last, _templates(),
    )


def _pow10(bits: int):
    """10**p for p in [_P_MIN, _P_MAX] as the C library parses "1e<p>" into long
    double (`bits` significant bits), and 10**p minus that, within a double's
    relative precision. None unless every parse is correctly rounded: within
    half an ulp of 10**p."""
    exponents = range(_P_MIN, _P_MAX + 1)
    value = np.array([f"1e{p}" for p in exponents], np.longdouble)
    if not np.all(np.isfinite(value)):  # as_integer_ratio takes finite values only
        return None
    shifts = (np.frexp(value)[1] - bits).tolist()
    ratios = []
    for p, v, s in zip(exponents, value, shifts):
        n, d = v.as_integer_ratio()
        # 10**p - v in units of v's last place, 2**s, as num / den
        num, den = (10**p * d - n, d) if p >= 0 else (d - n * 10**-p, d * 10**-p)
        num, den = (num << -s, den) if s < 0 else (num, den << s)
        if 2 * abs(num) > den:
            return None
        ratios.append(num / den)
    return value, np.ldexp(np.array(ratios, np.longdouble), shifts)


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
