"""The output layer: float-CSV text exactly as "%.17g" gives it, and file modes."""
from __future__ import annotations

import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obreshkov import _csv
from obreshkov._files import atomic_write_text
from obreshkov.spectrum import write_sweep_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")
TABLES = _csv._tables()
# an exact rounding tie at 17 digits: 2**-25 = 2.98023223876953125e-08
TIE = 2.0**-25


def array_path(values) -> list[str]:
    """Each value as the array path formats it."""
    column = np.asarray(values, dtype=np.float64)
    return _csv._rows([column], None, TABLES).split("\n")[:-1]


def assert_formats_as_percent(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    got = array_path(values)
    assert len(got) == len(values)
    bad = [(v, g) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
    assert not bad, bad[:5]


def test_random_bit_patterns():
    bits = np.random.default_rng(20260418).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert_formats_as_percent(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    with np.errstate(over="ignore"):
        values = np.concatenate(
            [
                powers,
                np.nextafter(powers, np.inf),
                np.nextafter(powers, 0.0),
                powers * 5.0,
                powers * 9.5,
            ]
        )
    assert_formats_as_percent(np.concatenate([values, -values]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1))
def test_any_floats(values):
    assert_formats_as_percent(values)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0] * 300,
        [TIE] * 600,
        [np.nextafter(TIE, 1.0), -np.nextafter(TIE, 0.0)] * 300,
    ],
    ids=["zeros", "tie", "next-to-tie"],
)
def test_uniform_columns(values):
    assert "%.17g" % TIE == "2.9802322387695312e-08"  # the tie rounds to even
    assert_formats_as_percent(values)


def test_scale_table_is_correctly_rounded():
    hi, hi1, hi2, lo = TABLES[:4]
    exponents = range(16 - _csv._E_MAX, 16 - _csv._E_MIN + 1)
    assert len(hi) == len(lo) == len(exponents)
    worst = Fraction(0)
    for p, h, l in zip(exponents, hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** p
        assert h == float(exact), p
        assert l == float(exact - Fraction(h)), p
        worst = max(worst, abs(exact - Fraction(h) - Fraction(l)) / exact)
    assert worst <= Fraction(1, 2**105)
    # Dekker's split: hi = hi1 + hi2 exactly, each half of at most 26 bits
    assert np.array_equal(hi1 + hi2, hi)
    for half in (hi1, hi2):
        mantissa = np.abs(np.ldexp(np.frexp(half)[0], 26))
        assert np.array_equal(mantissa, np.floor(mantissa))


def near_ties(rng):
    """Doubles a = M * 2**-(k + p) with a * 10**p = M * 5**p / 2**k in [2e16, 9e16),
    and the fraction of a * 10**p exactly 1/2 + t / 2**k: M * 5**p = 2**(k - 1) + t
    (mod 2**k). Returns them with their offsets |t| / 2**k from the tie, 1e-12 to 1e-8."""
    values, offsets = [], []
    for k in range(32, 48):
        for p in range(13, 25):
            low = -(-(2 * 10**16 << k) // 5**p)
            high = min((9 * 10**16 << k) // 5**p, 2**53)
            if high - low < 2**k:
                continue
            for sign in (-1, 1):
                t = sign * int(10.0 ** rng.uniform(-12, -8) * 2**k)
                m = (2 ** (k - 1) + t) * pow(5**p, -1, 2**k) % 2**k
                m += -(-(low - m) // 2**k) * 2**k  # the least M >= low in that residue class
                assert (m * 5**p - 2 ** (k - 1) - t) % 2**k == 0 and m < high
                values.append(m * 2.0 ** -(k + p))
                offsets.append(abs(t) / 2**k)
    return np.array(values), np.array(offsets)


def exact_ties(rng):
    """m * 2**-k with m odd and m * 5**k of 18 digits: the exact decimal ends in
    a 5 right after the 17th digit."""
    ties = []
    for k in range(2, 26):
        low, high = -(-(10**17) // 5**k), min(10**18 // 5**k, 2**53)
        ms = {int(m) * 2 + 1 for m in rng.integers(low // 2, (high - 1) // 2, 8)}
        assert all(len(str(m * 5**k)) == 18 for m in ms)
        ties += [m * 2.0**-k for m in ms]
    return ties


def test_near_and_exact_ties_in_a_long_table_match_row_formatting():
    rng = np.random.default_rng(15)
    near, offsets = near_ties(rng)
    # both sides of the 1e-9 band: inside it a value takes the % path, outside the array path
    slow = _csv._scaled(near, TABLES)[2]
    inside, outside = offsets < 0.99 * _csv._TIE, offsets > 1.01 * _csv._TIE
    assert inside.sum() >= 20 and outside.sum() >= 20
    assert slow[inside].all() and not slow[outside].any()
    ties = exact_ties(rng)
    assert "%.17g" % (2.0**50 + 0.25) == "1125899906842624.2"  # such a tie rounds to even
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = np.concatenate(
        [near, ties, powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)]
    )
    values = np.concatenate([values, -values])
    text = _csv.table("v", [values])
    assert text == "\n".join(["v", *("%.17g" % v for v in values.tolist())]) + "\n"


def test_few_values_of_a_long_trace_take_the_percent_path():
    from obreshkov.simulator import Cosine, run
    from obreshkov.tableau import make_catalog

    rng = np.random.default_rng(15)
    h = 1e-4
    sig = Cosine(float(rng.uniform(0.01, 1.0)) / h, float(rng.uniform(0.5, 2.0)))
    trace = run(make_catalog("TR", h), sig, 8000 * h, (sig.deriv(1, 0.0) + 0.3,))
    values = np.column_stack((trace.grid, trace.computed, trace.exact, trace.error)).ravel()
    assert len(trace.grid) == 8001
    slow = _csv._scaled(values, TABLES)[2]
    assert slow.sum() < 0.005 * values.size


def test_short_and_long_tables_match_row_formatting():
    rng = np.random.default_rng(7)
    for n in (1, _csv.CROSSOVER - 1, _csv.CROSSOVER, 3 * _csv.CROSSOVER + 7):
        columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n) for _ in range(3)]
        flags = tuple(rng.choice(["init", "startup", "main"], n).tolist())
        # a NUL inside or at the end of a label is text, which "%s" keeps
        nuls = tuple(("a\0b", "main\0")[i % 2] for i in range(n))
        for labels in (flags, nuls):
            lines = [",".join("%.17g" % c[i] for c in columns) + f",{labels[i]}" for i in range(n)]
            assert _csv.table("a,b,c,flag", columns, labels) == "\n".join(["a,b,c,flag", *lines]) + "\n"


def row_join(columns, labels) -> str:
    """The lines of the columns as "%.17g" values joined by commas, then ",label"."""
    rows = zip(*[c.tolist() for c in columns])
    lines = [",".join("%.17g" % v for v in row) for row in rows]
    if labels is not None:
        lines = [f"{line},{label}" for line, label in zip(lines, labels)]
    return "".join(line + "\n" for line in lines)


# values that take the % path: an exact tie, a grid point, non-finite, subnormal
PERCENT_VALUES = (TIE, 0.0001, math.inf, math.nan, 5e-324)


def runs(n, ends, names=("init", "startup", "main")) -> tuple[str, ...]:
    """n labels in runs of names (trace flags by default) that end before the rows in ends."""
    bounds = [min(max(e, 0), n) for e in ends] + [n]
    start, out = 0, []
    for name, stop in zip(names, bounds):
        out += [name] * (stop - start)
        start = stop
    return tuple(out)


@pytest.mark.parametrize("ncols", [1, 2, 4])
def test_tables_across_chunk_edges_match_row_formatting(ncols):
    assert _csv._scaled(np.array(PERCENT_VALUES), TABLES)[2].all()
    step = -(-_csv._CHUNK // ncols)
    rng = np.random.default_rng(ncols)
    header = ",".join(f"c{j}" for j in range(ncols)) + ",flag"
    for n in (step - 1, step, step + 1, 2 * step + 1):
        columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n) for _ in range(ncols)]
        # the first and the last row of every chunk hold %-path values
        for row in {0, *range(step - 1, n, step), *range(step, n, step), n - 1}:
            for j, column in enumerate(columns):
                column[row] = PERCENT_VALUES[(row + j) % len(PERCENT_VALUES)]
        cycle = tuple(("init", "startup", "main")[r % 3] for r in range(n))  # not runs
        # nine or more runs of distinct labels a, bb, ccc, ..., ending at and inside chunk edges
        ends = (1, 3, 6, 10, 15, 21, 28, 36, step - 1, step, 2 * step - 1, 2 * step)
        many = runs(n, ends, [chr(ord("a") + j) * (j + 1) for j in range(len(ends) + 1)])
        assert len(set(many)) >= 9
        for labels in (
            None,
            runs(n, (step, 2 * step)),  # each run changes at a chunk edge
            runs(n, (step - 1, 2 * step - 1)),  # and one row inside the chunk
            cycle,
            many,
        ):
            want = row_join(columns, labels)
            assert _csv._rows(columns, labels, TABLES) == want, (n, labels is None)
            if labels is not None:
                assert _csv.table(header, columns, labels) == header + "\n" + want


def test_long_trace_table_peaks_below_four_times_its_text():
    from obreshkov.simulator import Cosine, run
    from obreshkov.tableau import make_catalog

    h = 1e-4
    sig = Cosine(377.0, 1.0)
    trace = run(make_catalog("TR", h), sig, 8000 * h, (sig.deriv(1, 0.0) + 0.3,))
    columns = (trace.grid, trace.computed, trace.exact, trace.error)
    assert len(trace.grid) == 8001 and {"init", "main"} <= set(trace.flags)
    header = "t,computed,exact,error,flag"
    _csv.table(header, columns, trace.flags)
    tracemalloc.start()
    try:
        text = _csv.table(header, columns, trace.flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == header + "\n" + row_join(columns, trace.flags)
    assert peak < 4 * len(text), peak / len(text)


def test_output_files_take_their_mode_from_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        atomic_write_text(tmp_path / "note.txt", "x\n")
        write_sweep_csv([(1.0, 2.0)], tmp_path / "sweep.csv")
    finally:
        os.umask(old)
    for name in ("note.txt", "sweep.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["note.txt", "sweep.csv"]


def test_tables_are_built_on_the_first_long_table_only():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import numpy as np, obreshkov.cli\n"
        "from obreshkov import _csv\n"
        "built = lambda: _csv._tables.cache_info().currsize\n"
        "print(built())\n"
        "_csv.table('x', [np.ones(_csv.CROSSOVER - 1)])\n"
        "print(built())\n"
        "_csv.table('x', [np.ones(_csv.CROSSOVER)])\n"
        "print(built())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "1"]


def test_short_tables_take_the_array_path_once_the_tables_exist(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import json, sys, numpy as np\n"
        "from obreshkov import _csv\n"
        "from obreshkov.spectrum import write_sweep_csv\n"
        "calls, rows = [], _csv._rows\n"
        "_csv._rows = lambda *a: calls.append(len(a[0][0])) or rows(*a)\n"
        "_csv.table('x', [np.ones(_csv.CROSSOVER)])\n"
        "pairs = np.array(json.loads(sys.argv[1]))\n"
        "texts = [_csv.table('a,b', (pairs[:n, 0], pairs[:n, 1])) for n in (100, 5)]\n"
        "write_sweep_csv([], sys.argv[2])\n"
        "print(json.dumps([calls, texts]))\n"
    )
    rng = np.random.default_rng(5)
    pairs = (rng.standard_normal((100, 2)) * 10.0 ** rng.integers(-30, 30, (100, 2))).tolist()
    path = tmp_path / "empty.csv"
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(pairs), str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls, texts = json.loads(proc.stdout)
    # the long table builds the tables and the 100-row table follows it through
    # _rows; 5 rows (10 values) and the empty table stay on the per-row path
    assert calls == [_csv.CROSSOVER, 100]
    for n, text in zip((100, 5), texts):
        assert text == "\n".join(["a,b", *("%.17g,%.17g" % tuple(p) for p in pairs[:n])]) + "\n"
    assert path.read_text() == "omega_rad_s,abs_relative_error\n"


def temp_files(directory: Path) -> list[str]:
    return [p.name for p in directory.iterdir() if p.name.startswith(".tmp-")]


def test_identical_rewrite_leaves_the_file_in_place(tmp_path):
    path = tmp_path / "out.csv"
    atomic_write_text(path, "a,b\n1,2\n")
    os.utime(path, (1_000_000_000, 1_000_000_000))
    before = os.stat(path)
    atomic_write_text(path, "a,b\n1,2\n")
    after = os.stat(path)
    assert after.st_ino == before.st_ino
    assert after.st_mtime > before.st_mtime + 1e8
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert temp_files(tmp_path) == []


def hard_link(path: Path) -> None:
    os.link(path, path.with_name("twin"))


def symlink(path: Path) -> None:
    os.replace(path, path.with_name("target"))
    os.symlink("target", path)


@pytest.mark.parametrize(
    "old, new, prepare",
    [
        ("x,1\n", "x,2\n", None),
        ("x,1\n", "x,10\n", None),
        ("x,1\n", "x,1\n", lambda path: os.chmod(path, 0o600)),
        ("x,1\n", "x,1\n", symlink),
        ("x,1\n", "x,1\n", hard_link),
    ],
    ids=["same-size", "other-size", "other-mode", "symlink", "hard-link"],
)
def test_other_rewrites_replace_the_file(tmp_path, old, new, prepare):
    path = tmp_path / "out.csv"
    umask = os.umask(0o022)
    try:
        atomic_write_text(path, old)
        if prepare is not None:
            prepare(path)
        kept = {p.name: (os.lstat(p).st_ino, p.read_bytes()) for p in tmp_path.iterdir()}
        atomic_write_text(path, new)
    finally:
        os.umask(umask)
    st = os.lstat(path)
    assert stat.S_ISREG(st.st_mode) and st.st_nlink == 1
    assert stat.S_IMODE(st.st_mode) == 0o644
    assert st.st_ino != kept["out.csv"][0]
    assert path.read_bytes() == new.encode()
    for name in ("target", "twin"):  # a symlink's target and a second link keep the old file
        if name in kept:
            assert (os.lstat(tmp_path / name).st_ino, (tmp_path / name).read_bytes()) == kept[name]
    assert temp_files(tmp_path) == []


def test_unencodable_payload_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    atomic_write_text(path, "x,1\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "x,\ud800\n")
    assert path.read_bytes() == b"x,1\n"
    assert temp_files(tmp_path) == []


def test_write_onto_a_directory_leaves_it_and_no_temp_file(tmp_path):
    # the temp file exists when the rename fails, so the cleanup removes it
    target = tmp_path / "out"
    target.mkdir()
    (target / "kept").write_text("x")
    with pytest.raises(IsADirectoryError):
        atomic_write_text(target, "x,1\n")
    assert [p.name for p in target.iterdir()] == ["kept"] and (target / "kept").read_text() == "x"
    assert temp_files(tmp_path) == []
