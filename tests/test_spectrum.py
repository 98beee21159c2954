from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from obreshkov import (
    CATALOG_NAMES,
    FREQUENCY_TUNED,
    ErrorSpectrum,
    OMEGA_SYN,
    ObreshkovTableau,
    error_spectrum,
    frequency_zero_residual,
    make_catalog,
    origin_multiplicity,
    relative_error,
    sweep,
    taylor_coefficients,
)
from obreshkov import solver, spectrum
from obreshkov._csv import CROSSOVER
from obreshkov.spectrum import _taylor_row, write_sweep_csv
from obreshkov.tableau import _powers, _slots

# 50-digit recomputation of R(j*120*pi) for member D at h = 1e-3
D_R_SYN = complex(-0.00083763757609478572, -0.0088665657460972295)
D_R_SYN_ABS = 0.0089060442868172774

MULTIPLICITIES = {
    "BE": 2,
    "BDF2": 3,
    "TR": 3,
    "A": 3,
    "B": 1,
    "C": 5,
    "D": 3,
    "E": 2,
    "F": 4,
}


def catalog(name: str, h: float = 1e-3, omega: float = OMEGA_SYN) -> ObreshkovTableau:
    return make_catalog(name, h, omega_select=omega if name in FREQUENCY_TUNED else None)


def test_relative_error_vanishes_at_origin():
    for name in CATALOG_NAMES:
        assert abs(relative_error(catalog(name), 0.0)) <= 1e-15


def test_relative_error_d_at_syn_frequency():
    t = make_catalog("D", 1e-3)
    r = relative_error(t, 1j * OMEGA_SYN)
    assert r == pytest.approx(D_R_SYN, rel=1e-12)
    assert abs(r) == pytest.approx(D_R_SYN_ABS, rel=1e-12)
    # closed form: (1 - cos th - th^2/2) + j (sin th - th)
    th = OMEGA_SYN * 1e-3
    closed = complex(1.0 - math.cos(th) - th * th / 2.0, math.sin(th) - th)
    assert r == pytest.approx(closed, rel=1e-12)


def test_relative_error_accepts_arrays():
    t = make_catalog("D", 1e-3)
    pts = np.array([0.0 + 0.0j, 1j * OMEGA_SYN, 100.0 + 5.0j])
    vals = relative_error(t, pts)
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(relative_error(t, 1j * OMEGA_SYN), rel=1e-15)


def test_taylor_goldens_at_unit_step():
    d = taylor_coefficients(make_catalog("D", 1.0), 5)
    assert abs(d[0]) <= 1e-15 and abs(d[1]) <= 1e-15 and abs(d[2]) <= 1e-15
    assert d[3] == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert d[4] == pytest.approx(-1.0 / 24.0, rel=1e-13)
    assert d[5] == pytest.approx(1.0 / 120.0, rel=1e-13)

    f = taylor_coefficients(make_catalog("F", 1.0), 5)
    assert max(abs(v) for v in f[:4]) <= 1e-15
    assert f[4] == pytest.approx(1.0 / 72.0, rel=1e-13)
    assert f[5] == pytest.approx(-1.0 / 180.0, rel=1e-13)

    tr = taylor_coefficients(make_catalog("TR", 1.0), 4)
    assert max(abs(v) for v in tr[:3]) <= 1e-15
    assert tr[3] == pytest.approx(-1.0 / 12.0, rel=1e-13)
    assert tr[4] == pytest.approx(1.0 / 24.0, rel=1e-13)


def test_taylor_leading_coefficient_is_consistency_defect():
    t = ObreshkovTableau(k=1, m=1, h=0.1, c0=(0.9,), c=((0.1, 0.0),))
    a = taylor_coefficients(t, 2)
    assert a[0] == pytest.approx(1.0 - 0.9, rel=1e-15)


def test_taylor_rejects_bad_n_max():
    t = make_catalog("TR", 1e-3)
    with pytest.raises(ValueError):
        taylor_coefficients(t, -1)
    with pytest.raises(ValueError):
        taylor_coefficients(t, 2.5)


def test_n_max_is_not_a_bool():
    # True is an int subclass; it would read as n_max = 1
    t = make_catalog("TR", 1e-3)
    with pytest.raises(ValueError, match="^n_max must be a nonnegative integer, got True$"):
        taylor_coefficients(t, True)
    with pytest.raises(ValueError, match="^n_max must be a nonnegative integer, got True$"):
        error_spectrum(t, n_max=True)


def test_origin_multiplicities_match_catalog():
    for name, expected in MULTIPLICITIES.items():
        assert origin_multiplicity(catalog(name)) == expected


def test_origin_multiplicity_is_step_size_free():
    for name in ("BE", "BDF2", "TR", "C", "D", "F"):
        expected = MULTIPLICITIES[name]
        for h in (1e-6, 1e-3, 1.0):
            assert origin_multiplicity(make_catalog(name, h)) == expected
    # tuned members at a different admissible operating point
    assert origin_multiplicity(make_catalog("E", 1.0, omega_select=1.0)) == 2
    assert origin_multiplicity(make_catalog("B", 0.01, omega_select=200.0)) == 1
    assert origin_multiplicity(make_catalog("A", 0.01, omega_select=200.0)) == 3


@pytest.mark.parametrize("h", [1e-6, 1e-3, 1e-40, 1e-150])
def test_second_derivative_multiplicities_are_step_size_free(h):
    # theta = omega*h stays at its 60 Hz value for h = 1e-3
    omega = OMEGA_SYN * 1e-3 / h
    for name in "ABCDEF":
        assert origin_multiplicity(catalog(name, h, omega)) == MULTIPLICITIES[name], name


def test_origin_multiplicity_all_vanishing_reports_bound():
    t = make_catalog("F", 1.0)
    with pytest.raises(ValueError, match=">= 4"):
        origin_multiplicity(t, n_max=3)


def test_error_spectrum_bundle():
    t = make_catalog("D", 1e-3)
    spec = error_spectrum(t)
    assert spec.source is t
    assert spec.origin_multiplicity == 3
    assert len(spec.taylor) == t.k + t.m + 11
    assert spec.taylor == taylor_coefficients(t, t.k + t.m + 10)


def test_frequency_zero_residual_tuned_members():
    for name in ("A", "B", "E"):
        t = catalog(name)
        assert frequency_zero_residual(t, OMEGA_SYN) <= 1e-10


def test_frequency_zero_residual_d_is_large():
    t = make_catalog("D", 1e-3)
    assert frequency_zero_residual(t, OMEGA_SYN) == pytest.approx(D_R_SYN_ABS, rel=1e-12)


def test_series_matches_point_evaluation():
    """Truncated Taylor series agrees with direct evaluation for |s| h <= 0.5."""
    for name in CATALOG_NAMES:
        t = catalog(name)
        a = taylor_coefficients(t, 25)
        for s in (
            0.4 / t.h * cmath.exp(0.3j),
            0.5j / t.h,
            -0.45 / t.h,
            0.3 / t.h * cmath.exp(-2.1j),
        ):
            series = sum(a[n] * s**n for n in range(len(a)))
            point = relative_error(t, s)
            assert abs(series - point) <= 1e-10 * max(abs(point), 1e-6), (name, s)


def test_conjugate_symmetry():
    rng = np.random.default_rng(42)
    for name in CATALOG_NAMES:
        t = catalog(name)
        for _ in range(5):
            s = complex(rng.uniform(-300, 300), rng.uniform(-300, 300))
            a = relative_error(t, s.conjugate())
            b = relative_error(t, s).conjugate()
            assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


def test_sweep_f_beats_d_on_power_band():
    grid = [2.0 * math.pi * f for f in range(10, 121, 10)]
    d = sweep(make_catalog("D", 1e-3), grid)
    f = sweep(make_catalog("F", 1e-3), grid)
    for (w1, rd), (w2, rf) in zip(d, f):
        assert w1 == w2
        assert rf < rd


def test_sweep_small_frequency_limit():
    for name in ("TR", "D", "F"):
        rows = sweep(make_catalog(name, 1e-3), [1e-3])
        assert rows[0][1] <= 1e-6


def test_sweep_minimum_at_selected_frequency():
    t = catalog("B")
    grid = sorted({2.0 * math.pi * f for f in (50, 55, 65, 70)} | {OMEGA_SYN})
    rows = sweep(t, grid)
    values = [v for _, v in rows]
    w_min = rows[values.index(min(values))][0]
    assert w_min == OMEGA_SYN


def test_sweep_rejects_bad_grids():
    t = make_catalog("TR", 1e-3)
    with pytest.raises(ValueError):
        sweep(t, [])
    with pytest.raises(ValueError):
        sweep(t, [2.0, 1.0])
    with pytest.raises(ValueError):
        sweep(t, [1.0, 1.0])
    with pytest.raises(ValueError):
        sweep(t, [1.0, math.inf])


def test_sweep_csv_round_trip(tmp_path):
    t = make_catalog("D", 1e-3)
    rows = sweep(t, [10.0, 100.0, 1000.0])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    first = path.read_bytes()
    write_sweep_csv(rows, path)
    assert path.read_bytes() == first
    lines = first.decode().strip().split("\n")
    assert lines[0] == "omega_rad_s,abs_relative_error"
    assert len(lines) == 4
    for line, (w, v) in zip(lines[1:], rows):
        cw, cv = line.split(",")
        assert float(cw) == w
        assert float(cv) == v


# --------------------------------------------------------------------------
# Equivalence with the per-(i, j) implementation. The copies below are the
# reference: in sigma = s*h and c^ = c / h**i, one power and one np.exp per
# (order, step offset) pair, and a sweep that validates element by element.
# The library shares one exponential per step offset and one power per order
# and validates with array operations; the results must be bit-equal.
# --------------------------------------------------------------------------


def reference_relative_error(t: ObreshkovTableau, s):
    s_arr = np.asarray(s, dtype=complex)
    sigma = s_arr * t.h
    weights = [(0, j, c) for j, c in enumerate(t.c0, start=1)]
    weights += [(i, j, c) for i, row in enumerate(t.c, start=1) for j, c in enumerate(row)]
    total = np.ones_like(s_arr)
    for i, j, c in weights:
        basis = sigma**i * np.exp(-sigma * j) if i else np.exp(-sigma * j)
        total = total - (c / math.prod([t.h] * i)) * basis
    if np.isscalar(s) or np.ndim(s) == 0:
        return complex(total)
    return total


def reference_sweep(t: ObreshkovTableau, omega_grid) -> list[tuple[float, float]]:
    grid = [float(w) for w in omega_grid]
    if not grid:
        raise ValueError("omega_grid must be non-empty")
    if not all(math.isfinite(w) for w in grid):
        raise ValueError("omega_grid must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("omega_grid must be strictly increasing")
    values = np.abs(reference_relative_error(t, 1j * np.asarray(grid)))
    return list(zip(grid, (float(v) for v in values)))


def random_tableaus(seed: int, count: int) -> list[ObreshkovTableau]:
    """Seeded structurally valid tableaus with k, m <= 3, signed zeros included."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k, m = (int(v) for v in rng.integers(1, 4, size=2))
        h = float(10.0 ** rng.uniform(-6, 0))

        def draw(scale):
            v = float(rng.choice([0.0, -0.0, 1.0, rng.normal()]))
            return v * scale

        c0 = tuple(draw(1.0) for _ in range(m))
        c = [[draw(h**i) for _ in range(m + 1)] for i in range(1, k + 1)]
        c[k - 1][0] = float(rng.normal()) * h**k or h**k
        out.append(ObreshkovTableau(k=k, m=m, h=h, c0=c0, c=tuple(tuple(r) for r in c)))
    return out


def equivalence_tableaus() -> list[ObreshkovTableau]:
    return [catalog(name) for name in CATALOG_NAMES] + random_tableaus(2024, 60)


def test_relative_error_is_bit_identical_to_reference():
    rng = np.random.default_rng(7)
    for t in equivalence_tableaus():
        omega = np.geomspace(1e-3, 3.0 / t.h, 257)
        points = [
            1j * omega,
            (rng.normal(size=64) + 1j * rng.normal(size=64)) / t.h,
            np.array([0.0, -0.0, 0.0j, complex(-0.0, -0.0)]),
        ]
        for s in points:
            assert relative_error(t, s).tobytes() == reference_relative_error(t, s).tobytes()
        for s in (0.0, 1j * OMEGA_SYN, complex(-0.0, 2.0 / t.h), 0.3 / t.h):
            got, want = relative_error(t, s), reference_relative_error(t, s)
            assert np.complex128(got).tobytes() == np.complex128(want).tobytes()


def test_sweep_is_bit_identical_to_reference_for_every_input_kind():
    for t in equivalence_tableaus():
        grid = np.geomspace(1.0, 3.0 / t.h, 301)
        want = repr(reference_sweep(t, grid))
        assert repr(sweep(t, grid)) == want
        assert repr(sweep(t, grid.tolist())) == want
        assert repr(sweep(t, tuple(grid))) == want
        assert repr(sweep(t, (w for w in grid))) == want
        assert repr(sweep(t, np.repeat(grid, 2)[::2])) == want  # strided view
    t = make_catalog("F", 1e-3)
    for grid in ([1, 2, 300], np.arange(1, 50), np.linspace(1.0, 900.0, 7, dtype=np.float32)):
        assert repr(sweep(t, grid)) == repr(reference_sweep(t, grid))
        assert all(type(w) is float and type(v) is float for w, v in sweep(t, grid))


def test_sweep_rejections_match_reference():
    t = make_catalog("TR", 1e-3)
    bad_grids = [
        lambda: [],
        lambda: np.array([]),
        lambda: (w for w in ()),
        lambda: [2.0, 1.0],
        lambda: np.array([1.0, 1.0]),
        lambda: [1.0, math.inf],
        lambda: np.array([1.0, math.nan, 3.0]),
        lambda: np.array([-math.inf, 0.0]),
        lambda: np.ones((2, 2)),
        lambda: [[1.0, 2.0], [3.0, 4.0]],
        lambda: np.array(5.0),
        lambda: 5.0,
        lambda: ["a"],
    ]
    for make in bad_grids:
        with pytest.raises(Exception) as ref:
            reference_sweep(t, make())
        with pytest.raises(ref.type):
            sweep(t, make())
    with pytest.raises(TypeError, match="one-dimensional"):
        sweep(t, np.ones((3, 1)))


@pytest.mark.parametrize(
    "grid, shown",
    [
        (["10", "20"], "got '10'"),
        (np.array(["10", "20"]), "got dtype <U2"),
        (np.array([10 + 5j, 20]), "got dtype complex128"),
        ([10.0, 20 + 0j], "got (20+0j)"),
        ([True, 2.0], "got True"),
    ],
    ids=["str-list", "str-array", "complex-array", "complex-entry", "bool-entry"],
)
def test_sweep_takes_only_real_numbers(grid, shown):
    with pytest.raises(ValueError, match=f"^omega_grid must hold real numbers, {re.escape(shown)}$"):
        sweep(make_catalog("TR", 1e-3), grid)


def test_sweep_reads_an_integer_past_the_float_range_as_infinite():
    with pytest.raises(ValueError, match="^omega_grid must be finite$"):
        sweep(make_catalog("TR", 1e-3), [1.0, 10**400])


def test_error_spectrum_matches_separate_calls():
    for t in equivalence_tableaus():
        spec = error_spectrum(t)
        assert repr(spec.taylor) == repr(taylor_coefficients(t, t.k + t.m + 10))
        assert spec.origin_multiplicity == origin_multiplicity(t)
        assert error_spectrum(t, n_max=6, threshold=1e-3) == ErrorSpectrum(
            source=t,
            taylor=taylor_coefficients(t, 6),
            origin_multiplicity=origin_multiplicity(t, n_max=6, threshold=1e-3),
        )


def test_taylor_rows_are_exact_quotients_memoized_per_layout():
    assert solver._taylor_row is spectrum._taylor_row  # the solver reads the same memo
    for k in range(1, 5):
        for m in range(1, 5):
            for n in range(41):
                row = _taylor_row(k, m, n)
                want = [
                    float(Fraction((-j) ** (n - i), math.factorial(n - i))) if n >= i else 0.0
                    for i, j in _slots(k, m)
                ]
                assert type(row) is tuple and repr(list(row)) == repr(want), (k, m, n)
                assert _taylor_row(k, m, n) is row


def test_origin_multiplicity_stops_at_its_answer():
    _taylor_row.cache_clear()
    assert origin_multiplicity(catalog("F")) == 4
    info = _taylor_row.cache_info()
    assert info.hits + info.misses == 5  # rows n = 0..4, not the k + m + 11 of the full series
    assert info.maxsize == 512
    # backward Euler padded to m = 1000: rows past n = 400 leave the float range
    # ((-1000)**400 / 400!), but the answer comes at n = 2
    m = 1000
    t = ObreshkovTableau(k=1, m=m, h=1e-3, c0=(1.0,) + (0.0,) * (m - 1), c=((1e-3,) + (0.0,) * m,))
    assert origin_multiplicity(t) == 2


def test_taylor_row_past_the_float_range_names_its_layout():
    # backward Euler padded to m: the default series of m = 714 reaches (-714)**710 / 710!
    def padded(m):
        return ObreshkovTableau(k=1, m=m, h=1e-3, c0=(1.0,) + (0.0,) * (m - 1), c=((1e-3,) + (0.0,) * m,))

    fine = padded(713)
    assert error_spectrum(fine).origin_multiplicity == 2
    assert len(taylor_coefficients(fine, 723)) == 724
    t = padded(714)
    message = r"^Taylor row n=710 of the \(k=1, m=714\) layout leaves the float range$"
    with pytest.raises(ValueError, match=message):
        error_spectrum(t)
    with pytest.raises(ValueError, match=message):
        taylor_coefficients(t, 724)
    assert origin_multiplicity(t) == 2


@pytest.mark.parametrize("n_max, threshold", [(None, None), (6, None), (None, 1e-3), (4, 1e-12)])
def test_origin_multiplicity_matches_error_spectrum(n_max, threshold):
    for t in equivalence_tableaus():
        try:
            want = error_spectrum(t, n_max, threshold).origin_multiplicity
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                origin_multiplicity(t, n_max, threshold)
        else:
            assert origin_multiplicity(t, n_max, threshold) == want, t


@pytest.mark.parametrize(
    "t, n_max, threshold",
    [
        (make_catalog("D", 1e-3), -1, None),
        (make_catalog("D", 1e-3), 2.0, None),
        (make_catalog("D", 1e-3), True, 0.0),
        (make_catalog("D", 1e-3), 5, 0.0),
        (make_catalog("D", 1e-3), 5, -1e-3),
        (make_catalog("D", 1e-3), 5, math.nan),
        (make_catalog("D", 1e-3), None, "1e-3"),
        (ObreshkovTableau(k=1, m=1, h=1e-3, c0=(1.0,), c=((0.0, 0.0),)), 5, 0.0),
        (ObreshkovTableau(k=1, m=1, h=-1.0, c0=(1.0,), c=((1.0, 0.0),)), -1, 0.0),
        (make_catalog("F", 1e-3), 3, None),
        (make_catalog("D", 1e-3), 2, 10.0),
    ],
)
def test_origin_multiplicity_raises_as_error_spectrum_does(t, n_max, threshold):
    # checks in order: the tableau, n_max, threshold, then the vanishing series
    with pytest.raises(Exception) as want:
        error_spectrum(t, n_max, threshold)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        origin_multiplicity(t, n_max, threshold)


def exact_taylor_terms(t: ObreshkovTableau, n: int) -> list[Fraction]:
    """The terms of a_n in rational arithmetic, from the tableau's floats taken as exact."""
    h = Fraction(t.h)
    terms = [Fraction(1)] if n == 0 else []
    slots = [(0, j, c) for j, c in enumerate(t.c0, start=1)]
    slots += [(i, j, c) for i, row in enumerate(t.c, start=1) for j, c in enumerate(row)]
    for i, j, c in slots:
        if n >= i:
            terms.append(-Fraction(c) * (-j * h) ** (n - i) / math.factorial(n - i))
    return terms


def test_taylor_coefficients_match_exact_evaluation():
    # In each term (-c) * ((-jh)^(n-i) / (n-i)!), the rounding of j*h grows to
    # (n-i) units u = 2**-53 through the power; pow, the float conversion of
    # (n-i)!, the division and the product with -c add one each, and fsum
    # rounds the sum once. That is (n + 5) * u * sum|terms| to first order;
    # the bound allows (n + 7).
    u = Fraction(1, 2**53)
    for t in equivalence_tableaus():
        n_max = t.k + t.m + 10
        for n, a in enumerate(taylor_coefficients(t, n_max)):
            terms = exact_taylor_terms(t, n)
            magnitude = sum(abs(x) for x in terms)
            assert abs(Fraction(a) - sum(terms)) <= (n + 7) * u * magnitude, (t, n)


def exact_multiplicity(t: ObreshkovTableau, tau: Fraction) -> int | None:
    """First n whose exact |a_n| / sum|terms of a_n| exceeds tau; None when a
    ratio up to that n lies within a factor 10 of tau, or none exceeds it."""
    for n in range(t.k + t.m + 11):
        terms = exact_taylor_terms(t, n)
        size = sum(abs(x) for x in terms)
        ratio = abs(sum(terms)) / size if size else Fraction(0)
        if tau / 10 < ratio < 10 * tau:
            return None
        if ratio > tau:
            return n
    return None


def test_origin_multiplicity_matches_exact_ratio_test():
    # a_n vanishes when it is round-off against its own terms; the ratio is
    # the same in powers of s and of sigma = s*h
    compared = 0
    for t in equivalence_tableaus():
        expected = exact_multiplicity(t, Fraction(1, 10**10))
        if expected is not None:
            assert origin_multiplicity(t) == expected, t
            compared += 1
    assert compared >= 60


def test_f_at_step_1e_minus_40_has_multiplicity_4():
    # h**9 is 0.0 in double precision at h = 1e-40; the zero test never forms it
    t = make_catalog("F", 1e-40)
    assert origin_multiplicity(t) == 4
    assert error_spectrum(t).origin_multiplicity == 4
    assert origin_multiplicity(t, n_max=6) == 4


def reference_sweep_csv(rows) -> bytes:
    """Sweep CSV formatted one row at a time, the bytes write_sweep_csv must produce."""
    lines = ["omega_rad_s,abs_relative_error"]
    for w, v in rows:
        lines.append(f"{w:.17g},{v:.17g}")
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("points", [40, 2000])
def test_sweep_csv_bytes_match_row_formatter(tmp_path, points):
    # 40 rows are formatted row by row, 2000 through the array path
    assert 40 < CROSSOVER <= 2000
    rows = sweep(make_catalog("D", 1e-3), np.geomspace(1.0, 3e3, points))
    for i, value in enumerate((-0.0, 5e-324, 1e300, math.inf, math.nan)):
        rows[2 * i] = (rows[2 * i][0], value)
        rows[2 * i + 1] = (value, rows[2 * i + 1][1])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    assert path.read_bytes() == reference_sweep_csv(rows)


def test_frequency_residual_names_an_integer_past_the_float_range():
    with pytest.raises(ValueError, match="^omega must be finite"):
        frequency_zero_residual(catalog("D"), 10**400)


def test_series_entry_points_check_the_tableau_before_their_default_depth():
    # the default n_max = k + m + 10 is formed only once the tableau has passed its check
    t = ObreshkovTableau(k=None, m=1, h=1e-3, c0=(1.0,), c=((1e-3, 1e-3),))
    with pytest.raises(ValueError) as want:
        taylor_coefficients(t, 5)
    assert str(want.value) == "invalid tableau: k must be a positive integer, got None"
    for entry_point in (origin_multiplicity, error_spectrum):
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            entry_point(t)


def test_taylor_coefficients_has_no_default_depth():
    with pytest.raises(ValueError, match="^n_max must be a nonnegative integer, got None$"):
        taylor_coefficients(make_catalog("TR", 1e-3), None)


def test_a_vanishing_scaled_coefficient_stays_zero_where_h_to_the_n_overflows():
    # a^_n underflows to zero where 1/n! does, and h**n overflows from n = 309 at h = 10
    # (from n = 647 at h = 3); a_n = a^_n * h**n would be 0 * inf = nan there
    for t, n_max in ((make_catalog("TR", 10.0), 400), (make_catalog("BDF2", 3.0), 700)):
        scaled = [a_hat for a_hat, _ in spectrum._series(t, n_max)]
        taylor = taylor_coefficients(t, n_max)
        kept = [(a, a_hat) for a, a_hat, p in zip(taylor, scaled, _powers(t.h, n_max)) if math.isinf(p)]
        assert kept and all(a_hat == 0.0 for _, a_hat in kept)
        assert [repr(a) for a, _ in kept] == [repr(a_hat) for _, a_hat in kept]  # sign included
        assert not any(map(math.isnan, taylor))
        assert error_spectrum(t, n_max).taylor == taylor


def test_a_nonzero_scaled_coefficient_past_the_float_range_is_infinite():
    # TR's a^_n = (-1)^n (n/2 - 1) / n!; at h = 1e10, a^_40 * 1e400 overflows
    a = taylor_coefficients(make_catalog("TR", 1e10), 41)
    assert a[40] == math.inf and a[41] == -math.inf
