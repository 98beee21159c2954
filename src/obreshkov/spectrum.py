"""Transfer-domain error analysis of a differentiator tableau.

The relative error function of a tableau is

    R(s) = 1 - sum_j c0[-j] e^(-s j h) - sum_i sum_j c[i][-j] s^i e^(-s j h)

(step index j in the exponent). In sigma = s h and c^_ij = c_ij / h^i it is
1 - sum_ij c^_ij sigma^i e^(-sigma j), so h enters only through sigma and the
scale h^i of each order-i slot; R, its Taylor series about the origin (in
closed form) and the solver's rows are all evaluated in that basis. The
number of leading Taylor coefficients that vanish is the zero multiplicity.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from ._files import atomic_write_text
from ._numpy import np
from .tableau import ObreshkovTableau, _finite, _is_int, _powers, _shown, _slots, _steps

__all__ = [
    "ErrorSpectrum",
    "error_spectrum",
    "frequency_zero_residual",
    "origin_multiplicity",
    "relative_error",
    "sweep",
    "taylor_coefficients",
    "write_sweep_csv",
]

# a sum this small against the magnitudes of its terms is round-off standing in
# for an exact zero: a Taylor coefficient, or a solved current k-th derivative weight
_ZERO_TOL = 1e-10


def _scaled_values(t: ObreshkovTableau) -> list[float]:
    """c^_ij = c_ij / h^i in _slots order."""
    return [c / p for row, p in zip((t.c0, *t.c), _powers(t.h, t.k)) for c in row]


def _basis(k: int, m: int, sigma):
    """sigma^i e^(-sigma j) for each (i, j) of _slots(k, m) in turn, at a complex
    sigma or an array of them; one exponential per step offset, one power per order."""
    sigma = np.asarray(sigma, dtype=complex)
    shift = [np.exp(-sigma * j) for j in range(m + 1)]
    power = [None] + [sigma**i for i in range(1, k + 1)]
    return (power[i] * shift[j] if i else shift[j] for i, j in _slots(k, m))


def relative_error(t: ObreshkovTableau, s):
    """R(s) = 1 - sum c^ basis(s h) for a scalar or array of complex Laplace points."""
    s_arr = np.asarray(s, dtype=complex)
    total = np.ones_like(s_arr)
    for c_hat, b in zip(_scaled_values(t), _basis(t.k, t.m, s_arr * t.h)):
        total = total - c_hat * b
    if np.isscalar(s) or np.ndim(s) == 0:
        return complex(total)
    return total


@functools.lru_cache(maxsize=512)
def _taylor_row(k: int, m: int, n: int) -> tuple[float, ...]:
    """Coefficient of sigma^n in each basis function of _slots(k, m): (-j)^(n-i) / (n-i)!,
    one rounding of an integer quotient, or 0.0 where n < i.

    A row depends on the layout and n only, so the series and the solver share one
    memo. 512 rows hold every layout and order a synthesis screen asks for: a
    seeded synth_screen pass draws about 5,600 rows, 135 of them distinct. The row
    is built order by order, (0, 1..m) then (i, 0..m), without a second copy of
    the layout.
    """
    row = []
    for i in range(k + 1):
        steps = _steps(i, m)
        if n < i:
            row += [0.0] * len(steps)
        else:
            p, f = n - i, math.factorial(n - i)
            try:
                row += [(-j) ** p / f for j in steps]
            except OverflowError:
                raise ValueError(
                    f"Taylor row n={n} of the (k={k}, m={m}) layout leaves the float range"
                ) from None
    return tuple(row)


def _depth(t: ObreshkovTableau, at_least: int = 0) -> int:
    """The default Taylor depth n_max = k + m + 10, or at_least where that is deeper."""
    return max(t.k + t.m + 10, at_least)


def _series(t: ObreshkovTableau, n_max: int, threshold: float | None = None):
    """(a^_n = a_n / h^n, sum of the magnitudes of a^_n's terms), n = 0..n_max,
    each computed only when it is drawn, once n_max, then threshold are checked
    (t checked itself as it was built).

    a^_n = [n=0] - sum_ij c^_ij (-j)^(n-i) / (n-i)!, the coefficient of sigma^n.
    """
    if not _is_int(n_max) or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {_shown(n_max)}")
    if threshold is not None and not threshold > 0:
        raise ValueError(f"threshold must be positive, got {_shown(threshold)}")
    negated = [-c for c in _scaled_values(t)]
    terms = ([n == 0, *map(operator.mul, negated, _taylor_row(t.k, t.m, n))] for n in range(n_max + 1))
    return ((math.fsum(x), sum(map(abs, x))) for x in terms)


def _scaled_back(series, h: float) -> tuple[float, ...]:
    """a_n = a^_n h^n for the drawn series: 0.0 where a_n underflows, +-inf where a
    nonzero a^_n's a_n overflows, and a vanishing a^_n's own zero, sign included."""
    return tuple(a_hat * p if a_hat else a_hat for (a_hat, _), p in zip(series, _powers(h, len(series) - 1)))


def _multiplicity(series, threshold: float | None) -> int:
    """The smallest n whose a^_n does not vanish (see error_spectrum), drawing the
    series only that far."""
    for n, (a_hat, size) in enumerate(series):
        if abs(a_hat) > (_ZERO_TOL * size if threshold is None else threshold):
            return n
    raise ValueError(f"all Taylor coefficients vanish up to n={n}; multiplicity >= {n + 1}")


def taylor_coefficients(t: ObreshkovTableau, n_max: int) -> tuple[float, ...]:
    """Closed-form a_0..a_n_max of R about s = 0."""
    return _scaled_back(list(_series(t, n_max)), t.h)


def origin_multiplicity(
    t: ObreshkovTableau, n_max: int | None = None, threshold: float | None = None
) -> int:
    """Smallest n whose Taylor coefficient a_n does not vanish; see error_spectrum.
    The coefficients past that n are never computed."""
    return _multiplicity(_series(t, _depth(t) if n_max is None else n_max, threshold), threshold)


@dataclass(frozen=True)
class ErrorSpectrum:
    """Taylor view of R about the origin plus its zero multiplicity there."""

    source: ObreshkovTableau
    taylor: tuple[float, ...]
    origin_multiplicity: int


def error_spectrum(
    t: ObreshkovTableau, n_max: int | None = None, threshold: float | None = None
) -> ErrorSpectrum:
    """a_0..a_n_max (n_max defaults to k + m + 10) and the origin multiplicity.

    The multiplicity is the smallest n whose a^_n = a_n / h^n does not vanish.
    By default a^_n vanishes when it is round-off against its terms, at most
    1e-10 times the sum of their magnitudes, at any step size; an explicit
    threshold makes it vanish when |a^_n| <= threshold.
    """
    series = list(_series(t, _depth(t) if n_max is None else n_max, threshold))
    return ErrorSpectrum(t, _scaled_back(series, t.h), origin_multiplicity=_multiplicity(series, threshold))


def frequency_zero_residual(t: ObreshkovTableau, omega: float) -> float:
    """|R(j omega)|; how close the tableau comes to an exact zero at omega."""
    if not _finite(omega):
        raise ValueError(f"omega must be finite, got {_shown(omega)}")
    return abs(relative_error(t, 1j * omega))


def sweep(t: ObreshkovTableau, omega_grid) -> list[tuple[float, float]]:
    """|R(j omega)| over a strictly increasing frequency grid.

    omega_grid is a 1-D array of an integer or floating dtype, or any iterable
    of ints and floats; the rows are (omega, |R(j omega)|) pairs of Python floats.
    """
    if isinstance(omega_grid, np.ndarray):
        if omega_grid.dtype.kind not in "iuf":
            raise ValueError(f"omega_grid must hold real numbers, got dtype {omega_grid.dtype}")
    else:
        omega_grid = list(omega_grid)
        for w in omega_grid:
            if not isinstance(w, (int, float)) or isinstance(w, bool):
                if np.ndim(w):
                    shape = np.shape(w)
                    raise TypeError(f"omega_grid must be one-dimensional, got an entry of shape {shape}")
                raise ValueError(f"omega_grid must hold real numbers, got {_shown(w)}")
        # an int past the float range is as infinite as the float it would round to
        omega_grid = [float(w) if _finite(w) else math.inf for w in omega_grid]
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1:
        raise TypeError(f"omega_grid must be one-dimensional, got shape {grid.shape}")
    if not grid.size:
        raise ValueError("omega_grid must be non-empty")
    if not np.isfinite(grid).all():
        raise ValueError("omega_grid must be finite")
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError("omega_grid must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.abs(relative_error(t, 1j * grid))
    if not np.isfinite(values).all():
        w = float(grid[~np.isfinite(values)][0])
        raise ValueError(f"|R(j omega)| leaves the float range at omega={w!r}, first on the grid")
    return list(zip(grid.tolist(), values.tolist()))


def write_sweep_csv(rows, path) -> None:
    """CSV with 17-significant-digit columns; identical input gives identical bytes."""
    from ._csv import table  # loaded by the first CSV write, not by every import

    rows = list(rows)
    # fromiter counts values, not rows: a row of 3, or a row of 1 beside a row of 3, would pass it
    widths = set(map(len, rows)) - {2}
    if widths:
        raise ValueError(
            f"sweep rows must be (omega, value) pairs, got a row of length {min(widths)}"
        )
    values = itertools.chain.from_iterable(rows)
    pairs = np.fromiter(values, np.float64, 2 * len(rows)).reshape(len(rows), 2)
    atomic_write_text(path, table("omega_rad_s,abs_relative_error", (pairs[:, 0], pairs[:, 1])))
