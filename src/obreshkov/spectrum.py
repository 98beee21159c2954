"""Transfer-domain error analysis of a differentiator tableau.

The relative error function of a tableau is

    R(s) = 1 - sum_j c0[-j] e^(-s j h) - sum_i sum_j c[i][-j] s^i e^(-s j h)

(step index j in the exponent). Its Taylor coefficients about s = 0 are
obtained in closed form, never by finite differencing, and the number of
leading coefficients that vanish is the differentiator's zero multiplicity
at the origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._files import atomic_write_text
from ._numpy import np
from .tableau import ObreshkovTableau, require_structural

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


def relative_error(t: ObreshkovTableau, s):
    """R(s) for a scalar or array of complex Laplace points."""
    require_structural(t)
    s_arr = np.asarray(s, dtype=complex)
    # one exponential per step offset, shared by every derivative order
    shift = [np.exp(-s_arr * (j * t.h)) for j in range(t.m + 1)]
    total = np.ones_like(s_arr)
    for j in range(1, t.m + 1):
        total = total - t.c0[j - 1] * shift[j]
    for i in range(1, t.k + 1):
        si = s_arr**i
        for j in range(0, t.m + 1):
            total = total - t.c[i - 1][j] * si * shift[j]
    if np.isscalar(s) or np.ndim(s) == 0:
        return complex(total)
    return total


def taylor_coefficients(t: ObreshkovTableau, n_max: int) -> tuple[float, ...]:
    """Closed-form a_0..a_n_max of R about s = 0.

    a_n = [n=0] - sum_j c0[-j] (-jh)^n / n!
               - sum_i sum_j c[i][-j] (-jh)^(n-i) / (n-i)!   (terms with n < i omitted)
    """
    require_structural(t)
    if not isinstance(n_max, int) or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max!r}")
    out = []
    for n in range(n_max + 1):
        terms = [1.0] if n == 0 else []
        for j in range(1, t.m + 1):
            terms.append(-t.c0[j - 1] * (-j * t.h) ** n / math.factorial(n))
        for i in range(1, min(t.k, n) + 1):
            for j in range(0, t.m + 1):
                base = (-j * t.h) ** (n - i)  # 0.0**0 == 1.0 covers the current-time slot
                terms.append(-t.c[i - 1][j] * base / math.factorial(n - i))
        out.append(math.fsum(terms))
    return tuple(out)


def _default_n_max(t: ObreshkovTableau) -> int:
    return t.k + t.m + 10


def _multiplicity(t: ObreshkovTableau, coeffs, threshold: float | None) -> int:
    """Smallest n with |a_n| / h^n above threshold, for a_0..a_n_max in coeffs."""
    n_max = len(coeffs) - 1
    scales = [t.h**n for n in range(n_max + 1)]
    if scales[-1] == 0.0:
        n = scales.index(0.0)
        raise ValueError(
            f"h**{n} underflows to 0 at h={t.h!r}; the Taylor coefficients up to "
            f"n={n_max} cannot be normalized by h**n"
        )
    normalized = [abs(a) / scale for a, scale in zip(coeffs, scales)]
    if threshold is None:
        threshold = 1e-10 * max(1.0, max(normalized))
    elif not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold!r}")
    for n, b in enumerate(normalized):
        if b > threshold:
            return n
    raise ValueError(
        f"all Taylor coefficients vanish up to n={n_max}; multiplicity >= {n_max + 1}"
    )


def origin_multiplicity(
    t: ObreshkovTableau, n_max: int | None = None, threshold: float | None = None
) -> int:
    """Smallest n with |a_n| / h^n above threshold.

    The h-normalization makes the test scale-free: a_n grows like h^n across
    step sizes, so the same tableau family reports the same multiplicity at
    any admissible h. The default threshold is 1e-10 relative to the largest
    normalized coefficient (floored at 1). A step so small that h^n underflows
    to 0 for some n <= n_max raises ValueError.
    """
    if n_max is None:
        n_max = _default_n_max(t)
    return _multiplicity(t, taylor_coefficients(t, n_max), threshold)


@dataclass(frozen=True)
class ErrorSpectrum:
    """Taylor view of R about the origin plus its zero multiplicity there."""

    source: ObreshkovTableau
    taylor: tuple[float, ...]
    origin_multiplicity: int


def error_spectrum(
    t: ObreshkovTableau, n_max: int | None = None, threshold: float | None = None
) -> ErrorSpectrum:
    if n_max is None:
        n_max = _default_n_max(t)
    taylor = taylor_coefficients(t, n_max)
    return ErrorSpectrum(
        source=t, taylor=taylor, origin_multiplicity=_multiplicity(t, taylor, threshold)
    )


def frequency_zero_residual(t: ObreshkovTableau, omega: float) -> float:
    """|R(j omega)|; how close the tableau comes to an exact zero at omega."""
    if not (isinstance(omega, (int, float)) and math.isfinite(omega)):
        raise ValueError(f"omega must be finite, got {omega!r}")
    return abs(relative_error(t, 1j * omega))


def sweep(t: ObreshkovTableau, omega_grid) -> list[tuple[float, float]]:
    """|R(j omega)| over a strictly increasing frequency grid.

    omega_grid is a 1-D array or any iterable of real numbers; the rows are
    (omega, |R(j omega)|) pairs of Python floats.
    """
    if not isinstance(omega_grid, np.ndarray):
        omega_grid = [float(w) for w in omega_grid]
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1:
        raise TypeError(f"omega_grid must be one-dimensional, got shape {grid.shape}")
    if not grid.size:
        raise ValueError("omega_grid must be non-empty")
    if not np.isfinite(grid).all():
        raise ValueError("omega_grid must be finite")
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError("omega_grid must be strictly increasing")
    values = np.abs(relative_error(t, 1j * grid))
    return list(zip(grid.tolist(), values.tolist()))


def write_sweep_csv(rows, path) -> None:
    """CSV with 17-significant-digit columns; identical input gives identical bytes."""
    from ._csv import table  # loaded by the first CSV write, not by every import

    rows = list(rows)
    pairs = np.array(rows, dtype=np.float64).reshape(len(rows), 2)
    atomic_write_text(path, table("omega_rad_s,abs_relative_error", (pairs[:, 0], pairs[:, 1])))
