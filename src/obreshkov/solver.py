"""Linear synthesis of tableau coefficients from accuracy and frequency conditions.

Every condition is affine in the coefficients:

  * a_n = 0 pushes the zero of R at the origin to multiplicity n+1,
  * Re R(j w) = 0 and Im R(j w) = 0 place an exact transfer zero at w.

The solver assembles one row per condition over the non-fixed coefficient
slots and solves the resulting dense system. Columns are scaled by h^i per
order-i slot and rows by their largest entry so the factorization sees an
O(1) matrix regardless of step size. Conditions that the fixed slots already
satisfy identically (zero coefficient row) are dropped after checking that
their constant term vanishes too; a zero row with a surviving constant means
the request contradicts the fixed slots and is rejected outright.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._numpy import np
from .spectrum import _taylor_row, frequency_zero_residual, origin_multiplicity
from .tableau import ObreshkovTableau, _slots, admissibility_violation

__all__ = [
    "CertificationReport",
    "ConstraintSet",
    "InconsistentSystemError",
    "SingularSystemError",
    "SynthesisError",
    "solve_coefficients",
    "verify_synthesis",
]

_DROP_TOL = 1e-12
_RESIDUAL_TOL = 1e-9
_FREQ_CERT_TOL = 1e-10
_FIXED_CERT_TOL = 1e-14


class SynthesisError(ValueError):
    """A constraint set that cannot be turned into a tableau."""


class SingularSystemError(SynthesisError):
    """Underdetermined or rank-deficient condition system."""


class InconsistentSystemError(SynthesisError):
    """Conditions that contradict each other or the fixed slots."""


@dataclass(frozen=True)
class ConstraintSet:
    """Synthesis request: structure, pinned slots, origin multiplicity, zero frequencies.

    fixed maps (order, steps_back) slots to pinned values; order 0 slots use
    steps_back >= 1 (the current value is the left-hand side, never a slot).
    """

    k: int
    m: int
    h: float
    fixed: tuple = field(default=())
    origin_multiplicity: int = 1
    frequencies: tuple = field(default=())

    def __post_init__(self):
        if isinstance(self.h, (int, float)) and not isinstance(self.h, bool):
            object.__setattr__(self, "h", float(self.h))
        fixed = self.fixed
        if hasattr(fixed, "items"):
            fixed = fixed.items()
        normalized = tuple(
            sorted(((int(i), int(j)), float(v)) for (i, j), v in fixed)
        )
        object.__setattr__(self, "fixed", normalized)
        object.__setattr__(
            self, "frequencies", tuple(sorted({float(w) for w in self.frequencies}))
        )

    @property
    def fixed_map(self) -> dict:
        return dict(self.fixed)


def _check_request(cs: ConstraintSet) -> list[tuple[int, int]]:
    if not (isinstance(cs.k, int) and cs.k >= 1 and isinstance(cs.m, int) and cs.m >= 1):
        raise SynthesisError(f"k and m must be positive integers, got {cs.k!r}, {cs.m!r}")
    if not (isinstance(cs.h, float) and math.isfinite(cs.h) and cs.h > 0):
        raise SynthesisError(f"h must be a positive finite number, got {cs.h!r}")
    if not (isinstance(cs.origin_multiplicity, int) and cs.origin_multiplicity >= 1):
        raise SynthesisError(
            f"origin_multiplicity must be a positive integer, got {cs.origin_multiplicity!r}"
        )
    slots = _slots(cs.k, cs.m)
    seen = set()
    for (i, j), v in cs.fixed:
        if (i, j) not in slots:
            raise SynthesisError(f"fixed slot {(i, j)} is outside the (k={cs.k}, m={cs.m}) layout")
        if (i, j) in seen:
            raise SynthesisError(f"fixed slot {(i, j)} pinned twice")
        seen.add((i, j))
        if not math.isfinite(v):
            raise SynthesisError(f"fixed slot {(i, j)} has non-finite value {v!r}")
    for w in cs.frequencies:
        bad = admissibility_violation(w, cs.h)
        if bad:
            raise SynthesisError(f"frequency {w!r}: {bad}")
    return slots


def _condition_rows(cs: ConstraintSet, slots) -> tuple[list[str], np.ndarray, list[float]]:
    """(names, W, constants): condition r reads W[r] . c = constants[r] over slots."""
    h = cs.h
    names: list[str] = []
    rows: list[list] = []
    constants: list[float] = []
    for n in range(cs.origin_multiplicity):
        rows.append(_taylor_row(slots, h, n))
        names.append(f"a{n}")
        constants.append(1.0 if n == 0 else 0.0)
    for omega in cs.frequencies:
        # one exponential per step offset, shared by every derivative order; this
        # rounds (omega*j)*h where relative_error rounds omega*(j*h), each pinned bitwise
        shift = np.exp(np.array([-1j * omega * j * h for j in range(cs.m + 1)]))
        v = [(1j * omega) ** i * shift[j] for i, j in slots]
        rows.append([z.real for z in v])
        rows.append([z.imag for z in v])
        names += [f"Re R(j*{omega:g})", f"Im R(j*{omega:g})"]
        constants += [1.0, 0.0]
    return names, np.array(rows), constants


def solve_coefficients(cs: ConstraintSet, least_squares: bool = False) -> ObreshkovTableau:
    """Solve the condition system for the non-fixed slots and assemble a tableau."""
    slots = _check_request(cs)
    fixed = cs.fixed_map
    free = [s for s in slots if s not in fixed]
    free_cols = [col for col, s in enumerate(slots) if s not in fixed]
    fixed_cols = [col for col, s in enumerate(slots) if s in fixed]
    slot_scale = np.array([cs.h**i for i, _ in slots])
    col_scale = slot_scale[free_cols]

    names, W, constants = _condition_rows(cs, slots)
    # per row: the largest scaled term (the drop test's reference), the fixed
    # slots' contributions, and the free part with its largest entry
    refs = np.maximum((np.abs(W) * slot_scale).max(axis=1), np.abs(constants)).tolist()
    pinned = (W[:, fixed_cols] * [fixed[slots[col]] for col in fixed_cols]).tolist()
    rows = W[:, free_cols] * col_scale
    peaks = np.abs(rows).max(axis=1, initial=0.0).tolist()

    kept: list[int] = []
    row_scales: list[float] = []
    b_vals: list[float] = []
    for r, (name, rhs, ref, peak) in enumerate(zip(names, constants, refs, peaks)):
        b = rhs - math.fsum(pinned[r])
        if peak <= _DROP_TOL * ref:
            if abs(b) > _DROP_TOL * max(1.0, ref):
                raise InconsistentSystemError(
                    f"condition {name} is fixed-slot determined but violated "
                    f"(constant residual {b:.3e})"
                )
            continue  # identically satisfied by the fixed slots
        row_scale = max(peak, abs(b))
        kept.append(r)
        row_scales.append(row_scale)
        b_vals.append(b / row_scale)

    n_free = len(free)
    n_eq = len(kept)
    if n_free == 0:
        solution: dict = {}
    else:
        if n_eq == 0:
            raise SingularSystemError(f"no conditions left for {n_free} free slots")
        if n_eq < n_free and not least_squares:
            raise SingularSystemError(
                f"underdetermined system: {n_eq} independent conditions for {n_free} free slots"
            )
        A = rows[kept] / np.array(row_scales)[:, None]
        b = np.array(b_vals)
        # rank-deficient or non-square requests fall back to the minimum-norm
        # least-squares solution, but only behind the explicit flag
        x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        residual = float(np.max(np.abs(A @ x - b)))
        tol = _RESIDUAL_TOL * max(1.0, float(np.max(np.abs(b))))
        if not least_squares:
            if rank < n_free:
                raise SingularSystemError(
                    f"condition system is rank deficient (rank {rank}, {n_free} free slots)"
                )
            if residual > tol:
                if n_eq > n_free:
                    kept_names = [names[r] for r in kept]
                    raise InconsistentSystemError(
                        f"overdetermined system has least-squares residual {residual:.3e} "
                        f"({n_eq} conditions, {n_free} free slots; offending set: {kept_names})"
                    )
                raise SynthesisError(f"solver residual unexpectedly large: {residual:.3e}")
        solution = {s: float(x[col] * col_scale[col]) for col, s in enumerate(free)}

    def value(i: int, j: int) -> float:
        s = (i, j)
        return fixed[s] if s in fixed else solution[s]

    c0 = tuple(value(0, j) for j in range(1, cs.m + 1))
    c = tuple(tuple(value(i, j) for j in range(0, cs.m + 1)) for i in range(1, cs.k + 1))
    # h^k is the natural magnitude of that slot; anything this far below it
    # is solver round-off standing in for an exact zero
    if abs(c[cs.k - 1][0]) <= 1e-12 * cs.h**cs.k:
        raise SynthesisError(
            "synthesized tableau has (numerically) zero current k-th derivative weight; "
            "the request admits no differentiator"
        )
    return ObreshkovTableau(
        k=cs.k, m=cs.m, h=cs.h, c0=c0, c=c,
        omega_select=cs.frequencies[0] if len(cs.frequencies) == 1 else None,
    )


@dataclass(frozen=True)
class CertificationReport:
    """Independent re-check of a tableau against the constraint set that built it."""

    required_multiplicity: int
    achieved_multiplicity: int
    frequency_residuals: tuple[tuple[float, float], ...]
    fixed_slot_errors: tuple[tuple[tuple[int, int], float], ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_synthesis(t: ObreshkovTableau, cs: ConstraintSet) -> CertificationReport:
    """Certify multiplicity, frequency zeros, and pinned slots via the spectrum module."""
    _check_request(cs)
    failures: list[str] = []
    if (t.k, t.m) != (cs.k, cs.m):
        failures.append(f"structure mismatch: tableau is (k={t.k}, m={t.m}), request (k={cs.k}, m={cs.m})")
    if t.h != cs.h:
        failures.append(f"step mismatch: tableau h={t.h!r}, request h={cs.h!r}")
    achieved = origin_multiplicity(t) if not failures else -1
    if not failures and achieved < cs.origin_multiplicity:
        failures.append(
            f"origin multiplicity {achieved} below required {cs.origin_multiplicity}"
        )
    freq_res = []
    if not any(f.startswith("structure") or f.startswith("step") for f in failures):
        for w in cs.frequencies:
            r = frequency_zero_residual(t, w)
            freq_res.append((w, r))
            if r > _FREQ_CERT_TOL:
                failures.append(f"|R(j*{w:g})| = {r:.3e} exceeds {_FREQ_CERT_TOL:g}")
    fixed_err = []
    for (i, j), v in cs.fixed:
        try:
            err = abs(t.coeff(i, j) - v)
        except IndexError:
            continue
        fixed_err.append(((i, j), err))
        if err > _FIXED_CERT_TOL * max(1.0, abs(v)):
            failures.append(f"fixed slot {(i, j)} drifted by {err:.3e}")
    return CertificationReport(
        required_multiplicity=cs.origin_multiplicity,
        achieved_multiplicity=achieved,
        frequency_residuals=tuple(freq_res),
        fixed_slot_errors=tuple(fixed_err),
        failures=tuple(failures),
    )
