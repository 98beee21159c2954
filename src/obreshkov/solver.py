"""Linear synthesis of tableau coefficients from accuracy and frequency conditions.

Every condition is affine in the coefficients:

  * a_n = 0 pushes the zero of R at the origin to multiplicity n+1,
  * Re R(j w) = 0 and Im R(j w) = 0 place an exact transfer zero at w.

The unknowns are the scale-free coefficients c^_ij = c_ij / h^i of the
spectrum module's sigma = s h basis, so a row holds the numbers that module
evaluates: (-j)^(n-i) / (n-i)! for a_n, and sigma^i e^(-sigma j) at
sigma = j (w h) for the pair at w. The matrix is O(1) at any admissible step
size; rows are scaled by their largest entry before the dense solve, and
c = c^ h^i is formed once, from its solution. Conditions that the fixed slots
already satisfy identically (zero coefficient row) are dropped after checking
that their constant term vanishes too; a zero row with a surviving constant
means the request contradicts the fixed slots and is rejected outright. An
overdetermined fit is returned only if verify_synthesis passes it, unless
least_squares asks for the fit as it is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._numpy import np
from .spectrum import _ZERO_TOL, _basis, _taylor_row, frequency_zero_residual, origin_multiplicity
from .tableau import (
    ObreshkovTableau, _is_int, _number, _numbers, _powers, _shown, _slots, _step_underflow,
    admissibility_violation,
)

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
    Construction (replace included) ends with _check_request.
    """

    k: int
    m: int
    h: float
    fixed: tuple = field(default=())
    origin_multiplicity: int = 1
    frequencies: tuple = field(default=())

    def __post_init__(self):
        for what, v in (("k", self.k), ("m", self.m), ("origin_multiplicity", self.origin_multiplicity)):
            if not _is_int(v):
                raise ValueError(f"{what} must be an integer, got {_shown(v)}")
        pinned = []
        for (i, j), v in self.fixed.items() if hasattr(self.fixed, "items") else self.fixed:
            if not (_is_int(i) and _is_int(j)):
                raise ValueError(f"fixed slot must be a pair of integers, got {_shown((i, j))}")
            pinned.append(((i, j), _number(v, f"fixed value {(i, j)}")))
        object.__setattr__(self, "h", _number(self.h, "h"))
        object.__setattr__(self, "fixed", tuple(sorted(pinned)))
        frequencies = _numbers(self.frequencies, "frequencies")
        object.__setattr__(self, "frequencies", tuple(sorted(set(frequencies))))
        _check_request(self)

    @property
    def fixed_map(self) -> dict:
        return dict(self.fixed)


def _check_request(cs: ConstraintSet) -> None:
    """Refuse, as ConstraintSet is built, a request no solve or certification can take;
    builds no layout."""
    if cs.k < 1 or cs.m < 1:
        raise SynthesisError(f"k and m must be positive integers, got {_shown(cs.k)}, {_shown(cs.m)}")
    if cs.h <= 0:
        raise SynthesisError(f"h must be a positive finite number, got {cs.h!r}")
    if cs.origin_multiplicity < 1:
        raise SynthesisError(
            f"origin_multiplicity must be a positive integer, got {_shown(cs.origin_multiplicity)}"
        )
    if cs.origin_multiplicity > 171:  # 170! is the last factorial in the float range
        raise ValueError(f"origin_multiplicity {_shown(cs.origin_multiplicity)} needs n! past the float range")
    if underflow := _step_underflow(cs.k, cs.h):
        raise ValueError(underflow)
    for w in cs.frequencies:
        if bad := admissibility_violation(w, cs.h):
            raise SynthesisError(f"frequency {w!r}: {bad}")
    seen = set()
    for (i, j), _ in cs.fixed:
        # the slots of _slots(k, m): (0, 1..m) and (1..k, 0..m)
        if not (0 <= i <= cs.k and (i == 0) <= j <= cs.m):
            raise SynthesisError(f"fixed slot {(i, j)} is outside the (k={cs.k}, m={cs.m}) layout")
        if (i, j) in seen:
            raise SynthesisError(f"fixed slot {(i, j)} pinned twice")
        seen.add((i, j))
    # c^ = v / h**i with the solve's own powers, up to the highest pinned order
    power = _powers(cs.h, max((i for (i, _), _ in cs.fixed), default=0))
    for (i, j), v in cs.fixed:
        if not math.isfinite(v / power[i]):
            raise ValueError(f"fixed slot {(i, j)}: {v!r} / h**{i} leaves the float range at h={cs.h!r}")


def _condition_rows(cs: ConstraintSet, slots) -> tuple[list[str], np.ndarray, list[float]]:
    """(names, W, constants): condition r reads W[r] . c^ = constants[r] over slots,
    cs's layout; its a_n rows are the spectrum module's memoized Taylor rows."""
    names, rows, constants = [], [], []
    for n in range(cs.origin_multiplicity):
        rows.append(_taylor_row(cs.k, cs.m, n))
        names.append(f"a{n}")
        constants.append(1.0 if n == 0 else 0.0)
    for omega in cs.frequencies:
        # the basis values relative_error takes at s = j omega, which certifies the result
        v = list(_basis(cs.k, cs.m, 1j * (omega * cs.h)))
        rows.append([z.real for z in v])
        rows.append([z.imag for z in v])
        names += [f"Re R(j*{omega:g})", f"Im R(j*{omega:g})"]
        constants += [1.0, 0.0]
    return names, np.array(rows), constants


def solve_coefficients(cs: ConstraintSet, least_squares: bool = False) -> ObreshkovTableau:
    """Solve the condition system for the non-fixed slots and assemble a tableau."""
    n_conditions = cs.origin_multiplicity + 2 * len(cs.frequencies)
    # with no slot pinned, no condition is fixed-slot determined, so the solve would
    # keep all n_conditions rows and refuse with this same error, after building them
    if not (cs.fixed or least_squares) and (n_slots := cs.k * (cs.m + 1) + cs.m) > n_conditions:
        raise SingularSystemError(
            f"underdetermined system: {n_conditions} independent conditions for {n_slots} free slots"
        )
    slots = _slots(cs.k, cs.m)
    fixed, power = cs.fixed_map, _powers(cs.h, cs.k)
    c_hat = {s: v / power[s[0]] for s, v in fixed.items()}
    free_cols = [col for col, s in enumerate(slots) if s not in fixed]
    fixed_cols = [col for col, s in enumerate(slots) if s in fixed]

    names, W, constants = _condition_rows(cs, slots)
    # per row: the largest term (the drop test's reference), the fixed slots'
    # contributions, and the free part with its largest entry
    refs = np.maximum(np.abs(W).max(axis=1), np.abs(constants)).tolist()
    pinned = (W[:, fixed_cols] * [c_hat[slots[col]] for col in fixed_cols]).tolist()
    rows = W[:, free_cols]
    peaks = np.abs(rows).max(axis=1, initial=0.0).tolist()

    kept, row_scales, b_vals = [], [], []
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

    n_free, n_eq = len(free_cols), len(kept)
    if n_free:
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
        if not least_squares:
            if rank < n_free:
                raise SingularSystemError(
                    f"condition system is rank deficient (rank {rank}, {n_free} free slots)"
                )
            # certification below judges an overdetermined fit; a square solve is never
            # certified, so its residual is its only accuracy check
            residual = float(np.max(np.abs(A @ x - b))) if n_eq == n_free else 0.0
            if residual > _RESIDUAL_TOL * max(1.0, float(np.max(np.abs(b)))):
                raise SynthesisError(f"solver residual unexpectedly large: {residual:.3e}")
        c_hat.update((slots[col], v) for col, v in zip(free_cols, x.tolist()))

    # a current weight this small against the others is round-off for an exact zero
    if abs(c_hat[(cs.k, 0)]) <= _ZERO_TOL * max(map(abs, c_hat.values())):
        raise SynthesisError(
            "synthesized tableau has (numerically) zero current k-th derivative weight; "
            "the request admits no differentiator"
        )

    # c = c^ h^i, formed once; pinned slots keep the values they were given
    v = [fixed[s] if s in fixed else c_hat[s] * power[s[0]] for s in slots]
    c = [tuple(v[cs.m + r * (cs.m + 1) : cs.m + (r + 1) * (cs.m + 1)]) for r in range(cs.k)]
    t = ObreshkovTableau(
        k=cs.k, m=cs.m, h=cs.h, c0=tuple(v[: cs.m]), c=tuple(c),
        omega_select=cs.frequencies[0] if len(cs.frequencies) == 1 else None,
    )
    # an overdetermined fit is returned only if it meets every condition it was asked for
    if n_eq > n_free and not least_squares and (failures := verify_synthesis(t, cs).failures):
        raise InconsistentSystemError(
            f"overdetermined system does not certify ({n_eq} conditions, {n_free} free slots): "
            + "; ".join(failures)
        )
    return t


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
    failures: list[str] = []
    if (t.k, t.m) != (cs.k, cs.m):
        failures.append(f"structure mismatch: tableau is (k={t.k}, m={t.m}), request (k={cs.k}, m={cs.m})")
    if t.h != cs.h:
        failures.append(f"step mismatch: tableau h={t.h!r}, request h={cs.h!r}")
    achieved, freq_res, fixed_err = -1, [], []
    if not failures:
        # drawn at least to the required order: a deeper zero is certified, not an error
        achieved = origin_multiplicity(t, max(t.k + t.m + 10, cs.origin_multiplicity))
        freq_res = [(w, frequency_zero_residual(t, w)) for w in cs.frequencies]
        if achieved < cs.origin_multiplicity:
            failures.append(f"origin multiplicity {achieved} below required {cs.origin_multiplicity}")
        failures += [
            f"|R(j*{w:g})| = {r:.3e} exceeds {_FREQ_CERT_TOL:g}" for w, r in freq_res if r > _FREQ_CERT_TOL
        ]
        # t has the request's layout, so each pin (checked to lie inside it) indexes t
        for s, v in cs.fixed:
            fixed_err.append((s, err := abs(t.coeff(*s) - v)))
            if err > _FIXED_CERT_TOL * max(1.0, abs(v)):
                failures.append(f"fixed slot {s} drifted by {err:.3e}")
    return CertificationReport(
        required_multiplicity=cs.origin_multiplicity,
        achieved_multiplicity=achieved,
        frequency_residuals=tuple(freq_res),
        fixed_slot_errors=tuple(fixed_err),
        failures=tuple(failures),
    )
