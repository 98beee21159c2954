"""Coefficient tableaus for correctors rearranged into differentiators.

A tableau stores the weights of the linear relation

    u_t = sum_j c0[-j] * u_{t-jh} + sum_i sum_j c[i][-j] * d^i u/dt^i |_{t-jh}

with i = 1..k, j = 0..m. Solving that relation for the current k-th
derivative turns the corrector into a numerical differentiator, which
requires a nonzero weight on the current k-th derivative slot.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

from ._files import atomic_write_text

__all__ = [
    "CATALOG_NAMES",
    "FREQUENCY_TUNED",
    "OMEGA_SYN",
    "DifferentiatorRule",
    "ObreshkovTableau",
    "admissibility_violation",
    "differentiator_form",
    "from_dict",
    "load_json",
    "make_catalog",
    "require_valid",
    "save_json",
    "to_dict",
    "validate",
]

CATALOG_NAMES = ("BE", "BDF2", "TR", "A", "B", "C", "D", "E", "F")

# members whose coefficients depend on a selected angular frequency
FREQUENCY_TUNED = frozenset({"A", "B", "E"})

# nominal 60 Hz synchronous angular frequency, rad/s
OMEGA_SYN = 120.0 * math.pi

_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class ObreshkovTableau:
    """Immutable coefficient set of a (k, m) corrector at step size h.

    c0[j-1] is the weight of u at t-jh (j = 1..m); c[i-1][j] is the weight
    of the i-th derivative at t-jh (i = 1..k, j = 0..m).
    """

    k: int
    m: int
    h: float
    c0: tuple[float, ...]
    c: tuple[tuple[float, ...], ...]
    label: str | None = None
    omega_select: float | None = None

    def coeff(self, order: int, steps_back: int) -> float:
        """Weight of the order-th derivative (0 = the value itself) at t - steps_back*h."""
        if order == 0:
            if not 1 <= steps_back <= self.m:
                raise IndexError(f"order-0 slot requires 1 <= steps_back <= m, got {steps_back}")
            return self.c0[steps_back - 1]
        if not 1 <= order <= self.k:
            raise IndexError(f"order out of range: {order}")
        if not 0 <= steps_back <= self.m:
            raise IndexError(f"steps_back out of range: {steps_back}")
        return self.c[order - 1][steps_back]


@dataclass(frozen=True)
class DifferentiatorRule:
    """The tableau rearranged for the current k-th derivative.

    computed_t = sum_j feedback[j-1] * computed_{t-jh}
               + gain * u_t
               + sum_j u_history[j-1] * u_{t-jh}
               + sum_i sum_j lower[i-1][j] * d^i u/dt^i |_{t-jh}   (i = 1..k-1)
    """

    base: ObreshkovTableau
    feedback: tuple[float, ...]
    gain: float
    u_history: tuple[float, ...]
    lower: tuple[tuple[float, ...], ...]


def _is_int(v) -> bool:
    """True for an int; bool is an int subclass but not a structure size."""
    return isinstance(v, int) and not isinstance(v, bool)


def _slots(k: int, m: int) -> list[tuple[int, int]]:
    """The coefficient layout: c0's slots (0, j), j = 1..m, then (i, j) for each row of c."""
    order0 = [(0, j) for j in range(1, m + 1)]
    return order0 + [(i, j) for i in range(1, k + 1) for j in range(m + 1)]


def _slot_values(t: ObreshkovTableau) -> list[float]:
    """The coefficients of t in _slots order."""
    return [*t.c0, *(v for row in t.c for v in row)]


def _structural_violations(t: ObreshkovTableau) -> list[str]:
    """Shape and finiteness only; enough for the spectral/root operations."""
    out: list[str] = []
    if not _is_int(t.k) or t.k < 1:
        out.append(f"k must be a positive integer, got {t.k!r}")
    if not _is_int(t.m) or t.m < 1:
        out.append(f"m must be a positive integer, got {t.m!r}")
    if not (isinstance(t.h, (int, float)) and math.isfinite(t.h) and t.h > 0):
        out.append(f"h must be a positive finite number, got {t.h!r}")
    if out:
        return out
    if len(t.c0) != t.m:
        out.append(f"c0 must have m={t.m} entries, got {len(t.c0)}")
    if len(t.c) != t.k:
        out.append(f"c must have k={t.k} rows, got {len(t.c)}")
    else:
        for i, row in enumerate(t.c, start=1):
            if len(row) != t.m + 1:
                out.append(f"c[{i - 1}] must have m+1={t.m + 1} entries, got {len(row)}")
    if out:
        return out
    if not all(math.isfinite(v) for v in _slot_values(t)):
        out.append("all coefficients must be finite")
    if t.c[t.k - 1][0] == 0.0:
        out.append("current k-th derivative weight is zero; not usable as a differentiator")
    return out


def require_structural(t: ObreshkovTableau) -> None:
    """Raise ValueError unless t passes the shape and finiteness check."""
    violations = _structural_violations(t)
    if violations:
        raise ValueError("invalid tableau: " + "; ".join(violations))


def validate(t: ObreshkovTableau) -> list[str]:
    """Full invariant check. Empty list means the tableau is usable everywhere."""
    out = _structural_violations(t)
    if out:
        return out
    s = math.fsum(t.c0)
    if abs(s - 1.0) > _CONSISTENCY_TOL:
        out.append(f"value-history weights must sum to 1 (constant signals reproduced), got {s!r}")
    if t.omega_select is not None:
        bad = admissibility_violation(t.omega_select, t.h)
        if bad:
            out.append(bad)
    return out


def require_valid(t: ObreshkovTableau) -> None:
    violations = validate(t)
    if violations:
        raise ValueError("invalid tableau: " + "; ".join(violations))


def admissibility_violation(omega_select: float, h: float) -> str | None:
    """Window for frequency-tuned members: 0 < omega*h < 2*pi, away from cos(omega*h) = 1."""
    if not (isinstance(omega_select, (int, float)) and math.isfinite(omega_select)):
        return f"omega_select must be finite, got {omega_select!r}"
    th = omega_select * h
    if not 0.0 < th < 2.0 * math.pi:
        return f"omega_select*h must lie in (0, 2*pi), got {th!r}"
    if abs(1.0 - math.cos(th)) <= 1e-12:
        return f"omega_select*h = {th!r} is too close to a vanishing 1-cos(omega*h)"
    return None


def _feedback_ratios(t: ObreshkovTableau) -> tuple[float, ...]:
    """c_kj / c_k0 for j = 1..m: each stale k-th derivative weight over the current one."""
    ck = t.c[t.k - 1]
    return tuple(ck[j] / ck[0] for j in range(1, t.m + 1))


def differentiator_form(t: ObreshkovTableau) -> DifferentiatorRule:
    """Rearrange a valid tableau for its current k-th derivative."""
    require_valid(t)
    ck0 = t.c[t.k - 1][0]
    feedback = tuple(-r for r in _feedback_ratios(t))
    gain = 1.0 / ck0
    u_history = tuple(-(t.c0[j - 1] / ck0) for j in range(1, t.m + 1))
    lower = tuple(
        tuple(-(t.c[i - 1][j] / ck0) for j in range(0, t.m + 1)) for i in range(1, t.k)
    )
    return DifferentiatorRule(base=t, feedback=feedback, gain=gain, u_history=u_history, lower=lower)


def _require_omega(name: str, omega_select: float | None, h: float) -> float:
    if omega_select is None:
        raise ValueError(f"catalog member {name} is frequency tuned; omega_select is required")
    bad = admissibility_violation(omega_select, h)
    if bad:
        raise ValueError(f"catalog member {name}: {bad}")
    return float(omega_select)


def make_catalog(name: str, h: float, omega_select: float | None = None) -> ObreshkovTableau:
    """Build a catalog member at step size h.

    Members: BE, BDF2, TR (first-derivative rules) and A..F (second-derivative
    rules). A, B, E additionally take the angular frequency omega_select they
    are tuned to; the others reject it.
    """
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog member {name!r}; expected one of {CATALOG_NAMES}")
    if not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
        raise ValueError(f"h must be a positive finite number, got {h!r}")
    h = float(h)
    if name not in FREQUENCY_TUNED and omega_select is not None:
        raise ValueError(f"catalog member {name} takes no omega_select")

    if name == "BE":
        return ObreshkovTableau(k=1, m=1, h=h, c0=(1.0,), c=((h, 0.0),), label="BE")
    if name == "BDF2":
        return ObreshkovTableau(
            k=1, m=2, h=h, c0=(4.0 / 3.0, -1.0 / 3.0), c=((2.0 * h / 3.0, 0.0, 0.0),), label="BDF2"
        )
    if name == "TR":
        return ObreshkovTableau(k=1, m=1, h=h, c0=(1.0,), c=((h / 2.0, h / 2.0),), label="TR")
    if name == "C":
        return ObreshkovTableau(
            k=2, m=1, h=h, c0=(1.0,),
            c=((h / 2.0, h / 2.0), (-h * h / 12.0, h * h / 12.0)), label="C",
        )
    if name == "D":
        return ObreshkovTableau(
            k=2, m=1, h=h, c0=(1.0,), c=((h, 0.0), (-h * h / 2.0, 0.0)), label="D"
        )
    if name == "F":
        return ObreshkovTableau(
            k=2, m=1, h=h, c0=(1.0,),
            c=((2.0 * h / 3.0, h / 3.0), (-h * h / 6.0, 0.0)), label="F",
        )

    w = _require_omega(name, omega_select, h)
    th = w * h
    if name == "A":
        # trapezoidal value/first-derivative weights, second-derivative pair tuned
        # so the error transfer vanishes at w
        c20 = -1.0 / (w * w) + (h / (2.0 * w)) * (math.cos(th / 2.0) / math.sin(th / 2.0))
        return ObreshkovTableau(
            k=2, m=1, h=h, c0=(1.0,),
            c=((h / 2.0, h / 2.0), (c20, -c20)), label="A", omega_select=w,
        )
    if name == "B":
        return ObreshkovTableau(
            k=2, m=1, h=h, c0=(1.0,),
            c=((math.sin(th) / w, 0.0), ((math.cos(th) - 1.0) / (w * w), 0.0)),
            label="B", omega_select=w,
        )
    # E: no trustworthy closed form; produced by the root-condition solver
    # (double zero at the origin, exact transfer zero at w, no stale slots).
    from .solver import ConstraintSet, solve_coefficients

    cs = ConstraintSet(
        k=2, m=1, h=h,
        fixed=(((0, 1), 1.0), ((2, 1), 0.0)),
        origin_multiplicity=2,
        frequencies=(w,),
    )
    t = solve_coefficients(cs)
    return replace(t, label="E", omega_select=w)


def to_dict(t: ObreshkovTableau) -> dict:
    d: dict = {
        "k": t.k,
        "m": t.m,
        "h": t.h,
        "c0": list(t.c0),
        "c": [list(row) for row in t.c],
    }
    if t.label is not None:
        d["label"] = t.label
    if t.omega_select is not None:
        d["omega_select"] = t.omega_select
    return d


def _number(v, what: str) -> float:
    """A JSON number as a float; bool is an int subclass but not a number here."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} must be a number, got {v!r}")
    return float(v)


def _numbers(v, what: str) -> tuple[float, ...]:
    """A JSON array of numbers; a string would otherwise load character by character."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{what} must be a list of numbers, got {v!r}")
    return tuple(_number(x, what) for x in v)


def from_dict(d: dict) -> ObreshkovTableau:
    try:
        k, m, h, c0, c = d["k"], d["m"], d["h"], d["c0"], d["c"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tableau document: {exc}") from exc
    if not _is_int(k) or not _is_int(m):
        raise ValueError(f"k and m must be integers, got {k!r}, {m!r}")
    if not isinstance(c, (list, tuple)):
        raise ValueError(f"c must be a list of rows, got {c!r}")
    label = d.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"label must be a string, got {label!r}")
    omega = d.get("omega_select")
    return ObreshkovTableau(
        k=k, m=m, h=_number(h, "h"),
        c0=_numbers(c0, "c0"),
        c=tuple(_numbers(row, f"c[{i}]") for i, row in enumerate(c)),
        label=label,
        omega_select=None if omega is None else _number(omega, "omega_select"),
    )


def save_json(t: ObreshkovTableau, path: str | os.PathLike) -> None:
    """Atomic write; floats keep full round-trip precision."""
    payload = json.dumps(to_dict(t), indent=2) + "\n"
    atomic_write_text(path, payload)


def load_json(path: str | os.PathLike) -> ObreshkovTableau:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not a JSON tableau file: {exc}") from exc
    if not isinstance(d, dict):
        raise ValueError("tableau document must be a JSON object")
    return from_dict(d)
