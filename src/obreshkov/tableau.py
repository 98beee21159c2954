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
import sys
from dataclasses import dataclass

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
    of the i-th derivative at t-jh (i = 1..k, j = 0..m). Every instance is well
    shaped and finite, with h**k in the float range and a nonzero current k-th
    derivative weight; construction (replace included) raises ValueError otherwise.
    """

    k: int
    m: int
    h: float
    c0: tuple[float, ...]
    c: tuple[tuple[float, ...], ...]
    label: str | None = None
    omega_select: float | None = None

    def __post_init__(self):
        if violations := _structural_violations(self):
            raise ValueError("invalid tableau: " + "; ".join(violations))

    def coeff(self, order: int, steps_back: int) -> float:
        """Weight of the order-th derivative (0 = the value itself) at t - steps_back*h."""
        if not ((order == 0 or 1 <= order <= self.k) and _steps(order, self.m).start <= steps_back <= self.m):
            raise IndexError(f"slot {(order, steps_back)} is outside the (k={self.k}, m={self.m}) layout")
        return self.c0[steps_back - 1] if order == 0 else self.c[order - 1][steps_back]


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


def _finite(v) -> bool:
    """True for an int or float within the float range: not a bool, NaN, inf or 10**400."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _shown(v) -> str:
    """repr(v) for an error message; an int too long for repr (Python caps int-to-str
    conversion at 4,300 digits by default) is given by its size instead."""
    try:
        return repr(v)
    except ValueError:
        if _is_int(v):
            return f"an integer of about {int(v.bit_length() * math.log10(2)) + 1} digits"
        return f"a {type(v).__name__} holding an integer too long to print"


def _label(t: ObreshkovTableau) -> str:
    """The tableau's label, or k<k>m<m> when it has none."""
    return t.label if t.label is not None else f"k{t.k}m{t.m}"


def _steps(i: int, m: int) -> range:
    """Order i's steps back: 1..m for the value, whose current sample is the left side, else 0..m."""
    return range(0 if i else 1, m + 1)


def _slots(k: int, m: int) -> list[tuple[int, int]]:
    """The coefficient layout: (i, j) for each step j of each order i = 0..k, c0's then c's."""
    return [(i, j) for i in range(k + 1) for j in _steps(i, m)]


def _powers(h: float, n: int) -> list[float]:
    """h**i for i = 0..n as running products from 1.0; every coefficient's h**i comes
    from here. IEEE multiplication is correctly rounded, so h -> 2h scales each by
    exactly 2**i (libm pow need not) and every platform gives the same bits."""
    out = [1.0]
    for _ in range(n):
        out.append(out[-1] * h)
    return out


def _step_underflow(k: int, h: float) -> str | None:
    """Why h is too small for order-k slots, which scale as h**k; None if it is not."""
    if h < 1.0 and h**k < sys.float_info.min:
        return f"h**{k} underflows at h={h!r}; order-{k} coefficients leave the float range"
    return None


def _structural_violations(t: ObreshkovTableau) -> list[str]:
    """Shape, finiteness, step range and a nonzero current weight: the invariant that
    ObreshkovTableau's construction enforces and every operation relies on."""
    out: list[str] = []
    if not _is_int(t.k) or t.k < 1:
        out.append(f"k must be a positive integer, got {_shown(t.k)}")
    if not _is_int(t.m) or t.m < 1:
        out.append(f"m must be a positive integer, got {_shown(t.m)}")
    if not (_finite(t.h) and t.h > 0):
        out.append(f"h must be a positive finite number, got {_shown(t.h)}")
    if out:
        return out
    if underflow := _step_underflow(t.k, t.h):
        return [underflow]
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
    if not all(all(map(_finite, row)) for row in (t.c0, *t.c)):
        rows = (("c0", t.c0), *((f"c[{i}]", row) for i, row in enumerate(t.c)))
        slot, v = next((f"{name}[{j}]", v) for name, row in rows for j, v in enumerate(row) if not _finite(v))
        out.append(f"all coefficients must be finite, got {slot} = {_shown(v)}")
    if t.c[t.k - 1][0] == 0.0:
        out.append("current k-th derivative weight is zero; not usable as a differentiator")
    return out


def validate(t: ObreshkovTableau) -> list[str]:
    """Consistency and admissibility, the checks past construction's. Empty list means
    the tableau is usable everywhere."""
    out: list[str] = []
    s = math.fsum(t.c0)
    if abs(s - 1.0) > _CONSISTENCY_TOL:
        out.append(f"value-history weights must sum to 1 (constant signals reproduced), got {s!r}")
    if t.omega_select is not None:
        bad = admissibility_violation(t.omega_select, t.h)
        if bad:
            out.append(bad)
    return out


def require_valid(t: ObreshkovTableau) -> None:
    if violations := validate(t):
        raise ValueError("invalid tableau: " + "; ".join(violations))


def admissibility_violation(omega_select: float, h: float) -> str | None:
    """Window for frequency-tuned members: 0 < omega*h < 2*pi, away from cos(omega*h) = 1."""
    for what, v in (("omega_select", omega_select), ("h", h)):
        if not _finite(v):
            return f"{what} must be finite, got {_shown(v)}"
    th = omega_select * h
    if not 0.0 < th < 2.0 * math.pi:
        return f"omega_select*h must lie in (0, 2*pi), got {th!r}"
    if abs(1.0 - math.cos(th)) <= 1e-12:
        return f"omega_select*h = {th!r} is too close to a vanishing 1-cos(omega*h)"
    return None


def _feedback_ratios(t: ObreshkovTableau) -> tuple[float, ...]:
    """c_kj / c_k0 for j = 1..m: each stale k-th derivative weight over the current one."""
    ck = t.c[t.k - 1]
    return tuple(v / ck[0] for v in ck[1:])


def differentiator_form(t: ObreshkovTableau) -> DifferentiatorRule:
    """Rearrange a valid tableau for its current k-th derivative."""
    require_valid(t)
    ck0 = t.c[t.k - 1][0]
    feedback = tuple(-r for r in _feedback_ratios(t))
    gain = 1.0 / ck0
    u_history = tuple(-(v / ck0) for v in t.c0)
    lower = tuple(tuple(-(v / ck0) for v in row) for row in t.c[:-1])
    return DifferentiatorRule(base=t, feedback=feedback, gain=gain, u_history=u_history, lower=lower)


# untuned members: for each order i = 0..k, integer numerators over one denominator,
# c_ij = n_ij * h**i / d_i for each step j of _steps(i, m)
_RATIOS = {
    "BE": (((1,), 1), ((1, 0), 1)),
    "BDF2": (((4, -1), 3), ((2, 0, 0), 3)),
    "TR": (((1,), 1), ((1, 1), 2)),
    "C": (((1,), 1), ((1, 1), 2), ((-1, 1), 12)),
    "D": (((1,), 1), ((1, 0), 1), ((-1, 0), 2)),
    "F": (((1,), 1), ((2, 1), 3), ((-1, 0), 6)),
}


def make_catalog(name: str, h: float, omega_select: float | None = None) -> ObreshkovTableau:
    """Build a catalog member at step size h.

    Members: BE, BDF2, TR (first-derivative rules) and A..F (second-derivative
    rules). A, B, E additionally take the angular frequency omega_select they
    are tuned to; the others reject it.
    """
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog member {_shown(name)}; expected one of {CATALOG_NAMES}")
    if not (_finite(h) and h > 0):
        raise ValueError(f"h must be a positive finite number, got {_shown(h)}")
    h = float(h)
    if name not in FREQUENCY_TUNED:
        if omega_select is not None:
            raise ValueError(f"catalog member {name} takes no omega_select")
        rows, w = _RATIOS[name], None
    else:
        if omega_select is None:
            raise ValueError(f"catalog member {name} is frequency tuned; omega_select is required")
        if bad := admissibility_violation(omega_select, h):
            raise ValueError(f"catalog member {name}: {bad}")
        w = float(omega_select)
        # scale-free weights c^_ij = c_ij / h**i in th = w*h; 1 - cos(th) is taken as
        # 2 sin(th/2)**2 and sin(x) - x as a series, so that nothing cancels at small th
        th = w * h
        vers = 2.0 * math.sin(th / 2.0) ** 2  # 1 - cos(th)
        if name == "A":
            # trapezoidal first-derivative weights, second-derivative pair tuned so the error
            # transfer vanishes at w: c^20 = (x cot x - 1) / th**2 with x = th/2
            x = th / 2.0
            c20 = -(2.0 * x * math.sin(x / 2.0) ** 2 + _sin_minus_x(x)) / (th * th * math.sin(x))
            c_hat = ((0.5, 0.5), (c20, -c20))
        elif name == "B":
            c_hat = ((math.sin(th) / th, 0.0), (-vers / (th * th), 0.0))
        else:  # E: double zero at the origin, exact transfer zero at w, no stale second derivative
            c11 = -_sin_minus_x(th) / (th * vers)
            c_hat = ((1.0 - c11, c11), ((th * c11 * math.sin(th) - vers) / (th * th), 0.0))
        rows = (((1.0,), 1), *((row, 1) for row in c_hat))
    c0, *c = (tuple(n * p / d for n in ns) for (ns, d), p in zip(rows, _powers(h, len(rows) - 1)))
    return ObreshkovTableau(k=len(c), m=len(c0), h=h, c0=c0, c=tuple(c), label=name, omega_select=w)


def _sin_minus_x(x: float) -> float:
    """sin(x) - x as the fsum of its Taylor series; 22 terms reach round-off for |x| < 2*pi."""
    terms, term = [], x
    for n in range(2, 46, 2):
        term *= -x * x / (n * (n + 1))
        terms.append(term)
    return math.fsum(terms)


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
    """v as a float, if it is a finite number (see _finite); ValueError naming what otherwise."""
    if not _finite(v):
        raise ValueError(f"{what} must be a finite number, got {_shown(v)}")
    return float(v)


def _numbers(v, what: str) -> tuple[float, ...]:
    """A JSON array of numbers; a string would otherwise load character by character."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{what} must be a list of numbers, got {_shown(v)}")
    return tuple(_number(x, what) for x in v)


def from_dict(d: dict) -> ObreshkovTableau:
    try:
        k, m, h, c0, c = d["k"], d["m"], d["h"], d["c0"], d["c"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tableau document: {exc}") from exc
    if not _is_int(k) or not _is_int(m):
        raise ValueError(f"k and m must be integers, got {_shown(k)}, {_shown(m)}")
    if not isinstance(c, (list, tuple)):
        raise ValueError(f"c must be a list of rows, got {_shown(c)}")
    label = d.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"label must be a string, got {_shown(label)}")
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


def _read_json_object(path: str | os.PathLike, what: str) -> dict:
    """The JSON object in the file at path; ValueError naming what it should hold otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, an over-long int, deep nesting
            raise ValueError(f"not a JSON {what} file: {exc}") from exc
    if not isinstance(d, dict):
        raise ValueError(f"{what} file must hold a JSON object")
    return d


def load_json(path: str | os.PathLike) -> ObreshkovTableau:
    return from_dict(_read_json_object(path, "tableau"))
