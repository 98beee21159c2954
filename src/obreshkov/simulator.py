"""Fixed-step runs of differentiator tableaus against analytic test signals.

The recursion consumes exact samples of the signal and of its derivatives
below order k; only the k-th derivative history is fed back from computed
values, so any deviation from the exact k-th derivative evolves under the
feedback weights alone.

Signal protocol: a signal is any object with ``deriv(order, t)``, the
order-th derivative at t, where t is a float or a float ndarray. A float
gives a float; an array gives an array of the same shape. The runs sample
each derivative order once over the whole grid, so a signal that accepts
floats only cannot be simulated.

The forcing (every term of the recursion that comes from exact samples) is
an FIR over those arrays. What is left of the recursion depends on the
feedback weights:

- all zero (BE, BDF2, B, D, E, F): the forcing is the result;
- one weight of +1 or -1 (TR, A, C and every composite stage with such a
  rule): a signed running sum, bit for bit the step-by-step values;
- any other weights: a scalar loop, one ``math.fsum`` per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import atomic_write_text
from .tableau import (
    DifferentiatorRule,
    ObreshkovTableau,
    differentiator_form,
    _structural_violations,
)

__all__ = [
    "Constant",
    "Cosine",
    "Polynomial",
    "SimulationTrace",
    "Step",
    "oscillation_amplitude",
    "proper_init",
    "relative_error_metric",
    "run",
    "run_composite",
    "state_transition_matrix",
    "write_trace_csv",
]


def _check_order(order: int) -> None:
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {order!r}")


def _filled(value: float, t):
    """value at every sample of t: a float for a float, an array of t's shape for an array."""
    return np.full(t.shape, value) if isinstance(t, np.ndarray) else value


@dataclass(frozen=True)
class Cosine:
    """amplitude * cos(omega t); derivatives via the exact two-step recurrence."""

    omega: float
    amplitude: float = 1.0

    def deriv(self, order: int, t):
        _check_order(order)
        cos, sin = (np.cos, np.sin) if isinstance(t, np.ndarray) else (math.cos, math.sin)
        if order == 0:
            return self.amplitude * cos(self.omega * t)
        if order == 1:
            return -self.amplitude * self.omega * sin(self.omega * t)
        return -(self.omega * self.omega) * self.deriv(order - 2, t)


@dataclass(frozen=True)
class Polynomial:
    """sum_q coefficients[q] * t^q (ascending powers)."""

    coefficients: tuple[float, ...]

    def deriv(self, order: int, t):
        _check_order(order)
        c = self.coefficients
        if order >= len(c):
            return _filled(0.0, t)
        acc = 0.0
        for q in range(len(c) - 1, order - 1, -1):
            acc = acc * t + c[q] * math.perm(q, order)
        return acc


@dataclass(frozen=True)
class Constant:
    value: float

    def deriv(self, order: int, t):
        _check_order(order)
        return _filled(self.value if order == 0 else 0.0, t)


@dataclass(frozen=True)
class Step:
    """0 before t_switch, level from t_switch on; derivative samples are all 0."""

    t_switch: float
    level: float

    def deriv(self, order: int, t):
        _check_order(order)
        if order > 0:
            return _filled(0.0, t)
        if isinstance(t, np.ndarray):
            return np.where(t >= self.t_switch, self.level, 0.0)
        return self.level if t >= self.t_switch else 0.0


@dataclass(frozen=True)
class SimulationTrace:
    """Per-sample record of a run; error = computed - exact."""

    grid: np.ndarray
    computed: np.ndarray
    exact: np.ndarray
    error: np.ndarray
    flags: tuple[str, ...]
    meta: dict


def state_transition_matrix(t: ObreshkovTableau) -> np.ndarray:
    """m x m companion form that propagates the computed k-th derivative history."""
    violations = _structural_violations(t)
    if violations:
        raise ValueError("invalid tableau: " + "; ".join(violations))
    ck = t.c[t.k - 1]
    T = np.zeros((t.m, t.m))
    T[0, :] = [-(ck[j] / ck[0]) for j in range(1, t.m + 1)]
    if t.m > 1:
        T[1:, :-1] += np.eye(t.m - 1)
    return T


def proper_init(t: ObreshkovTableau, sig) -> tuple[float, ...]:
    """Exact k-th derivative at the m injection instants 0, -h, ..., -(m-1)h."""
    return tuple(sig.deriv(t.k, -j * t.h) for j in range(t.m))


def _forcing(rule: DifferentiatorRule, sig, grid: np.ndarray) -> np.ndarray:
    """Exact-sample terms of the recursion at grid[m:], as an FIR over grid.

    Each derivative order below k is sampled once over the whole grid; the
    term of slot (i, j) at grid[idx] reads the order-i samples at idx - j.
    """
    m = rule.base.m
    n = len(grid) - m
    u = sig.deriv(0, grid)
    f = rule.gain * u[m:]
    for j, w in enumerate(rule.u_history, start=1):
        f += w * u[m - j : m - j + n]
    for i, row in enumerate(rule.lower, start=1):
        d = sig.deriv(i, grid)
        for j, w in enumerate(row):
            f += w * d[m - j : m - j + n]
    return f


def _step(weights, values, f: float) -> float:
    """sum_j weights[j] * values[j] + f; inf where fsum raises on leaving the float range."""
    try:
        return math.fsum([w * v for w, v in zip(weights, values)]) + f
    except (OverflowError, ValueError):
        return math.inf


def _recursion(feedback: tuple[float, ...], forcing: np.ndarray, history) -> np.ndarray:
    """Values of computed_n = sum_j feedback[j-1] * computed_{n-j} + forcing_n.

    history holds the m values ahead of forcing[0], newest last. The result
    stops before the first value that is not finite, so it is shorter than
    forcing exactly when the run diverged. With all feedback weights zero the
    forcing is the result; a single weight of +1 or -1 is a running sum; any
    other weights run a scalar loop.
    """
    if not any(feedback):
        vals = forcing
    elif len(feedback) == 1 and abs(feedback[0]) == 1.0:
        # y_n = a*y_{n-1} + f_n with a = +-1 is y_n = s_n * z_n, where s_n = a**n and
        # z is the running sum of s_n * f_n from z_0 = y_0. Multiplying by +-1 is exact
        # and cumsum adds in order, so each |y_n| (and the overflow step) is the loop's;
        # + 0.0 turns the -0.0 the sign flips can give into the loop's +0.0.
        s = feedback[0] ** np.arange(len(forcing) + 1)
        vals = (np.cumsum(np.concatenate(([history[-1]], forcing)) * s) * s)[1:] + 0.0
    else:
        m = len(feedback)
        newest_first = feedback[::-1]
        halved = [0.5 * w for w in newest_first]
        vals = [float(v) for v in history]
        for f in forcing.tolist():
            val = _step(newest_first, vals[-m:], f)
            if not math.isfinite(val) and math.isfinite(f):
                # a product or partial sum may have overflowed on the way to a representable
                # step: halving normal numbers is exact, so retry at half scale and cut only
                # a step whose value itself lies outside the float range
                val = 2.0 * _step(halved, vals[-m:], 0.5 * f)
            if not math.isfinite(val):
                break
            vals.append(val)
        return np.array(vals[m:])
    bad = np.flatnonzero(~np.isfinite(vals))
    return vals[: bad[0]] if len(bad) else vals


def run(
    t: ObreshkovTableau, sig, t_end: float, init, engine: str = "direct"
) -> SimulationTrace:
    """Run the recursion on the uniform grid n*h through t_end.

    init supplies the computed k-th derivative at 0, -h, ..., -(m-1)h
    (init[j] belongs to -j*h); those samples are flagged `init`. The
    state_space engine propagates the companion form instead of the scalar
    recursion; both see identical forcing terms.
    """
    if engine not in ("direct", "state_space"):
        raise ValueError(f"engine must be 'direct' or 'state_space', got {engine!r}")
    rule = differentiator_form(t)
    k, m, h = t.k, t.m, t.h
    init = tuple(float(v) for v in init)
    if len(init) != m:
        raise ValueError(f"init must supply m={m} values, got {len(init)}")
    if not all(math.isfinite(v) for v in init):
        raise ValueError("init values must be finite")
    if not (isinstance(t_end, (int, float)) and math.isfinite(t_end)):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    n_steps = int(math.floor(t_end / h + 1e-9))
    if n_steps < m:
        raise ValueError(f"t_end={t_end!r} must cover at least m={m} steps of h={h!r}")

    grid = np.arange(-(m - 1), n_steps + 1) * h
    # a diverging run reports through its status, not through floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = _forcing(rule, sig, grid)
        if engine == "direct":
            main = _recursion(rule.feedback, forcing, init[::-1])
        else:
            T = state_transition_matrix(t)
            x = np.array(init)
            vals = []
            for f in forcing.tolist():
                x = T @ x
                x[0] += f
                val = float(x[0])
                if not math.isfinite(val):
                    break
                vals.append(val)
            main = np.array(vals)

    computed = np.concatenate((init[::-1], main))
    grid = grid[: len(computed)]
    exact = sig.deriv(k, grid)
    meta = {
        "labels": (t.label or f"k{t.k}m{t.m}",),
        "h": h,
        "init": init,
        "engine": engine,
        "signal": repr(sig),
        "status": "OK" if len(main) == len(forcing) else "DIVERGED",
    }
    return SimulationTrace(
        grid=grid,
        computed=computed,
        exact=exact,
        error=computed - exact,
        flags=("init",) * m + ("main",) * len(main),
        meta=meta,
    )


def run_composite(stages, sig, t_end: float, init) -> SimulationTrace:
    """Chain single-step stages on abutting grids (startup stages ahead of the main one).

    stages is a sequence of (tableau, h, step_count); only the final stage may
    pass None to fill the remaining span through t_end. Each stage's first step
    feeds back the previous stage's last computed value, one stage step apart.
    """
    stages = list(stages)
    if not stages:
        raise ValueError("at least one stage is required")
    rules = []
    k = None
    for tab, hs, count in stages:
        if tab.m != 1:
            raise ValueError("composite stages must be single-step (m == 1)")
        if not (isinstance(hs, (int, float)) and math.isfinite(hs) and hs > 0):
            raise ValueError(f"stage step must be a positive finite number, got {hs!r}")
        if abs(hs - tab.h) > 1e-12 * tab.h:
            raise ValueError(f"stage step {hs!r} disagrees with its tableau h={tab.h!r}")
        rules.append(differentiator_form(tab))
        if k is None:
            k = tab.k
        elif tab.k != k:
            raise ValueError("all stages must target the same derivative order")
    if isinstance(init, (int, float)):
        init = (float(init),)
    init = tuple(float(v) for v in init)
    if len(init) != 1 or not math.isfinite(init[0]):
        raise ValueError("composite runs take a single finite init value at t = 0")
    if not (isinstance(t_end, (int, float)) and math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be a positive finite number, got {t_end!r}")

    grids = [np.zeros(1)]
    computed = [np.array(init)]
    flags = ["init"]
    status = "OK"
    anchor = 0.0
    labels = []
    for s_idx, ((tab, hs, count), rule) in enumerate(zip(stages, rules)):
        last = s_idx == len(stages) - 1
        labels.append(tab.label or f"k{tab.k}m{tab.m}")
        if count is None:
            if not last:
                raise ValueError("only the final stage may leave its step count open")
            count = int(math.floor((t_end - anchor) / hs + 1e-9))
        else:
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"stage step count must be a positive integer, got {count!r}")
        if count < 1:
            raise ValueError("stages do not fit: no room left before t_end")
        hs = float(hs)
        grid = anchor + np.arange(count + 1) * hs
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _recursion(rule.feedback, _forcing(rule, sig, grid), computed[-1][-1:])
        grids.append(grid[1 : 1 + len(vals)])
        computed.append(vals)
        flags += ["main" if last else "startup"] * len(vals)
        if len(vals) < count:
            status = "DIVERGED"
            break
        anchor = anchor + count * hs

    grid_arr = np.concatenate(grids)
    computed_arr = np.concatenate(computed)
    exact = sig.deriv(k, grid_arr)
    meta = {
        "labels": tuple(labels),
        "h": tuple(float(hs) for _, hs, _ in stages),
        "init": init,
        "engine": "direct",
        "signal": repr(sig),
        "status": status,
    }
    return SimulationTrace(
        grid=grid_arr,
        computed=computed_arr,
        exact=exact,
        error=computed_arr - exact,
        flags=tuple(flags),
        meta=meta,
    )


def relative_error_metric(trace: SimulationTrace, exclude_first: int = 2) -> float:
    """100 * ||computed - exact||_2 / ||exact||_2, skipping the injected samples
    and the first exclude_first computed steps after t = 0."""
    if not isinstance(exclude_first, int) or exclude_first < 0:
        raise ValueError(f"exclude_first must be a nonnegative integer, got {exclude_first!r}")
    n_init = 0
    for flag in trace.flags:
        if flag != "init":
            break
        n_init += 1
    start = n_init + exclude_first
    err = trace.error[start:]
    ex = trace.exact[start:]
    if len(err) == 0:
        raise ValueError("no samples left after the exclusions")
    denom = float(np.linalg.norm(ex))
    if denom == 0.0:
        raise ValueError("metric undefined: exact derivative norm vanishes on the window")
    return 100.0 * float(np.linalg.norm(err)) / denom


def oscillation_amplitude(trace: SimulationTrace, window) -> float:
    """Mean of |error[n] - error[n-1]| / 2 over consecutive samples inside window."""
    a, b = (float(window[0]), float(window[1]))
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"window must be a finite increasing pair, got {window!r}")
    slop = 1e-9 * max(1.0, abs(a), abs(b))
    inside = (trace.grid >= a - slop) & (trace.grid <= b + slop)
    idx = np.nonzero(inside)[0]
    if len(idx) < 4:
        raise ValueError(f"window {window!r} holds {len(idx)} samples; at least 4 required")
    return float(np.mean(np.abs(np.diff(trace.error[idx])) / 2.0))


def write_trace_csv(trace: SimulationTrace, path) -> None:
    cols = [c.tolist() for c in (trace.grid, trace.computed, trace.exact, trace.error)]
    rows = ["%.17g,%.17g,%.17g,%.17g,%s" % row for row in zip(*cols, trace.flags)]
    atomic_write_text(path, "\n".join(["t,computed,exact,error,flag", *rows]) + "\n")
