"""Fixed-step runs of differentiator tableaus against analytic test signals.

The recursion consumes exact samples of the signal and of its derivatives
below order k; only the k-th derivative history is fed back from computed
values, so any deviation from the exact k-th derivative evolves under the
feedback weights alone.

Signal protocol: a signal is any object with ``deriv(order, t)``, the
order-th derivative at t, where t is a float or a float ndarray. A float
gives a float; an array gives an array of the same shape. Each stage of a
run samples orders 0..k once over its grid, and the runs of one _runs call
that share a grid (same k, m, h and step count) sample it once between them,
so a signal that accepts floats only cannot be simulated. A Cosine answers
every order from one cos pass and one sin pass; any other signal is sampled
order by order through deriv.

The forcing (every term of the recursion that comes from exact samples) is
an FIR over the arrays of orders below k; the trace's exact column is the
order-k samples of each stage's computed part. What is left of the
recursion depends on the feedback weights:

- all zero (BE, BDF2, B, D, E, F): the forcing is the result;
- one weight of +1 or -1 (TR, A, C and every composite stage with such a
  rule): a signed running sum, bit for bit the step-by-step values;
- any other single weight: a scalar loop of one product a step;
- two or more weights: a scalar loop whose sum() adds m = 2 products in order;
  from Python 3.12 on it compensates m >= 3, which can change the last bit.

The state_space engine takes the scalar loops for every rule, so the
single-weight loop serves it for all single-step rules.

run, its many-tableau form _runs and run_composite check their inputs on one
path: _staged checks a list of (tableau, h, count) stages once and gives
_run_stages its input, on either engine. run is its one-stage case;
run_composite adds only its single-init and single-step rules and runs on
the direct engine. A run of more than MAX_SAMPLES samples is refused before
any grid is built.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import mul

from ._files import atomic_write_text
from ._numpy import np
from .suitability import _companion, characteristic_polynomial
from .tableau import (
    DifferentiatorRule, ObreshkovTableau, _finite, _is_int, _label, _shown, differentiator_form,
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
    if not _is_int(order) or order < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {_shown(order)}")


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
    return _companion(characteristic_polynomial(t))


def proper_init(t: ObreshkovTableau, sig) -> tuple[float, ...]:
    """Exact k-th derivative at the m injection instants 0, -h, ..., -(m-1)h."""
    return tuple(sig.deriv(t.k, -j * t.h) for j in range(t.m))


def _samples(sig, k: int, grid: np.ndarray) -> list:
    """Orders 0..k of sig on grid, each sampled once.

    A Cosine takes one cos pass (order 0) and one sin pass (order 1); order
    i >= 2 is -(omega * omega) times order i - 2, the product its deriv forms,
    so every array is deriv's bit for bit (a subclass of Cosine is held to the
    same recurrence). Any other signal is sampled order by order through deriv.
    """
    if not isinstance(sig, Cosine):
        return [sig.deriv(i, grid) for i in range(k + 1)]
    d = [sig.deriv(i, grid) for i in range(min(k, 1) + 1)]
    w2 = -(sig.omega * sig.omega)
    for i in range(2, k + 1):
        d.append(w2 * d[i - 2])
    return d


def _forcing(rule: DifferentiatorRule, samples) -> np.ndarray:
    """Exact-sample terms of the recursion at grid[m:], as an FIR over grid.

    samples[i] holds the order-i derivative over the whole grid (see _samples),
    for every order i below k; the term of slot (i, j) at grid[idx] reads
    samples[i][idx - j].
    """
    m = rule.base.m
    u = samples[0]
    n = len(u) - m
    f = rule.gain * u[m:]
    for j, w in enumerate(rule.u_history, start=1):
        f += w * u[m - j : m - j + n]
    for i, row in enumerate(rule.lower, start=1):
        d = samples[i]
        for j, w in enumerate(row):
            f += w * d[m - j : m - j + n]
    return f


def _stepwise(feedback, forcing: np.ndarray, history) -> np.ndarray:
    """computed_n = sum_j feedback[j-1] * computed_{n-j} + forcing_n, one step at a
    time from the m values of history (newest last), up to the first step whose value
    lies outside the float range. sum() adds m <= 2 products in order on every Python;
    from 3.12 on it compensates m >= 3, which can change the last bit."""
    out = []
    if len(feedback) == 1:
        # the generic step with its one product written out: sum() of one term is
        # 0 + p (its int start turns -0.0 into +0.0), with no compensation to add
        w, y = feedback[0], float(history[-1])
        for f in forcing.tolist():
            val = (0.0 + w * y) + f
            if not math.isfinite(val):
                val = 2.0 * ((0.0 + (0.5 * w) * y) + 0.5 * f)
                if not math.isfinite(val):
                    break
            out.append(val)
            y = val
        return np.array(out)
    x = deque([float(v) for v in history[::-1]], maxlen=len(feedback))
    for f in forcing.tolist():
        val = sum(map(mul, feedback, x)) + f
        if not math.isfinite(val):
            # a product or partial sum may have overflowed on the way to a representable
            # step: halving normal numbers is exact, so retry at half scale
            val = 2.0 * (sum(map(mul, [0.5 * w for w in feedback], x)) + 0.5 * f)
            if not math.isfinite(val):
                break
        out.append(val)
        x.appendleft(val)
    return np.array(out)


def _recursion(feedback: tuple[float, ...], forcing: np.ndarray, history) -> np.ndarray:
    """Values of computed_n = sum_j feedback[j-1] * computed_{n-j} + forcing_n.

    history holds the m values ahead of forcing[0], newest last. The result
    stops before the first value that is not finite, so it is shorter than
    forcing exactly when the run diverged. With all feedback weights zero the
    forcing is the result; a single weight of +1 or -1 is a running sum; any
    other weights take the state_space engine's step loop.
    """
    if not any(feedback):
        vals = forcing
    elif len(feedback) == 1 and abs(feedback[0]) == 1.0:
        # y_n = a*y_{n-1} + f_n with a = +-1 is y_n = s_n * z_n, where s_n = a**n and
        # z is the running sum of s_n * f_n from z_0 = y_0. Multiplying by +-1 is exact
        # and cumsum adds in order, so each |y_n| (and the overflow step) is the loop's;
        # + 0.0 turns the -0.0 the sign flips can give into the loop's +0.0.
        s = np.ones(len(forcing) + 1)
        s[1::2] = feedback[0]
        vals = (np.cumsum(np.concatenate(([history[-1]], forcing)) * s) * s)[1:] + 0.0
    else:
        return _stepwise(feedback, forcing, history)
    bad = np.flatnonzero(~np.isfinite(vals))
    return vals[: bad[0]] if len(bad) else vals


def _step_count(t_end: float, h: float, anchor: float = 0.0) -> int:
    """Whole steps of h from anchor through t_end, forgiving 1e-9 of a step of round-off."""
    steps = (t_end - anchor) / h
    if not math.isfinite(steps):
        raise ValueError(f"t_end={t_end!r} holds too many steps of h={h!r} to count")
    return int(math.floor(steps + 1e-9))


def _run_stages(
    stages, sig, init: tuple[float, ...], engine: str, h_meta, sampled: dict
) -> SimulationTrace:
    """Run (rule, h, count) stages back to back from t = 0.

    init supplies the computed k-th derivative at the m grid points up to
    t = 0 (init[j] belongs to j first-stage steps before t = 0). Each stage
    lays its grid from the end of the one before and starts from the last m
    values computed ahead of it. The final stage's samples are flagged
    `main`, earlier stages' `startup`.

    sampled maps a grid's key to the grid and sig's samples on it. A stage whose
    grid is already there reuses them, and the trace then shares their memory
    with the runs that sampled them; the caller owns the dict.
    """
    m = len(init)
    k = stages[0][0].base.k
    history = init[::-1]
    grids, computed, exact, flags = [], [np.array(history)], [], ("init",) * m
    labels, status, diverged_at, anchor = [], "OK", None, 0.0
    # a diverging run reports through its status, not through floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for s_idx, (rule, h, count) in enumerate(stages):
            t = rule.base
            labels.append(_label(t))
            key = (k, m, h, count, anchor)
            if key not in sampled:
                grid = anchor + np.arange(-(m - 1), count + 1) * h
                sampled[key] = grid, _samples(sig, k, grid)
            grid, samples = sampled[key]
            forcing = _forcing(rule, samples)
            # state_space steps x <- T x + f e_1 in Python floats: the first row of T
            # is the feedback, and below it T only shifts x down
            step = _recursion if engine == "direct" else _stepwise
            vals = step(rule.feedback, forcing, history)
            # the first stage's grid also holds the init points
            kept = slice(m if s_idx else 0, m + len(vals))
            grids.append(grid[kept])
            exact.append(samples[k][kept])
            computed.append(vals)
            flags += ("main" if s_idx == len(stages) - 1 else "startup",) * len(vals)
            if len(vals) < count:
                # the grid time of the first step outside the float range
                status, diverged_at = "DIVERGED", float(grid[m + len(vals)])
                break
            history = np.concatenate((history, vals[-m:]))[-m:]
            anchor = anchor + count * h

        grid = np.concatenate(grids) if len(grids) > 1 else grids[0]
        exact = np.concatenate(exact) if len(exact) > 1 else exact[0]
        computed = np.concatenate(computed)
        error = computed - exact
    meta = {
        "labels": tuple(labels),
        "h": h_meta,
        "init": init,
        "engine": engine,
        "signal": repr(sig),
        "status": status,
        "diverged_at": diverged_at,
    }
    return SimulationTrace(
        grid=grid,
        computed=computed,
        exact=exact,
        error=error,
        flags=flags,
        meta=meta,
    )


def _init_values(init) -> tuple:
    """init as a tuple; a value that cannot be iterated (a float, a numpy scalar) is one value."""
    try:
        return tuple(init)
    except TypeError:
        return (init,)


def run(
    t: ObreshkovTableau, sig, t_end: float, init, engine: str = "direct"
) -> SimulationTrace:
    """Run the recursion on the uniform grid n*h through t_end.

    init supplies the computed k-th derivative at 0, -h, ..., -(m-1)h (init[j]
    belongs to -j*h); those samples are flagged `init`, and a lone value such as
    1.0 is taken as (1.0,), as in run_composite. The state_space engine steps the
    companion form; the direct engine takes the same steps but runs all-zero and
    single +-1 feedback in closed form. Both see identical forcing terms.
    """
    return _runs((t,), sig, t_end, init, engine)[0]


def _runs(tableaus, sig, t_end: float, init, engine: str = "direct") -> list[SimulationTrace]:
    """run(t, sig, t_end, init, engine) for each t of tableaus, in order.

    Every tableau is checked as run checks it before any of them runs. Runs
    with the same k, m, h and step count lay the same grid, and sig is sampled
    on it once; their traces share the grid and exact arrays. Nothing is kept
    after the call.
    """
    checked, sampled = [_staged([(t, t.h, None)], t_end, init, engine) for t in tableaus], {}
    return [_run_stages(stages, sig, values, engine, stages[0][1], sampled) for stages, values in checked]


def run_composite(stages, sig, t_end: float, init) -> SimulationTrace:
    """Chain single-step stages on abutting grids (startup stages ahead of the main one).

    stages is a sequence of (tableau, h, step_count); only the final stage may
    pass None to fill the remaining span through t_end. Each stage's first step
    feeds back the previous stage's last computed value, one stage step apart.
    """
    if not (stages := list(stages)):
        raise ValueError("at least one stage is required")
    init = _init_values(init)
    if len(init) != 1 or not _finite(init[0]):
        raise ValueError(f"composite runs take a single finite init value at t = 0, got {_shown(init)}")
    if any(tab.m != 1 for tab, _, _ in stages):
        raise ValueError("composite stages must be single-step (m == 1)")
    fitted, init = _staged(stages, t_end, init, "direct")
    return _run_stages(fitted, sig, init, "direct", tuple(hs for _, hs, _ in fitted), {})


# the most samples, init points included, that one run may lay: a run takes 64-104
# bytes a sample and writing its CSV 217-231 (tracemalloc peaks of 10**6-sample D and
# TR runs on either engine), so a run at the budget peaks near 2.3 GB with its CSV
MAX_SAMPLES = 10_000_000


def _staged(stages, t_end: float, init, engine: str) -> tuple[list, tuple[float, ...]]:
    """Check the (tableau, h, count or None) stages of a run from t = 0 and give
    _run_stages their (rule, h, count) list and init as floats: each h is its
    tableau's, k is the first stage's and init holds its m values. Only the final
    stage may leave its count open, to fill the span through t_end with m or more steps.
    All stages together lay at most MAX_SAMPLES samples."""
    if engine not in ("direct", "state_space"):
        raise ValueError(f"engine must be 'direct' or 'state_space', got {_shown(engine)}")
    values, k, m = _init_values(init), stages[0][0].k, stages[0][0].m
    if len(values) != m:
        raise ValueError(f"init must supply m={m} values, got {len(values)}")
    if not all(map(_finite, values)):
        raise ValueError(f"init values must be finite numbers, got {_shown(values)}")
    if not (_finite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be a positive finite number, got {_shown(t_end)}")
    fitted, anchor, samples = [], 0.0, m
    for s_idx, (tab, hs, count) in enumerate(stages):
        if not (_finite(hs) and hs > 0):
            raise ValueError(f"stage step must be a positive finite number, got {_shown(hs)}")
        if abs(hs - tab.h) > 1e-12 * tab.h:
            raise ValueError(f"stage step {hs!r} disagrees with its tableau h={tab.h!r}")
        rule = differentiator_form(tab)
        if tab.k != k:
            raise ValueError("all stages must target the same derivative order")
        hs = float(hs)
        if count is None:
            if s_idx < len(stages) - 1:
                raise ValueError("only the final stage may leave its step count open")
            count = _step_count(t_end, hs, anchor)
            if count < m:
                raise ValueError(
                    f"steps do not fit: t_end={t_end!r} must cover at least m={m} steps of h={hs!r}"
                )
        elif not _is_int(count) or count < 1:
            raise ValueError(f"stage step count must be a positive integer, got {_shown(count)}")
        samples += count
        if samples > MAX_SAMPLES:
            raise ValueError(
                f"t_end={t_end!r} at h={hs!r} takes {samples:.3e} samples, "
                f"over the budget of {MAX_SAMPLES:,} samples a run"
            )
        fitted.append((rule, hs, count))
        anchor = anchor + count * hs
    return fitted, tuple(map(float, values))


def relative_error_metric(trace: SimulationTrace, exclude_first: int = 2) -> float:
    """100 * ||computed - exact||_2 / ||exact||_2, skipping the injected samples
    and the first exclude_first computed steps after t = 0."""
    if not _is_int(exclude_first) or exclude_first < 0:
        raise ValueError(f"exclude_first must be a nonnegative integer, got {_shown(exclude_first)}")
    # init samples lead the trace, so the count stops at the first other flag
    n_init = next((i for i, flag in enumerate(trace.flags) if flag != "init"), len(trace.flags))
    start = n_init + exclude_first
    err = trace.error[start:]
    ex = trace.exact[start:]
    if len(err) == 0:
        raise ValueError("no samples left after the exclusions")
    (err, err_exp), (ex, ex_exp) = _pow2_scaled(err), _pow2_scaled(ex)
    # a scaled norm of finite samples is finite, so a non-finite one holds such a sample
    num, denom = float(np.linalg.norm(err)), float(np.linalg.norm(ex))
    for what, norm in (("exact derivative", denom), ("error", num)):
        if not math.isfinite(norm):
            raise ValueError(f"metric undefined: a non-finite {what} sample on the window")
    if denom == 0.0:
        raise ValueError("metric undefined: exact derivative norm vanishes on the window")
    try:
        return math.ldexp(100.0 * num / denom, err_exp - ex_exp)
    except OverflowError:
        raise ValueError("metric undefined: the ratio of the norms exceeds the float range") from None


def _pow2_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(scaled, e) with values == scaled * 2**e and max |scaled| in [0.5, 1).
    The scaling is exact (bar values 2**1000 below the largest), so a sum, mean
    or norm of scaled rounds as values' would, but cannot overflow."""
    e = math.frexp(float(np.max(np.abs(values))))[1]
    return np.ldexp(values, -e), e


def oscillation_amplitude(trace: SimulationTrace, window) -> float:
    """Mean of |error[n] - error[n-1]| / 2 over consecutive samples inside window."""
    a, b = window[0], window[1]
    if not (_finite(a) and _finite(b) and a < b):
        raise ValueError(f"window must be a finite increasing pair, got {_shown(window)}")
    a, b = float(a), float(b)
    slop = 1e-9 * max(1.0, abs(a), abs(b))
    inside = (trace.grid >= a - slop) & (trace.grid <= b + slop)
    idx = np.nonzero(inside)[0]
    if len(idx) < 4:
        raise ValueError(f"window {window!r} holds {len(idx)} samples; at least 4 required")
    with np.errstate(over="ignore", invalid="ignore"):
        amplitude = float(np.mean(np.abs(np.diff(trace.error[idx])) / 2.0))
    if not math.isfinite(amplitude):
        raise ValueError(f"oscillation amplitude over {window!r} is not finite (error too large)")
    return amplitude


def _settle_step(error: np.ndarray, threshold: float) -> int:
    """First step from which |error| stays below threshold; len(error) if the last
    sample is not below it. A NaN sample does not count as above."""
    above = np.flatnonzero(np.abs(error) >= threshold)
    return int(above[-1]) + 1 if len(above) else 0


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Write trace to path as CSV: a header line "t,computed,exact,error,flag",
    then one line per sample with the grid time, the computed and exact k-th
    derivative and their difference, each as "%.17g", and the sample's flag
    (`init`, `startup` or `main`)."""
    from ._csv import table  # loaded by the first CSV write, not by every import

    columns = (trace.grid, trace.computed, trace.exact, trace.error)
    atomic_write_text(path, table("t,computed,exact,error,flag", columns, trace.flags))
