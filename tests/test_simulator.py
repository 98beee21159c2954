from __future__ import annotations

import ast
import math
import sys
import warnings
from collections import Counter, deque
from dataclasses import replace
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from obreshkov import (
    CATALOG_NAMES,
    FREQUENCY_TUNED,
    OMEGA_SYN,
    Constant,
    Cosine,
    ObreshkovTableau,
    Polynomial,
    Step,
    differentiator_form,
    make_catalog,
    origin_multiplicity,
    oscillation_amplitude,
    proper_init,
    relative_error,
    relative_error_metric,
    run,
    run_composite,
    state_transition_matrix,
)
from obreshkov import simulator
from obreshkov._csv import CROSSOVER
from obreshkov.simulator import SimulationTrace, write_trace_csv
from obreshkov.suitability import classify_tableau

IDEAL_MEMBERS = ("BE", "BDF2", "B", "D", "E", "F")


def reference_run(t, sig, t_end, init):
    """Per-step run: scalar samples, math.fsum forcing and recursion on every step.

    Kept here, independent of the package's kernel, as the reference it must match.
    """
    rule = differentiator_form(t)
    k, m, h = t.k, t.m, t.h
    n_steps = int(math.floor(t_end / h + 1e-9))
    grid = [n * h for n in range(-(m - 1), n_steps + 1)]
    u = [sig.deriv(0, tt) for tt in grid]
    lower = [[sig.deriv(i, tt) for tt in grid] for i in range(1, k)]
    computed = list(init[::-1])
    for idx in range(m, len(grid)):
        terms = [rule.gain * u[idx]]
        terms += [rule.u_history[j - 1] * u[idx - j] for j in range(1, m + 1)]
        terms += [
            rule.lower[i - 1][j] * lower[i - 1][idx - j] for i in range(1, k) for j in range(m + 1)
        ]
        feedback = math.fsum(rule.feedback[j - 1] * computed[idx - j] for j in range(1, m + 1))
        computed.append(feedback + math.fsum(terms))
    return np.array(computed), u, lower


def loop_recursion(feedback, forcing, history):
    """Step-by-step recursion: one math.fsum per step, cut at the first non-finite value.

    Kept here, independent of the package's kernel, as the reference its
    recursion must match bit for bit.
    """
    if not any(feedback):
        bad = np.flatnonzero(~np.isfinite(forcing))
        return forcing[: bad[0]] if len(bad) else forcing
    m = len(feedback)
    newest_first = feedback[::-1]
    vals = [float(v) for v in history]
    for f in forcing.tolist():
        try:
            val = math.fsum([w * v for w, v in zip(newest_first, vals[-m:])]) + f
        except (OverflowError, ValueError):
            break
        if not math.isfinite(val):
            break
        vals.append(val)
    return np.array(vals[m:])


def reference_csv(trace) -> bytes:
    """Trace CSV formatted one row at a time, the bytes write_trace_csv must produce."""
    lines = ["t,computed,exact,error,flag"]
    for tt, comp, ex, err, flag in zip(
        trace.grid, trace.computed, trace.exact, trace.error, trace.flags
    ):
        lines.append(f"{tt:.17g},{comp:.17g},{ex:.17g},{err:.17g},{flag}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def loop_settle_step(error, threshold) -> int:
    """fig3's settle step as the CLI once computed it, one sample at a time from the end."""
    settle = len(error)
    for n in range(len(error) - 1, -1, -1):
        if abs(error[n]) >= threshold:
            break
        settle = n
    return settle


def catalog(name: str, h: float = 1e-3):
    return make_catalog(name, h, omega_select=OMEGA_SYN if name in FREQUENCY_TUNED else None)


def test_alternating_error_on_constant_signal():
    h = 1e-3
    t = make_catalog("TR", h)
    trace = run(t, Constant(5.0), 12 * h, (1.0,))
    expected = np.array([(-1.0) ** n for n in range(13)])
    assert np.array_equal(trace.error, expected)
    assert np.array_equal(trace.computed, expected)
    assert oscillation_amplitude(trace, (0.0, 12 * h)) == 1.0


def test_zero_feedback_kills_injected_error():
    h = 1e-3
    trace = run(make_catalog("BE", h), Constant(5.0), 10 * h, (1.0,))
    assert trace.error[0] == 1.0
    assert np.array_equal(trace.error[1:], np.zeros(10))


def test_two_step_rule_exact_on_quadratic():
    h = 0.1
    t = make_catalog("BDF2", h)
    sig = Polynomial((0.0, 0.0, 1.0))
    trace = run(t, sig, 3.0, proper_init(t, sig))
    scale = max(1.0, float(np.max(np.abs(trace.exact))))
    assert float(np.max(np.abs(trace.error))) <= 1e-12 * scale


def test_engines_agree_on_randomized_tableaus():
    rng = np.random.default_rng(20240817)
    for case in range(100):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        h = float(10.0 ** rng.uniform(-4, 0))
        roots: list[complex] = []
        while len(roots) < m:
            if m - len(roots) >= 2 and rng.random() < 0.5:
                z = rng.uniform(0.0, 1.02) * np.exp(1j * rng.uniform(0.0, np.pi))
                roots += [z, np.conj(z)]
            else:
                roots.append(complex(rng.uniform(-1.02, 1.02)))
        poly = np.real(np.poly(roots))
        ck0 = float((1 if rng.random() < 0.5 else -1) * 10.0 ** rng.uniform(-1, 1) * h**k)
        rows = [
            tuple(float(rng.normal(0.0, 1.0)) * h**i for _ in range(m + 1))
            for i in range(1, k)
        ]
        rows.append(tuple(float(coeff * ck0) for coeff in poly))
        c0 = rng.normal(0.0, 1.0, m)
        c0[0] += 1.0 - math.fsum(c0)
        t = ObreshkovTableau(
            k=k, m=m, h=h, c0=tuple(float(v) for v in c0), c=tuple(rows)
        )
        sig = (
            Cosine(float(rng.uniform(1.0, 500.0)), float(rng.uniform(0.5, 2.0))),
            Polynomial(tuple(float(v) for v in rng.normal(0.0, 1.0, 5))),
            Constant(float(rng.normal(0.0, 3.0))),
        )[case % 3]
        init = tuple(float(v) for v in rng.normal(0.0, 10.0, m))
        a = run(t, sig, 60 * h, init, engine="direct")
        b = run(t, sig, 60 * h, init, engine="state_space")
        assert a.meta["status"] == "OK" and b.meta["status"] == "OK"
        scale = max(1.0, float(np.max(np.abs(a.computed))))
        assert float(np.max(np.abs(a.computed - b.computed))) <= 1e-12 * scale


def test_injected_error_superposition():
    rng = np.random.default_rng(31415)
    sig = Cosine(OMEGA_SYN, 1.0)
    for name in ("TR", "BDF2", "A", "C"):
        t = catalog(name)
        m = t.m
        init_a = tuple(float(v) for v in rng.normal(0.0, 100.0, m))
        init_b = tuple(float(v) for v in rng.normal(0.0, 100.0, m))
        tr_a = run(t, sig, 0.03, init_a)
        tr_b = run(t, sig, 0.03, init_b)
        delta = tuple(x - y for x, y in zip(init_a, init_b))
        hom = run(t, Constant(0.0), 0.03, delta)
        diff = tr_a.error - tr_b.error
        scale = max(1.0, float(np.max(np.abs(diff))))
        assert float(np.max(np.abs(hom.computed - diff))) <= 1e-10 * scale


def test_root_driven_decay():
    h = 0.01
    # single root at 0.5: feedback multiplies by exactly 0.5 each step
    t1 = ObreshkovTableau(k=1, m=1, h=h, c0=(1.0,), c=((h, -0.5 * h),))
    trace = run(t1, Constant(0.0), 40 * h, (1.0,))
    for n, value in enumerate(trace.computed):
        assert value == 0.5**n
    # roots 0.5 and 0.3: bound |e_n| <= 2.5 * 0.5^n from the explicit solution
    t2 = ObreshkovTableau(k=1, m=2, h=h, c0=(1.0, 0.0), c=((h, -0.8 * h, 0.15 * h),))
    trace2 = run(t2, Constant(0.0), 40 * h, (1.0, 1.0))
    for idx in range(1, len(trace2.grid)):
        n = idx - 1
        assert abs(trace2.computed[idx]) <= 2.5 * 0.5**n + 1e-14


def test_ideal_members_forget_init_bitwise():
    sig = Cosine(OMEGA_SYN, 1.0)
    for name in IDEAL_MEMBERS:
        t = catalog(name)
        m = t.m
        for engine in ("direct", "state_space"):
            a = run(t, sig, 0.012, tuple(0.0 for _ in range(m)), engine=engine)
            b = run(t, sig, 0.012, tuple(5e5 for _ in range(m)), engine=engine)
            assert not np.array_equal(a.computed[:m], b.computed[:m])
            assert np.array_equal(a.computed[m:], b.computed[m:]), (name, engine)


def test_polynomial_exactness_matches_multiplicity():
    rng = np.random.default_rng(55)
    h = 0.01
    for name in CATALOG_NAMES:
        t = make_catalog(name, h, 3.7 if name in FREQUENCY_TUNED else None)
        p = origin_multiplicity(t)
        sig = Polynomial(tuple(float(v) for v in rng.normal(0.0, 1.0, p)))
        trace = run(t, sig, 0.5, proper_init(t, sig))
        scale = max(1.0, float(np.max(np.abs(trace.exact))))
        assert float(np.max(np.abs(trace.error))) <= 1e-9 * scale, name


def test_frequency_exactness_with_proper_init():
    sig = Cosine(OMEGA_SYN, 1.0)
    for name in ("A", "B", "E"):
        t = make_catalog(name, 1e-3, OMEGA_SYN)
        trace = run(t, sig, 0.03, proper_init(t, sig))
        assert float(np.max(np.abs(trace.error))) <= 1e-9 * OMEGA_SYN**2, name


def test_metric_matches_transfer_prediction():
    t = make_catalog("D", 1e-3)
    trace = run(t, Cosine(OMEGA_SYN, 1.0), 1.0, (0.0,))
    metric = relative_error_metric(trace)
    # steady state: error phasor is R(jw) * u-phasor, exact is -w^2 * u-phasor
    predicted = 100.0 * abs(relative_error(t, 1j * OMEGA_SYN)) / (
        OMEGA_SYN**2 * abs(t.c[1][0])
    )
    assert abs(metric - predicted) / predicted <= 5e-3


def test_metric_independent_of_init_for_zero_feedback():
    t = make_catalog("D", 1e-3)
    sig = Cosine(OMEGA_SYN, 1.0)
    m_a = relative_error_metric(run(t, sig, 0.5, (0.0,)))
    m_b = relative_error_metric(run(t, sig, 0.5, (1e6,)))
    assert m_a == m_b


def test_oscillation_amplitudes_on_reproduction_runs():
    sig = Cosine(OMEGA_SYN, 1.0)
    tr_trace = run(make_catalog("TR", 1e-3), sig, 0.02, (300.0,))
    amp_tr = oscillation_amplitude(tr_trace, (0.01, 0.02))
    assert 270.0 <= amp_tr <= 330.0
    be_trace = run(make_catalog("BE", 1e-3), sig, 0.02, (300.0,))
    amp_be = oscillation_amplitude(be_trace, (0.01, 0.02))
    # truncation ripple only: ~(wh/2)*(h/2)*w^2*mean|cos|, about 8.7 here
    assert amp_be < 10.0
    assert amp_be < amp_tr / 30.0


def test_composite_startup_grid_and_flags():
    sig = Cosine(OMEGA_SYN, 1.0)
    be_half = make_catalog("BE", 5e-4)
    tr = make_catalog("TR", 1e-3)
    trace = run_composite([(be_half, 5e-4, 2), (tr, 1e-3, None)], sig, 0.02, 300.0)
    assert np.allclose(trace.grid[:5], [0.0, 5e-4, 1e-3, 2e-3, 3e-3], rtol=0.0, atol=1e-12)
    assert trace.flags[:4] == ("init", "startup", "startup", "main")
    assert trace.flags[-1] == "main"
    assert trace.meta["labels"] == ("BE", "TR")
    assert abs(trace.grid[-1] - 0.02) <= 1e-9
    assert oscillation_amplitude(trace, (0.01, 0.02)) > 1.0

    trace4 = run_composite([(be_half, 5e-4, 4), (tr, 1e-3, None)], sig, 0.02, 300.0)
    assert np.allclose(trace4.grid[:6], [0.0, 5e-4, 1e-3, 1.5e-3, 2e-3, 3e-3], rtol=0.0, atol=1e-12)
    assert trace4.flags[1:5] == ("startup",) * 4
    early = oscillation_amplitude(trace4, (0.005, 0.01))
    late = oscillation_amplitude(trace4, (0.015, 0.02))
    assert 0.9 <= early / late <= 1.1


def test_composite_single_stage_constant():
    h = 1e-3
    trace = run_composite([(make_catalog("BE", h), h, None)], Constant(5.0), 10 * h, 300.0)
    assert trace.error[0] == 300.0
    assert np.array_equal(trace.error[1:], np.zeros(10))


# a well-shaped tableau whose value-history weights sum to 0.5, and require_valid's refusal of it
HALF = ObreshkovTableau(k=1, m=1, h=1e-3, c0=(0.5,), c=((1e-3, 0.0),))
INCONSISTENT = (
    r"^invalid tableau: value-history weights must sum to 1 \(constant signals reproduced\), got 0\.5$"
)


def test_composite_validation():
    h = 1e-3
    be = make_catalog("BE", h)
    tr = make_catalog("TR", h)
    sig = Constant(1.0)
    with pytest.raises(ValueError, match="single-step"):
        run_composite([(make_catalog("BDF2", h), h, None)], sig, 10 * h, 0.0)
    with pytest.raises(ValueError, match="derivative order"):
        run_composite([(be, h, 2), (catalog("D"), h, None)], sig, 10 * h, 0.0)
    with pytest.raises(ValueError, match="final stage"):
        run_composite([(be, h, None), (tr, h, 2)], sig, 10 * h, 0.0)
    with pytest.raises(ValueError, match="disagrees"):
        run_composite([(be, 2 * h, 2), (tr, h, None)], sig, 10 * h, 0.0)
    with pytest.raises(ValueError, match="single finite init"):
        run_composite([(be, h, None)], sig, 10 * h, (1.0, 2.0))
    with pytest.raises(ValueError, match="at least one stage"):
        run_composite([], sig, 10 * h, 0.0)
    with pytest.raises(ValueError, match="step count"):
        run_composite([(be, h, 0), (tr, h, None)], sig, 10 * h, 0.0)
    with pytest.raises(ValueError, match="do not fit"):
        run_composite([(be, h, None)], sig, h / 2.0, 0.0)
    with pytest.raises(ValueError, match=INCONSISTENT):
        run_composite([(HALF, h, None)], sig, 10 * h, 0.0)


def test_divergence_truncates_trace():
    t = ObreshkovTableau(k=1, m=1, h=1e-3, c0=(1.0,), c=((1e-3, -2e-3),))
    with np.errstate(over="ignore"):
        trace = run(t, Constant(0.0), 2.0, (1e300,))
    assert trace.meta["status"] == "DIVERGED"
    assert len(trace.grid) < 2001
    assert np.all(np.isfinite(trace.computed))
    assert len(trace.flags) == len(trace.grid) == len(trace.computed) == len(trace.error)


def test_metric_validation():
    h = 1e-3
    t = make_catalog("TR", h)
    sig = Cosine(OMEGA_SYN, 1.0)
    with pytest.raises(ValueError, match="no samples left"):
        relative_error_metric(run(t, sig, 2 * h, (0.0,)))
    with pytest.raises(ValueError, match="vanishes"):
        relative_error_metric(run(t, Constant(5.0), 10 * h, (0.0,)))
    with pytest.raises(ValueError, match="exclude_first"):
        relative_error_metric(run(t, sig, 10 * h, (0.0,)), exclude_first=-1)


def test_metric_exclude_first_is_not_a_bool():
    # True is an int subclass; it would read as exclude_first = 1
    t = make_catalog("TR", 1e-3)
    trace = run(t, Cosine(OMEGA_SYN, 1.0), 0.01, (0.0,))
    with pytest.raises(ValueError, match="^exclude_first must be a nonnegative integer, got True$"):
        relative_error_metric(trace, True)


def test_derivative_order_is_not_a_bool():
    # True is an int subclass; deriv(True, t) would give the first derivative
    for sig in (Cosine(2.0), Polynomial((1.0, 2.0)), Constant(1.0), Step(0.0, 1.0)):
        with pytest.raises(ValueError, match="^derivative order must be a nonnegative integer, got True$"):
            sig.deriv(True, 0.5)


def test_oscillation_window_validation():
    t = make_catalog("TR", 1e-3)
    trace = run(t, Constant(5.0), 0.01, (1.0,))
    with pytest.raises(ValueError, match="increasing"):
        oscillation_amplitude(trace, (0.5, 0.2))
    with pytest.raises(ValueError, match="at least 4"):
        oscillation_amplitude(trace, (0.0, 2e-3))
    with pytest.raises(ValueError, match="increasing"):
        oscillation_amplitude(trace, (math.nan, 1.0))


def test_trace_csv_round_trip(tmp_path):
    t = make_catalog("TR", 1e-3)
    trace = run(t, Cosine(OMEGA_SYN, 1.0), 0.01, (300.0,))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,computed,exact,error,flag"
    assert len(lines) == len(trace.grid) + 1
    for idx in (1, 5, len(lines) - 1):
        tt, comp, ex, err, flag = lines[idx].split(",")
        assert float(tt) == trace.grid[idx - 1]
        assert float(comp) == trace.computed[idx - 1]
        assert float(ex) == trace.exact[idx - 1]
        assert float(err) == trace.error[idx - 1]
        assert flag == trace.flags[idx - 1]
    write_trace_csv(trace, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_proper_init_values():
    h = 1e-3
    sig = Cosine(OMEGA_SYN, 2.0)
    tr = make_catalog("TR", h)
    assert proper_init(tr, sig) == (sig.deriv(1, 0.0),)
    bdf2 = make_catalog("BDF2", h)
    assert proper_init(bdf2, sig) == (sig.deriv(1, 0.0), sig.deriv(1, -h))
    d = make_catalog("D", h)
    assert proper_init(d, sig) == (sig.deriv(2, 0.0),)


def test_run_validation():
    t = make_catalog("BDF2", 1e-3)
    sig = Constant(1.0)
    with pytest.raises(ValueError, match="init must supply"):
        run(t, sig, 0.01, (1.0,))
    with pytest.raises(ValueError, match="finite"):
        run(t, sig, 0.01, (1.0, math.inf))
    with pytest.raises(ValueError, match="cover at least"):
        run(t, sig, 1e-3, (0.0, 0.0))
    with pytest.raises(ValueError, match="engine"):
        run(t, sig, 0.01, (0.0, 0.0), engine="implicit")
    with pytest.raises(ValueError, match="t_end"):
        run(t, sig, math.nan, (0.0, 0.0))
    with pytest.raises(ValueError, match=INCONSISTENT):
        run(HALF, sig, 0.01, (0.0,))


def test_state_transition_matrix_entries():
    assert np.array_equal(
        state_transition_matrix(make_catalog("BDF2", 1e-3)),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    )
    assert np.array_equal(
        state_transition_matrix(make_catalog("TR", 1e-3)), np.array([[-1.0]])
    )
    with pytest.raises(ValueError):
        state_transition_matrix(
            ObreshkovTableau(k=1, m=1, h=1e-3, c0=(1.0,), c=((0.0, 1.0),))
        )


def test_signal_derivatives():
    sig = Cosine(3.0, 2.0)
    for order in range(4):
        for t in (0.0, 0.4, -1.3):
            assert sig.deriv(order + 2, t) == -(9.0) * sig.deriv(order, t)
    assert sig.deriv(1, 0.5) == -2.0 * 3.0 * math.sin(1.5)

    p = Polynomial((3.0, -2.0, 5.0, 1.0))
    assert p.deriv(0, 2.0) == 27.0
    assert p.deriv(1, 2.0) == 30.0
    assert p.deriv(2, 2.0) == 22.0
    assert p.deriv(3, 10.0) == 6.0
    assert p.deriv(4, 10.0) == 0.0

    step = Step(0.5, 7.0)
    assert step.deriv(0, 0.49) == 0.0
    assert step.deriv(0, 0.5) == 7.0
    assert step.deriv(0, 0.51) == 7.0
    assert step.deriv(1, 0.51) == 0.0

    const = Constant(4.0)
    assert const.deriv(0, 1.0) == 4.0
    assert const.deriv(2, 1.0) == 0.0

    for bad in (-1, 1.5):
        with pytest.raises(ValueError):
            const.deriv(bad, 0.0)


def test_kernel_matches_per_step_reference():
    rng = np.random.default_rng(4242)
    for name in CATALOG_NAMES:
        t = catalog(name)
        rule = differentiator_form(t)
        signals = (
            Cosine(2.0 * math.pi * 50.0, 1.5),
            Polynomial(tuple(float(v) for v in rng.normal(0.0, 1.0, origin_multiplicity(t)))),
            Constant(2.5),
        )
        init = tuple(1.0 + j for j in range(t.m))
        for sig in signals:
            expected, u, lower = reference_run(t, sig, 0.05, init)
            # |weights| x |signal derivatives|: the size of the forcing terms
            peak = max(abs(v) for v in u)
            scale = (abs(rule.gain) + sum(abs(w) for w in rule.u_history)) * peak
            for row, samples in zip(rule.lower, lower):
                scale += sum(abs(w) for w in row) * max(abs(v) for v in samples)
            for engine in ("direct", "state_space"):
                trace = run(t, sig, 0.05, init, engine=engine)
                assert trace.meta["status"] == "OK"
                assert trace.computed.shape == expected.shape
                deviation = float(np.max(np.abs(trace.computed - expected)))
                assert deviation <= 1e-12 * scale, (name, sig, engine, deviation / scale)


def test_signals_sample_arrays():
    grid = np.arange(-13, 21) * 0.1
    signals = (
        Cosine(3.0, 2.0),
        Polynomial((3.0, -2.0, 5.0, 1.0)),
        Constant(4.0),
        Step(0.5, 7.0),
    )
    for sig in signals:
        for order in range(5):
            for times in (grid, grid.reshape(2, -1)):
                samples = sig.deriv(order, times)
                assert isinstance(samples, np.ndarray) and samples.shape == times.shape
                scalars = [sig.deriv(order, float(tt)) for tt in times.ravel()]
                assert all(isinstance(v, float) for v in scalars)
                expected = np.array(scalars)
                if isinstance(sig, Cosine):
                    scale = sig.amplitude * sig.omega**order
                else:
                    scale = float(np.max(np.abs(expected)))
                deviation = float(np.max(np.abs(samples.ravel() - expected)))
                assert deviation <= 1e-15 * scale, (sig, order)


def numpy_state_space(t, sig, t_end, init):
    """The state_space engine as a numpy matrix-vector loop: x <- T @ x, x[0] += f.

    Kept here as the reference for the engine's Python-float stepping.
    """
    m = t.m
    grid = np.arange(-(m - 1), int(math.floor(t_end / t.h + 1e-9)) + 1) * t.h
    forcing = simulator._forcing(differentiator_form(t), simulator._samples(sig, t.k, grid))
    T = state_transition_matrix(t)
    x = np.array(init, dtype=float)
    out = []
    for f in forcing.tolist():
        x = T @ x
        x[0] += f
        val = float(x[0])
        if not math.isfinite(val):
            break
        out.append(val)
    return np.array(list(init[::-1]) + out)


def random_three_step_tableau(rng) -> ObreshkovTableau:
    """k = 2, m = 3, feedback roots drawn inside the circle of radius 1/4, so
    that a rounding difference in one step stays within a few ulps later on."""
    h = 1e-3
    z = 0.25 * np.exp(1j * rng.uniform(0.0, np.pi))
    poly = np.real(np.poly([z, np.conj(z), rng.uniform(-0.25, 0.25)]))
    c0 = rng.normal(0.0, 1.0, 3)
    c0[0] += 1.0 - math.fsum(c0)
    rows = (tuple(float(v) * h for v in rng.normal(0.0, 1.0, 4)), tuple(float(v) * h**2 for v in poly))
    return ObreshkovTableau(k=2, m=3, h=h, c0=tuple(float(v) for v in c0), c=rows)


def test_state_space_steps_match_numpy_matrix_loop():
    rng = np.random.default_rng(15)
    tableaus = [catalog(name) for name in CATALOG_NAMES] + [random_three_step_tableau(rng)]
    assert sorted({t.m for t in tableaus}) == [1, 2, 3]
    for t in tableaus:
        for sig in (
            Cosine(float(rng.uniform(1.0, 500.0)), float(rng.uniform(0.5, 2.0))),
            Polynomial(tuple(float(v) for v in rng.normal(0.0, 1.0, 4))),
            Constant(float(rng.normal(0.0, 3.0))),
        ):
            init = tuple(float(v) for v in rng.normal(0.0, 10.0, t.m))
            got = run(t, sig, 2000 * t.h, init, engine="state_space").computed
            want = numpy_state_space(t, sig, 2000 * t.h, init)
            assert len(got) == len(want) == 2000 + t.m
            if t.m == 1:
                assert np.array_equal(got, want), t.label
            else:
                # BLAS may fuse a multiply and an add where the loop rounds both
                scale = max(1.0, float(np.max(np.abs(want))))
                assert float(np.max(np.abs(got - want))) <= 1e-15 * scale, t.label


def test_divergence_is_reported_only_through_status():
    be = make_catalog("BE", 1e-3)
    sig = Step(0.005, 1e308)
    # feedback (1, 1): the history grows like Fibonacci numbers until its sum overflows
    fib = ObreshkovTableau(k=1, m=2, h=1e-3, c0=(1.0, 0.0), c=((1e-3, -1e-3, -1e-3),))
    engines = ("direct", "state_space")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = [run(be, sig, 0.01, (0.0,), engine=e) for e in engines]
        traces.append(run_composite([(be, 1e-3, None)], sig, 0.01, 0.0))
        fib_traces = [run(fib, Constant(0.0), 0.1, (1e307, 1e307), engine=e) for e in engines]
        # an infinite amplitude makes the exact derivative at t = 0 inf * sin(0)
        unbounded = run(make_catalog("TR", 1e-3), Cosine(377.0, math.inf), 0.01, (0.0,))
    assert unbounded.meta["status"] == "DIVERGED"
    for trace in traces:
        assert trace.meta["status"] == "DIVERGED"
        assert len(trace.grid) == 5
    for trace in fib_traces:
        assert trace.meta["status"] == "DIVERGED"
        assert len(trace.grid) == 7


def test_trace_meta_names_the_grid_time_of_divergence():
    h = 1e-3
    fib = ObreshkovTableau(k=1, m=2, h=h, c0=(1.0, 0.0), c=((h, -h, -h),))
    a, b = (run(fib, Constant(0.0), 0.1, (1e307, 1e307), engine=e) for e in ("direct", "state_space"))
    assert {**a.meta, "engine": None} == {**b.meta, "engine": None}
    assert a.meta["status"] == "DIVERGED"
    # the grid holds the two init points and the five finite steps; step 6 overflows
    assert len(a.grid) == 7 and a.meta["diverged_at"] == 6 * h
    # BE half steps, then TR: the step signal's jump at t = 0.005 leaves the float range
    stages = [(make_catalog("BE", h / 2), h / 2, 2), (make_catalog("TR", h), h, None)]
    composite = run_composite(stages, Step(0.005, 1e308), 0.01, 0.0)
    assert composite.meta["status"] == "DIVERGED"
    assert composite.meta["diverged_at"] == 2 * (h / 2) + 4 * h
    assert composite.grid[-1] < composite.meta["diverged_at"]
    assert math.isclose(composite.meta["diverged_at"], 0.005, rel_tol=1e-12)
    for engine in ("direct", "state_space"):
        ok = run(make_catalog("TR", h), Cosine(OMEGA_SYN, 1.0), 0.01, (0.0,), engine=engine)
        assert ok.meta["status"] == "OK" and ok.meta["diverged_at"] is None
    ok = run_composite(stages, Cosine(OMEGA_SYN, 1.0), 0.01, 0.0)
    assert ok.meta["status"] == "OK" and ok.meta["diverged_at"] is None


def test_unit_feedback_running_sum_is_bit_exact():
    rng = np.random.default_rng(9090)
    specials = (0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7e308)
    specials += (math.inf, -math.inf, math.nan)
    for case in range(4000):
        n = int(rng.integers(0, 40))
        forcing = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-320.0, 307.0, n)
        forcing[rng.random(n) < 0.3] = 0.0
        picks = rng.random(n) < 0.15
        forcing[picks] = rng.choice(specials, int(picks.sum()))
        if case % 4 == 0:
            forcing[rng.random(n) < 0.5] = 0.0
            forcing = -forcing
        if case % 3 == 0:
            history = (float(rng.choice(specials[:7])),)
        else:
            history = (float(rng.normal(0.0, 10.0)),)
        for a in (1.0, -1.0):
            with np.errstate(over="ignore", invalid="ignore"):  # as inside run
                got = simulator._recursion((a,), forcing.copy(), history)
            want = loop_recursion((a,), forcing.copy(), history)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (case, a)


def test_unit_feedback_runs_match_step_by_step_recursion(monkeypatch):
    signals = (Cosine(OMEGA_SYN, 1.0), Polynomial((0.5, -2.0, 3.0)), Constant(0.0))
    be_half, tr = make_catalog("BE", 5e-4), make_catalog("TR", 1e-3)

    def traces():
        out = []
        for name in ("TR", "A", "C"):
            t = catalog(name)
            assert differentiator_form(t).feedback in ((1.0,), (-1.0,)), name
            for sig in signals:
                for offset in (0.0, 300.0):
                    init = tuple(v + offset for v in proper_init(t, sig))
                    out.append(run(t, sig, 0.2, init))
        for sig in signals:
            out.append(run_composite([(be_half, 5e-4, 2), (tr, 1e-3, None)], sig, 0.2, 0.0))
        return out

    fast = traces()
    monkeypatch.setattr(simulator, "_recursion", loop_recursion)
    slow = traces()
    for a, b in zip(fast, slow):
        assert a.meta == b.meta
        assert a.flags == b.flags
        for field in ("grid", "computed", "exact", "error"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), (a.meta, field)


def generic_stepwise(feedback, forcing, history):
    """The m-generic step loop: each step adds its products with this interpreter's
    sum() over a deque of past values, newest first, retries at half scale when the
    step is not finite, and stops where the retry is not finite either.

    Kept here as the reference the single-weight loop must match bit for bit.
    """
    x = deque([float(v) for v in history[::-1]], maxlen=len(feedback))
    out = []
    for f in forcing.tolist():
        val = sum(map(mul, feedback, x)) + f
        if not math.isfinite(val):
            val = 2.0 * (sum(map(mul, [0.5 * w for w in feedback], x)) + 0.5 * f)
            if not math.isfinite(val):
                break
        out.append(val)
        x.appendleft(val)
    return np.array(out)


def assert_single_weight_step_is_generic(w, forcing, x0):
    got = simulator._stepwise((w,), forcing, (x0,))
    want = generic_stepwise((w,), forcing, (x0,))
    assert got.dtype == want.dtype and len(got) == len(want)
    assert got.tobytes() == want.tobytes(), (w, x0, forcing)
    return got


def test_single_weight_step_matches_the_generic_loop():
    rng = np.random.default_rng(3131)
    big = sys.float_info.max
    specials = (0.0, -0.0, 5e-324, -5e-324, big, -big, math.inf, -math.inf, math.nan)
    weights = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1e300, -1.7e308, math.nan, math.inf]
    weights += [float(v) for v in rng.normal(0.0, 1.0, 20) * 10.0 ** rng.uniform(-5.0, 5.0, 20)]
    for case in range(3000):
        w = weights[case % len(weights)]
        n = int(rng.integers(0, 30))
        forcing = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-320.0, 307.0, n)
        picks = rng.random(n) < 0.2
        forcing[picks] = rng.choice(specials, int(picks.sum()))
        if case % 2:
            x0 = float(rng.choice(specials))
        else:
            x0 = float(rng.normal(0.0, 1.0) * 10.0 ** rng.uniform(-320.0, 307.0))
        assert_single_weight_step_is_generic(w, forcing, x0)


def test_single_weight_step_retries_an_overflowing_product_at_half_scale():
    # 2 * 1e308 overflows, but the step at half scale, 2 * (1e308 - 0.75e308), does not
    got = assert_single_weight_step_is_generic(2.0, np.array([-1.5e308]), 1e308)
    assert got.tolist() == [5e307]
    # the retry overflows too on the second step, so the run is cut there
    got = assert_single_weight_step_is_generic(2.0, np.array([-1.5e308, 1.7e308, 0.0]), 1e308)
    assert got.tolist() == [5e307]


def test_single_weight_step_adds_negative_zeros_to_positive_zero():
    got = assert_single_weight_step_is_generic(0.5, np.array([-0.0]), -0.0)
    assert got.tolist() == [0.0] and not np.signbit(got[0])


def test_trace_csv_bytes_match_row_formatter(tmp_path):
    sig = Cosine(OMEGA_SYN, 1.0)
    stages = [(make_catalog("BE", 5e-4), 5e-4, 2), (make_catalog("TR", 1e-3), 1e-3, None)]
    trace = run_composite(stages, sig, 0.01, 300.0)
    assert {"init", "startup", "main"} <= set(trace.flags)
    trace.computed[1] = -0.0
    trace.exact[2] = 5e-324
    trace.error[3] = -1.2345678901234567e300
    trace.grid[4] = 1e300
    trace.computed[5] = math.inf
    trace.error[6] = math.nan
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == reference_csv(trace)


def test_direct_engine_keeps_step_after_product_overflow():
    h = 1e-3
    # roots 2 and 3: feedback (5, -6); the run grows like 3^n until it leaves the float range
    t = ObreshkovTableau(k=1, m=2, h=h, c0=(1.0, 0.0), c=((h, -5 * h, 6 * h),))
    w1, w2 = differentiator_form(t).feedback
    trace = run(t, Constant(0.0), 1.0, (1e300, 1e300))
    assert trace.meta["status"] == "DIVERGED"
    assert len(trace.computed) == 18
    y1, y2 = float(trace.computed[16]), float(trace.computed[15])
    assert math.isinf(w1 * y1)  # the product overflows, the step does not
    exact = Fraction(w1) * Fraction(y1) + Fraction(w2) * Fraction(y2)
    assert float(trace.computed[17]) == float(exact)


def test_long_trace_csv_bytes_match_row_formatter(tmp_path):
    sig = Cosine(OMEGA_SYN, 1.0)
    stages = [(make_catalog("BE", 5e-4), 5e-4, 2), (make_catalog("TR", 1e-3), 1e-3, None)]
    trace = run_composite(stages, sig, 2.0, 300.0)
    assert len(trace.grid) > CROSSOVER  # written through the array path
    assert {"init", "startup", "main"} <= set(trace.flags)
    trace.computed[1] = -0.0
    trace.exact[2] = 5e-324
    trace.error[3] = -1.2345678901234567e300
    trace.grid[4] = 1e300
    trace.computed[5] = math.inf
    trace.error[6] = math.nan
    trace.exact[-1] = -math.inf
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == reference_csv(trace)


@pytest.mark.parametrize(
    "error",
    [
        [0.0, 0.5, 0.1, 2.0],  # never settles: the last sample is above
        [0.1, -0.2, 0.0, 0.3],  # settles at step 0
        [3.0, math.nan, 0.2, -1.5, math.nan, 0.1],  # NaN samples do not count as above
        [math.nan, math.nan],
        [],
    ],
)
def test_settle_step_matches_loop(error):
    error = np.array(error, dtype=float)
    assert simulator._settle_step(error, 1.0) == loop_settle_step(error, 1.0)


def test_settle_step_of_fig3_member_e():
    t = catalog("E")
    trace = run(t, Cosine(OMEGA_SYN, 1.0), 0.06, (1.0,))
    threshold = 1e-6 * OMEGA_SYN**2
    assert simulator._settle_step(trace.error, threshold) == loop_settle_step(
        trace.error, threshold
    )


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if n != "BDF2"])
@pytest.mark.parametrize("offset", [0.0, 300.0])
def test_run_is_the_one_stage_composite(name, offset):
    t = catalog(name)
    sig = Cosine(OMEGA_SYN, 1.0)
    init = tuple(v + offset for v in proper_init(t, sig))
    plain = run(t, sig, 0.05, init)
    staged = run_composite([(t, t.h, None)], sig, 0.05, init[0])
    for field in ("grid", "computed", "exact", "error"):
        assert getattr(plain, field).tobytes() == getattr(staged, field).tobytes(), field
    assert plain.flags == staged.flags


def test_step_count_overflow_is_a_value_error():
    # t_end / h is inf here, so there is no step count to run
    sig = Cosine(1.0)
    with pytest.raises(ValueError, match="too many steps"):
        run(make_catalog("BE", 1e-3), sig, 1e308, (0.0,))
    be_half = make_catalog("BE", 5e-4)
    tr = make_catalog("TR", 1e-3)
    with pytest.raises(ValueError, match="too many steps"):
        run_composite([(be_half, 5e-4, 2), (tr, 1e-3, None)], sig, 1e308, 0.0)


def test_integer_t_end_past_the_float_range_is_a_value_error():
    sig = Cosine(1.0)
    be = make_catalog("BE", 1e-3)
    with pytest.raises(ValueError, match="t_end must be"):
        run(be, sig, 10**400, (0.0,))
    with pytest.raises(ValueError, match="t_end must be"):
        run_composite([(be, 1e-3, None)], sig, 10**400, 0.0)
    with pytest.raises(ValueError, match="stage step must be"):
        run_composite([(be, 10**400, None)], sig, 1.0, 0.0)


def test_integer_past_the_float_range_is_named_in_run_inputs():
    sig = Cosine(1.0)
    be = make_catalog("BE", 1e-3)
    with pytest.raises(ValueError, match="init values must be finite"):
        run(be, sig, 0.01, (10**400,))
    for init in (10**400, [10**400]):
        with pytest.raises(ValueError, match="single finite init value"):
            run_composite([(be, 1e-3, None)], sig, 0.01, init)
    trace = run(be, sig, 0.01, (0.0,))
    with pytest.raises(ValueError, match="window must be"):
        oscillation_amplitude(trace, (0.0, 10**400))


@pytest.mark.parametrize("init", [np.float32(1.0), np.int64(3), np.array(2.0)])
def test_numpy_scalar_composite_init_is_a_value_error(init):
    be = make_catalog("BE", 1e-3)
    with pytest.raises(ValueError, match="single finite init value"):
        run_composite([(be, 1e-3, None)], Cosine(1.0), 0.01, init)
    # run rejects the same value in its init tuple the same way
    with pytest.raises(ValueError, match="init values must be finite"):
        run(be, Cosine(1.0), 0.01, (init,))


def test_run_takes_a_lone_init_value_as_a_one_value_init():
    be, bdf2, sig = make_catalog("BE", 1e-3), make_catalog("BDF2", 1e-3), Cosine(1.0)
    for engine in ("direct", "state_space"):
        lone, one = (run(be, sig, 0.01, init, engine=engine) for init in (1.0, (1.0,)))
        for name in ("grid", "computed", "exact", "error"):
            assert getattr(lone, name).tobytes() == getattr(one, name).tobytes(), name
        assert lone.flags == one.flags and lone.meta == one.meta
    with pytest.raises(ValueError, match=r"^init must supply m=2 values, got 1$"):
        run(bdf2, sig, 0.01, 1.0)
    with pytest.raises(ValueError, match="init values must be finite numbers"):
        run(be, sig, 0.01, np.float32(1.0))


def test_engines_agree_when_a_product_overflows_but_the_step_does_not():
    h = 1e-3
    # roots 2 and 3; the 18th sample, -1.289e308, needs 5 * -4.29e307 on its way
    t = ObreshkovTableau(k=1, m=2, h=h, c0=(1.0, 0.0), c=((h, -5 * h, 6 * h),))
    direct, state = (run(t, Constant(0.0), 1.0, (1e300, 1e300), engine=e) for e in ("direct", "state_space"))
    assert len(direct.computed) == len(state.computed) == 18
    assert direct.computed[-1] == state.computed[-1]
    assert direct.meta["status"] == state.meta["status"] == "DIVERGED"


@pytest.mark.parametrize("label, shown", [(None, "k1m1"), ("", ""), ("BE", "BE")])
def test_reports_and_traces_show_the_same_label(label, shown):
    h = 1e-3
    t = ObreshkovTableau(k=1, m=1, h=h, c0=(1.0,), c=((h, 0.0),), label=label)
    assert classify_tableau(t).label == shown
    assert run(t, Constant(1.0), 0.01, (0.0,)).meta["labels"] == (shown,)
    assert run_composite([(t, h, None)], Constant(1.0), 0.01, 0.0).meta["labels"] == (shown,)


def general_feedback_tableau(rng, k: int, m: int) -> ObreshkovTableau:
    """Tableau with m simple feedback roots drawn inside radius 0.95 (real, or as
    conjugate pairs), so that no weight is +1 or -1 and not all of them are 0."""
    h = float(10.0 ** rng.uniform(-4, -1))
    roots: list[complex] = []
    while len(roots) < m:
        if m - len(roots) >= 2 and rng.random() < 0.5:
            z = rng.uniform(0.1, 0.95) * np.exp(1j * rng.uniform(0.0, np.pi))
            roots += [z, np.conj(z)]
        else:
            roots.append(complex(rng.uniform(-0.95, 0.95)))
    ck0 = float((1 if rng.random() < 0.5 else -1) * 10.0 ** rng.uniform(-1, 1) * h**k)
    rows = [tuple(float(v) * h**i for v in rng.normal(0.0, 1.0, m + 1)) for i in range(1, k)]
    rows.append(tuple(float(v * ck0) for v in np.real(np.poly(roots))))
    c0 = rng.normal(0.0, 1.0, m)
    c0[0] += 1.0 - math.fsum(c0)
    return ObreshkovTableau(k=k, m=m, h=h, c0=tuple(float(v) for v in c0), c=tuple(rows))


def seeded_signal(rng, case: int):
    return (
        Cosine(float(rng.uniform(1.0, 500.0)), float(rng.uniform(0.5, 2.0))),
        Polynomial(tuple(float(v) for v in rng.normal(0.0, 1.0, 4))),
        Constant(float(rng.normal(0.0, 3.0))),
    )[case % 3]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_engines_give_the_same_bytes_for_general_feedback(m):
    rng = np.random.default_rng([18, m])
    for case in range(30):
        t = general_feedback_tableau(rng, 1 + case % 3, m)
        feedback = differentiator_form(t).feedback
        assert any(feedback) and not (m == 1 and abs(feedback[0]) == 1.0)
        sig = seeded_signal(rng, case)
        init = tuple(float(v) for v in rng.normal(0.0, 10.0, m))
        direct, state = (run(t, sig, 500 * t.h, init, engine=e) for e in ("direct", "state_space"))
        assert len(direct.computed) == 500 + m
        assert direct.computed.tobytes() == state.computed.tobytes(), (m, case)


@pytest.mark.parametrize("name", ["TR", "A", "C"])
def test_unit_feedback_members_give_the_same_bytes_on_both_engines(name):
    rng = np.random.default_rng([18, 0])
    t = catalog(name)
    for case in range(9):
        sig = seeded_signal(rng, case)
        init = (float(rng.normal(0.0, 10.0)),)
        direct, state = (run(t, sig, 500 * t.h, init, engine=e) for e in ("direct", "state_space"))
        assert direct.computed.tobytes() == state.computed.tobytes(), (name, case)


@pytest.mark.parametrize("engine", ["direct", "state_space"])
def test_metric_is_the_same_at_every_signal_scale(engine):
    # a power-of-two amplitude scales every sample exactly, so the ratio of
    # the norms must not move, even where the squares under- or overflow
    t = make_catalog("D", 1e-3)
    metrics = {
        relative_error_metric(run(t, Cosine(OMEGA_SYN, a), 0.05, (0.0,), engine=engine))
        for a in (2.0**-600, 1.0, 2.0**600)
    }
    assert len(metrics) == 1
    assert math.isfinite(metrics.pop())


def test_metric_past_the_float_range_is_undefined():
    # TR keeps an undamped 1e300 oscillation on a 1e-300 signal: the ratio is about 1e600
    trace = run(make_catalog("TR", 1e-3), Cosine(OMEGA_SYN, 1e-300), 0.05, (1e300,))
    with pytest.raises(ValueError, match="float range"):
        relative_error_metric(trace)


def _metric_by_count(trace, exclude_first=2):
    """The metric with start = flags.count("init") + exclude_first, the full-scan count:
    the same trace relabelled without init samples, with those samples excluded instead."""
    relabelled = replace(trace, flags=("main",) * len(trace.flags))
    return relative_error_metric(relabelled, trace.flags.count("init") + exclude_first)


def _init_count_traces():
    h = 1e-3
    sig = Cosine(OMEGA_SYN)
    bdf2 = make_catalog("BDF2", h)
    diverging = ObreshkovTableau(k=1, m=1, h=h, c0=(1.0,), c=((h, -2 * h),))
    with np.errstate(over="ignore"):
        diverged = run(diverging, sig, 2.0, (1.0,))
    assert diverged.meta["status"] == "DIVERGED"
    composite = run_composite(
        [(make_catalog("BE", h / 2), h / 2, 4), (make_catalog("TR", h), h, None)], sig, 0.02, 300.0
    )
    n = 50
    grid = np.arange(-1, n) * h
    exact = sig.deriv(1, grid)
    hand_built = SimulationTrace(
        grid=grid, computed=exact + 1e-3, exact=exact, error=np.full(n + 1, 1e-3),
        flags=("init",) + ("main",) * n, meta={},
    )
    return {
        "TR, m = 1": run(make_catalog("TR", h), sig, 0.1, (0.0,)),
        "BDF2, m = 2": run(bdf2, sig, 0.1, proper_init(bdf2, sig)),
        "BE -> TR": composite,
        "diverged": diverged,
        "hand-built, no meta": hand_built,
    }


@pytest.mark.parametrize("exclude_first", [0, 2, 5])
def test_metric_init_count_matches_the_full_count(exclude_first):
    for case, trace in _init_count_traces().items():
        n_init = trace.flags.count("init")
        assert trace.flags[:n_init] == ("init",) * n_init, case
        got = relative_error_metric(trace, exclude_first)
        assert got == _metric_by_count(trace, exclude_first), case


def test_metric_with_a_non_finite_sample_is_undefined():
    # omega**2 overflows at omega = 1e300, so C's exact second-derivative samples are inf
    trace = run(make_catalog("C", 1e-3), Cosine(1e300), 0.01, (0.0,))
    assert np.isinf(trace.exact[-1])
    with pytest.raises(ValueError, match="^metric undefined: a non-finite exact derivative sample on the window$"):
        relative_error_metric(trace)
    n = 20
    grid = np.arange(n) * 1e-3
    error = np.full(n, 1e-3)
    error[-1] = math.inf
    hand_built = SimulationTrace(
        grid=grid, computed=np.cos(grid) + error, exact=np.cos(grid), error=error, flags=("main",) * n, meta={},
    )
    with pytest.raises(ValueError, match="^metric undefined: a non-finite error sample on the window$"):
        relative_error_metric(hand_built)


def counting_cosine(omega: float, amplitude: float = 1.0):
    """A Cosine whose deriv counts its array evaluations by order, and that counter."""
    evals = Counter()

    class CountingCosine(Cosine):
        def deriv(self, order, t):
            if isinstance(t, np.ndarray):
                evals[order] += 1
            return super().deriv(order, t)

    return CountingCosine(omega, amplitude), evals


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("engine", ["direct", "state_space"])
def test_cosine_takes_one_cos_and_one_sin_pass_per_run(name, engine):
    sig, evals = counting_cosine(OMEGA_SYN)
    t = catalog(name)
    run(t, sig, 0.05, proper_init(t, sig), engine=engine)
    assert evals == {0: 1, 1: 1}


@pytest.mark.parametrize("first, main", [("BE", "TR"), ("D", "C")])
def test_cosine_takes_one_cos_and_one_sin_pass_per_stage(first, main):
    sig, evals = counting_cosine(OMEGA_SYN)
    stages = [(catalog(first, 5e-4), 5e-4, 4), (catalog(main), 1e-3, None)]
    run_composite(stages, sig, 0.05, 300.0)
    assert evals == {0: 2, 1: 2}


def head_sampled_run(stages, sig, init, engine, t_end):
    """(grid, computed, exact, error) of a run whose every signal sample is one
    deriv(order, grid) call: the forcing samples each order below k over each
    stage's grid, and the exact column samples order k over the whole trace grid.

    stages holds (tableau, step count, or None to fill through t_end); the
    recursion is the simulator's.
    """
    m, k = len(init), stages[0][0].k
    history = init[::-1]
    grids, computed, anchor = [], [np.array(history)], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for s_idx, (t, count) in enumerate(stages):
            rule = differentiator_form(t)
            if count is None:
                count = simulator._step_count(t_end, t.h, anchor)
            grid = anchor + np.arange(-(m - 1), count + 1) * t.h
            u = sig.deriv(0, grid)
            forcing = rule.gain * u[m:]
            for j, w in enumerate(rule.u_history, start=1):
                forcing += w * u[m - j : m - j + count]
            for i, row in enumerate(rule.lower, start=1):
                d = sig.deriv(i, grid)
                for j, w in enumerate(row):
                    forcing += w * d[m - j : m - j + count]
            step = simulator._recursion if engine == "direct" else simulator._stepwise
            vals = step(rule.feedback, forcing, history)
            grids.append(grid[m if s_idx else 0 : m + len(vals)])
            computed.append(vals)
            if len(vals) < count:
                break
            history = np.concatenate((history, vals[-m:]))[-m:]
            anchor = anchor + count * t.h
        grid = np.concatenate(grids)
        computed = np.concatenate(computed)
        exact = sig.deriv(k, grid)
        return grid, computed, exact, computed - exact


def assert_trace_bytes(trace, reference):
    for field, want in zip(("grid", "computed", "exact", "error"), reference):
        assert getattr(trace, field).tobytes() == want.tobytes(), field


EXACT_COLUMN_SIGNALS = (
    Cosine(OMEGA_SYN, 1.5),
    Polynomial((0.3, -1.0, 2.0, 0.5, -0.25)),
    Constant(1.7),
    Step(0.0123, 2.0),
)


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("engine", ["direct", "state_space"])
@pytest.mark.parametrize("sig", EXACT_COLUMN_SIGNALS, ids=lambda s: type(s).__name__)
def test_exact_column_is_the_whole_grid_sample(name, engine, sig):
    t = catalog(name)
    init = tuple(v + 0.5 for v in proper_init(t, sig))
    trace = run(t, sig, 0.05, init, engine=engine)
    assert trace.meta["status"] == "OK"
    assert_trace_bytes(trace, head_sampled_run([(t, None)], sig, init, engine, 0.05))


@pytest.mark.parametrize("first, main", [("BE", "TR"), ("D", "C")])
@pytest.mark.parametrize("sig", EXACT_COLUMN_SIGNALS, ids=lambda s: type(s).__name__)
def test_composite_exact_column_is_the_whole_grid_sample(first, main, sig):
    stages = [(catalog(first, 5e-4), 5e-4, 4), (catalog(main), 1e-3, None)]
    init = sig.deriv(stages[0][0].k, 0.0) + 300.0
    trace = run_composite(stages, sig, 0.05, init)
    reference = head_sampled_run([(t, count) for t, _, count in stages], sig, (init,), "direct", 0.05)
    assert_trace_bytes(trace, reference)


@pytest.mark.parametrize("engine", ["direct", "state_space"])
def test_diverged_exact_column_is_the_whole_grid_sample(engine):
    # feedback (1, 1): the history grows like Fibonacci numbers until its sum overflows
    fib = ObreshkovTableau(k=1, m=2, h=1e-3, c0=(1.0, 0.0), c=((1e-3, -1e-3, -1e-3),))
    sig = Cosine(OMEGA_SYN, 1e300)
    with np.errstate(over="ignore"):
        trace = run(fib, sig, 0.1, (1e307, 1e307), engine=engine)
    assert trace.meta["status"] == "DIVERGED"
    assert 2 < len(trace.grid) < 100
    assert_trace_bytes(trace, head_sampled_run([(fib, None)], sig, (1e307, 1e307), engine, 0.1))


def assert_same_trace(got, want):
    for name in ("grid", "computed", "exact", "error"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.flags == want.flags
    assert got.meta == want.meta


TABLE3_MEMBERS = ("B", "D", "E", "F")
TABLE3_STEPS = (125e-6, 250e-6, 500e-6, 1000e-6, 2000e-6, 4000e-6)


@pytest.mark.parametrize("h", TABLE3_STEPS)
def test_shared_samples_give_each_table3_cell_its_lone_run(h):
    tableaus = [catalog(name, h) for name in TABLE3_MEMBERS]
    sig = Cosine(OMEGA_SYN, 1.0)
    traces = simulator._runs(tableaus, sig, 1.0, (0.0,))
    assert len(traces) == len(tableaus)
    for t, trace in zip(tableaus, traces):
        assert_same_trace(trace, run(t, sig, 1.0, (0.0,)))


@pytest.mark.parametrize("engine", ["direct", "state_space"])
def test_shared_samples_give_each_fig3_member_its_lone_run(engine):
    tableaus = [catalog(name, 2e-3) for name in ("A", "C", "E")]
    sig = Cosine(OMEGA_SYN, 1.0)
    traces = simulator._runs(tableaus, sig, 0.12, (0.0,), engine=engine)
    for t, trace in zip(tableaus, traces):
        assert_same_trace(trace, run(t, sig, 0.12, (0.0,), engine=engine))


def test_runs_on_different_grids_in_one_call_match_their_lone_runs():
    # D and F share a grid; TR's k and the other D's h set theirs apart
    tableaus = [catalog("D"), catalog("TR"), catalog("D", 2e-3), catalog("F")]
    sig = Polynomial((0.3, -1.0, 2.0, 0.5))
    for engine in ("direct", "state_space"):
        traces = simulator._runs(tableaus, sig, 0.05, 0.25, engine)
        for t, trace in zip(tableaus, traces):
            assert_same_trace(trace, run(t, sig, 0.05, 0.25, engine=engine))


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "t_end, init, engine",
    [
        (0.01, (0.0,), "implicit"),
        (0.01, (0.0, 0.0), "state_space"),
        (0.01, (math.inf,), "state_space"),
        (0.01, (10**400,), "direct"),
        (0.01, "x", "direct"),
        (math.nan, (0.0,), "state_space"),
        (1e-4, (0.0,), "direct"),
        (1e308, (0.0,), "direct"),
    ],
)
def test_runs_refuse_what_run_refuses_with_its_message(t_end, init, engine):
    t, sig = catalog("D"), Cosine(OMEGA_SYN, 1.0)
    want = raised(lambda: run(t, sig, t_end, init, engine=engine))
    assert raised(lambda: simulator._runs([t, catalog("F")], sig, t_end, init, engine)) == want
    assert raised(lambda: simulator._runs([t], sig, t_end, init, engine)) == want


def test_runs_check_every_tableau_before_any_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(simulator, "_run_stages", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="init must supply m=2 values, got 1"):
        simulator._runs([catalog("D"), catalog("BDF2")], Cosine(1.0), 0.01, (0.0,))
    with pytest.raises(ValueError, match=INCONSISTENT):
        simulator._runs([catalog("D"), HALF], Cosine(1.0), 0.01, (0.0,))
    assert calls == []


def test_table3_samples_each_step_once_per_call(monkeypatch, tmp_path, capsys):
    from obreshkov import cli

    sampled = []
    real = simulator._samples

    def counting(sig, k, grid):
        sampled.append(len(grid))
        return real(sig, k, grid)

    monkeypatch.setattr(simulator, "_samples", counting)
    assert cli.main(["table3", "--out", str(tmp_path)]) == 0
    assert sampled == [8001, 4001, 2001, 1001, 501, 251]
    # nothing is kept from one call to the next
    assert cli.main(["table3", "--out", str(tmp_path)]) == 0
    assert len(sampled) == 12
    assert "table3: 24/24 PASS" in capsys.readouterr().out


# (startup member, its half-step count, main member, t_end): fig2's two schemes, and
# longer staged runs of the second-derivative pairs and of BE ahead of TR
COMPOSITES = [
    ("BE", 2, "TR", 0.02),
    ("BE", 4, "TR", 0.02),
    ("D", 4, "C", 1.0),
    ("F", 4, "A", 1.0),
    ("BE", 4, "TR", 5.0),
]


@pytest.mark.parametrize("first, n_half, main, t_end", COMPOSITES)
def test_composites_agree_bit_for_bit_across_engines(first, n_half, main, t_end):
    sig = Cosine(OMEGA_SYN, 1.0)
    stages = [(catalog(first, 5e-4), 5e-4, n_half), (catalog(main), 1e-3, None)]
    init = sig.deriv(stages[0][0].k, 0.0) + 300.0
    want = run_composite(stages, sig, t_end, init)
    assert want.meta["status"] == "OK"
    for engine in ("direct", "state_space"):
        fitted, values = simulator._staged(stages, t_end, init, engine)
        got = simulator._run_stages(fitted, sig, values, engine, (5e-4, 1e-3), {})
        assert got.meta["engine"] == engine
        assert_same_trace(got, replace(want, meta={**want.meta, "engine": engine}))


def test_stage_checks_are_said_once():
    """differentiator_form and _step_count are each called at one site in
    simulator.py, and both sites sit in the same function: the stage checker
    that run, _runs and run_composite share."""
    tree = ast.parse(Path(simulator.__file__).read_text(encoding="utf-8"))
    # ast.walk visits an enclosing function before the functions nested in it
    owner = {
        id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for node in ast.walk(f)
    }
    sites = {"differentiator_form": [], "_step_count": []}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in sites:
            sites[ast.unparse(node.func)].append(owner.get(id(node)))
    assert [len(found) for found in sites.values()] == [1, 1], sites
    assert sites["differentiator_form"] == sites["_step_count"]


def test_sample_budget_holds_a_run_at_it_and_refuses_one_past_it(monkeypatch):
    # D lays 1 init point and 10 steps; fig2's 4-half-step scheme 1 + 4 + 18
    sig = Cosine(OMEGA_SYN, 1.0)
    stages = [(catalog("BE", 5e-4), 5e-4, 4), (catalog("TR"), 1e-3, None)]
    monkeypatch.setattr(simulator, "MAX_SAMPLES", 11)
    assert len(run(catalog("D"), sig, 0.01, 0.0).grid) == 11
    monkeypatch.setattr(simulator, "MAX_SAMPLES", 23)
    assert len(run_composite(stages, sig, 0.02, 300.0).grid) == 23
    calls = []
    monkeypatch.setattr(simulator, "_run_stages", lambda *a: calls.append(a))
    monkeypatch.setattr(simulator, "MAX_SAMPLES", 22)
    with pytest.raises(
        ValueError, match=r"^t_end=0\.02 at h=0\.001 takes 2\.300e\+01 samples, over the budget of 22 samples a run$"
    ):
        run_composite(stages, sig, 0.02, 300.0)
    monkeypatch.setattr(simulator, "MAX_SAMPLES", 10)
    with pytest.raises(
        ValueError, match=r"^t_end=0\.01 at h=0\.001 takes 1\.100e\+01 samples, over the budget of 10 samples a run$"
    ):
        simulator._runs([catalog("F"), catalog("D")], sig, 0.01, 0.0)
    assert calls == []


def test_sample_budget_refuses_a_count_no_array_could_hold():
    # 10**300 steps: numpy's arange would refuse them with a message naming no input
    with pytest.raises(ValueError, match=r"^t_end=1\.0 at h=1e-300 takes 1\.000e\+300 samples, over the budget"):
        run(make_catalog("TR", 1e-300), Cosine(1.0), 1.0, 0.0)
    stages = [(make_catalog("BE", 1e-3), 1e-3, 10**20), (make_catalog("TR", 1e-3), 1e-3, None)]
    with pytest.raises(ValueError, match="over the budget"):
        run_composite(stages, Cosine(1.0), 1.0, 0.0)
