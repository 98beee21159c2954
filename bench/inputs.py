"""Seeded input generators. The same seed gives the same inputs.

The program only ever sees what these functions return. Each list is a
balanced design whose structure (jobs per member, length levels, signal
kinds, engines, layouts, output kinds) is fixed, while the seed draws every
number in it and the order of the operations. That keeps the work of one
pass nearly the same across seeds, so a spread between seeds measures the
machine and the program, not the generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Claims of a gain must also hold on this seed, which is never used while
# tuning a change (tuning uses small seeds such as 1..10).
HELDOUT_SEED = 9_700_417

CATALOG = ("BE", "BDF2", "TR", "A", "B", "C", "D", "E", "F")
TUNED = frozenset({"A", "B", "E"})
# members whose stale k-th derivative weights all vanish (IDEAL, hence suitable)
ZERO_FEEDBACK = frozenset({"BE", "BDF2", "B", "D", "E", "F"})
# origin multiplicity of each catalog member (Taylor exactness order)
MULTIPLICITY = {"BE": 2, "BDF2": 3, "TR": 3, "A": 3, "B": 1, "C": 5, "D": 3, "E": 2, "F": 4}
DERIVATIVE_ORDER = {"BE": 1, "BDF2": 1, "TR": 1}  # the rest are second-derivative rules
STEPS_BACK = {"BDF2": 2}  # the rest are single-step rules

# realistic EMT step sizes, seconds
H_MIN, H_MAX = 1e-6, 1e-2


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


# --------------------------------------------------------------------------
# simulate_mix
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SimJob:
    """One long simulation: run (or run_composite) -> metric [-> trace CSV]."""

    member: str
    h: float
    n_steps: int
    omega_select: float | None  # tuning frequency of A, B and E, rad/s
    signal: tuple  # ("cosine", omega, amplitude) | ("polynomial", coeffs) | ("constant", value)
    init_offset: float  # added to the exact init samples
    engines: tuple[str, ...]
    metric: str  # "relative_error" or "oscillation"
    write_csv: bool
    # run_composite jobs: (startup member, half-step count) ahead of `member`
    startup: tuple | None = None

    @property
    def k(self) -> int:
        return DERIVATIVE_ORDER.get(self.member, 2)

    @property
    def m(self) -> int:
        return STEPS_BACK.get(self.member, 1)

    @property
    def t_end(self) -> float:
        return self.n_steps * self.h


# Per member: (length level, engines, write_csv). The signal kinds in
# SIM_SIGNALS are dealt to these slots in rotation.
SIM_SLOTS = (
    (16_000, ("direct",), False),
    (8_000, ("direct",), True),
    (2_000, ("direct", "state_space"), False),
)
SIM_SIGNALS = ("cosine", "polynomial", "constant")
# long startup schemes: (startup member at h/2, main member at h, length, write_csv)
COMPOSITE_SLOTS = (
    ("BE", "TR", 8_000, True),
    ("BE", "TR", 4_000, False),
    ("D", "C", 8_000, False),
    ("F", "A", 4_000, False),
)


def _omega(rng, h: float) -> float:
    return _log_uniform(rng, 0.01, 1.0) / h  # omega*h well inside (0, 2*pi)


def _signal(rng, kind: str, member: str, h: float, n_steps: int) -> tuple:
    if kind == "cosine":
        return ("cosine", _omega(rng, h), float(rng.uniform(0.5, 2.0)))
    if kind == "polynomial":
        # degree below the multiplicity, scaled to O(1) over the run window
        span = n_steps * h
        a = rng.normal(0.0, 1.0, MULTIPLICITY[member])
        return ("polynomial", tuple(float(v / span**q) for q, v in enumerate(a)))
    return ("constant", float(rng.normal(0.0, 3.0)))


def simulate_jobs(seed: int) -> list[SimJob]:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    # a Latin square: every length level gets each signal kind three times
    for position, member in enumerate(CATALOG):
        shift = position % len(SIM_SIGNALS)
        kinds = SIM_SIGNALS[shift:] + SIM_SIGNALS[:shift]
        for (n_steps, engines, write_csv), kind in zip(SIM_SLOTS, kinds):
            h = _log_uniform(rng, H_MIN, H_MAX)
            signal = _signal(rng, kind, member, h, n_steps)
            tuned = signal[1] if kind == "cosine" else _omega(rng, h)
            offset = 0.0
            if kind == "cosine" and rng.random() < 0.5:
                offset = float(rng.normal(0.0, 10.0))
            # the relative error needs a k-th derivative that does not vanish
            k = DERIVATIVE_ORDER.get(member, 2)
            nonzero = kind == "cosine" or (kind == "polynomial" and MULTIPLICITY[member] > k)
            jobs.append(SimJob(
                member=member, h=h, n_steps=n_steps,
                omega_select=tuned if member in TUNED else None, signal=signal,
                init_offset=offset, engines=engines,
                metric="relative_error" if nonzero else "oscillation",
                write_csv=write_csv,
            ))
    for startup, member, n_steps, write_csv in COMPOSITE_SLOTS:
        h = _log_uniform(rng, H_MIN, H_MAX)
        signal = _signal(rng, "cosine", member, h, n_steps)
        jobs.append(SimJob(
            member=member, h=h, n_steps=n_steps,
            omega_select=signal[1] if member in TUNED else None, signal=signal,
            init_offset=float(rng.normal(0.0, 10.0)),
            engines=("direct",), metric="oscillation", write_csv=write_csv,
            startup=(startup, int(rng.integers(2, 9))),
        ))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


# --------------------------------------------------------------------------
# synth_screen
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthRequest:
    """A ConstraintSet request plus what to do with an accepted tableau.

    excess is the number of conditions beyond the free slots: 0 for a square
    request, -1 for one condition short (must be rejected), +1 for one over
    (rejected, or accepted as a least-squares fit that may fail certification).
    """

    k: int
    m: int
    h: float
    fixed: tuple
    origin_multiplicity: int
    frequencies: tuple
    excess: int
    sweep_points: int
    sweep_top: float  # highest swept omega, rad/s
    output: str  # "none", "sweep_csv" or "json"


@dataclass(frozen=True)
class ScreenRequest:
    """A random tableau built from chosen feedback roots, with its expected class."""

    k: int
    m: int
    h: float
    c0: tuple
    c: tuple
    expected: str


# sweep grid sizes are log-uniform over this range
SWEEP_POINTS = (200, 2000)
SYNTH_REQUESTS = 300
SCREEN_REQUESTS = 100
# Conditions of a square request stay at or below this (a tenth-order
# differentiator is already far beyond EMT practice). Larger Taylor systems
# are too ill-conditioned in double precision to certify at 1e-10.
MAX_CONDITIONS = 9


def _synth_request(rng, index: int) -> SynthRequest:
    # the layout, the number of frequencies and the excess cycle with the
    # index (a balanced design); the seed draws the numbers and the slots
    k, m = 1 + index % 3, 1 + (index // 3) % 3
    h = _log_uniform(rng, H_MIN, H_MAX)
    slots = [(0, j) for j in range(1, m + 1)]
    slots += [(i, j) for i in range(1, k + 1) for j in range(0, m + 1)]
    n_freq = min((index // 9) % 3, (len(slots) - 1) // 2)
    frequencies = tuple(_log_uniform(rng, 0.05, 2.5) / h for _ in range(n_freq))
    # pin stale slots to zero and, for single-step rules, sometimes the
    # value-history weight to one (which satisfies a_0 by itself)
    pool = [s for s in slots if s[0] >= 1 and s[1] >= 1]
    if m == 1:
        pool.append((0, 1))
    lo = max(0, len(slots) - MAX_CONDITIONS)
    hi = min(len(pool), len(slots) - 2 * n_freq - 1)
    chosen = sorted(rng.choice(len(pool), int(rng.integers(lo, hi + 1)), replace=False))
    fixed = tuple((pool[i], 1.0 if pool[i] == (0, 1) else 0.0) for i in chosen)
    square = len(slots) - len(fixed) - 2 * n_freq + (1 if ((0, 1), 1.0) in fixed else 0)
    excess = (-1, 0, 0, 0, 0, 0, 1)[index % 7] if square > 1 else 0
    output = ("sweep_csv", "none", "none", "none", "json", "none", "none", "none")[index % 8]
    return SynthRequest(
        k=k, m=m, h=h, fixed=fixed, origin_multiplicity=square + excess,
        frequencies=frequencies, excess=excess,
        sweep_points=int(round(_log_uniform(rng, *SWEEP_POINTS))),
        sweep_top=float(rng.uniform(0.5, 3.0)) / h, output=output,
    )


_SCREEN_CLASSES = ("IDEAL", "ASYMPTOTIC", "BIASED", "OSCILLATORY", "DIVERGENT")


def _roots_for(rng, expected: str, m: int) -> list[complex]:
    """Simple, well separated roots that put the recursion in class `expected`."""
    if expected == "IDEAL":
        return [0j] * m
    inner = [complex((-1) ** q * (0.25 + 0.6 * (q + 1) / (m + 1))) for q in range(m)]
    inner = [r * float(rng.uniform(0.6, 1.0)) for r in inner]
    if expected == "ASYMPTOTIC":
        return inner
    edge = {"BIASED": 1.0, "OSCILLATORY": -1.0}.get(expected)
    if edge is None:  # DIVERGENT
        edge = float(rng.choice((-1.0, 1.0))) * float(rng.uniform(1.2, 2.0))
    return [complex(edge)] + inner[: m - 1]


def _screen_request(rng, index: int) -> ScreenRequest:
    k, m = 1 + index % 3, 1 + (index // 3) % 3
    h = _log_uniform(rng, H_MIN, H_MAX)
    expected = _SCREEN_CLASSES[index % len(_SCREEN_CLASSES)]
    poly = np.real(np.poly(_roots_for(rng, expected, m)))
    ck0 = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1, 1) * h**k)
    rows = [tuple(float(rng.normal(0.0, 1.0)) * h**i for _ in range(m + 1)) for i in range(1, k)]
    rows.append(tuple(float(v * ck0) for v in poly))
    c0 = rng.normal(0.0, 1.0, m)
    c0[0] += 1.0 - math.fsum(c0)
    return ScreenRequest(
        k=k, m=m, h=h, c0=tuple(float(v) for v in c0), c=tuple(rows), expected=expected
    )


def synth_requests(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    synth = [_synth_request(rng, i) for i in range(SYNTH_REQUESTS)]
    screen = [_screen_request(rng, i) for i in range(SCREEN_REQUESTS)]
    requests = synth + screen
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def cli_commands(seed: int) -> list[tuple[list[str], int, str | None]]:
    """(argv after `obreshkov`, expected exit code, expected output file) per process."""
    rng = np.random.default_rng([seed, 3])
    member = CATALOG[int(rng.integers(len(CATALOG)))]
    h = _log_uniform(rng, 1e-5, 1e-3)
    analyze = ["analyze", "--name", member, "--h", repr(h)]
    if member in TUNED:
        analyze += ["--omega-select", repr(float(rng.uniform(0.05, 2.5)) / h)]
    sweep_member = CATALOG[int(rng.integers(len(CATALOG)))]
    sweep_h = _log_uniform(rng, 1e-5, 1e-3)
    points = int(round(_log_uniform(rng, *SWEEP_POINTS)))
    sweep = [
        "sweep", "--name", sweep_member, "--h", repr(sweep_h),
        "--from", repr(1.0), "--to", repr(float(rng.uniform(0.5, 3.0)) / sweep_h),
        "--points", str(points),
    ]
    if sweep_member in TUNED:
        sweep += ["--omega-select", repr(float(rng.uniform(0.05, 2.5)) / sweep_h)]
    sim_member = CATALOG[int(rng.integers(len(CATALOG)))]
    sim_h = _log_uniform(rng, 1e-5, 1e-3)
    simulate = [
        "simulate", "--name", sim_member, "--h", repr(sim_h),
        "--t-end", repr(2000 * sim_h),
        "--omega-syn", repr(float(rng.uniform(0.05, 1.0)) / sim_h),
        "--signal", str(rng.choice(("cosine", "constant"))),
        "--engine", str(rng.choice(("direct", "state_space"))),
    ]
    if sim_member in TUNED:
        simulate += ["--omega-select", repr(float(rng.uniform(0.05, 1.0)) / sim_h)]
    return [
        (analyze, 0 if member in ZERO_FEEDBACK else 2, None),
        (["table2"], 0, "table2.csv"),
        (sweep, 0, "sweep.csv"),
        (simulate, 0, "trace.csv"),
    ]
