"""The four workloads: the fixed operation list of one pass, and its checks.

An operation is a pair (run, check). The harness times run() only; check()
gets its result afterwards and returns None or a one-line failure reason.
Every call into the package goes through a module attribute looked up at
call time (obreshkov.simulator.run, not a name bound at import), so the
tracer's wrappers see it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


class Workload:
    """ops is the fixed list one pass runs; info describes the generated inputs."""

    name = ""
    spawns_processes = False  # its operations are child processes

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.ops: list[Op] = []
        self.info: dict = {}
        self.tracer = None  # set by the harness for traced passes of child processes
        self.outcomes: dict[str, int] = {}  # per-pass outcome counts, reset by the harness

    def count(self, outcome: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def warmup_ops(self) -> list[Op]:
        return self.ops

    def samples_per_pass(self) -> int:
        """Simulated grid samples in one pass (0 where nothing is simulated)."""
        return 0


def _pkg(module: str):
    return sys.modules[f"obreshkov.{module}"]


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _trace_samples(path: str) -> int:
    return sum(1 for row in _read_csv(path) if row["flag"] != "init")


# --------------------------------------------------------------------------
# repro: the paper's reproduction commands, in process
# --------------------------------------------------------------------------

# The benchmark's own copy of the paper's expectations, kept apart from src/.
TABLE2_CLASSES = {
    "A": "BIASED", "B": "IDEAL", "C": "BIASED", "D": "IDEAL", "E": "IDEAL", "F": "IDEAL",
}
TABLE3_STEPS_US = (125, 250, 500, 1000, 2000, 4000)
TABLE3_PERCENT = {
    "B": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "D": (1.5709, 3.1418, 6.2820, 12.5428, 24.8785, 48.0113),
    "E": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "F": (0.0185, 0.0740, 0.2959, 1.1809, 4.6812, 18.0758),
}
TABLE3_T_END = 1.0
FIG_FILES = {
    "fig1": ("fig1.csv",),
    "fig2": ("fig2_scheme2.csv", "fig2_scheme4.csv"),
    "fig3": ("fig3_A.csv", "fig3_C.csv", "fig3_E.csv"),
}


def _check_table2(path: str) -> str | None:
    rows = _read_csv(path)
    got = {row["label"]: row["classification"] for row in rows}
    if got != TABLE2_CLASSES:
        return f"table2.csv classes {got}"
    return None


def _check_table3(path: str) -> str | None:
    rows = _read_csv(path)
    if len(rows) != 24:
        return f"table3.csv has {len(rows)} rows, expected 24"
    for row in rows:
        name, us = row["integrator"], int(row["step_us"])
        ref = TABLE3_PERCENT[name][TABLE3_STEPS_US.index(us)]
        got = float(row["computed"])
        ok = got < 1e-6 if ref == 0.0 else abs(got - ref) <= 0.02 * ref
        if row["status"] != "PASS" or not ok:
            return f"table3 {name} @ {us} us: {got!r} against {ref}"
    return None


class Repro(Workload):
    """cli.main in process for table2, table3 and fig1-fig3 with default flags."""

    name = "repro"
    COMMANDS = ("table2", "table3", "fig1", "fig2", "fig3")

    def __init__(self, seed: int, out_dir: str):
        super().__init__(out_dir)
        self.info = {"commands": list(self.COMMANDS), "seed_used": False}
        self.ops = [Op(cmd, self._runner(cmd), self._checker(cmd)) for cmd in self.COMMANDS]

    def _runner(self, cmd: str):
        argv = [cmd, "--out", self.out_dir]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return _pkg("cli").main(argv)

        return run

    def _checker(self, cmd: str):
        def check(code):
            if code != 0:
                return f"{cmd} exited {code}"
            if cmd == "table2":
                return _check_table2(os.path.join(self.out_dir, "table2.csv"))
            if cmd == "table3":
                return _check_table3(os.path.join(self.out_dir, "table3.csv"))
            for name in FIG_FILES[cmd]:
                path = os.path.join(self.out_dir, name)
                if not os.path.isfile(path) or _trace_samples(path) < 1:
                    return f"{cmd} left no trace in {name}"
            return None

        return check

    def samples_per_pass(self) -> int:
        table3 = sum(
            len(TABLE3_PERCENT) * (int(math.floor(TABLE3_T_END / (us * 1e-6) + 1e-9)))
            for us in TABLE3_STEPS_US
        )
        figs = sum(
            _trace_samples(os.path.join(self.out_dir, name))
            for names in FIG_FILES.values() for name in names
        )
        return table3 + figs


# --------------------------------------------------------------------------
# simulate_mix: long seeded simulations through the public API
# --------------------------------------------------------------------------

def _make_signal(spec):
    sim = _pkg("simulator")  # the tracer swaps in counting subclasses here
    kind = spec[0]
    if kind == "cosine":
        return sim.Cosine(spec[1], spec[2])
    if kind == "polynomial":
        return sim.Polynomial(spec[1])
    return sim.Constant(spec[1])


def _derivative_peaks(job, upto: int) -> list[float]:
    """max |d^i u/dt^i| over the run for i = 0..upto, from the job's own spec."""
    kind, *params = job.signal
    if kind == "cosine":
        omega, amplitude = params
        return [abs(amplitude) * omega**i for i in range(upto + 1)]
    if kind == "constant":
        return [abs(params[0])] + [0.0] * upto
    poly = np.polynomial.Polynomial(params[0])
    times = np.linspace(-job.h * 3, job.t_end, 257)
    return [float(np.max(np.abs(poly.deriv(i)(times)))) for i in range(upto + 1)]


def _forcing_scale(t, peaks) -> float:
    """Size of the largest forcing terms, |weights| times |signal derivatives|.

    Round-off in the recursion is relative to this, not to the (possibly
    much smaller) derivative being computed.
    """
    total = (1.0 + sum(abs(v) for v in t.c0)) * peaks[0]
    for i in range(1, t.k):
        total += sum(abs(v) for v in t.c[i - 1]) * peaks[i]
    return total / abs(t.c[t.k - 1][0])


def _roundoff(job, t, peaks) -> float:
    """Tolerance for round-off: a few ulps of the forcing per step, growing like
    sqrt(steps) where feedback keeps earlier errors alive."""
    growth = 1.0 if job.member in inputs.ZERO_FEEDBACK else math.sqrt(job.n_steps)
    return 64.0 * np.finfo(float).eps * _forcing_scale(t, peaks) * growth


def _transfer_percent(t, omega: float) -> float:
    """Steady-state relative error, in percent, of a zero-feedback rule at omega.

    The benchmark's own evaluation of R(j omega) / ((j omega)^k c_k0).
    """
    s = 1j * omega
    total = 1.0 + 0j
    for j in range(1, t.m + 1):
        total -= t.c0[j - 1] * np.exp(-s * j * t.h)
    for i in range(1, t.k + 1):
        for j in range(0, t.m + 1):
            total -= t.c[i - 1][j] * s**i * np.exp(-s * j * t.h)
    return 100.0 * abs(total) / (omega**t.k * abs(t.c[t.k - 1][0]))


def _job_samples(job: inputs.SimJob) -> int:
    """Computed samples of a job: m..n_steps per engine, or startup plus main stage."""
    if job.startup is None:
        return (job.n_steps + 1 - job.m) * len(job.engines)
    n_half = job.startup[1]
    return n_half + int(math.floor((job.t_end - n_half * job.h / 2.0) / job.h + 1e-9))


class SimulateMix(Workload):
    """Seeded long runs of all nine members, both engines, composite startups."""

    name = "simulate_mix"

    def __init__(self, seed: int, out_dir: str):
        super().__init__(out_dir)
        jobs = self.jobs = inputs.simulate_jobs(seed)
        self._samples = sum(_job_samples(j) for j in jobs)
        self.info = {
            "jobs": len(jobs),
            "samples": self._samples,
            "csv_jobs": sum(j.write_csv for j in jobs),
        }
        self.ops = [
            Op("composite" if job.startup else "run", self._runner(i, job), self._checker(i, job))
            for i, job in enumerate(jobs)
        ]

    def warmup_ops(self) -> list[Op]:
        # the shortest job of each kind
        by_kind = {}
        for op, job in sorted(zip(self.ops, self.jobs), key=lambda pair: pair[1].n_steps):
            by_kind.setdefault(op.kind, op)
        return list(by_kind.values())

    def _runner(self, index: int, job: inputs.SimJob):
        path = os.path.join(self.out_dir, f"trace{index}.csv")

        def run():
            sim = _pkg("simulator")
            tab = _pkg("tableau")
            sig = _make_signal(job.signal)
            t = tab.make_catalog(job.member, job.h, job.omega_select)
            if job.startup is not None:
                first, n_half = job.startup
                stages = [(tab.make_catalog(first, job.h / 2.0), job.h / 2.0, n_half),
                          (t, job.h, None)]
                init = sig.deriv(job.k, 0.0) + job.init_offset
                traces = [sim.run_composite(stages, sig, job.t_end, init)]
            else:
                init = tuple(v + job.init_offset for v in sim.proper_init(t, sig))
                traces = [sim.run(t, sig, job.t_end, init, engine=e) for e in job.engines]
            if job.metric == "relative_error":
                metric = sim.relative_error_metric(traces[0])
            else:
                metric = sim.oscillation_amplitude(traces[0], (job.t_end * 2.0 / 3.0, job.t_end))
            if job.write_csv:
                sim.write_trace_csv(traces[0], path)
            return t, traces, metric

        return run

    def _checker(self, index: int, job: inputs.SimJob):
        path = os.path.join(self.out_dir, f"trace{index}.csv")

        def check(result):
            t, traces, metric = result
            for trace in traces:
                if trace.meta["status"] != "OK":
                    return f"{job.member}: status {trace.meta['status']}"
            if not math.isfinite(metric):
                return f"{job.member}: metric {metric!r}"
            if len(traces) == 2:
                a, b = traces
                scale = max(1.0, float(np.max(np.abs(a.computed))))
                if float(np.max(np.abs(a.computed - b.computed))) > 1e-12 * scale:
                    return f"{job.member}: engines disagree"
            trace = traces[0]
            peaks = _derivative_peaks(job, job.k)
            kind = job.signal[0]
            if kind == "polynomial":
                # exact within the rule's exactness order, up to round-off
                err = float(np.max(np.abs(trace.error)))
                if err > 1e-9 * peaks[job.k] + _roundoff(job, t, peaks):
                    return f"{job.member}: polynomial error {err:.3e}"
            elif kind == "cosine" and job.startup is None and job.member in inputs.ZERO_FEEDBACK:
                # steady state is exact for zero feedback; a window that is not
                # a whole number of periods moves the RMS ratio by up to ~2/(omega*T)
                predicted = _transfer_percent(t, job.signal[1])
                window = 2.0 / (job.signal[1] * (job.t_end - 2 * job.h))
                if abs(metric - predicted) > (1e-2 + window) * predicted + 1e-6:
                    return f"{job.member}: metric {metric:.6g}% against transfer {predicted:.6g}%"
            elif kind == "constant":
                # a rule that is not DIVERGENT does not amplify the injected init error
                if metric > abs(job.init_offset) + _roundoff(job, t, peaks):
                    return f"{job.member}: constant-signal amplitude {metric:.3e}"
            if job.write_csv:
                with open(path, encoding="utf-8") as fh:
                    rows = sum(1 for _ in fh) - 1
                if rows != len(trace.grid):
                    return f"{job.member}: trace CSV has {rows} rows, trace {len(trace.grid)}"
            return None

        return check

    def samples_per_pass(self) -> int:
        return self._samples


# --------------------------------------------------------------------------
# synth_screen: design-space exploration without simulation
# --------------------------------------------------------------------------

class SynthScreen(Workload):
    """Seeded synthesis requests and random-tableau screens."""

    name = "synth_screen"

    def __init__(self, seed: int, out_dir: str):
        super().__init__(out_dir)
        requests = inputs.synth_requests(seed)
        self.info = {
            "requests": len(requests),
            "synthesis": sum(isinstance(r, inputs.SynthRequest) for r in requests),
            "screens": sum(isinstance(r, inputs.ScreenRequest) for r in requests),
            "sweep_points": sum(
                r.sweep_points for r in requests if isinstance(r, inputs.SynthRequest)
            ),
        }
        self.ops = []
        for i, req in enumerate(requests):
            if isinstance(req, inputs.SynthRequest):
                self.ops.append(Op("synthesize", self._synthesize(i, req), self._check_synth(req)))
            else:
                self.ops.append(Op("screen", self._screen(req), self._check_screen(req)))

    def warmup_ops(self) -> list[Op]:
        return self.ops[:20]

    def _synthesize(self, index: int, req: inputs.SynthRequest):
        ext = "csv" if req.output == "sweep_csv" else "json"
        path = os.path.join(self.out_dir, f"request{index}.{ext}")
        grid = np.linspace(req.sweep_top / req.sweep_points, req.sweep_top, req.sweep_points)

        def run():
            solver, spectrum = _pkg("solver"), _pkg("spectrum")
            cs = solver.ConstraintSet(
                k=req.k, m=req.m, h=req.h, fixed=req.fixed,
                origin_multiplicity=req.origin_multiplicity, frequencies=req.frequencies,
            )
            try:
                t = solver.solve_coefficients(cs)
            except solver.SynthesisError as exc:
                return exc
            report = solver.verify_synthesis(t, cs)
            verdict = _pkg("suitability").classify_tableau(t)
            spec = spectrum.error_spectrum(t)
            rows = spectrum.sweep(t, grid)
            loaded = None
            if req.output == "sweep_csv":
                spectrum.write_sweep_csv(rows, path)
            elif req.output == "json":
                tab = _pkg("tableau")
                tab.save_json(t, path)
                loaded = tab.load_json(path)
            return t, report, verdict, spec, rows, loaded

        return run

    def _check_synth(self, req: inputs.SynthRequest):
        def check(result):
            if isinstance(result, Exception):  # run() returns only a SynthesisError
                self.count("rejected")
                return None
            t, report, verdict, spec, rows, loaded = result
            if not report.passed:
                # only a request with more conditions than free slots may come
                # back as a least-squares fit that misses some of them
                if req.excess <= 0:
                    return f"square request failed certification: {report.failures}"
                self.count("uncertified")
            else:
                self.count("certified")
            if spec.origin_multiplicity != report.achieved_multiplicity:
                return f"error_spectrum multiplicity {spec.origin_multiplicity}"
            if len(rows) != req.sweep_points or not all(math.isfinite(v) for _, v in rows):
                return "sweep rows"
            if verdict.label != f"k{req.k}m{req.m}" or len(verdict.roots) != req.m:
                return "classification shape"
            if req.output == "json" and loaded != t:
                return "JSON round trip changed the tableau"
            return None

        return check

    def _screen(self, req: inputs.ScreenRequest):
        def run():
            tab = _pkg("tableau")
            t = tab.ObreshkovTableau(k=req.k, m=req.m, h=req.h, c0=req.c0, c=req.c)
            return _pkg("suitability").classify_tableau(t)

        return run

    def _check_screen(self, req: inputs.ScreenRequest):
        def check(report):
            if report.classification.name != req.expected:
                return f"screen: {report.classification.name}, expected {req.expected}"
            return None

        return check


# --------------------------------------------------------------------------
# cli: one `python -m obreshkov` process per operation
# --------------------------------------------------------------------------

def child_env() -> dict:
    """The caller's environment with the absolute src path first on PYTHONPATH."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not rest else SRC + os.pathsep + rest
    return env


class Cli(Workload):
    """analyze, table2, sweep and simulate as sequential child processes."""

    name = "cli"
    spawns_processes = True

    def __init__(self, seed: int, out_dir: str):
        super().__init__(out_dir)
        self.env = child_env()
        commands = inputs.cli_commands(seed)
        self.info = {"processes": len(commands), "argv": [c[0] for c in commands]}
        self.ops = [
            Op(argv[0], self._runner(i, argv, output), self._checker(argv, code, output))
            for i, (argv, code, output) in enumerate(commands)
        ]

    def warmup_ops(self) -> list[Op]:
        return self.ops[:1]

    def _runner(self, index: int, argv: list[str], output: str | None):
        if output is not None:
            argv = argv + ["--out", self.out_dir]
        spans = os.path.join(self.out_dir, f"spans{index}.json")

        def run():
            if self.tracer is None:
                cmd = [sys.executable, "-m", "obreshkov", *argv]
            else:
                cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans, *argv]
            proc = subprocess.run(
                cmd, cwd=self.out_dir, env=self.env, capture_output=True, text=True, timeout=60
            )
            if self.tracer is not None and os.path.isfile(spans):
                with open(spans, encoding="utf-8") as fh:
                    doc = json.load(fh)
                os.unlink(spans)
                self.tracer.adopt(doc["spans"], self.tracer.current())
                self.tracer.merge_counts(doc["counts"])
            return proc

        return run

    def _checker(self, argv: list[str], code: int, output: str | None):
        def check(proc):
            if proc.returncode != code:
                return f"{argv[0]} exited {proc.returncode}, expected {code}: {proc.stderr[-200:]}"
            if output is not None:
                path = os.path.join(self.out_dir, output)
                if not os.path.isfile(path) or os.path.getsize(path) == 0:
                    return f"{argv[0]} wrote no {output}"
                os.unlink(path)
            return None

        return check


WORKLOADS = {w.name: w for w in (Repro, SimulateMix, SynthScreen, Cli)}
