"""Benchmark harness for obreshkov: timed workloads, correctness checks, tracing.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of repro, simulate_mix, synth_screen, cli (see bench/README.md).
One process, one thread, closed loop: the next operation starts when the
previous one has finished. A run repeats passes over the workload's fixed
operation list for S seconds, checks every operation's output, and prints
the metrics by name and unit. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run alternates
untraced and traced passes, so the tracing overhead is measured in the same
run. Details and spans go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# single-threaded numpy, set before numpy is imported here or in a child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# enough operations that at least ten latency samples lie above p90
MIN_OPS = 110
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import obreshkov; print(time.perf_counter() - t)"
)

# Timings are converted to reference-speed seconds: measured seconds times
# (reference time / the calibration kernel's time). The kernel runs between
# operations whenever CAL_INTERVAL_S of operation time has passed, and the
# median of its last CAL_WINDOW times is used. On a shared machine the speed
# drifts by up to 1.6x over seconds to minutes; the kernel slows with it, so
# the ratio cancels much of that drift. In-process work is scaled by an
# interpreter kernel, child processes by a bare interpreter start.
CAL_INTERVAL_S = 0.25
CAL_WINDOW = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def environment(load) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_at_start": list(load),
    }


def interpreter_kernel() -> None:
    """Fixed interpreter-bound work: float math, list and dict traffic, fsum."""
    acc = []
    cos = math.cos
    for i in range(20000):
        acc.append(cos(i * 0.001) * 2.0)
    math.fsum(acc)
    counts: dict[int, float] = {}
    for i in range(20000):
        key = i & 255
        counts[key] = counts.get(key, 0.0) + 1.0


def process_kernel() -> None:
    """Start and stop a bare interpreter, the fixed part of every child process."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)


# (kernel, reference time in seconds)
INTERPRETER = (interpreter_kernel, 5e-3)
PROCESS = (process_kernel, 10e-3)


class Clock:
    """Scales measured seconds to reference-speed seconds with the latest calibration."""

    def __init__(self, kernel, ref_s: float):
        self.kernel, self.ref_s = kernel, ref_s
        self.kernel_s: list[float] = []
        self.factor = 1.0
        self.since = math.inf

    def calibrate(self) -> None:
        t0 = perf_counter()
        self.kernel()
        self.kernel_s.append(perf_counter() - t0)
        self.factor = self.ref_s / statistics.median(self.kernel_s[-CAL_WINDOW:])
        self.since = 0.0

    def before_op(self) -> None:
        if self.since >= CAL_INTERVAL_S:
            self.calibrate()

    def scale(self, seconds: float) -> float:
        self.since += seconds
        return seconds * self.factor


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def measure_setup(name: str, seed: int, work_dir: str, repeats: int, env: dict):
    """Import time (median over fresh interpreters) plus input generation and warm-up
    (median over repeats in this process), in reference-speed seconds.

    Returns (setup_s, workload, clock for the operations); setup_s is None
    for a single repeat."""
    import workloads

    cls = workloads.WORKLOADS[name]
    clock = Clock(*(PROCESS if cls.spawns_processes else INTERPRETER))
    process_clock = Clock(*PROCESS)
    imports, builds = [], []
    for _ in range(repeats if repeats > 1 else 0):
        process_clock.calibrate()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=work_dir, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        imports.append(process_clock.scale(float(proc.stdout.strip())))
    for _ in range(repeats):
        clock.calibrate()
        t0 = perf_counter()
        wl = cls(seed, work_dir)
        for op in wl.warmup_ops():
            op.run()
        builds.append(clock.scale(perf_counter() - t0))
    setup = statistics.median(imports) + statistics.median(builds) if imports else None
    clock.since = math.inf
    return setup, wl, clock


def run_pass(wl, tracer, op_base: int, clock) -> dict:
    """One pass over wl.ops. Latencies cover run() only; checks follow it."""
    wl.outcomes = {}
    latencies, raw, failures = [], [], []
    if tracer is not None:
        tracer.install()
        wl.tracer = tracer
        first = len(tracer.spans)
        before = dict(tracer.counts)
    for n, op in enumerate(wl.ops):
        clock.before_op()
        if tracer is not None:
            tracer.op_id = op_base + n
            span = tracer.open(f"op.{op.kind}")
        t0 = perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an operation that raises is a failed operation
            result, error = None, f"{op.kind} raised {type(exc).__name__}: {exc}"
        raw.append(perf_counter() - t0)
        latencies.append(clock.scale(raw[-1]))
        if tracer is not None:
            tracer.close(span)
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"{op.kind} check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
    out = {
        "kinds": [op.kind for op in wl.ops],
        "latencies": latencies,
        "wall": sum(latencies),
        "raw_wall": sum(raw),
        "failures": failures,
        "outcomes": dict(wl.outcomes),
        "traced": tracer is not None,
    }
    if tracer is not None:
        tracer.uninstall()
        wl.tracer = None
        out["counts"] = {
            k: v - before.get(k, 0) for k, v in tracer.counts.items() if v != before.get(k, 0)
        }
        out["self"], out["total"] = tracer.self_times(first)
    return out


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    from tracing import layer_metric_names

    counts = traced[0]["counts"]
    repeat = all(p["counts"] == counts for p in traced)

    def self_ms(name: str) -> float:
        if name == "cli.main":
            per_pass = [
                sum(v for k, v in p["self"].items() if k.startswith("cli.main.")) for p in traced
            ]
        else:
            per_pass = [p["self"].get(name, 0.0) for p in traced]
        return _median_ms(per_pass)

    metrics = {}
    for name in layer_metric_names():
        base, stat = name.rsplit(".", 1)
        if name == "trace.overhead_ratio":
            value = statistics.median(p["wall"] for p in traced) / statistics.median(
                p["wall"] for p in untraced
            )
            unit = "ratio"
        elif stat == "self_ms":
            value, unit = self_ms(base), "ms"
        elif stat == "ns_per_step":
            steps = counts.get(f"{base}.steps", 0)
            run_s = statistics.median(p["total"].get(base, 0.0) for p in traced)
            value, unit = (1e9 * run_s / steps if steps else 0.0), "ns"
        else:
            value, unit = counts.get(name, 0), ("B" if stat == "bytes" else "count")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeat


def bench(args, work_dir: str) -> int:
    load = os.getloadavg()
    sys.path.insert(0, SRC)
    import obreshkov.cli  # noqa: F401  (its import time is measured in fresh interpreters)
    import workloads
    from tracing import Tracer

    env = workloads.child_env()
    setup_s, wl, clock = measure_setup(
        args.workload, args.seed, work_dir, 1 if args.trace else SETUP_REPEATS, env
    )
    tracer = Tracer() if args.trace else None
    passes: list[dict] = []
    start = perf_counter()
    deadline, hard_stop = start + args.seconds, start + 1.5 * args.seconds
    n_ops = 0
    while True:
        now = perf_counter()
        done = now >= deadline and n_ops >= MIN_OPS
        if args.trace:
            done = done and len(passes) >= 2
        if done or now >= hard_stop:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(wl, tracer if traced else None, n_ops, clock))
        n_ops += len(wl.ops)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    latencies = [x for p in untraced for x in p["latencies"]]
    walls = [p["wall"] for p in untraced]
    failures = [f for p in passes for f in p["failures"]]
    deciles = statistics.quantiles(latencies, n=10)
    wall = statistics.median(walls)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": statistics.median(len(wl.ops) / w for w in walls),
        "op_p50_ms": 1e3 * deciles[4],
        "op_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    by_kind: dict[str, list[float]] = {}
    for p in untraced:
        for kind, x in zip(p["kinds"], p["latencies"]):
            by_kind.setdefault(kind, []).append(x)
    # printed by name and unit and kept in the report, but not in BENCHMARK.json:
    # not every workload has them, or (fail_ratio) they may read 0
    figures = {
        "fail_ratio": (len(failures) / n_ops, "ratio"),
        "raw_wall_s": (statistics.median(p["raw_wall"] for p in untraced), "s"),
        "calibration_kernel_ms": (_median_ms(clock.kernel_s), "ms"),
    }
    samples = wl.samples_per_pass()
    if samples:
        figures["steps_per_s"] = (samples / wall, "1/s")
    if "table3" in by_kind:
        figures["table3_ms"] = (_median_ms(by_kind["table3"]), "ms")
    if args.workload == "cli":
        figures["cli_ms"] = (_median_ms(latencies), "ms")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(load),
        "inputs": wl.info,
        "outcomes_per_pass": passes[0]["outcomes"],
        "figures": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
        "op_samples": len(latencies),
        "op_samples_above_p90": sum(x > deciles[8] for x in latencies),
        "passes": len(untraced),
        "op_ms_by_kind": {k: _median_ms(v) for k, v in by_kind.items()},
        "samples_per_pass": samples,
        "calibrations": len(clock.kernel_s),
        "failures": failures[:20],
    }
    print("environment: " + json.dumps(report["environment"]))
    print(f"workload {args.workload}, seed {args.seed}, inputs: {json.dumps(wl.info)}")
    if passes[0]["outcomes"]:
        print("outcomes per pass: " + json.dumps(passes[0]["outcomes"]))
    for line in failures[:5]:
        print(f"FAILED: {line}")
    for name, (value, unit) in figures.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"op samples = {report['op_samples']} ({report['op_samples_above_p90']} above p90)")
    if args.trace:
        metrics, repeat = layer_metrics(traced, untraced)
        report["counts_repeat_across_passes"] = repeat
        tracer.dump(
            os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "environment": report["environment"]},
        )
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        if not args.trace or m["value"]:
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    report["metrics"] = metrics
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": not failures, "attempted": n_ops, "failed": len(failures), "metrics": metrics,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("repro", "simulate_mix", "synth_screen", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "obreshkov", "__init__.py")):
        print(f"error: no obreshkov package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return bench(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
