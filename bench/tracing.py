"""In-memory spans and counters around the package's public functions.

The tracer wraps each function in WRAPPED at every module attribute that
holds it (the defining module, the package namespace and each module that
imported the name), so callers inside the package and the benchmark's own
calls both pass through the wrapper. Nothing under src/ changes. Signals
are counted by handing the program subclasses of Cosine, Polynomial and
Constant whose deriv() bumps a counter.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that get a span, named "<module>.<function>" with
# any leading underscore dropped (metric names must start with a letter)
WRAPPED = (
    ("tableau", "make_catalog"),
    ("tableau", "differentiator_form"),
    ("tableau", "save_json"),
    ("tableau", "load_json"),
    ("suitability", "classify_tableau"),
    ("suitability", "polynomial_roots"),
    ("spectrum", "error_spectrum"),
    ("spectrum", "taylor_coefficients"),
    ("spectrum", "origin_multiplicity"),
    ("spectrum", "sweep"),
    ("spectrum", "write_sweep_csv"),
    ("solver", "solve_coefficients"),
    ("solver", "verify_synthesis"),
    ("simulator", "run"),
    ("simulator", "run_composite"),
    ("simulator", "relative_error_metric"),
    ("simulator", "oscillation_amplitude"),
    ("simulator", "write_trace_csv"),
    ("_files", "atomic_write_text"),
    ("cli", "main"),
)
MODULES = ("tableau", "suitability", "spectrum", "solver", "simulator", "_files", "cli")
SIGNALS = ("Cosine", "Polynomial", "Constant")
CLI_COMMANDS = ("analyze", "table2", "table3", "fig1", "fig2", "fig3", "sweep", "simulate")

# per-pass counts and self times reported by a traced run, in BENCHMARK.json order
COUNT_METRICS = (
    "simulator.run.steps",
    "simulator.run_composite.steps",
    "simulator.signal_evals",
    "simulator.write_trace_csv.bytes",
    "files.atomic_write_text.bytes",
    "spectrum.write_sweep_csv.bytes",
    "spectrum.sweep.points",
    "solver.solve_coefficients.rejected",
    "solver.verify_synthesis.uncertified",
)


def span_name(module: str, fn: str) -> str:
    return f"{module.lstrip('_')}.{fn}"


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, whatever the workload."""
    names = []
    for module, fn in WRAPPED:
        names += [f"{span_name(module, fn)}.calls", f"{span_name(module, fn)}.self_ms"]
    names += list(COUNT_METRICS)
    names.append("simulator.run.ns_per_step")
    names += [f"cli.main.{cmd}.self_ms" for cmd in CLI_COMMANDS]
    names.append("trace.overhead_ratio")
    return names


def _samples(result) -> int:
    """Computed samples of a SimulationTrace (the injected init samples excluded)."""
    return sum(1 for flag in result.flags if flag != "init")


def _payload_bytes(args, kwargs) -> int:
    payload = kwargs["payload"] if "payload" in kwargs else args[1]
    return len(payload.encode("utf-8"))


def _file_bytes(args, kwargs) -> int:
    path = kwargs["path"] if "path" in kwargs else args[1]
    return os.path.getsize(path)


# name -> (count key, f(result, args, kwargs)) recorded after a successful call
_POST = {
    "simulator.run": ("steps", lambda r, a, kw: _samples(r)),
    "simulator.run_composite": ("steps", lambda r, a, kw: _samples(r)),
    "simulator.write_trace_csv": ("bytes", lambda r, a, kw: _file_bytes(a, kw)),
    "spectrum.write_sweep_csv": ("bytes", lambda r, a, kw: _file_bytes(a, kw)),
    "files.atomic_write_text": ("bytes", lambda r, a, kw: _payload_bytes(a, kw)),
    "spectrum.sweep": ("points", lambda r, a, kw: len(r)),
    "solver.verify_synthesis": ("uncertified", lambda r, a, kw: int(not r.passed)),
}


class Tracer:
    """Spans are [name, start, end, parent index, op id]; counts are per name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._signal_classes: dict[str, type] = {}

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def adopt(self, spans, parent: int) -> None:
        """Attach spans recorded by a child process (same monotonic clock) under parent."""
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par is None else base + par, self.op_id])

    def merge_counts(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[key] += value

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, fn, name: str):
        post = _POST.get(name)
        tracer = self
        synthesis_error = sys.modules["obreshkov.solver"].SynthesisError

        def wrapper(*args, **kwargs):
            span_name = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                if argv:
                    span_name = f"cli.main.{argv[0]}"
            idx = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            except synthesis_error:
                if name == "solver.solve_coefficients":
                    tracer.counts[f"{name}.rejected"] += 1
                raise
            finally:
                tracer.close(idx)
                tracer.counts[f"{name}.calls"] += 1
            if post is not None:
                key, measure = post
                tracer.counts[f"{name}.{key}"] += measure(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, base: type) -> type:
        tracer = self

        def deriv(self, order, t):
            tracer.counts["simulator.signal_evals"] += 1
            return base.deriv(self, order, t)

        return type(f"Counting{base.__name__}", (base,), {"deriv": deriv})

    def install(self) -> None:
        """Swap every module attribute bound to a wrapped function or signal class."""
        if self._patches:
            return
        namespaces = [importlib.import_module("obreshkov")] + [
            importlib.import_module(f"obreshkov.{m}") for m in MODULES
        ]
        simulator = sys.modules["obreshkov.simulator"]
        replacements = {}
        for module, fn in WRAPPED:
            original = getattr(sys.modules[f"obreshkov.{module}"], fn)
            replacements[id(original)] = self._wrap(original, span_name(module, fn))
        if not self._signal_classes:
            self._signal_classes = {
                name: self._counting(getattr(simulator, name)) for name in SIGNALS
            }
        for name in SIGNALS:
            replacements[id(getattr(simulator, name))] = self._signal_classes[name]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                new = replacements.get(id(value))
                if new is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, new)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------
    def self_times(self, first: int = 0) -> tuple[dict[str, float], dict[str, float]]:
        """(self, total) seconds per span name for spans[first:]; self is a span's
        duration minus that of its direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None and parent >= first:
                child_time[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for idx in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[idx]
            own[name] += (end - start) - child_time[idx]
            total[name] += end - start
        return dict(own), dict(total)

    def dump(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op_id"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
