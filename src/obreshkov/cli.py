"""Command-line front end: suitability checks, synthesis, sweeps, and the
reproduction experiments behind the reference tables and figures.

Exit codes: 0 success (or suitable verdict), 1 input error, 2 unsuitable
verdict or reference mismatch, 3 synthesis failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from ._files import atomic_write_text
from ._numpy import np
from .simulator import (
    Constant,
    Cosine,
    SimulationTrace,
    _pow2_scaled,
    _runs,
    _settle_step,
    _step_count,
    oscillation_amplitude,
    relative_error_metric,
    run,
    run_composite,
    write_trace_csv,
)
from .solver import ConstraintSet, SynthesisError, solve_coefficients, verify_synthesis
from .spectrum import sweep, write_sweep_csv
from .suitability import (
    classify_tableau,
    report_csv,
    report_text,
    table2_report,
    write_report_csv,
)
from .tableau import (
    FREQUENCY_TUNED,
    OMEGA_SYN,
    ObreshkovTableau,
    _read_json_object,
    admissibility_violation,
    load_json,
    make_catalog,
    require_valid,
    save_json,
)

__all__ = ["main"]

TABLE2_EXPECTED = {
    # label: (polynomial coefficients, root, suitable, hazard)
    "A": ((1.0, -1.0), 1.0, False, "Bias"),
    "B": ((1.0, 0.0), 0.0, True, "--"),
    "C": ((1.0, -1.0), 1.0, False, "Bias"),
    "D": ((1.0, 0.0), 0.0, True, "--"),
    "E": ((1.0, 0.0), 0.0, True, "--"),
    "F": ((1.0, 0.0), 0.0, True, "--"),
}

TABLE3_STEPS_US = (125, 250, 500, 1000, 2000, 4000)
# reference error percentages, stored to 4 decimals as printed; rows that
# print as 0.0000 are stored as 0.0 and checked against an absolute floor
TABLE3_REFERENCE = {
    "B": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "D": (1.5709, 3.1418, 6.2820, 12.5428, 24.8785, 48.0113),
    "E": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "F": (0.0185, 0.0740, 0.2959, 1.1809, 4.6812, 18.0758),
}
TABLE3_REL_TOL = 0.02
TABLE3_ZERO_TOL = 1e-6

FIG_WINDOW = (0.01, 0.02)
FIG2_EARLY_WINDOW = (0.005, 0.01)
FIG2_LATE_WINDOW = (0.015, 0.02)
SETTLE_FACTOR = 1e-6


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; 2 is taken by the unsuitable verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _output(args, name: str) -> str:
    """The path of output file name in --out, which is created now if it is missing."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _finite_flags(args, *dests: str) -> None:
    """Refuse a non-finite value of a flag a signal is built from: the library runs
    such a signal to a DIVERGED trace, which no command reports as an input error."""
    for dest in dests:
        value = getattr(args, dest)
        if not math.isfinite(value):
            raise ValueError(f"--{dest.replace('_', '-')} must be a finite number, got {value!r}")


def _paper_runs(names, h: float, args) -> list[SimulationTrace]:
    """Catalog members names at step h, each tuned to --omega-syn if it is frequency
    tuned, run on the unit cosine at --omega-syn from --init. They share one grid,
    so the cosine is sampled once for all of them."""
    _finite_flags(args, "omega_syn")
    w = args.omega_syn
    # make_catalog names a step that is not positive and finite
    if 0 < h < math.inf and not FREQUENCY_TUNED.isdisjoint(names) and admissibility_violation(w, h):
        raise ValueError(
            f"--omega-syn {w!r} at a step of {h!r} s gives omega*h = {w * h!r}, outside the tuned "
            f"members' window: 0 < omega*h < 2*pi, away from cos(omega*h) = 1"
        )
    tableaus = [make_catalog(name, h, w if name in FREQUENCY_TUNED else None) for name in names]
    return _runs(tableaus, Cosine(w, 1.0), args.t_end, (args.init,))


def _omega_select(args) -> float:
    """--omega-select, falling back to --omega-syn, for the frequency-tuned members."""
    return args.omega_syn if args.omega_select is None else args.omega_select


def _load_tableau(args) -> ObreshkovTableau:
    if (args.name is None) == (args.file is None):
        raise ValueError("exactly one of --name and --file is required")
    if args.file is not None:
        t = load_json(args.file)
    else:
        omega = _omega_select(args) if args.name in FREQUENCY_TUNED else args.omega_select
        t = make_catalog(args.name, args.h, omega)
    require_valid(t)
    return t


def cmd_analyze(args) -> int:
    t = _load_tableau(args)
    report = classify_tableau(t)
    if args.format == "csv":
        sys.stdout.write(report_csv([report]))
    else:
        sys.stdout.write(report_text([report]))
    return 0 if report.suitable else 2


def _constraint_set_from_file(path: str) -> ConstraintSet:
    """The request in a JSON constraint file. Only the file's shape is checked
    here; ConstraintSet checks the type of every value."""
    data = _read_json_object(path, "constraint")
    try:
        k, m, h = data["k"], data["m"], data["h"]
    except KeyError as exc:
        raise ValueError(f"malformed constraint file: {exc}") from exc
    entries = data.get("fixed", [])
    if not (isinstance(entries, list) and all(isinstance(e, list) and len(e) == 3 for e in entries)):
        raise ValueError(f"fixed must be a list of [i, j, value] entries, got {entries!r}")
    return ConstraintSet(
        k=k,
        m=m,
        h=h,
        fixed=[((i, j), v) for i, j, v in entries],
        origin_multiplicity=data.get("origin_multiplicity", 1),
        frequencies=data.get("frequencies", []),
    )


def cmd_solve(args) -> int:
    cs = _constraint_set_from_file(args.constraints)
    t = solve_coefficients(cs, least_squares=args.least_squares)
    path = _output(args, "tableau.json")
    save_json(t, path)
    report = verify_synthesis(t, cs)
    print(f"tableau written to {path}")
    print(
        f"origin multiplicity: required {report.required_multiplicity}, "
        f"achieved {report.achieved_multiplicity}"
    )
    for omega, residual in report.frequency_residuals:
        print(f"|R(j*{omega:.6g})| = {residual:.3e}")
    for slot, err in report.fixed_slot_errors:
        print(f"fixed slot {slot}: error {err:.3e}")
    for failure in report.failures:
        print(f"FAIL: {failure}")
    print(f"certification: {'PASS' if report.passed else 'FAIL'}")
    return 0


def cmd_sweep(args) -> int:
    t = _load_tableau(args)
    if args.points < 2:
        raise ValueError(f"--points must be an integer >= 2, got {args.points!r}")
    # a linear grid needs the span finite too; numpy would warn before sweep refused it
    if not math.isfinite(args.omega_to - args.omega_from):
        raise ValueError(
            f"--from and --to must be finite and less than the float range apart, "
            f"got {args.omega_from!r} and {args.omega_to!r}"
        )
    if not (args.omega_from < args.omega_to):
        raise ValueError("--from must be below --to")
    if args.log:
        if args.omega_from <= 0:
            raise ValueError("--log needs a positive --from")
        grid = np.geomspace(args.omega_from, args.omega_to, args.points)
    else:
        grid = np.linspace(args.omega_from, args.omega_to, args.points)
    rows = sweep(t, grid)
    path = _output(args, "sweep.csv")
    write_sweep_csv(rows, path)
    print(f"sweep written to {path} ({len(rows)} points)")
    return 0


def cmd_simulate(args) -> int:
    if args.signal == "cosine":
        _finite_flags(args, "omega_syn", "amplitude")
        sig = Cosine(args.omega_syn, args.amplitude)
    else:
        _finite_flags(args, "amplitude")
        sig = Constant(args.amplitude)
    t = _load_tableau(args)
    init = tuple(args.init for _ in range(t.m))
    trace = run(t, sig, args.t_end, init, engine=args.engine)
    path = _output(args, "trace.csv")
    write_trace_csv(trace, path)
    print(f"trace written to {path} ({len(trace.grid)} samples, {trace.meta['status']})")
    try:
        print(f"relative error metric: {relative_error_metric(trace):.6f}%")
    except ValueError as exc:
        print(f"relative error metric: undefined ({exc})")
    return 0


def cmd_fig1(args) -> int:
    (trace,) = _paper_runs(("TR",), args.h, args)
    amp = oscillation_amplitude(trace, FIG_WINDOW)
    path = _output(args, "fig1.csv")
    write_trace_csv(trace, path)
    err = trace.error[1:]
    signs = np.sign(err)
    alternating = float(np.mean(signs[1:] * signs[:-1] < 0))
    print(f"trace written to {path}")
    print(f"oscillation amplitude over [{FIG_WINDOW[0]:g}, {FIG_WINDOW[1]:g}] s: {amp:.4f}")
    print(f"sign alternation share: {100.0 * alternating:.2f}%")
    return 0


def cmd_fig2(args) -> int:
    _finite_flags(args, "omega_syn")
    sig = Cosine(args.omega_syn, 1.0)
    be_half = make_catalog("BE", args.h / 2.0)
    tr = make_catalog("TR", args.h)
    for n_half in (2, 4):
        stages = [(be_half, args.h / 2.0, n_half), (tr, args.h, None)]
        trace = run_composite(stages, sig, args.t_end, args.init)
        amp = oscillation_amplitude(trace, FIG_WINDOW)
        early = oscillation_amplitude(trace, FIG2_EARLY_WINDOW)
        late = oscillation_amplitude(trace, FIG2_LATE_WINDOW)
        path = _output(args, f"fig2_scheme{n_half}.csv")
        write_trace_csv(trace, path)
        ratio = f"{early / late:.4f}" if late else "undefined (no oscillation in the late window)"
        print(f"trace written to {path}")
        print(
            f"scheme {n_half} half-steps: amplitude {amp:.4f} over "
            f"[{FIG_WINDOW[0]:g}, {FIG_WINDOW[1]:g}] s, early/late window ratio {ratio}"
        )
    return 0


def cmd_fig3(args) -> int:
    try:
        threshold = SETTLE_FACTOR * args.omega_syn**2
    except OverflowError:
        raise ValueError(
            f"--omega-syn {args.omega_syn!r} is too large: its square overflows the float range"
        ) from None
    names = ("A", "C", "E")
    for name, trace in zip(names, _paper_runs(names, args.h, args)):
        path = _output(args, f"fig3_{name}.csv")
        write_trace_csv(trace, path)
        scaled, e = _pow2_scaled(trace.error[-10:])
        bias = math.ldexp(float(np.mean(scaled)), e)
        print(f"trace written to {path}")
        print(f"{name}: mean error over final 10 samples = {bias:.4f}")
        if name == "E":
            settle = _settle_step(trace.error, threshold)
            print(f"E: settles below {threshold:.6g} from step {settle} on")
    return 0


def cmd_table2(args) -> int:
    reports = table2_report(args.h, _omega_select(args))
    failures = 0
    for report in reports:
        coeffs, root, suitable, hazard = TABLE2_EXPECTED[report.label]
        ok = (
            report.polynomial.coefficients == coeffs
            and len(report.roots) == 1
            and abs(report.roots[0] - root) <= 1e-12
            and report.suitable == suitable
            and report.hazard == hazard
        )
        failures += not ok
        print(f"{report.label}: {report.classification.value:<10} {'PASS' if ok else 'FAIL'}")
    path = _output(args, "table2.csv")
    write_report_csv(reports, path)
    print(f"report written to {path}")
    print(f"table2: {6 - failures}/6 PASS")
    return 0 if failures == 0 else 2


def cmd_table3(args) -> int:
    # each metric skips the init and two steps, and needs one step after them
    longest = max(TABLE3_STEPS_US)
    if math.isfinite(args.t_end) and _step_count(args.t_end, longest * 1e-6) < 3:
        raise ValueError(
            f"--t-end {args.t_end!r} is too short: at a step of {longest} us a run needs "
            f"--t-end >= {3 * longest * 1e-6:g} (3 steps)"
        )
    names = tuple(TABLE3_REFERENCE)
    # the four members at one step share its grid, so they run together
    metrics = {}
    for us in TABLE3_STEPS_US:
        for name, trace in zip(names, _paper_runs(names, us * 1e-6, args)):
            metrics[name, us] = relative_error_metric(trace)
    lines = ["integrator,step_us,reference,computed,status"]
    failures = 0
    for name in names:
        for us, ref in zip(TABLE3_STEPS_US, TABLE3_REFERENCE[name]):
            metric = metrics[name, us]
            if ref == 0.0:
                ok = metric < TABLE3_ZERO_TOL
            else:
                ok = abs(metric - ref) / ref <= TABLE3_REL_TOL
            failures += not ok
            status = "PASS" if ok else "FAIL"
            lines.append(f"{name},{us},{ref:.4f},{metric:.17g},{status}")
            print(f"{name} @ {us:>4} us: computed {metric:>10.4f}  reference {ref:.4f}  {status}")
    path = _output(args, "table3.csv")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"report written to {path}")
    print(f"table3: {24 - failures}/24 PASS")
    return 0 if failures == 0 else 2


# every flag's argparse settings, declared once; each command lists the flags it takes
FLAGS = {
    "--name": dict(help="catalog member name"),
    "--file": dict(help="tableau JSON file"),
    "--h": dict(type=float, default=1e-3, help="step size in seconds"),
    "--omega-select": dict(type=float, default=None, help="tuning frequency for A/B/E (rad/s)"),
    "--omega-syn": dict(type=float, default=OMEGA_SYN),
    "--t-end": dict(type=float),
    "--init": dict(type=float),
    "--out": dict(default=".", help="output directory"),
    "--format": dict(choices=("text", "csv"), default="text"),
    "--constraints": dict(required=True, help="ConstraintSet JSON file"),
    "--least-squares": dict(action="store_true"),
    "--from": dict(dest="omega_from", type=float, required=True),
    "--to": dict(dest="omega_to", type=float, required=True),
    "--points": dict(type=int, default=121),
    "--log": dict(action="store_true"),
    "--signal": dict(choices=("cosine", "constant"), default="cosine"),
    "--amplitude": dict(type=float, default=1.0),
    "--engine": dict(choices=("direct", "state_space"), default="direct"),
}
SOURCE = ("--name", "--file", "--h", "--omega-select", "--omega-syn")
RUN = ("--t-end", "--init", "--out")

# command: (handler, help line, flags in order, defaults that differ from those in FLAGS)
COMMANDS = {
    "analyze": (cmd_analyze, "classify a tableau's differentiator suitability",
                SOURCE + ("--format",), {}),
    "solve": (cmd_solve, "synthesize coefficients from a constraint file",
              ("--constraints", "--least-squares", "--out"), {}),
    "sweep": (cmd_sweep, "|R(j*omega)| over a frequency grid",
              SOURCE + ("--from", "--to", "--points", "--log", "--out"), {}),
    "simulate": (cmd_simulate, "run a tableau on a test signal",
                 SOURCE + RUN + ("--signal", "--amplitude", "--engine"),
                 dict(t_end=0.1, init=0.0)),
    "fig1": (cmd_fig1, "trapezoidal-rule oscillation run",
             ("--h", "--omega-syn") + RUN, dict(t_end=0.02, init=300.0)),
    "fig2": (cmd_fig2, "single-step startup schemes ahead of TR",
             ("--h", "--omega-syn") + RUN, dict(t_end=0.02, init=300.0)),
    "fig3": (cmd_fig3, "bias versus rapid error elimination",
             ("--h", "--omega-syn") + RUN, dict(h=2e-3, t_end=0.12, init=0.0)),
    "table2": (cmd_table2, "suitability screen against stored expectations",
               ("--h", "--omega-select", "--omega-syn", "--out"), {}),
    "table3": (cmd_table3, "error metric grid against stored references",
               ("--omega-syn",) + RUN, dict(t_end=1.0, init=0.0)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="obreshkov",
        description="suitability checks, coefficient synthesis, frequency sweeps, "
        "and the stored-reference reproduction runs",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (func, help_line, flags, defaults) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func, **defaults)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser: built by the first call, then reused (parsing does not change it)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
