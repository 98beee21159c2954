"""Command-line front end: suitability checks, synthesis, sweeps, and the
reproduction experiments behind the reference tables and figures.

Exit codes: 0 success (or suitable verdict), 1 input error, 2 unsuitable
verdict or reference mismatch, 3 synthesis failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from ._files import atomic_write_text
from ._numpy import np
from .simulator import (
    Constant,
    Cosine,
    _settle_step,
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
    _is_int,
    _number,
    _numbers,
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


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not a JSON constraint file: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("constraint file must hold a JSON object")
    try:
        k, m, h = data["k"], data["m"], data["h"]
    except KeyError as exc:
        raise ValueError(f"malformed constraint file: {exc}") from exc
    multiplicity = data.get("origin_multiplicity", 1)
    for what, v in (("k", k), ("m", m), ("origin_multiplicity", multiplicity)):
        if not _is_int(v):
            raise ValueError(f"{what} must be an integer, got {v!r}")
    entries = data.get("fixed", [])
    if not isinstance(entries, list):
        raise ValueError(f"fixed must be a list of [i, j, value] entries, got {entries!r}")
    fixed = []
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and all(map(_is_int, entry[:2]))):
            raise ValueError(f"fixed entry must be [int, int, number], got {entry!r}")
        fixed.append(((entry[0], entry[1]), _number(entry[2], f"fixed value {entry[:2]}")))
    return ConstraintSet(
        k=k,
        m=m,
        h=_number(h, "h"),
        fixed=fixed,
        origin_multiplicity=multiplicity,
        frequencies=_numbers(data.get("frequencies", []), "frequencies"),
    )


def cmd_solve(args) -> int:
    cs = _constraint_set_from_file(args.constraints)
    t = solve_coefficients(cs, least_squares=args.least_squares)
    out = _ensure_out(args)
    path = os.path.join(out, "tableau.json")
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
    if not isinstance(args.points, int) or args.points < 2:
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
    out = _ensure_out(args)
    path = os.path.join(out, "sweep.csv")
    write_sweep_csv(rows, path)
    print(f"sweep written to {path} ({len(rows)} points)")
    return 0


def cmd_simulate(args) -> int:
    t = _load_tableau(args)
    if args.signal == "cosine":
        sig = Cosine(args.omega_syn, args.amplitude)
    else:
        sig = Constant(args.amplitude)
    init = tuple(args.init for _ in range(t.m))
    trace = run(t, sig, args.t_end, init, engine=args.engine)
    out = _ensure_out(args)
    path = os.path.join(out, "trace.csv")
    write_trace_csv(trace, path)
    print(f"trace written to {path} ({len(trace.grid)} samples, {trace.meta['status']})")
    try:
        print(f"relative error metric: {relative_error_metric(trace):.6f}%")
    except ValueError as exc:
        print(f"relative error metric: undefined ({exc})")
    return 0


def cmd_fig1(args) -> int:
    t = make_catalog("TR", args.h)
    trace = run(t, Cosine(args.omega_syn, 1.0), args.t_end, (args.init,))
    out = _ensure_out(args)
    path = os.path.join(out, "fig1.csv")
    write_trace_csv(trace, path)
    amp = oscillation_amplitude(trace, FIG_WINDOW)
    err = trace.error[1:]
    signs = np.sign(err)
    alternating = float(np.mean(signs[1:] * signs[:-1] < 0))
    print(f"trace written to {path}")
    print(f"oscillation amplitude over [{FIG_WINDOW[0]:g}, {FIG_WINDOW[1]:g}] s: {amp:.4f}")
    print(f"sign alternation share: {100.0 * alternating:.2f}%")
    return 0


def cmd_fig2(args) -> int:
    sig = Cosine(args.omega_syn, 1.0)
    be_half = make_catalog("BE", args.h / 2.0)
    tr = make_catalog("TR", args.h)
    out = _ensure_out(args)
    for n_half in (2, 4):
        stages = [(be_half, args.h / 2.0, n_half), (tr, args.h, None)]
        trace = run_composite(stages, sig, args.t_end, args.init)
        path = os.path.join(out, f"fig2_scheme{n_half}.csv")
        write_trace_csv(trace, path)
        amp = oscillation_amplitude(trace, FIG_WINDOW)
        early = oscillation_amplitude(trace, FIG2_EARLY_WINDOW)
        late = oscillation_amplitude(trace, FIG2_LATE_WINDOW)
        ratio = f"{early / late:.4f}" if late else "undefined (no oscillation in the late window)"
        print(f"trace written to {path}")
        print(
            f"scheme {n_half} half-steps: amplitude {amp:.4f} over "
            f"[{FIG_WINDOW[0]:g}, {FIG_WINDOW[1]:g}] s, early/late window ratio {ratio}"
        )
    return 0


def cmd_fig3(args) -> int:
    sig = Cosine(args.omega_syn, 1.0)
    out = _ensure_out(args)
    threshold = SETTLE_FACTOR * args.omega_syn**2
    for name in ("A", "C", "E"):
        omega = args.omega_syn if name in FREQUENCY_TUNED else None
        t = make_catalog(name, args.h, omega)
        trace = run(t, sig, args.t_end, (args.init,))
        path = os.path.join(out, f"fig3_{name}.csv")
        write_trace_csv(trace, path)
        bias = float(np.mean(trace.error[-10:]))
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
    out = _ensure_out(args)
    path = os.path.join(out, "table2.csv")
    write_report_csv(reports, path)
    print(f"report written to {path}")
    print(f"table2: {6 - failures}/6 PASS")
    return 0 if failures == 0 else 2


def cmd_table3(args) -> int:
    lines = ["integrator,step_us,reference,computed,status"]
    failures = 0
    for name in ("B", "D", "E", "F"):
        for us, ref in zip(TABLE3_STEPS_US, TABLE3_REFERENCE[name]):
            h = us * 1e-6
            omega = args.omega_syn if name in FREQUENCY_TUNED else None
            t = make_catalog(name, h, omega)
            trace = run(t, Cosine(args.omega_syn, 1.0), args.t_end, (args.init,))
            metric = relative_error_metric(trace)
            if ref == 0.0:
                ok = metric < TABLE3_ZERO_TOL
            else:
                ok = abs(metric - ref) / ref <= TABLE3_REL_TOL
            failures += not ok
            status = "PASS" if ok else "FAIL"
            lines.append(f"{name},{us},{ref:.4f},{metric:.17g},{status}")
            print(f"{name} @ {us:>4} us: computed {metric:>10.4f}  reference {ref:.4f}  {status}")
    out = _ensure_out(args)
    path = os.path.join(out, "table3.csv")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"report written to {path}")
    print(f"table3: {24 - failures}/24 PASS")
    return 0 if failures == 0 else 2


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", help="catalog member name")
    p.add_argument("--file", help="tableau JSON file")
    p.add_argument("--h", type=float, default=1e-3, help="step size in seconds")
    p.add_argument("--omega-select", type=float, default=None,
                   help="tuning frequency for A/B/E (rad/s)")


def _add_common_flags(p: argparse.ArgumentParser, t_end: float, init: float) -> None:
    p.add_argument("--omega-syn", type=float, default=OMEGA_SYN)
    p.add_argument("--t-end", type=float, default=t_end)
    p.add_argument("--init", type=float, default=init)
    p.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="obreshkov",
        description="suitability checks, coefficient synthesis, frequency sweeps, "
        "and the stored-reference reproduction runs",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="classify a tableau's differentiator suitability")
    _add_source_flags(p)
    p.add_argument("--omega-syn", type=float, default=OMEGA_SYN)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="synthesize coefficients from a constraint file")
    p.add_argument("--constraints", required=True, help="ConstraintSet JSON file")
    p.add_argument("--least-squares", action="store_true")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="|R(j*omega)| over a frequency grid")
    _add_source_flags(p)
    p.add_argument("--omega-syn", type=float, default=OMEGA_SYN)
    p.add_argument("--from", dest="omega_from", type=float, required=True)
    p.add_argument("--to", dest="omega_to", type=float, required=True)
    p.add_argument("--points", type=int, default=121)
    p.add_argument("--log", action="store_true")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="run a tableau on a test signal")
    _add_source_flags(p)
    _add_common_flags(p, t_end=0.1, init=0.0)
    p.add_argument("--signal", choices=("cosine", "constant"), default="cosine")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--engine", choices=("direct", "state_space"), default="direct")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fig1", help="trapezoidal-rule oscillation run")
    p.add_argument("--h", type=float, default=1e-3)
    _add_common_flags(p, t_end=0.02, init=300.0)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2", help="single-step startup schemes ahead of TR")
    p.add_argument("--h", type=float, default=1e-3)
    _add_common_flags(p, t_end=0.02, init=300.0)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", help="bias versus rapid error elimination")
    p.add_argument("--h", type=float, default=2e-3)
    _add_common_flags(p, t_end=0.12, init=0.0)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("table2", help="suitability screen against stored expectations")
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--omega-select", type=float, default=None)
    p.add_argument("--omega-syn", type=float, default=OMEGA_SYN)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("table3", help="error metric grid against stored references")
    _add_common_flags(p, t_end=1.0, init=0.0)
    p.set_defaults(func=cmd_table3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
