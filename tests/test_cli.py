from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

OMEGA_SYN = 120.0 * math.pi
SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli(*argv, cwd):
    # The child runs in cwd, so a relative PYTHONPATH would not find the
    # package; put this checkout's absolute src path first. A RuntimeWarning
    # fails the child as pyproject's filterwarnings fails an in-process test.
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not rest else SRC + os.pathsep + rest
    return subprocess.run(
        [sys.executable, "-m", "obreshkov", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=env,
    )


def test_analyze_exit_codes(tmp_path):
    r = cli("analyze", "--name", "BDF2", cwd=tmp_path)
    assert r.returncode == 0
    assert "IDEAL" in r.stdout
    assert cli("analyze", "--name", "TR", cwd=tmp_path).returncode == 2
    assert cli("analyze", "--name", "NOPE", cwd=tmp_path).returncode == 1
    assert cli("analyze", cwd=tmp_path).returncode == 1
    assert cli("analyze", "--name", "TR", "--file", "x.json", cwd=tmp_path).returncode == 1
    assert cli("analyze", "--bogus", cwd=tmp_path).returncode == 1


def test_analyze_file_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "k": 1, "m": 1, "h": 1e-3, "c0": [0.9], "c": [[5e-4, 5e-4]],
    }))
    r = cli("analyze", "--file", str(bad), cwd=tmp_path)
    assert r.returncode == 1
    assert "sum" in r.stderr

    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "k": 1, "m": 1, "h": 1e-3, "c0": [1.0], "c": [[1e-3, 0.0]],
    }))
    r = cli("analyze", "--file", str(good), cwd=tmp_path)
    assert r.returncode == 0
    assert "IDEAL" in r.stdout


def test_analyze_csv_format(tmp_path):
    r = cli("analyze", "--name", "D", "--format", "csv", cwd=tmp_path)
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0].startswith("label,")
    assert lines[1].startswith("D,")


def test_table2_passes_and_is_deterministic(tmp_path):
    r = cli("table2", cwd=tmp_path)
    assert r.returncode == 0
    assert "table2: 6/6 PASS" in r.stdout
    first = (tmp_path / "table2.csv").read_bytes()
    assert cli("table2", cwd=tmp_path).returncode == 0
    assert (tmp_path / "table2.csv").read_bytes() == first


def test_table3_passes(tmp_path):
    r = cli("table3", cwd=tmp_path)
    assert r.returncode == 0
    assert "table3: 24/24 PASS" in r.stdout
    body = (tmp_path / "table3.csv").read_text().strip().split("\n")
    assert body[0] == "integrator,step_us,reference,computed,status"
    assert len(body) == 25
    assert all(line.endswith("PASS") for line in body[1:])


@pytest.mark.parametrize("t_end", ["0.003", "0.0119", "-1"])
def test_table3_refuses_a_short_t_end_before_any_row(tmp_path, t_end):
    # at the 4000 us step the metric skips the init and two steps and needs a third
    r = cli("table3", "--t-end", t_end, cwd=tmp_path)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == (
        f"error: --t-end {float(t_end)!r} is too short: at a step of 4000 us a run needs "
        "--t-end >= 0.012 (3 steps)\n"
    )
    assert not (tmp_path / "table3.csv").exists()
    r = cli("table3", "--t-end", "0.012", cwd=tmp_path)
    assert r.returncode == 2
    assert r.stdout.count(" @ ") == 24


def test_sweep_output(tmp_path):
    argv = ("sweep", "--name", "F", "--from", "62.8", "--to", "754.0", "--points", "50")
    r = cli(*argv, cwd=tmp_path)
    assert r.returncode == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    lines = first.decode().strip().split("\n")
    assert lines[0] == "omega_rad_s,abs_relative_error"
    assert len(lines) == 51
    assert cli(*argv, cwd=tmp_path).returncode == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first
    assert cli("sweep", "--name", "F", "--from", "10", "--to", "5", cwd=tmp_path).returncode == 1


@pytest.mark.parametrize(
    "bounds",
    [("--from", "0", "--to", "inf"), ("--from=-inf", "--to", "5"),
     ("--from=-1e308", "--to", "1e308"), ("--from", "1", "--to", "inf", "--log")],
)
def test_sweep_rejects_non_finite_bounds_in_one_line(tmp_path, bounds):
    r = cli("sweep", "--name", "TR", *bounds, cwd=tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error: --from and --to must be finite")
    assert r.stderr.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


def test_solve_recovers_closed_form(tmp_path):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({
        "k": 2, "m": 1, "h": 1e-3,
        "fixed": [[0, 1, 1.0], [1, 1, 0.0], [2, 1, 0.0]],
        "origin_multiplicity": 1,
        "frequencies": [OMEGA_SYN],
    }))
    r = cli("solve", "--constraints", str(req), cwd=tmp_path)
    assert r.returncode == 0
    assert "certification: PASS" in r.stdout
    tab = json.loads((tmp_path / "tableau.json").read_text())
    expected = math.sin(OMEGA_SYN * 1e-3) / OMEGA_SYN
    assert abs(tab["c"][0][0] - expected) <= 1e-12 * abs(expected)


def test_solve_failure_paths(tmp_path):
    overdone = tmp_path / "overdone.json"
    overdone.write_text(json.dumps({
        "k": 2, "m": 1, "h": 1e-3,
        "fixed": [[0, 1, 1.0], [2, 1, 0.0]],
        "origin_multiplicity": 4,
        "frequencies": [OMEGA_SYN],
    }))
    assert cli("solve", "--constraints", str(overdone), cwd=tmp_path).returncode == 3

    r = cli("solve", "--constraints", str(overdone), "--least-squares", cwd=tmp_path)
    assert r.returncode == 0
    assert "certification: FAIL" in r.stdout

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli("solve", "--constraints", str(broken), cwd=tmp_path).returncode == 1

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"m": 1, "h": 1e-3}))
    assert cli("solve", "--constraints", str(incomplete), cwd=tmp_path).returncode == 1

    assert cli("solve", "--constraints", str(tmp_path / "absent.json"), cwd=tmp_path).returncode == 1


CLOSED_FORM_REQUEST = {
    "k": 2, "m": 1, "h": 1e-3,
    "fixed": [[0, 1, 1.0], [1, 1, 0.0], [2, 1, 0.0]],
    "origin_multiplicity": 1,
    "frequencies": [OMEGA_SYN],
}


@pytest.mark.parametrize(
    "change",
    [
        {"k": 2.9},
        {"m": True},
        {"origin_multiplicity": 4.5},
        {"h": "1e-3"},
        {"fixed": [[0, 1, "1"], [1, 1, 0.0], [2, 1, 0.0]]},
        {"fixed": [[0, 1], [1, 1, 0.0], [2, 1, 0.0]]},
        {"fixed": [[0.0, 1, 1.0], [1, 1, 0.0], [2, 1, 0.0]]},
        {"fixed": {"0": 1.0}},
        {"frequencies": ["377"]},
        {"frequencies": OMEGA_SYN},
        # loaded as k = 2, m = 1, multiplicity 4 and certified before
        {"k": 2.9, "m": True, "h": "1e-3", "fixed": [[0, 1, "1"], [2, 1, 0]],
         "origin_multiplicity": 4.5},
    ],
    ids=[
        "float-k", "bool-m", "float-multiplicity", "string-h", "string-fixed-value",
        "short-fixed-entry", "float-fixed-slot", "fixed-object", "string-frequency",
        "frequencies-number", "all-loose",
    ],
)
def test_solve_rejects_coercible_constraint_values(tmp_path, change):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({**CLOSED_FORM_REQUEST, **change}))
    r = cli("solve", "--constraints", str(req), cwd=tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "tableau.json").exists()


def test_solve_reports_underflowing_step_as_input_error(tmp_path):
    # the F-type request's order-2 coefficients scale as h**2, which is below
    # the float range at h = 1e-200
    req = tmp_path / "tiny_step.json"
    req.write_text(json.dumps({
        "k": 2, "m": 1, "h": 1e-200,
        "fixed": [[0, 1, 1.0], [2, 1, 0.0]],
        "origin_multiplicity": 4,
    }))
    r = cli("solve", "--constraints", str(req), cwd=tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error: ")
    assert "underflows" in r.stderr
    assert "Traceback" not in r.stderr


def assert_single_error_line(r, *needles):
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error: ")
    assert r.stderr.count("\n") == 1, r.stderr
    for needle in needles:
        assert needle in r.stderr


def test_analyze_reports_underflowing_step_as_input_error(tmp_path):
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({
        "k": 2, "m": 1, "h": 1e-200, "c0": [1.0], "c": [[1e-200, 0.0], [-1e-305, 0.0]],
    }))
    assert_single_error_line(cli("analyze", "--file", str(tiny), cwd=tmp_path), "underflows")


def test_sweep_reports_overflowing_error_function(tmp_path):
    r = cli("sweep", "--name", "D", "--from", "1", "--to", "1e308", "--points", "5", cwd=tmp_path)
    assert_single_error_line(r, "omega=2.5e+307")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["fig1", "fig2"])
def test_overflowing_oscillation_amplitude_is_an_input_error(tmp_path, command):
    r = cli(command, "--omega-syn", "1e308", cwd=tmp_path)
    assert_single_error_line(r, "oscillation amplitude")
    assert not list(tmp_path.glob("*.csv"))


def test_fig3_reports_overflowing_settle_threshold_as_input_error(tmp_path):
    r = cli("fig3", "--omega-syn", "1e308", cwd=tmp_path)
    assert_single_error_line(r, "--omega-syn", "overflows")
    assert not list(tmp_path.glob("*.csv"))


def test_fig1_summary(tmp_path):
    r = cli("fig1", cwd=tmp_path)
    assert r.returncode == 0
    assert (tmp_path / "fig1.csv").exists()
    m = re.search(r"oscillation amplitude over \[0.01, 0.02\] s: ([0-9.]+)", r.stdout)
    assert m is not None
    assert 270.0 <= float(m.group(1)) <= 330.0


def test_fig2_summary(tmp_path):
    r = cli("fig2", cwd=tmp_path)
    assert r.returncode == 0
    assert (tmp_path / "fig2_scheme2.csv").exists()
    assert (tmp_path / "fig2_scheme4.csv").exists()
    ratios = re.findall(r"window ratio ([0-9.]+)", r.stdout)
    assert len(ratios) == 2
    for ratio in ratios:
        assert 0.9 <= float(ratio) <= 1.1


def test_fig2_without_late_oscillation_reports_undefined_ratio(tmp_path):
    # at omega = 0 the signal is constant and the BE half-steps clear the init error
    r = cli("fig2", "--omega-syn", "0", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("window ratio undefined") == 2
    assert r.stderr == ""


def test_fig3_summary(tmp_path):
    r = cli("fig3", cwd=tmp_path)
    assert r.returncode == 0
    for name in ("A", "C", "E"):
        assert (tmp_path / f"fig3_{name}.csv").exists()
    m = re.search(r"settles below [0-9.e+-]+ from step (\d+) on", r.stdout)
    assert m is not None
    assert int(m.group(1)) <= 2


def test_simulate(tmp_path):
    r = cli("simulate", "--name", "D", "--t-end", "0.05", cwd=tmp_path)
    assert r.returncode == 0
    assert (tmp_path / "trace.csv").exists()
    assert "relative error metric:" in r.stdout

    r = cli("simulate", "--name", "BE", "--signal", "constant", "--t-end", "0.01", cwd=tmp_path)
    assert r.returncode == 0
    assert "undefined" in r.stdout

    r = cli("simulate", "--name", "BDF2", "--engine", "state_space", "--t-end", "0.02", cwd=tmp_path)
    assert r.returncode == 0


def test_help_exits_zero(tmp_path):
    assert cli("--help", cwd=tmp_path).returncode == 0
    assert cli("solve", "--help", cwd=tmp_path).returncode == 0


def test_simulate_reports_uncountable_steps_as_input_error(tmp_path):
    r = cli("simulate", "--name", "BE", "--t-end", "1e308", cwd=tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


def test_solve_reports_factorial_overflow_as_input_error(tmp_path):
    # the Taylor rows divide by n!, which leaves the float range from n = 171
    req = tmp_path / "deep_zero.json"
    req.write_text(json.dumps({
        "k": 2, "m": 1, "h": 1e-3,
        "fixed": [[0, 1, 1.0], [2, 1, 0.0]],
        "origin_multiplicity": 200,
    }))
    r = cli("solve", "--constraints", str(req), cwd=tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 72.8 TiB")])
def test_out_of_memory_is_an_input_error(tmp_path, monkeypatch, capsys, exc):
    from obreshkov import cli as cli_module

    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_module, "run", out_of_memory)
    code = cli_module.main(["simulate", "--name", "TR", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.strip() != "error:"


def test_analyze_names_a_coefficient_past_the_float_range(tmp_path):
    # json reads the 401-digit number as an int that float() cannot convert
    path = tmp_path / "huge.json"
    path.write_text('{"k": 1, "m": 1, "h": 0.001, "c0": [1' + "0" * 400 + '], "c": [[0.001, 0.0]]}')
    r = cli("analyze", "--file", str(path), cwd=tmp_path)
    assert_single_error_line(r, "c0")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [("fig3", "--h", "1e-200"), ("fig2", "--omega-syn", "1e308")])
def test_failed_paper_run_leaves_no_output_directory(tmp_path, argv):
    r = cli(*argv, "--out", "fresh", cwd=tmp_path)
    assert_single_error_line(r)
    assert not (tmp_path / "fresh").exists()


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python reads ints of any length"
)
@pytest.mark.parametrize(
    "argv, document, what",
    [
        (("analyze", "--file"), '{"k": 1, "m": 1, "h": 0.001, "c0": [1%s], "c": [[0.001, 0.0]]}',
         "tableau"),
        (("solve", "--out", "fresh", "--constraints"), '{"k": 2, "m": 1, "h": 1%s}', "constraint"),
    ],
    ids=["analyze", "solve"],
)
def test_integer_too_long_to_read_is_named_by_its_file(tmp_path, monkeypatch, argv, document, what):
    # json refuses an int of more than 4,300 digits at Python's default limit
    monkeypatch.delenv("PYTHONINTMAXSTRDIGITS", raising=False)
    path = tmp_path / "huge.json"
    path.write_text(document % ("0" * 5000))
    r = cli(*argv, str(path), cwd=tmp_path)
    assert_single_error_line(r, f"not a JSON {what} file")
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize(
    "argv, what",
    [(("analyze", "--file"), "tableau"), (("solve", "--out", "fresh", "--constraints"), "constraint")],
    ids=["analyze", "solve"],
)
def test_deeply_nested_json_is_named_by_its_file(tmp_path, argv, what):
    # json's decoder recurses once per level and runs out of stack here
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    r = cli(*argv, str(path), cwd=tmp_path)
    assert_single_error_line(r, f"not a JSON {what} file")
    assert not (tmp_path / "fresh").exists()


def test_analyze_names_an_overflowing_feedback_ratio(tmp_path):
    # c_k1 / c_k0 = 1e300 / 1e-300 is past the float range
    path = tmp_path / "ratio.json"
    path.write_text(json.dumps({"k": 1, "m": 1, "h": 0.001, "c0": [1.0], "c": [[1e-300, 1e300]]}))
    r = cli("analyze", "--file", str(path), cwd=tmp_path)
    assert_single_error_line(r, "feedback polynomial is not finite")


def test_fig3_mean_holds_near_the_float_range(tmp_path):
    # every one of the final ten errors is finite and near 1e308, so their mean is too
    r = cli("fig3", "--init", "1e308", cwd=tmp_path)
    assert r.returncode == 0
    assert r.stderr == ""
    assert "inf" not in r.stdout


def test_solve_refuses_a_pinned_value_past_the_float_range(tmp_path):
    # c^ = 1e308 / 0.001 leaves the float range; refused as input, not as a rank deficiency
    req = tmp_path / "huge_pin.json"
    for multiplicity in (2, 3):
        req.write_text(json.dumps({
            "k": 1, "m": 1, "h": 0.001, "origin_multiplicity": multiplicity, "fixed": [[1, 0, 1e308]],
        }))
        r = cli("solve", "--constraints", str(req), cwd=tmp_path)
        assert_single_error_line(r, "fixed slot (1, 0)", "float range")
    assert not (tmp_path / "tableau.json").exists()


def test_simulate_reports_a_non_finite_exact_sample_as_undefined(tmp_path):
    # omega**2 overflows, so the exact second-order samples are inf
    r = cli("simulate", "--name", "C", "--omega-syn", "1e300", "--t-end", "0.01", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "relative error metric: undefined (metric undefined: " in r.stdout
    assert "nan" not in r.stdout


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("simulate", "--name", "D", "--omega-syn", "nan"), "--omega-syn"),
        (("simulate", "--name", "BE", "--signal", "constant", "--amplitude", "nan"), "--amplitude"),
        (("simulate", "--name", "A", "--amplitude", "inf"), "--amplitude"),
        (("fig1", "--omega-syn", "nan"), "--omega-syn"),
        (("fig2", "--omega-syn", "inf"), "--omega-syn"),
        (("fig3", "--omega-syn=-inf"), "--omega-syn"),
    ],
)
def test_non_finite_signal_flag_is_an_input_error(tmp_path, argv, flag):
    r = cli(*argv, "--out", "fresh", cwd=tmp_path)
    assert_single_error_line(r, f"{flag} must be a finite number")
    assert not (tmp_path / "fresh").exists()


REFUSED_INPUTS = {
    "short_c0.json": {"k": 1, "m": 2, "h": 1e-3, "c0": [1.0], "c": [[1e-3, 0.0, 0.0]]},
    "zero_weight.json": {"k": 1, "m": 1, "h": 1e-3, "c0": [1.0], "c": [[0.0, 1e-3]]},
    "k0.json": {"k": 0, "m": 1, "h": 1e-3},
    "outside_pin.json": {"k": 1, "m": 1, "h": 1e-3, "fixed": [[3, 0, 0.0]]},
    "huge_pin.json": {"k": 1, "m": 1, "h": 1e-3, "fixed": [[1, 0, 1e308]]},
}
SHORT_C0 = "invalid tableau: c0 must have m=2 entries, got 1"
ZERO_WEIGHT = "invalid tableau: current k-th derivative weight is zero; not usable as a differentiator"
UNDERFLOW = "invalid tableau: h**1 underflows at h=1e-320; order-1 coefficients leave the float range"
SWEEP = "--from 1 --to 10"


@pytest.mark.parametrize(
    "command, code, message",
    [
        ("analyze --file short_c0.json", 1, SHORT_C0),
        ("simulate --file short_c0.json", 1, SHORT_C0),
        ("analyze --file zero_weight.json", 1, ZERO_WEIGHT),
        (f"sweep --file zero_weight.json {SWEEP}", 1, ZERO_WEIGHT),
        ("analyze --name BE --h 1e-320", 1, UNDERFLOW),
        (f"sweep --name TR --h 1e-320 {SWEEP}", 1, UNDERFLOW),
        ("fig1 --h 1e-320", 1, UNDERFLOW),
        ("solve --constraints k0.json", 3, "k and m must be positive integers, got 0, 1"),
        ("solve --constraints outside_pin.json", 3, "fixed slot (3, 0) is outside the (k=1, m=1) layout"),
        ("solve --constraints huge_pin.json", 1,
         "fixed slot (1, 0): 1e+308 / h**1 leaves the float range at h=0.001"),
    ],
)
def test_malformed_input_keeps_its_exit_code_and_words(tmp_path, command, code, message):
    # a tableau or request is refused as it is built, in the words of the check behind it
    for name, document in REFUSED_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(document))
    r = cli(*command.split(), cwd=tmp_path)
    assert (r.returncode, r.stderr) == (code, f"error: {message}\n")
