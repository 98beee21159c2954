"""When numpy runs: only on first use, in a fresh process.

pytest has already imported numpy, so every check runs in a child process.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
# numpy 2 runs numpy._core on import, numpy 1 numpy.core
NUMPY_RAN = "any(name in sys.modules for name in ('numpy._core', 'numpy.core'))"
LIBRARY_MODULES = ("tableau", "suitability", "spectrum", "solver", "simulator")


def child(code: str) -> str:
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not rest else SRC + os.pathsep + rest
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "name, loads_numpy",
    [(n, False) for n in ("BE", "TR", "A", "B", "C", "D", "F")] + [("BDF2", True), ("E", False)],
)
def test_analyze_runs_numpy_only_when_it_needs_arrays(name, loads_numpy):
    # m = 1 members screen a closed-form root, and A, B and E are closed forms
    # in omega*h; BDF2 needs eigvals
    out = child(
        "import contextlib, io, sys\n"
        "from obreshkov import cli\n"
        f"print({NUMPY_RAN})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main(['analyze', '--name', {name!r}])\n"
        f"print({NUMPY_RAN})\n"
    )
    assert out.split() == ["False", str(loads_numpy)]


def test_table2_runs_no_numpy(tmp_path):
    # Table 2 screens m = 1 members from closed forms and writes a short CSV
    out = child(
        "import contextlib, io, sys\n"
        "from obreshkov import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['table2', '--out', {str(tmp_path)!r}])\n"
        f"print(code, {NUMPY_RAN})\n"
    )
    assert out.split() == ["0", "False"]
    assert (tmp_path / "table2.csv").is_file()


def test_cli_import_registers_every_library_module():
    # the benchmark looks the modules up in sys.modules after importing the CLI
    names = [f"obreshkov.{m}" for m in LIBRARY_MODULES]
    out = child(f"import sys, obreshkov.cli\nprint([n in sys.modules for n in {names!r}])")
    assert out == str([True] * len(names))


def test_numpy_imported_first_is_used_as_is():
    out = child(
        "import numpy, obreshkov.simulator, obreshkov.solver\n"
        "print(obreshkov.simulator.np is numpy, obreshkov.solver.np is numpy)"
    )
    assert out == "True True"


def test_lazy_numpy_is_numpy_once_used():
    out = child(
        "import sys, obreshkov\n"
        "from obreshkov import simulator\n"
        "simulator.np.zeros(1)\n"
        "import numpy\n"
        "print(simulator.np is numpy, type(numpy) is type(sys))"
    )
    assert out == "True True"


def test_missing_numpy_raises_like_import_numpy():
    # hide every installed package, so numpy cannot be found
    out = child(
        "import sys\n"
        "sys.path = [p for p in sys.path if 'packages' not in p]\n"
        "def error(stmt):\n"
        "    try:\n"
        "        exec(stmt, {})\n"
        "    except ModuleNotFoundError as exc:\n"
        "        return (str(exc), exc.name)\n"
        "print(error('import numpy') == error('import obreshkov') != None)"
    )
    assert out == "True"
