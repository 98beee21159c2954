"""The command line's surface, frozen: each command's option strings, the
namespace its minimal argv parses to, its required flags and its choices."""
from __future__ import annotations

import argparse
import math

import pytest

from obreshkov import cli
from obreshkov.cli import build_parser, main

OMEGA_SYN = 120.0 * math.pi
SOURCE = ["--name", "--file", "--h", "--omega-select", "--omega-syn"]
SOURCE_DEFAULTS = {"name": None, "file": None, "h": 1e-3, "omega_select": None, "omega_syn": OMEGA_SYN}
RUN = ["--omega-syn", "--t-end", "--init", "--out"]

# command: (minimal argv after the command, option strings in order, parsed namespace)
SURFACE = {
    "analyze": (
        [],
        SOURCE + ["--format"],
        {**SOURCE_DEFAULTS, "format": "text", "func": "cmd_analyze"},
    ),
    "solve": (
        ["--constraints", "c.json"],
        ["--constraints", "--least-squares", "--out"],
        {"constraints": "c.json", "least_squares": False, "out": ".", "func": "cmd_solve"},
    ),
    "sweep": (
        ["--from", "1", "--to", "2"],
        SOURCE + ["--from", "--to", "--points", "--log", "--out"],
        {**SOURCE_DEFAULTS, "omega_from": 1.0, "omega_to": 2.0, "points": 121, "log": False,
         "out": ".", "func": "cmd_sweep"},
    ),
    "simulate": (
        [],
        SOURCE + ["--t-end", "--init", "--out", "--signal", "--amplitude", "--engine"],
        {**SOURCE_DEFAULTS, "t_end": 0.1, "init": 0.0, "out": ".", "signal": "cosine",
         "amplitude": 1.0, "engine": "direct", "func": "cmd_simulate"},
    ),
    "fig1": (
        [],
        ["--h"] + RUN,
        {"h": 1e-3, "omega_syn": OMEGA_SYN, "t_end": 0.02, "init": 300.0, "out": ".", "func": "cmd_fig1"},
    ),
    "fig2": (
        [],
        ["--h"] + RUN,
        {"h": 1e-3, "omega_syn": OMEGA_SYN, "t_end": 0.02, "init": 300.0, "out": ".", "func": "cmd_fig2"},
    ),
    "fig3": (
        [],
        ["--h"] + RUN,
        {"h": 2e-3, "omega_syn": OMEGA_SYN, "t_end": 0.12, "init": 0.0, "out": ".", "func": "cmd_fig3"},
    ),
    "table2": (
        [],
        ["--h", "--omega-select", "--omega-syn", "--out"],
        {"h": 1e-3, "omega_select": None, "omega_syn": OMEGA_SYN, "out": ".", "func": "cmd_table2"},
    ),
    "table3": (
        [],
        RUN,
        {"omega_syn": OMEGA_SYN, "t_end": 1.0, "init": 0.0, "out": ".", "func": "cmd_table3"},
    ),
}
REQUIRED = {"solve": {"--constraints"}, "sweep": {"--from", "--to"}}
CHOICES = {
    ("analyze", "--format"): ["text", "csv"],
    ("simulate", "--signal"): ["cosine", "constant"],
    ("simulate", "--engine"): ["direct", "state_space"],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_command_is_frozen():
    assert list(_subparsers()) == list(SURFACE)


@pytest.mark.parametrize("command", SURFACE)
def test_command_surface(command):
    minimal, options, namespace = SURFACE[command]
    actions = _subparsers()[command]._actions
    assert [s for a in actions for s in a.option_strings] == ["-h", "--help"] + options
    assert {a.option_strings[-1] for a in actions if a.required} == REQUIRED.get(command, set())
    for a in actions:
        if a.choices is not None:
            assert list(a.choices) == CHOICES[command, a.option_strings[-1]]
    assert sum(a.choices is not None for a in actions) == sum(c == command for c, _ in CHOICES)
    parsed = vars(build_parser().parse_args([command, *minimal]))
    parsed["func"] = parsed["func"].__name__
    assert parsed == {"command": command, **namespace}


@pytest.mark.parametrize("command", SURFACE)
def test_command_help_exits_zero(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: obreshkov {command} ")


def test_main_builds_one_parser_per_process(monkeypatch, tmp_path, capsys):
    built = []

    def counted():
        built.append(True)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert main(["table2", "--out", str(tmp_path)]) == 0
        assert main(["fig1", "--help"]) == 0
        assert main(["table3", "--bogus"]) == 1
        assert main(["table3", "--out", str(tmp_path)]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


# argvs whose values differ from another command's defaults for the same dest
OVERRIDES = [
    ["simulate", "--t-end", "5", "--init", "2", "--h", "0.5"],
    ["fig3", "--h", "0.25", "--t-end", "3"],
    ["fig1", "--init", "-1", "--out", "elsewhere"],
    ["sweep", "--from", "3", "--to", "4", "--log", "--points", "7"],
]


def test_reused_parser_carries_nothing_between_commands():
    argvs = [[command, *SURFACE[command][0]] for command in SURFACE] + OVERRIDES
    cli._parser.cache_clear()
    try:
        shared = cli._parser()
        for argv in argvs + argvs[::-1]:
            assert vars(shared.parse_args(argv)) == vars(build_parser().parse_args(argv)), argv
        assert cli._parser() is shared
    finally:
        cli._parser.cache_clear()
