from __future__ import annotations

import ast
import inspect
import json
import re
from pathlib import Path

import pytest

import obreshkov
from obreshkov import simulator, solver, spectrum, suitability, tableau

LIBRARY_MODULES = (tableau, suitability, spectrum, solver, simulator)


def test_package_exports_each_module_list_once_in_module_order():
    names = [name for module in LIBRARY_MODULES for name in module.__all__]
    assert obreshkov.__all__ == names
    assert len(set(names)) == len(names)
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            obj = vars(module)[name]
            assert getattr(obreshkov, name) is obj, name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def _uses(tree: ast.Module, name: str) -> list[str]:
    """The qualified name of the scope of each definition, import or other reference
    of name; a definition reads as "def <qualified name>"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if child.name == name:
                    found.append(f"def {inner}")
                visit(child, inner)
                continue
            if (
                (isinstance(child, ast.Name) and child.id == name)
                or (isinstance(child, ast.Attribute) and child.attr == name)
                or (isinstance(child, ast.alias) and child.name == name)
            ):
                found.append(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def test_each_input_check_runs_only_where_its_type_is_built():
    # a tableau and a synthesis request check themselves as they are built,
    # so no consumer checks them again, and no require_ wrapper re-checks a tableau
    # past the public require_valid (consistency and admissibility)
    checks = ("_structural_violations", "_check_request")
    uses = {name: [] for name in checks}
    requires = []
    for path in sorted(Path(obreshkov.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in checks:
            uses[name] += [f"{path.stem}: {site}" for site in _uses(tree, name)]
        requires += [
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("require_")
        ]
    assert uses == {
        "_structural_violations": [
            "tableau: ObreshkovTableau.__post_init__",
            "tableau: def _structural_violations",
        ],
        "_check_request": ["solver: ConstraintSet.__post_init__", "solver: def _check_request"],
    }
    assert requires == ["tableau.require_valid"]


def test_the_slot_layout_is_said_once_in_tableau():
    # order 0 has steps 1..m and each derivative 0..m: every reader of the layout
    # takes its steps from tableau._steps, and no second flattening of the values is left
    names = ("_steps", "_slot_values")
    uses = {name: [] for name in names}
    for path in sorted(Path(obreshkov.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in names:
            uses[name] += [f"{path.stem}: {site}" for site in _uses(tree, name)]
    assert uses == {
        "_steps": [
            "solver: ",  # the import
            "solver: _check_request",
            "solver: solve_coefficients",
            "spectrum: ",
            "spectrum: _taylor_row",
            "tableau: ObreshkovTableau.coeff",
            "tableau: def _steps",
            "tableau: _slots",
        ],
        "_slot_values": [],
    }


def test_every_ci_smoke_run_names_a_workload_a_seed_and_a_trace_flag():
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    names = {workload["name"] for workload in benchmark["workloads"]}
    jobs = [job for spec in workflow["jobs"].values() for job in spec["strategy"]["matrix"]["include"]]
    assert jobs
    for job in jobs:
        assert job.get("smoke"), job  # the smoke step runs each entry of this list
        for entry in job["smoke"]:
            match = re.fullmatch(r"(\S+) (\d+) ([01])", entry)
            assert match and match[1] in names, (job["python-version"], entry)
