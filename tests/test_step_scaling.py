"""The step size enters only through omega*h and the scale factors h**i.

Doubling h and halving every omega are exact binary scalings. Whatever is built
from omega*h and the scale-free weights c^_ij = c_ij / h**i must then come out
bit for bit the same, and a run's k-th derivative samples must scale by exactly
2**-k. A change that lets h in anywhere else fails these tests, or
tests/test_solver.py's test_synthesis_is_scale_free for the solver.
"""
from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import obreshkov
from obreshkov import (
    CATALOG_NAMES,
    FREQUENCY_TUNED,
    OMEGA_SYN,
    Cosine,
    classify_tableau,
    make_catalog,
    origin_multiplicity,
    proper_init,
    relative_error,
    run,
)
from obreshkov.spectrum import _scaled_values

STEPS = (1e-3, 2.5e-4)
OMEGAS = np.geomspace(1.0, 0.45 / STEPS[0], 9)  # rad/s, scaled with h below


def member(name: str, h: float, omega: float):
    return make_catalog(name, h, omega if name in FREQUENCY_TUNED else None)


def bits(values) -> bytes:
    return np.asarray(values).tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_member_is_scale_free(name):
    for h in STEPS:
        t1, t2 = member(name, h, OMEGA_SYN), member(name, 2 * h, OMEGA_SYN / 2)
        assert bits(_scaled_values(t1)) == bits(_scaled_values(t2))
        assert repr(classify_tableau(t1)) == repr(classify_tableau(t2))
        grid = OMEGAS * (STEPS[0] / h)
        assert bits(relative_error(t1, 1j * grid)) == bits(relative_error(t2, 1j * grid / 2))
        assert origin_multiplicity(t1) == origin_multiplicity(t2)


@pytest.mark.parametrize("engine", ["direct", "state_space"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_run_scales_by_two_to_the_minus_k(name, engine):
    h, steps = STEPS[0], 400
    t1, t2 = member(name, h, OMEGA_SYN), member(name, 2 * h, OMEGA_SYN / 2)
    sig1, sig2 = Cosine(0.7 * OMEGA_SYN), Cosine(0.35 * OMEGA_SYN)
    r1 = run(t1, sig1, steps * h, proper_init(t1, sig1), engine=engine)
    r2 = run(t2, sig2, steps * 2 * h, proper_init(t2, sig2), engine=engine)
    scale = 2.0 ** -t1.k
    assert bits(r2.grid) == bits(2 * r1.grid)
    for got, ref in ((r2.computed, r1.computed), (r2.exact, r1.exact), (r2.error, r1.error)):
        assert bits(got) == bits(scale * ref)
    assert r1.flags == r2.flags


# steps at which libm pow(h, 2) is not exact under h -> 2h while h * h is; the
# literal 1.208e-3 is a different float from 1208 * 1e-6 and scales exactly
ODD_STEPS = (1208 * 1e-6, 4832 * 1e-6, 7579 * 1e-6)


def test_scaled_values_are_scale_free_where_pow_is_not():
    for h in ODD_STEPS:
        for name in CATALOG_NAMES:
            t1, t2 = member(name, h, OMEGA_SYN), member(name, 2 * h, OMEGA_SYN / 2)
            assert bits(_scaled_values(t1)) == bits(_scaled_values(t2)), (name, h)


@pytest.mark.parametrize("engine", ["direct", "state_space"])
def test_run_scales_by_two_to_the_minus_k_where_pow_is_not(engine):
    for h in ODD_STEPS:
        for name in CATALOG_NAMES:
            t1, t2 = member(name, h, OMEGA_SYN), member(name, 2 * h, OMEGA_SYN / 2)
            sig1, sig2 = Cosine(0.7 * OMEGA_SYN), Cosine(0.35 * OMEGA_SYN)
            r1 = run(t1, sig1, 400 * h, proper_init(t1, sig1), engine=engine)
            r2 = run(t2, sig2, 400 * 2 * h, proper_init(t2, sig2), engine=engine)
            scale = 2.0 ** -t1.k
            assert bits(r2.grid) == bits(2 * r1.grid), (name, h)
            for got, ref in ((r2.computed, r1.computed), (r2.exact, r1.exact), (r2.error, r1.error)):
                assert bits(got) == bits(scale * ref), (name, h)
            assert r1.flags == r2.flags, (name, h)


def _step_powers(path: Path) -> list[str]:
    """file:line of each `base ** e` or pow(base, e) with a step (h or x.h) as base,
    outside _powers and _step_underflow."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = {
        id(node)
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name in ("_powers", "_step_underflow")
        for node in ast.walk(f)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = node.left
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("pow", "math.pow") and node.args:
            base = node.args[0]
        else:
            continue
        if (isinstance(base, ast.Name) and base.id == "h") or (
            isinstance(base, ast.Attribute) and base.attr == "h"
        ):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_step_powers_are_formed_only_by_running_products():
    package = Path(obreshkov.__file__).parent
    assert [site for path in sorted(package.glob("*.py")) for site in _step_powers(path)] == []
