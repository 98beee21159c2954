"""The step size enters only through omega*h and the scale factors h**i.

Doubling h and halving every omega are exact binary scalings. Whatever is built
from omega*h and the scale-free weights c^_ij = c_ij / h**i must then come out
bit for bit the same, and a run's k-th derivative samples must scale by exactly
2**-k. A change that lets h in anywhere else fails these tests, or
tests/test_solver.py's test_synthesis_is_scale_free for the solver.
"""
from __future__ import annotations

import numpy as np
import pytest

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
