"""Time-domain evidence for the suitability verdicts.

With Constant(0.0) every forcing term is 0, so a run from a nonzero init is
the homogeneous response: e_n = computed_n evolves under the feedback roots
alone. Each case builds a tableau from chosen roots, checks that the screen
names the expected class, and checks that class's signature over about
2,000 steps on both engines. Repeated roots and close pairs on the unit
circle are left out: the screen does not yet get them right.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from obreshkov import Constant, ObreshkovTableau, classify_tableau, run

H = 2.0**-10  # a power of 2, so c_k = H * poly scales back to poly exactly
STEPS = 2000
ENGINES = ("direct", "state_space")


def tableau_from_roots(roots) -> ObreshkovTableau:
    """k = 1 tableau whose feedback polynomial is prod (z - r) over roots."""
    m = len(roots)
    poly = np.real(np.poly(roots))
    return ObreshkovTableau(
        k=1, m=m, h=H, c0=(1.0,) + (0.0,) * (m - 1), c=(tuple(float(v) * H for v in poly),)
    )


def homogeneous_error(roots, engine):
    """Status and e_0 ... e_N of a run from a generic init (the m init samples dropped)."""
    t = tableau_from_roots(roots)
    init = (1.0, -0.37, 0.61)[: t.m]
    trace = run(t, Constant(0.0), STEPS * H, init, engine=engine)
    assert np.array_equal(trace.error, trace.computed)
    return trace.meta["status"], trace.error[t.m :]


def verdict(roots) -> str:
    return classify_tableau(tableau_from_roots(roots)).classification.name


PAIR_09 = [0.9 * cmath.exp(2j), 0.9 * cmath.exp(-2j)]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("roots", [[0j], [0j, 0j], [0j, 0j, 0j]], ids=["m1", "m2", "m3"])
def test_ideal_error_is_exactly_zero_from_step_m(roots, engine):
    assert verdict(roots) == "IDEAL"
    status, e = homogeneous_error(roots, engine)
    assert status == "OK" and len(e) == STEPS
    assert not np.any(e)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "roots",
    [[0.9], [-0.8], [0.9, -0.5], PAIR_09, [0j, 0.8], [0.5, *PAIR_09]],
    ids=["0.9", "-0.8", "0.9,-0.5", "pair", "0,0.8", "0.5,pair"],
)
def test_asymptotic_error_decays_like_the_largest_root(roots, engine):
    assert verdict(roots) == "ASYMPTOTIC"
    status, e = homogeneous_error(roots, engine)
    assert status == "OK"
    rho = max(abs(r) for r in roots)
    n = np.arange(len(e))
    # simple roots: |e_n| <= C rho^n, C set by the init and the roots' spacing
    bound = 100.0 * (n + 1.0) ** (len(roots) - 1) * rho**n
    assert np.all(np.abs(e) <= bound)
    assert np.any(e[1:])  # not IDEAL: the error takes more than m steps to die
    assert abs(e[-1]) < 1e-80


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("inner", [0.5, -0.7, 0.0])
def test_biased_error_tends_to_a_nonzero_constant(inner, engine):
    roots = [1.0, inner]
    assert verdict(roots) == "BIASED"
    status, e = homogeneous_error(roots, engine)
    assert status == "OK"
    # e_n - inner * e_(n-1) is the same at every step; its share on the root 1 is the limit
    limit = (1.0 - inner * -0.37) / (1.0 - inner)
    assert limit != 0.0
    assert np.allclose(e[-100:], limit, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("inner", [0.5, -0.7, 0.0])
def test_oscillatory_error_alternates_without_decaying(inner, engine):
    roots = [-1.0, inner]
    assert verdict(roots) == "OSCILLATORY"
    status, e = homogeneous_error(roots, engine)
    assert status == "OK"
    scale = float(np.max(np.abs(e)))
    assert np.all(np.abs(e[-100:] + e[-101:-1]) <= 1e-12 * scale)
    assert np.all(np.abs(e[-100:]) >= 0.1 * scale)


@pytest.mark.parametrize("engine", ENGINES)
def test_persistent_error_on_the_circle_stays_bounded_and_periodic(engine):
    # e^(+-i pi/3) are sixth roots of unity: the error repeats every 6 steps
    roots = [cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)]
    assert verdict(roots) == "PERSISTENT_BOUNDED"
    status, e = homogeneous_error(roots, engine)
    assert status == "OK"
    first = float(np.max(np.abs(e[:6])))
    assert float(np.max(np.abs(e))) <= 2.0 * first
    assert np.allclose(e[-6:], e[-6 - 6 * 300 : -6 * 300], rtol=1e-9, atol=1e-9 * first)
    assert float(np.max(np.abs(e[-6:]))) >= 0.5 * first


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "roots", [[1.25, 0.5], [-1.25, 0.3], [1.1]], ids=["1.25,0.5", "-1.25,0.3", "1.1"]
)
def test_divergent_error_grows_like_the_outer_root(roots, engine):
    assert verdict(roots) == "DIVERGENT"
    status, e = homogeneous_error(roots, engine)
    assert status == "OK"
    outer = roots[0]
    assert np.allclose(e[-100:] / e[-101:-1], outer, rtol=1e-12, atol=0.0)
    assert abs(e[-1]) > 1e50


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("roots", [[-1.5], [1.5, 0.5]], ids=["-1.5", "1.5,0.5"])
def test_divergent_error_leaves_the_float_range(roots, engine):
    assert verdict(roots) == "DIVERGENT"
    status, e = homogeneous_error(roots, engine)
    # 1.5^1750 is past the float range: the run stops at the first step outside it
    assert status == "DIVERGED"
    assert 1700 < len(e) < STEPS
    assert np.all(np.isfinite(e)) and abs(e[-1]) > 1e300
