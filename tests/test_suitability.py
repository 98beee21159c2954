from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from obreshkov import (
    CATALOG_NAMES,
    FREQUENCY_TUNED,
    OMEGA_SYN,
    CharacteristicPolynomial,
    Classification,
    ObreshkovTableau,
    characteristic_polynomial,
    classify,
    classify_tableau,
    make_catalog,
    polynomial_roots,
    state_transition_matrix,
    table2_report,
)
from obreshkov.suitability import format_polynomial, report_csv, report_text

CATALOG_CLASSIFICATIONS = {
    "BE": Classification.IDEAL,
    "BDF2": Classification.IDEAL,
    "TR": Classification.OSCILLATORY,
    "A": Classification.BIASED,
    "B": Classification.IDEAL,
    "C": Classification.BIASED,
    "D": Classification.IDEAL,
    "E": Classification.IDEAL,
    "F": Classification.IDEAL,
}


def catalog(name: str, h: float = 1e-3, omega: float = OMEGA_SYN) -> ObreshkovTableau:
    return make_catalog(name, h, omega_select=omega if name in FREQUENCY_TUNED else None)


def test_characteristic_polynomial_goldens():
    assert characteristic_polynomial(make_catalog("TR", 1e-3)).coefficients == (1.0, 1.0)
    assert characteristic_polynomial(make_catalog("BE", 1e-3)).coefficients == (1.0, 0.0)
    assert characteristic_polynomial(make_catalog("BDF2", 1e-3)).coefficients == (1.0, 0.0, 0.0)
    assert characteristic_polynomial(catalog("A")).coefficients == (1.0, -1.0)
    assert characteristic_polynomial(catalog("C")).coefficients == (1.0, -1.0)
    for name in ("B", "D", "E", "F"):
        assert characteristic_polynomial(catalog(name)).coefficients == (1.0, 0.0)


def test_characteristic_polynomial_rejects_invalid():
    with pytest.raises(ValueError):
        characteristic_polynomial(ObreshkovTableau(k=1, m=1, h=1e-3, c0=(1.0,), c=((0.0, 1e-3),)))


def test_polynomial_roots_goldens():
    assert polynomial_roots(CharacteristicPolynomial((1.0, 1.0))) == (-1.0 + 0.0j,)
    assert polynomial_roots(CharacteristicPolynomial((1.0, 0.0, 0.0))) == (0.0j, 0.0j)
    # defective double root: companion eigensolve is sqrt(eps)-accurate there,
    # but the residual bound still holds
    p = CharacteristicPolynomial((1.0, -1.0, 0.25))
    roots = polynomial_roots(p)
    assert len(roots) == 2
    for r in roots:
        assert abs(r - 0.5) <= 1e-7
        assert abs(p(r)) <= 1e-9


def test_degree_one_root_is_the_exact_negated_coefficient():
    # eigvals balances a 1x1 matrix at extreme magnitudes and can move the
    # entry by an ulp (1e-300 comes back as 9.999999999999999e-301)
    for p1 in (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.5, -1.0):
        (root,) = polynomial_roots(CharacteristicPolynomial((1.0, p1)))
        assert root == complex(-p1)
        assert math.copysign(1.0, root.real) == math.copysign(1.0, -p1)
        assert math.copysign(1.0, root.imag) == 1.0
    for p1 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            polynomial_roots(CharacteristicPolynomial((1.0, p1)))


def test_polynomial_roots_degree_zero_and_non_monic():
    assert polynomial_roots(CharacteristicPolynomial((1.0,))) == ()
    with pytest.raises(ValueError):
        polynomial_roots(CharacteristicPolynomial((2.0, 1.0)))


def test_root_residual_bound_on_catalog():
    for name in CATALOG_NAMES:
        p = characteristic_polynomial(catalog(name))
        bound = 1e-9 * max(1.0, max(abs(c) for c in p.coefficients))
        for r in polynomial_roots(p):
            assert abs(p(r)) <= bound


def test_classify_single_root_cases():
    assert classify([-1.0]) is Classification.OSCILLATORY
    assert classify([1.0]) is Classification.BIASED
    assert classify([0.0]) is Classification.IDEAL
    assert classify([0.5, 0.5]) is Classification.ASYMPTOTIC
    assert classify([1.5]) is Classification.DIVERGENT
    assert classify([1j]) is Classification.PERSISTENT_BOUNDED
    assert classify([cmath.exp(2.0j)]) is Classification.PERSISTENT_BOUNDED


def test_classify_precedence():
    assert classify([1.0, -1.0]) is Classification.BIASED
    assert classify([1.5, 1.0]) is Classification.DIVERGENT
    assert classify([-1.0, 0.5]) is Classification.OSCILLATORY
    assert classify([1j, -1.0]) is Classification.OSCILLATORY
    assert classify([0.0, 0.5]) is Classification.ASYMPTOTIC
    assert classify([0.0, 0.0, 0.0]) is Classification.IDEAL


def test_classify_tolerance_edges():
    # within eps of +1 counts as biased, not divergent
    assert classify([1.0 + 5e-10]) is Classification.BIASED
    assert classify([1.0 + 2e-9]) is Classification.DIVERGENT
    assert classify([5e-10]) is Classification.IDEAL
    # widened eps flows through the whole precedence chain
    assert classify([0.5], eps_root=0.6) is Classification.BIASED
    assert classify([0.4], eps_root=0.45) is Classification.IDEAL


def test_classify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classify([0.0], eps_root=0.0)
    with pytest.raises(ValueError):
        classify([complex(math.nan, 0.0)])


def test_classify_tableau_catalog():
    for name, expected in CATALOG_CLASSIFICATIONS.items():
        report = classify_tableau(catalog(name))
        assert report.classification is expected, name
        assert report.suitable == (expected in (Classification.IDEAL, Classification.ASYMPTOTIC))
        assert report.label == name
        assert len(report.roots) == catalog(name).m
        assert len(report.evidence) == len(report.roots)


def test_hazard_strings():
    assert classify_tableau(catalog("A")).hazard == "Bias"
    assert classify_tableau(catalog("C")).hazard == "Bias"
    assert classify_tableau(make_catalog("TR", 1e-3)).hazard == "Numerical oscillation"
    assert classify_tableau(catalog("D")).hazard == "--"


def test_table2_report_golden():
    reports = table2_report()
    assert tuple(r.label for r in reports) == ("A", "B", "C", "D", "E", "F")
    expected_poly = {
        "A": (1.0, -1.0),
        "B": (1.0, 0.0),
        "C": (1.0, -1.0),
        "D": (1.0, 0.0),
        "E": (1.0, 0.0),
        "F": (1.0, 0.0),
    }
    expected_root = {"A": 1.0, "B": 0.0, "C": 1.0, "D": 0.0, "E": 0.0, "F": 0.0}
    expected_suitable = {"A": False, "B": True, "C": False, "D": True, "E": True, "F": True}
    for r in reports:
        assert r.polynomial.coefficients == expected_poly[r.label]
        assert len(r.roots) == 1
        assert abs(r.roots[0] - expected_root[r.label]) <= 1e-12
        assert r.suitable == expected_suitable[r.label]
    assert [r.hazard for r in reports if not r.suitable] == ["Bias", "Bias"]


def test_state_transition_eigenvalues_match_roots():
    for name in CATALOG_NAMES:
        t = catalog(name)
        eig = sorted(
            (complex(v) for v in np.linalg.eigvals(state_transition_matrix(t))),
            key=lambda z: (z.real, z.imag),
        )
        roots = polynomial_roots(characteristic_polynomial(t))
        assert len(eig) == len(roots)
        for a, b in zip(eig, roots):
            assert abs(a - b) <= 1e-9


def test_ideal_iff_stale_weights_vanish():
    """Headline equivalence over 1000 random tableaus.

    Stale weights are drawn either exactly zero or at least 1e-4 of the
    current weight; ratios strictly between 1e-12 and 1e-4 land in a gray
    zone where an m-th root of the ratio exceeds eps_root and the
    coefficient test and the root test legitimately disagree.
    """
    rng = np.random.default_rng(987654321)
    n_ideal = 0
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        h = float(10.0 ** rng.uniform(-5, 0))
        ck0 = float((1 if rng.random() < 0.5 else -1) * 10.0 ** rng.uniform(-3, 3))
        stale = [
            0.0
            if rng.random() < 0.5
            else float((1 if rng.random() < 0.5 else -1) * 10.0 ** rng.uniform(-4, 2) * abs(ck0))
            for _ in range(m)
        ]
        rows = [tuple(float(rng.normal(0.0, 1.0)) for _ in range(m + 1)) for _ in range(k - 1)]
        rows.append((ck0, *stale))
        c0 = rng.normal(0.0, 1.0, m)
        c0[0] += 1.0 - math.fsum(c0)
        t = ObreshkovTableau(
            k=k, m=m, h=h, c0=tuple(float(v) for v in c0), c=tuple(rows)
        )
        coeff_zero = all(abs(v) <= 1e-12 * abs(ck0) for v in stale)
        is_ideal = classify_tableau(t).classification is Classification.IDEAL
        assert coeff_zero == is_ideal
        n_ideal += is_ideal
    assert 100 < n_ideal < 900


def test_classification_is_h_invariant_for_untuned_members():
    for name in ("BE", "BDF2", "TR", "C", "D", "F"):
        kinds = {classify_tableau(make_catalog(name, h)).classification for h in (1e-6, 1e-3, 1.0)}
        assert len(kinds) == 1


def test_classification_invariant_under_uniform_scaling():
    rng = np.random.default_rng(777)
    bases = [catalog(n) for n in CATALOG_NAMES]
    for _ in range(10):
        k = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        c = tuple(
            tuple(float(rng.normal(0.0, 1.0)) for _ in range(m + 1)) for _ in range(k)
        )
        if c[k - 1][0] == 0.0:
            continue
        bases.append(
            ObreshkovTableau(
                k=k, m=m, h=1e-3,
                c0=tuple(float(rng.normal(0.0, 1.0)) for _ in range(m)), c=c,
            )
        )
    for t in bases:
        reference = classify_tableau(t).classification
        for scale in (1e-8, 3.7, 1e6, -2.5):
            scaled = replace(
                t,
                c0=tuple(scale * v for v in t.c0),
                c=tuple(tuple(scale * v for v in row) for row in t.c),
            )
            assert classify_tableau(scaled).classification is reference


def test_format_polynomial():
    assert format_polynomial(CharacteristicPolynomial((1.0, -1.0))) == "z - 1"
    assert format_polynomial(CharacteristicPolynomial((1.0, 0.0))) == "z"
    assert format_polynomial(CharacteristicPolynomial((1.0, 0.0, 0.25))) == "z^2 + 0.25"


def test_report_rendering():
    reports = table2_report()
    csv_text = report_csv(reports)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "label,polynomial_coefficients,roots,classification,suitable"
    assert len(lines) == 7
    assert any(line.startswith("A,") and line.endswith(",no") for line in lines)
    assert any(line.startswith("D,") and line.endswith(",yes") for line in lines)
    text = report_text(reports)
    assert "Bias" in text
    assert "IDEAL" in text
    # one header plus six members
    assert len(text.strip().split("\n")) == 7


SCREEN_CLASSES = ("IDEAL", "ASYMPTOTIC", "BIASED", "OSCILLATORY", "DIVERGENT")


def screen_tableau(rng, index: int) -> tuple[str, ObreshkovTableau]:
    """A tableau with simple, well separated feedback roots (m zeros for IDEAL)
    that put the recursion in its class, drawn as the bench's screening requests
    are: index picks k, m and the class."""
    k, m = 1 + index % 3, 1 + (index // 3) % 3
    h = float(10.0 ** rng.uniform(-6, -2))
    expected = SCREEN_CLASSES[index % len(SCREEN_CLASSES)]
    if expected == "IDEAL":
        roots = [0j] * m
    else:
        inner = [complex((-1) ** q * (0.25 + 0.6 * (q + 1) / (m + 1))) for q in range(m)]
        inner = [r * float(rng.uniform(0.6, 1.0)) for r in inner]
        edge = {"BIASED": 1.0, "OSCILLATORY": -1.0}.get(expected)
        if expected == "DIVERGENT":
            edge = float(rng.choice((-1.0, 1.0))) * float(rng.uniform(1.2, 2.0))
        roots = inner if edge is None else [complex(edge)] + inner[: m - 1]
    poly = np.real(np.poly(roots))
    ck0 = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1, 1) * h**k)
    rows = [tuple(float(rng.normal(0.0, 1.0)) * h**i for _ in range(m + 1)) for i in range(1, k)]
    rows.append(tuple(float(v * ck0) for v in poly))
    c0 = rng.normal(0.0, 1.0, m)
    c0[0] += 1.0 - math.fsum(c0)
    return expected, ObreshkovTableau(k=k, m=m, h=h, c0=tuple(float(v) for v in c0), c=tuple(rows))


def stiff_roots(t: ObreshkovTableau, x: float) -> np.ndarray:
    """Roots of the tableau applied to u' = lambda*u at x = h*lambda:
    sum_j [delta_j0 - c0_j - sum_i x**i * c_ij / h**i] z**(m - j), with c0_0 = 0."""
    coefficients = np.concatenate([[1.0], -np.asarray(t.c0)])
    for i, row in enumerate(t.c, start=1):
        coefficients -= x**i * (np.asarray(row) / t.h**i)
    return np.roots(coefficients)


def test_verdict_is_the_integrators_stiff_limit():
    """As |x| grows, the integrator's roots tend to the feedback roots: a simple
    root as O(1/|x|), the m-fold root at 0 of an IDEAL rule as O(|x|**(-1/m))."""
    rng = np.random.default_rng(20261019)
    for index in range(90):
        expected, t = screen_tableau(rng, index)
        assert classify_tableau(t).classification.name == expected, index
        feedback = polynomial_roots(characteristic_polynomial(t))
        order = t.m if expected == "IDEAL" else 1
        error = {
            x: [float(np.min(np.abs(stiff_roots(t, x) - r))) for r in feedback]
            for x in (-1e4, -1e6)
        }
        for far, near in zip(error[-1e6], error[-1e4]):
            assert far <= 1.1 * 1e-2 ** (1 / order) * near + 1e-12, (index, far, near)
            assert far < 0.05, (index, far)
