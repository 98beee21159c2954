"""The frequency-tuned members A, B and E against an exact oracle.

Each member is solved from its defining conditions in exact rational
arithmetic, at the float theta = omega*h that make_catalog forms. sin and cos
are truncated alternating series whose error is below 1e-45, so the oracle is
exact to far below one rounding of a double.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from obreshkov import make_catalog

_TAIL = Fraction(1, 10**45)

# slot (i, j) of a (k = 2, m = 1) tableau: c^_ij = c_ij / h**i weighs sigma**i e^(-sigma j)
# name: (pinned c^, unknowns as combinations of slots, conditions: n for a_n = 0, or
# "Re" and "Im" for the transfer zero R(j theta) = 0)
MEMBERS = {
    # trapezoidal first-derivative weights, an antisymmetric second-derivative pair
    "A": (
        {(0, 1): 1, (1, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)},
        [{(2, 0): 1, (2, 1): -1}],
        ("Re", "Im"),
    ),
    "B": ({(0, 1): 1, (1, 1): 0, (2, 1): 0}, [{(1, 0): 1}, {(2, 0): 1}], (0, "Re", "Im")),
    "E": ({(0, 1): 1, (2, 1): 0}, [{(1, 0): 1}, {(1, 1): 1}, {(2, 0): 1}], (0, 1, "Re", "Im")),
}
THETAS = (2e-6, 1e-4, 1e-2, 0.047, 0.377, 3.0, 6.2)
STEPS = (1e-3, 3e-5)


def _series(x: Fraction, first: int) -> Fraction:
    """sum over n of (-1)**n x**(2n + first) / (2n + first)!: sin(x) for first = 1, cos(x)
    for 0. It stops past the largest term, at the first term below 1e-45, which bounds
    the error of an alternating series with decreasing terms."""
    term, total, n = (x if first else Fraction(1)), Fraction(0), first
    while n <= abs(x) or abs(term) >= _TAIL:
        total += term
        term *= -x * x / ((n + 1) * (n + 2))
        n += 2
    return total


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _row(condition, theta: Fraction) -> tuple[dict, Fraction]:
    """(slot -> coefficient, constant): the condition reads sum c^_s row[s] = constant."""
    slots = [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    if isinstance(condition, int):  # a_n: the coefficient of sigma**n, (-j)**(n-i) / (n-i)!
        n = condition
        row = {(i, j): Fraction((-j) ** (n - i), math.factorial(n - i)) if n >= i else 0 for i, j in slots}
        return row, Fraction(n == 0)
    power = {0: (1, 0), 1: (0, theta), 2: (-theta * theta, 0)}  # (j theta)**i
    shift = {0: (1, 0), 1: (_series(theta, 0), -_series(theta, 1))}  # e^(-j theta j)
    part = 0 if condition == "Re" else 1
    row = {(i, j): _mul(power[i], shift[j])[part] for i, j in slots}
    return row, Fraction(condition == "Re")


def exact_member(name: str, theta: Fraction) -> dict:
    """c^ of the member at theta, slot by slot, from its conditions by exact elimination."""
    pinned, unknowns, conditions = MEMBERS[name]
    system = []
    for condition in conditions:
        row, constant = _row(condition, theta)
        coeffs = [sum(w * row[s] for s, w in u.items()) for u in unknowns]
        system.append(coeffs + [constant - sum(v * row[s] for s, v in pinned.items())])
    solution = []
    for col in range(len(unknowns)):
        pivot = max(system, key=lambda r: abs(r[col]))
        assert pivot[col] != 0, (name, theta, "singular")
        system.remove(pivot)
        pivot = [v / pivot[col] for v in pivot]
        system = [[a - r[col] * b for a, b in zip(r, pivot)] for r in system]
        solution.append(pivot)
    for rest in system:  # conditions beyond the unknowns must hold too
        assert abs(rest[-1]) < Fraction(1, 10**40), (name, float(rest[-1]))
    values = {}
    for col in reversed(range(len(unknowns))):
        row = solution[col]
        values[col] = row[-1] - sum(row[q] * values[q] for q in range(col + 1, len(unknowns)))
    c_hat = dict(pinned)
    for col, u in enumerate(unknowns):
        for s, w in u.items():
            c_hat[s] = c_hat.get(s, 0) + w * values[col]
    return c_hat


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_tuned_member_matches_exact_conditions(name, theta):
    for h in STEPS:
        w = theta / h
        t = make_catalog(name, h, w)
        c_hat = exact_member(name, Fraction(w * h))
        assert t.c0 == (1.0,)
        for i, row in enumerate(t.c, start=1):
            for j, v in enumerate(row):
                exact = c_hat[(i, j)] * Fraction(h) ** i
                if exact == 0:
                    assert v == 0.0, (name, theta, h, (i, j))
                    continue
                err = abs((Fraction(v) - exact) / exact)
                assert err <= Fraction(1, 10**14), (name, theta, h, (i, j), float(err))
