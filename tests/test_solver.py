from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from obreshkov import (
    ConstraintSet,
    InconsistentSystemError,
    ObreshkovTableau,
    SingularSystemError,
    SynthesisError,
    frequency_zero_residual,
    make_catalog,
    origin_multiplicity,
    solve_coefficients,
    taylor_coefficients,
    verify_synthesis,
)
from obreshkov import cli, solver
from obreshkov.solver import _check_request, _condition_rows, _slots
from obreshkov.spectrum import _scaled_values

OMEGA_SYN = 120.0 * math.pi

# independently solved 3x3 systems, frozen; keyed by (omega, h)
E_FROZEN = {
    (1.0, 1.0): (0.65514507204243, 0.34485492795756939, -0.16951227828754808),
    (OMEGA_SYN, 1e-3): (
        0.00066507947644264399,
        0.00033492052355735601,
        -1.6706279150242814e-07,
    ),
    (OMEGA_SYN, 2e-3): (
        0.0013204387984645846,
        0.00067956120153541543,
        -6.7306994364066876e-07,
    ),
}


def b_request(omega: float, h: float) -> ConstraintSet:
    return ConstraintSet(
        k=2, m=1, h=h,
        fixed={(0, 1): 1.0, (1, 1): 0.0, (2, 1): 0.0},
        origin_multiplicity=1,
        frequencies=(omega,),
    )


def e_request(omega: float, h: float) -> ConstraintSet:
    return ConstraintSet(
        k=2, m=1, h=h,
        fixed={(0, 1): 1.0, (2, 1): 0.0},
        origin_multiplicity=2,
        frequencies=(omega,),
    )


def f_request(h: float) -> ConstraintSet:
    return ConstraintSet(
        k=2, m=1, h=h, fixed={(0, 1): 1.0, (2, 1): 0.0}, origin_multiplicity=4
    )


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_recovers_single_frequency_closed_forms():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        h = float(10.0 ** rng.uniform(-5, -1))
        theta = float(rng.uniform(0.05, 6.0))
        omega = theta / h
        t = solve_coefficients(b_request(omega, h))
        assert rel(t.c[0][0], math.sin(omega * h) / omega) <= 1e-12
        assert rel(t.c[1][0], (math.cos(omega * h) - 1.0) / omega**2) <= 1e-12
        assert t.c[0][1] == 0.0
        assert t.c[1][1] == 0.0
        assert t.c0 == (1.0,)


def test_recovers_fourth_order_closed_forms():
    for h in (1e-4, 0.02, 1.0):
        t = solve_coefficients(f_request(h))
        assert rel(t.c[0][0], 2.0 * h / 3.0) <= 1e-12
        assert rel(t.c[0][1], h / 3.0) <= 1e-12
        assert rel(t.c[1][0], -h * h / 6.0) <= 1e-12
        assert t.c[1][1] == 0.0


def test_recovers_trapezoidal_dropping_satisfied_condition():
    # the third accuracy condition is already implied by the pinned slots,
    # so the solver must drop it rather than call the system overdetermined
    h = 0.125
    t = solve_coefficients(
        ConstraintSet(
            k=1, m=1, h=h, fixed={(0, 1): 1.0, (1, 1): h / 2.0}, origin_multiplicity=3
        )
    )
    assert rel(t.c[0][0], h / 2.0) <= 1e-13
    ref = make_catalog("TR", h)
    assert rel(t.c[0][0], ref.c[0][0]) <= 1e-13


def test_two_condition_double_zero_frozen_values():
    for (omega, h), (c10, c1m1, c20) in E_FROZEN.items():
        t = solve_coefficients(e_request(omega, h))
        assert rel(t.c[0][0], c10) <= 1e-12
        assert rel(t.c[0][1], c1m1) <= 1e-12
        assert rel(t.c[1][0], c20) <= 1e-12
        assert abs((t.c[0][0] + t.c[0][1]) - h) <= 1e-14 * max(1.0, h)


def test_degenerates_to_fourth_order_at_small_angle():
    h = 1e-3
    t = solve_coefficients(e_request(1.0, h))
    assert rel(t.c[0][0], 2.0 * h / 3.0) <= 1e-5
    assert rel(t.c[0][1], h / 3.0) <= 1e-5
    assert rel(t.c[1][0], -h * h / 6.0) <= 1e-5


def test_certification_passes_for_recovered_members():
    cases = [
        b_request(OMEGA_SYN, 1e-3),
        e_request(OMEGA_SYN, 1e-3),
        f_request(1e-3),
    ]
    for cs in cases:
        t = solve_coefficients(cs)
        report = verify_synthesis(t, cs)
        assert report.passed, report.failures
        assert report.achieved_multiplicity >= cs.origin_multiplicity
        for _, r in report.frequency_residuals:
            assert r <= 1e-10
        for _, err in report.fixed_slot_errors:
            assert err == 0.0


def test_exact_multiplicities_of_recovered_members():
    assert verify_synthesis(
        solve_coefficients(e_request(OMEGA_SYN, 1e-3)), e_request(OMEGA_SYN, 1e-3)
    ).achieved_multiplicity == 2
    assert verify_synthesis(
        solve_coefficients(f_request(0.01)), f_request(0.01)
    ).achieved_multiplicity == 4


def test_spectrum_closure():
    for cs in (b_request(200.0, 1e-3), e_request(OMEGA_SYN, 1e-3), f_request(0.05)):
        t = solve_coefficients(cs)
        assert origin_multiplicity(t) >= cs.origin_multiplicity
        for w in cs.frequencies:
            assert frequency_zero_residual(t, w) <= 1e-12


def test_overconstrained_request_is_inconsistent():
    cs = ConstraintSet(
        k=2, m=1, h=1e-3,
        fixed={(0, 1): 1.0, (2, 1): 0.0},
        origin_multiplicity=4,
        frequencies=(OMEGA_SYN,),
    )
    with pytest.raises(InconsistentSystemError) as exc:
        solve_coefficients(cs)
    # the conditions the fit fails are named
    assert "origin multiplicity 1 below required 4" in str(exc.value)


def test_least_squares_accepts_overconstrained_but_fails_certification():
    cs = ConstraintSet(
        k=2, m=1, h=1e-3,
        fixed={(0, 1): 1.0, (2, 1): 0.0},
        origin_multiplicity=4,
        frequencies=(OMEGA_SYN,),
    )
    t = solve_coefficients(cs, least_squares=True)
    report = verify_synthesis(t, cs)
    assert not report.passed
    assert report.failures


def test_underdetermined_without_flag_is_singular():
    cs = ConstraintSet(k=2, m=1, h=1e-3, fixed={(0, 1): 1.0}, origin_multiplicity=2)
    with pytest.raises(SingularSystemError):
        solve_coefficients(cs)


def test_underdetermined_with_flag_returns_minimum_norm_solution():
    cs = ConstraintSet(
        k=2, m=1, h=1e-3,
        fixed={(0, 1): 1.0},
        origin_multiplicity=2,
        frequencies=(OMEGA_SYN,),
    )
    t = solve_coefficients(cs, least_squares=True)
    a = taylor_coefficients(t, 3)
    assert abs(a[1]) <= 1e-12
    assert frequency_zero_residual(t, OMEGA_SYN) <= 1e-10


# one condition more than free slots, from the benchmark's seeded synthesis requests
# (seed 3, then three of seed 9700417): each least-squares fit passes the residual
# test, but not certification
UNCERTIFIED_FITS = {
    "k3m2-seed3": ConstraintSet(
        k=3, m=2, h=0.0017505161045429088,
        fixed={(1, 2): 0.0, (2, 2): 0.0, (3, 1): 0.0, (3, 2): 0.0},
        origin_multiplicity=6, frequencies=(117.62402760302373,),
    ),
    "k3m3": ConstraintSet(
        k=3, m=3, h=3.059604141809155e-06,
        fixed={(i, j): 0.0 for i in (1, 2, 3) for j in (1, 2, 3)},
        origin_multiplicity=5, frequencies=(20803.00203819402,),
    ),
    "k1m3": ConstraintSet(
        k=1, m=3, h=0.00011268176866733894, origin_multiplicity=6,
        frequencies=(1027.5821435181567,),
    ),
    "k3m2": ConstraintSet(
        k=3, m=2, h=0.0010776235562451688,
        fixed={(1, 1): 0.0, (1, 2): 0.0, (2, 1): 0.0, (3, 1): 0.0, (3, 2): 0.0},
        origin_multiplicity=5, frequencies=(72.38824909174339,),
    ),
}


@pytest.mark.parametrize("name", UNCERTIFIED_FITS)
def test_overdetermined_fit_that_fails_certification_is_inconsistent(name):
    cs = UNCERTIFIED_FITS[name]
    fit = solve_coefficients(cs, least_squares=True)
    failures = verify_synthesis(fit, cs).failures
    assert failures
    n_free = len(_slots(cs.k, cs.m)) - len(cs.fixed)
    message = (
        f"overdetermined system does not certify ({n_free + 1} conditions, {n_free} free slots): "
        + "; ".join(failures)
    )
    with pytest.raises(InconsistentSystemError) as exc:
        solve_coefficients(cs)
    assert str(exc.value) == message


def test_solve_command_refuses_an_uncertified_fit(tmp_path, capsys):
    cs = UNCERTIFIED_FITS["k3m2-seed3"]
    path = tmp_path / "request.json"
    path.write_text(json.dumps({
        "k": cs.k, "m": cs.m, "h": cs.h, "fixed": [[i, j, v] for (i, j), v in cs.fixed],
        "origin_multiplicity": cs.origin_multiplicity, "frequencies": list(cs.frequencies),
    }))
    assert cli.main(["solve", "--constraints", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: overdetermined system does not certify (8 conditions, 7 free slots)")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "tableau.json").exists()


def test_fit_the_residual_test_refused_names_its_certification_failures():
    # the residual test used to refuse these fits with the rows it kept; certification
    # now refuses them with the conditions that fail
    named = 0
    for cs in [PATH_REQUESTS["overdetermined"]] + random_requests(99, 400):
        try:
            solve_coefficients(cs)
        except SynthesisError as exc:
            if not str(exc).startswith("overdetermined"):
                continue
            assert type(exc) is InconsistentSystemError
            n_free = len(_slots(cs.k, cs.m)) - len(cs.fixed)
            failures = verify_synthesis(solve_coefficients(cs, least_squares=True), cs).failures
            assert failures, cs
            # the count of kept conditions comes first: rows the pins satisfy are dropped
            assert re.fullmatch(
                rf"overdetermined system does not certify \(\d+ conditions, {n_free} free slots\): "
                + re.escape("; ".join(failures)),
                str(exc),
            ), cs
            named += 1
    assert named >= 60


# no slot pinned: 19 conditions for the 19 slots of (k=3, m=4), past the default
# k + m + 10 = 17 terms of the series
DEEP_REQUEST = {"k": 3, "m": 4, "h": 0.001, "origin_multiplicity": 19}


def test_certification_draws_the_series_to_the_required_multiplicity():
    cs = ConstraintSet(**DEEP_REQUEST)
    report = verify_synthesis(solve_coefficients(cs), cs)
    assert report.passed, report.failures
    assert report.achieved_multiplicity == 19


def test_solve_command_certifies_a_deep_multiplicity(tmp_path, capsys):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(DEEP_REQUEST))
    assert cli.main(["solve", "--constraints", str(path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "origin multiplicity: required 19, achieved 19\n" in out
    assert out.endswith("certification: PASS\n")


def test_fixed_slot_contradiction():
    cs = ConstraintSet(k=1, m=1, h=1e-3, fixed={(0, 1): 0.9}, origin_multiplicity=1)
    with pytest.raises(InconsistentSystemError, match="fixed-slot determined"):
        solve_coefficients(cs)


def test_request_forcing_zero_current_weight():
    h = 1e-3
    cs = ConstraintSet(k=1, m=1, h=h, fixed={(1, 1): h}, origin_multiplicity=2)
    with pytest.raises(SynthesisError, match="zero current"):
        solve_coefficients(cs)


def test_request_validation():
    with pytest.raises(SynthesisError):
        solve_coefficients(
            ConstraintSet(k=2, m=1, h=1e-3, fixed=[((0, 1), 1.0), ((0, 1), 2.0)])
        )
    with pytest.raises(SynthesisError):
        solve_coefficients(ConstraintSet(k=2, m=1, h=1e-3, fixed={(0, 0): 1.0}))
    with pytest.raises(SynthesisError):
        solve_coefficients(ConstraintSet(k=2, m=1, h=1e-3, fixed={(3, 0): 1.0}))
    with pytest.raises(SynthesisError):
        solve_coefficients(
            ConstraintSet(k=2, m=1, h=1e-3, frequencies=(2.0 * math.pi / 1e-3,))
        )
    with pytest.raises(SynthesisError):
        solve_coefficients(ConstraintSet(k=2, m=1, h=1e-3, origin_multiplicity=0))
    with pytest.raises(SynthesisError):
        solve_coefficients(ConstraintSet(k=2, m=1, h=-1e-3))
    with pytest.raises(SynthesisError):
        solve_coefficients(ConstraintSet(k=0, m=1, h=1e-3))
    # 171! leaves the float range: an input error, not a failed synthesis
    with pytest.raises(ValueError, match=r"^origin_multiplicity 172 needs n! past the float range$") as info:
        ConstraintSet(k=1, m=1, h=1e-3, origin_multiplicity=172)
    assert not isinstance(info.value, SynthesisError)


def test_constraint_set_normalization():
    by_dict = ConstraintSet(
        k=2, m=1, h=1e-3, fixed={(2, 1): 0.0, (0, 1): 1.0},
        frequencies=(300.0, 100.0, 300.0),
    )
    by_pairs = ConstraintSet(
        k=2, m=1, h=1e-3, fixed=[((0, 1), 1.0), ((2, 1), 0.0)],
        frequencies=[100.0, 300.0],
    )
    assert by_dict.fixed == by_pairs.fixed == (((0, 1), 1.0), ((2, 1), 0.0))
    assert by_dict.frequencies == (100.0, 300.0)
    assert isinstance(ConstraintSet(k=1, m=1, h=1).h, float)
    assert by_dict.fixed_map == {(0, 1): 1.0, (2, 1): 0.0}


def test_solution_matches_catalog_tuned_member():
    h = 1e-3
    t = solve_coefficients(e_request(OMEGA_SYN, h))
    ref = make_catalog("E", h, OMEGA_SYN)
    for row_t, row_r in zip(t.c, ref.c):
        for a, b in zip(row_t, row_r):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b) / h)
    assert t.omega_select == OMEGA_SYN


def test_f_request_certifies_at_tiny_step():
    # the coefficients are of order h**2 = 1e-80; h**n for the Taylor series
    # would underflow from n = 9 on, and the basis never forms it
    cs = f_request(1e-40)
    report = verify_synthesis(solve_coefficients(cs), cs)
    assert report.passed, report.failures
    assert report.achieved_multiplicity == 4


def test_step_whose_order_k_power_underflows_is_an_input_error():
    for request in (lambda: f_request(1e-200), lambda: ConstraintSet(k=3, m=1, h=1e-110)):
        with pytest.raises(ValueError, match="underflows") as info:
            solve_coefficients(request())
        assert not isinstance(info.value, SynthesisError)


def test_square_request_with_15_conditions_certifies():
    # the exact rule's leading error constant a15/h**15 is about -1.1e-11
    cs = ConstraintSet(k=3, m=3, h=1e-3, origin_multiplicity=15)
    report = verify_synthesis(solve_coefficients(cs), cs)
    assert report.passed, report.failures
    assert report.achieved_multiplicity == 15


def test_square_request_reports_multiplicity_against_round_off():
    # a5 / h**5 is about -4e-11, below an absolute 1e-10 cut, but its ratio to
    # the sum of its terms is about 5e-10, far above round-off
    cs = ConstraintSet(
        k=3, m=2, h=0.0009382006047503244, fixed={(2, 2): 0.0, (3, 2): 0.0},
        origin_multiplicity=5, frequencies=(153.85847162247296, 72.78451737180121),
    )
    report = verify_synthesis(solve_coefficients(cs), cs)
    assert report.passed, report.failures
    assert report.achieved_multiplicity == 5


def test_near_zero_current_weight_is_rejected_relative_to_the_others():
    # an exact solve of the float system gives c^_30 = c30 / h**3 = 3.6e-14,
    # against O(1) for the other slots; the float solve gives -1.6e-12
    cs = ConstraintSet(
        k=3, m=2, h=4.231776139404197e-05, fixed={(1, 1): 0.0, (3, 1): 0.0, (3, 2): 0.0},
        origin_multiplicity=4, frequencies=(9497.672708413567, 32624.507130562688),
    )
    with pytest.raises(SynthesisError, match="zero current k-th derivative weight"):
        solve_coefficients(cs)


@pytest.mark.parametrize(
    "k, h, multiplicity, condition",
    [(2, 5.643101812101316e-05, 4, "a3"), (3, 0.0005384003498101672, 5, "a4")],
)
def test_one_over_request_contradicting_its_fixed_slots_is_inconsistent(
    k, h, multiplicity, condition
):
    # with every stale slot pinned and c0 = 1, the last a_n is fixed-slot
    # determined: exactly 1/6 for a3, -1/24 for a4, not 0
    fixed = {(i, 1): 0.0 for i in range(1, k + 1)} | {(0, 1): 1.0}
    cs = ConstraintSet(k=k, m=1, h=h, fixed=fixed, origin_multiplicity=multiplicity)
    with pytest.raises(InconsistentSystemError, match=f"condition {condition} is fixed-slot"):
        solve_coefficients(cs)


# --------------------------------------------------------------------------
# Equivalence with the row-by-row assembly. The copies below are the
# reference: each condition row is filled element by element over the
# unknowns c^ = c / h**i in sigma = s*h, then tested for the drop and
# normalized on its own. The library builds the condition matrix once and
# takes the same quantities from axis reductions; every tableau and every
# error must come out the same.
# --------------------------------------------------------------------------


def reference_condition_rows(cs: ConstraintSet, slots) -> list:
    rows = []
    for n in range(cs.origin_multiplicity):
        w = np.zeros(len(slots))
        for col, (i, j) in enumerate(slots):
            if n >= i:
                w[col] = (-j) ** (n - i) / math.factorial(n - i)
        rows.append((f"a{n}", w, 1.0 if n == 0 else 0.0))
    for omega in cs.frequencies:
        sigma = np.asarray(1j * (omega * cs.h))
        v = np.zeros(len(slots), dtype=complex)
        for col, (i, j) in enumerate(slots):
            v[col] = sigma**i * np.exp(-sigma * j) if i else np.exp(-sigma * j)
        rows.append((f"Re R(j*{omega:g})", v.real.copy(), 1.0))
        rows.append((f"Im R(j*{omega:g})", v.imag.copy(), 0.0))
    return rows


def reference_solve(cs: ConstraintSet, least_squares: bool = False) -> ObreshkovTableau:
    _check_request(cs)
    slots = _slots(cs.k, cs.m)
    fixed = cs.fixed_map
    c_hat = {s: v / math.prod([cs.h] * s[0]) for s, v in fixed.items()}
    free = [s for s in slots if s not in fixed]
    free_cols = [slots.index(s) for s in free]

    a_rows, b_vals = [], []
    for name, w, rhs in reference_condition_rows(cs, slots):
        ref = max([abs(v) for v in w] + [abs(rhs)])
        b = rhs - math.fsum(w[col] * c_hat[s] for col, s in enumerate(slots) if s in fixed)
        row = w[free_cols]
        peak = float(np.max(np.abs(row))) if len(free) else 0.0
        if peak <= 1e-12 * ref:
            if abs(b) > 1e-12 * max(1.0, ref):
                raise InconsistentSystemError(
                    f"condition {name} is fixed-slot determined but violated "
                    f"(constant residual {b:.3e})"
                )
            continue
        row_scale = max(peak, abs(b))
        a_rows.append(row / row_scale)
        b_vals.append(b / row_scale)

    n_free, n_eq = len(free), len(a_rows)
    if n_free:
        if n_eq == 0:
            raise SingularSystemError(f"no conditions left for {n_free} free slots")
        if n_eq < n_free and not least_squares:
            raise SingularSystemError(
                f"underdetermined system: {n_eq} independent conditions for {n_free} free slots"
            )
        A = np.vstack(a_rows)
        b = np.array(b_vals)
        x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        residual = float(np.max(np.abs(A @ x - b)))
        tol = 1e-9 * max(1.0, float(np.max(np.abs(b))))
        if not least_squares:
            if rank < n_free:
                raise SingularSystemError(
                    f"condition system is rank deficient (rank {rank}, {n_free} free slots)"
                )
            if n_eq == n_free and residual > tol:
                raise SynthesisError(f"solver residual unexpectedly large: {residual:.3e}")
        for col, s in enumerate(free):
            c_hat[s] = float(x[col])

    if abs(c_hat[(cs.k, 0)]) <= 1e-10 * max(abs(v) for v in c_hat.values()):
        raise SynthesisError(
            "synthesized tableau has (numerically) zero current k-th derivative weight; "
            "the request admits no differentiator"
        )

    def value(i, j):
        return fixed[(i, j)] if (i, j) in fixed else c_hat[(i, j)] * math.prod([cs.h] * i)

    c0 = tuple(value(0, j) for j in range(1, cs.m + 1))
    c = tuple(tuple(value(i, j) for j in range(0, cs.m + 1)) for i in range(1, cs.k + 1))
    t = ObreshkovTableau(
        k=cs.k, m=cs.m, h=cs.h, c0=c0, c=c,
        omega_select=cs.frequencies[0] if len(cs.frequencies) == 1 else None,
    )
    if n_eq > n_free and not least_squares and (failures := verify_synthesis(t, cs).failures):
        raise InconsistentSystemError(
            f"overdetermined system does not certify ({n_eq} conditions, {n_free} free slots): "
            + "; ".join(failures)
        )
    return t


def outcome(solve, cs: ConstraintSet, least_squares: bool) -> str:
    """repr of the tableau (signed zeros included), or the error's type and message."""
    try:
        return repr(solve(cs, least_squares=least_squares))
    except SynthesisError as exc:
        return f"{type(exc).__name__}: {exc}"


def random_requests(seed: int, count: int) -> list[ConstraintSet]:
    """Seeded requests with k, m <= 3 and one condition short, square or one over.

    About a third pin every order-0 slot: summing to 1 makes a0 a dropped row,
    to 0.9 a fixed-slot contradiction.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k, m = (int(v) for v in rng.integers(1, 4, size=2))
        h = float(10.0 ** rng.uniform(-6, 0))
        slots = _slots(k, m)
        fixed = {}
        pin_c0 = rng.integers(3)
        if pin_c0:
            weights = rng.dirichlet(np.ones(m)) if m > 1 else np.ones(1)
            total = 1.0 if pin_c0 == 1 else 0.9
            fixed.update({(0, j): float(total * w) for j, w in enumerate(weights, start=1)})
        for i, j in slots:
            if i > 0 and (i, j) != (k, 0) and rng.random() < 0.3:
                fixed[(i, j)] = float(rng.choice([0.0, 0.5, rng.normal()])) * h**i
        n_free = len(slots) - len(fixed)
        n_freq = int(rng.integers(0, 3))
        conditions = max(1, n_free + int(rng.integers(-1, 2)))
        multiplicity = max(1, conditions - 2 * n_freq)
        frequencies = tuple(float(th) / h for th in rng.uniform(0.05, 6.0, size=n_freq))
        out.append(
            ConstraintSet(
                k=k, m=m, h=h, fixed=fixed,
                origin_multiplicity=multiplicity, frequencies=frequencies,
            )
        )
    return out


# one request per solver path, each built so the path does not hinge on round-off
PATH_REQUESTS = {
    "square": e_request(OMEGA_SYN, 1e-3),
    "dropped a2": ConstraintSet(
        k=1, m=1, h=0.125, fixed={(0, 1): 1.0, (1, 1): 0.0625}, origin_multiplicity=3
    ),
    "fixed-slot contradiction": ConstraintSet(
        k=1, m=1, h=1e-3, fixed={(0, 1): 0.9}, origin_multiplicity=1
    ),
    "overdetermined": ConstraintSet(
        k=2, m=1, h=1e-3, fixed={(0, 1): 1.0, (2, 1): 0.0},
        origin_multiplicity=4, frequencies=(OMEGA_SYN,),
    ),
    "underdetermined": ConstraintSet(
        k=2, m=1, h=1e-3, fixed={(0, 1): 1.0}, origin_multiplicity=2
    ),
    # a0 and a1 both reduce to the (0, 1) column: four rows of rank three
    "rank deficient": ConstraintSet(
        k=3, m=1, h=1e-3, fixed={(1, 0): 5e-4, (1, 1): 5e-4, (3, 1): 0.0},
        origin_multiplicity=2, frequencies=(OMEGA_SYN,),
    ),
    "no conditions left": ConstraintSet(
        k=1, m=1, h=1e-3, fixed={(0, 1): 1.0}, origin_multiplicity=1
    ),
    "all slots fixed": ConstraintSet(
        k=1, m=1, h=1e-3, fixed={(0, 1): 1.0, (1, 0): 1e-3, (1, 1): 0.0}, origin_multiplicity=2
    ),
    "zero current weight": ConstraintSet(
        k=1, m=1, h=1e-3, fixed={(1, 1): 1e-3}, origin_multiplicity=2
    ),
}


def test_solver_paths_are_bit_identical_to_reference():
    expected = {
        "square": "ObreshkovTableau",
        "dropped a2": "ObreshkovTableau",
        "fixed-slot contradiction": "InconsistentSystemError: condition a0 is fixed-slot",
        "overdetermined": "InconsistentSystemError: overdetermined",
        "underdetermined": "SingularSystemError: underdetermined",
        "rank deficient": "SingularSystemError: condition system is rank deficient",
        "no conditions left": "SingularSystemError: no conditions left",
        "all slots fixed": "ObreshkovTableau",
        "zero current weight": "SynthesisError: synthesized tableau has",
    }
    for path, cs in PATH_REQUESTS.items():
        got = outcome(solve_coefficients, cs, least_squares=False)
        assert got.startswith(expected[path]), (path, got)
        assert got == outcome(reference_solve, cs, least_squares=False), path
        assert outcome(solve_coefficients, cs, True) == outcome(reference_solve, cs, True), path


def test_seeded_requests_are_bit_identical_to_reference():
    kinds = set()
    for cs in random_requests(99, 400):
        for least_squares in (False, True):
            got = outcome(solve_coefficients, cs, least_squares)
            assert got == outcome(reference_solve, cs, least_squares), cs
            kinds.add(got.split(":")[0].split("(")[0])
    assert kinds >= {
        "ObreshkovTableau", "InconsistentSystemError", "SingularSystemError", "SynthesisError"
    }


def scaled_request(cs: ConstraintSet) -> ConstraintSet:
    """cs at 2h with every frequency halved and each pinned order-i value times 2**i."""
    return ConstraintSet(
        k=cs.k, m=cs.m, h=2 * cs.h,
        fixed=[((i, j), v * 2.0**i) for (i, j), v in cs.fixed],
        origin_multiplicity=cs.origin_multiplicity,
        frequencies=[w / 2 for w in cs.frequencies],
    )


def scale_free_outcome(cs: ConstraintSet):
    """The error type, or c^ = c / h**i of the solution with its certification."""
    try:
        t = solve_coefficients(cs)
    except SynthesisError as exc:
        return type(exc).__name__
    report = verify_synthesis(t, cs)
    return repr(_scaled_values(t)), report.passed, report.achieved_multiplicity


def test_synthesis_is_scale_free():
    # doubling h and halving every frequency are exact binary scalings, so the solve
    # and the certification see the same numbers
    kinds = set()
    for cs in random_requests(7, 60):
        got = scale_free_outcome(cs)
        assert got == scale_free_outcome(scaled_request(cs)), cs
        kinds.add(got if isinstance(got, str) else "solved")
    assert kinds == {"solved", "SingularSystemError", "InconsistentSystemError"}


def test_condition_matrix_matches_reference_rows():
    for cs in list(PATH_REQUESTS.values()) + random_requests(5, 100):
        slots = _slots(cs.k, cs.m)
        names, W, constants = _condition_rows(cs, slots)
        ref = reference_condition_rows(cs, slots)
        assert names == [name for name, _, _ in ref]
        assert W.tobytes() == np.vstack([w for _, w, _ in ref]).tobytes()
        assert constants == [rhs for _, _, rhs in ref]


CLOSED_FORM_FIELDS = dict(
    k=2, m=1, h=1e-3, fixed={(0, 1): 1.0, (1, 1): 0.0, (2, 1): 0.0}, frequencies=(OMEGA_SYN,)
)


@pytest.mark.parametrize(
    "change, field",
    [
        ({"k": 2.0}, "k"),
        ({"m": True}, "m"),
        ({"origin_multiplicity": 1.5}, "origin_multiplicity"),
        ({"h": "1e-3"}, "h"),
        ({"h": True}, "h"),
        ({"h": 10**400}, "h"),
        ({"fixed": {(0.9, 1.7): 1.0}}, "fixed slot"),
        ({"fixed": {(0, True): 1.0}}, "fixed slot"),
        ({"fixed": {(0, 1): "1"}}, "fixed value"),
        ({"fixed": {(0, 1): 10**400}}, "fixed value"),
        ({"frequencies": "377"}, "frequencies"),
        ({"frequencies": OMEGA_SYN}, "frequencies"),
        ({"frequencies": ("377",)}, "frequencies"),
        ({"frequencies": (10**400,)}, "frequencies"),
    ],
)
def test_constraint_set_checks_its_own_field_types(change, field):
    with pytest.raises(ValueError, match=f"^{field} ") as info:
        ConstraintSet(**{**CLOSED_FORM_FIELDS, **change})
    assert not isinstance(info.value, SynthesisError)  # an input error, not a failed synthesis


def test_constraint_set_does_not_read_loose_slots_as_integers():
    # int() would read (0.9, 1.7) as (0, 1), True as 1 and float() '1' as 1.0
    with pytest.raises(ValueError, match="fixed slot"):
        ConstraintSet(k=2, m=1, h=1e-3, fixed=[((0.9, 1.7), "1"), ((2, True), 0.0)])


def test_oversized_request_is_refused_before_its_layout_is_built(monkeypatch, tmp_path, capsys):
    def no_layout(k, m):
        raise AssertionError(f"the (k={k}, m={m}) layout was built")

    monkeypatch.setattr(solver, "_slots", no_layout)
    message = "underdetermined system: 1 independent conditions for 2000000001 free slots"
    with pytest.raises(SingularSystemError, match=f"^{message}$"):
        solve_coefficients(ConstraintSet(k=1, m=10**9, h=1e-3))
    path = tmp_path / "c.json"
    path.write_text('{"k": 1, "m": 1000000000, "h": 0.001}')
    assert cli.main(["solve", "--constraints", str(path), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pinned_oversized_request_is_still_refused_as_underdetermined():
    # a pin defeats the early refusal; the full path builds the one a0 row and refuses
    cs = ConstraintSet(k=1, m=200000, h=1e-3, fixed={(1, 0): 1e-3})
    message = "underdetermined system: 1 independent conditions for 400000 free slots"
    with pytest.raises(SingularSystemError, match=f"^{message}$"):
        solve_coefficients(cs)


def test_pin_membership_matches_the_layout():
    for k in range(1, 5):
        for m in range(1, 5):
            slots = _slots(k, m)
            for i in range(-1, k + 3):
                for j in range(-1, m + 3):
                    if (i, j) in slots:
                        ConstraintSet(k=k, m=m, h=1e-3, fixed={(i, j): 0.0})
                    else:
                        message = f"fixed slot {(i, j)} is outside the (k={k}, m={m}) layout"
                        with pytest.raises(SynthesisError, match=f"^{re.escape(message)}$"):
                            ConstraintSet(k=k, m=m, h=1e-3, fixed={(i, j): 0.0})
    with pytest.raises(SynthesisError, match=r"^fixed slot \(1, 1\) pinned twice$"):
        ConstraintSet(k=2, m=1, h=1e-3, fixed=[((1, 1), 0.0), ((1, 1), 1e-3)])


def test_certification_builds_no_layout(monkeypatch):
    cs = PATH_REQUESTS["overdetermined"]
    fit = solve_coefficients(cs, least_squares=True)
    calls = []

    def counted(k, m):
        calls.append((k, m))
        return _slots(k, m)

    monkeypatch.setattr(solver, "_slots", counted)
    with pytest.raises(InconsistentSystemError, match="^overdetermined system does not certify"):
        solve_coefficients(cs)  # certifies its fit before refusing it
    assert calls == [(2, 1)]  # the solve's own layout

    def no_layout(k, m):
        raise AssertionError(f"the (k={k}, m={m}) layout was built")

    monkeypatch.setattr(solver, "_slots", no_layout)
    for t, request in ((fit, cs), (make_catalog("E", 1e-3, OMEGA_SYN), e_request(OMEGA_SYN, 1e-3))):
        assert verify_synthesis(t, request).fixed_slot_errors


def test_early_refusal_matches_the_full_solve():
    # unpinned requests with more free slots than conditions: the full path
    # (reference_solve) keeps every row and refuses with the same message
    rng = np.random.default_rng(11)
    refused = 0
    for _ in range(60):
        k, m = (int(v) for v in rng.integers(2, 6, size=2))
        h = float(10.0 ** rng.uniform(-6, 0))
        frequencies = tuple(float(th) / h for th in rng.uniform(0.05, 6.0, size=int(rng.integers(0, 2))))
        n_free = k * (m + 1) + m
        multiplicity = int(rng.integers(1, n_free - 2 * len(frequencies)))
        cs = ConstraintSet(k=k, m=m, h=h, origin_multiplicity=multiplicity, frequencies=frequencies)
        got = outcome(solve_coefficients, cs, least_squares=False)
        assert got == outcome(reference_solve, cs, least_squares=False), cs
        assert outcome(solve_coefficients, cs, True) == outcome(reference_solve, cs, True), cs
        refused += got.startswith("SingularSystemError: underdetermined")
    assert refused == 60


def test_synthesis_is_scale_free_where_pow_is_not():
    # at these steps libm pow(h, 2) is not exact under h -> 2h while h * h is
    for cs in (
        f_request(1208 * 1e-6),
        e_request(377.0, 4832 * 1e-6),
        b_request(377.0, 4832 * 1e-6),
        f_request(4832 * 1e-6),
    ):
        assert scale_free_outcome(cs) == scale_free_outcome(scaled_request(cs)), cs


# F's tableau, with its order-1 current weight pinned as well
PINNED_F = ConstraintSet(
    k=2, m=1, h=1e-3, fixed={(0, 1): 1.0, (1, 0): 2e-3 / 3, (2, 1): 0.0}, origin_multiplicity=3
)


def test_certification_of_a_mismatched_tableau_reports_only_the_mismatch():
    t = solve_coefficients(PINNED_F)
    assert verify_synthesis(t, PINNED_F).passed
    cases = (
        (replace(t, h=2e-3), PINNED_F, "step mismatch: tableau h=0.002, request h=0.001"),
        # every pin, (1, 0) among them, lies inside both the (2, 1) and the (2, 2) layout
        (t, replace(PINNED_F, m=2), "structure mismatch: tableau is (k=2, m=1), request (k=2, m=2)"),
    )
    for tableau, request, failure in cases:
        report = verify_synthesis(tableau, request)
        assert report.failures == (failure,)
        assert report.achieved_multiplicity == -1
        assert report.frequency_residuals == ()
        assert report.fixed_slot_errors == ()


def test_certification_names_a_drifted_pin():
    t = solve_coefficients(PINNED_F)
    moved = replace(PINNED_F, fixed={**PINNED_F.fixed_map, (1, 0): 2e-3 / 3 + 1e-10})
    report = verify_synthesis(t, moved)
    assert report.failures == ("fixed slot (1, 0) drifted by 1.000e-10",)
    assert report.achieved_multiplicity >= 3
    errors = dict(report.fixed_slot_errors)
    assert errors[(0, 1)] == errors[(2, 1)] == 0.0
    assert errors[(1, 0)] == pytest.approx(1e-10, rel=1e-6)


@pytest.mark.parametrize("multiplicity", [2, 3])
def test_pinned_value_past_the_float_range_is_an_input_error(multiplicity):
    # c^ = 1e308 / 0.001 leaves the float range before any row is formed
    request = dict(k=1, m=1, h=1e-3, fixed={(1, 0): 1e308}, origin_multiplicity=multiplicity)
    message = r"^fixed slot \(1, 0\): 1e\+308 / h\*\*1 leaves the float range at h=0\.001$"
    with pytest.raises(ValueError, match=message) as exc:
        solve_coefficients(ConstraintSet(**request))
    assert type(exc.value) is ValueError
    with pytest.raises(ValueError, match=message):
        verify_synthesis(make_catalog("TR", 1e-3), ConstraintSet(**request))
