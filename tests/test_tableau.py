from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import pytest

from obreshkov import (
    CATALOG_NAMES,
    FREQUENCY_TUNED,
    OMEGA_SYN,
    ConstraintSet,
    Cosine,
    ObreshkovTableau,
    differentiator_form,
    load_json,
    make_catalog,
    relative_error,
    run,
    save_json,
    validate,
)
from obreshkov.tableau import admissibility_violation, from_dict, require_structural, require_valid, to_dict
from obreshkov.tableau import _finite, _shown

# independently recomputed from the defining closed forms at 50-digit precision
B_FROZEN = {
    (120.0 * math.pi, 1e-3): (0.00097648070388765578, -4.9410622009213733e-07),
}
E_FROZEN = {
    (120.0 * math.pi, 1e-3): (
        0.00066507947644264399,
        0.00033492052355735601,
        -1.6706279150242814e-07,
    ),
    (120.0 * math.pi, 2e-3): (
        0.0013204387984645846,
        0.00067956120153541543,
        -6.7306994364066876e-07,
    ),
}

STRUCTURES = {
    "BE": (1, 1),
    "BDF2": (1, 2),
    "TR": (1, 1),
    "A": (2, 1),
    "B": (2, 1),
    "C": (2, 1),
    "D": (2, 1),
    "E": (2, 1),
    "F": (2, 1),
}


def catalog(name: str, h: float = 1e-3, omega: float = OMEGA_SYN) -> ObreshkovTableau:
    return make_catalog(name, h, omega_select=omega if name in FREQUENCY_TUNED else None)


def test_catalog_members_are_valid():
    for name in CATALOG_NAMES:
        t = catalog(name)
        assert validate(t) == []
        assert (t.k, t.m) == STRUCTURES[name]
        assert t.label == name
        assert (t.omega_select is not None) == (name in FREQUENCY_TUNED)


def test_tr_coefficients():
    t = make_catalog("TR", 1e-3)
    assert t.c0 == (1.0,)
    assert t.c == ((5e-4, 5e-4),)


def test_be_coefficients():
    t = make_catalog("BE", 0.02)
    assert t.c0 == (1.0,)
    assert t.c == ((0.02, 0.0),)


def test_bdf2_coefficients():
    t = make_catalog("BDF2", 0.3)
    assert t.c0 == (4.0 / 3.0, -1.0 / 3.0)
    assert abs(t.c[0][0] - 0.2) < 1e-16
    assert t.c[0][1] == 0.0 and t.c[0][2] == 0.0


def test_c_d_f_coefficients():
    h = 1e-3
    c = make_catalog("C", h)
    assert c.c == ((h / 2.0, h / 2.0), (-h * h / 12.0, h * h / 12.0))
    d = make_catalog("D", h)
    assert d.c == ((h, 0.0), (-h * h / 2.0, 0.0))
    f = make_catalog("F", h)
    assert f.c == ((2.0 * h / 3.0, h / 3.0), (-h * h / 6.0, 0.0))


def test_a_second_derivative_pair_is_antisymmetric():
    t = catalog("A")
    assert t.c[0] == (5e-4, 5e-4)
    assert t.c[1][1] == -t.c[1][0]
    assert t.c[1][0] != 0.0


def test_b_frozen_values():
    for (w, h), (c10, c20) in B_FROZEN.items():
        t = make_catalog("B", h, omega_select=w)
        assert t.c[0][0] == pytest.approx(c10, rel=1e-13)
        assert t.c[1][0] == pytest.approx(c20, rel=1e-13)
        assert t.c[0][1] == 0.0
        assert t.c[1][1] == 0.0


def test_e_frozen_values():
    """The synthesized member must match an independent high-precision solve."""
    for (w, h), (c10, c11, c20) in E_FROZEN.items():
        t = make_catalog("E", h, omega_select=w)
        assert t.c[0][0] == pytest.approx(c10, rel=1e-12)
        assert t.c[0][1] == pytest.approx(c11, rel=1e-12)
        assert t.c[1][0] == pytest.approx(c20, rel=1e-12)
        assert t.c[1][1] == 0.0
        assert t.c[0][0] + t.c[0][1] == pytest.approx(h, rel=1e-12)
        assert t.label == "E"
        assert t.omega_select == w


def test_consistency_sum_all_members():
    for name in CATALOG_NAMES:
        t = catalog(name)
        assert abs(math.fsum(t.c0) - 1.0) <= 1e-12


def test_step_doubling_scales_order_i_rows_by_two_to_the_i():
    # doubling h is an exact binary scaling, so the law holds bitwise
    h = 3e-4
    for name in ("BE", "BDF2", "TR", "C", "D", "F"):
        t1 = make_catalog(name, h)
        t2 = make_catalog(name, 2 * h)
        assert t2.c0 == t1.c0
        for i in range(1, t1.k + 1):
            scaled = tuple(2.0**i * v for v in t1.c[i - 1])
            assert t2.c[i - 1] == scaled


def test_feedback_weights_are_h_free_for_untuned_members():
    for name in ("BE", "BDF2", "TR", "C", "D", "F"):
        feedbacks = {
            differentiator_form(make_catalog(name, h)).feedback
            for h in (1e-6, 1e-3, 1.0)
        }
        assert len(feedbacks) == 1


def test_feedback_golden_values():
    assert differentiator_form(make_catalog("TR", 1e-3)).feedback == (-1.0,)
    assert differentiator_form(make_catalog("BE", 1e-3)).feedback == (0.0,)
    assert differentiator_form(make_catalog("BDF2", 1e-3)).feedback == (0.0, 0.0)
    assert differentiator_form(catalog("A")).feedback == (1.0,)
    assert differentiator_form(catalog("C")).feedback == (1.0,)
    for name in ("B", "D", "E", "F"):
        assert differentiator_form(catalog(name)).feedback == (0.0,)


def test_feedback_identity_exact_on_catalog():
    for name in CATALOG_NAMES:
        t = catalog(name)
        rule = differentiator_form(t)
        ck = t.c[t.k - 1]
        for j in range(1, t.m + 1):
            assert rule.feedback[j - 1] * ck[0] + ck[j] == 0.0


def test_differentiator_rule_weight_layout():
    t = ObreshkovTableau(
        k=2,
        m=2,
        h=0.1,
        c0=(0.75, 0.25),
        c=((0.04, 0.03, 0.02), (-0.005, 0.001, 0.002)),
    )
    rule = differentiator_form(t)
    ck0 = t.c[1][0]
    assert rule.gain == 1.0 / ck0
    assert rule.u_history == (-(0.75 / ck0), -(0.25 / ck0))
    assert rule.feedback == (-(0.001 / ck0), -(0.002 / ck0))
    assert rule.lower == ((-(0.04 / ck0), -(0.03 / ck0), -(0.02 / ck0)),)
    assert rule.base is t


def test_validate_reports_zero_highest_weight():
    t = ObreshkovTableau(k=2, m=1, h=1e-3, c0=(1.0,), c=((1e-3, 0.0), (0.0, 0.0)))
    violations = validate(t)
    assert any("zero" in v for v in violations)


def test_validate_reports_underflowing_step_powers():
    # h**2 = 1e-400 is below the float range, so the order-2 weight cannot be
    # expressed in units of h**2
    t = ObreshkovTableau(k=2, m=1, h=1e-200, c0=(1.0,), c=((1e-200, 0.0), (-1e-305, 0.0)))
    assert any("h**2 underflows" in v for v in validate(t))
    with pytest.raises(ValueError, match="underflows"):
        relative_error(t, 1j)
    # h**2 = 1e-300 is still a normal float
    assert validate(replace(t, h=1e-150, c=((1e-150, 0.0), (-1e-305, 0.0)))) == []


def test_validate_reports_consistency_violation():
    t = ObreshkovTableau(k=1, m=1, h=1e-3, c0=(0.9,), c=((1e-3, 0.0),))
    violations = validate(t)
    assert any("sum" in v for v in violations)


def test_validate_reports_shape_and_finiteness_problems():
    base = make_catalog("TR", 1e-3)
    assert validate(replace(base, c0=(1.0, 0.0))) != []
    assert validate(replace(base, c=((1e-3,),))) != []
    assert validate(replace(base, c=())) == ["c must have k=1 rows, got 0"]
    assert validate(replace(base, c=((math.nan, 0.0),))) != []
    assert validate(replace(base, h=-1.0)) != []
    assert validate(replace(base, k=0)) != []
    assert validate(replace(base, m=0)) != []


def test_make_catalog_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown"):
        make_catalog("TRAP", 1e-3)


def test_make_catalog_rejects_bad_h():
    with pytest.raises(ValueError):
        make_catalog("TR", 0.0)
    with pytest.raises(ValueError):
        make_catalog("TR", math.inf)


def test_omega_select_required_for_tuned_members():
    for name in sorted(FREQUENCY_TUNED):
        with pytest.raises(ValueError, match="omega_select"):
            make_catalog(name, 1e-3)


def test_omega_select_forbidden_for_untuned_members():
    for name in ("BE", "BDF2", "TR", "C", "D", "F"):
        with pytest.raises(ValueError, match="omega_select"):
            make_catalog(name, 1e-3, omega_select=OMEGA_SYN)


def test_omega_admissibility_window():
    h = 1e-3
    # outside (0, 2*pi)
    with pytest.raises(ValueError):
        make_catalog("B", h, omega_select=2.0 * math.pi / h)
    with pytest.raises(ValueError):
        make_catalog("B", h, omega_select=-10.0)
    # cos(omega*h) too close to 1
    with pytest.raises(ValueError):
        make_catalog("B", h, omega_select=1e-7 / h)
    assert admissibility_violation(0.3 / h, h) is None
    assert admissibility_violation(2.0 * math.pi / h, h) is not None


def test_json_round_trip_bit_exact(tmp_path):
    for name in CATALOG_NAMES:
        t = catalog(name)
        path = tmp_path / f"{name}.json"
        save_json(t, path)
        back = load_json(path)
        assert back == t


def test_json_document_shape(tmp_path):
    t = catalog("E")
    d = to_dict(t)
    assert set(d) == {"k", "m", "h", "c0", "c", "label", "omega_select"}
    assert len(d["c"]) == t.k
    assert all(len(row) == t.m + 1 for row in d["c"])
    # scientific-notation numbers must parse
    doc = {
        "k": 2,
        "m": 1,
        "h": 1e-3,
        "c0": [1.0],
        "c": [[6.651e-4, 3.349e-4], [-1.671e-7, 0.0]],
        "label": "E",
        "omega_select": 376.991,
    }
    path = tmp_path / "sci.json"
    path.write_text(json.dumps(doc))
    back = load_json(path)
    assert back.c[1][0] == -1.671e-7


def test_load_json_rejects_malformed_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_json(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        load_json(arr)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"k": 1, "m": 1, "h": 1e-3}))
    with pytest.raises(ValueError):
        load_json(missing)


def test_from_dict_requires_integer_structure():
    with pytest.raises(ValueError):
        from_dict({"k": 1.5, "m": 1, "h": 1e-3, "c0": [1.0], "c": [[1e-3, 0.0]]})


def test_coeff_accessor():
    t = make_catalog("BDF2", 0.1)
    assert t.coeff(0, 1) == t.c0[0]
    assert t.coeff(0, 2) == t.c0[1]
    assert t.coeff(1, 0) == t.c[0][0]
    with pytest.raises(IndexError):
        t.coeff(0, 0)
    with pytest.raises(IndexError):
        t.coeff(2, 0)
    with pytest.raises(IndexError):
        t.coeff(1, 3)


def test_boolean_k_and_m_are_rejected():
    with pytest.raises(ValueError, match="integers"):
        from_dict({"k": True, "m": True, "h": 1e-3, "c0": [1.0], "c": [[1e-3, 0.0]]})
    t = ObreshkovTableau(k=True, m=True, h=1e-3, c0=(1.0,), c=((1e-3, 0.0),))
    violations = validate(t)
    assert any(v.startswith("k must be") for v in violations)
    assert any(v.startswith("m must be") for v in violations)
    with pytest.raises(ValueError, match="invalid tableau"):
        differentiator_form(t)


GOOD_DOC = {"k": 1, "m": 1, "h": 1e-3, "c0": [1.0], "c": [[1e-3, 0.0]]}


@pytest.mark.parametrize(
    "field, value",
    [
        ("h", True),
        ("omega_select", False),
        ("c0", "1"),
        ("c", ["10"]),
        ("c", "1"),
        ("label", 5),
    ],
    ids=["bool-h", "bool-omega", "string-c0", "string-c-row", "string-c", "number-label"],
)
def test_from_dict_rejects_loosely_typed_fields(field, value):
    with pytest.raises(ValueError, match=field.split("_")[0]):
        from_dict({**GOOD_DOC, field: value})


def test_from_dict_accepts_integer_numbers_exactly():
    t = from_dict({**GOOD_DOC, "h": 1, "c0": [1], "c": [[1, 0]], "omega_select": 2})
    assert t == ObreshkovTableau(k=1, m=1, h=1.0, c0=(1.0,), c=((1.0, 0.0),), omega_select=2.0)
    assert all(type(v) is float for v in (t.h, t.c0[0], *t.c[0], t.omega_select))


BEYOND_FLOAT = 10**400  # an int that float() cannot convert


@pytest.mark.parametrize("v", [0, -3, 10**308, 1.5, -1e308, 5e-324, sys.float_info.max])
def test_finite_accepts_real_numbers_in_the_float_range(v):
    assert _finite(v)


@pytest.mark.parametrize(
    "v", [True, False, "1", None, 1j, [1.0], math.nan, math.inf, -math.inf, BEYOND_FLOAT, -BEYOND_FLOAT]
)
def test_finite_rejects_everything_else(v):
    assert not _finite(v)


def test_integer_past_the_float_range_is_named_in_tableau_checks():
    with pytest.raises(ValueError, match="^h must be"):
        make_catalog("TR", BEYOND_FLOAT)
    with pytest.raises(ValueError, match="omega_select must be finite"):
        make_catalog("A", 1e-3, BEYOND_FLOAT)
    assert admissibility_violation(BEYOND_FLOAT, 1e-3).startswith("omega_select must be finite")
    assert admissibility_violation(OMEGA_SYN, BEYOND_FLOAT).startswith("h must be finite")
    base = make_catalog("D", 1e-3)
    assert validate(replace(base, h=BEYOND_FLOAT))[0].startswith("h must be")
    assert validate(replace(base, c0=(BEYOND_FLOAT,))) == [
        f"all coefficients must be finite, got c0[0] = {BEYOND_FLOAT!r}"
    ]
    assert validate(replace(base, omega_select=BEYOND_FLOAT))[0].startswith("omega_select must be")
    for field, value in [("h", BEYOND_FLOAT), ("c0", [BEYOND_FLOAT]), ("c", [[BEYOND_FLOAT, 0.0]]),
                         ("omega_select", BEYOND_FLOAT)]:
        with pytest.raises(ValueError, match=f"^{field}.* must be a finite number"):
            from_dict({**GOOD_DOC, field: value})


TOO_LONG = 10**5000  # 5,001 digits, past Python's default limit on int-to-str conversion


@pytest.fixture
def int_digit_limit():
    """Python's default 4,300-digit limit on int-to-str conversion, whatever the environment set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length to text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_integer_too_long_to_print_is_named_by_field_and_size(int_digit_limit):
    size = "an integer of about 5001 digits"
    with pytest.raises(ValueError, match=f"^h must be a positive finite number, got {size}$"):
        make_catalog("TR", TOO_LONG)
    with pytest.raises(ValueError, match=f"^h must be a finite number, got {size}$"):
        ConstraintSet(k=2, m=1, h=TOO_LONG)
    with pytest.raises(ValueError, match=f"omega_select must be finite, got {size}$"):
        make_catalog("A", 1e-3, -TOO_LONG)
    with pytest.raises(ValueError, match=f"^c0 must be a list of numbers, got {size}$"):
        from_dict({**GOOD_DOC, "c0": TOO_LONG})
    with pytest.raises(ValueError, match="^init values must be finite numbers, got a tuple holding"):
        run(make_catalog("TR", 1e-3), Cosine(1.0), 0.01, (TOO_LONG,))
    assert _shown(-TOO_LONG) == size
    assert _shown(1e-3) == repr(1e-3)


def test_make_catalog_refuses_a_boolean_step():
    with pytest.raises(ValueError, match="^h must be"):
        make_catalog("TR", True)


def test_invalid_tableau_error_names_the_coefficient(int_digit_limit):
    base = make_catalog("D", 1e-3)
    with pytest.raises(ValueError, match=r"finite, got c0\[0\] = 1000+$"):
        require_valid(replace(base, c0=(BEYOND_FLOAT,)))
    with pytest.raises(ValueError, match=r"finite, got c\[1\]\[0\] = nan$"):
        require_structural(replace(base, c=(base.c[0], (math.nan, 0.0))))
    with pytest.raises(ValueError, match=r"finite, got c\[0\]\[1\] = an integer of about 5001 digits$"):
        require_structural(replace(base, c=((1e-3, -TOO_LONG), base.c[1])))
