"""Root-based suitability screening of differentiator tableaus.

The feedback weights on previously computed k-th derivatives form a monic
polynomial whose roots are the eigenvalues of the recursion's state
transition. Roots on or outside the unit circle let injected errors
persist (bias at +1, step-to-step oscillation at -1) or grow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._files import atomic_write_text
from ._numpy import np
from .tableau import (
    FREQUENCY_TUNED,
    OMEGA_SYN,
    ObreshkovTableau,
    _feedback_ratios,
    make_catalog,
    require_structural,
)

__all__ = [
    "Classification",
    "CharacteristicPolynomial",
    "RootEvidence",
    "SuitabilityReport",
    "TABLE2_MEMBERS",
    "characteristic_polynomial",
    "classify",
    "classify_tableau",
    "format_polynomial",
    "polynomial_roots",
    "report_csv",
    "report_text",
    "table2_report",
    "write_report_csv",
]

DEFAULT_EPS_ROOT = 1e-9

TABLE2_MEMBERS = ("A", "B", "C", "D", "E", "F")


class Classification(str, Enum):
    IDEAL = "IDEAL"
    ASYMPTOTIC = "ASYMPTOTIC"
    PERSISTENT_BOUNDED = "PERSISTENT_BOUNDED"
    OSCILLATORY = "OSCILLATORY"
    BIASED = "BIASED"
    DIVERGENT = "DIVERGENT"


SUITABLE = frozenset({Classification.IDEAL, Classification.ASYMPTOTIC})

_HAZARDS = {
    Classification.BIASED: "Bias",
    Classification.OSCILLATORY: "Numerical oscillation",
    Classification.PERSISTENT_BOUNDED: "Persistent error",
    Classification.DIVERGENT: "Divergence",
}


@dataclass(frozen=True)
class CharacteristicPolynomial:
    """Monic, descending powers: coefficients[0] == 1.0, degree == m."""

    coefficients: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for coeff in self.coefficients:
            acc = acc * z + coeff
        return acc


@dataclass(frozen=True)
class RootEvidence:
    root: complex
    magnitude: float
    dist_zero: float
    dist_plus_one: float
    dist_minus_one: float


@dataclass(frozen=True)
class SuitabilityReport:
    label: str
    polynomial: CharacteristicPolynomial
    roots: tuple[complex, ...]
    classification: Classification
    suitable: bool
    evidence: tuple[RootEvidence, ...]

    @property
    def hazard(self) -> str:
        return _HAZARDS.get(self.classification, "--")


def characteristic_polynomial(t: ObreshkovTableau) -> CharacteristicPolynomial:
    """Monic polynomial whose coefficients are the stale k-th-derivative weight ratios."""
    require_structural(t)
    return CharacteristicPolynomial(coefficients=(1.0,) + _feedback_ratios(t))


def _companion(p: CharacteristicPolynomial) -> np.ndarray:
    """Companion matrix of monic p: negated coefficients on top, ones below the diagonal."""
    companion = np.eye(p.degree, k=-1)
    companion[0, :] = [-c for c in p.coefficients[1:]]
    return companion


def polynomial_roots(p: CharacteristicPolynomial) -> tuple[complex, ...]:
    """All degree-many roots, sorted by (re, im).

    Degree 1 takes the exact closed form -p1; higher degrees (and a
    non-finite p1, which eigvals rejects) go through the eigenvalues of the
    companion matrix. Trailing zero coefficients are kept, so the root
    count always matches the recursion's state dimension.
    """
    if p.coefficients[0] != 1.0:
        raise ValueError("polynomial must be monic")
    d = p.degree
    if d == 0:
        return ()
    if d == 1 and math.isfinite(p.coefficients[1]):
        return (complex(-p.coefficients[1]),)
    roots = np.linalg.eigvals(_companion(p))
    return tuple(sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag)))


def _evidence(roots) -> tuple[RootEvidence, ...]:
    return tuple(
        RootEvidence(
            root=r,
            magnitude=abs(r),
            dist_zero=abs(r),
            dist_plus_one=abs(r - 1.0),
            dist_minus_one=abs(r + 1.0),
        )
        for r in roots
    )


def classify(roots, eps_root: float = DEFAULT_EPS_ROOT) -> Classification:
    """Precedence: DIVERGENT, BIASED, OSCILLATORY, PERSISTENT_BOUNDED, IDEAL, ASYMPTOTIC."""
    if not eps_root > 0:
        raise ValueError(f"eps_root must be positive, got {eps_root!r}")
    roots = tuple(complex(r) for r in roots)
    if not all(math.isfinite(r.real) and math.isfinite(r.imag) for r in roots):
        raise ValueError("roots must be finite")
    mags = [abs(r) for r in roots]
    if any(mag > 1.0 + eps_root for mag in mags):
        return Classification.DIVERGENT
    if any(abs(r - 1.0) <= eps_root for r in roots):
        return Classification.BIASED
    if any(abs(r + 1.0) <= eps_root for r in roots):
        return Classification.OSCILLATORY
    if any(abs(mag - 1.0) <= eps_root for mag in mags):
        return Classification.PERSISTENT_BOUNDED
    if all(mag <= eps_root for mag in mags):
        return Classification.IDEAL
    return Classification.ASYMPTOTIC


def classify_tableau(t: ObreshkovTableau, eps_root: float = DEFAULT_EPS_ROOT) -> SuitabilityReport:
    poly = characteristic_polynomial(t)
    roots = polynomial_roots(poly)
    label = t.label if t.label is not None else f"k{t.k}m{t.m}"
    classification = classify(roots, eps_root)
    return SuitabilityReport(
        label=label,
        polynomial=poly,
        roots=roots,
        classification=classification,
        suitable=classification in SUITABLE,
        evidence=_evidence(roots),
    )


def table2_report(
    h: float = 1e-3,
    omega_select: float = OMEGA_SYN,
    eps_root: float = DEFAULT_EPS_ROOT,
) -> tuple[SuitabilityReport, ...]:
    """Suitability screen of the six second-derivative catalog members."""
    reports = []
    for name in TABLE2_MEMBERS:
        omega = omega_select if name in FREQUENCY_TUNED else None
        reports.append(classify_tableau(make_catalog(name, h, omega), eps_root))
    return tuple(reports)


def format_polynomial(p: CharacteristicPolynomial, var: str = "z", digits: int = 6) -> str:
    parts: list[str] = []
    d = p.degree
    for idx, coeff in enumerate(p.coefficients):
        power = d - idx
        if idx == 0:
            parts.append(var if power == 1 else f"{var}^{power}")
            continue
        if coeff == 0.0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = f"{abs(coeff):.{digits}g}"
        if power == 0:
            parts.append(f"{sign} {mag}")
        elif power == 1:
            parts.append(f"{sign} {mag} {var}")
        else:
            parts.append(f"{sign} {mag} {var}^{power}")
    return " ".join(parts)


def _format_root(r: complex, fmt: str) -> str:
    return f"{r.real:{fmt}}{r.imag:+{fmt}}j"


def report_csv(reports) -> str:
    """One row per integrator; multi-valued cells are ;-joined."""
    lines = ["label,polynomial_coefficients,roots,classification,suitable"]
    for rep in reports:
        coeffs = ";".join(f"{c:.17g}" for c in rep.polynomial.coefficients)
        roots = ";".join(_format_root(r, ".17g") for r in rep.roots)
        lines.append(
            f"{rep.label},{coeffs},{roots},{rep.classification.value},"
            f"{'yes' if rep.suitable else 'no'}"
        )
    return "\n".join(lines) + "\n"


def report_text(reports) -> str:
    rows = [("label", "polynomial", "roots", "classification", "suitable", "hazard")]
    for rep in reports:
        rows.append(
            (
                rep.label,
                format_polynomial(rep.polynomial),
                ", ".join(_format_root(r, ".6g") for r in rep.roots),
                rep.classification.value,
                "yes" if rep.suitable else "no",
                rep.hazard,
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    out = []
    for row in rows:
        out.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


def write_report_csv(reports, path) -> None:
    atomic_write_text(path, report_csv(reports))
