"""Analysis of the 1D skew tent map x' = a*x + mu_hat (x <= 0), d*x + mu_hat (x >= 0).

Provides the closed-form n-cycle with symbolic sequence R L^(n-1), the
parameter-plane regions where that cycle exists / is attracting / has
just collided with the boundary, the chaotic-band regions, and a
period-three chaos flag.

Every (1 - a^k)/(1 - a) factor is evaluated as the explicit geometric sum
1 + a + ... + a^(k-1), so a = 1 needs no special casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateOffsetError,
    NotAdmissibleError,
    SingularDenominatorError,
)

__all__ = [
    "DEFAULT_CURVE_TOL",
    "SINGULAR_TOL",
    "SkewTentParams",
    "XCycle",
    "Verdict",
    "BandRegion",
    "BandRegionResult",
    "ParamClassification",
    "zero_tolerance",
    "verify_tolerance",
    "geometric_sum",
    "iterate_1d",
    "cycle_x_components",
    "existence_bound",
    "region_exists",
    "on_bifurcation_curve",
    "region_stable",
    "chaotic_band_region",
    "li_yorke_chaos_flag",
    "classify",
]

DEFAULT_CURVE_TOL = 1e-9
SINGULAR_TOL = 1e-12


def zero_tolerance(mu_hat: float) -> float:
    """Default tolerance below which an x-value counts as sitting on the kink."""
    return 1e-9 * max(1.0, abs(mu_hat))


def verify_tolerance(mu_hat: float) -> float:
    """Default tolerance for cycle-closure residuals."""
    return 1e-8 * max(1.0, abs(mu_hat))


@dataclass(frozen=True)
class SkewTentParams:
    """Slopes and offset of the skew tent map.

    a is the slope on x <= 0, d the slope on x >= 0; both branches share
    the offset mu_hat, which makes the map continuous at the kink x = 0.
    """

    a: float
    d: float
    mu_hat: float

    def __post_init__(self):
        for name in ("a", "d", "mu_hat"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class XCycle:
    """x-components of a candidate R L^(n-1) cycle, ordered from the R-point.

    sequence holds one letter per point: 'R' for x > 0, 'L' for x < 0,
    '0' for a point on the kink (within the zero tolerance used).
    """

    n: int
    xs: tuple
    sequence: str

    def __post_init__(self):
        if not (self.n == len(self.xs) == len(self.sequence)):
            raise ValueError("n, xs, and sequence lengths disagree")


class Verdict(str, Enum):
    OUTSIDE_REGION = "OutsideRegion"
    EXISTS_UNSTABLE = "ExistsUnstable"
    EXISTS_STABLE = "ExistsStable"
    ON_BIFURCATION_CURVE = "OnBifurcationCurve"
    NBAND_CHAOS = "NBandChaos"
    TWONBAND_CHAOS = "TwoNBandChaos"


class BandRegion(str, Enum):
    NBAND = "NBand"
    TWO_NBAND = "TwoNBand"
    NEITHER = "Neither"


@dataclass(frozen=True)
class BandRegionResult:
    """Chaotic-band verdict plus the margins of every inequality evaluated."""

    region: BandRegion
    details: dict


@dataclass(frozen=True)
class ParamClassification:
    """Single classification verdict for a parameter point, with residuals.

    Every entry of details is a margin that is positive exactly when the
    corresponding strict inequality is satisfied, except curve_distance,
    which is the absolute distance to the bifurcation curve.
    """

    verdict: Verdict
    n: int
    details: dict


def geometric_sum(ratio, terms: int):
    """Sum of the first `terms` powers of ratio: 1 + ratio + ... + ratio^(terms-1).

    Works elementwise on scalars and numpy arrays.
    """
    if terms < 0:
        raise ValueError("terms must be >= 0")
    total = ratio * 0.0 + 1.0 if terms > 0 else ratio * 0.0
    power = ratio * 0.0 + 1.0
    for _ in range(terms - 1):
        power = power * ratio
        total = total + power
    return total


def iterate_1d(p: SkewTentParams, x: float) -> float:
    """One application of the skew tent map. Both branches agree at x = 0."""
    if x <= 0.0:
        return p.a * x + p.mu_hat
    return p.d * x + p.mu_hat


def cycle_x_components(
    p: SkewTentParams,
    n: int,
    zero_tol: float | None = None,
    singular_tol: float = SINGULAR_TOL,
) -> XCycle:
    """Closed-form x-components of the R L^(n-1) candidate n-cycle.

    x1 = mu_hat * S_n(a) / (1 - a^(n-1) d) with S_k the geometric sum of k
    terms, and for i >= 2
    x_i = mu_hat * (S_{i-1}(a) + a^(i-2) d S_{n-i+1}(a)) / (1 - a^(n-1) d).

    Raises SingularDenominatorError when 1 - a^(n-1) d vanishes,
    DegenerateOffsetError for mu_hat = 0, and NotAdmissibleError when the
    computed signs do not realize the R L^(n-1) pattern (the error carries
    the raw values).
    """
    if n < 2:
        raise ValueError("cycle length n must be >= 2")
    if p.mu_hat == 0.0:
        raise DegenerateOffsetError("mu_hat = 0 collapses the cycle formulas")
    a, d, mu = p.a, p.d, p.mu_hat
    den = 1.0 - a ** (n - 1) * d
    if abs(den) <= singular_tol:
        raise SingularDenominatorError(a, d, n, den)
    if zero_tol is None:
        zero_tol = zero_tolerance(mu)

    # sums[k - 1] = S_k, accumulated in geometric_sum's order
    power = a * 0.0 + 1.0
    sums = [power]
    for _ in range(n - 1):
        power = power * a
        sums.append(sums[-1] + power)
    xs = [sums[n - 1] * mu / den]
    for i in range(2, n + 1):
        xs.append((sums[i - 2] + a ** (i - 2) * d * sums[n - i]) * mu / den)

    letters = []
    for x in xs:
        if x > zero_tol:
            letters.append("R")
        elif x < -zero_tol:
            letters.append("L")
        else:
            letters.append("0")
    sequence = "".join(letters)
    if sequence[0] != "R" or any(c == "R" for c in sequence[1:]):
        raise NotAdmissibleError(xs, sequence)
    return XCycle(n=n, xs=tuple(xs), sequence=sequence)


def _require_region_n(n: int) -> None:
    if n < 3:
        raise ValueError("region tests are defined for n >= 3")


def _orient(a: float, d: float, mu_sign: str):
    """Map a mu_hat < 0 query onto the mu_hat > 0 form by swapping (a, d)."""
    if mu_sign == "+":
        return a, d
    if mu_sign == "-":
        return d, a
    raise ValueError(f"mu_sign must be '+' or '-', got {mu_sign!r}")


def _bound(a, n: int):
    """-S_{n-1}(a) / a^(n-2) for a float or a float array a.

    The power is taken on an array in both cases: numpy's array power and
    the C library's pow can differ in the last bit, and a scalar must
    round exactly as the same value does inside a grid.
    """
    return -geometric_sum(a, n - 1) / np.asarray(a) ** (n - 2)


def existence_bound(a, n: int):
    """Upper bound on d for existence of the R L^(n-1) cycle (mu_hat > 0).

    Equals -S_{n-1}(a) / a^(n-2) in geometric-sum form; -(n-1) at a = 1.
    Elementwise on arrays; -inf at a = 0 (the region pinches off there).
    """
    _require_region_n(n)
    arr = np.asarray(a, dtype=float)
    scalar = arr.ndim == 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = _bound(float(arr) if scalar else arr, n)
    return float(bound) if scalar else bound


def _margins(a: float, d: float, n: int) -> dict:
    """Margin of every region inequality at (a, d) for mu_hat > 0.

    Positive means the strict inequality holds, except curve_distance,
    the absolute distance |d - bound| to the border-collision curve. The
    bound is evaluated once and rounds exactly as existence_bound. A power
    that over- or underflows gives an infinite or zero margin, not a
    warning or an exception.
    """
    a64 = np.float64(a)
    d64 = np.float64(d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = _bound(float(a), n)
        power = a64 ** (n - 1)
        cubic = a64 ** (2 * (n - 1)) * d64**3 + a64 - d64
        quad = power * d64**2 + d64 - a64
        return {
            "slope_sign_margin": float(a),
            "existence_margin": float(bound - d64),
            "curve_distance": float(abs(d64 - bound)),
            "stability_lower_margin": float(d64 + 1.0 / power),
            "nband_cubic_margin": float(-cubic),
            "nband_quadratic_margin": float(-quad),
            "twonband_flip_margin": float(-1.0 / power - d64),
            "twonband_cubic_margin": float(cubic),
        }


_BAND_KEYS = (
    "existence_margin",
    "nband_cubic_margin",
    "nband_quadratic_margin",
    "twonband_flip_margin",
    "twonband_cubic_margin",
)


def _exists(m: dict) -> bool:
    return m["slope_sign_margin"] > 0 and m["existence_margin"] > 0


def _on_curve(m: dict, tol: float) -> bool:
    return m["slope_sign_margin"] > 0 and m["curve_distance"] <= tol


def _stable(m: dict) -> bool:
    return _exists(m) and m["stability_lower_margin"] > 0


def _band(m: dict) -> BandRegion:
    if _exists(m):
        if m["nband_cubic_margin"] > 0 and m["nband_quadratic_margin"] > 0:
            return BandRegion.NBAND
        if m["twonband_flip_margin"] > 0 and m["twonband_cubic_margin"] > 0:
            return BandRegion.TWO_NBAND
    return BandRegion.NEITHER


def region_exists(a: float, d: float, n: int, mu_sign: str = "+") -> bool:
    """Strict membership in the existence region of the R L^(n-1) cycle.

    Points exactly on the bifurcation curve are excluded here; use
    on_bifurcation_curve for the boundary. mu_sign '-' evaluates the
    mirrored region via the swapped pair (d, a).
    """
    aa, dd = _orient(a, d, mu_sign)
    _require_region_n(n)
    return _exists(_margins(aa, dd, n))


def on_bifurcation_curve(
    a: float, d: float, n: int, mu_sign: str = "+", tol: float = DEFAULT_CURVE_TOL
) -> bool:
    """True when (a, d) lies on the border-collision curve within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    aa, dd = _orient(a, d, mu_sign)
    _require_region_n(n)
    return _on_curve(_margins(aa, dd, n), tol)


def region_stable(a: float, d: float, n: int) -> bool:
    """True when the R L^(n-1) cycle exists and is attracting (mu_hat > 0).

    Equivalent to interior existence together with |a^(n-1) d| < 1.
    """
    _require_region_n(n)
    return _stable(_margins(a, d, n))


def chaotic_band_region(a: float, d: float, n: int) -> BandRegionResult:
    """Chaotic-band region test for the parameter point.

    NBand: the cycle exists (a > 0 and d below the existence bound),
    a^(2(n-1)) d^3 + a - d < 0 and a^(n-1) d^2 + d - a < 0 (an n-band
    chaotic attractor). TwoNBand: the cycle exists, d < -1/a^(n-1) and
    the cubic expression is positive (a 2n-band attractor). Neither
    otherwise. The margins of the band inequalities are reported in the
    result's details.
    """
    _require_region_n(n)
    m = _margins(a, d, n)
    return BandRegionResult(region=_band(m), details={k: m[k] for k in _BAND_KEYS})


def li_yorke_chaos_flag(p: SkewTentParams) -> bool:
    """Period three implies chaos: true iff an admissible 3-cycle exists.

    Existence (stable or not) of the 3-cycle for the sign of mu_hat is
    enough; mu_hat = 0 is rejected as degenerate.
    """
    if p.mu_hat == 0.0:
        raise DegenerateOffsetError("mu_hat = 0 has no admissible 3-cycle")
    sign = "+" if p.mu_hat > 0 else "-"
    return region_exists(p.a, p.d, 3, sign)


def classify(
    a: float, d: float, n: int, mu_sign: str = "+", tol: float = DEFAULT_CURVE_TOL
) -> ParamClassification:
    """Classify a parameter point for the length-n cycle family.

    Verdict precedence: OnBifurcationCurve, then ExistsStable, then
    NBandChaos / TwoNBandChaos, then ExistsUnstable, then OutsideRegion.
    details carries the margin of every inequality evaluated (positive
    means satisfied) plus the absolute curve distance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    aa, dd = _orient(a, d, mu_sign)
    _require_region_n(n)

    m = _margins(aa, dd, n)
    band = _band(m)
    if _on_curve(m, tol):
        verdict = Verdict.ON_BIFURCATION_CURVE
    elif _stable(m):
        verdict = Verdict.EXISTS_STABLE
    elif band is BandRegion.NBAND:
        verdict = Verdict.NBAND_CHAOS
    elif band is BandRegion.TWO_NBAND:
        verdict = Verdict.TWONBAND_CHAOS
    elif _exists(m):
        verdict = Verdict.EXISTS_UNSTABLE
    else:
        verdict = Verdict.OUTSIDE_REGION
    return ParamClassification(verdict=verdict, n=n, details=m)
