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
import operator
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


def _power_sum(ratio, terms: int):
    """S_terms(ratio) and ratio^(terms - 1), terms >= 1, from one chain of
    multiplications, which round alike on numpy scalars and arrays."""
    power = ratio * 0.0 + 1.0
    total = power
    for _ in range(terms - 1):
        power = power * ratio
        total = total + power
    return total, power


def geometric_sum(ratio, terms: int):
    """Sum of the first `terms` powers of ratio: 1 + ratio + ... + ratio^(terms-1).

    Works elementwise on scalars and numpy arrays.
    """
    if terms < 0:
        raise ValueError("terms must be >= 0")
    return _power_sum(ratio, terms)[0] if terms > 0 else ratio * 0.0


def iterate_1d(p: SkewTentParams, x: float) -> float:
    """One application of the skew tent map. Both branches agree at x = 0."""
    if x <= 0.0:
        return p.a * x + p.mu_hat
    return p.d * x + p.mu_hat


def _sign_word(xs, zero_tol: float) -> str:
    """One letter per x-value: 'R' above zero_tol, 'L' below -zero_tol, else '0'."""
    return "".join(
        ["R" if x > zero_tol else "L" if x < -zero_tol else "0" for x in xs]
    )


def cycle_x_components(
    p: SkewTentParams,
    n: int,
    zero_tol: float | None = None,
) -> XCycle:
    """Closed-form x-components of the R L^(n-1) candidate n-cycle.

    x1 = mu_hat * S_n(a) / (1 - a^(n-1) d) with S_k the geometric sum of k
    terms, and for i >= 2
    x_i = mu_hat * (S_{i-1}(a) + a^(i-2) d S_{n-i+1}(a)) / (1 - a^(n-1) d).

    Raises ValueError unless n is an integer >= 2,
    SingularDenominatorError when 1 - a^(n-1) d is zero within
    SINGULAR_TOL, DegenerateOffsetError for mu_hat = 0, and
    NotAdmissibleError when the computed signs do not realize the
    R L^(n-1) pattern (the error carries the raw values) or when a^(n-1)
    overflows, so that no point is computed.
    """
    n = _require_count(n, "cycle length n", 2)
    if p.mu_hat == 0.0:
        raise DegenerateOffsetError("mu_hat = 0 collapses the cycle formulas")
    a, d, mu = p.a, p.d, p.mu_hat
    try:
        den = 1.0 - a ** (n - 1) * d
    except OverflowError:
        raise NotAdmissibleError((), "", f"a^{n - 1} overflows for a={a!r}") from None
    if abs(den) <= SINGULAR_TOL:
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

    sequence = _sign_word(xs, zero_tol)
    if sequence[0] != "R" or any(c == "R" for c in sequence[1:]):
        raise NotAdmissibleError(xs, sequence)
    return XCycle(n=n, xs=tuple(xs), sequence=sequence)


def _require_int(value, name: str) -> int:
    """value as an int; ValueError unless it is an integer (a bool is not)."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return index


def _require_count(value, name: str, minimum: int) -> int:
    """value as an int; ValueError unless it is an integer >= minimum."""
    index = _require_int(value, name)
    if index < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return index


def _require_region_n(n) -> int:
    """n as an int; ValueError unless n is an integer >= 3."""
    n = _require_int(n, "cycle length n")
    if n < 3:
        raise ValueError("region tests are defined for n >= 3")
    return n


def _require_tol(tol: float, name: str = "tol") -> None:
    # a NaN tol would pass `tol <= 0` and then fail every comparison
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be a finite positive number, got {tol!r}")


def _require_mu_sign(mu_sign: str) -> None:
    if mu_sign not in ("+", "-"):
        raise ValueError(f"mu_sign must be '+' or '-', got {mu_sign!r}")


def _bound(a, n: int):
    """-S_{n-1}(a) / a^(n-2) and a^(n-2), for a numpy scalar or array a.

    Both come from one multiplication chain, so a point and a grid cell
    with the same a get the same bits.
    """
    total, power = _power_sum(a, n - 1)
    return -total / power, power


def existence_bound(a, n: int):
    """Upper bound on d for existence of the R L^(n-1) cycle (mu_hat > 0).

    Equals -S_{n-1}(a) / a^(n-2) in geometric-sum form; -(n-1) at a = 1.
    Elementwise on arrays; -inf at a = 0 (the region pinches off there).
    """
    n = _require_region_n(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _bound(np.asarray(a, dtype=float), n)[0]


def _existence_margins(a, d, n: int):
    """The existence margin bound - d, and a^(n-2).

    The caller silences floating-point warnings.
    """
    bound, power = _bound(a, n)
    return bound - d, power


def _margins(a, d, n: int):
    """The independent region quantities at (a, d) for mu_hat > 0.

    Returns (ex, stab, cubic, quad, inv) with P = a^(n-1) and inv = 1/P:
    ex = bound - d (existence), stab = d + 1/P (stability), cubic =
    P^2 d^3 + a - d and quad = P d^2 + d - a (the band inequalities).
    Every other margin is one of them negated or one step away (see
    _point), so a grid gets four arrays of its size and inv gets the
    size of the a axis. The same code runs on numpy scalars (single
    points), on arrays, and on a column of a and a row of d that
    broadcast to a grid, so the chain runs once per a value. Every
    power is a product of the chain in _bound, augmented assignment
    keeps each operation's operands and order, and broadcasting keeps
    them too, so a point and a grid cell agree bit for bit. A power that
    over- or underflows gives an infinite or zero margin, not a warning.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ex, power = _existence_margins(a, d, n)
        power = power * a
        inv = 1.0 / power
        d2 = d * d
        stab = d + inv
        cubic = power * power * (d2 * d)
        cubic += a
        cubic -= d
        quad = power * d2
        quad += d
        quad -= a
    return ex, stab, cubic, quad, inv


# Region flags: one bit per verdict above OutsideRegion, in rising
# precedence, so the highest set bit names the verdict.
_VERDICTS = (
    Verdict.OUTSIDE_REGION,
    Verdict.EXISTS_UNSTABLE,
    Verdict.TWONBAND_CHAOS,
    Verdict.NBAND_CHAOS,
    Verdict.EXISTS_STABLE,
    Verdict.ON_BIFURCATION_CURVE,
)
_EXISTS, _TWONBAND, _NBAND, _STABLE, _CURVE = (np.uint8(1 << k) for k in range(5))
_VERDICT_OF_FLAGS = tuple(_VERDICTS[flags.bit_length()] for flags in range(32))
# The two bands never overlap: they need opposite signs of one cubic.
_BANDS = {
    0: BandRegion.NEITHER, _NBAND: BandRegion.NBAND, _TWONBAND: BandRegion.TWO_NBAND
}
_BAND_KEYS = (
    "existence_margin",
    "nband_cubic_margin",
    "nband_quadratic_margin",
    "twonband_flip_margin",
    "twonband_cubic_margin",
)


def _exists(a, ex):
    return (a > 0) & (ex > 0)


def _flags(a, m, tol: float):
    """Region flags at slope a with the quantities m of _margins: a uint8
    for floats, a uint8 array for arrays.

    Each test reads a sign: stability is stab > 0, NBand cubic < 0 and
    quad < 0, TwoNBand stab < 0 and cubic > 0. Stability and both bands
    lie inside the existence region; the curve needs a positive slope
    and |ex| <= tol, tested as two comparisons, with no array of |ex|.
    """
    ex, stab, cubic, quad = m[:4]
    positive = a > 0
    exists = positive & (ex > 0)
    flags = _EXISTS * exists
    flags |= _TWONBAND * (exists & (stab < 0) & (cubic > 0))
    flags |= _NBAND * (exists & (cubic < 0) & (quad < 0))
    flags |= _STABLE * (exists & (stab > 0))
    flags |= _CURVE * (positive & (-tol <= ex) & (ex <= tol))
    return flags


def _point(a: float, d: float, n: int, mu_sign: str = "+", tol=DEFAULT_CURVE_TOL):
    """Margins, as floats, and flags at one point; mu_sign '-' swaps (a, d)."""
    _require_mu_sign(mu_sign)
    if not (math.isfinite(a) and math.isfinite(d)):
        raise ValueError(f"a and d must be finite, got a={a!r}, d={d!r}")
    aa, dd = (float(a), float(d)) if mu_sign == "+" else (float(d), float(a))
    n = _require_region_n(n)
    m = [float(v) for v in _margins(np.float64(aa), np.float64(dd), n)]
    ex, stab, cubic, quad, inv = m
    # negation is exact and rounding symmetric, so each derived margin has
    # the bits of its direct formula; the flip margin is -(1/P) - d, since
    # -stab would give its zero the other sign
    details = {
        "slope_sign_margin": aa,
        "existence_margin": ex,
        "curve_distance": abs(ex),
        "stability_lower_margin": stab,
        "nband_cubic_margin": -cubic,
        "nband_quadratic_margin": -quad,
        "twonband_flip_margin": -inv - dd,
        "twonband_cubic_margin": cubic,
    }
    return details, _flags(aa, m, tol)


def region_exists(a: float, d: float, n: int, mu_sign: str = "+") -> bool:
    """Strict membership in the existence region of the R L^(n-1) cycle.

    Points exactly on the bifurcation curve are excluded here; use
    on_bifurcation_curve for the boundary. mu_sign '-' evaluates the
    mirrored region via the swapped pair (d, a).
    """
    return bool(_point(a, d, n, mu_sign)[1] & _EXISTS)


def on_bifurcation_curve(
    a: float, d: float, n: int, mu_sign: str = "+", tol: float = DEFAULT_CURVE_TOL
) -> bool:
    """True when (a, d) lies on the border-collision curve within tol."""
    _require_tol(tol)
    return bool(_point(a, d, n, mu_sign, tol)[1] & _CURVE)


def region_stable(a: float, d: float, n: int) -> bool:
    """True when the R L^(n-1) cycle exists and is attracting (mu_hat > 0).

    Equivalent to interior existence together with |a^(n-1) d| < 1.
    """
    return bool(_point(a, d, n)[1] & _STABLE)


def chaotic_band_region(a: float, d: float, n: int) -> BandRegionResult:
    """Chaotic-band region test for the parameter point.

    NBand: the cycle exists (a > 0 and d below the existence bound),
    a^(2(n-1)) d^3 + a - d < 0 and a^(n-1) d^2 + d - a < 0 (an n-band
    chaotic attractor). TwoNBand: the cycle exists, d < -1/a^(n-1) and
    the cubic expression is positive (a 2n-band attractor). Neither
    otherwise. The margins of the band inequalities are reported in the
    result's details.
    """
    m, flags = _point(a, d, n)
    region = _BANDS[flags & (_NBAND | _TWONBAND)]
    return BandRegionResult(region=region, details={k: m[k] for k in _BAND_KEYS})


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
    _require_tol(tol)
    m, flags = _point(a, d, n, mu_sign, tol)
    return ParamClassification(verdict=_VERDICT_OF_FLAGS[flags], n=n, details=m)
