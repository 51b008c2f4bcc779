"""Analysis of the 1D skew tent map x' = a*x + mu_hat (x <= 0), d*x + mu_hat (x >= 0).

Provides the closed-form n-cycle R L^(n-1) (L R^(n-1) for mu_hat < 0),
the parameter-plane regions where that cycle exists / is attracting /
has just collided with the boundary, the chaotic-band regions, and a
period-three chaos flag.

Every power a^k and every (1 - a^k)/(1 - a), as the sum 1 + ... + a^(k-1),
comes from one multiplication chain (_chain), so a = 1 needs no special casing.
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
    """Default tolerance below which an x-value counts as sitting on the
    kink: DEFAULT_CURVE_TOL in units of |mu_hat|, as classify reads it."""
    return DEFAULT_CURVE_TOL * abs(mu_hat)


def _kink_tol(zero_tol: float | None, mu_hat: float) -> float:
    """zero_tol, or zero_tolerance(mu_hat) when None; ValueError unless a
    given zero_tol is finite and positive. The default is not checked, so
    mu_hat = 0 reaches the caller's DegenerateOffsetError."""
    if zero_tol is None:
        return zero_tolerance(mu_hat)
    _require_tol(zero_tol, "zero_tol")
    return zero_tol


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
    """x-components of a candidate cycle, ordered from its first point:
    the R-point of R L^(n-1), or the L-point of L R^(n-1) (mu_hat < 0).

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

    Each detail is positive exactly when its strict inequality holds,
    except curve_distance, the distance of the cycle's last point from
    the kink in units of |mu_hat| (to first order; see _margins), which
    the verdict compares with tol. Where the cycle exists, the stability
    margin 1 + a^(n-1) d is 1 - |x multiplier|.
    """

    verdict: Verdict
    n: int
    details: dict


def _chain(ratio, terms: int):
    """(S_k(ratio), ratio^(k - 1)) for k = 1..terms: the package's one chain
    of multiplications for geometric sums and powers, which rounds alike
    on floats, numpy scalars and arrays."""
    power = ratio * 0.0 + 1.0
    total = power
    yield total, power
    for _ in range(terms - 1):
        power = power * ratio
        total = total + power
        yield total, power


def geometric_sum(ratio, terms: int):
    """Sum of the first `terms` powers of ratio: 1 + ratio + ... + ratio^(terms-1).

    Works elementwise on scalars and numpy arrays.
    """
    if terms < 0:
        raise ValueError("terms must be >= 0")
    for total, _ in _chain(ratio, terms):
        pass
    return total if terms else ratio * 0.0


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


def _cycle_points(a: float, d: float, word: str, product: float, numerators):
    """numerators / (1 - product), the points of word's cycle at slopes (a, d)
    with x multiplier product: both x solvers' one denominator rule. Raises
    SingularDenominatorError when |1 - product| <= SINGULAR_TOL and
    NotAdmissibleError (points, word) when product or a point is not finite,
    so no NaN point is read as a letter."""
    n = len(word)
    den = 1.0 - product
    if abs(den) <= SINGULAR_TOL:
        raise SingularDenominatorError(a, d, n, den, _power_name(word))
    xs = [c / den for c in numerators]
    if not (math.isfinite(product) and all(map(math.isfinite, xs))):
        raise NotAdmissibleError(
            xs, word, f"the {n}-cycle overflows for a={a!r}, d={d!r}: "
            f"x multiplier {_power_name(word)} = {product!r}",
        )
    return xs


def _power_name(word: str) -> str:
    """The word's x multiplier as a^(#L)*d^(#R), '0' letters counted as L."""
    return f"a^{len(word) - word.count('R')}*d^{word.count('R')}"


def cycle_x_components(
    p: SkewTentParams,
    n: int,
    zero_tol: float | None = None,
) -> XCycle:
    """Closed-form x-components of the candidate n-cycle of the family
    the sign of mu_hat names: R L^(n-1) for mu_hat > 0, else L R^(n-1).

    For R L^(n-1), x1 = mu_hat * S_n(a) / (1 - a^(n-1) d) with S_k the
    geometric sum of k terms, and for i >= 2
    x_i = mu_hat * (S_{i-1}(a) + a^(i-2) d S_{n-i+1}(a)) / (1 - a^(n-1) d).
    Every S_k and power comes from one _chain, so a^(n-1) d is classify's
    and solve_cycle's x multiplier. L R^(n-1) swaps a and d, so its points
    are, bit for bit, the negated R L^(n-1) points of (d, a, -mu_hat) (the
    conjugacy x -> -x).

    Raises ValueError unless n is an integer >= 2 and a given zero_tol is
    finite and positive, DegenerateOffsetError for mu_hat = 0, what
    _cycle_points raises, and NotAdmissibleError when the signs do not
    realize the family's pattern (the error carries the raw values).
    """
    n = _require_count(n, "cycle length n", 2)
    zero_tol = _kink_tol(zero_tol, p.mu_hat)
    if p.mu_hat == 0.0:
        raise DegenerateOffsetError("mu_hat = 0 collapses the cycle formulas")
    mu = p.mu_hat
    first, rest, a, d = ("R", "L", p.a, p.d) if mu > 0 else ("L", "R", p.d, p.a)
    links = list(_chain(a, n))  # (S_k, a^(k-1)) for k = 1..n
    total, power = links[-1]
    # x_i, i >= 2, reads S_(i-1) and a^(i-2) from link i - 1, S_(n-i+1) from n - i + 1
    numerators = [total * mu] + [
        (s + q * d * r) * mu for (s, q), (r, _) in zip(links, links[-2::-1])
    ]
    xs = _cycle_points(p.a, p.d, first + rest * (n - 1), power * d, numerators)
    sequence = _sign_word(xs, zero_tol)
    if sequence[0] != first or first in sequence[1:]:
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


def existence_bound(a, n: int):
    """Upper bound on d for existence of the R L^(n-1) cycle (mu_hat > 0).

    Equals -S_{n-1}(a) / a^(n-2) in geometric-sum form; -(n-1) at a = 1.
    Elementwise on arrays; -inf at a = 0 (the region pinches off there).
    """
    n = _require_region_n(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _bound(np.asarray(a, dtype=float), n)[0]


def _bound(a, n: int):
    """-S_(n-1)(a) / a^(n-2) and a^(n-2), for a numpy scalar or array a."""
    for total, power in _chain(a, n - 1):
        pass
    return -total / power, power


def _line(a, n: int):
    """The region kernel's constants of slope a (numpy scalar or array), all
    from one chain: bound, r = 1 / (a - bound), P = a^(n-1) and fl(P P).
    A point and a grid cell with one a read one set."""
    bound, power = _bound(a, n)
    p = power * a
    return bound, 1.0 / (a - bound), p, p * p


def _bands(a, p, pp, d):
    """The band cubic PP d^3 + a - d and quadratic P d^2 + d - a, P = p and
    PP = pp, and their leading terms PP d^3 and P d^2."""
    d2 = d * d
    t, w = pp * (d2 * d), p * d2
    cubic = t + a
    cubic -= d
    quad = w + d
    quad -= a
    return cubic, quad, t, w


def _margins(a, d, n: int):
    """The independent region quantities at (a, d) for mu_hat > 0.

    Returns (ex, kink, pd, cubic, quad) with _line's constants: ex =
    bound - d (existence), kink = ex r (the curve), pd = P d (the cycle's
    x multiplier) and _bands' cubic and quadratic. The cycle's last point is
    x_n = -mu_hat ex / (a - bound + a ex), so kink is x_n / -mu_hat to
    first order, and |kink| <= tol is the solvers' kink rule
    |x_n| <= tol |mu_hat| (zero_tolerance). Every other margin is one of
    them negated or one step away (see _point), so a grid gets five
    arrays of its size. The same code runs on numpy scalars (single
    points), on arrays, and on a column of a and a row of d that
    broadcast to a grid, so _line runs once per a value; broadcasting
    keeps each operation's operands and order, so a point and a grid
    cell agree bit for bit. A power that over- or underflows gives an
    infinite or zero margin, not a warning.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound, r, p, pp = _line(a, n)
        ex = bound - d
        kink = ex * r
        pd = p * d
        cubic, quad, _, _ = _bands(a, p, pp, d)
    return ex, kink, pd, cubic, quad


# Region flags: one bit per verdict above OutsideRegion, in rising
# precedence, so the highest set bit names the verdict: the code of a
# flag set, its index in _VERDICTS, is flags.bit_length().
_VERDICTS = (
    Verdict.OUTSIDE_REGION,
    Verdict.EXISTS_UNSTABLE,
    Verdict.TWONBAND_CHAOS,
    Verdict.NBAND_CHAOS,
    Verdict.EXISTS_STABLE,
    Verdict.ON_BIFURCATION_CURVE,
)
_EXISTS, _TWONBAND, _NBAND, _STABLE, _CURVE = (np.uint8(1 << k) for k in range(5))
_CODE_OF_FLAGS = np.array([flags.bit_length() for flags in range(32)], np.uint8)
_VERDICT_OF_FLAGS = tuple(_VERDICTS[code] for code in _CODE_OF_FLAGS)
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


def _flag_rule(exists, flip, stable, cubic_pos, cubic_neg, quad_neg, curve):
    """Region flags from the seven sign tests, each a bool or a bool
    array: a uint8 for bools, a uint8 array for arrays.

    The tests are existence, the flip pd < -1, stability pd > -1, the
    band cubic > 0 and < 0, the band quadratic < 0 and the curve. NBand
    is cubic < 0 and quad < 0, TwoNBand the flip and cubic > 0;
    stability and both bands lie inside the existence region, where
    pd < 0. The curve is read as given.
    """
    flags = _EXISTS * exists
    flags |= _TWONBAND * (exists & flip & cubic_pos)
    flags |= _NBAND * (exists & cubic_neg & quad_neg)
    flags |= _STABLE * (exists & stable)
    flags |= _CURVE * curve
    return flags


def _flags(a, m, tol: float):
    """Region flags at slope a with the quantities m of _margins, by
    _flag_rule: each test reads the sign of a margin, and the curve
    needs a positive slope and |kink| <= tol, tested as two comparisons.
    """
    ex, kink, pd, cubic, quad = m
    positive = a > 0
    return _flag_rule(
        positive & (ex > 0), pd < -1.0, pd > -1.0, cubic > 0, cubic < 0, quad < 0,
        positive & (-tol <= kink) & (kink <= tol))


def _point(a: float, d: float, n: int, mu_sign: str = "+", tol=DEFAULT_CURVE_TOL):
    """Margins, as floats, and flags at one point; mu_sign '-' swaps (a, d).
    The stability margin is 1 + pd and the flip margin -1 - pd."""
    _require_mu_sign(mu_sign)
    if not (math.isfinite(a) and math.isfinite(d)):
        raise ValueError(f"a and d must be finite, got a={a!r}, d={d!r}")
    aa, dd = (float(a), float(d)) if mu_sign == "+" else (float(d), float(a))
    n = _require_region_n(n)
    m = list(map(float, _margins(np.float64(aa), np.float64(dd), n)))
    ex, kink, pd, cubic, quad = m
    # negation is exact and rounding symmetric, so each derived margin has
    # the bits of its direct formula; 1 + pd and -1 - pd have exact signs
    details = {
        "slope_sign_margin": aa,
        "existence_margin": ex,
        "curve_distance": abs(kink),
        "stability_lower_margin": 1.0 + pd,
        "nband_cubic_margin": -cubic,
        "nband_quadratic_margin": -quad,
        "twonband_flip_margin": -1.0 - pd,
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
    """True when (a, d) lies on the border-collision curve: the cycle's last
    point lies within tol |mu_hat| of the kink (curve_distance <= tol)."""
    _require_tol(tol)
    return bool(_point(a, d, n, mu_sign, tol)[1] & _CURVE)


def region_stable(a: float, d: float, n: int) -> bool:
    """True when the R L^(n-1) cycle exists and is attracting (mu_hat > 0).

    Equivalent, bit for bit, to existence with solve_cycle's |a^(n-1) d| < 1.
    """
    return bool(_point(a, d, n)[1] & _STABLE)


def chaotic_band_region(a: float, d: float, n: int) -> BandRegionResult:
    """Chaotic-band region test for the parameter point.

    NBand: the cycle exists (a > 0 and d below the existence bound),
    a^(2(n-1)) d^3 + a - d < 0 and a^(n-1) d^2 + d - a < 0 (an n-band
    chaotic attractor). TwoNBand: the cycle exists, a^(n-1) d < -1 and
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
    means satisfied) plus curve_distance, which OnBifurcationCurve bounds
    by tol.
    """
    _require_tol(tol)
    m, flags = _point(a, d, n, mu_sign, tol)
    return ParamClassification(verdict=_VERDICT_OF_FLAGS[flags], n=n, details=m)
