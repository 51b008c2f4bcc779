"""Tests for the 1D skew tent map analysis."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from pwlcycles import skew_tent as st
from pwlcycles.errors import (
    DegenerateOffsetError,
    NotAdmissibleError,
    PwlcyclesError,
    SingularDenominatorError,
)


def compose_cycle_x(a, d, mu, n):
    """Independent oracle: fixed point of the affine composition L^(n-1) o R.

    Tracks slope and offset of the composed map explicitly, then unrolls
    the orbit from x1; shares no code with the closed forms under test.
    """
    slope, offset = d, mu
    for _ in range(n - 1):
        slope, offset = a * slope, a * offset + mu
    x1 = offset / (1.0 - slope)
    xs = [x1, d * x1 + mu]
    for _ in range(n - 2):
        xs.append(a * xs[-1] + mu)
    return xs


def test_geometric_sum_matches_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(50):
        r = float(rng.uniform(-3, 3))
        if abs(1.0 - r) < 1e-3:
            continue
        k = int(rng.integers(1, 12))
        assert st.geometric_sum(r, k) == pytest.approx((1 - r**k) / (1 - r), rel=1e-12)
    assert st.geometric_sum(1.0, 7) == 7.0
    assert st.geometric_sum(0.5, 0) == 0.0
    arr = st.geometric_sum(np.array([0.5, 1.0, 2.0]), 3)
    assert np.allclose(arr, [1.75, 3.0, 7.0], rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        st.geometric_sum(0.5, -1)


def test_iterate_1d_branches():
    p = st.SkewTentParams(0.4, -4.0, 0.8)
    assert st.iterate_1d(p, -1.0) == pytest.approx(0.4)
    assert st.iterate_1d(p, 0.5) == pytest.approx(-1.2)
    assert st.iterate_1d(p, 0.0) == pytest.approx(0.8)


def test_params_reject_non_finite():
    with pytest.raises(ValueError):
        st.SkewTentParams(np.inf, -4.0, 0.8)
    with pytest.raises(ValueError):
        st.SkewTentParams(0.4, np.nan, 0.8)


def test_cycle_x_reference_points():
    xc = st.cycle_x_components(st.SkewTentParams(0.4, -4.0, 0.8), 3)
    assert xc.sequence == "RLL"
    assert xc.xs == pytest.approx(
        (0.7609756098, -2.2439024390, -0.0975609756), abs=1e-9
    )

    xc = st.cycle_x_components(st.SkewTentParams(0.16, -7.29, 2.0), 3)
    assert xc.xs == pytest.approx(
        (1.9982740952, -12.5674181544, -0.0107869047), abs=1e-9
    )

    # slopes exactly representable: the border cycles close exactly
    xc = st.cycle_x_components(st.SkewTentParams(2.0, -1.75, 1.0), 4)
    assert xc.xs == (1.0, -0.75, -0.5, 0.0)
    assert xc.sequence == "RLL0"

    xc = st.cycle_x_components(st.SkewTentParams(0.5, -31.0, 1.0), 6)
    assert xc.xs == (1.0, -30.0, -14.0, -6.0, -2.0, 0.0)
    assert xc.sequence == "RLLLL0"


def test_cycle_x_border_collision_letters():
    xc = st.cycle_x_components(st.SkewTentParams(0.4, -3.5, 0.8), 3)
    assert xc.sequence == "RL0"
    assert xc.xs[0] == pytest.approx(0.8, abs=1e-12)
    assert abs(xc.xs[2]) < 1e-12


def test_cycle_x_matches_composition_oracle():
    rng = np.random.default_rng(42)
    solved = 0
    while solved < 200:
        a = float(rng.uniform(0.05, 2.0))
        d = float(rng.uniform(-40.0, -0.05))
        mu = float(rng.uniform(0.1, 5.0))
        n = int(rng.integers(2, 9))
        p = st.SkewTentParams(a, d, mu)
        try:
            xc = st.cycle_x_components(p, n)
        except (NotAdmissibleError, SingularDenominatorError):
            continue
        expected = compose_cycle_x(a, d, mu, n)
        scale = max(1.0, max(abs(v) for v in expected))
        assert max(abs(x - e) for x, e in zip(xc.xs, expected)) < 1e-9 * scale
        # closure under the map itself
        x = xc.xs[0]
        for _ in range(n):
            x = st.iterate_1d(p, x)
        assert abs(x - xc.xs[0]) < st.verify_tolerance(mu) * scale
        solved += 1


def test_cycle_x_error_conditions():
    with pytest.raises(DegenerateOffsetError):
        st.cycle_x_components(st.SkewTentParams(0.4, -4.0, 0.0), 3)
    # a^(n-1) d = 1 exactly
    with pytest.raises(SingularDenominatorError) as info:
        st.cycle_x_components(st.SkewTentParams(2.0, 0.25, 1.0), 3)
    assert info.value.denominator == 0.0
    with pytest.raises(NotAdmissibleError) as info:
        st.cycle_x_components(st.SkewTentParams(0.4, -2.0, 0.8), 3)
    assert len(info.value.xs) == 3
    with pytest.raises(ValueError):
        st.cycle_x_components(st.SkewTentParams(0.4, -4.0, 0.8), 1)
    # a^(n-1) overflows a float
    for a, n in ((1e200, 3), (-1e200, 4), (1e11, 30)):
        with pytest.raises(NotAdmissibleError, match="overflows"):
            st.cycle_x_components(st.SkewTentParams(a, -1.0, 0.8), n)


_SWAP_RL = str.maketrans("RL", "LR")


@hs.composite
def _negative_offset_point(draw):
    """(a, d, mu_hat < 0, n): a free draw, a point on the L R^(n-1)
    existence curve (its last point on the kink), a zero denominator
    1 - a d^(n-1), or a d^(n-1) that overflows."""
    n = draw(hs.integers(3, 12))
    mu = -draw(hs.floats(0.05, 5.0))
    d = draw(hs.floats(0.05, 2.0))
    kind = draw(hs.sampled_from(["free", "kink", "singular", "overflow"]))
    if kind == "kink":
        return float(st.existence_bound(d, n)), d, mu, n
    if kind == "singular":
        d = 2.0 ** draw(hs.integers(-3, 3))
        return d ** (1 - n), d, mu, n
    if kind == "overflow":
        d = 1e200
    return draw(hs.floats(-40.0, 40.0)), d * draw(hs.sampled_from([1, -1])), mu, n


def _fields(err):
    """An error's attributes, its x values as hex, so NaN points compare."""
    return {k: [x.hex() for x in v] if k == "xs" else v for k, v in vars(err).items()}


def _outcome(p, n):
    """cycle_x_components' x bits and sequence, or its error's type,
    message, attributes and context."""
    try:
        xc = st.cycle_x_components(p, n)
    except PwlcyclesError as err:
        return type(err), str(err), _fields(err), err.__context__
    return [x.hex() for x in xc.xs], xc.sequence


def _mirrored(a, d, mu, n):
    """The R L^(n-1) closed form of (d, a, -mu) with x negated and R, L
    swapped, its errors named in the terms of (a, d): the power a^1*d^(n-1)."""
    power = f"a^1*d^{n - 1}"
    try:
        xc = st.cycle_x_components(st.SkewTentParams(d, a, -mu), n)
    except SingularDenominatorError as err:
        return SingularDenominatorError(a, d, n, err.denominator, power)
    except NotAdmissibleError as err:
        message = ""
        if "overflows" in str(err):  # the multiplier d^(n-1) a is the same float
            product = str(err).rsplit(" = ", 1)[1]
            message = (f"the {n}-cycle overflows for a={a!r}, d={d!r}: "
                       f"x multiplier {power} = {product}")
        return NotAdmissibleError([-x for x in err.xs], err.letters.translate(_SWAP_RL),
                                  message)
    return st.XCycle(n, tuple(-x for x in xc.xs), xc.sequence.translate(_SWAP_RL))


def test_negative_offset_closed_form_is_the_negated_mirror():
    """At mu_hat < 0, cycle_x_components answers L R^(n-1) with the bits of
    the R L^(n-1) closed form of (d, a, -mu_hat) negated, R and L swapped,
    kink letters and every typed error included; each error is raised
    with no context."""
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_negative_offset_point())
    def check(point):
        a, d, mu, n = point
        got = _outcome(st.SkewTentParams(a, d, mu), n)
        want = _mirrored(a, d, mu, n)
        if isinstance(want, st.XCycle):
            assert got == ([x.hex() for x in want.xs], want.sequence)
            assert want.sequence[0] == "L" and "L" not in want.sequence[1:]
            seen.add("kink" if "0" in want.sequence else "solved")
        else:
            assert got == (type(want), str(want), _fields(want), None)
            seen.add(type(want).__name__ + " overflow" * ("overflows" in str(want)))

    check()
    assert seen == {"solved", "kink", "SingularDenominatorError",
                    "NotAdmissibleError", "NotAdmissibleError overflow"}


def _exact_cycle_x(a, d, mu, n):
    """The closed form's points in 60-digit arithmetic, from the float
    inputs: x_i = mu (S_(i-1) + a^(i-2) d S_(n-i+1)) / (1 - a^(n-1) d)
    for R L^(n-1), a and d swapped for L R^(n-1) (mu < 0)."""
    a, d, mu = mpmath.mpf(a), mpmath.mpf(d), mpmath.mpf(mu)
    if mu < 0:
        a, d = d, a

    def S(k):
        return mpmath.fsum(a**j for j in range(k))

    den = 1 - a ** (n - 1) * d
    return [mu * S(n) / den] + [
        mu * (S(i - 1) + a ** (i - 2) * d * S(n - i + 1)) / den for i in range(2, n + 1)
    ]


def test_cycle_x_components_match_60_digit_oracle():
    """The closed form, admissible or not, is within n ulps of the
    cycle's scale (the largest |x_i|) of its 60-digit value, for n up to
    30, |d| up to 1e6, points within a relative 1e-6 of the existence
    curve and both offset signs."""
    rng = np.random.default_rng(61)
    worst = 0.0
    with mpmath.workdps(60):
        for k in range(600):
            n = int(rng.integers(2, 31))
            a = 1.0 if k % 50 == 0 else float(rng.uniform(0.05, 1.5))
            if k % 3 == 0 and n >= 3:
                d = float(st.existence_bound(a, n)) * (1.0 + float(rng.uniform(-1e-6, 1e-6)))
            else:
                d = -float(10.0 ** rng.uniform(-1.0, 6.0))
            mu = float(rng.uniform(0.2, 2.0))
            if k % 2:
                a, d, mu = d, a, -mu
            try:
                xs = st.cycle_x_components(st.SkewTentParams(a, d, mu), n).xs
            except NotAdmissibleError as err:
                xs = err.xs
            exact = _exact_cycle_x(a, d, mu, n)
            ulp = math.ulp(float(max(abs(x) for x in exact)))
            miss = max(abs(mpmath.mpf(x) - e) for x, e in zip(xs, exact))
            ulps = float(miss / ulp)
            assert ulps <= n, (a, d, mu, n, ulps)
            worst = max(worst, ulps)
    assert worst > 1.0  # the draws reach the rounding the bound allows for


def test_existence_bound_values():
    assert st.existence_bound(0.4, 3) == pytest.approx(-3.5, abs=1e-12)
    assert st.existence_bound(1.0, 5) == -4.0
    assert st.existence_bound(2.0, 4) == -1.75
    assert st.existence_bound(0.5, 6) == -31.0
    arr = st.existence_bound(np.array([0.4, 1.0, 2.0]), 3)
    assert arr == pytest.approx([-3.5, -2.0, -1.5], abs=1e-12)
    with pytest.raises(ValueError):
        st.existence_bound(0.4, 2)


def test_region_kernel_powers_match_mpmath():
    # 50-digit oracle for the bound and for the kernel's P = a^(n-1),
    # both from the chain, whose rounding grows with n, so allow n/2 ulps
    rng = np.random.default_rng(13)
    with mpmath.workdps(50):
        for n in (3, 9, 17, 30, 40):
            for a in [1.0, *map(float, rng.uniform(0.05, 3.0, 200))]:
                x = mpmath.mpf(a)
                bound = -mpmath.fsum(x**k for k in range(n - 1)) / x ** (n - 2)
                power = x ** (n - 1)
                got_bound = float(st.existence_bound(a, n))
                got_power = float(st._line(np.float64(a), n)[2])
                for got, want in ((got_bound, bound), (got_power, power)):
                    ulps = abs(mpmath.mpf(got) - want) / math.ulp(float(want))
                    assert ulps <= n / 2, (a, n, float(ulps))


def test_region_exists_is_strict():
    bound = st.existence_bound(0.4, 3)
    assert st.region_exists(0.4, bound - 1e-9, 3)
    assert not st.region_exists(0.4, bound, 3)
    assert not st.region_exists(0.4, bound + 1e-9, 3)
    assert not st.region_exists(-0.1, -10.0, 3)


def test_region_mu_sign_swaps_roles():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = float(rng.uniform(-2, 2))
        d = float(rng.uniform(-10, 2))
        n = int(rng.integers(3, 8))
        assert st.region_exists(a, d, n, "-") == st.region_exists(d, a, n, "+")
        assert st.on_bifurcation_curve(a, d, n, "-") == st.on_bifurcation_curve(
            d, a, n, "+"
        )
    with pytest.raises(ValueError):
        st.region_exists(0.4, -4.0, 3, "plus")


def test_on_bifurcation_curve_tolerance():
    assert st.on_bifurcation_curve(0.4, -3.5, 3, tol=1e-9)
    assert st.on_bifurcation_curve(0.4, -3.5 + 0.9e-9, 3, tol=1e-9)
    assert not st.on_bifurcation_curve(0.4, -3.5 + 1e-6, 3, tol=1e-9)
    # curve_distance <= tol is closed at both ends: tol is the distance
    # itself, the last point |x_3| / mu_hat = |bound - d| / (a - bound)
    # to first order, here 1e-9 / 3.9
    bound = float(st.existence_bound(0.4, 3))
    for d in (bound + 1e-9, bound - 1e-9):
        tol = st.classify(0.4, d, 3).details["curve_distance"]
        assert tol == pytest.approx(1e-9 / 3.9, rel=1e-6)
        assert st.on_bifurcation_curve(0.4, d, 3, tol=tol)
        assert not st.on_bifurcation_curve(0.4, d, 3, tol=math.nextafter(tol, 0.0))
    # a NaN tol fails every curve test, so it would drop the verdict silently
    for tol in (0.0, -1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite positive"):
            st.on_bifurcation_curve(0.4, -3.5, 3, tol=tol)
        with pytest.raises(ValueError, match="finite positive"):
            st.classify(0.4, -3.5, 3, tol=tol)


@pytest.mark.parametrize(
    "a, d", [(math.nan, -3.5), (math.inf, -3.5), (0.4, -math.inf), (0.4, math.nan)]
)
@pytest.mark.parametrize("mu_sign", ["+", "-"])
def test_non_finite_point_is_rejected(a, d, mu_sign):
    # such points used to answer OutsideRegion or ExistsUnstable
    with pytest.raises(ValueError, match="must be finite"):
        st.classify(a, d, 3, mu_sign=mu_sign)
    with pytest.raises(ValueError, match="must be finite"):
        st.region_exists(a, d, 3, mu_sign=mu_sign)
    with pytest.raises(ValueError, match="must be finite"):
        st.on_bifurcation_curve(a, d, 3, mu_sign=mu_sign)
    with pytest.raises(ValueError, match="must be finite"):
        st.region_stable(a, d, 3)
    with pytest.raises(ValueError, match="must be finite"):
        st.chaotic_band_region(a, d, 3)


def test_region_stable_window():
    # stability window for a=0.4, n=3 is -6.25 < d < -3.5
    assert st.region_stable(0.4, -4.0, 3)
    assert st.region_stable(0.4, -6.2, 3)
    assert not st.region_stable(0.4, -6.3, 3)
    assert not st.region_stable(0.4, -3.4, 3)
    assert not st.region_stable(0.0, -4.0, 3)


def test_chaotic_band_regions():
    assert st.chaotic_band_region(0.4, -6.5, 3).region is st.BandRegion.NBAND
    assert st.chaotic_band_region(0.4, -6.4, 3).region is st.BandRegion.TWO_NBAND
    assert st.chaotic_band_region(0.4, -4.0, 3).region is st.BandRegion.NEITHER
    assert st.chaotic_band_region(0.4, -7.0, 3).region is st.BandRegion.NEITHER
    res = st.chaotic_band_region(0.4, -6.5, 3)
    assert res.details["existence_margin"] > 0
    assert res.details["nband_cubic_margin"] > 0
    assert res.details["nband_quadratic_margin"] > 0


@pytest.mark.parametrize(
    "a, d, verdict",
    [
        (0.4, -4.0, st.Verdict.EXISTS_STABLE),
        (0.4, -3.5, st.Verdict.ON_BIFURCATION_CURVE),
        (0.4, -6.5, st.Verdict.NBAND_CHAOS),
        (0.4, -6.4, st.Verdict.TWONBAND_CHAOS),
        (0.4, -2.0, st.Verdict.OUTSIDE_REGION),
        (0.4, -7.0, st.Verdict.EXISTS_UNSTABLE),
        (0.4, -31.0, st.Verdict.EXISTS_UNSTABLE),
    ],
)
def test_classify_verdicts(a, d, verdict):
    result = st.classify(a, d, 3)
    assert result.verdict is verdict
    assert result.n == 3
    for key in (
        "slope_sign_margin",
        "existence_margin",
        "curve_distance",
        "stability_lower_margin",
        "nband_cubic_margin",
        "nband_quadratic_margin",
        "twonband_flip_margin",
        "twonband_cubic_margin",
    ):
        assert key in result.details


def test_classify_curve_takes_precedence():
    # (2, -1.75) n=4 is on the curve and would otherwise be unstable
    assert st.classify(2.0, -1.75, 4).verdict is st.Verdict.ON_BIFURCATION_CURVE


def test_classify_mirrored_offset():
    assert st.classify(-4.0, 0.4, 3, mu_sign="-").verdict is st.Verdict.EXISTS_STABLE
    assert st.classify(0.4, -4.0, 3, mu_sign="-").verdict is st.Verdict.OUTSIDE_REGION
    with pytest.raises(ValueError):
        st.classify(0.4, -4.0, 2)


def test_li_yorke_chaos_flag():
    assert st.li_yorke_chaos_flag(st.SkewTentParams(0.4, -4.0, 0.8))
    assert not st.li_yorke_chaos_flag(st.SkewTentParams(0.4, -2.0, 0.8))
    assert st.li_yorke_chaos_flag(st.SkewTentParams(-4.0, 0.4, -0.8))
    with pytest.raises(DegenerateOffsetError):
        st.li_yorke_chaos_flag(st.SkewTentParams(0.4, -4.0, 0.0))


def test_tolerances_scale_with_offset():
    # the kink tolerance is DEFAULT_CURVE_TOL in units of |mu_hat|, with
    # no floor; the residual tolerance keeps its floor of 1e-8
    assert st.zero_tolerance(0.5) == 5e-10
    assert st.zero_tolerance(10.0) == 1e-8
    assert st.zero_tolerance(-10.0) == 1e-8
    assert st.zero_tolerance(0.0) == 0.0
    assert st.verify_tolerance(0.5) == 1e-8
    assert st.verify_tolerance(-10.0) == 1e-7


def test_classify_when_slope_power_underflows():
    # a^(n-1) underflows to 0, so the x multiplier a^(n-1) d reads -0.0
    # and the stability margin 1 + a^(n-1) d is 1; the true multiplier
    # a^2 d = -1e-100 makes the cycle attracting
    a, d = 1e-200, -1e300
    result = st.classify(a, d, 3)
    assert result.verdict is st.Verdict.EXISTS_STABLE
    assert result.details["stability_lower_margin"] == 1.0
    assert st.region_stable(a, d, 3)
    xc = st.cycle_x_components(st.SkewTentParams(a, d, 0.8), 3)
    assert xc.sequence == "RLL"


def test_classify_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a^(2(n-1)) d^3 overflows, or a^(n-1) underflows
        assert st.classify(1e200, -1.0, 3).verdict is st.Verdict.ON_BIFURCATION_CURVE
        # the last point is mu_hat (1 - a) / (1 + 2 a^2), about -5e-201
        # mu_hat, so on the kink
        assert st.classify(1e200, -2.0, 3).verdict is st.Verdict.ON_BIFURCATION_CURVE
        assert st.classify(1e-200, -1e300, 30).verdict is st.Verdict.OUTSIDE_REGION
        assert st.classify(0.0, -4.0, 3).verdict is st.Verdict.OUTSIDE_REGION
        assert st.existence_bound(0.0, 3) == -np.inf
        assert np.isnan(st.existence_bound(np.array([1e200, 0.4]), 30)[0])


def test_band_regions_need_positive_slope():
    # the band inequalities alone hold at a < 0, where no R L^(n-1)
    # cycle exists; scan has always answered OutsideRegion there
    res = st.chaotic_band_region(-0.5, -10.0, 4)
    assert res.details["existence_margin"] > 0
    assert res.details["nband_cubic_margin"] > 0
    assert res.details["nband_quadratic_margin"] > 0
    assert res.region is st.BandRegion.NEITHER
    assert st.classify(-0.5, -10.0, 4).verdict is st.Verdict.OUTSIDE_REGION


def test_cycle_x_components_match_per_point_sums():
    # each x_i from its own geometric sums and powers, each power a^k
    # multiplied left to right from 1 as the kernel's chain takes it
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        a, d = float(rng.uniform(0.05, 1.5)), float(rng.uniform(-60.0, -0.5))
        mu = float(rng.uniform(0.2, 2.0))
        den = 1.0 - math.prod([a] * (n - 1)) * d
        want = [st.geometric_sum(a, n) * mu / den] + [
            (st.geometric_sum(a, i - 1)
             + math.prod([a] * (i - 2)) * d * st.geometric_sum(a, n - i + 1))
            * mu / den
            for i in range(2, n + 1)
        ]
        try:
            xc = st.cycle_x_components(st.SkewTentParams(a, d, mu), n)
        except NotAdmissibleError as err:
            assert list(err.xs) == want
            continue
        assert list(xc.xs) == want
