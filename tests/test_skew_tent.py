"""Tests for the 1D skew tent map analysis."""

import warnings

import numpy as np
import pytest

from pwlcycles import skew_tent as st
from pwlcycles.errors import (
    DegenerateOffsetError,
    NotAdmissibleError,
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


def test_existence_bound_values():
    assert st.existence_bound(0.4, 3) == pytest.approx(-3.5, abs=1e-12)
    assert st.existence_bound(1.0, 5) == -4.0
    assert st.existence_bound(2.0, 4) == -1.75
    assert st.existence_bound(0.5, 6) == -31.0
    arr = st.existence_bound(np.array([0.4, 1.0, 2.0]), 3)
    assert arr == pytest.approx([-3.5, -2.0, -1.5], abs=1e-12)
    with pytest.raises(ValueError):
        st.existence_bound(0.4, 2)


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
    with pytest.raises(ValueError):
        st.on_bifurcation_curve(0.4, -3.5, 3, tol=0.0)


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
    assert st.zero_tolerance(0.5) == 1e-9
    assert st.zero_tolerance(10.0) == 1e-8
    assert st.verify_tolerance(0.5) == 1e-8
    assert st.verify_tolerance(-10.0) == 1e-7


def test_classify_when_slope_power_underflows():
    # a^(n-1) underflows to 0: the stability bound -1/a^(n-1) is -inf, and
    # the true multiplier a^2 d = -1e-100 makes the cycle attracting
    a, d = 1e-200, -1e300
    result = st.classify(a, d, 3)
    assert result.verdict is st.Verdict.EXISTS_STABLE
    assert result.details["stability_lower_margin"] == np.inf
    assert st.region_stable(a, d, 3)
    xc = st.cycle_x_components(st.SkewTentParams(a, d, 0.8), 3)
    assert xc.sequence == "RLL"


def test_classify_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a^(2(n-1)) d^3 overflows, or a^(n-1) underflows
        assert st.classify(1e200, -1.0, 3).verdict is st.Verdict.ON_BIFURCATION_CURVE
        assert st.classify(1e200, -2.0, 3).verdict is st.Verdict.EXISTS_UNSTABLE
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
    # each x_i from its own geometric sums, as the closed form reads
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        a, d = float(rng.uniform(0.05, 1.5)), float(rng.uniform(-60.0, -0.5))
        mu = float(rng.uniform(0.2, 2.0))
        den = 1.0 - a ** (n - 1) * d
        want = [st.geometric_sum(a, n) * mu / den] + [
            (st.geometric_sum(a, i - 1) + a ** (i - 2) * d * st.geometric_sum(a, n - i + 1))
            * mu / den
            for i in range(2, n + 1)
        ]
        try:
            xc = st.cycle_x_components(st.SkewTentParams(a, d, mu), n)
        except NotAdmissibleError as err:
            assert list(err.xs) == want
            continue
        assert list(xc.xs) == want
