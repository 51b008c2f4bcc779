"""Tests for parameter-plane scanning and region nesting."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from pwlcycles import region_atlas as ra
from pwlcycles import skew_tent as st


def small_spec(**kw):
    base = dict(
        a_min=0.01, a_max=3.0, d_min=-40.0, d_max=-0.01,
        a_steps=11, d_steps=13, n_list=(3, 4, 5),
    )
    base.update(kw)
    return ra.GridSpec(**base)


# The region kernel as it was when it formed all eight margins on the
# grid, frozen here as the reference: every verdict of scan and
# nesting_report, and every bit of classify's details, must equal it.
# The stability and flip margins are 1 + P d and -1 - P d, with P d the
# cycle's x multiplier. The curve distance is the cycle's last point in
# units of mu_hat: the closed form x_n = mu_hat (S_(n-1) + a^(n-2) d) /
# (1 - a^(n-1) d), with S_(n-1) = -bound a^(n-2) and 1 - a^(n-1) d =
# a^(n-2) (a - bound + a (bound - d)), is -mu_hat (bound - d) /
# (a - bound + a (bound - d)), and to first order in bound - d it is
# -mu_hat (bound - d) / (a - bound).
def _reference_margins(a, d, n):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        power = a * 0.0 + 1.0
        total = power
        for _ in range(n - 2):
            power = power * a
            total = total + power
        bound = -total / power
        power = power * a
        d2 = d * d
        cubic = power * power * (d2 * d) + a - d
        quad = power * d2 + d - a
        return {
            "slope_sign_margin": a,
            "existence_margin": bound - d,
            "curve_distance": abs((bound - d) * (1.0 / (a - bound))),
            "stability_lower_margin": 1.0 + power * d,
            "nband_cubic_margin": -cubic,
            "nband_quadratic_margin": -quad,
            "twonband_flip_margin": -1.0 - power * d,
            "twonband_cubic_margin": cubic,
        }


def _reference_exists(m):
    return (m["slope_sign_margin"] > 0) & (m["existence_margin"] > 0)


def _reference_verdicts(m, tol):
    """Verdict names in classify's precedence, as an object array."""
    exists = _reference_exists(m)
    nband = (m["nband_cubic_margin"] > 0) & (m["nband_quadratic_margin"] > 0)
    twonband = (m["twonband_flip_margin"] > 0) & (m["twonband_cubic_margin"] > 0)
    curve = (m["slope_sign_margin"] > 0) & (m["curve_distance"] <= tol)
    tests = [
        (curve, st.Verdict.ON_BIFURCATION_CURVE),
        (exists & (m["stability_lower_margin"] > 0), st.Verdict.EXISTS_STABLE),
        (exists & nband, st.Verdict.NBAND_CHAOS),
        (exists & twonband, st.Verdict.TWONBAND_CHAOS),
        (exists, st.Verdict.EXISTS_UNSTABLE),
    ]
    verdicts = np.full(np.shape(exists), st.Verdict.OUTSIDE_REGION.value, object)
    for test, verdict in reversed(tests):
        verdicts[test] = verdict.value
    return verdicts


def _nesting_reference(spec, exists):
    ns = sorted(spec.n_list)
    pairs = list(zip(ns[:-1], ns[1:]))
    violations = [
        {"a": float(spec.a_centers()[i]), "d": float(spec.d_centers()[j]),
         "n_outer": small, "n_inner": large}
        for small, large in pairs
        for i, j in zip(*np.nonzero(exists[large] & ~exists[small]))
    ]
    return {
        "pairs": pairs,
        "cells_checked": spec.a_steps * spec.d_steps * len(pairs),
        "violations": violations,
    }


def _oriented_mesh(spec):
    A, D = np.meshgrid(spec.a_centers(), spec.d_centers(), indexing="ij")
    return (A, D) if spec.mu_sign == "+" else (D, A)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        small_spec(a_min=2.0, a_max=1.0)
    with pytest.raises(ValueError):
        small_spec(a_steps=0)
    with pytest.raises(ValueError):
        small_spec(n_list=())
    with pytest.raises(ValueError):
        small_spec(n_list=(2,))
    with pytest.raises(ValueError):
        small_spec(mu_sign="x")
    for n_list in ((3, 3), (3, 5, np.int64(3))):
        with pytest.raises(ValueError, match="must not repeat a cycle length"):
            small_spec(n_list=n_list)
    # infinite bounds, or a span beyond the float range, give inf or NaN
    # cell centres
    for bounds in (
        dict(a_max=np.inf),
        dict(a_min=-np.inf),
        dict(d_min=np.nan),
        dict(d_min=-np.inf, d_max=np.inf),
        dict(a_min=-8e307, a_max=8e307),
    ):
        with pytest.raises(ValueError, match="finite"):
            small_spec(**bounds)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite positive"):
            ra.scan(small_spec(), tol=tol)


def test_grid_centers_are_cell_midpoints():
    spec = ra.GridSpec(
        a_min=0.0, a_max=1.0, a_steps=4, d_min=-2.0, d_max=0.0, d_steps=2,
        n_list=(3,),
    )
    assert spec.a_centers() == pytest.approx([0.125, 0.375, 0.625, 0.875])
    assert spec.d_centers() == pytest.approx([-1.5, -0.5])


def test_scan_matches_pointwise_classify():
    spec = small_spec()
    grid = ra.scan(spec)
    a_vals = spec.a_centers()
    d_vals = spec.d_centers()
    for n in spec.n_list:
        verdicts = grid.cells[n]
        assert verdicts.shape == (len(a_vals), len(d_vals))
        for i, a in enumerate(a_vals):
            for j, d in enumerate(d_vals):
                expected = st.classify(float(a), float(d), n).verdict
                assert verdicts[i, j] == expected.value, (a, d, n)


def test_scan_mirrored_offset_swaps_axes():
    spec = ra.GridSpec(
        a_min=-40.0, a_max=-0.01, a_steps=7, d_min=0.01, d_max=3.0, d_steps=9,
        n_list=(3, 4), mu_sign="-",
    )
    grid = ra.scan(spec)
    for n in spec.n_list:
        for i, a in enumerate(spec.a_centers()):
            for j, d in enumerate(spec.d_centers()):
                expected = st.classify(float(a), float(d), n, mu_sign="-").verdict
                assert grid.cells[n][i, j] == expected.value


def test_scan_single_cell_frozen():
    spec = ra.GridSpec(
        a_min=0.4, a_max=0.4, a_steps=1, d_min=-31.0, d_max=-31.0, d_steps=1,
        n_list=(3, 6),
    )
    grid = ra.scan(spec)
    # d = -31 is inside the period-3 region but outside the period-6 one
    # (the n=6 bound at a=0.4 is well below -31)
    assert grid.cells[3][0, 0] == st.Verdict.EXISTS_UNSTABLE.value
    assert grid.cells[6][0, 0] == st.Verdict.OUTSIDE_REGION.value
    report = ra.nesting_report(spec)
    assert report["violations"] == []


def test_curve_samples_lie_on_curve():
    pts = ra.curve_samples(3, 0.1, 2.5, 40)
    assert pts.shape == (40, 2)
    for a, d in pts:
        assert st.on_bifurcation_curve(float(a), float(d), 3)
        assert not st.region_exists(float(a), float(d), 3)
        assert st.region_exists(float(a), float(d) - 1e-6, 3)


def test_curve_samples_mirrored():
    pts = ra.curve_samples(4, 0.1, 2.0, 15, mu_sign="-")
    for a, d in pts:
        assert st.on_bifurcation_curve(float(a), float(d), 4, mu_sign="-")
    with pytest.raises(ValueError):
        ra.curve_samples(3, 0.0, 2.0, 10)
    with pytest.raises(ValueError):
        ra.curve_samples(3, 0.1, 2.0, 1)


@pytest.mark.parametrize("a_min, a_max", [
    (float("nan"), 1.0), (0.1, float("nan")), (0.1, float("inf")),
])
def test_curve_samples_rejects_non_finite_slope_bounds(a_min, a_max):
    # NaN passes the positivity test; an infinite bound gave inf and NaN rows
    with pytest.raises(ValueError, match="slope bounds must be finite"):
        ra.curve_samples(3, a_min, a_max, 3)


def test_nesting_report_no_violations():
    spec = small_spec(a_steps=40, d_steps=40, n_list=tuple(range(3, 10)))
    report = ra.nesting_report(spec)
    assert report["violations"] == []
    assert report["cells_checked"] == 40 * 40 * 6
    assert report["pairs"] == [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]


def test_nesting_report_counts_real_violations():
    spec = small_spec(n_list=(3, 5, 9))
    report = ra.nesting_report(spec)
    assert report["pairs"] == [(3, 5), (5, 9)]
    assert report["violations"] == []
    # on the n = 9 curve at this a, rounding puts the n = 10 bound one
    # ulp above the n = 9 bound, so the cell exists for 10 but not for 9
    a = 216.820504
    d = st.existence_bound(a, 9)
    assert st.existence_bound(a, 10) == np.nextafter(d, np.inf)
    for mu_sign, (x, y) in (("+", (a, d)), ("-", (d, a))):
        spec = ra.GridSpec(x, x, 1, y, y, 1, (9, 10), mu_sign)
        report = ra.nesting_report(spec)
        assert report["cells_checked"] == 1
        assert report["violations"] == [
            {"a": x, "d": y, "n_outer": 9, "n_inner": 10}
        ]


def test_classify_matches_one_cell_scan_at_extremes():
    # slopes whose powers over- and underflow; a negative a
    # never has the cycle, whatever the band inequalities say
    a_pos = np.logspace(-200, 200, 11)
    a_values = np.concatenate([a_pos, -a_pos])
    d_values = -np.logspace(300, -3, 12)
    cases = [
        (a, d, n, mu_sign)
        for n in (3, 9, 30)
        for mu_sign in ("+", "-")
        for a in map(float, a_values)
        for d in map(float, d_values)
    ]
    # points on the existence and stability curves, where the last bit
    # of a power decides the verdict
    cases.append((0.530557794095363, -6.695791217542962, 4, "+"))
    rng = np.random.default_rng(11)
    for n in (3, 4, 9, 17, 29):
        for a in map(float, rng.uniform(0.05, 3.0, 200)):
            cases.append((a, -st.geometric_sum(a, n - 1) / a ** (n - 2), n, "+"))
            cases.append((a, -1.0 / a ** (n - 1), n, "+"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, d, n, mu_sign in cases:
            spec = ra.GridSpec(a, a, 1, d, d, 1, (n,), mu_sign)
            cell = ra.scan(spec).cells[n][0, 0]
            verdict = st.classify(a, d, n, mu_sign=mu_sign).verdict
            assert verdict.value == cell, (a, d, n, mu_sign)
    # every margin of a point equals the mesh's margin bit for bit: the
    # kernel's own quantities, and every detail of the frozen reference
    spec = small_spec(n_list=(3, 4, 9, 17, 29))
    AA, DD = np.meshgrid(spec.a_centers(), spec.d_centers(), indexing="ij")
    # details that are the kernel's own quantities, read from its tuple
    own = {
        "existence_margin": lambda m: m[0],
        "curve_distance": lambda m: abs(m[1]),
        "stability_lower_margin": lambda m: 1.0 + m[2],
        "twonband_cubic_margin": lambda m: m[3],
    }
    for n in spec.n_list:
        margins = _reference_margins(AA, DD, n)
        kernel = st._margins(AA, DD, n)
        for i, j in np.ndindex(AA.shape):
            details = st.classify(float(AA[i, j]), float(DD[i, j]), n).details
            assert list(details) == list(margins)
            for key, value in details.items():
                assert np.float64(value).tobytes() == margins[key][i, j].tobytes(), (
                    key, AA[i, j], DD[i, j], n,
                )
            for key, read in own.items():
                want = read(kernel)[i, j]
                assert np.float64(details[key]).tobytes() == want.tobytes(), (
                    key, AA[i, j], DD[i, j], n,
                )


# blocks of 32,768 cells: two blocks of 1000-cell rows, plus one row
_TILE_CELLS = 1 << 15
_TILE_PLUS_ONE = 2 * (_TILE_CELLS // 1000) + 1
# the point of test_nesting_report_counts_real_violations, and slopes
# two ulps either side of it: four of the five lie in the n = 10 region
# and not in the n = 9 one, so violations fill several rows and columns
_ULP_A = 216.820504
_ULP_D = float(st.existence_bound(_ULP_A, 9))
_ULP_SLOPES = _ULP_A - 2 * np.spacing(_ULP_A), _ULP_A + 2 * np.spacing(_ULP_A)

AXIS_SPECS = [
    ra.GridSpec(0.01, 3.0, 400, -40.0, -0.01, 400, tuple(range(3, 10))),
    ra.GridSpec(-40.0, -0.01, 300, 0.01, 3.0, 250, (3, 4, 5, 9, 10), "-"),
    # powers that over- and underflow, and negative slopes
    ra.GridSpec(-5.0, 1e3, 101, -1e9, -1e-3, 103, (3, 4, 9, 17, 29, 30)),
    ra.GridSpec(-1e9, -1e-3, 103, -5.0, 1e3, 101, (3, 9, 30), "-"),
    ra.GridSpec(0.01, 3.0, 1, -40.0, -0.01, 57, (3, 4, 9)),
    ra.GridSpec(0.01, 3.0, 57, -40.0, -0.01, 1, (3, 4, 9)),
    ra.GridSpec(-40.0, -0.01, 1, 0.01, 3.0, 57, (3, 4, 9), "-"),
    # a row longer than a block, and one row past two whole blocks
    ra.GridSpec(0.01, 3.0, 3, -40.0, -0.01, _TILE_CELLS + 3, (3, 9)),
    ra.GridSpec(-40.0, -0.01, 3, 0.01, 3.0, _TILE_CELLS + 3, (3, 9), "-"),
    ra.GridSpec(0.01, 3.0, _TILE_PLUS_ONE, -40.0, -0.01, 1000, (3, 4, 9)),
    ra.GridSpec(-40.0, -0.01, _TILE_PLUS_ONE, 0.01, 3.0, 1000, (3, 4, 9), "-"),
    # every centre equal, one ulp inside the n = 10 region and outside
    # the n = 9 one, so every cell is a nesting violation
    ra.GridSpec(_ULP_A, _ULP_A, 3, _ULP_D, _ULP_D, 4, (9, 10)),
    ra.GridSpec(_ULP_D, _ULP_D, 3, _ULP_A, _ULP_A, 4, (9, 10), "-"),
    ra.GridSpec(*_ULP_SLOPES, 5, _ULP_D, _ULP_D, 3, (3, 9, 10)),
    ra.GridSpec(_ULP_D, _ULP_D, 3, *_ULP_SLOPES, 5, (3, 9, 10), "-"),
]
AXIS_IDS = ["atlas", "mirrored", "extreme", "extreme-mirrored", "row", "column",
            "row-mirrored", "long-row", "long-row-mirrored", "tiles-plus-row",
            "tiles-plus-row-mirrored", "equal-centres", "equal-centres-mirrored",
            "ulp-slopes", "ulp-slopes-mirrored"]
# inf * 0 and inf - inf make NaN margins on this grid
NAN_SPEC = ra.GridSpec(-1e200, 1e200, 41, -1e300, 1e300, 43, (3, 9, 30, 200))


@pytest.mark.parametrize("spec", AXIS_SPECS + [NAN_SPEC], ids=AXIS_IDS + ["nan"])
def test_axis_evaluation_matches_mesh(spec):
    # scan and nesting_report run the kernel on broadcast axes; the full
    # mesh is the reference, every margin must agree bit for bit, and
    # every code of scan must be the code of the mesh's flags
    AA, DD = _oriented_mesh(spec)
    a, d = ra._oriented_axes(spec)
    shape = (spec.a_steps, spec.d_steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = ra.scan(spec)
        report = ra.nesting_report(spec)
        exists = {}
        for n in spec.n_list:
            mesh = st._margins(AA, DD, n)
            axes = st._margins(a, d, n)
            assert len(mesh) == len(axes)
            for k, (value, on_axes) in enumerate(zip(mesh, axes)):
                assert value.shape == shape
                broadcast = np.broadcast_to(on_axes, shape)
                assert broadcast.tobytes() == value.tobytes(), (k, n)
            flags = st._flags(AA, mesh, st.DEFAULT_CURVE_TOL)
            assert flags.dtype == np.uint8
            codes = grid.codes[n]
            assert codes.dtype == np.uint8 and codes.shape == shape
            assert np.array_equal(codes, st._CODE_OF_FLAGS[flags]), n
            exists[n] = (flags & st._EXISTS) > 0
    assert report == _nesting_reference(spec, exists)


@pytest.mark.parametrize("spec", AXIS_SPECS + [NAN_SPEC], ids=AXIS_IDS + ["nan"])
def test_scan_and_nesting_match_frozen_reference(spec):
    AA, DD = _oriented_mesh(spec)
    tol = st.DEFAULT_CURVE_TOL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = ra.scan(spec)
        report = ra.nesting_report(spec)
    exists = {}
    nan_margins = False
    for n in spec.n_list:
        m = _reference_margins(AA, DD, n)
        nan_margins |= any(np.isnan(v).any() for v in m.values())
        cells = grid.cells[n]
        # the CSV writer adds text to the cells, so they stay str objects
        assert cells.dtype == object
        assert all(type(v) is str for v in cells.flat)
        assert np.array_equal(cells, _reference_verdicts(m, tol)), n
        exists[n] = _reference_exists(m)
    assert report == _nesting_reference(spec, exists)
    assert nan_margins == (spec is NAN_SPEC)


def _breakpoints(a, n, tol):
    """Where, along the kernel's d at slope a, a verdict can change for
    a > 0: the existence bound, -1/P (stability and the flip), both ends
    of the curve band and the negative roots of the band cubic and
    quadratic; for a <= 0 the same formulas place grids where a kernel
    that did not test a > 0 would find runs. The roots come from numpy's
    companion matrix and two Newton steps, not from scan's guesses."""
    a = np.float64(a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = st.existence_bound(a, n)
        p = a ** (n - 1)
        r = 1.0 / (a - bound)
        points = [bound, -1.0 / p, bound - tol / r, bound + tol / r]
        # y = sqrt(pp) |d| solves y^3 - y - a sqrt(pp) = 0
        pp = p * p
        s = np.sqrt(pp)
        if 0.0 < pp < np.inf and np.isfinite(a * s):
            d = -max(np.roots([1.0, 0.0, -1.0, -a * s]).real) / s
            for _ in range(2):
                d -= (pp * d**3 - d + a) / (3.0 * pp * d * d - 1.0)
            points += [d, (-1.0 - np.sqrt(1.0 + 4.0 * p * a)) / (2.0 * p)]
    return [float(x) for x in points if np.isfinite(x)]


@hs.composite
def _ulp_grid(draw):
    """A grid of one or two cycle lengths whose kernel slopes lie a few
    ulps apart and whose kernel d axis spans a few dozen ulps around one
    breakpoint of the first slope, for either mu_sign; slopes of either
    sign, moderate in three draws of four, else with powers that may
    over- or underflow."""
    ns = draw(hs.lists(hs.sampled_from([3, 4, 5, 9, 17, 30]), min_size=1,
                       max_size=2, unique=True))
    tol = draw(hs.sampled_from([st.DEFAULT_CURVE_TOL, 1e-15, 1e-3]))
    if draw(hs.integers(0, 3)):
        a = draw(hs.floats(0.05, 3.0))
    else:
        a = 10.0 ** draw(hs.floats(-200.0, 200.0))
    if draw(hs.integers(0, 5)) == 0:
        a = -a
    points = _breakpoints(a, ns[0], tol) or [-1.0]
    x = draw(hs.sampled_from(points))
    ulp_a, ulp_d = np.spacing(abs(a)), np.spacing(abs(x))
    a_max = a + draw(hs.integers(0, 4)) * ulp_a
    d_min = x - draw(hs.integers(0, 40)) * ulp_d
    d_max = x + draw(hs.integers(0, 40)) * ulp_d
    slopes = (a, a_max, draw(hs.integers(1, 3)))
    offsets = (d_min, d_max, draw(hs.integers(1, 60)))
    mu_sign = draw(hs.sampled_from("+-"))
    if mu_sign == "-":
        slopes, offsets = offsets, slopes
    return ra.GridSpec(*slopes, *offsets, tuple(ns), mu_sign), tol


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_ulp_grid())
def test_scan_matches_the_kernel_on_ulp_grids_around_breakpoints(case):
    # scan finds each line's runs from approximate thresholds; on grids a
    # few ulps apart the guess, the filter and the cells it leaves
    # uncertain must still give the kernel's verdict on every cell
    spec, tol = case
    AA, DD = _oriented_mesh(spec)
    grid = ra.scan(spec, tol=tol)
    for n in spec.n_list:
        expected = st._CODE_OF_FLAGS[st._flags(AA, st._margins(AA, DD, n), tol)]
        assert np.array_equal(grid.codes[n], expected), n


def test_band_filter_certifies_no_cell_a_neighbour_contradicts():
    # on these consecutive floats around a root of the band quadratic,
    # inside the band prefix, the kernel's -quad changes sign more than
    # once; from any guessed cell, _window must leave every sign change
    # inside its uncertain cells
    a, n, root = np.float64(0.5535644788087806), 3, -3.7456369747930536
    d = root + np.arange(-40, 41) * np.spacing(-root)
    bound, _, p, _ = st._line(a, n)
    assert d.max() < bound and (p * d <= -1.0).all()
    rising = -st._margins(a, d, n)[4]
    assert (np.diff(np.sign(rising)) < 0).any()
    size = np.array([d.size])

    def margin(lines, cells):
        # -quad and the rounded sum of its absolute terms, as scan reads them
        x = d[cells]
        _, quad, _, w = st._bands(a, p, p * p, x)
        return -quad, (w - x) + a

    for guess in range(d.size + 1):
        low, high = ra._window(margin, np.array([guess]), size)
        assert (rising[: low[0]] < 0).all() and (rising[high[0] :] > 0).all(), guess
    # so classify reads NBandChaos one float below the root, and
    # ExistsUnstable on it; the even and the odd floats, as two grids,
    # show scan reading the same
    ulp = np.spacing(-root)
    for first in (-41, -40):
        spec = ra.GridSpec(a, a, 1, root + first * ulp, root + (first + 80) * ulp, 40, (n,))
        cells = ra.scan(spec).cells[n][0]
        assert [st.classify(a, x, n).verdict.value for x in spec.d_centers()] == list(cells)


def test_ulp_grids_are_nesting_violations():
    # the equal-centre grids, then the grids with four violating slopes
    for spec, slopes in zip(AXIS_SPECS[-4:], (1, 1, 4, 4)):
        violations = ra.nesting_report(spec)["violations"]
        assert len(violations) == 12
        key = "a" if spec.mu_sign == "+" else "d"
        assert len({v[key] for v in violations}) == slopes


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [
    ra.GridSpec(0.01, 3.0, 1000, -40.0, -0.01, 1000, (3,)),
    # kernel slopes <= 0 only: every line is one OutsideRegion run
    ra.GridSpec(-5.0, -0.01, 1000, -40.0, -0.01, 1000, (3,)),
    ra.GridSpec(-40.0, -0.01, 1000, -5.0, -0.01, 1000, (3,), "-"),
], ids=["atlas", "non-positive-slopes", "non-positive-slopes-mirrored"])
def test_scan_keeps_flags_not_margin_grids(spec):
    # the codes are 1 MB; named verdicts would be 8 MB of pointers, and
    # the four float64 margin grids of a whole n 32 MB
    assert _traced_peak(lambda: ra.scan(spec)) < 4 * 2**20


@pytest.mark.parametrize("spec", [
    AXIS_SPECS[0],
    ra.GridSpec(-40.0, -0.01, 400, 0.01, 3.0, 400, tuple(range(3, 10)), "-"),
], ids=["atlas", "atlas-mirrored"])
def test_runs_leave_no_cell_of_the_atlas_to_the_kernel(spec):
    # the band filter certifies every cell of every line, and no line is
    # left to the kernel, so the atlas is coded from its runs alone
    slopes, d = (axis.ravel() for axis in ra._oriented_axes(spec))
    _, _, (line, cell), kernel = ra._runs(slopes, d, spec.n_list, st.DEFAULT_CURVE_TOL)
    assert line.size == cell.size == 0
    assert kernel.shape == (len(spec.n_list), slopes.size) and not kernel.any()


@pytest.mark.parametrize("mu_sign", ["+", "-"])
def test_scan_codes_cells_named_on_first_read(mu_sign):
    spec = small_spec(n_list=(3, 4, 9))
    if mu_sign == "-":
        spec = small_spec(a_min=-40.0, a_max=-0.01, d_min=0.01, d_max=3.0,
                          n_list=(3, 4, 9), mu_sign="-")
    grid = ra.scan(spec)
    assert "cells" not in vars(grid)
    assert list(grid.codes) == list(spec.n_list)
    cells = grid.cells
    assert grid.cells is cells and "cells" in vars(grid)
    assert list(cells) == list(spec.n_list)
    for n, codes in grid.codes.items():
        assert codes.dtype == np.uint8
        assert codes.shape == cells[n].shape == (spec.a_steps, spec.d_steps)
        assert cells[n].dtype == object
        assert all(type(v) is str for v in cells[n].flat)
        named = [ra.RegionGrid.VERDICTS[k] for k in codes.flat]
        assert cells[n].ravel().tolist() == named
    # a code is the highest flag bit set, so the codes list the verdicts
    # in rising precedence
    assert st._CODE_OF_FLAGS.tolist() == [f.bit_length() for f in range(32)]
    assert ra.RegionGrid.VERDICTS == (
        "OutsideRegion", "ExistsUnstable", "TwoNBandChaos", "NBandChaos",
        "ExistsStable", "OnBifurcationCurve",
    )
    assert "VERDICTS" not in {f.name for f in dataclasses.fields(grid)}
    for name in ("codes", "cells", "spec", "VERDICTS"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(grid, name, None)


@pytest.mark.parametrize("mu_sign", ["+", "-"])
def test_nesting_report_forms_no_grid(mu_sign):
    # one existence mask of this grid is 4 MB
    spec = ra.GridSpec(0.01, 3.0, 2000, -40.0, -0.01, 2000, (3, 4, 9))
    if mu_sign == "-":
        spec = ra.GridSpec(-40.0, -0.01, 2000, 0.01, 3.0, 2000, (3, 4, 9), "-")
    assert _traced_peak(lambda: ra.nesting_report(spec)) < 2**20


@pytest.mark.parametrize("mu_sign", ["+", "-"])
def test_classify_details_match_frozen_reference(mu_sign):
    rng = np.random.default_rng(2024)
    k = 10_000
    ns = rng.choice([3, 4, 5, 9, 17, 30, 200], k)
    # moderate points, then magnitudes whose powers over- and underflow
    # (NaN margins among them)
    a = rng.uniform(-5.0, 5.0, k)
    d = rng.uniform(-60.0, 20.0, k)
    wide = rng.random(k) < 0.4
    a[wide] = rng.choice([-1.0, 1.0], wide.sum()) * 10 ** rng.uniform(
        -300, 300, wide.sum())
    d[wide] = rng.choice([-1.0, 1.0], wide.sum()) * 10 ** rng.uniform(
        -300, 300, wide.sum())
    # and points on the stability curve d = -1/a^(n-1), where the
    # stability and flip margins are often zero
    on_curve = ~wide & (rng.random(k) < 0.3)
    a[on_curve] = rng.uniform(0.05, 3.0, on_curve.sum())
    d[on_curve] = -1.0 / a[on_curve] ** (ns[on_curve] - 1)
    kernel_a, kernel_d = (a, d) if mu_sign == "+" else (d, a)
    for n in np.unique(ns):
        idx = np.nonzero(ns == n)[0]
        m = _reference_margins(kernel_a[idx], kernel_d[idx], int(n))
        verdicts = _reference_verdicts(m, st.DEFAULT_CURVE_TOL)
        for row, i in enumerate(idx):
            result = st.classify(float(a[i]), float(d[i]), int(n), mu_sign)
            assert result.verdict.value == verdicts[row]
            assert list(result.details) == list(m)
            for key, value in result.details.items():
                assert type(value) is float
                assert np.float64(value).tobytes() == m[key][row].tobytes(), (
                    key, a[i], d[i], n, mu_sign,
                )


@pytest.mark.parametrize("n", [4.0, 3.7, "4", True, None, np.float64(4.0)])
def test_region_n_must_be_an_integer(n):
    with pytest.raises(ValueError, match="integer"):
        st.classify(0.4, -3.5, n)
    with pytest.raises(ValueError, match="integer"):
        st.existence_bound(0.4, n)
    with pytest.raises(ValueError, match="integer"):
        small_spec(n_list=(3, n))


def test_region_n_accepts_numpy_integers():
    for n in (np.int64(4), np.int32(4), np.uint8(4)):
        assert st.classify(0.4, -3.5, n) == st.classify(0.4, -3.5, 4)
        n_list = small_spec(n_list=(3, n)).n_list
        assert n_list == (3, 4)
        assert all(type(v) is int for v in n_list)
