"""Tests for trajectory simulation, cycle detection and band counting."""

import math
import warnings

import numpy as np
import pytest

from pwlcycles import cycle_solver as cs
from pwlcycles import simulator as sim
from pwlcycles import skew_tent as st
from pwlcycles.errors import DivergenceError


def tent_system(a, d, mu=0.8):
    return cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(a, d, mu))


def test_trajectory_matches_manual_iteration():
    sys = cs.CanonicalSystem(
        0.4, -4.0, [1.0, 0.5], [0.5, 1.0], np.diag([0.4, 0.5]), [1.0, 0.0], 0.8
    )
    orbit = sim.trajectory(sys, steps=10, transient=0, z0=[0.3, 0.0, 0.0])
    z = np.array([0.3, 0.0, 0.0])
    for row in orbit.states:
        assert np.allclose(row, z, rtol=0, atol=1e-14)
        z = cs.step(sys, z)
    assert orbit.states.shape == (10, 3)


def test_trajectory_transient_semantics():
    sys = tent_system(0.4, -4.0)
    full = sim.trajectory(sys, steps=50, transient=0, z0=[0.3])
    tail = sim.trajectory(sys, steps=50, transient=20, z0=[0.3])
    assert tail.states.shape == (30, 1)
    assert np.array_equal(tail.states, full.states[20:])
    assert tail.transient == 20
    with pytest.raises(ValueError):
        sim.trajectory(sys, steps=10, transient=10)
    with pytest.raises(ValueError):
        sim.trajectory(sys, steps=0)


def test_trajectory_default_seed_is_half_offset():
    sys = tent_system(0.4, -4.0)
    orbit = sim.trajectory(sys, steps=3, transient=0)
    assert orbit.states[0, 0] == pytest.approx(0.4)


def test_trajectory_divergence():
    sys = tent_system(0.4, 3.0)  # expanding positive branch, no folding back
    with pytest.raises(DivergenceError) as info:
        sim.trajectory(sys, steps=1000, transient=0, z0=[0.4])
    assert info.value.step == 26
    assert abs(info.value.state[0]) > 1e12


def test_detect_cycle_fixed_point():
    sys = tent_system(0.4, -4.0, 0.0)  # x=0 fixed, contracting left branch
    orbit = sim.trajectory(sys, steps=200, transient=100, z0=[-0.5])
    det = sim.detect_cycle(orbit)
    assert det.period == 1
    assert abs(det.points[0][0]) < 1e-7


def test_detect_cycle_three_cycle_both_methods():
    sys = tent_system(0.4, -4.0)
    orbit = sim.trajectory(sys, steps=3000, transient=2000, z0=[0.3])
    expected = sorted([0.7609756097560975, -2.2439024390243896, -0.09756097560975585])
    det = sim.detect_cycle(orbit)
    assert det.period == 3
    got = sorted(p[0] for p in det.points)
    assert got == pytest.approx(expected, abs=1e-6)


def _stepped(sys, z0, steps, threshold=sim.DIVERGENCE_THRESHOLD):
    """Oracle: iterate cycle_solver.step, returning the states or the
    (step, state) at which any coordinate first exceeds the threshold."""
    z = np.asarray(z0, dtype=float)
    states = [z]
    for k in range(1, steps):
        z = cs.step(sys, z)
        if np.max(np.abs(z)) > threshold:
            return k, z
        states.append(z)
    return np.array(states)


@pytest.mark.parametrize(
    "d, A, z0",
    [
        (3.0, np.diag([0.4, 0.5]), [0.4, 0.0, 0.0]),  # x diverges
        (-4.0, np.diag([1.5, 0.5]), [0.3, 0.0, 0.0]),  # Y diverges, x bounded
    ],
)
@pytest.mark.parametrize("transient", [0, 10, 500])
def test_trajectory_divergence_with_y_block(d, A, z0, transient):
    sys = cs.CanonicalSystem(0.4, d, [1.0, 0.5], [0.5, 1.0], A, [1.0, 0.0], 0.8)
    step, state = _stepped(sys, z0, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            sim.trajectory(sys, steps=1000, transient=transient, z0=z0)
    assert info.value.step == step
    assert np.allclose(info.value.state, state, rtol=1e-12, atol=0)
    if d == -4.0:
        assert abs(info.value.state[0]) < 10.0


def _dense_block(rng, m, radius):
    """A dense, non-normal block with the given spectral radius."""
    A = rng.normal(size=(m, m))
    return A * (radius / np.max(np.abs(np.linalg.eigvals(A))))


def _block_and_chunk(A):
    """Block length K and chunk length (in steps) of the Y recurrence."""
    m = A.shape[0]
    K = len(sim._block_powers(A, sim._Y_BLOCK_WIDTH // m))
    return K, K * max(1, sim._Y_CHUNK_VALUES // (K * m))


_ORACLE_CASES = [(0, None), (3, None)] + [
    (m, radius) for m in (1, 2, 3, 16, 64) for radius in (0.3, 0.99, 1.0)
]


@pytest.mark.parametrize(
    "m, radius", _ORACLE_CASES,
    ids=[str(m) if r is None else f"{m}-dense-{r}" for m, r in _ORACLE_CASES],
)
def test_trajectory_matches_stepping_oracle(m, radius):
    # radius None: the diagonal block 0.6 I; else a dense non-normal block
    rng = np.random.default_rng(7 if radius is None else 100 * m + int(100 * radius))
    A = 0.6 * np.eye(m) if radius is None else _dense_block(rng, m, radius)
    sys = cs.CanonicalSystem(
        0.4, -4.0, rng.uniform(-1, 1, m), rng.uniform(-1, 1, m),
        A, rng.uniform(-1, 1, m), 0.8,
    )
    z0 = np.append(0.3, rng.uniform(-1, 1, m))
    runs = [(600, 250)]
    if m > 0:
        K, chunk = _block_and_chunk(A)
        assert K > 1  # the blocked path, not the plain recurrence
        # run and transient ends on and next to block and chunk
        # boundaries; state k is reached by application k
        ends = {2, 3, K, K + 1, K + 2, 2 * K + 1, chunk, chunk + 1, chunk + 2}
        runs += [
            (steps, transient)
            for steps in sorted(ends)
            for transient in sorted({0, 1, K - 1, K, K + 1, chunk, steps - 1})
            if 0 <= transient < steps
        ]
    expected = _stepped(sys, z0, max(steps for steps, _ in runs))
    for steps, transient in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orbit = sim.trajectory(sys, steps=steps, transient=transient, z0=z0)
        want = expected[transient:steps]
        assert np.array_equal(orbit.x_values, want[:, 0])
        assert np.allclose(orbit.states, want, rtol=1e-12, atol=1e-12)


def test_trajectory_huge_block_eigenvalue_the_drive_never_enters():
    # the powers of A reach 1e140 in the first coordinate, which stays
    # exactly 0: a power that overflowed would make it inf * 0 = NaN
    A = np.diag([1e20, 0.5])
    sys = cs.CanonicalSystem(
        0.4, -4.0, [0.0, 1.0], [0.0, 0.5], A, [0.0, 1.0], 0.8,
    )
    K, _ = _block_and_chunk(A)
    assert K > 1
    assert np.max(sim._block_powers(A, K)[-1]) <= sim._POWER_LIMIT
    z0 = [0.3, 0.0, -0.5]
    expected = _stepped(sys, z0, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = sim.trajectory(sys, steps=400, transient=0, z0=z0)
    assert np.all(np.isfinite(orbit.states))
    assert np.all(orbit.states[:, 1] == 0.0)
    assert np.array_equal(orbit.x_values, expected[:, 0])
    assert np.allclose(orbit.states, expected, rtol=1e-12, atol=1e-12)


def test_block_powers_shorten_for_cancelling_products():
    # A^2 of a far-from-normal block is a small difference of large
    # products, so its rounding would exceed that of two single steps
    A = np.array([[1.0, 100.0], [-0.0099, -1.0]])  # A^2 = 0.01 I
    assert len(sim._block_powers(A, 40)) == 1
    assert len(sim._block_powers(np.diag([0.5, -0.9]), 40)) == 40
    assert len(sim._block_powers(np.array([[2.0]]), 800)) == 498  # 2^498 < 1e150


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_simulator_tolerances_must_be_finite(bad):
    orbit = sim.trajectory(tent_system(0.4, -4.0), steps=2000, transient=1000, z0=[0.3])
    # a NaN tolerance fails every comparison: no cycle, all-'0' words,
    # one band, where the finite defaults find 3, 'RLL...' and 3
    with pytest.raises(ValueError, match="tol must be a finite positive"):
        sim.detect_cycle(orbit, tol=bad)
    with pytest.raises(ValueError, match="zero_tol must be a finite positive"):
        sim.itinerary(orbit, zero_tol=bad)
    with pytest.raises(ValueError, match="gap_factor must be a finite number > 1"):
        sim.band_count(orbit, gap_factor=bad)
    for tol in (0.0, -1e-9):
        with pytest.raises(ValueError):
            sim.detect_cycle(orbit, tol=tol)
        with pytest.raises(ValueError):
            sim.itinerary(orbit, zero_tol=tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_divergence_threshold_must_be_finite_positive(bad):
    # a NaN or infinite threshold is never exceeded, so these diverging
    # orbits came back as bounded ones full of inf
    match = "divergence_threshold must be a finite positive number"
    block = cs.CanonicalSystem(0.4, -4.0, [1.0], [0.5], [[1.5]], [1.0], 0.8)
    for system, z0 in ((tent_system(0.4, 3.0), [0.4]), (block, None)):
        with pytest.raises(ValueError, match=match):
            sim.trajectory(system, steps=2000, transient=0, z0=z0,
                           divergence_threshold=bad)
    with pytest.raises(ValueError, match=match):
        sim.bifurcation_scan(a=0.4, mu_hat=0.8, d_min=3.0, d_max=3.0, d_steps=1,
                             steps=1000, transient=0, x0=0.4,
                             divergence_threshold=bad)
    # the older checks still come first
    with pytest.raises(ValueError, match="steps must be >= 1"):
        sim.trajectory(block, steps=0, divergence_threshold=bad)
    with pytest.raises(ValueError, match="d must be finite"):
        sim.bifurcation_scan(a=0.4, mu_hat=0.8, d_min=-math.inf, d_max=3.0,
                             d_steps=2, divergence_threshold=bad)


def test_detect_cycle_respects_max_period():
    sys = tent_system(0.4, -4.0)
    orbit = sim.trajectory(sys, steps=3000, transient=2000, z0=[0.3])
    assert sim.detect_cycle(orbit, max_period=2) is None


def test_detect_cycle_none_in_chaos():
    sys = tent_system(0.4, -2.8)
    orbit = sim.trajectory(sys, steps=20000, transient=1000, z0=[0.3])
    assert sim.detect_cycle(orbit, max_period=64) is None


def test_itinerary_letters():
    sys = tent_system(0.4, -4.0)
    orbit = sim.trajectory(sys, steps=3000, transient=2991, z0=[0.3])
    word = sim.itinerary(orbit)
    assert len(word) == 9
    assert set(word) <= {"R", "L", "0"}
    # converged 3-cycle: one positive, two negative points per period
    assert word.count("R") == 3
    assert word.count("L") == 6


def test_itinerary_zero_letter_on_border_cycle():
    # seed exactly on the border cycle 0.8 -> -2.0 -> 0.0; the border
    # point is only one-sidedly attracting so generic seeds never land on it
    sys = tent_system(0.4, -3.5)
    orbit = sim.trajectory(sys, steps=9, transient=0, z0=[0.8])
    word = sim.itinerary(orbit)
    assert word == "RL0RL0RL0"


@pytest.mark.parametrize(
    "d, expected",
    [
        (-6.5, 3),
        (-6.4, 6),
        (-2.8, 2),
        (-3.2, 1),
        (-4.0, 3),
    ],
)
def test_band_count_frozen_cases(d, expected):
    sys = tent_system(0.4, d)
    orbit = sim.trajectory(sys, steps=101000, transient=1000, z0=[0.3])
    assert sim.band_count(orbit) == expected


def test_band_count_on_cycle_and_validation():
    sys = tent_system(0.4, -4.0, 0.0)
    orbit = sim.trajectory(sys, steps=300, transient=200, z0=[-0.5])
    assert sim.band_count(orbit) == 1
    sys3 = tent_system(0.4, -4.0)
    orbit3 = sim.trajectory(sys3, steps=2000, transient=1000, z0=[0.3])
    assert sim.band_count(orbit3) == 3
    with pytest.raises(ValueError):
        sim.band_count(orbit3, gap_factor=1.0)


def test_cobweb_data_structure():
    p = st.SkewTentParams(0.4, -4.0, 0.8)
    pts = sim.cobweb_data(p, x0=0.3, steps=5)
    assert pts.shape == (11, 2)
    assert pts[0] == pytest.approx([0.3, 0.0])
    # vertical move to the curve, then horizontal to the diagonal
    x1 = st.iterate_1d(p, 0.3)
    assert pts[1] == pytest.approx([0.3, x1])
    assert pts[2] == pytest.approx([x1, x1])
    with pytest.raises(ValueError):
        sim.cobweb_data(p, x0=0.3, steps=0)


def test_bifurcation_scan_rows():
    rows = sim.bifurcation_scan(
        a=0.4, mu_hat=0.8, d_min=-5.0, d_max=-3.6, d_steps=3,
        steps=4000, transient=3900, x0=0.3,
    )
    assert [r["d"] for r in rows] == pytest.approx([-5.0, -4.3, -3.6])
    for r in rows:
        assert not r["diverged"]
        assert r["diverged_at"] is None
        # stable window for a=0.4: all three land on a 3-cycle
        assert len({round(x, 9) for x in r["xs"]}) == 3


def test_bifurcation_scan_chaotic_row_spreads():
    rows = sim.bifurcation_scan(
        a=0.4, mu_hat=0.8, d_min=-3.0, d_max=-3.0, d_steps=1,
        steps=2000, transient=1000, x0=0.3,
    )
    assert len({round(x, 9) for x in rows[0]["xs"]}) > 100


def test_bifurcation_scan_divergent_row_reported():
    rows = sim.bifurcation_scan(
        a=0.4, mu_hat=0.8, d_min=3.0, d_max=3.0, d_steps=1,
        steps=2000, transient=1000, x0=0.4,
    )
    assert rows[0]["diverged"]
    assert rows[0]["diverged_at"] == 26
    assert len(rows[0]["xs"]) == 0


@pytest.mark.parametrize("x0", [0.4, None])
@pytest.mark.parametrize("transient", [0, 150])
def test_bifurcation_scan_rows_match_trajectories(x0, transient):
    # d in [-5, 3] crosses stable cycles, chaos and divergence (d > 1)
    rows = sim.bifurcation_scan(
        a=0.4, mu_hat=0.8, d_min=-5.0, d_max=3.0, d_steps=33,
        steps=400, transient=transient, x0=x0,
    )
    assert len(rows) == 33
    diverged = 0
    for row in rows:
        z0 = None if x0 is None else [x0]
        try:
            orbit = sim.trajectory(
                tent_system(0.4, row["d"]), steps=400, transient=transient, z0=z0
            )
        except DivergenceError as err:
            diverged += 1
            assert row["diverged"]
            assert row["diverged_at"] == err.step
            assert row["xs"].size == 0
            continue
        assert not row["diverged"]
        assert row["diverged_at"] is None
        assert np.array_equal(row["xs"], orbit.x_values)
    assert 0 < diverged < len(rows)
    kept = [row["xs"] for row in rows if not row["diverged"]]
    assert all(xs.base is kept[0].base for xs in kept)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"a": float("nan")}, "a must be finite"),
        ({"mu_hat": float("inf")}, "mu_hat must be finite"),
        ({"d_min": float("-inf")}, "d must be finite"),
        ({"x0": float("nan")}, "z0 must be finite"),
        ({"d_steps": 0}, "d_steps must be >= 1"),
        ({"steps": 0}, "steps must be >= 1"),
        ({"transient": 2000}, "need 0 <= transient < steps"),
    ],
)
def test_bifurcation_scan_validation(kwargs, message):
    args = dict(a=0.4, mu_hat=0.8, d_min=-5.0, d_max=-3.0, d_steps=3,
                steps=2000, transient=1000, x0=0.3)
    args.update(kwargs)
    with pytest.raises(ValueError, match=message):
        sim.bifurcation_scan(**args)
