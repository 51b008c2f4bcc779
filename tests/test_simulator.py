"""Tests for trajectory simulation, cycle detection and band counting."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from pwlcycles import cycle_solver as cs
from pwlcycles import region_atlas as ra
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
    # the run's scale is max(|mu_hat|, |x0|) = 0.8
    assert info.value.threshold == sim.DIVERGENCE_THRESHOLD * 0.8
    assert abs(info.value.state[0]) > info.value.threshold
    assert str(info.value).startswith("orbit diverged at step 26")
    # the same divergence, inside an unrecorded transient
    with pytest.raises(DivergenceError) as inside:
        sim.trajectory(sys, steps=1000, transient=500, z0=[0.4])
    assert inside.value.step == 26
    assert inside.value.state.tobytes() == info.value.state.tobytes()


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


def _stepped(sys, z0, steps):
    """Oracle: iterate cycle_solver.step, returning the states or the
    (step, state) at which any coordinate first exceeds the run's
    threshold, DIVERGENCE_THRESHOLD times the largest of |mu_hat|,
    |h_Y| and |z0|."""
    z = np.asarray(z0, dtype=float)
    scale = max([abs(sys.mu_hat)] + [abs(v) for v in sys.h_Y] + [abs(v) for v in z])
    threshold = sim.DIVERGENCE_THRESHOLD * scale
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


# contracting and far from normal: A^2 = 0.05 I, but max(|A| |A|) = 4
_FAR_FROM_NORMAL = np.array([[0.5, 4.0], [-0.05, -0.5]])
# contracting (spectral radius 0.53) but ||A||_2 = 3.68, so A^2 fails the
# cancellation test and K = 1: every block is one step of the carry (the
# first m = 3 state system of the orbits benchmark at seed 24105)
_CONTRACTING_K1 = np.array([
    [-0.17198677148194988, 0.11232235692416821, -1.3570052004741793],
    [0.2789619127774106, -1.151936466650968, -3.125745058640513],
    [-0.1084412812052728, 0.44746417305161257, 0.8097179129057871],
])
_NAMED_BLOCKS = {"far-from-normal": _FAR_FROM_NORMAL, "contracting-K1": _CONTRACTING_K1}

_ORACLE_CASES = [(0, None), (3, None)] + [
    (m, radius) for m in (1, 2, 3, 16, 64) for radius in (0.3, 0.99, 1.0)
] + [(2, "far-from-normal")]
_ORACLE_IDS = [
    str(m) if r is None else f"{m}-{r}" if isinstance(r, str) else f"{m}-dense-{r}"
    for m, r in _ORACLE_CASES
]


def _oracle_system(m, radius, d=-4.0):
    """The system and start of one _ORACLE_CASES entry, x running the
    tent of a = 0.4 and d. radius None: the diagonal block 0.6 I; a
    string: that block of _NAMED_BLOCKS; else a dense non-normal block
    of that spectral radius."""
    if radius is None or isinstance(radius, str):
        rng = np.random.default_rng(7)
        A = 0.6 * np.eye(m) if radius is None else _NAMED_BLOCKS[radius]
    else:
        rng = np.random.default_rng(100 * m + int(100 * radius))
        A = _dense_block(rng, m, radius)
    sys = cs.CanonicalSystem(
        0.4, d, rng.uniform(-1, 1, m), rng.uniform(-1, 1, m),
        A, rng.uniform(-1, 1, m), 0.8,
    )
    return sys, np.append(0.3, rng.uniform(-1, 1, m))


@pytest.mark.parametrize("m, radius", _ORACLE_CASES, ids=_ORACLE_IDS)
def test_trajectory_matches_stepping_oracle(m, radius):
    sys, z0 = _oracle_system(m, radius)
    A = sys.A_block
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
        # transients that cover the first two chunks whole, so their
        # states are never formed, before a recorded third
        runs += [(2 * chunk + 2, 2 * chunk + 1), (2 * chunk + K + 2, 2 * chunk + 1),
                 (2 * chunk + K + 2, 2 * chunk + K + 1)]
    expected = _stepped(sys, z0, max(steps for steps, _ in runs))
    for steps, transient in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orbit = sim.trajectory(sys, steps=steps, transient=transient, z0=z0)
        want = expected[transient:steps]
        assert np.array_equal(orbit.x_values, want[:, 0])
        assert np.allclose(orbit.states, want, rtol=1e-12, atol=1e-12)


# the stepping oracle needs K > 1, so the K = 1 block is checked here only
_WIDE_Y_CASES = [
    (m, r) for m, r in _ORACLE_CASES if r in (0.99, 1.0, "far-from-normal")
] + [(3, "contracting-K1")]


# the blocks whose Y tail trajectory solves as the cycle of the repeated
# x word (x repeats from step 259 with period 3) once the transient is
# long enough; 0.6 I is radius None
_CYCLE_Y_CASES = [(2, "far-from-normal"), (3, "contracting-K1"), (3, None),
                  (16, 0.3), (64, 0.3)]
_LONG_RUN = (30_000, 29_000)


def _count_scans(monkeypatch):
    """A list that gains one entry per call of _y_orbit, trajectory's
    scan route; it stays empty where the cycle route runs."""
    calls = []
    scan = sim._y_orbit
    monkeypatch.setattr(sim, "_y_orbit", lambda *args: calls.append(1) or scan(*args))
    return calls


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)
@pytest.mark.parametrize(
    "m, radius, transient",
    [(m, r, 0) for m, r in _WIDE_Y_CASES]
    + [(m, r, _LONG_RUN[1]) for m, r in _CYCLE_Y_CASES],
    ids=[f"{m}-{r}" for m, r in _WIDE_Y_CASES]
    + [f"{m}-{r}-cycle" for m, r in _CYCLE_Y_CASES],
)
def test_trajectory_y_matches_long_double_recurrence(m, radius, transient, monkeypatch):
    # Y_k = A Y_(k-1) + u_(k-1) stepped in long double from trajectory's
    # own x values, which are bit-identical to the stepper's, so the
    # comparison sees only the Y evaluation; over 30,000 steps the float64
    # evaluation may round by at most about eps per step of the scale.
    # The long transients take the cycle route, whose tail is solved
    scans = _count_scans(monkeypatch)
    sys, z0 = _oracle_system(m, radius)
    steps = _LONG_RUN[0]
    orbit = sim.trajectory(sys, steps=steps, transient=transient, z0=z0)
    assert len(scans) == (transient == 0)
    x = np.empty(steps)
    sim._x_orbit(sys, z0[0], x, math.inf)
    assert np.array_equal(orbit.x_values, x[transient:])
    wide = np.longdouble
    A = sys.A_block.astype(wide)
    drive = np.where(
        (x <= 0.0)[:, None], sys.b_vec, sys.e_vec
    ).astype(wide) * x.astype(wide)[:, None] + sys.h_Y.astype(wide)
    Y = np.empty((steps, m), dtype=wide)
    Y[0] = z0[1:]
    for k in range(1, steps):
        Y[k] = np.dot(A, Y[k - 1]) + drive[k - 1]
    miss = np.max(np.abs(orbit.states[:, 1:] - Y[transient:]))
    assert miss <= steps * np.finfo(float).eps * np.max(np.abs(Y))


# (m, radius, d, transient) over _LONG_RUN[0] steps: the cycle-route
# blocks; records of one and two states, shorter than the period 3; and
# the fixed point 1.6 of d = 0.5, a period of 1
_ROUTE_CASES = [(m, r, -4.0, _LONG_RUN[1]) for m, r in _CYCLE_Y_CASES] + [
    (3, None, -4.0, _LONG_RUN[0] - 1), (3, None, -4.0, _LONG_RUN[0] - 2),
    (3, None, 0.5, _LONG_RUN[1])]
_ROUTE_IDS = [f"{m}-{r}" for m, r in _CYCLE_Y_CASES] + [
    "3-None-record-1", "3-None-record-2", "3-None-fixed-point"]


@pytest.mark.parametrize("m, radius, d, transient", _ROUTE_CASES, ids=_ROUTE_IDS)
def test_cycle_route_matches_stepping_oracle(m, radius, d, transient, monkeypatch):
    scans = _count_scans(monkeypatch)
    sys, z0 = _oracle_system(m, radius, d)
    steps = _LONG_RUN[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = sim.trajectory(sys, steps=steps, transient=transient, z0=z0)
    assert scans == []
    want = _stepped(sys, z0, steps)[transient:]
    assert np.array_equal(orbit.x_values, want[:, 0])
    assert np.allclose(orbit.states, want, rtol=1e-12, atol=1e-12)


def _stable_system(rng, m):
    """A system whose R L^(n-1) cycle attracts, with x multiplier of
    modulus below 0.9 and a dense block of spectral radius 0.3..0.7, as
    the orbits benchmark draws its state systems."""
    n = int(rng.integers(3, 6))
    a = float(rng.uniform(0.2, 0.4))
    lo = a * float(st.geometric_sum(a, n - 1)) * 1.02
    d = -float(rng.uniform(lo, 0.9)) / a ** (n - 1)
    return cs.CanonicalSystem(
        a, d, rng.uniform(-1, 1, m), rng.uniform(-1, 1, m),
        _dense_block(rng, m, rng.uniform(0.3, 0.7)), rng.uniform(-1, 1, m),
        float(rng.uniform(0.5, 1.5)),
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("m", [3, 16])
def test_stable_systems_take_the_cycle_route(m, seed, monkeypatch):
    scans = _count_scans(monkeypatch)
    sys = _stable_system(np.random.default_rng(seed), m)
    orbit = sim.trajectory(sys, steps=5000, transient=4500)
    assert scans == []
    # the recorded tail is the solved cycle, tiled with the x period
    start, p = _first_repeat(orbit.x_values.copy())
    assert start == 0
    assert np.array_equal(orbit.states[p:], orbit.states[:-p])


@pytest.mark.parametrize("radius", list(_NAMED_BLOCKS))
def test_named_contracting_blocks_take_the_cycle_route(radius, monkeypatch):
    scans = _count_scans(monkeypatch)
    sys, z0 = _oracle_system(len(_NAMED_BLOCKS[radius]), radius)
    sim.trajectory(sys, steps=5000, transient=4500, z0=z0)
    assert scans == []


def test_cancelling_block_takes_the_cycle_route_at_a_long_transient(monkeypatch):
    # the CI run of the cancelling block: K = 1, yet ||A^2||_inf = 0.01
    scans = _count_scans(monkeypatch)
    sys, _ = _cancelling_system(1.0)
    orbit = sim.trajectory(sys, steps=30_000, transient=25_000, z0=[0.3, 0.0, 0.0])
    assert scans == []
    assert sim.detect_cycle(orbit).period == 3


@pytest.mark.parametrize(
    "m, radius", [(m, r) for m in (1, 3, 16) for r in (0.99, 1.0, 1.0015)])
def test_blocks_of_radius_near_one_take_the_scan_route(m, radius, monkeypatch):
    # 0.99^64 > 1/2: no power up to _CONTRACTION_CAP halves the norm;
    # the growing blocks diverge, at the scan's exact first crossing
    scans = _count_scans(monkeypatch)
    sys, z0 = _oracle_system(m, radius)
    assert sim._contraction(sys.A_block) is None
    result = _run(sys, z0, *_LONG_RUN)
    assert scans == [1]
    assert isinstance(result, DivergenceError) == (radius > 1.0)


def _exact_power_norms(A, k_max):
    """||A^k||_inf for k = 0..k_max in exact rational arithmetic."""
    F = [[Fraction(v) for v in row] for row in A.tolist()]
    m = len(F)
    P = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    norms = []
    for _ in range(k_max + 1):
        norms.append(max(sum(map(abs, row)) for row in P))
        P = [[sum(P[i][l] * F[l][j] for l in range(m)) for j in range(m)]
             for i in range(m)]
    return norms


def test_contraction_bounds_every_power_to_rounding():
    # _contraction's certificate ||A^k||_inf <= N 2^-floor(k/j), checked
    # on exact powers for k <= 4 j + 8; the computed norms and powers
    # round, so the claim holds to one ulp relative
    rng = np.random.default_rng(11)
    blocks = [_dense_block(rng, int(rng.integers(1, 4)), rng.uniform(0.1, 0.95))
              for _ in range(60)]
    # triangular, far from normal: couplings of 5 to 1,000
    blocks += [np.array([[r0, c], [0.0, r1]])
               for r0, r1, c in zip(*rng.uniform(-0.8, 0.8, (2, 20)),
                                    rng.uniform(5.0, 1000.0, 20))]
    blocks += [_FAR_FROM_NORMAL, _CONTRACTING_K1, _cancelling_system(1.0)[0].A_block]
    one_ulp = 1 + Fraction(1, 2**52)
    for A in blocks:
        j, N = sim._contraction(A)
        for k, norm in enumerate(_exact_power_norms(A, 4 * j + 8)):
            assert norm <= Fraction(N) / 2 ** (k // j) * one_ulp, (A, k)


@pytest.mark.parametrize("seed", range(8))
def test_transient_cap_on_contraction_changes_no_route(seed, monkeypatch):
    # where B is a normal float the deviation test needs
    # floor((transient - s) / j) >= 55, so _y_cycle_tail searches j only
    # up to (transient - s) // 55; the full search of _contraction takes
    # the route at the same transients, the first of them a few j past
    # 55 j
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    sys = cs.CanonicalSystem(
        0.4, -4.0, rng.uniform(-1, 1, m), rng.uniform(-1, 1, m),
        _dense_block(rng, m, rng.uniform(0.3, 0.95)), rng.uniform(-1, 1, m), 0.8)
    z0 = np.append(0.3, rng.uniform(-1, 1, m))
    xs = np.empty(4000)
    threshold = sim._divergence_threshold(sys.mu_hat, *sys.h_Y, *z0)
    _, p = sim._x_orbit(sys, z0[0], xs, threshold)
    s = sim._repeat_start(xs, p, len(xs))
    j, _ = sim._contraction(sys.A_block)
    transients = range(s, s + 70 * j)
    rec = np.empty((len(xs) - transients[-1], m))  # the decision reads no record

    def routes():
        return [sim._y_cycle_tail(sys, xs, z0[1:], p, t, rec, threshold)
                for t in transients]

    capped = routes()
    full_search = sim._contraction
    monkeypatch.setattr(sim, "_contraction", lambda A, cap: full_search(A))
    assert capped == routes()
    assert any(capped)


def test_chaotic_x_takes_the_scan_route(monkeypatch):
    # the 4-band tent with a contracting diagonal block: x never repeats
    scans = _count_scans(monkeypatch)
    sys = cs.CanonicalSystem(0.6004, -1.9091, [1.0, 0.5, 0.6], [0.5, 1.0, 1.0],
                             np.diag([0.4, 0.5, 0.6]), [1.0, 0.0, 1.0], 0.8)
    sim.trajectory(sys, steps=20_000, transient=15_000, z0=[0.3, 0.0, 0.0, 0.0])
    assert scans == [1]


def test_y_crossing_on_a_contracting_block_keeps_the_scan_route(monkeypatch):
    # x repeats and 0.5 I contracts, but the couplings are large against
    # the run's scale: the bound 2 B exceeds the threshold, and Y does
    # cross it, at the stepping oracle's step
    scans = _count_scans(monkeypatch)
    sys = cs.CanonicalSystem(0.4, -4.0, [3e12, 0.0], [3e12, 0.0], 0.5 * np.eye(2),
                             [1.0, 0.0], 0.8)
    step, _ = _assert_oracle_divergence(sys, [0.3, 0.0, 0.0], 30_000, 29_000)
    assert step < 29_000
    assert scans == [1]


def test_cycle_route_needs_a_period_short_against_the_run(monkeypatch):
    # a = 1 steps integers: 1, -199, -198, ..., 0, 1 has period 201, and
    # the cycle route forms its states one Python step each
    scans = _count_scans(monkeypatch)
    sys = cs.CanonicalSystem(1.0, -200.0, [0.5, -0.5], [0.3, 1.0], 0.5 * np.eye(2),
                             [1.0, 0.0], 1.0)
    z0 = [1.0, 0.0, 0.0]
    limit = sim._CYCLE_STEP_COST * 201
    expected = _stepped(sys, z0, limit)
    for steps, routed in ((limit - 1, False), (limit, True)):
        scans.clear()
        orbit = sim.trajectory(sys, steps=steps, transient=steps - 300, z0=z0)
        assert scans == ([] if routed else [1])
        assert np.allclose(orbit.states, expected[steps - 300 : steps],
                           rtol=1e-12, atol=1e-12)


def test_cycle_route_needs_the_transient_past_the_repeat_and_the_decay(monkeypatch):
    # x repeats from s = 259 with period 3, and the block 0.6 I halves
    # every 2 steps: a transient before s, or one that leaves the
    # deviation above the cycle's rounding, keeps the scan route
    scans = _count_scans(monkeypatch)
    sys, z0 = _oracle_system(3, None)
    expected = _stepped(sys, z0, 2000)
    for transient, routed in ((258, False), (259, False), (300, False), (1000, True)):
        scans.clear()
        orbit = sim.trajectory(sys, steps=2000, transient=transient, z0=z0)
        assert scans == ([] if routed else [1])
        assert np.allclose(orbit.states, expected[transient:], rtol=1e-12, atol=1e-12)


def _assert_oracle_divergence(sys, z0, steps, transient):
    """trajectory raises at the oracle's step with the oracle's state."""
    step, state = _stepped(sys, z0, steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            sim.trajectory(sys, steps=steps, transient=transient, z0=z0)
    assert info.value.step == step
    assert info.value.state[0] == state[0]
    assert np.allclose(info.value.state, state, rtol=1e-12, atol=0)
    return step, state


@pytest.mark.parametrize("m, seed, radius, K, steps", [
    (1, 3, 1.0012, 160, 40_000), (2, 3, 1.0015, 80, 30_000),
    (16, 6, 1.002, 10, 30_000), (64, 3, 1.002, 2, 30_000)])
@pytest.mark.parametrize("recorded", [False, True], ids=["unrecorded", "recorded"])
def test_y_divergence_between_block_ends_in_an_unrecorded_chunk(
        m, seed, radius, K, steps, recorded):
    # an A_block eigenvalue just above 1: Y crosses past the first chunk,
    # between two block ends, and the crossing is read from the states
    # the block map forms; with the last state alone recorded, the chunk
    # of the crossing lies before the recorded one, and with transient 0
    # every chunk is recorded
    A = _dense_block(np.random.default_rng(seed), m, radius)
    sys = cs.CanonicalSystem(0.4, -4.0, np.resize([1.0, 0.5], m), np.resize([0.5, 1.0], m),
                             A, np.resize([1.0, 0.0], m), 0.8)
    block, chunk = _block_and_chunk(A)
    assert block == K
    transient = 0 if recorded else steps - 1
    step, state = _assert_oracle_divergence(sys, np.append(0.3, np.zeros(m)), steps, transient)
    assert chunk < step
    assert recorded or (step - 1) // chunk < (transient - 1) // chunk
    assert step % K != 0  # block ends sit at multiples of K
    assert abs(state[0]) < 10.0


def _drawn_block(rng, m, radius, kind):
    """A block of the given spectral radius: diagonal, dense
    (_dense_block), or far from normal, upper triangular with couplings
    of up to 2."""
    if kind == "dense":
        return _dense_block(rng, m, radius)
    lam = rng.uniform(-1, 1, m)
    A = np.diag(radius * lam / np.abs(lam).max())
    if kind == "far-from-normal":
        A += np.triu(rng.uniform(-2, 2, (m, m)), 1)
    return A


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hs.integers(0, 2**32 - 1))
def test_scan_route_matches_stepping_oracle_on_drawn_blocks(seed):
    # chaotic x (the 4-band tent) never repeats, so every run takes the
    # scan route: m from 1 to 12, blocks of spectral radius 0.2 to 1.0,
    # up to three chunks with the transient anywhere in them
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 13))
    kind = ("diagonal", "dense", "far-from-normal")[int(rng.integers(3))]
    A = _drawn_block(rng, m, float(rng.uniform(0.2, 1.0)), kind)
    sys = cs.CanonicalSystem(0.6004, -1.9091, rng.uniform(-1, 1, m), rng.uniform(-1, 1, m),
                             A, rng.uniform(-1, 1, m), 0.8)
    z0 = np.append(0.3, rng.uniform(-1, 1, m))
    steps = int(rng.integers(1, 3 * _block_and_chunk(A)[1] + 1))
    transient = int(rng.integers(0, steps))
    expected = _stepped(sys, z0, steps)
    with pytest.MonkeyPatch.context() as patch:
        scans = _count_scans(patch)
        got = _run(sys, z0, steps, transient)
    assert scans == [1]
    if isinstance(expected, tuple):
        assert isinstance(got, DivergenceError) and got.step == expected[0]
        assert np.allclose(got.state, expected[1], rtol=1e-12, atol=0)
    else:
        want = expected[transient:]
        assert np.array_equal(got.x_values, want[:, 0])
        assert np.allclose(got.states, want, rtol=1e-12, atol=1e-12)


def test_x_divergence_after_the_first_x_chunk():
    # x' = 1.001 x + 0.8 crosses 1e12 (the scale is |h_Y| = 1) after
    # about 21k steps, beyond the first screened chunk of x values; the
    # small drive keeps Y inside
    sys = cs.CanonicalSystem(
        0.4, 1.001, [0.1, 0.2], [0.1, 0.2], np.diag([0.4, 0.5]), [1.0, 0.0], 0.8
    )
    step, state = _assert_oracle_divergence(sys, [0.4, 0.0, 0.0], 30_000, 29_999)
    assert step > sim._X_CHUNK
    assert abs(state[0]) > 1e12 and np.max(np.abs(state[1:])) < 1e12
    # the 1D map alone, recorded from step 0: its scale is mu_hat = 0.8,
    # so it crosses 8e11 a little earlier
    tent = tent_system(0.4, 1.001)
    tent_step, tent_state = _assert_oracle_divergence(tent, [0.4], 30_000, 0)
    assert sim._X_CHUNK < tent_step < step
    assert abs(tent_state[0]) > 8e11


def _x_steps(sys, x, count, threshold):
    """Oracle: x_0.. of the 1D map, stepped one at a time up to count
    values or the first x_k with |x_k| > threshold, and that (k, x_k)."""
    xs = [x]
    for k in range(1, count):
        x = sys.a * x + sys.mu_hat if x <= 0.0 else sys.d * x + sys.mu_hat
        xs.append(x)
        if abs(x) > threshold:
            return np.array(xs), (k, x)
    return np.array(xs), None


def _first_repeat(xs):
    """(s, p) for the first k = s + p whose x_k has the bits of an
    earlier x, that x being x_s, or None."""
    seen = {}
    for k, bits in enumerate(xs.view(np.int64).tolist()):
        if bits in seen:
            return seen[bits], k - seen[bits]
        seen[bits] = k
    return None


def _seen_period(count, repeat):
    """The period _x_orbit reports for a record of count values whose
    first repeat is (s, p): p at the first chunk end k >= s + p whose
    window, the chunk and the value before it, holds x_(k-p)."""
    if repeat is None:
        return None
    s, p = repeat
    k0, size = 1, sim._X_FIRST_CHUNK
    while k0 < count:
        k1 = min(k0 + size, count)
        if k1 - 1 >= s + p and k1 - 1 - p >= k0 - 1:
            return p
        k0, size = k1, min(2 * size, sim._X_CHUNK)
    return None


def _assert_x_orbit_matches_steps(sys, x0, count, threshold=sim.DIVERGENCE_THRESHOLD):
    """_x_orbit writes the oracle's values bit for bit and returns its
    first crossing; the values after a crossing are not compared. Without
    a crossing it reports the first bitwise repeat's period p wherever a
    chunk end sees it, and _repeat_start finds the repeat's start s."""
    rec = np.empty(count)
    hit, period = sim._x_orbit(sys, x0, rec, threshold)
    xs, want = _x_steps(sys, x0, count, threshold)
    assert np.array_equal(rec[: xs.size].view(np.int64), xs.view(np.int64))
    assert hit == want
    repeat = _first_repeat(xs)
    assert period == (None if hit else _seen_period(count, repeat))
    if period is not None:
        assert (sim._repeat_start(rec, period, count), period) == repeat
    return xs, hit


@pytest.mark.parametrize("a, d, mu, x0, count, repeat", [
    # (first repeat step, or None) of the orbit's count values
    (0.5, -2.0, 1.0, 0.3, 300, 7),  # inside the first chunk
    (0.4, -4.0, 0.8, 0.4, 1000, 227),  # in the third chunk
    (0.4, -4.0, 0.8, 0.4, 228, 227),  # at the last step
    (0.4, -6.2, 0.8, 0.4, 20_000, 11_176),  # beyond _X_CHUNK
    # a = 1 steps integers: 1, 1 + d, 2 + d, ..., 0, 1 has period 1 - d
    (1.0, -63.0, 1.0, 1.0, 300, 64),  # x_64 repeats x_0, before the chunk
    (1.0, -70.0, 1.0, 1.0, 1000, 71),
    (1.0, -200.0, 1.0, 1.0, 1000, 201),
    # +0.0 and -0.0 alternate; equal values are not a repeat
    (-0.5, 0.3, -0.0, 0.0, 100, 2),
    (-0.5, 0.3, -0.0, -0.0, 100, 2),
    (-0.5, 0.3, 0.0, -0.0, 100, 2),
    (0.5, 0.3, -0.0, -0.0, 100, 1),  # -0.0 is fixed
    (0.4, -3.0, 0.8, 0.3, 20_000, None),  # chaotic bands
    (0.6004, -1.9091, 0.8, 0.3, 20_000, None),
    (0.4, -4.0, 0.8, 0.4, 1, None),
    (0.4, -4.0, 0.8, 0.4, 2, None),
    (0.5, 0.0, 0.0, 0.0, 2, 1),
    # long records of short periods: whole periods and a remainder
    (0.4, 0.5, 0.8, 0.4, 200_001, 54),  # the fixed point 1.6
    (-0.5, 0.3, -0.0, 0.0, 200_002, 2),
    (0.5, -2.0, 1.0, 0.3, 200_003, 7),  # period 4, 2 values over
])
def test_x_orbit_matches_stepping(a, d, mu, x0, count, repeat):
    xs, hit = _assert_x_orbit_matches_steps(tent_system(a, d, mu), x0, count)
    assert hit is None
    first = _first_repeat(xs)
    assert (None if first is None else sum(first)) == repeat


@pytest.mark.parametrize("d, count, step", [
    (3.0, 100, 26),
    (1e300, 100, 1),  # then inf, which repeats inside the same chunk
    (1.001, 30_000, 20_957),  # beyond _X_CHUNK
])
def test_x_orbit_divergence_matches_stepping(d, count, step):
    _, hit = _assert_x_orbit_matches_steps(tent_system(0.4, d), 0.4, count)
    assert hit[0] == step


_X_SLOPES = hs.sampled_from([0.5, -0.5, 0.25, 0.4, -2.0, -4.0, 2.0, 1.0, 0.0, -0.0])
_X_OFFSETS = hs.sampled_from([0.8, 1.0, -1.0, 0.0, -0.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    hs.one_of(_X_SLOPES, hs.floats(-5.0, 5.0)),
    hs.one_of(_X_SLOPES, hs.floats(-5.0, 5.0)),
    hs.one_of(_X_OFFSETS, hs.floats(-2.0, 2.0)),
    hs.one_of(_X_OFFSETS, hs.floats(-3.0, 3.0)),
    hs.integers(1, 700),
    hs.sampled_from([sim.DIVERGENCE_THRESHOLD, 50.0, math.inf]),
)
# +0.0 and -0.0 alternate, so the first repeat is (s, p) = (0, 2)
@example(-0.5, 0.3, -0.0, 0.0, 100, sim.DIVERGENCE_THRESHOLD)
def test_x_orbit_matches_stepping_on_drawn_maps(a, d, mu, x0, count, threshold):
    _assert_x_orbit_matches_steps(tent_system(a, d, mu), x0, count, threshold)


@pytest.mark.parametrize("a, d, mu, x0", [
    (0.4, 3.0, 0.8, 0.4),  # runs to inf, which repeats
    (0.4, -4.0, 0.8, 0.4),  # repeats at step 227
    (-0.5, 0.3, -0.0, 0.0),  # +0.0, -0.0, +0.0, ...
    (0.4, -3.0, 0.8, 0.3),  # chaotic
])
def test_cobweb_data_matches_stepping(a, d, mu, x0):
    # threshold inf: the oracle never stops, and cobweb_data never screens
    xs, _ = _x_steps(tent_system(a, d, mu), x0, 2001, math.inf)
    bits = sim.cobweb_data(st.SkewTentParams(a, d, mu), x0, 2000).view(np.int64)
    want = xs.view(np.int64)
    # rows (x_k, x_(k+1)) and (x_(k+1), x_(k+1)) for k = 0..1999
    assert np.array_equal(bits[1::2, 0], want[:-1])
    for col in (bits[1::2, 1], bits[2::2, 0], bits[2::2, 1]):
        assert np.array_equal(col, want[1:])


def _cancelling_system(scale, a=0.4, d=-4.0):
    """A block whose A^2 = 0.01 scale^2 I is a small difference of large
    products: K = 1, and no square passes the checks, so the scan carries
    the ends one block per segment. x runs the tent map of a, d and
    mu_hat = 0.8 (by default the 3-cycle). Returns the system and its
    chunk length."""
    A = scale * np.array([[1.0, 100.0], [-0.0099, -1.0]])
    sys = cs.CanonicalSystem(a, d, [1.0, 0.5], [0.5, 1.0], A, [1.0, 0.0], 0.8)
    K, chunk = _block_and_chunk(A)
    assert K == 1
    assert not sim._passes_checks(A @ A, A, A)
    return sys, chunk


def test_cancelling_block_over_several_chunks(monkeypatch):
    # chaotic x (the 4-band tent) never repeats, so the scan route
    # carries the ends across two unrecorded chunks
    scans = _count_scans(monkeypatch)
    sys, chunk = _cancelling_system(1.0, 0.6004, -1.9091)
    z0 = [0.3, 0.0, 0.0]
    steps, transient = 3 * chunk, 2 * chunk + 1
    expected = _stepped(sys, z0, steps)[transient:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = sim.trajectory(sys, steps=steps, transient=transient, z0=z0)
    assert scans == [1]
    assert np.array_equal(orbit.x_values, expected[:, 0])
    assert np.allclose(orbit.states, expected, rtol=1e-12, atol=1e-12)


def test_cancelling_block_diverges_inside_an_unrecorded_chunk():
    # A^2 = 1.002 I: Y grows by about 1.001 a step and crosses inside
    # the third chunk
    sys, chunk = _cancelling_system(10.01)
    step, _ = _assert_oracle_divergence(sys, [0.3, 0.0, 0.0], 3 * chunk, 3 * chunk - 1)
    assert 2 * chunk < step < 3 * chunk - 1


@pytest.mark.parametrize("top, steps, K, squares", [
    # A^7 = 1e140 and no square of it passes
    (1e20, 400, 7, 0),
    # A^80 = 1.2e14 and its squares up to A^640 pass; A^1280 = 2.5e225
    # fails, and the squarings a chunk of 102 blocks could use run on to
    # inf and NaN past it
    (1.5, 20_000, 80, 3),
])
def test_trajectory_huge_block_eigenvalue_the_drive_never_enters(top, steps, K, squares):
    # the powers of A grow in the first coordinate, which stays exactly
    # 0: a power or jump that overflowed would make it inf * 0 = NaN
    A = np.diag([top, 0.5])
    sys = cs.CanonicalSystem(
        0.4, -4.0, [0.0, 1.0], [0.0, 0.5], A, [0.0, 1.0], 0.8,
    )
    assert _block_and_chunk(A)[0] == K
    J = sim._block_powers(A, K)[-1]
    assert np.max(J) <= sim._POWER_LIMIT
    passed = 0
    with np.errstate(over="ignore"):
        while sim._passes_checks(J @ J, J, J):
            J, passed = J @ J, passed + 1
    assert passed == squares
    z0 = [0.3, 0.0, -0.5]
    expected = _stepped(sys, z0, steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = sim.trajectory(sys, steps=steps, transient=0, z0=z0)
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


def test_block_powers_keep_contracting_far_from_normal_blocks():
    # max(|A| |A|) = 4 is 80 times max|A^2| = 0.05, but the rounding is
    # judged against the state a power moves, at least one unit: 4 <= 5
    A = _FAR_FROM_NORMAL
    powers = sim._block_powers(A, sim._Y_BLOCK_WIDTH // 2)
    assert len(powers) == 80
    assert sim._passes_checks(A @ A, A, A)
    J = powers[-1]
    assert sim._passes_checks(J @ J, J, J)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_simulator_tolerances_must_be_finite(bad):
    orbit = sim.trajectory(tent_system(0.4, -4.0), steps=2000, transient=1000, z0=[0.3])
    # a NaN tolerance fails every comparison: no cycle and all-'0' words,
    # where the finite defaults find 3 and 'RLL...'
    with pytest.raises(ValueError, match="tol must be a finite positive"):
        sim.detect_cycle(orbit, tol=bad)
    with pytest.raises(ValueError, match="zero_tol must be a finite positive"):
        sim.itinerary(orbit, zero_tol=bad)
    for tol in (0.0, -1e-9):
        with pytest.raises(ValueError):
            sim.detect_cycle(orbit, tol=tol)
        with pytest.raises(ValueError):
            sim.itinerary(orbit, zero_tol=tol)


def _detect_cycle_loop(orbit, max_period, tol):
    """Reference: compare the last p states with the p before them for
    each p in turn, within tol times the largest |value| of the last
    2 min(max_period, rows // 2) states; None when those hold inf or NaN."""
    states = orbit.states
    window = states[states.shape[0] - 2 * min(max_period, states.shape[0] // 2):]
    if not np.isfinite(window).all():
        return None
    tol = tol * max((abs(v) for v in window.ravel().tolist()), default=0.0)
    for p in range(1, max_period + 1):
        if 2 * p > states.shape[0]:
            break
        if np.max(np.abs(states[-p:] - states[-2 * p : -p])) <= tol:
            return sim.DetectedCycle(period=p, points=states[-p:].copy(), tol_used=tol)
    return None


def _seeded_orbits(rng):
    """Tails of random tents (stable, chaotic and diverging parameters),
    of random m = 3 and m = 16 systems, short orbits and orbits holding
    NaN and inf states."""
    for _ in range(150):
        a = float(rng.uniform(-0.95, 0.95))
        d = -math.exp(float(rng.uniform(0.02, 3.4)))
        try:
            yield sim.trajectory(tent_system(a, d, 1.0), steps=3000, transient=2000)
        except DivergenceError:
            continue
    for m in (3, 16):
        for _ in range(5):
            sys = cs.CanonicalSystem(
                float(rng.uniform(0.2, 0.5)), float(rng.uniform(-8.0, -2.0)),
                rng.uniform(-1, 1, m), rng.uniform(-1, 1, m),
                np.diag(rng.uniform(-0.8, 0.8, m)), rng.uniform(-1, 1, m), 0.8,
            )
            yield sim.trajectory(sys, steps=1500, transient=1000)
    base = sim.trajectory(tent_system(0.4, -4.0), steps=400, transient=300).states
    for size in range(6):
        yield sim.Orbit(states=base[:size].copy(), transient=0)
    for bad in (math.nan, math.inf, -math.inf):
        for row in (-1, -2, -4, 0):
            states = base.copy()
            states[row] = bad
            yield sim.Orbit(states=states, transient=0)


def test_detect_cycle_matches_reference_loop():
    rng = np.random.default_rng(31)
    found = 0
    for orbit in _seeded_orbits(rng):
        for max_period, tol in ((64, 1e-7), (2, 1e-7), (64, 1e-3), (7, 1e-12)):
            with np.errstate(invalid="ignore"):
                want = _detect_cycle_loop(orbit, max_period, tol)
                got = sim.detect_cycle(orbit, max_period=max_period, tol=tol)
            if want is None:
                assert got is None
                continue
            found += 1
            assert got.period == want.period
            assert got.points.tobytes() == want.points.tobytes()
            assert got.tol_used == want.tol_used
    assert found > 100


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


def test_itinerary_default_follows_mu_hat():
    # mu_hat = 10: the third point of the 3-cycle, about -5e-9, is inside
    # zero_tolerance(10) = 1e-8 but outside the absolute 1e-9
    sys = tent_system(0.5, -3.00000000175, 10.0)
    assert cs.solve_cycle(sys, 3).sequence == "RL0"
    orbit = sim.trajectory(sys, steps=300, transient=291, z0=[10.0])
    assert orbit.mu_hat == 10.0
    assert sim.itinerary(orbit) == "RL0" * 3
    assert sim.itinerary(orbit, zero_tol=1e-9) == "RLL" * 3
    # an Orbit built by hand keeps the absolute default
    by_hand = sim.Orbit(states=orbit.states, transient=orbit.transient)
    assert by_hand.mu_hat == 1.0
    assert sim.itinerary(by_hand) == "RLL" * 3


@pytest.mark.parametrize("zero_tol", [1e-9, 0.25, 5e-324])
def test_itinerary_matches_string_where(zero_tol):
    # the letters of the parent's itinerary, a nested np.where on strings
    rng = np.random.default_rng(17)
    near = [np.nextafter(zero_tol, 0.0), zero_tol, np.nextafter(zero_tol, 1.0)]
    edges = np.array([0.0, -0.0, np.nan, np.inf, -np.inf] + near
                     + [-v for v in near])
    xs = np.concatenate([edges, rng.choice(edges, 500),
                         rng.normal(scale=3 * zero_tol, size=500)])
    orbit = sim.Orbit(states=xs[:, None], transient=0)
    expected = "".join(np.where(xs > zero_tol, "R",
                                np.where(xs < -zero_tol, "L", "0")))
    assert sim.itinerary(orbit, zero_tol=zero_tol) == expected
    assert expected[:11] == "000RL00R00L"


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
    assert _kink_band_count(0.4, d, 0.8) == expected


def test_band_count_on_cycle_and_validation():
    sys = tent_system(0.4, -4.0, 0.0)
    orbit = sim.trajectory(sys, steps=300, transient=200, z0=[-0.5])
    assert sim.band_count(orbit) == 1
    sys3 = tent_system(0.4, -4.0)
    orbit3 = sim.trajectory(sys3, steps=2000, transient=1000, z0=[0.3])
    assert sim.band_count(orbit3) == 3


def _kink_band_count(a, d, mu, p_max=64, eps=1e-12):
    """Oracle: bands from the kink orbit c_k = f^k(0) of the skew tent map.

    The count is the largest p <= p_max whose intervals
    I_i = hull(c_i, c_(i+p)), i = 1..p, are pairwise disjoint and mapped
    cyclically, f(I_i) inside I_(i+1) and f(I_p) inside I_1 (Avrutin,
    Gardini, Sushko and Tramontana, Continuous and Discontinuous
    Piecewise-Smooth One-Dimensional Maps, 2019). f is affine on each
    side of 0, so f(I) is the hull of the images of I's ends, and of
    f(0) = c_1 when I straddles 0.
    """
    c = [0.0]
    for _ in range(2 * p_max + 1):
        c.append(a * c[-1] + mu if c[-1] <= 0.0 else d * c[-1] + mu)
    count = 1
    for p in range(2, p_max + 1):
        bands = [(min(c[i], c[i + p]), max(c[i], c[i + p])) for i in range(1, p + 1)]
        ordered = sorted(bands)
        if any(lo - hi <= eps for (_, hi), (lo, _) in zip(ordered, ordered[1:])):
            continue
        cyclic = True
        for i, (lo, hi) in enumerate(bands, start=1):
            image = [c[i + 1], c[i + p + 1]] + ([c[1]] if lo < 0.0 < hi else [])
            next_lo, next_hi = bands[i % p]
            cyclic &= next_lo - eps <= min(image) and max(image) <= next_hi + eps
        if cyclic:
            count = p
    return count


@pytest.mark.parametrize(
    "a, d, steps, bands",
    [
        # the three gaps between the bands are 1.8e-3, 0.26 and 9.2e-4 wide
        (0.6004, -1.9091, 200_000, 4),
        (0.9071, -1.1045, 101_000, 16),
        (0.5099476801558146, -29.23965992067084, 300_000, 12),
    ],
)
def test_band_count_near_band_merging(a, d, steps, bands):
    assert _kink_band_count(a, d, 0.8) == bands
    orbit = sim.trajectory(tent_system(a, d), steps=steps, transient=5000, z0=[0.3])
    assert sim.band_count(orbit) == bands
    # a tenth of the tail need not resolve the narrowest gaps between
    # bands; it then counts groups of merged bands, a divisor
    short = sim.Orbit(states=orbit.states[: steps // 10], transient=5000)
    assert bands % sim.band_count(short) == 0


def test_band_count_matches_kink_orbit_oracle_in_band_regions():
    # points of the NBand and TwoNBand regions, which have n and 2n bands
    rng = np.random.default_rng(11)
    hits = 0
    while hits < 20:
        a = float(rng.uniform(0.05, 0.95))
        d = float(rng.uniform(-30.0, -1.05))
        n = int(rng.integers(3, 10))
        region = st.chaotic_band_region(a, d, n).region
        if region is st.BandRegion.NEITHER:
            continue
        hits += 1
        bands = n if region is st.BandRegion.NBAND else 2 * n
        orbit = sim.trajectory(tent_system(a, d, 1.0), steps=30_000, transient=5000)
        assert sim.band_count(orbit) == _kink_band_count(a, d, 1.0) == bands, (a, d)


@pytest.mark.parametrize("m", [0, 3])
def test_band_count_of_stable_cycle_is_its_period(m):
    rng = np.random.default_rng(40 + m)
    for _ in range(10):
        while True:
            n = int(rng.integers(3, 7))
            a = float(rng.uniform(0.2, 0.7))
            # the 1D multiplier a^(n-1) d has modulus at most 0.9
            d = float(rng.uniform(-0.9 / a ** (n - 1), -1.0))
            if st.classify(a, d, n).verdict is st.Verdict.EXISTS_STABLE:
                break
        sys = cs.CanonicalSystem(
            a, d, rng.uniform(-1, 1, m), rng.uniform(-1, 1, m),
            np.diag(rng.uniform(-0.7, 0.7, m)), rng.uniform(-1, 1, m),
            float(rng.uniform(0.5, 1.5)),
        )
        orbit = sim.trajectory(sys, steps=4000, transient=3000)
        cycle = sim.detect_cycle(orbit)
        assert cycle is not None and cycle.period == n
        assert sim.band_count(orbit) == n


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_band_count_rejects_non_finite_x(bad):
    orbit = sim.trajectory(tent_system(0.4, -6.5), steps=2000, transient=1000, z0=[0.3])
    states = orbit.states.copy()
    states[7, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        sim.band_count(sim.Orbit(states=states, transient=orbit.transient))


@pytest.mark.parametrize("xs", [[1e308, -1e308, 0.0], [1.7e308, -1.7e308]])
def test_band_count_of_tail_wider_than_largest_float(xs):
    # the gaps (or one gap) sum past the largest float
    orbit = sim.Orbit(states=np.array(xs)[:, None], transient=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sim.band_count(orbit) == 1


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
    # a non-finite start is rejected as bifurcation_scan rejects it
    for x0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="z0 must be finite"):
            sim.cobweb_data(p, x0=x0, steps=2)


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
@pytest.mark.parametrize("steps", [400, 5000])
def test_bifurcation_scan_rows_match_trajectories(x0, transient, steps):
    # d in [-5, 3] crosses stable cycles, chaos and divergence (d > 1).
    # Rows and trajectory both come from _x_orbit, which copies a cycle
    # once the orbit repeats, so every row is also checked against the
    # plain stepping loop _x_steps
    rows = sim.bifurcation_scan(
        a=0.4, mu_hat=0.8, d_min=-5.0, d_max=3.0, d_steps=33,
        steps=steps, transient=transient, x0=x0,
    )
    assert len(rows) == 33
    threshold = sim._divergence_threshold(0.8, 0.4)
    diverged = repeated = 0
    for row in rows:
        z0 = None if x0 is None else [x0]
        _assert_row_matches_steps(row, 0.4, 0.8, 0.4, steps, transient, threshold)
        try:
            orbit = sim.trajectory(
                tent_system(0.4, row["d"]), steps=steps, transient=transient, z0=z0
            )
        except DivergenceError as err:
            diverged += 1
            assert row["diverged"]
            assert row["diverged_at"] == err.step
            assert row["xs"].size == 0
            continue
        assert not row["diverged"]
        assert row["diverged_at"] is None
        assert np.array_equal(row["xs"].view(np.int64), orbit.x_values.view(np.int64))
        repeated += _first_repeat(row["xs"]) is not None
    assert 0 < diverged < len(rows)
    assert repeated > 0
    kept = [row["xs"] for row in rows if not row["diverged"]]
    assert all(xs.base is kept[0].base for xs in kept)


def _assert_row_matches_steps(row, a, mu, x0, steps, transient, threshold):
    """A sweep row holds _x_steps' recorded values bit for bit, or its
    first crossing when it diverged."""
    xs, hit = _x_steps(st.SkewTentParams(a, row["d"], mu), x0, steps, threshold)
    if hit is not None:
        assert row["diverged"] and row["diverged_at"] == hit[0]
    else:
        assert not row["diverged"]
        assert np.array_equal(row["xs"].view(np.int64), xs[transient:].view(np.int64))


@pytest.mark.parametrize("a, mu, d, x0, transient, period", [
    (0.4, 0.8, 0.5, 0.4, 0, 1),  # the fixed point 1.6
    (0.5, 1.0, -2.0, 0.3, 7, 4),  # period 4, after a transient
])
def test_bifurcation_scan_long_rows_match_stepping(a, mu, d, x0, transient, period):
    # 200,001 values: the row is stepped to its first repeat and copied
    # from there, whole periods and a remainder
    steps = 200_001
    rows = sim.bifurcation_scan(a, mu, d, d, 1, steps=steps, transient=transient, x0=x0)
    threshold = sim._divergence_threshold(mu, x0)
    _assert_row_matches_steps(rows[0], a, mu, x0, steps, transient, threshold)
    tail = rows[0]["xs"][1000:].view(np.int64)  # well past the first repeat
    assert np.array_equal(tail[period:], tail[:-period])


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


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _run(sys, z0, steps, transient):
    """trajectory's orbit, or its DivergenceError."""
    try:
        return sim.trajectory(sys, steps=steps, transient=transient, z0=z0)
    except DivergenceError as err:
        return err


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hs.integers(0, 3), hs.integers(-60, 60), hs.integers(0, 2**32 - 1))
def test_simulator_is_covariant_under_power_of_two_scaling(m, k, seed):
    # scaling mu_hat, h_Y and z0 by lam = 2^k scales every state by lam
    # without rounding, so every threshold on a state must scale with
    # the run: the same crossing or cycle, period, bands and letters
    rng = np.random.default_rng(seed)
    lam = 2.0**k
    a = float(rng.uniform(0.05, 0.95))
    # mostly cycles and chaos; d > 1 and a growing block diverge
    d = float(rng.uniform(-8.0, -0.5) if rng.random() < 0.8 else rng.uniform(0.9, 1.2))
    radius = float(rng.uniform(0.3, 1.1))
    A = _dense_block(rng, m, radius) if m else np.zeros((0, 0))
    b, e, h = (rng.uniform(-1, 1, m) for _ in range(3))
    mu = float(rng.uniform(0.2, 1.5))
    z0 = np.append(rng.uniform(-1.0, 1.5), rng.uniform(-1, 1, m))
    steps, transient = int(rng.integers(50, 1500)), int(rng.integers(0, 40))
    # the drawn run, and a long transient, where a repeating x orbit on a
    # contracting block takes the cycle route
    for n, t in ((steps, transient), (3000, 2990)):
        base = _run(cs.CanonicalSystem(a, d, b, e, A, h, mu), z0, n, t)
        scaled = _run(cs.CanonicalSystem(a, d, b, e, A, lam * h, lam * mu),
                      lam * z0, n, t)
        assert type(scaled) is type(base)
        if isinstance(base, DivergenceError):
            assert scaled.step == base.step
            assert _bits(scaled.state) == _bits(lam * base.state)
            assert scaled.threshold == lam * base.threshold
        else:
            assert _bits(scaled.states) == _bits(lam * base.states)
            want, got = sim.detect_cycle(base), sim.detect_cycle(scaled)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.period == want.period
                assert got.tol_used == lam * want.tol_used
            assert sim.band_count(scaled) == sim.band_count(base)
            assert sim.itinerary(scaled) == sim.itinerary(base)
    sweep = dict(d_min=-8.0, d_max=1.2, d_steps=9, steps=steps, transient=transient)
    rows = sim.bifurcation_scan(a, mu, x0=z0[0], **sweep)
    scaled_rows = sim.bifurcation_scan(a, lam * mu, x0=lam * z0[0], **sweep)
    for row, got in zip(rows, scaled_rows, strict=True):
        assert got["diverged_at"] == row["diverged_at"]
        assert _bits(got["xs"]) == _bits(lam * row["xs"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detect_cycle_window_holding_a_non_finite_value_finds_no_cycle(bad):
    # an infinite unit would let every finite comparison pass; the
    # window is the last 2 * 64 of the 300 states
    orbit = sim.trajectory(tent_system(0.4, -4.0), steps=400, transient=100)
    assert sim.detect_cycle(orbit).period == 3
    for row, found in ((-1, False), (-128, False), (-129, True), (0, True)):
        states = orbit.states.copy()
        states[row, 0] = bad
        cycle = sim.detect_cycle(sim.Orbit(states=states, transient=0))
        assert (cycle is not None) == found, row
        if found:
            assert cycle.period == 3


def test_detect_cycle_of_states_farther_apart_than_the_largest_float():
    # 1e308 - (-1e308) overflows to inf, which rules period 1 out; the
    # pytest settings make the overflow warning an error
    states = np.array([[1e308], [-1e308], [1e308], [-1e308]])
    cycle = sim.detect_cycle(sim.Orbit(states=states, transient=0))
    assert cycle.period == 2
    assert cycle.points.tolist() == [[1e308], [-1e308]]


def test_divergence_threshold_is_capped_at_the_largest_float():
    # mu_hat = 1e300: 1e12 times the scale overflows, and the orbit runs
    # to inf, which must still cross the threshold
    with pytest.raises(DivergenceError) as info:
        sim.trajectory(tent_system(0.4, 3.0, 1e300), steps=100, transient=0)
    assert info.value.threshold == np.finfo(float).max
    assert info.value.state[0] == math.inf
    rows = sim.bifurcation_scan(0.4, 1e300, 3.0, 3.0, 1, steps=100, transient=0)
    assert rows[0]["diverged_at"] == info.value.step


def _count_calls():
    """One call per integer-count argument, with that argument left free."""
    sys = tent_system(0.4, -4.0)
    p = st.SkewTentParams(0.4, -4.0, 0.8)
    orbit = sim.trajectory(sys, steps=200, transient=100)
    grid = dict(a_min=0.1, a_max=1.0, a_steps=3, d_min=-5.0, d_max=-1.0, d_steps=3)
    return {
        "cycle_x_components n": lambda k: st.cycle_x_components(p, k),
        "solve_cycle n": lambda k: cs.solve_cycle(sys, k),
        "GridSpec a_steps": lambda k: ra.GridSpec(**{**grid, "a_steps": k}),
        "GridSpec d_steps": lambda k: ra.GridSpec(**{**grid, "d_steps": k}),
        "trajectory steps": lambda k: sim.trajectory(sys, steps=k, transient=0),
        "trajectory transient": lambda k: sim.trajectory(sys, steps=10, transient=k),
        "bifurcation_scan d_steps": lambda k: sim.bifurcation_scan(
            0.4, 0.8, -4.0, -3.0, k, steps=10, transient=0),
        "bifurcation_scan steps": lambda k: sim.bifurcation_scan(
            0.4, 0.8, -4.0, -3.0, 2, steps=k, transient=0),
        "bifurcation_scan transient": lambda k: sim.bifurcation_scan(
            0.4, 0.8, -4.0, -3.0, 2, steps=10, transient=k),
        "detect_cycle max_period": lambda k: sim.detect_cycle(orbit, max_period=k),
        "cobweb_data steps": lambda k: sim.cobweb_data(p, 0.3, k),
        "curve_samples samples": lambda k: ra.curve_samples(3, 0.1, 1.0, k),
    }


@pytest.mark.parametrize("call", sorted(_count_calls()))
@pytest.mark.parametrize("value", [3.0, 5.5, np.float64(3.0), True, "3", None])
def test_count_arguments_must_be_integers(call, value):
    with pytest.raises(ValueError, match="integer"):
        _count_calls()[call](value)


@pytest.mark.parametrize("call", sorted(_count_calls()))
def test_count_arguments_accept_numpy_integers(call):
    fn = _count_calls()[call]
    with np.printoptions(threshold=10**6):
        want = repr(fn(3))
        for k in (np.int64(3), np.int32(3), np.uint8(3)):
            assert repr(fn(k)) == want


@pytest.mark.parametrize("call, low, message", [
    ("cycle_x_components n", 1, "cycle length n must be >= 2"),
    ("solve_cycle n", 1, "cycle length n must be >= 2"),
    ("GridSpec a_steps", 0, "a_steps and d_steps must be >= 1"),
    ("GridSpec d_steps", 0, "a_steps and d_steps must be >= 1"),
    ("trajectory steps", 0, "steps must be >= 1"),
    ("trajectory transient", -1, "need 0 <= transient < steps"),
    ("bifurcation_scan d_steps", 0, "d_steps must be >= 1"),
    ("bifurcation_scan steps", 0, "steps must be >= 1"),
    ("bifurcation_scan transient", -1, "need 0 <= transient < steps"),
    ("detect_cycle max_period", 0, "max_period must be >= 1"),
    ("cobweb_data steps", 0, "steps must be >= 1"),
    ("curve_samples samples", 1, "samples must be >= 2"),
])
def test_count_arguments_below_minimum(call, low, message):
    with pytest.raises(ValueError) as info:
        _count_calls()[call](low)
    assert str(info.value) == message
