"""Acceptance suite: one test per release criterion.

Each test prints a single [acceptance] PASS/FAIL line; run with -s to see
them. Every expected number is frozen from an independent derivation
(affine-composition fixed points, long simulations, or exact arithmetic).
"""

import contextlib
import time

import numpy as np
import pytest

from pwlcycles import cycle_solver as cs
from pwlcycles import plrnn as pl
from pwlcycles import region_atlas as ra
from pwlcycles import simulator as sim
from pwlcycles import skew_tent as st


@contextlib.contextmanager
def report(num, label):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({label}): PASS")


def reference_system(d=-4.0):
    return cs.CanonicalSystem(
        a=0.4,
        d=d,
        b_vec=[1.0, 0.5, 0.6],
        e_vec=[0.5, 1.0, 1.0],
        A_block=np.diag([0.4, 0.5, 0.6]),
        h_Y=[1.0, 0.0, 1.0],
        mu_hat=0.8,
    )


def test_criterion_01_reference_cycle_coordinates():
    with report(1, "4D reference 3-cycle, all twelve coordinates"):
        sys = reference_system()
        expected = np.array(
            [
                [0.7610, 0.6685, -0.4794, 1.7444],
                [-2.2439, 1.6479, 0.5213, 2.8076],
                [-0.0976, -0.5847, -0.8613, 1.3382],
            ]
        )
        sol = cs.solve_cycle(sys, 3)
        assert np.max(np.abs(np.asarray(sol.points) - expected)) < 1e-3

        cs.solve_cycle(sys, 3)  # warm-up
        best = min(
            _timed(lambda: cs.solve_cycle(sys, 3)) for _ in range(3)
        )
        assert best < 1e-3, f"solve took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_border_collision_at_curve():
    with report(2, "border collision at d = -3.5, offset independence"):
        sys = reference_system(d=-3.5)
        sol = cs.solve_cycle(sys, 3)
        expected = np.array(
            [
                [0.8, 0.8803, -0.3429, 1.9490],
                [-2.0, 1.7521, 0.6286, 2.9694],
                [0.0, -0.2991, -0.6857, 1.5816],
            ]
        )
        assert np.max(np.abs(np.asarray(sol.points) - expected)) < 1e-3
        assert abs(sol.points[0][0] - 0.8) < 1e-12
        assert abs(sol.points[2][0]) < 1e-12
        assert st.on_bifurcation_curve(0.4, -3.5, 3, tol=1e-9)
        for mu in (0.1, 0.8, 10.0):
            xc = st.cycle_x_components(st.SkewTentParams(0.4, -3.5, mu), 3)
            assert abs(xc.xs[0] - mu) < 1e-12
            assert abs(xc.xs[2]) < 1e-12
            assert st.on_bifurcation_curve(0.4, -3.5, 3, tol=1e-9)


def test_criterion_03_conjugate_cycle_pair():
    with report(3, "stable 3-cycle and its mirrored conjugate"):
        plus = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(0.16, -7.29, 2.0))
        sol = cs.solve_cycle(plus, 3)
        xs = [float(p[0]) for p in sol.points]
        assert xs == pytest.approx([1.9982, -12.5674, -0.0107], abs=1e-3)
        assert st.classify(0.16, -7.29, 3).verdict is st.Verdict.EXISTS_STABLE

        minus = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(-7.29, 0.16, -2.0))
        mirror = cs.solve_symbolic_cycle(minus, "RLR")
        assert mirror.admissible
        xs_m = [float(p[0]) for p in mirror.points]
        assert xs_m == pytest.approx([0.0107, -1.9982, 12.5674], abs=1e-3)
        assert sorted(xs_m) == pytest.approx(sorted(-x for x in xs), abs=1e-10)


def test_criterion_04_curve_membership_and_long_cycle():
    with report(4, "period-4 curve point and period-6 border cycle"):
        assert st.on_bifurcation_curve(2.0, -1.75, 4, tol=1e-9)
        sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(2.0, -1.75, 1.0))
        sol = cs.solve_cycle(sys, 4)
        assert sol.multipliers[0] == pytest.approx(-14.0, abs=1e-12)
        assert not sol.stable

        xc = st.cycle_x_components(st.SkewTentParams(0.5, -31.0, 1.0), 6)
        assert abs(xc.xs[0] - 1.0) < 1e-9
        assert abs(xc.xs[5]) < 1e-9


def test_criterion_05_chaotic_band_counts():
    with report(5, "3-band and 6-band chaotic attractors"):
        t0 = time.perf_counter()
        for d, bands in ((-6.5, 3), (-6.4, 6)):
            sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(0.4, d, 0.8))
            for x0 in (0.1, 0.3, 0.7):
                orbit = sim.trajectory(
                    sys, steps=101_000, transient=1_000, z0=[x0]
                )
                assert sim.band_count(orbit) == bands, (d, x0)
                assert sim.detect_cycle(orbit, max_period=64) is None
        assert st.chaotic_band_region(0.4, -6.5, 3).region is st.BandRegion.NBAND
        assert st.chaotic_band_region(0.4, -6.4, 3).region is st.BandRegion.TWO_NBAND
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"band analysis took {elapsed:.2f} s"


def test_criterion_06_simulator_matches_closed_form():
    with report(6, "oracle equivalence on 100 random stable systems"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        for _ in range(100):
            a = float(rng.uniform(0.05, golden - 1e-3))
            lower = -1.0 / a**2
            upper = float(st.existence_bound(a, 3))
            d = float(rng.uniform(lower, upper))
            m = int(rng.integers(1, 4))
            sys = cs.CanonicalSystem(
                a,
                d,
                rng.uniform(-1, 1, m),
                rng.uniform(-1, 1, m),
                np.diag(rng.uniform(-0.9, 0.9, m)),
                rng.uniform(-1, 1, m),
                0.8,
            )
            sol = cs.solve_cycle(sys, 3)
            cycle = np.asarray(sol.points)

            # iterate in chunks until three consecutive steps close a 3-cycle
            z = np.array([sys.mu_hat / 2] + [0.0] * m)
            tail = None
            for _ in range(400):
                orbit = sim.trajectory(sys, steps=600, transient=0, z0=z)
                states = orbit.states
                z = cs.step(sys, states[-1])
                if np.max(np.abs(states[-3] - states[-6])) < 1e-10:
                    tail = states[-3:]
                    break
            assert tail is not None, "no convergence within 240k steps"
            assert _hausdorff(tail, cycle) <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f} s"


def _hausdorff(P, Q):
    diff = np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=2)
    return max(diff.min(axis=1).max(), diff.min(axis=0).max())


def test_criterion_07_region_nesting():
    with report(7, "existence regions nest over a 200x200 grid"):
        t0 = time.perf_counter()
        spec = ra.GridSpec(
            a_min=0.01, a_max=3.0, a_steps=200,
            d_min=-40.0, d_max=-0.01, d_steps=200,
            n_list=tuple(range(3, 10)),
        )
        result = ra.nesting_report(spec)
        assert result["violations"] == []
        assert result["cells_checked"] == 200 * 200 * 6
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"nesting check took {elapsed:.2f} s"


def _dyadic(rng, shape, scale=1.0):
    return rng.integers(-64, 65, shape).astype(float) / 64.0 * scale


def test_criterion_08_network_reduction_identities():
    with report(8, "network branch/localization identities, 200 nets"):
        rng = np.random.default_rng(4096)
        patterns = [
            ((0, 0, 0), 0),
            ((1, 0, 0), 1),
            ((0, 1, 0), 2),
            ((1, 1, 0), 3),
            ((0, 0, 1), 4),
        ]
        for _ in range(200):
            M = int(rng.integers(3, 9))

            # branch form vs relu form on a generic state
            sys = pl.PLRNNSystem(
                rng.uniform(-0.9, 0.9, M),
                rng.uniform(-1, 1, (M, M)),
                rng.uniform(-1, 1, M),
                relaxed_diagonal=True,
            )
            z = rng.uniform(-2, 2, M)
            r = pl.region_of(z)
            branch = pl.branch_matrix(sys, r) @ z + sys.h
            assert np.max(np.abs(branch - pl.relu_step(sys, z))) < 1e-12

            # the five listed sign patterns index regions exactly; the
            # ordinals 0..4 require all-zero padding past coordinate 3
            for bits3, ordinal in patterns:
                bits = bits3 + (0,) * (M - 3)
                state = np.where(np.array(bits) > 0, 1.0, -1.0) * rng.uniform(
                    0.1, 2.0, M
                )
                assert pl.region_of(state).ordinal == ordinal
                assert pl.RegionIndex.from_bits(bits).ordinal == ordinal

            # strict-mode localization at a clean boundary flags the
            # degenerate kink (a = d always, since diag W = 0)
            W = _dyadic(rng, (M, M))
            np.fill_diagonal(W, 0.0)
            W[0, 1:] = 0.0
            strict = pl.PLRNNSystem(
                _dyadic(rng, M, 0.5), W, _dyadic(rng, M), relaxed_diagonal=False
            )
            bits_rest = tuple(int(b) for b in rng.integers(0, 2, M - 1))
            r0 = pl.RegionIndex.from_bits((0, *bits_rest))
            r1 = pl.RegionIndex.from_bits((1, *bits_rest))
            loc = pl.localize(strict, r0, r1)
            assert loc.degenerate_kink

            # localization soundness, bit-exact on dyadic sign-consistent
            # states: canonical step == network step after permutation
            z = _dyadic(rng, M, 2.0)
            for c in range(1, M):
                want = bits_rest[c - 1]
                if want and z[c] <= 0:
                    z[c] = abs(z[c]) + 1.0 / 64.0
                if not want and z[c] > 0:
                    z[c] = -z[c]
            expected = pl.relu_step(strict, z)
            got = loc.to_original_state(
                cs.step(loc.canonical, loc.to_canonical_state(z))
            )
            assert np.array_equal(got, expected)
