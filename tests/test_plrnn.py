"""Tests for ReLU network reduction to the canonical piecewise form."""

import gc

import numpy as np
import pytest

from pwlcycles import cycle_solver as cs
from pwlcycles import plrnn as pl
from pwlcycles import skew_tent as st
from pwlcycles.errors import (
    DegenerateOffsetError,
    NotAdjacentError,
    SameRegionError,
    StructureViolationError,
)


def demo_network():
    """4-unit network whose first unit drives the rest; localizing at
    unit 1 reproduces the reference tent parameters a=0.4, d=-4."""
    return pl.PLRNNSystem(
        A_diag=[0.4, 0.4, 0.5, 0.6],
        W=[
            [-4.4, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ],
        h=[0.8, 1.0, 0.0, 1.0],
        relaxed_diagonal=True,
    )


def test_system_validation():
    with pytest.raises(ValueError):
        pl.PLRNNSystem([0.5, 0.5], [[0.1, 0.0], [0.0, 0.0]], [1.0, 0.0])
    pl.PLRNNSystem(
        [0.5, 0.5], [[0.1, 0.0], [0.0, 0.0]], [1.0, 0.0], relaxed_diagonal=True
    )
    with pytest.raises(ValueError):
        pl.PLRNNSystem([0.5], [[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0])
    with pytest.raises(ValueError):
        pl.PLRNNSystem([0.5, np.nan], [[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0])


def test_region_index_round_trip():
    r = pl.RegionIndex.from_bits((1, 0, 1))
    assert r.ordinal == 5
    assert r.M == 3
    back = pl.RegionIndex.from_ordinal(5, 3)
    assert back.bits == (1, 0, 1)
    assert pl.RegionIndex.from_ordinal(0, 4).bits == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        pl.RegionIndex(bits=(1, 0), ordinal=3)
    with pytest.raises(ValueError):
        pl.RegionIndex.from_bits((2, 0))


def test_mirrored_ordinal_patterns():
    # low-coordinate bits are the low-order digits of the ordinal
    cases = [
        ((0, 0, 0, 0), 0),
        ((1, 0, 0, 0), 1),
        ((0, 1, 0, 0), 2),
        ((1, 1, 0, 0), 3),
        ((0, 0, 1, 0), 4),
    ]
    for bits, ordinal in cases:
        assert pl.RegionIndex.from_bits(bits).ordinal == ordinal


def test_region_of_uses_strict_positivity():
    r = pl.region_of([0.5, -0.2, 0.0])
    assert r.bits == (1, 0, 0)
    assert pl.region_of([1e-300, 0.0]).bits == (1, 0)


def test_branch_matrix_masks_columns():
    sys = pl.PLRNNSystem([0.5, 0.5], [[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
    B = pl.branch_matrix(sys, pl.RegionIndex.from_bits((1, 0)))
    assert np.array_equal(B, [[0.5, 0.0], [1.0, 0.5]])
    B0 = pl.branch_matrix(sys, pl.RegionIndex.from_bits((0, 0)))
    assert np.array_equal(B0, np.diag([0.5, 0.5]))


def test_branch_step_equals_relu_step():
    rng = np.random.default_rng(23)
    for _ in range(100):
        M = int(rng.integers(1, 9))
        W = rng.uniform(-1, 1, (M, M))
        sys = pl.PLRNNSystem(
            rng.uniform(-0.9, 0.9, M), W, rng.uniform(-1, 1, M),
            relaxed_diagonal=True,
        )
        z = rng.uniform(-2, 2, M)
        r = pl.region_of(z)
        via_branch = pl.branch_matrix(sys, r) @ z + sys.h
        assert np.max(np.abs(via_branch - pl.relu_step(sys, z))) < 1e-12
        assert np.array_equal(pl.plrnn_step(sys, z), via_branch)


def test_adjacent_boundary_coordinate():
    r0 = pl.RegionIndex.from_bits((0, 0, 0, 0))
    r1 = pl.RegionIndex.from_bits((1, 0, 0, 0))
    r3 = pl.RegionIndex.from_bits((0, 1, 1, 0))
    r3b = pl.RegionIndex.from_bits((0, 1, 0, 0))
    assert pl.adjacent(r0, r1) == 1
    assert pl.adjacent(r1, r0) == 1
    assert pl.adjacent(r3, r3b) == 3
    assert pl.adjacent(r0, r3) is None
    with pytest.raises(SameRegionError):
        pl.adjacent(r0, r0)
    with pytest.raises(ValueError):
        pl.adjacent(r0, pl.RegionIndex.from_bits((0, 0)))


def test_localize_demo_network():
    net = demo_network()
    r0 = pl.RegionIndex.from_ordinal(0, 4)
    r1 = pl.RegionIndex.from_ordinal(1, 4)
    loc = pl.localize(net, r0, r1)
    assert loc.s == 1
    assert loc.region_neg.bits == (0, 0, 0, 0)
    assert loc.region_pos.bits == (1, 0, 0, 0)
    assert loc.permutation == (0, 1, 2, 3)
    assert not loc.degenerate_kink
    can = loc.canonical
    assert can.a == 0.4
    assert can.d == pytest.approx(-4.0, abs=1e-15)
    assert can.mu_hat == 0.8
    assert np.array_equal(can.b_vec, [0.0, 0.0, 0.0])
    assert np.array_equal(can.e_vec, [0.5, 1.0, 1.0])
    assert np.array_equal(can.A_block, np.diag([0.4, 0.5, 0.6]))
    assert np.array_equal(can.h_Y, [1.0, 0.0, 1.0])
    # argument order must not matter
    flipped = pl.localize(net, r1, r0)
    assert flipped.region_neg.bits == loc.region_neg.bits
    assert flipped.canonical.a == can.a


def test_localize_permutation_for_inner_boundary():
    sys = pl.PLRNNSystem(
        [0.5, 0.3, 0.2],
        [[0.0, 0.4, 0.0], [0.0, -0.9, 0.0], [0.0, 0.2, 0.0]],
        [1.0, 0.5, 0.0],
        relaxed_diagonal=True,
    )
    loc = pl.localize(
        sys,
        pl.RegionIndex.from_bits((0, 0, 0)),
        pl.RegionIndex.from_bits((0, 1, 0)),
    )
    assert loc.s == 2
    assert loc.permutation == (1, 0, 2)
    assert loc.canonical.a == 0.3
    assert loc.canonical.d == pytest.approx(-0.6)
    assert loc.canonical.mu_hat == 0.5
    assert np.array_equal(loc.canonical.e_vec, [0.4, 0.2])
    assert np.array_equal(loc.canonical.A_block, np.diag([0.5, 0.2]))
    z = loc.to_canonical_state([10.0, 20.0, 30.0])
    assert np.array_equal(z, [20.0, 10.0, 30.0])
    assert np.array_equal(loc.to_original_state(z), [10.0, 20.0, 30.0])


def test_localize_structure_violation():
    sys = pl.PLRNNSystem([0.5, 0.5], [[0.0, 0.7], [0.3, 0.0]], [1.0, 0.0])
    with pytest.raises(StructureViolationError) as info:
        pl.localize(
            sys,
            pl.RegionIndex.from_bits((0, 0)),
            pl.RegionIndex.from_bits((1, 0)),
        )
    assert info.value.s == 1
    assert info.value.entries == [(1, 2, 0.7)]


def test_localize_not_adjacent_and_same_region():
    net = demo_network()
    r0 = pl.RegionIndex.from_ordinal(0, 4)
    r3 = pl.RegionIndex.from_ordinal(3, 4)
    with pytest.raises(NotAdjacentError):
        pl.localize(net, r0, r3)
    with pytest.raises(SameRegionError):
        pl.localize(net, r0, r0)


def test_strict_diagonal_forces_degenerate_kink():
    sys = pl.PLRNNSystem([0.5, 0.5], [[0.0, 0.0], [0.3, 0.0]], [1.0, 0.0])
    loc = pl.localize(
        sys,
        pl.RegionIndex.from_bits((0, 0)),
        pl.RegionIndex.from_bits((1, 0)),
    )
    assert loc.degenerate_kink
    assert loc.canonical.a == loc.canonical.d == 0.5


def test_local_cycle_analysis_shared_pattern_violated():
    net = demo_network()
    report = pl.local_cycle_analysis(
        net,
        pl.RegionIndex.from_ordinal(0, 4),
        pl.RegionIndex.from_ordinal(1, 4),
        n=3,
    )
    assert report.classification.verdict is st.Verdict.EXISTS_STABLE
    assert report.solution is not None
    xs = [p[0] for p in report.solution.points]
    assert xs == pytest.approx(
        [0.7609756097560975, -2.2439024390243896, -0.09756097560975585], abs=1e-12
    )
    # all driven units stay positive, but the 0000-side requires them negative
    assert report.locality_ok is False
    assert len(report.violations) == 9
    first = report.violations[0]
    assert first["required_sign"] == "-"
    assert first["value"] > 0


def test_local_cycle_analysis_consistent_pair():
    net = demo_network()
    report = pl.local_cycle_analysis(
        net,
        pl.RegionIndex.from_bits((0, 1, 1, 1)),
        pl.RegionIndex.from_bits((1, 1, 1, 1)),
        n=3,
    )
    assert report.locality_ok is True
    assert report.violations == ()
    assert report.boundary_warnings == ()
    # the reduced cycle, mapped back, is a genuine orbit of the network
    pts = [report.localized.to_original_state(p) for p in report.solution.points]
    for k in range(3):
        nxt = pl.relu_step(net, pts[k])
        assert np.max(np.abs(nxt - pts[(k + 1) % 3])) < 1e-9


def test_local_cycle_analysis_degenerate_offset():
    net = demo_network()
    zeroed = pl.PLRNNSystem(
        net.A_diag, net.W, [0.0, 1.0, 0.0, 1.0], relaxed_diagonal=True
    )
    report = pl.local_cycle_analysis(
        zeroed,
        pl.RegionIndex.from_ordinal(0, 4),
        pl.RegionIndex.from_ordinal(1, 4),
        n=3,
    )
    assert report.solution is None
    assert isinstance(report.solve_error, DegenerateOffsetError)
    assert report.locality_ok is None


def test_failed_solve_leaves_no_reference_cycle():
    # an error kept with its traceback would hold the analysis frame, and
    # through it the report, alive until the cyclic collector ran
    net = demo_network()
    zeroed = pl.PLRNNSystem(
        net.A_diag, net.W, [0.0, 1.0, 0.0, 1.0], relaxed_diagonal=True
    )
    gc.collect()
    gc.disable()
    try:
        report = pl.local_cycle_analysis(
            zeroed,
            pl.RegionIndex.from_ordinal(0, 4),
            pl.RegionIndex.from_ordinal(1, 4),
            n=3,
        )
        assert isinstance(report.solve_error, DegenerateOffsetError)
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_local_cycle_analysis_propagates_adjacency_errors():
    net = demo_network()
    with pytest.raises(NotAdjacentError):
        pl.local_cycle_analysis(
            net,
            pl.RegionIndex.from_ordinal(0, 4),
            pl.RegionIndex.from_ordinal(3, 4),
            n=3,
        )


def test_strict_network_classification_is_degenerate():
    sys = pl.PLRNNSystem(
        [0.5, 0.4, 0.3],
        [[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.1, 0.3, 0.0]],
        [1.0, 0.2, 0.1],
    )
    r0 = pl.RegionIndex.from_bits((0, 0, 0))
    r1 = pl.RegionIndex.from_bits((1, 0, 0))
    loc = pl.localize(sys, r0, r1)
    assert loc.degenerate_kink
    # a = d = 0.5 > 0 never satisfies d < bound(a, n) < 0
    for n in (3, 4, 5):
        report = pl.local_cycle_analysis(sys, r0, r1, n)
        assert report.classification.verdict is st.Verdict.OUTSIDE_REGION


def dyadic(rng, shape, scale=1.0):
    return rng.integers(-64, 65, shape).astype(float) / 64.0 * scale


def test_localized_step_is_bit_exact_on_dyadic_inputs():
    """Round network weights and states to 1/64 grids: every product in
    both evaluation routes is then exact in binary floating point, so
    the canonical reduction must reproduce plrnn_step bit for bit."""
    rng = np.random.default_rng(29)
    trials = 0
    while trials < 60:
        M = int(rng.integers(2, 6))
        W = dyadic(rng, (M, M))
        W[0, 1:] = 0.0
        if W[0, 0] == 0.0:
            continue
        sys = pl.PLRNNSystem(
            dyadic(rng, M, 0.5), W, dyadic(rng, M), relaxed_diagonal=True
        )
        bits_rest = tuple(int(b) for b in rng.integers(0, 2, M - 1))
        r0 = pl.RegionIndex.from_bits((0, *bits_rest))
        r1 = pl.RegionIndex.from_bits((1, *bits_rest))
        loc = pl.localize(sys, r0, r1)

        z = dyadic(rng, M, 2.0)
        # force sign consistency with the shared pattern off the boundary
        for c in range(1, M):
            want = bits_rest[c - 1]
            if want and z[c] <= 0:
                z[c] = abs(z[c]) + 1.0 / 64.0
            if not want and z[c] > 0:
                z[c] = -z[c]
        expected = pl.plrnn_step(sys, z)

        state = loc.to_canonical_state(z)
        got = loc.to_original_state(cs.step(loc.canonical, state))
        assert np.array_equal(got, expected)
        trials += 1
