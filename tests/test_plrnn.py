"""Tests for ReLU network reduction to the canonical piecewise form."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from pwlcycles import cycle_solver as cs
from pwlcycles import plrnn as pl
from pwlcycles import skew_tent as st
from pwlcycles.cli import main
from pwlcycles.config import write_config
from pwlcycles.errors import (
    DegenerateOffsetError,
    NotAdjacentError,
    NotAdmissibleError,
    PwlcyclesError,
    SameRegionError,
    SingularDenominatorError,
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


_ENTRIES = hs.sampled_from([0.0, -0.0, 0.25, -0.25, 1.5, -3.0, 1e-300, -1e300])


@hs.composite
def _clean_boundary(draw):
    """A relaxed-diagonal network with signed zeros among its entries, a
    boundary coordinate s whose row of W is zero (either sign) off the
    diagonal, and an adjacent region pair across it, in either order."""
    M = draw(hs.integers(1, 5))
    entries = hs.lists(_ENTRIES, min_size=M, max_size=M)
    A_diag = draw(entries)
    W = np.array([draw(entries) for _ in range(M)])
    h = draw(entries)
    s = draw(hs.integers(0, M - 1))
    off = np.arange(M) != s
    W[s, off] = np.array(draw(entries))[off] * 0.0  # zeros of either sign
    bits = draw(hs.lists(hs.integers(0, 1), min_size=M, max_size=M))
    lo, hi = list(bits), list(bits)
    lo[s], hi[s] = 0, 1
    pair = [lo, hi] if draw(hs.booleans()) else [hi, lo]
    net = pl.PLRNNSystem(A_diag, W, h, relaxed_diagonal=True)
    return net, [pl.RegionIndex.from_bits(b) for b in pair]


def _branch_reduction(net, i, j):
    """The canonical floats built from the two branch matrices, as
    localize built them before it read the network directly."""
    k = pl.adjacent(i, j) - 1
    if i.bits[k]:
        i, j = j, i
    A1, A2 = pl.branch_matrix(net, i), pl.branch_matrix(net, j)
    rest = [c for c in range(net.M) if c != k]
    return {
        "a": A1[k, k], "d": A2[k, k], "b_vec": A1[rest, k], "e_vec": A2[rest, k],
        "A_block": A1[np.ix_(rest, rest)], "h_Y": net.h[rest], "mu_hat": net.h[k],
    }


def test_localize_matches_branch_matrices_bit_for_bit():
    """Every canonical float of localize has the bits the branch-matrix
    construction gives, signed zeros included."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_clean_boundary())
    def check(case):
        net, (i, j) = case
        can = pl.localize(net, i, j).canonical
        for name, want in _branch_reduction(net, i, j).items():
            got = np.asarray(getattr(can, name), dtype=float)
            want = np.asarray(want, dtype=float)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            seen.update(name for v in want.ravel().tolist() if v == 0.0
                        and math.copysign(1.0, v) < 0)

    check()
    # the draws reach negative zeros in the slopes and in the block
    assert {"a", "d", "A_block"} <= seen


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


def test_negative_offset_report_solves_the_family_it_classifies():
    """mu_hat = -0.8 < 0: classify names the mirrored family L R^(n-1),
    and the solution must be that cycle, not R L^(n-1) (which here has
    the unstable multiplier 6.4)."""
    net = pl.PLRNNSystem(
        [-4.0, 0.5], [[4.4, 0.0], [0.3, 0.1]], [-0.8, 1.0], relaxed_diagonal=True
    )
    report = pl.local_cycle_analysis(
        net, pl.RegionIndex.from_bits((0, 1)), pl.RegionIndex.from_bits((1, 1)), 3
    )
    sol = report.solution
    assert report.classification.verdict is st.Verdict.EXISTS_STABLE
    assert (sol.sequence, sol.stable, report.locality_ok) == ("LRR", True, True)
    sym = cs.solve_symbolic_cycle(report.localized.canonical, "LRR")
    assert sym.admissible
    np.testing.assert_allclose(sol.points, sym.points, rtol=0, atol=1e-14)
    np.testing.assert_allclose(sol.multipliers, sym.multipliers, rtol=1e-14)
    # the network converges to the same 3-cycle
    z = np.array([0.1, 1.0])
    for _ in range(300):
        z = pl.relu_step(net, z)
    pts = [report.localized.to_original_state(p) for p in sol.points]
    k = int(np.argmin([np.max(np.abs(z - p)) for p in pts]))
    for step in range(3):
        assert np.max(np.abs(z - pts[(k + step) % 3])) < 1e-12
        z = pl.relu_step(net, z)


@pytest.mark.parametrize("diagonal, j", [(0.5, 1), (0.75, 2)])
def test_report_on_a_certified_block_decomposes_nothing(diagonal, j, monkeypatch):
    """The reduced block, diagonal + 0.1, is 0.6 or 0.85: ||A_block^3||_inf
    is 0.216, or 0.614 with its square 0.377, so the norm test certifies
    A_block^3 at j = 1 or j = 2. The report's stable comes from that test,
    and its multipliers are decomposed only when read."""
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: calls.append(1) or eigvals(A))
    net = pl.PLRNNSystem(
        [-4.0, diagonal], [[4.4, 0.0], [0.3, 0.1]], [-0.8, 1.0], relaxed_diagonal=True
    )
    report = pl.local_cycle_analysis(
        net, pl.RegionIndex.from_bits((0, 1)), pl.RegionIndex.from_bits((1, 1)), 3
    )
    A_n = np.linalg.matrix_power(report.localized.canonical.A_block, 3)
    assert cs._contraction(A_n, cs._CERTIFICATE_CAP)[0] == j
    assert report.solution.stable is True and calls == []
    want = cs.multipliers(report.localized.canonical, "LRR")
    assert report.solution.multipliers == want
    assert len(calls) == 2


def test_negative_offset_reports_agree_with_the_word_solver():
    """On seeded negative-offset networks near the existence curve, the
    report's cycle is the L R^(n-1) word solved directly, and its verdict
    is OnBifurcationCurve exactly when the cycle's last point lies within
    zero_tolerance(mu_hat) of the kink, and otherwise ExistsStable
    exactly when that cycle is stable."""
    rng = np.random.default_rng(41)
    solved = 0
    for _ in range(300):
        n = int(rng.integers(3, 8))
        M = int(rng.integers(2, 5))
        d = float(rng.uniform(0.1, 1.5))  # slope on x >= 0
        a = float(st.existence_bound(d, n) * np.exp(rng.uniform(-0.5, 0.5)))
        W = rng.uniform(-0.3, 0.3, (M, M))
        W[0, :] = 0.0
        W[0, 0] = d - a
        A_diag = rng.uniform(0.1, 0.6, M)
        A_diag[0] = a
        h = rng.uniform(-1.0, 1.0, M)
        h[0] = -rng.uniform(0.2, 1.5)
        net = pl.PLRNNSystem(A_diag, W, h, relaxed_diagonal=True)
        bits = tuple(int(b) for b in rng.integers(0, 2, M - 1))
        report = pl.local_cycle_analysis(
            net, pl.RegionIndex.from_bits((0, *bits)),
            pl.RegionIndex.from_bits((1, *bits)), n,
        )
        verdict = report.classification.verdict
        sol = report.solution
        tol = st.zero_tolerance(report.localized.canonical.mu_hat)
        on_kink = sol is not None and abs(sol.points[-1][0]) <= tol
        assert (verdict is st.Verdict.ON_BIFURCATION_CURVE) == on_kink
        exists = report.classification.details["existence_margin"] > 0
        assert (sol is not None) == (exists or on_kink)
        if sol is None:
            continue
        solved += 1
        word = "L" + "R" * (n - 1)
        assert sol.sequence == word
        sym = cs.solve_symbolic_cycle(report.localized.canonical, word)
        scale = max(1.0, max(np.max(np.abs(p)) for p in sym.points))
        np.testing.assert_allclose(sol.points, sym.points, rtol=0, atol=1e-12 * scale)
        if not on_kink:
            assert (verdict is st.Verdict.EXISTS_STABLE) == sol.stable
    assert solved > 50


_UNIT = hs.floats(-1.0, 1.0)


@hs.composite
def _mirror_pair(draw):
    """A positive-offset system with a contracting A_block, its mirror
    (d, a, -e_vec, -b_vec, A_block, h_Y, -mu_hat), and a cycle length n."""
    n = draw(hs.integers(3, 12))
    m = draw(hs.integers(0, 3))
    a = draw(hs.floats(0.05, 1.5))
    d = float(st.existence_bound(a, n)) * draw(hs.floats(1.0, 4.0))
    block = np.array(draw(hs.lists(_UNIT, min_size=m * m, max_size=m * m)))
    block = block.reshape(m, m)
    if m:
        radius = float(np.max(np.abs(np.linalg.eigvals(block))))
        block *= draw(hs.floats(0.0, 0.95)) / max(1.0, radius)
    b, e, h = (np.array(draw(hs.lists(_UNIT, min_size=m, max_size=m)))
               for _ in range(3))
    mu = draw(hs.floats(0.1, 5.0))
    plus = cs.CanonicalSystem(a, d, b, e, block, h, mu)
    minus = cs.CanonicalSystem(d, a, -e, -b, block, h, -mu)
    return n, plus, minus


def test_mirror_relation_of_the_negative_offset_family():
    """Wherever the R L^(n-1) cycle of a positive-offset system solves, the
    mirrored system's L R^(n-1) cycle is the same orbit with x negated:
    solve_cycle gives it bit for bit, the word solver to within the
    verify tolerance. A point on the kink (letter 0 of R L^(n-1)) keeps
    its family's branch on both sides, so the family's word reads 'R'
    there, while the word solver steps the signed word's 0 on x <= 0."""
    solved = []
    kinks = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_mirror_pair())
    def check(pair):
        n, plus, minus = pair
        try:
            sol = cs.solve_cycle(plus, n)
        except PwlcyclesError:
            return
        solved.append(n)
        swapped = sol.sequence.translate(str.maketrans("RL", "LR"))
        if "0" in swapped:
            kinks.append(n)
        flipped = np.array(sol.points)
        flipped[:, 0] = -flipped[:, 0]

        family = cs.solve_cycle(minus, n)
        assert family.sequence == swapped.replace("0", "R")
        assert family.multipliers == cs.multipliers(minus, family.sequence)
        assert np.array_equal(np.array(family.points), flipped)
        assert (family.multipliers, family.stable, family.residual) == (
            sol.multipliers, sol.stable, sol.residual)

        scale = max(1.0, float(np.max(np.abs(flipped))))
        word = cs.solve_symbolic_cycle(minus, swapped)
        assert word.admissible
        tol = st.verify_tolerance(plus.mu_hat) * scale
        assert np.max(np.abs(np.array(word.points) - flipped)) <= tol

    check()
    assert len(solved) >= 100
    assert kinks


def _one_unit_report(a, d, mu_hat, n=3, zero_tol=None):
    """local_cycle_analysis of the one-unit network whose reduced map has
    slopes a (x <= 0) and d (x >= 0) and offset mu_hat."""
    net = pl.PLRNNSystem([a], [[d - a]], [mu_hat], relaxed_diagonal=True)
    return pl.local_cycle_analysis(
        net, pl.RegionIndex.from_bits((0,)), pl.RegionIndex.from_bits((1,)), n,
        zero_tol)


def _negative_offset_answers(a, d, mu_hat):
    """The 3-cycle answer, a solution or the error, and the system it was
    solved on: once through local_cycle_analysis of the one-unit network,
    once through solve_cycle on the canonical tent of the same slopes."""
    report = _one_unit_report(a, d, mu_hat)
    yield report.solution or report.solve_error, report.localized.canonical
    tent = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(a, d, mu_hat))
    try:
        answer = cs.solve_cycle(tent, 3)
    except PwlcyclesError as err:
        answer = err
    yield answer, tent


def test_negative_offset_family_answers_in_the_callers_terms():
    # the third point sits on the kink and keeps the family's 'R', so the
    # x multiplier of LRR is a d^2 = -2, as multipliers reads the word
    for sol, can in _negative_offset_answers(-2.0, 1.0, -1.0):
        assert sol.sequence == "LRR"
        assert sol.multipliers == cs.multipliers(can, "LRR")
        assert sol.multipliers == (-2 + 0j,)
        assert sol.residual == 0.0
    # a failed closed form names the caller's slopes, x values and letters
    for err, _ in _negative_offset_answers(0.25, 2.0, -0.8):
        assert isinstance(err, SingularDenominatorError)
        assert (err.a, err.d, err.n) == (0.25, 2.0, 3)
        assert str(err) == (
            "singular denominator 1 - a^1*d^2 = 0.0 for a=0.25, d=2.0, n=3")
    for err, _ in _negative_offset_answers(-0.5, 0.4, -0.8):
        assert isinstance(err, NotAdmissibleError)
        assert err.letters == "LLL"
        assert len(err.xs) == 3 and all(x < 0 for x in err.xs)
    for err, _ in _negative_offset_answers(0.5, 1e200, -0.8):
        assert isinstance(err, NotAdmissibleError)
        assert str(err) == ("the 3-cycle overflows for a=0.5, d=1e+200: "
                            "x multiplier a^1*d^2 = inf")
        assert err.letters == "LRR"
        assert err.__context__ is None


@pytest.mark.parametrize("zero_tol", [None, 1e-3])
def test_negative_offset_kink_is_as_stable_as_its_verdict(zero_tol):
    """4e-9 inside the existence curve, outside its 1e-9 tolerance, so the
    verdict is ExistsStable (a d^2 = -0.75); the third point, 9.1e-10,
    is within the kink tolerance and must keep the family's slope d."""
    report = _one_unit_report(-3.000000004, 0.5, -0.8, zero_tol=zero_tol)
    sol = report.solution
    assert report.classification.verdict is st.Verdict.EXISTS_STABLE
    assert abs(sol.points[2][0]) < 1e-9
    assert sol.sequence == "LRR"
    assert sol.multipliers == cs.multipliers(report.localized.canonical, "LRR")
    assert sol.stable is True


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-9])
def test_explicit_zero_tol_must_be_finite_and_positive(bad):
    # checked before the network is localized and solved, so a failed
    # solve, which reads no zero_tol, rejects it too
    net = demo_network()
    zeroed = pl.PLRNNSystem(
        net.A_diag, net.W, [0.0, 1.0, 0.0, 1.0], relaxed_diagonal=True
    )
    for system in (net, zeroed):
        with pytest.raises(ValueError, match="zero_tol must be a finite positive"):
            pl.local_cycle_analysis(
                system,
                pl.RegionIndex.from_ordinal(0, 4),
                pl.RegionIndex.from_ordinal(1, 4),
                n=3,
                zero_tol=bad,
            )


def test_zero_tol_reaches_the_cycle_solve(tmp_path, capsys):
    # W[0][0] = -3.90001 reduces to a = 0.4, d = -3.50001, whose third
    # cycle point, x = -2e-6, reads L at the default tolerance and 0 (on
    # the kink) within zero_tol = 1e-3, in the solve as in the locality check
    net = pl.PLRNNSystem(
        A_diag=[0.4, 0.4, 0.5, 0.6],
        W=[
            [-3.90001, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ],
        h=[0.8, 1.0, 0.0, 1.0],
        relaxed_diagonal=True,
    )
    i = pl.RegionIndex.from_bits((0, 1, 1, 1))
    j = pl.RegionIndex.from_bits((1, 1, 1, 1))
    default = pl.local_cycle_analysis(net, i, j, 3)
    wide = pl.local_cycle_analysis(net, i, j, 3, zero_tol=1e-3)
    assert default.solution.sequence == "RLL"
    assert wide.solution.sequence == "RL0"
    assert np.array_equal(wide.solution.points, default.solution.points)
    can = wide.localized.canonical
    assert (can.a, can.d) == pytest.approx((0.4, -3.50001))
    assert cs.solve_cycle(can, 3, zero_tol=1e-3).sequence == "RL0"

    # the CLI: plrnn reads the letter that cycle reads on the reduced system
    net_path, can_path = tmp_path / "net.json", tmp_path / "can.json"
    write_config(str(net_path), net)
    write_config(str(can_path), can)
    for argv in (
        ["plrnn", "--config", str(net_path), "--pair", "0111", "1111"],
        ["cycle", "--config", str(can_path)],
    ):
        assert main(argv + ["--n", "3", "--zero-tol", "1e-3"]) == 0
        assert "sequence: RL0" in capsys.readouterr().out.splitlines()


def test_local_cycle_analysis_needs_n_of_at_least_3(tmp_path, capsys):
    # classify's region tests are defined for n >= 3, so n = 2 raises
    # before the cycle is solved, and the CLI reads it as a flag error
    i = pl.RegionIndex.from_bits((0, 1, 1, 1))
    j = pl.RegionIndex.from_bits((1, 1, 1, 1))
    with pytest.raises(ValueError, match="region tests are defined for n >= 3"):
        pl.local_cycle_analysis(demo_network(), i, j, 2)
    assert pl.local_cycle_analysis(demo_network(), i, j, 3).solution.sequence == "RLL"
    path = tmp_path / "net.json"
    write_config(str(path), demo_network())
    assert main(["plrnn", "--config", str(path), "--pair", "0111", "1111",
                 "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: region tests are defined for n >= 3\n"


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
    the canonical reduction must reproduce relu_step bit for bit."""
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
        # the x <= 0 branch masks column s of W, relaxed or not
        assert np.all(loc.canonical.b_vec == 0)

        z = dyadic(rng, M, 2.0)
        # force sign consistency with the shared pattern off the boundary
        for c in range(1, M):
            want = bits_rest[c - 1]
            if want and z[c] <= 0:
                z[c] = abs(z[c]) + 1.0 / 64.0
            if not want and z[c] > 0:
                z[c] = -z[c]
        expected = pl.relu_step(sys, z)

        state = loc.to_canonical_state(z)
        got = loc.to_original_state(cs.step(loc.canonical, state))
        assert np.array_equal(got, expected)
        trials += 1
