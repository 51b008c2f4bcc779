"""Tests for the canonical-form cycle solver."""

import numpy as np
import pytest

from pwlcycles import cycle_solver as cs
from pwlcycles import skew_tent as st
from pwlcycles.errors import (
    EigenvalueOneError,
    NotAdmissibleError,
    SingularDenominatorError,
)


def reference_system():
    """Worked 4D example used throughout the docs: a=0.4, d=-4, m=3."""
    return cs.CanonicalSystem(
        a=0.4,
        d=-4.0,
        b_vec=[1.0, 0.5, 0.6],
        e_vec=[0.5, 1.0, 1.0],
        A_block=np.diag([0.4, 0.5, 0.6]),
        h_Y=[1.0, 0.0, 1.0],
        mu_hat=0.8,
    )


REFERENCE_POINTS = np.array(
    [
        [0.7609756097560975, 0.6685428392745466, -0.4794425087108013, 1.7444001991040317],
        [-2.2439024390243896, 1.6479049405878674, 0.5212543554006968, 2.8076157292185164],
        [-0.09756097560975585, -0.5847404627892425, -0.8613240418118464, 1.338227974116476],
    ]
)


def orbit_closure_error(sys, points):
    n = len(points)
    worst = 0.0
    for i in range(n):
        nxt = cs.step(sys, points[i])
        worst = max(worst, float(np.max(np.abs(nxt - points[(i + 1) % n]))))
    return worst


def test_system_validation():
    sys = reference_system()
    assert sys.m == 3
    with pytest.raises(ValueError):
        cs.CanonicalSystem(0.4, -4.0, [1.0], [1.0, 2.0], np.eye(2), [0.0, 0.0], 0.8)
    with pytest.raises(ValueError):
        cs.CanonicalSystem(0.4, -4.0, [1.0], [1.0], np.ones((2, 2)), [0.0], 0.8)
    with pytest.raises(ValueError):
        cs.CanonicalSystem(np.nan, -4.0, [], [], np.zeros((0, 0)), [], 0.8)


def test_scalar_system_round_trip():
    sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(0.4, -4.0, 0.8))
    assert sys.m == 0
    p = sys.skew_params()
    assert (p.a, p.d, p.mu_hat) == (0.4, -4.0, 0.8)


def test_step_branches():
    sys = reference_system()
    z = np.array([-1.0, 1.0, 1.0, 1.0])
    out = cs.step(sys, z)
    # x <= 0 branch: x' = a x + mu, Y' = b x + A Y + h
    assert out[0] == pytest.approx(0.4 * -1.0 + 0.8)
    assert out[1] == pytest.approx(1.0 * -1.0 + 0.4 * 1.0 + 1.0)
    z = np.array([2.0, 0.0, 0.0, 0.0])
    out = cs.step(sys, z)
    assert out[0] == pytest.approx(-4.0 * 2.0 + 0.8)
    assert out[1] == pytest.approx(0.5 * 2.0 + 1.0)


def test_solve_cycle_reference_values():
    sys = reference_system()
    sol = cs.solve_cycle(sys, 3)
    assert sol.n == 3
    assert sol.sequence == "RLL"
    assert sol.admissible
    assert np.max(np.abs(np.asarray(sol.points) - REFERENCE_POINTS)) < 1e-12
    assert sol.residual < st.verify_tolerance(sys.mu_hat)
    # multipliers: a^2 d = -0.64 plus eigenvalues of A^3
    mults = sorted(abs(m) for m in sol.multipliers)
    assert mults == pytest.approx([0.064, 0.125, 0.216, 0.64], abs=1e-12)
    assert sol.stable


def test_solve_cycle_on_curve_variant():
    sys = reference_system()
    sys = cs.CanonicalSystem(
        sys.a, -3.5, sys.b_vec, sys.e_vec, sys.A_block, sys.h_Y, sys.mu_hat
    )
    sol = cs.solve_cycle(sys, 3)
    assert sol.sequence == "RL0"
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


def test_solution_closes_under_map():
    sys = reference_system()
    sol = cs.solve_cycle(sys, 3)
    assert orbit_closure_error(sys, np.asarray(sol.points)) < 1e-12


def test_solve_cycle_random_systems_close():
    rng = np.random.default_rng(7)
    solved = 0
    while solved < 60:
        a = float(rng.uniform(0.1, 1.5))
        n = int(rng.integers(2, 7))
        bound = st.existence_bound(a, n) if n >= 3 else 0.0
        d = float(rng.uniform(min(bound * 3, -8.0), bound - 0.05))
        m = int(rng.integers(0, 4))
        sys = cs.CanonicalSystem(
            a,
            d,
            rng.uniform(-1, 1, m),
            rng.uniform(-1, 1, m),
            rng.uniform(-0.5, 0.5, (m, m)),
            rng.uniform(-1, 1, m),
            float(rng.uniform(0.2, 3.0)),
        )
        try:
            sol = cs.solve_cycle(sys, n)
        except (NotAdmissibleError, SingularDenominatorError, EigenvalueOneError):
            continue
        pts = np.asarray(sol.points)
        scale = max(1.0, float(np.max(np.abs(pts))))
        assert orbit_closure_error(sys, pts) < st.verify_tolerance(sys.mu_hat) * scale
        solved += 1


def test_multipliers_match_composed_jacobian():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = int(rng.integers(0, 4))
        sys = cs.CanonicalSystem(
            float(rng.uniform(0.1, 1.5)),
            float(rng.uniform(-8.0, -3.6)),
            rng.uniform(-1, 1, m),
            rng.uniform(-1, 1, m),
            rng.uniform(-0.5, 0.5, (m, m)),
            rng.uniform(-1, 1, m),
            0.8,
        )
        seq = "R" + "L" * int(rng.integers(1, 5))
        jac = np.eye(1 + m)
        for letter in seq:
            M, _ = cs.branch_affine(sys, letter)
            jac = M @ jac
        expected = np.sort_complex(np.linalg.eigvals(jac))
        got = np.sort_complex(np.asarray(cs.multipliers(sys, seq)))
        assert np.max(np.abs(got - expected)) < 1e-10


def test_multipliers_block_structure():
    sys = reference_system()
    mults = cs.multipliers(sys, "RLL")
    tent = [m for m in mults if abs(m - (-0.64)) < 1e-12]
    assert len(tent) == 1
    rest = sorted(m.real for m in mults if abs(m - (-0.64)) >= 1e-12)
    assert rest == pytest.approx([0.4**3, 0.5**3, 0.6**3], abs=1e-12)


def test_y_components_diagonal_agrees_with_dense():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        sys = cs.CanonicalSystem(
            float(rng.uniform(0.2, 0.9)),
            float(rng.uniform(-7.0, -3.6)),
            rng.uniform(-1, 1, m),
            rng.uniform(-1, 1, m),
            np.diag(rng.uniform(-0.9, 0.9, m)),
            rng.uniform(-1, 1, m),
            float(rng.uniform(0.2, 2.0)),
        )
        try:
            sol = cs.solve_cycle(sys, 3)
        except NotAdmissibleError:
            continue
        xc = st.cycle_x_components(sys.skew_params(), 3)
        ys = cs.y_components_diagonal(sys, xc)
        dense = np.asarray(sol.points)[:, 1:]
        assert np.max(np.abs(np.asarray(ys) - dense)) < 1e-10


def test_y_components_diagonal_rejects_dense_block():
    sys = reference_system()
    dense = cs.CanonicalSystem(
        sys.a, sys.d, sys.b_vec, sys.e_vec,
        np.array([[0.4, 0.1, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.6]]),
        sys.h_Y, sys.mu_hat,
    )
    xc = st.cycle_x_components(sys.skew_params(), 3)
    with pytest.raises(ValueError):
        cs.y_components_diagonal(dense, xc)


def test_eigenvalue_one_rejected():
    sys = reference_system()
    bad = cs.CanonicalSystem(
        sys.a, sys.d, sys.b_vec, sys.e_vec, np.diag([1.0, 0.5, 0.6]),
        sys.h_Y, sys.mu_hat,
    )
    with pytest.raises(EigenvalueOneError):
        cs.solve_cycle(bad, 3)
    xc = st.cycle_x_components(sys.skew_params(), 3)
    with pytest.raises(EigenvalueOneError):
        cs.y_components_diagonal(bad, xc)
    # A itself clean but A^n hits 1: eigenvalue -1, even n
    spin = cs.CanonicalSystem(
        0.4, -12.0, [1.0, 0.0], [0.0, 1.0], np.diag([-1.0, 0.5]), [0.1, 0.1], 0.8,
    )
    with pytest.raises(EigenvalueOneError):
        cs.solve_cycle(spin, 4)


def test_symbolic_matches_positional_solver():
    sys = reference_system()
    sol_n = cs.solve_cycle(sys, 3)
    sol_s = cs.solve_symbolic_cycle(sys, "RLL")
    assert np.max(np.abs(np.asarray(sol_n.points) - np.asarray(sol_s.points))) < 1e-10
    assert sol_s.admissible


def test_symbolic_inadmissible_flagged_not_raised():
    sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(0.5, -2.0, 1.0))
    sol = cs.solve_symbolic_cycle(sys, "LL")
    assert not sol.admissible
    # fixed point of x -> 0.5 x + 1 twice is x = 2 > 0, both letters wrong
    assert sol.points[0][0] == pytest.approx(2.0)


def test_symbolic_singular_composition():
    sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(2.0, 0.5, 1.0))
    with pytest.raises(SingularDenominatorError):
        cs.solve_symbolic_cycle(sys, "RL")


def test_mirror_conjugacy_reference_pair():
    plus = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(0.16, -7.29, 2.0))
    sol = cs.solve_cycle(plus, 3)
    xs = [p[0] for p in sol.points]
    assert xs == pytest.approx([1.9982, -12.5674, -0.0107], abs=1e-3)
    assert sol.sequence == "RLL"

    minus = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(-7.29, 0.16, -2.0))
    mirror = cs.solve_symbolic_cycle(minus, "RLR")
    assert mirror.admissible
    xs_m = [p[0] for p in mirror.points]
    assert xs_m == pytest.approx([0.0107, -1.9982, 12.5674], abs=1e-3)
    # sign-flipped copy of the same orbit, entered at a different phase
    assert sorted(xs_m) == pytest.approx(sorted(-x for x in xs), abs=1e-10)


def test_mirror_conjugacy_with_y_block():
    """Swapping (a,d), negating (b,e) crosswise and mu reproduces the orbit
    with x negated and Y unchanged."""
    rng = np.random.default_rng(17)
    done = 0
    while done < 20:
        m = int(rng.integers(0, 3))
        a = float(rng.uniform(0.2, 1.2))
        d = float(rng.uniform(-7.0, -3.8))
        b = rng.uniform(-1, 1, m)
        e = rng.uniform(-1, 1, m)
        A = rng.uniform(-0.4, 0.4, (m, m))
        h = rng.uniform(-1, 1, m)
        mu = float(rng.uniform(0.3, 2.0))
        plus = cs.CanonicalSystem(a, d, b, e, A, h, mu)
        try:
            sol = cs.solve_cycle(plus, 3)
        except (NotAdmissibleError, EigenvalueOneError):
            continue
        minus = cs.CanonicalSystem(d, a, -e, -b, A, h, -mu)
        swapped = sol.sequence.translate(str.maketrans("RL", "LR"))
        mir = cs.solve_symbolic_cycle(minus, swapped)
        pts = np.asarray(sol.points)
        pts_m = np.asarray(mir.points)
        flip = pts.copy()
        flip[:, 0] = -flip[:, 0]
        assert np.max(np.abs(pts_m - flip)) < 1e-10
        done += 1


def test_stability_flag_matches_region_predicate():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 40:
        a = float(rng.uniform(0.1, 1.2))
        d = float(rng.uniform(-12.0, -3.6))
        if not st.region_exists(a, d, 3):
            continue
        if st.on_bifurcation_curve(a, d, 3):
            continue
        sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(a, d, 0.8))
        try:
            sol = cs.solve_cycle(sys, 3)
        except NotAdmissibleError:
            continue
        assert sol.stable == st.region_stable(a, d, 3)
        checked += 1


def test_solve_cycle_rejects_bad_sequences():
    sys = reference_system()
    with pytest.raises(ValueError):
        cs.solve_symbolic_cycle(sys, "RXL")
    with pytest.raises(ValueError):
        cs.solve_symbolic_cycle(sys, "")
    with pytest.raises(ValueError):
        cs.solve_cycle(sys, 0)


def test_solve_cycle_multipliers_match_public_multipliers():
    rng = np.random.default_rng(23)
    solved = 0
    for m in (1, 3, 16):
        for _ in range(15):
            A = rng.normal(size=(m, m))
            A *= rng.uniform(0.3, 1.2) / np.max(np.abs(np.linalg.eigvals(A)))
            n = int(rng.integers(3, 12))
            a = float(rng.uniform(0.1, 1.5))
            sys = cs.CanonicalSystem(
                a, st.existence_bound(a, n) * float(rng.uniform(1.01, 2.0)),
                rng.uniform(-1, 1, m), rng.uniform(-1, 1, m), A,
                rng.uniform(-1, 1, m), float(rng.uniform(0.2, 2.0)),
            )
            sol = cs.solve_cycle(sys, n)
            want = np.asarray(cs.multipliers(sys, sol.sequence))
            got = np.asarray(sol.multipliers)
            assert got.shape == want.shape == (m + 1,)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
            assert sol.stable == all(abs(v) < 1.0 for v in want)
            solved += 1
    assert solved == 45


def test_eigenvalue_check_on_block_power():
    # a quarter turn: no eigenvalue of A at 1, but A^4 = I
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    for n, raises in ((3, False), (4, True)):
        sys = cs.CanonicalSystem(
            0.4, 1.2 * st.existence_bound(0.4, n), [1.0, 0.5], [0.5, 1.0], rot,
            [0.1, 0.2], 0.8,
        )
        if raises:
            with pytest.raises(EigenvalueOneError):
                cs.solve_cycle(sys, n)
        else:
            sol = cs.solve_cycle(sys, n)
            assert orbit_closure_error(sys, sol.points) < 1e-12
            assert sorted(abs(v) for v in sol.multipliers)[-2:] == pytest.approx([1.0, 1.0])
