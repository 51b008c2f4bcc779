"""Tests for the canonical-form cycle solver."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from pwlcycles import cycle_solver as cs
from pwlcycles import skew_tent as st
from pwlcycles.errors import (
    EigenvalueOneError,
    NotAdmissibleError,
    SingularDenominatorError,
)
from pwlcycles.simulator import Orbit, itinerary


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


def y_components_diagonal(sys, xs, eig_tol=cs.EIG_TOL):
    """Y-components of the R L^(n-1) cycle for exactly diagonal A_block.

    The per-coordinate oracle for the dense Y solve: each coordinate
    decouples, so Y_1 is a scalar formula per entry,

        Y1_i = ((x_n + x_{n-1} A_ii + ... + x_2 A_ii^(n-2)) b_i
                + x_1 A_ii^(n-1) e_i + S_n(A_ii) h_i) / (1 - A_ii^n),

    and the other Y vectors follow by forward recursion. Raises ValueError
    for a block that is not literally diagonal and EigenvalueOneError when
    some A_ii^n is within eig_tol of 1. xs is an XCycle or the x-values
    in cycle order.
    """
    if isinstance(xs, st.XCycle):
        xs = xs.xs
    xs = [float(x) for x in xs]
    n = len(xs)
    A = sys.A_block
    diag = np.diag(A).copy()
    if np.count_nonzero(A - np.diag(diag)):
        raise ValueError("A_block must be exactly diagonal for this route")

    Y1 = np.empty(sys.m)
    for i, ai in enumerate(diag):
        den = 1.0 - ai**n
        if abs(den) <= eig_tol:
            raise EigenvalueOneError(f"{ai!r}^{n} is within {eig_tol} of 1")
        coupled = sum(xs[n - 1 - k] * ai**k for k in range(n - 1))
        Y1[i] = (
            coupled * sys.b_vec[i]
            + xs[0] * ai ** (n - 1) * sys.e_vec[i]
            + st.geometric_sum(ai, n) * sys.h_Y[i]
        ) / den

    ys = [Y1, sys.e_vec * xs[0] + diag * Y1 + sys.h_Y]
    for i in range(1, n - 1):
        ys.append(sys.b_vec * xs[i] + diag * ys[-1] + sys.h_Y)
    return ys


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
        ys = y_components_diagonal(sys, xc)
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
        y_components_diagonal(dense, xc)


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
        y_components_diagonal(bad, xc)
    # A itself clean but A^n hits 1: eigenvalue -1, even n
    spin = cs.CanonicalSystem(
        0.4, -12.0, [1.0, 0.0], [0.0, 1.0], np.diag([-1.0, 0.5]), [0.1, 0.1], 0.8,
    )
    with pytest.raises(EigenvalueOneError):
        cs.solve_cycle(spin, 4)


def random_system(rng, m, a, d, radius):
    """Random canonical system whose A_block has spectral radius `radius`."""
    A = rng.normal(size=(m, m))
    if m:
        A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    return cs.CanonicalSystem(
        a, d, rng.uniform(-1, 1, m), rng.uniform(-1, 1, m), A,
        rng.uniform(-1, 1, m), float(rng.uniform(0.2, 2.0)),
    )


def test_symbolic_matches_positional_solver():
    sys = reference_system()
    sol_n = cs.solve_cycle(sys, 3)
    sol_s = cs.solve_symbolic_cycle(sys, "RLL")
    assert np.max(np.abs(np.asarray(sol_n.points) - np.asarray(sol_s.points))) < 1e-10
    assert sol_s.admissible

    rng = np.random.default_rng(29)
    for m in (0, 1, 3, 16):
        solved = 0
        while solved < 15:
            n = int(rng.integers(3, 31))
            a = float(rng.uniform(0.1, 1.5))
            d = st.existence_bound(a, n) * float(np.exp(rng.uniform(-0.7, 0.7)))
            sys = random_system(rng, m, a, d, float(rng.uniform(0.3, 1.2)))
            try:
                sol_n = cs.solve_cycle(sys, n)
            except (NotAdmissibleError, SingularDenominatorError, EigenvalueOneError):
                continue
            sol_s = cs.solve_symbolic_cycle(sys, sol_n.sequence)
            pts_n = np.asarray(sol_n.points)
            scale = max(1.0, float(np.max(np.abs(pts_n))))
            tol = st.verify_tolerance(sys.mu_hat) * scale
            assert np.max(np.abs(np.asarray(sol_s.points) - pts_n)) <= tol
            assert sol_s.sequence == sol_n.sequence
            assert sol_s.multipliers == sol_n.multipliers
            assert sol_s.stable == sol_n.stable
            assert sol_s.admissible
            solved += 1


def _check_symbolic_closure(a_range, d_range):
    rng = np.random.default_rng(31)
    admissible = 0
    for _ in range(1000):
        word = "".join(rng.choice(["R", "L"], int(rng.integers(1, 41))))
        m = int(rng.integers(0, 4))
        sys = random_system(
            rng, m, float(rng.uniform(*a_range)), float(rng.uniform(*d_range)),
            float(rng.uniform(0.1, 0.9)),
        )
        try:
            sol = cs.solve_symbolic_cycle(sys, word)
        except SingularDenominatorError:
            continue
        if not sol.admissible:
            continue
        pts = np.asarray(sol.points)
        scale = max(1.0, float(np.max(np.abs(pts))))
        assert orbit_closure_error(sys, pts) < st.verify_tolerance(sys.mu_hat) * scale
        admissible += 1
    assert admissible >= 30


def test_symbolic_solutions_close_under_map():
    """Every admissible solution of a random word is a cycle of the map.

    Direct stepping shares no code with the solver.
    """
    _check_symbolic_closure((0.2, 0.95), (-3.0, -1.05))


def test_symbolic_solutions_close_under_map_with_expanding_slopes():
    # both slopes may expand, so slope products reach about 3^40
    _check_symbolic_closure((0.2, 3.0), (-3.0, -0.2))


def test_symbolic_x_matches_mpmath_rotation():
    """Every x_k against the fixed point of its own rotation of the word,
    x_k = c_k / (1 - P), evaluated with 60 digits from the same slopes."""
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(300):
        word = "".join(rng.choice(["R", "L"], int(rng.integers(1, 41))))
        a, d = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
        mu = float(rng.uniform(0.2, 2.0))
        sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(a, d, mu))
        try:
            sol = cs.solve_symbolic_cycle(sys, word)
        except SingularDenominatorError:
            continue
        with mpmath.workdps(60):
            slopes = [mpmath.mpf(d if letter == "R" else a) for letter in word]
            den = 1 - mpmath.fprod(slopes)
            exact = []
            for k in range(len(word)):
                c = mpmath.mpf(0)
                for slope in slopes[k:] + slopes[:k]:
                    c = slope * c + mu
                exact.append(c / den)
            scale = max(1, max(abs(x) for x in exact))
            err = max(abs(mpmath.mpf(p[0]) - x) for p, x in zip(sol.points, exact))
            assert err <= 1e-13 * scale, (word, a, d, mu, float(err / scale))
        checked += 1
    assert checked >= 290


def branch_step_residual(sys, sol):
    """Largest one-step miss max_k |M_k z_k + c_k - z_(k+1)|, with the
    branch_affine matrices of each letter."""
    pts = np.asarray(sol.points)
    worst = 0.0
    for k, letter in enumerate(sol.sequence):
        M, c = cs.branch_affine(sys, letter)
        miss = M @ pts[k] + c - pts[(k + 1) % sol.n]
        worst = max(worst, float(np.max(np.abs(miss))))
    return worst


def test_residual_is_the_one_step_miss():
    rng = np.random.default_rng(53)
    seen = {True: 0, False: 0}
    for _ in range(400):
        word = "".join(rng.choice(["R", "L"], int(rng.integers(1, 31))))
        m = int(rng.integers(0, 5))
        sys = random_system(
            rng, m, float(rng.uniform(0.2, 3.0)), float(rng.uniform(-3.0, -0.2)),
            float(rng.uniform(0.1, 0.9)),
        )
        try:
            sol = cs.solve_symbolic_cycle(sys, word)
        except SingularDenominatorError:
            continue
        scale = max(1.0, float(np.max(np.abs(np.asarray(sol.points)))))
        want = branch_step_residual(sys, sol)
        assert abs(sol.residual - want) <= 4 * np.finfo(float).eps * scale
        seen[sol.admissible] += 1
    assert min(seen.values()) >= 30


def test_residual_of_long_expanding_word():
    # the slope product is about 4.3e16; composing the period's branches
    # multiplies the rounding of every point by it
    word = "RLRLRLLLLLLLRLLLRLLRLRRRLRLRRLLLLLRRLLLL"
    sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(2.64, -2.54, 0.8))
    sol = cs.solve_symbolic_cycle(sys, word)
    assert sol.admissible
    scale = max(1.0, float(np.max(np.abs(np.asarray(sol.points)))))
    assert sol.residual <= st.verify_tolerance(sys.mu_hat) * scale
    assert sol.residual == branch_step_residual(sys, sol)


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
    # m > 0 too: the word's denominator is the scalar 1 - slope product
    sys = cs.CanonicalSystem(2.0, 0.5, [1.0], [0.5], [[0.5]], [0.1], 1.0)
    with pytest.raises(SingularDenominatorError):
        cs.solve_symbolic_cycle(sys, "RL")
    # the message names the word's own x multiplier: 1 - a d^2 vanishes
    # at a = 0.25, d = 2, where the R L^2 form 1 - a^2 d would be 0.875
    sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(0.25, 2.0, 1.0))
    with pytest.raises(SingularDenominatorError, match=r"^singular denominator "
                       r"1 - a\^1\*d\^2 = 0\.0 for a=0\.25, d=2\.0, n=3$"):
        cs.solve_symbolic_cycle(sys, "RLR")


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize(
    "a, d, word",
    [(-3e4, 2e4, "RL" * 40), (50.0, -3.0, "R" + "L" * 200), (1e5, -2e5, "R" + "L" * 61)],
    ids=["RL*40", "R+L*200", "R+L*61"],
)
def test_symbolic_overflow_raises_typed_error(m, a, d, word):
    # the last word overflows only the slope product: x_1 = c / inf is finite
    sys = cs.CanonicalSystem(a, d, [1.0] * m, [0.5] * m, np.eye(m) * 0.5, [0.1] * m, 1.0)
    with pytest.raises(NotAdmissibleError, match="overflows"):
        cs.solve_symbolic_cycle(sys, word)


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
@pytest.mark.parametrize("word", ["RLLR", "RLRLRLL"])
def test_grouped_power_overflow_raises_typed_error(signs, word):
    # a^(#L) overflows while d^(#R) does not underflow (RLLR, whose true
    # multiplier is 1), or d^(#R) underflows to 0 and the product is NaN
    sys = cs.CanonicalSystem.from_skew_tent(
        st.SkewTentParams(signs[0] * 1e160, signs[1] * 1e-160, 0.8))
    x_multiplier = cs.multipliers(sys, word)[0]
    assert not math.isfinite(abs(x_multiplier))
    with pytest.raises(NotAdmissibleError, match="overflows"):
        cs.solve_symbolic_cycle(sys, word)


def test_block_power_overflow_raises_typed_error():
    # every x point is finite; only A_block^n overflows
    word = "R" + "L" * 29
    sys = cs.CanonicalSystem(0.4, -12.0, [1.0], [0.5], [[1e20]], [0.1], 1.0)
    with pytest.raises(NotAdmissibleError, match="A_block"):
        cs.multipliers(sys, word)
    with pytest.raises(NotAdmissibleError, match="A_block"):
        cs.solve_symbolic_cycle(sys, word)
    # the x-cycle is admissible at n = 3, and a 2x2 block also meets inf * 0
    for block in ([[1e120]], [[1e200, 1.0], [1.0, 0.5]]):
        m = len(block)
        sys = cs.CanonicalSystem(0.4, -12.0, [1.0] * m, [0.5] * m, block, [0.1] * m, 1)
        assert st.cycle_x_components(sys.skew_params(), 3).sequence == "RLL"
        with pytest.raises(NotAdmissibleError, match="A_block"):
            cs.solve_cycle(sys, 3)


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


def _solved(a, d, n, mu):
    """solve_cycle on the 1D map (a, d, mu), None where the family's
    cycle is not admissible."""
    sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(a, d, mu))
    try:
        return cs.solve_cycle(sys, n)
    except NotAdmissibleError:
        return None


def _verdicts_agree(a, d, n, mu):
    """The three-way check at (a, d, mu) and at its mirror (d, a, -mu),
    where classify reads mu_sign '-': OnBifurcationCurve exactly where
    the solved last point lies within zero_tolerance(mu_hat), and
    elsewhere ExistsStable exactly where the solved cycle is stable."""
    for verdict, sol, mu_hat in (
        (st.classify(a, d, n).verdict, _solved(a, d, n, mu), mu),
        (st.classify(d, a, n, mu_sign="-").verdict, _solved(d, a, n, -mu), -mu),
    ):
        tol = st.zero_tolerance(mu_hat)
        on_kink = sol is not None and abs(sol.points[-1][0]) <= tol
        if on_kink:
            yield verdict is st.Verdict.ON_BIFURCATION_CURVE
        else:
            yield (verdict is st.Verdict.EXISTS_STABLE) == (
                sol is not None and sol.stable)


def test_exists_stable_iff_solved_cycle_is_stable():
    """classify says OnBifurcationCurve exactly where solve_cycle's last
    point lies on the kink, and elsewhere ExistsStable exactly where
    solve_cycle returns a stable cycle, on 30,000 seeded 1D points drawn
    around the existence curve and the stability boundary
    d = -1/a^(n-1), and on their 30,000 mirrors (a and d swapped,
    mu_hat < 0, the L R^(n-1) family)."""
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(30_000):
        n = int(rng.integers(3, 20))
        a = float(rng.uniform(0.05, 2.0))
        mu = float(rng.uniform(0.2, 2.0))
        bound = float(st.existence_bound(a, n))
        centre = bound if rng.random() < 0.5 else -1.0 / a ** (n - 1)
        d = centre * float(np.exp(rng.uniform(-0.5, 0.5)))
        for agree in _verdicts_agree(a, d, n, mu):
            assert agree, (a, d, n, mu)
            checked += 1
    assert checked == 60_000


def test_stability_verdict_and_solver_agree_next_to_the_boundary():
    """At d0 = -1/a^(n-1) and 3 ulps either side, wherever d0 lies in
    the existence region, and at the mirrors of these points, classify's
    ExistsStable and solve_cycle's stable read the same x multiplier
    a^(n-1) d and agree."""
    rng = np.random.default_rng(8)
    disagree = []
    points = 0
    for _ in range(1000):
        n = int(rng.integers(3, 20))
        a = float(rng.uniform(0.05, 2.0))
        mu = float(rng.uniform(0.2, 2.0))
        d0 = -1.0 / a ** (n - 1)
        if not st.region_exists(a, d0, n):
            continue
        ds = [d0]
        for _ in range(3):
            ds = [math.nextafter(ds[0], -math.inf), *ds, math.nextafter(ds[-1], math.inf)]
        for d in ds:
            for agree in _verdicts_agree(a, d, n, mu):
                points += 1
                if not agree:
                    disagree.append((a, d, n, mu))
    assert points == 2 * 1666
    assert disagree == []


def _exact_last_point(a, d, n):
    """x_n / mu_hat of the R L^(n-1) cycle at the float inputs (a, d), in
    exact rationals: (S_(n-1)(a) + a^(n-2) d) / (1 - a^(n-1) d). Its
    mirror (d, a, -mu_hat) has the negated points over the negated
    offset, so the same ratio."""
    a, d = Fraction(a), Fraction(d)
    total = sum(a**k for k in range(n - 1))
    return (total + a ** (n - 2) * d) / (1 - a ** (n - 1) * d)


def _kink_letter(a, d, n, mu):
    """The closed form's letter for the last cycle point of the family
    the sign of mu names, admissible or not."""
    try:
        return st.cycle_x_components(st.SkewTentParams(a, d, mu), n).sequence[-1]
    except NotAdmissibleError as err:
        return err.letters[-1]


@hs.composite
def _near_curve_point(draw):
    """(a, d, n, mu_hat, mu_sign) with d a relative 1e-16..1e-6 either
    side of the R L^(n-1) existence curve and |mu_hat| in 1e-12..1e6; for
    mu_sign '-' the mirror (a and d swapped, mu_hat < 0), on the curve
    of L R^(n-1)."""
    n = draw(hs.integers(3, 30))
    a = draw(hs.floats(0.05, 2.0))
    offset = 10.0 ** draw(hs.floats(-16.0, -6.0)) * draw(hs.sampled_from([1.0, -1.0]))
    d = float(st.existence_bound(a, n)) * (1.0 + offset)
    mu = 10.0 ** draw(hs.floats(-12.0, 6.0))
    if draw(hs.booleans()):
        return a, d, n, mu, "+"
    return d, a, n, -mu, "-"


def test_curve_verdict_iff_the_last_cycle_point_is_a_kink_point():
    """classify says OnBifurcationCurve exactly where the closed form
    reads the last cycle point as on the kink (letter 0), in both
    families, and both agree with the exact |x_n| <= 1e-9 |mu_hat| at
    the float inputs. Points whose exact |x_n| / |mu_hat| lies within
    1e-12 of 1e-9 are left out: there both float answers may round
    either way (deciding them exactly is ROADMAP item 3)."""
    seen = set()

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_near_curve_point())
    def check(point):
        a, d, n, mu, mu_sign = point
        kernel_a, kernel_d = (a, d) if mu_sign == "+" else (d, a)
        exact = abs(_exact_last_point(kernel_a, kernel_d, n))
        tol = Fraction(st.DEFAULT_CURVE_TOL)
        assume(abs(exact - tol) > Fraction(1, 10**12))
        curve = st.classify(a, d, n, mu_sign).verdict is st.Verdict.ON_BIFURCATION_CURVE
        kink = _kink_letter(a, d, n, mu) == "0"
        assert curve == kink == (exact <= tol), point
        seen.add((mu_sign, curve))

    check()
    assert seen == {("+", True), ("+", False), ("-", True), ("-", False)}


# (a, d, n): inside the existence region, on the curve, a relative 1e-7
# and 1e-11 inside it (|x_n| / mu_hat about 9e-8 and 9e-12), and 1e-7
# outside it, where the closed form's last point reads R
_SCALED_POINTS = [
    (0.4, -4.0, 3),
    (0.4, -3.5, 3),
    (0.4, -3.5 * (1 + 1e-7), 3),
    (0.4, -3.5 * (1 + 1e-11), 3),
    (0.4, -3.5 * (1 - 1e-7), 3),
    (0.5, float(st.existence_bound(0.5, 12)) * (1 + 1e-11), 12),
]


def _scaled_outcome(a, d, n, mu, mu_sign):
    """classify's verdict, solve_cycle's sequence (or the closed form's
    letters where the cycle is not admissible) and the itinerary of the
    cycle's x values."""
    verdict = st.classify(a, d, n, mu_sign).verdict
    sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(a, d, mu))
    try:
        sol = cs.solve_cycle(sys, n)
    except NotAdmissibleError as err:
        sequence, xs = ("not admissible", err.letters), err.xs
    else:
        sequence, xs = sol.sequence, [p[0] for p in sol.points]
    return verdict, sequence, itinerary(Orbit(np.array(xs)[:, None], 0, mu))


@pytest.mark.parametrize("a, d, n", _SCALED_POINTS)
def test_kink_rule_is_invariant_under_scaling_the_offset(a, d, n):
    """x is linear in mu_hat, so mu_hat -> lambda mu_hat scales every
    point and the kink tolerance alike: the verdict, the sequence and
    the itinerary stay the same for lambda from 1e-12 to 1e6, in both
    families."""
    for args in ((a, d, n, 0.8, "+"), (d, a, n, -0.8, "-")):
        *point, mu, mu_sign = args
        outcomes = {
            _scaled_outcome(*point, scale * mu, mu_sign)
            for scale in (1e-12, 1e-6, 1.0, 1e6)
        }
        assert len(outcomes) == 1, outcomes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    word=hs.text("RL0", min_size=3, max_size=11),
    a=hs.floats(-3.0, 3.0),
    d=hs.floats(-3.0, 3.0),
    m=hs.integers(0, 1),
)
def test_x_multiplier_and_stability_are_rotation_invariant(word, a, d, m):
    """A word's x multiplier, and with it stable, is one float in every
    rotation of the word: each power is formed in one chain, not in
    word order."""
    block = np.eye(m) * 0.5
    sys = cs.CanonicalSystem(a, d, [1.0] * m, [0.5] * m, block, [0.1] * m, 0.8)
    rotations = [word[k:] + word[:k] for k in range(len(word))]
    assert len({cs.multipliers(sys, w)[0] for w in rotations}) == 1
    outcomes = set()
    for w in rotations:
        try:
            outcomes.add(cs.solve_symbolic_cycle(sys, w).stable)
        except (NotAdmissibleError, SingularDenominatorError) as err:
            outcomes.add(type(err))
    assert len(outcomes) == 1


def test_solve_cycle_rejects_bad_sequences():
    sys = reference_system()
    for solve in (cs.solve_symbolic_cycle, cs.multipliers):
        with pytest.raises(ValueError, match="invalid sequence letter 'X'"):
            solve(sys, "RXL")
    with pytest.raises(ValueError):
        cs.solve_symbolic_cycle(sys, "")
    with pytest.raises(ValueError):
        cs.solve_cycle(sys, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_explicit_zero_tol_must_be_finite_and_positive(bad):
    # a NaN zero_tol fails every sign test: the closed form read the word
    # '000' and raised NotAdmissibleError, the word solver returned an
    # inadmissible cycle
    sys = reference_system()
    calls = (lambda: st.cycle_x_components(sys.skew_params(), 3, zero_tol=bad),
             lambda: cs.solve_cycle(sys, 3, zero_tol=bad),
             lambda: cs.solve_symbolic_cycle(sys, "RLL", zero_tol=bad))
    for call in calls:
        with pytest.raises(ValueError, match="zero_tol must be a finite positive"):
            call()
    for tol in (5e-324, 1e-9, 0.05):
        assert cs.solve_cycle(sys, 3, zero_tol=tol).sequence == "RLL"
        assert cs.solve_symbolic_cycle(sys, "RLL", zero_tol=tol).admissible


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
        word = "R" + "L" * (n - 1)
        if raises:
            with pytest.raises(EigenvalueOneError):
                cs.solve_cycle(sys, n)
            with pytest.raises(EigenvalueOneError):
                cs.solve_symbolic_cycle(sys, word)
        else:
            sol = cs.solve_cycle(sys, n)
            assert orbit_closure_error(sys, sol.points) < 1e-12
            assert sorted(abs(v) for v in sol.multipliers)[-2:] == pytest.approx([1.0, 1.0])
            sym = cs.solve_symbolic_cycle(sys, word)
            assert sym.admissible
            assert sym.multipliers == sol.multipliers
            assert orbit_closure_error(sys, sym.points) < 1e-12


def test_closed_form_denominator_is_the_x_multiplier(monkeypatch):
    """The closed form divides by 1 - P, and P is, bit for bit, the x
    multiplier in solve_cycle's multipliers and the one classify's
    stability margin 1 + P reads, on queries-like points of both offset
    signs, a tenth of them within a relative 1e-6 of the existence curve."""
    products = []
    points = st._cycle_points

    def spy(a, d, word, product, numerators):
        products.append(product)
        return points(a, d, word, product, numerators)

    monkeypatch.setattr(st, "_cycle_points", spy)
    rng = np.random.default_rng(33)
    solved = 0
    for k in range(2000):
        n = int(rng.integers(3, 31))
        a = float(rng.uniform(0.05, 1.5))
        spread = 1e-6 if k % 10 == 0 else 0.7
        d = float(st.existence_bound(a, n)) * math.exp(rng.uniform(-spread, spread))
        mu = float(rng.uniform(0.2, 2.0))
        sign = "+" if k % 2 else "-"
        if sign == "-":
            a, d, mu = d, a, -mu
        sys = cs.CanonicalSystem.from_skew_tent(st.SkewTentParams(a, d, mu))
        products.clear()
        try:
            x_multiplier = cs.solve_cycle(sys, n).multipliers[0]
            solved += 1
        except NotAdmissibleError:
            word = "RL"[sign == "-"] + "LR"[sign == "-"] * (n - 1)
            x_multiplier = cs.multipliers(sys, word)[0]
        (product,) = products
        assert x_multiplier.imag == 0.0 and product.hex() == x_multiplier.real.hex()
        margin = st.classify(a, d, n, sign).details["stability_lower_margin"]
        assert margin.hex() == (1.0 + product).hex()
    assert 500 < solved < 1500
