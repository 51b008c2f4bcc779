"""Orbit simulation, cycle detection, itineraries and attractor-band counts.

The x coordinate of the canonical system evolves autonomously, so the
bifurcation scan and cobweb helpers work on the 1D map, and trajectory
runs x first and then the Y block as a linear recurrence driven by x,
solved as a cycle where x repeats and the block provably contracts.
Cycle detection handles the full (m+1)-dimensional state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycle_solver import (
    _CONTRACTION_CAP,
    CanonicalSystem,
    _contraction,
    _drive_bound,
    _y_cycle,
)
from .errors import DivergenceError
from .skew_tent import (
    SkewTentParams,
    _kink_tol,
    _require_count,
    _require_int,
    _require_tol,
    _sign_word,
)

__all__ = [
    "DEFAULT_STEPS",
    "DEFAULT_TRANSIENT",
    "DIVERGENCE_THRESHOLD",
    "DEFAULT_MAX_PERIOD",
    "DEFAULT_CYCLE_TOL",
    "Orbit",
    "DetectedCycle",
    "trajectory",
    "detect_cycle",
    "itinerary",
    "band_count",
    "cobweb_data",
    "bifurcation_scan",
]

DEFAULT_STEPS = 10_000
DEFAULT_TRANSIENT = 1_000
DIVERGENCE_THRESHOLD = 1e12
DEFAULT_MAX_PERIOD = 64
DEFAULT_CYCLE_TOL = 1e-7

# Divergence is checked once per chunk of about _Y_CHUNK_VALUES values
# (steps times m) of the Y recurrence, and once per chunk of the x loop,
# which trajectory, cobweb_data and each row of the d sweep share. The x
# chunks double from _X_FIRST_CHUNK steps up to _X_CHUNK, and each is
# also searched for a repeat of its last x.
_Y_CHUNK_VALUES = 1 << 14
_X_FIRST_CHUNK = 1 << 6
_X_CHUNK = 1 << 12
# A block of K steps of the Y recurrence spans K * m values, at most
# _Y_BLOCK_WIDTH; _block_powers shortens it by the size and the
# cancellation of the powers A^1..A^K. The width also bounds the block
# map of _y_orbit, (2K + m) x Km values: at most 321 x 160, at m = 1.
_Y_BLOCK_WIDTH = 160
_POWER_LIMIT = 1e150
_POWER_CANCELLATION = 5.0
# The cycle route of trajectory's Y needs ||A^j||_inf <= 1/2 for some
# j <= _CONTRACTION_CAP (cycle_solver's). It forms its p cycle states one
# at a time, each costing up to about 45 steps of the blocked recurrence
# (m = 3; about 23 at m = 16), so it runs only when
# _CYCLE_STEP_COST * p <= steps.
_CYCLE_STEP_COST = 64


@dataclass(frozen=True)
class Orbit:
    """Recorded tail of a trajectory.

    states has shape (steps - transient, m + 1) and holds the states
    after the first `transient` map applications were discarded.
    mu_hat is the system's offset, which sets itinerary's default zero
    tolerance; an Orbit built by hand keeps 1.0, so 1e-9.
    """

    states: np.ndarray
    transient: int
    mu_hat: float = 1.0

    @property
    def x_values(self) -> np.ndarray:
        return self.states[:, 0]


@dataclass(frozen=True)
class DetectedCycle:
    """A numerically detected periodic attractor.

    points has shape (period, m + 1). tol_used is the absolute tolerance
    detect_cycle applied: its relative tol times the largest |value| it
    compared.
    """

    period: int
    points: np.ndarray
    tol_used: float


def _run_window(steps, transient) -> tuple:
    """steps and transient as ints; ValueError unless 0 <= transient < steps."""
    steps = _require_count(steps, "steps", 1)
    transient = _require_int(transient, "transient")
    if not 0 <= transient < steps:
        raise ValueError("need 0 <= transient < steps")
    return steps, transient


def trajectory(
    sys: CanonicalSystem,
    steps: int = DEFAULT_STEPS,
    transient: int = DEFAULT_TRANSIENT,
    z0=None,
) -> Orbit:
    """Iterate the canonical map and record states transient..steps-1.

    z0 defaults to (mu_hat / 2, 0, ..., 0), which sits inside the
    absorbing interval whenever an attractor exists. The map is
    triangular: x runs on its own as a scalar loop until its float orbit
    repeats, from where the cycle is copied (see _x_orbit); Y follows as
    the linear recurrence Y' = A_block Y + u_k with inputs
    u_k = (b_vec or e_vec) x_k + h_Y, by one of two routes. The cycle
    route (_y_cycle_tail) runs where x repeats by the end of the
    transient, the period is short against the run, and norm bounds on
    the powers of A_block prove that no state crosses the threshold and
    that the recorded tail is the Y cycle of the repeated x word to
    within its rounding: that cycle is solved once and tiled, and no Y
    step runs. Every other run takes the scan route (_y_orbit), which
    evaluates the recurrence in blocks of steps with one affine map from
    a block's x values and start to its states: the map gives every
    block's end, and a block's states are formed with it only where
    they are recorded, or where a norm bound does not keep them inside
    the threshold. The routes agree to within a few
    units of rounding of the scale. m = 0 simply has no Y. Raises
    DivergenceError (carrying the application count, the offending
    state and the threshold) at the first step where any coordinate
    exceeds DIVERGENCE_THRESHOLD times the run's scale,
    max(|mu_hat|, max|h_Y|, max|z0|): scaling mu_hat, h_Y and z0 by a
    power of two scales every state, and the threshold, by it. The
    threshold is capped at the largest float, so an orbit that
    overflows still crosses it. The returned Orbit carries sys.mu_hat
    for itinerary.
    """
    steps, transient = _run_window(steps, transient)
    m = sys.m
    if z0 is None:
        z0 = np.zeros(m + 1)
        z0[0] = sys.mu_hat / 2.0
    else:
        z0 = np.asarray(z0, dtype=float)
        if z0.shape != (m + 1,):
            raise ValueError(f"z0 must have shape ({m + 1},)")
        if not np.all(np.isfinite(z0)):
            raise ValueError("z0 must be finite")
    threshold = _divergence_threshold(sys.mu_hat, *sys.h_Y, *z0)

    out = np.empty((steps - transient, m + 1))
    xs = np.empty(steps)  # Y is driven by every x from step 0
    hit, period = _x_orbit(sys, float(z0[0]), xs, threshold)
    y = z0[1:]
    if m > 0 and (period is None or not _y_cycle_tail(
            sys, xs, y, period, transient, out[:, 1:], threshold)):
        last = steps - 1 if hit is None else hit[0]
        y = _y_orbit(sys, xs, y, last, transient, out[:, 1:], threshold)
    if hit is not None:
        raise DivergenceError(hit[0], np.concatenate(([hit[1]], y)), threshold)
    out[:, 0] = xs[transient:]
    return Orbit(states=out, transient=transient, mu_hat=sys.mu_hat)


def _divergence_threshold(*scales):
    """DIVERGENCE_THRESHOLD times the run's scale, the largest |scale|,
    capped at the largest float, the one below inf, so that an orbit
    that overflows to inf still crosses it."""
    scale = float(max(map(abs, scales)))
    return min(DIVERGENCE_THRESHOLD * scale, math.nextafter(math.inf, 0.0))


def _x_orbit(sys, x, rec, threshold):
    """Run the skew tent map of sys from x for len(rec) - 1 applications.

    Writes x_k to rec[k]. Returns (crossing, period): crossing is
    (k, x_k) for the first k with |x_k| > threshold, or None when the
    orbit stays bounded; period is the least period p of a repeat seen
    at a chunk end, or None when none was seen (always after a
    crossing).

    The float map is a function of x's bits alone, so once x_k has the
    bits of an earlier x_j the orbit repeats x_(j+1)..x_k from there on
    (Brent, "An improved Monte Carlo factorization algorithm", 1980).
    The steps run in chunks that double from _X_FIRST_CHUNK up to
    _X_CHUNK; each chunk is screened for divergence and its last x
    sought among its earlier values and the one before it. The latest
    match is p steps back, p the orbit's least period, and copies the
    period to the end of rec with _tile, whatever the number of
    periods. Every copied value was screened, so the first
    crossing is the one stepping would find. A repeat is seen only at a
    chunk end whose window holds a whole period, so a period above
    _X_CHUNK + 1 is never seen; where the cycle starts is found by
    _repeat_start when it is needed.
    """
    a, d, mu = sys.a, sys.d, sys.mu_hat
    # the loop only steps, and each chunk is screened after it: an orbit
    # that leaves runs on to the end of its chunk (Python floats go to
    # inf or NaN without raising). memoryview item assignment costs
    # about half of ndarray's
    view = memoryview(rec)
    # bits, not values: +0.0 == -0.0, yet a = -0.5, mu_hat = -0.0 steps
    # 0.0 to -0.0 and back
    bits = rec.view(np.int64)
    view[0] = x
    k0, size = 1, _X_FIRST_CHUNK
    while k0 < len(rec):
        k1 = min(k0 + size, len(rec))
        for k in range(k0, k1):
            x = a * x + mu if x <= 0.0 else d * x + mu
            view[k] = x
        over = np.abs(rec[k0:k1]) > threshold
        if over.any():
            k = k0 + int(over.argmax())
            return (k, float(rec[k])), None
        seen = np.flatnonzero(bits[k0 - 1 : k] == bits[k])
        if seen.size:
            p = k - (k0 - 1 + int(seen[-1]))  # x_k repeats x_(k-p)
            _tile(rec[k1:], rec[k1 - p : k1])
            return None, p
        k0, size = k1, min(2 * size, _X_CHUNK)
    return None, None


def _tile(out, period):
    """Fill out with period repeated from its first row, out[k] =
    period[k mod p] with p = len(period): whole periods by one broadcast
    into p rows, then the rest. period must not overlap out."""
    q, r = divmod(len(out), len(period))
    out[: len(out) - r].reshape(q, *period.shape)[...] = period
    out[len(out) - r :] = period[:r]


def _repeat_start(xs, p, last):
    """The first s <= last whose x_s has the bits of x_(s+p), or None:
    from s on the orbit xs repeats with period p. One comparison of
    bit patterns, as _x_orbit's."""
    bits = xs.view(np.int64)
    n = min(last + 1, len(xs) - p)
    same = bits[:n] == bits[p : p + n]
    s = int(same.argmax())
    return s if same[s] else None


def _y_cycle_tail(sys, xs, y, p, transient, rec, threshold):
    """Write Y_k for k >= transient to rec[k - transient] from the Y
    cycle of the repeating x orbit and return True, where bounds prove
    that stepping Y from Y_0 = y gives the same states to within their
    rounding and crosses no threshold; else write nothing and return
    False.

    xs holds the x orbit, whose least period is p, at most
    len(xs) / _CYCLE_STEP_COST. From the first s with x_s = x_(s+p) the
    drives repeat, so
    Y_k = C_((k-s) mod p) + A^(k-s) (Y_s - C_0), where C is the Y cycle
    of the word x_s..x_(s+p-1) (cycle_solver._y_cycle). The route needs
    s <= transient and _contraction's bound
    ||A^k||_inf <= N 2^-floor(k/j). Then every state, and C, lies within
    B = N max|Y_0| + 2 j N u_max, u_max the largest |u_k| of the run's
    x values; 2 B <= threshold must hold, the factor 2 covering rounding
    as in _y_orbit, so that no state crosses. The deviation at the first
    recorded step, at most N 2 B 2^-floor((transient - s) / j) and
    smaller after it, must lie below half an ulp of C's largest |value|
    there, so j is sought only up to (transient - s) // 55. No Y step
    runs: the record tiles C with phase (k - s) mod p.
    """
    if _CYCLE_STEP_COST * p > len(xs):
        return False
    s = _repeat_start(xs, p, transient)
    if s is None:
        return False
    t = transient - s
    # no j above t // 55 passes the deviation test below: where B is a
    # normal float, ulp(B) / 2 <= B 2^-53 <= N 2 B 2^-floor(t / j) unless
    # floor(t / j) >= 55, and below the normal floats ulp(B) / 2 rounds
    # to 0
    contraction = _contraction(sys.A_block, min(_CONTRACTION_CAP, t // 55))
    if contraction is None:
        return False
    j, N = contraction
    u_max = _drive_bound(sys, xs[: s + p])
    bound = N * float(np.abs(y).max()) + 2 * j * N * u_max
    if not 2.0 * bound <= threshold:
        return False
    deviation = math.ldexp(2.0 * N * bound, -(t // j))
    # the exact |C| is at most B, so a deviation of half an ulp of B or
    # more cannot pass the test below: reject it before C is solved
    if not deviation < math.ulp(bound) / 2:
        return False
    word = xs[s : s + p]
    C, _ = _y_cycle(sys, word, word > 0.0, np.linalg.matrix_power(sys.A_block, p))
    if not deviation < math.ulp(float(np.abs(C[t % p]).max())) / 2:
        return False
    # C rolled to the phase of rec[0]
    _tile(rec, np.concatenate((C[t % p :], C[: t % p])))
    return True


def _y_orbit(sys, xs, y, last, transient, rec, threshold):
    """Run Y_k = A_block Y_(k-1) + u_(k-1) for k = 1..last from Y_0 = y.

    xs holds x_0..x_last. Writes Y_k for k >= transient to
    rec[k - transient] and returns Y_last. Raises DivergenceError at the
    first k whose Y_k leaves the threshold; x_k is inside it for k < last.

    The steps run in blocks of K, a blocked evaluation of the linear
    recurrence (Blelloch, "Prefix sums and their applications", 1990).
    One affine map, built once per run, gives a block's K states from
    its start y and its x values x_0..x_(K-1):

        Y_i = A^(i+1) y + sum_(j<=i) A^(i-j) (x+_j e_vec + x-_j b_vec)
              + sum_(l<=i) A^l h_Y,

    x+ and x- the positive and non-positive parts of the x values: one
    matrix M acting on the row [x+ | x- | y], plus a constant c. Per
    chunk of steps, M's last column block, i = K - 1, takes every
    block's x values to its zero-start end, and a doubling scan (Hillis
    and Steele, "Data parallel algorithms", 1986) carries the ends,
    y <- A^K y + end, with the powers A^K, A^2K, A^4K, ... whose squares
    pass _passes_checks; t of them carry 2^t - 1 blocks, so a longer
    chunk is carried in segments, each from the end the last one
    carried. The states of a block are formed, by one product with the
    whole of M, only where they are recorded or returned, or where the
    chunk's bound 2 N (max|start| + K max|u|), with
    N = max_(i<=K) ||A^i||_inf, does not keep every state inside the
    threshold; the first crossing is read from those states.
    _block_powers picks K; K = 1 is the plain recurrence.
    """
    m = y.size
    if transient == 0:
        rec[0] = y
    powers = _block_powers(sys.A_block, max(1, min(_Y_BLOCK_WIDTH // m, last)))
    K = len(powers)
    # M, rows by columns (2K + m) x Km: row j of each x half is the
    # window of [0 (K - 1 rows), A^0 v, .., A^(K-1) v] that starts at
    # K - 1 - j, v = e_vec then b_vec, and the last m rows are A^1..A^K,
    # each transposed to act on rows
    lower = np.concatenate((np.eye(m)[None], powers[:-1]))  # A^0..A^(K-1)
    pad = np.zeros((2, 2 * K - 1, m))
    pad[0, K - 1 :] = lower @ sys.e_vec
    pad[1, K - 1 :] = lower @ sys.b_vec
    windows = np.lib.stride_tricks.sliding_window_view(pad, (K, m), axis=(1, 2))
    M = np.empty((2 * K + m, K * m))
    M[: 2 * K].reshape(2, K, K, m)[...] = windows[:, ::-1, 0]
    M[2 * K :] = powers.transpose(2, 0, 1).reshape(m, K * m)
    c = np.cumsum(lower @ sys.h_Y, axis=0).reshape(K * m)
    norm = max(1.0, float(np.abs(powers).sum(axis=2).max()))
    chunk = K * max(1, _Y_CHUNK_VALUES // (K * m))
    nb_max = -(-min(chunk, last) // K)
    # the carry's jumps A^K, A^2K, A^4K, ... from block end to block end
    across = [powers[-1]]
    k0 = 1
    with np.errstate(over="ignore", invalid="ignore"):
        # every squaring the chunk could use, then all checked at once;
        # the jumps end before the first that fails
        while 1 << len(across) <= nb_max:
            across.append(across[-1] @ across[-1])
        stack = np.array(across)
        ok = _passes_checks(stack[1:], stack[:-1], stack[:-1])
        across = across[: _passing_prefix(ok) + 1]
        seg = (1 << len(across)) - 1  # the blocks one carry pass takes
        while k0 <= last:
            k1 = min(k0 + chunk, last + 1)
            n = k1 - k0
            nb = -(-n // K)
            # one row [x+ | x- | start] per block, the x values padded
            # with zeros to whole blocks
            X = np.zeros(nb * K)
            X[:n] = xs[k0 - 1 : k1 - 1]
            W = np.empty((nb, 2 * K + m))
            np.maximum(X.reshape(nb, K), 0.0, out=W[:, :K])
            np.minimum(X.reshape(nb, K), 0.0, out=W[:, K : 2 * K])
            # P[r] is the start of block r and P[r + 1] its end, the map's
            # last m columns from a zero start, carried below
            P = np.empty((nb + 1, m))
            P[0] = y
            np.matmul(W[:, : 2 * K], M[: 2 * K, -m:], out=P[1:])
            P[1:] += c[-m:]
            for r in range(0, nb, seg):
                V = P[r : r + seg + 1]
                for t, J in enumerate(across[: (len(V) - 1).bit_length()]):
                    V[1 << t :] += V[: -(1 << t)] @ J.T
            # whether no state of the chunk can leave the threshold; the
            # factor 2 covers rounding, and NaN or inf reads False
            u_max = _drive_bound(sys, X[:n])
            bounded = 2.0 * norm * (np.abs(P[:-1]).max() + K * u_max) <= threshold
            # the first block holding a recorded state; the last chunk
            # also forms the block of Y_last
            r0 = (max(k0, transient) - k0) // K if bounded else 0
            if k1 > last:
                r0 = min(r0, nb - 1)
            if r0 < nb:
                # the states of blocks r0.., from step k on
                k = k0 + r0 * K
                W[r0:, 2 * K :] = P[r0:-1]
                Y = (W[r0:] @ M + c).reshape(-1, m)[: k1 - k]
                if (np.abs(Y) > threshold).any():
                    # np.max propagates NaN exactly as the per-state
                    # check does
                    over = np.abs(Y).max(axis=1) > threshold
                    if over.any():
                        j = int(over.argmax())
                        raise DivergenceError(k + j, np.concatenate(
                            ([xs[k + j]], Y[j])), threshold)
                lo = max(k, transient)
                if lo < k1:
                    rec[lo - transient : k1 - transient] = Y[lo - k :]
                y = Y[-1]
            else:
                y = P[nb]
            k0 = k1
    return y


def _block_powers(A, cap):
    """A^1..A^K as a (K, m, m) array, for the largest K <= cap whose
    products A^i = A^(i-1) A pass _passes_checks.

    A matrix whose products cancel gets a short block, whether it grows
    or contracts: far from normal, a contracting A can fail the
    cancellation test at A^2 and get K = 1 (spectral radius 0.53 with
    ||A||_2 = 3.68 gives max(|A| |A|) = 6.5 against 5 * max|A^2| = 6.1).
    """
    powers = [A]
    # powers past an overflow are inf or NaN and fail the checks below.
    # ndarray.dot makes the same product as @ at about half its cost on
    # small blocks
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1, cap):
            powers.append(powers[-1].dot(A))
        powers = np.array(powers)
        ok = _passes_checks(powers[1:], powers[:-1], A)
    return powers[: _passing_prefix(ok) + 1]


def _passing_prefix(ok):
    """The number of leading True values of the boolean array ok."""
    return int(np.argmin(np.append(ok, False)))


def _passes_checks(P, L, R):
    """Whether each product P = L @ R is safe as a jump: every entry of P
    is at most _POWER_LIMIT, so no power turns a zero into inf * 0 = NaN,
    and max(|L| |R|) <= _POWER_CANCELLATION * max(1, max|P|), so P's
    rounding, about eps |L| |R| (Higham, "Accuracy and Stability of
    Numerical Algorithms", section 3.5), stays within a few units of the
    larger of the state P moves and its image."""
    top = np.abs(P).max(axis=(-2, -1))
    bound = (np.abs(L) @ np.abs(R)).max(axis=(-2, -1))
    scale = np.maximum(top, 1.0)
    return (top <= _POWER_LIMIT) & (bound <= _POWER_CANCELLATION * scale)


def detect_cycle(
    orbit: Orbit,
    max_period: int = DEFAULT_MAX_PERIOD,
    tol: float = DEFAULT_CYCLE_TOL,
) -> DetectedCycle | None:
    """Detect a periodic attractor in the orbit tail, or return None.

    Compares the last p states against the p before them for
    p = 1..max_period and reports the smallest p that matches within
    tol. tol is relative, as classify's is: its unit is the largest
    |value| among the states compared, the last 2 top with
    top = min(max_period, len(states) // 2), so a cycle scaled by a
    power of two is found at the same p. tol_used is the absolute
    tolerance applied. Chaotic orbits, periods above max_period and a
    compared window that holds inf or NaN yield None.
    """
    max_period = _require_count(max_period, "max_period", 1)
    _require_tol(tol)
    states = orbit.states
    top = min(max_period, states.shape[0] // 2)
    unit = float(np.abs(states[len(states) - 2 * top :]).max(initial=0.0))
    if not math.isfinite(unit):
        return None
    tol = tol * unit
    # finite states farther apart than the largest float differ by inf,
    # which no tol matches
    with np.errstate(over="ignore"):
        # max|states[-1] - states[-1-p]| for p = 1..top rules most p out
        # at once; the full comparison below includes that row
        last = np.abs(states[-1 - top : -1][::-1] - states[-1:]).max(axis=1)
        for p in (np.flatnonzero(last <= tol) + 1).tolist():
            if np.max(np.abs(states[-p:] - states[-2 * p : -p])) <= tol:
                return DetectedCycle(period=p, points=states[-p:].copy(), tol_used=tol)
    return None


def itinerary(orbit: Orbit, zero_tol: float | None = None) -> str:
    """Symbol string of the recorded x-values: R (x > zero_tol),
    L (x < -zero_tol), else 0.

    zero_tol defaults to zero_tolerance(orbit.mu_hat), as the solvers'
    does, so a point near the kink reads the letter of their sequence.
    """
    zero_tol = _kink_tol(zero_tol, orbit.mu_hat)
    return _sign_word(orbit.x_values.tolist(), zero_tol)


def band_count(orbit: Orbit) -> int:
    """Number of attractor bands the recorded x-values visit in turn.

    A p-band attractor is p disjoint intervals that the map permutes
    cyclically, so points in one band are a multiple of p steps apart.
    With the tail sorted by value, g is the gcd of the step counts
    between value neighbours closer than the tail's mean spacing. The
    count is the largest divisor p of g for which the sorted tail changes
    residue (step mod p) exactly p - 1 times, each time across a gap
    > 0, and 1 when no p > 1 passes. A converged n-cycle counts n.

    Two routes give that count. A tail that repeats one period of
    pairwise distinct values exactly, bit for bit, at least twice over,
    is counted from that period alone (_period_band_count). Any other
    tail is sorted, and a divisor p passes where the p classes of step
    mod p span strictly disjoint value ranges [min, max]: that holds
    exactly when each class is one run of the sorted tail with a gap > 0
    on each side.

    A gap between bands narrower than the tail's mean spacing is not
    resolved, so just past a band merging the count can be a divisor of
    the true one; a longer tail shrinks that limit. The count sees only
    the tail it is given: a chaotic transient longer than the discarded
    steps is counted as the attractor (at a = 0.5099476801558146,
    d = -29.23965992067084, mu_hat = 0.8, x0 = 0.3, the orbit takes
    2,000 to 5,000 steps to enter its 12 bands, and a tail after a
    1,000-step transient counts 1), and a stable n-cycle whose
    multiplier is near -1 still alternates around each point when
    recorded, so it counts 2n (a = 0.4, d = -6.2464 gives 6). The
    analytic count from the kink's orbit (ROADMAP item 4) needs no tail.
    Raises ValueError if an x-value is not finite.
    """
    xs = orbit.x_values
    if not np.isfinite(xs).all():
        raise ValueError("band_count needs finite x values")
    if xs.size < 2:
        return 1
    count = _period_band_count(xs)
    if count is not None:
        return count
    order = np.argsort(xs)
    vals = xs
    with np.errstate(over="ignore"):
        gaps = np.diff(xs[order])
        spacing = gaps.mean()
    if not math.isfinite(spacing):
        # the tail is too wide to sum its gaps; a quarter of every normal
        # value is exact, and the quarters' gaps sum below the largest float
        vals = xs / 4
        gaps = np.diff(vals[order])
        spacing = gaps.mean()
    # gcd ignores sign
    g = int(np.gcd.reduce(np.diff(order), where=gaps <= spacing, initial=0))
    for p in _divisors(g):
        if _classes_apart(vals, p):
            return p
    return 1


def _period_band_count(xs):
    """band_count of a tail that repeats one period exactly, or None.

    p is the distance back to the latest copy of the last value's bits
    among the len // 2 values before it, and the whole tail must equal
    itself p steps on, so every value has at least two copies, p steps
    apart. Declines (None) unless the p values of one period are
    pairwise distinct, where the mean spacing overflows, and for a tail
    not of float64, whose bits and spacing it does not read.

    Sorted, the tail holds each period value's copies in a run, with
    gaps 0 inside it and the p - 1 gaps between values at its ends; that
    array is built as the sort route builds it, so its mean rounds to
    the same bits. The step counts inside one value's copies have gcd p,
    whatever order the sort leaves ties in, and one across two values is
    their phase difference mod p; so g is the gcd of p and the phase
    differences of value neighbours no farther apart than the spacing.
    For q dividing p the residue mod q is one per value, so the sorted
    tail changes residue as the period's phases in value order do.
    """
    if xs.dtype != np.float64:
        return None
    # array methods and slices, not np.diff or np.all: on a 100-value
    # tail the wrappers' overhead is most of the cost
    n = len(xs)
    bits = xs.view(np.int64)
    half = n // 2
    seen = (bits[n - 1 - half : n - 1] == bits[n - 1]).nonzero()[0]
    if not seen.size:
        return None
    p = half - int(seen[-1])
    if not (bits[p:] == bits[:-p]).all():
        return None
    phases = xs[:p].argsort()
    values = xs[:p][phases]
    with np.errstate(over="ignore"):
        steps = values[1:] - values[:-1]
        if not (steps > 0.0).all():
            return None
        gaps = np.zeros(n - 1)
        copies = (phases < n % p) + n // p
        gaps[copies[:-1].cumsum() - 1] = steps
        spacing = gaps.mean()
    if not math.isfinite(spacing):
        return None
    turns = phases[1:] - phases[:-1]
    g = int(np.gcd.reduce(turns, where=steps <= spacing, initial=p))
    for q in _divisors(g):
        if np.count_nonzero(turns % q) == q - 1:
            return q
    return 1


def _divisors(g):
    """The divisors of g above 1, largest first."""
    return sorted({q for i in range(1, math.isqrt(g) + 1) if g % i == 0
                   for q in (i, g // i)} - {1}, reverse=True)


def _classes_apart(vals, p):
    """Whether the p classes of index mod p of vals span strictly
    disjoint value ranges [min, max]. Needs p < len(vals)."""
    whole = len(vals) - len(vals) % p
    cols = vals[:whole].reshape(-1, p).T
    if cols.shape[1] > p:
        # numpy reduces a long contiguous row much faster than many
        # short strided ones
        cols = cols.copy()
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    rest = vals[whole:]
    r = len(rest)
    np.minimum(lo[:r], rest, out=lo[:r])
    np.maximum(hi[:r], rest, out=hi[:r])
    k = lo.argsort()
    return bool((hi[k[:-1]] < lo[k[1:]]).all())


def cobweb_data(p: SkewTentParams, x0: float, steps: int) -> np.ndarray:
    """Vertex list of a cobweb plot path for the 1D map.

    Starts at (x0, 0); each step appends the vertical segment endpoint
    (x, f(x)) and the diagonal endpoint (f(x), f(x)). Shape is
    (2 * steps + 1, 2). The x values are trajectory's, unscreened.
    """
    steps = _require_count(steps, "steps", 1)
    x = float(x0)
    if not math.isfinite(x):
        raise ValueError("z0 must be finite")
    xs = np.empty(steps + 1)
    _x_orbit(p, x, xs, math.inf)
    pairs = np.repeat(xs, 2)  # x_0, x_0, x_1, x_1, ...
    pts = np.column_stack((pairs[:-1], pairs[1:]))
    pts[0, 1] = 0.0
    return pts


def bifurcation_scan(
    a: float,
    mu_hat: float,
    d_min: float,
    d_max: float,
    d_steps: int,
    steps: int = DEFAULT_STEPS,
    transient: int = DEFAULT_TRANSIENT,
    x0: float | None = None,
) -> list:
    """Sweep d over an inclusive grid and record the x attractor per value.

    Each row is trajectory's x orbit on the 1D system: _x_orbit steps it
    until its float orbit repeats and copies the cycle from there, so it
    matches that trajectory bit for bit. The divergence threshold is
    trajectory's, DIVERGENCE_THRESHOLD times the run's scale
    max(|mu_hat|, |x0|). x0 defaults to mu_hat / 2.

    Returns one dict per d with keys 'd', 'xs' (recorded tail values,
    empty when diverged), 'diverged', and 'diverged_at' (application
    count, None when bounded). The bounded rows' 'xs' are row views of
    one (d_steps, steps - transient) array. Divergence is reported per
    row instead of raised so a sweep across an exploding region still
    completes.
    """
    d_steps = _require_count(d_steps, "d_steps", 1)
    # a non-finite or overflowing span is reported by SkewTentParams
    with np.errstate(invalid="ignore", over="ignore"):
        ds = np.linspace(d_min, d_max, d_steps)
    # the checks and messages of SkewTentParams and trajectory, in their order
    maps = [SkewTentParams(a=float(a), d=d, mu_hat=float(mu_hat)) for d in ds.tolist()]
    steps, transient = _run_window(steps, transient)
    x0 = float(mu_hat) / 2.0 if x0 is None else float(x0)
    if not math.isfinite(x0):
        raise ValueError("z0 must be finite")

    threshold = _divergence_threshold(mu_hat, x0)
    out = np.empty((d_steps, steps - transient))
    rec = np.empty(steps)
    rows = []
    for p, row in zip(maps, out):
        hit, _ = _x_orbit(p, x0, rec, threshold)
        if hit is None:
            row[:] = rec[transient:]
        rows.append({
            "d": p.d,
            "xs": row if hit is None else np.empty(0),
            "diverged": hit is not None,
            "diverged_at": None if hit is None else hit[0],
        })
    return rows
