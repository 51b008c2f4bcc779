"""Orbit simulation, cycle detection, itineraries and attractor-band counts.

The x coordinate of the canonical system evolves autonomously, so the
bifurcation scan and cobweb helpers work on the 1D map, and trajectory
runs x first and then the Y block as a linear recurrence driven by x.
Cycle detection handles the full (m+1)-dimensional state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycle_solver import CanonicalSystem
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
# (steps times m) of the Y recurrence, once per chunk of the x loop, or
# once per block of _SWEEP_BLOCK_VALUES values (steps times d values) of
# the d sweep. The x chunks double from _X_FIRST_CHUNK steps up to
# _X_CHUNK, and each is also searched for a repeat of its last x.
_Y_CHUNK_VALUES = 1 << 14
_X_FIRST_CHUNK = 1 << 6
_X_CHUNK = 1 << 12
_SWEEP_BLOCK_VALUES = 1 << 15
# A block of K steps of the Y recurrence spans K * m values, at most
# _Y_BLOCK_WIDTH; _block_powers shortens it by the size and the
# cancellation of the powers A^1..A^K.
_Y_BLOCK_WIDTH = 160
_POWER_LIMIT = 1e150
_POWER_CANCELLATION = 5.0


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
    u_k = (b_vec or e_vec) x_k + h_Y, evaluated in blocks of steps.
    The block ends come first, straight from the x values; the states
    inside a block are formed only where they are recorded, or where a
    norm bound does not keep them inside the threshold. m = 0 simply
    has no Y. Raises DivergenceError (carrying the application count,
    the offending state and the threshold) at the first step where any
    coordinate exceeds DIVERGENCE_THRESHOLD times the run's scale,
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
    hit = _x_orbit(sys, float(z0[0]), xs, threshold)
    y = z0[1:]
    if m > 0:
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

    Writes x_k to rec[k]. Returns (k, x_k) for the first k with
    |x_k| > threshold, or None when the orbit stays bounded.

    The float map is a function of x's bits alone, so once x_k has the
    bits of an earlier x_j the orbit repeats x_(j+1)..x_k from there on
    (Brent, "An improved Monte Carlo factorization algorithm", 1980).
    The steps run in chunks that double from _X_FIRST_CHUNK up to
    _X_CHUNK; each chunk is screened for divergence and its last x
    sought among its earlier values and the one before it, and a match
    copies the period to the end of rec with two array operations,
    whatever the number of periods. Every copied value was screened, so
    the first crossing is the one stepping would find.
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
            return k, float(rec[k])
        seen = np.flatnonzero(bits[k0 - 1 : k] == bits[k])
        if seen.size:
            p = k - (k0 - 1 + int(seen[-1]))  # x_k repeats x_(k-p)
            # whole periods by one broadcast into p columns, then the rest
            q, r = divmod(len(rec) - k1, p)
            rec[k1 : k1 + q * p].reshape(q, p)[...] = rec[k1 - p : k1]
            rec[len(rec) - r :] = rec[k1 - p : k1 - p + r]
            return None
        k0, size = k1, min(2 * size, _X_CHUNK)
    return None


def _y_orbit(sys, xs, y, last, transient, rec, threshold):
    """Run Y_k = A_block Y_(k-1) + u_(k-1) for k = 1..last from Y_0 = y.

    xs holds x_0..x_last. Writes Y_k for k >= transient to
    rec[k - transient] and returns Y_last. Raises DivergenceError at the
    first k whose Y_k leaves the threshold; x_k is inside it for k < last.

    The steps run in blocks of K, a blocked evaluation of the linear
    recurrence (Blelloch, "Prefix sums and their applications", 1990).
    A block that starts at y with drives u_0..u_(K-1) ends at
    A^K y + Z, where Z = sum_j A^(K-1-j) u_j is its zero-start end.
    Ends come first. Per chunk of steps, one matrix product takes every
    block's x values to its Z, and a doubling scan (Hillis and Steele,
    "Data parallel algorithms", 1986) carries the ends, y <- A^K y + Z,
    with the powers A^K, A^2K, A^4K, ... whose squares pass
    _passes_checks; t of them carry 2^t - 1 blocks, so a longer chunk is
    carried in segments, each from the end the last one carried. The
    states inside a block are formed, by the same scan over its steps
    with A, A^2, A^4, ..., only where they are recorded or returned, or
    where the chunk's bound 2 N (max|start| + K max|u|), with
    N = max_(i<=K) ||A^i||_inf, does not keep every state inside the
    threshold; the first crossing is read from those states.
    _block_powers picks K; K = 1 is the plain recurrence.
    """
    A, h = sys.A_block, sys.h_Y
    gain = np.stack((sys.e_vec, sys.b_vec))  # u_k - h_Y = gain[x_k <= 0] x_k
    m = y.size
    if transient == 0:
        rec[0] = y
    powers = _block_powers(A, max(1, min(_Y_BLOCK_WIDTH // m, last)))
    K = len(powers)
    # a block's Z from its x values x_0..x_(K-1) alone: Z = [x+ | x-] F + c
    # with x+ and x- their positive and non-positive parts, F stacking
    # A^(K-1-j) e_vec over j and then A^(K-1-j) b_vec, and
    # c = sum_j A^j h_Y
    rev = np.concatenate((powers[-2::-1], np.eye(m)[None]))  # A^(K-1-j)
    F = np.concatenate((rev @ sys.e_vec, rev @ sys.b_vec))
    c = (rev @ h).sum(axis=0)
    norm = max(1.0, float(np.abs(powers).sum(axis=2).max()))
    gain_max, h_max = float(np.abs(gain).max()), float(np.abs(h).max())
    chunk = K * max(1, _Y_CHUNK_VALUES // (K * m))
    nb_max = -(-min(chunk, last) // K)
    # the scans' jumps: A^1, A^2, A^4, ... inside a block, and A^K,
    # A^2K, A^4K, ... from block end to block end
    within = powers[[(1 << i) - 1 for i in range(K.bit_length())]]
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
        seg = (1 << len(across)) - 1  # the blocks one scan pass carries
        while k0 <= last:
            k1 = min(k0 + chunk, last + 1)
            n = k1 - k0
            nb = -(-n // K)
            # the x values that drive the chunk, one block per row,
            # padded with zeros to whole blocks
            X = np.zeros(nb * K)
            X[:n] = xs[k0 - 1 : k1 - 1]
            W = np.empty((nb, 2, K))
            np.maximum(X.reshape(nb, K), 0.0, out=W[:, 0])
            np.minimum(X.reshape(nb, K), 0.0, out=W[:, 1])
            # P[r] is the start of block r and P[r + 1] its end
            P = np.empty((nb + 1, m))
            P[0] = y
            np.matmul(W.reshape(nb, 2 * K), F, out=P[1:])
            P[1:] += c
            for r in range(0, nb, seg):
                _scan(P[r : r + seg + 1], across)
            # whether no state of the chunk can leave the threshold; the
            # factor 2 covers rounding, and NaN or inf reads False
            u_max = np.abs(X[:n]).max() * gain_max + h_max
            bounded = 2.0 * norm * (np.abs(P[:-1]).max() + K * u_max) <= threshold
            # the first block holding a recorded state; the last chunk
            # also forms the block of Y_last
            r0 = (max(k0, transient) - k0) // K if bounded else 0
            if k1 > last:
                r0 = min(r0, nb - 1)
            if r0 < nb:
                # the drives of blocks r0.., padded with zeros, one block
                # per row; each row becomes the block's states
                k = k0 + r0 * K  # the step of blk[0]
                cnt = k1 - k
                blk = np.zeros(((nb - r0) * K, m))
                xk = xs[k - 1 : k1 - 1]
                np.take(gain, (xk <= 0.0).view(np.uint8), axis=0, out=blk[:cnt])
                blk[:cnt] *= xk[:, None]
                blk[:cnt] += h
                V = blk.reshape(nb - r0, K, m)
                V[:, 0] += P[r0:-1] @ A.T
                _scan(V[:, :-1], within)
                V[:, -1] = P[r0 + 1 :]
                if (np.abs(blk[:cnt]) > threshold).any():
                    # np.max propagates NaN exactly as the per-state
                    # check does
                    over = np.abs(blk[:cnt]).max(axis=1) > threshold
                    if over.any():
                        j = int(over.argmax())
                        raise DivergenceError(k + j, np.concatenate(
                            ([xs[k + j]], blk[j])), threshold)
                lo = max(k, transient)
                if lo < k1:
                    rec[lo - transient : k1 - transient] = blk[lo - k : cnt]
                y = blk[cnt - 1]
            else:
                y = P[nb]
            k0 = k1
    return y


def _scan(V, jumps):
    """Carry V[i] <- V[i] + A V[i-1], for i = 1, 2, ... along axis -2,
    in place by doubling: jumps[t] is A^(2^t), one for each doubling
    the axis needs."""
    for t, J in enumerate(jumps):
        s = 1 << t
        if s >= V.shape[-2]:
            break
        V[..., s:, :] += V[..., :-s, :] @ J.T


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
    # max|states[-1] - states[-1-p]| for p = 1..top rules most p out at
    # once; the full comparison below includes that row
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
    if not np.all(np.isfinite(xs)):
        raise ValueError("band_count needs finite x values")
    if xs.size < 2:
        return 1
    order = np.argsort(xs)
    with np.errstate(over="ignore"):
        gaps = np.diff(xs[order])
        spacing = gaps.mean()
    if not math.isfinite(spacing):
        # the tail is too wide to sum its gaps; a quarter of every normal
        # value is exact, and the quarters' gaps sum below the largest float
        gaps = np.diff(xs[order] / 4)
        spacing = gaps.mean()
    g = int(np.gcd.reduce(np.abs(np.diff(order))[gaps <= spacing]))
    divisors = {q for i in range(1, math.isqrt(g) + 1) if g % i == 0
                for q in (i, g // i)}
    for p in sorted(divisors - {1}, reverse=True):
        cuts = np.flatnonzero(np.diff(order % p))
        if cuts.size == p - 1 and np.all(gaps[cuts] > 0.0):
            return p
    return 1


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

    Every d value is stepped together as one array, with the same
    arithmetic as trajectory on the 1D system, so each row matches that
    trajectory bit for bit: the divergence threshold is trajectory's,
    DIVERGENCE_THRESHOLD times the run's scale max(|mu_hat|, |x0|).
    x0 defaults to mu_hat / 2.

    Returns one dict per d with keys 'd', 'xs' (recorded tail values,
    empty when diverged), 'diverged', and 'diverged_at' (application
    count, None when bounded). The bounded rows' 'xs' are row views of
    one (d_steps, steps - transient) array. Divergence is reported per
    row instead of raised so a sweep across an exploding region still
    completes.
    """
    d_steps = _require_count(d_steps, "d_steps", 1)
    # a non-finite or overflowing span is reported by the checks below
    with np.errstate(invalid="ignore", over="ignore"):
        ds = np.linspace(d_min, d_max, d_steps)
    # the checks and messages of SkewTentParams and trajectory, in their order
    SkewTentParams(a=a, d=ds[0], mu_hat=mu_hat)
    steps, transient = _run_window(steps, transient)
    x0 = float(mu_hat) / 2.0 if x0 is None else float(x0)
    if not math.isfinite(x0):
        raise ValueError("z0 must be finite")
    if not np.all(np.isfinite(ds)):
        raise ValueError("d must be finite")

    a, mu, threshold = float(a), float(mu_hat), _divergence_threshold(mu_hat, x0)
    out = np.empty((d_steps, steps - transient))
    diverged_at = np.zeros(d_steps, dtype=np.int64)
    x = np.full(d_steps, x0)
    if transient == 0:
        out[:, 0] = x
    block = np.empty((max(1, _SWEEP_BLOCK_VALUES // d_steps), d_steps))
    k0 = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k0 < steps:
            blk = block[: min(block.shape[0], steps - k0)]
            for row in blk:
                np.multiply(np.where(x <= 0.0, a, ds), x, out=row)
                row += mu
                x = row
            over = (blk > threshold) | (blk < -threshold)
            for i in np.flatnonzero(over.any(axis=0)):
                diverged_at[i] = k0 + int(over[:, i].argmax())
            lo = max(k0, transient)
            if lo < k0 + len(blk):
                out[:, lo - transient : k0 + len(blk) - transient] = blk[lo - k0 :].T
            # a diverged row is parked at NaN: it stays NaN and never
            # compares above the threshold again
            x = np.where(diverged_at > 0, np.nan, x)
            k0 += len(blk)
    return [
        {
            "d": float(d),
            "xs": np.empty(0) if at else out[i],
            "diverged": bool(at),
            "diverged_at": int(at) if at else None,
        }
        for i, (d, at) in enumerate(zip(ds, diverged_at))
    ]
