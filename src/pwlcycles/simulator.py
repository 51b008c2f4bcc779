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
    _require_count,
    _require_int,
    _require_tol,
    _sign_word,
    iterate_1d,
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
# (steps times m) of the Y recurrence, or once per block of
# _SWEEP_BLOCK_VALUES values (steps times d values) of the d sweep.
_Y_CHUNK_VALUES = 1 << 14
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
    """

    states: np.ndarray
    transient: int

    @property
    def x_values(self) -> np.ndarray:
        return self.states[:, 0]


@dataclass(frozen=True)
class DetectedCycle:
    """A numerically detected periodic attractor.

    points has shape (period, m + 1).
    """

    period: int
    points: np.ndarray
    tol_used: float


def trajectory(
    sys: CanonicalSystem,
    steps: int = DEFAULT_STEPS,
    transient: int = DEFAULT_TRANSIENT,
    z0=None,
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
) -> Orbit:
    """Iterate the canonical map and record states transient..steps-1.

    z0 defaults to (mu_hat / 2, 0, ..., 0), which sits inside the
    absorbing interval whenever an attractor exists. The map is
    triangular: x runs on its own as a scalar loop, then Y follows as
    the linear recurrence Y' = A_block Y + u_k with inputs
    u_k = (b_vec or e_vec) x_k + h_Y, evaluated a block of steps per
    matrix product; m = 0 simply has no Y. Raises
    DivergenceError (carrying the application count and the offending
    state) at the first step where any coordinate exceeds
    divergence_threshold, which must be a finite positive number.
    """
    steps = _require_count(steps, "steps", 1)
    transient = _require_int(transient, "transient")
    if not 0 <= transient < steps:
        raise ValueError("need 0 <= transient < steps")
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
    _require_tol(divergence_threshold, "divergence_threshold")

    out = np.empty((steps - transient, m + 1))
    xs = np.empty(steps)  # Y is driven by every x from step 0
    hit = _x_orbit(sys, float(z0[0]), xs, divergence_threshold)
    y = z0[1:]
    if m > 0:
        last = steps - 1 if hit is None else hit[0]
        y = _y_orbit(sys, xs, y, last, transient, out[:, 1:],
                     divergence_threshold)
    if hit is not None:
        raise DivergenceError(hit[0], np.concatenate(([hit[1]], y)))
    out[:, 0] = xs[transient:]
    return Orbit(states=out, transient=transient)


def _x_orbit(sys, x, rec, threshold):
    """Run the skew tent map from x for len(rec) - 1 applications.

    Writes x_k to rec[k]. Returns (k, x_k) for the first k with
    |x_k| > threshold, or None when the orbit stays bounded.
    """
    a, d, mu = sys.a, sys.d, sys.mu_hat
    # `x > threshold or x < lo` is abs(x) > threshold, NaN included, and
    # memoryview item assignment costs about half of ndarray's
    lo = -threshold
    rec = memoryview(rec)
    rec[0] = x
    for k in range(1, len(rec)):
        x = a * x + mu if x <= 0.0 else d * x + mu
        rec[k] = x
        if x > threshold or x < lo:
            return k, x
    return None


def _y_orbit(sys, xs, y, last, transient, rec, threshold):
    """Run Y_k = A_block Y_(k-1) + u_(k-1) for k = 1..last from Y_0 = y.

    xs holds x_0..x_last. Writes Y_k for k >= transient to
    rec[k - transient] and returns Y_last. Raises DivergenceError at the
    first k whose Y_k leaves the threshold; x_k is inside it for k < last.

    The steps run in blocks of K, a blocked evaluation of the linear
    recurrence (Blelloch, "Prefix sums and their applications", 1990).
    A block that starts at y with drives u_0..u_(K-1) reaches
    Y_(i+1) = A^(i+1) y + Z_i, where Z_i = sum_(j<=i) A^(i-j) u_j is its
    zero-start solution. Per chunk of steps, one matrix product gives
    every block's Z, a loop carries only the block ends
    y <- A^K y + Z_(K-1), and one more product adds A^(i+1) y to the
    other rows. _block_powers picks K; K = 1 is the plain recurrence.
    """
    A, b, e, h = sys.A_block, sys.b_vec, sys.e_vec, sys.h_Y
    m = y.size
    if transient == 0:
        rec[0] = y
    powers = _block_powers(A, max(1, min(_Y_BLOCK_WIDTH // m, last)))
    K = len(powers)
    w = (K - 1) * m
    # G_T = [A^1 ... A^(K-1)]^T takes a block's start to its first K-1
    # states; T_T, block upper triangular with block (j, i) equal to
    # A^(i-j+1)^T for j <= i, takes u_0..u_(K-2) to Z_1..Z_(K-1) - u
    G_T = powers[:-1].transpose(2, 0, 1).reshape(m, w)
    T_T = np.zeros((w, w))
    for j in range(K - 1):
        T_T[j * m : (j + 1) * m, j * m :] = G_T[:, : w - j * m]
    A_K = powers[-1]
    chunk = K * max(1, _Y_CHUNK_VALUES // (K * m))
    buf = np.empty((min(chunk, -(-last // K) * K), m))
    k0 = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k0 <= last:
            k1 = min(k0 + chunk, last + 1)
            n = k1 - k0
            nb = -(-n // K)
            # the chunk's drives, padded to whole blocks with zeros (a
            # stale NaN times a zero of T_T would reach the real rows);
            # each row of U holds one block and becomes its states
            blk = buf[: nb * K]
            xk = xs[k0 - 1 : k1 - 1, None]
            np.multiply(np.where(xk <= 0.0, b, e), xk, out=blk[:n])
            blk[:n] += h
            blk[n:] = 0.0
            U = blk.reshape(nb, K * m)
            U[:, m:] += U[:, :w] @ T_T
            U[0, :w] += y @ G_T
            ends = U[:, w:]
            for row in ends:
                row += np.dot(A_K, y)
                y = row
            # the end of each block is the start of the next
            U[1:, :w] += ends[:-1] @ G_T
            # np.max propagates NaN exactly as the per-state check does
            over = np.abs(blk[:n]).max(axis=1) > threshold
            if over.any():
                j = int(over.argmax())
                raise DivergenceError(
                    k0 + j, np.concatenate(([xs[k0 + j]], blk[j]))
                )
            lo = max(k0, transient)
            if lo < k1:
                rec[lo - transient : k1 - transient] = blk[lo - k0 : n]
            y = blk[n - 1].copy()  # the next chunk overwrites buf
            k0 = k1
    return y


def _block_powers(A, cap):
    """A^1..A^K as a (K, m, m) array, for the largest K <= cap whose
    powers pass two checks.

    Every entry of each A^i is at most _POWER_LIMIT in magnitude, so a
    power never turns a zero state or drive into inf * 0 = NaN. Each
    product A^i = A^(i-1) A cancels by at most _POWER_CANCELLATION,
    max(|A^(i-1)| |A|) <= _POWER_CANCELLATION * max|A^i|, so its rounding
    error stays near that of the single steps it replaces; a matrix far
    from normal gets a short block.
    """
    powers = np.empty((cap,) + A.shape)
    powers[0] = A
    # powers past an overflow are inf or NaN and fail the checks below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, cap):
            np.matmul(powers[i - 1], A, out=powers[i])
        top = np.abs(powers).max(axis=(1, 2))
        bound = (np.abs(powers[:-1]) @ np.abs(A)).max(axis=(1, 2))
        ok = (top[1:] <= _POWER_LIMIT) & (bound <= _POWER_CANCELLATION * top[1:])
    return powers[: 1 + int(np.argmin(np.append(ok, False)))]


def detect_cycle(
    orbit: Orbit,
    max_period: int = DEFAULT_MAX_PERIOD,
    tol: float = DEFAULT_CYCLE_TOL,
) -> DetectedCycle | None:
    """Detect a periodic attractor in the orbit tail, or return None.

    Compares the last p states against the p before them for
    p = 1..max_period and reports the smallest p that matches within
    tol. Chaotic orbits and periods above max_period yield None.
    """
    max_period = _require_count(max_period, "max_period", 1)
    _require_tol(tol)
    states = orbit.states
    top = min(max_period, states.shape[0] // 2)
    # max|states[-1] - states[-1-p]| for p = 1..top rules most p out at
    # once; the full comparison below includes that row
    with np.errstate(invalid="ignore"):
        last = np.abs(states[-1 - top : -1][::-1] - states[-1:]).max(axis=1)
    for p in (np.flatnonzero(last <= tol) + 1).tolist():
        if np.max(np.abs(states[-p:] - states[-2 * p : -p])) <= tol:
            return DetectedCycle(period=p, points=states[-p:].copy(), tol_used=tol)
    return None


def itinerary(orbit: Orbit, zero_tol: float = 1e-9) -> str:
    """Symbol string of the recorded x-values: R (x > zero_tol),
    L (x < -zero_tol), else 0."""
    _require_tol(zero_tol, "zero_tol")
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
    analytic count from the kink's orbit (ROADMAP item 3) needs no tail.
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
    (2 * steps + 1, 2).
    """
    steps = _require_count(steps, "steps", 1)
    x = float(x0)
    if not math.isfinite(x):
        raise ValueError("z0 must be finite")
    pts = np.empty((2 * steps + 1, 2))
    pts[0] = (x, 0.0)
    for k in range(steps):
        fx = iterate_1d(p, x)
        pts[2 * k + 1] = (x, fx)
        pts[2 * k + 2] = (fx, fx)
        x = fx
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
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
) -> list:
    """Sweep d over an inclusive grid and record the x attractor per value.

    Every d value is stepped together as one array, with the same
    arithmetic as trajectory on the 1D system, so each row matches that
    trajectory bit for bit. x0 defaults to mu_hat / 2.

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
    steps = _require_count(steps, "steps", 1)
    transient = _require_int(transient, "transient")
    if not 0 <= transient < steps:
        raise ValueError("need 0 <= transient < steps")
    x0 = float(mu_hat) / 2.0 if x0 is None else float(x0)
    if not math.isfinite(x0):
        raise ValueError("z0 must be finite")
    if not np.all(np.isfinite(ds)):
        raise ValueError("d must be finite")
    _require_tol(divergence_threshold, "divergence_threshold")

    a, mu = float(a), float(mu_hat)
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
            over = (blk > divergence_threshold) | (blk < -divergence_threshold)
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
