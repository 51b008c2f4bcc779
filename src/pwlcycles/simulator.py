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
from .skew_tent import SkewTentParams, iterate_1d

__all__ = [
    "DEFAULT_STEPS",
    "DEFAULT_TRANSIENT",
    "DIVERGENCE_THRESHOLD",
    "DEFAULT_MAX_PERIOD",
    "DEFAULT_CYCLE_TOL",
    "DEFAULT_GAP_FACTOR",
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
DEFAULT_GAP_FACTOR = 10.0

# Divergence is checked once per block: _Y_BLOCK steps of the Y recurrence,
# or _SWEEP_BLOCK_VALUES values (steps times d values) of the d sweep.
_Y_BLOCK = 256
_SWEEP_BLOCK_VALUES = 1 << 15


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

    points has shape (period, m + 1); method is 'convergence'.
    """

    period: int
    points: np.ndarray
    tol_used: float
    method: str


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
    u_k = (b_vec or e_vec) x_k + h_Y; m = 0 simply has no Y. Raises
    DivergenceError (carrying the application count and the offending
    state) at the first step where any coordinate exceeds
    divergence_threshold.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
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

    out = np.empty((steps - transient, m + 1))
    # Y is driven by every x from step 0; without Y only the tail is kept
    if m == 0:
        xs, start = out[:, 0], transient
    else:
        xs, start = np.empty(steps), 0
    hit = _x_orbit(sys, float(z0[0]), steps, start, xs, divergence_threshold)
    y = z0[1:]
    if m > 0:
        last = steps - 1 if hit is None else hit[0]
        y = _y_orbit(sys, xs, y, last, transient, out[:, 1:],
                     divergence_threshold)
        out[:, 0] = xs[transient:]
    if hit is not None:
        raise DivergenceError(hit[0], np.concatenate(([hit[1]], y)))
    return Orbit(states=out, transient=transient)


def _x_orbit(sys, x, steps, start, rec, threshold):
    """Run the skew tent map from x for steps - 1 applications.

    Writes x_k for k >= start to rec[k - start]. Returns (k, x_k) for the
    first k with |x_k| > threshold, or None when the orbit stays bounded.
    """
    a, d, mu = sys.a, sys.d, sys.mu_hat
    # `x > threshold or x < lo` is abs(x) > threshold, NaN included, and
    # memoryview item assignment costs about half of ndarray's
    lo = -threshold
    for k in range(1, start):
        x = a * x + mu if x <= 0.0 else d * x + mu
        if x > threshold or x < lo:
            return k, x
    rec = memoryview(rec)
    if start == 0:
        rec[0] = x
    for i in range(max(start, 1) - start, steps - start):
        x = a * x + mu if x <= 0.0 else d * x + mu
        rec[i] = x
        if x > threshold or x < lo:
            return i + start, x
    return None


def _y_orbit(sys, xs, y, last, transient, rec, threshold):
    """Run Y_k = A_block Y_(k-1) + u_(k-1) for k = 1..last from Y_0 = y.

    xs holds x_0..x_last. Writes Y_k for k >= transient to
    rec[k - transient] and returns Y_last. Raises DivergenceError at the
    first k whose Y_k leaves the threshold; x_k is inside it for k < last.
    """
    A, b, e, h = sys.A_block, sys.b_vec, sys.e_vec, sys.h_Y
    if transient == 0:
        rec[0] = y
    scratch = np.empty((min(_Y_BLOCK, transient), y.size))
    k0 = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k0 <= last:
            if k0 < transient:
                k1 = min(k0 + _Y_BLOCK, transient, last + 1)
                blk = scratch[: k1 - k0]
            else:
                k1 = min(k0 + _Y_BLOCK, last + 1)
                blk = rec[k0 - transient : k1 - transient]
            xk = xs[k0 - 1 : k1 - 1, None]
            np.multiply(np.where(xk <= 0.0, b, e), xk, out=blk)
            blk += h
            for row in blk:
                row += np.dot(A, y)
                y = row
            # np.max propagates NaN exactly as the per-state check does
            over = np.abs(blk).max(axis=1) > threshold
            if over.any():
                j = int(over.argmax())
                raise DivergenceError(
                    k0 + j, np.concatenate(([xs[k0 + j]], blk[j]))
                )
            y = y.copy()  # the next block may overwrite the scratch row
            k0 = k1
    return y


def detect_cycle(
    orbit: Orbit,
    max_period: int = DEFAULT_MAX_PERIOD,
    tol: float = DEFAULT_CYCLE_TOL,
    method: str = "convergence",
) -> DetectedCycle | None:
    """Detect a periodic attractor in the orbit tail, or return None.

    Compares the last p states against the p before them for
    p = 1..max_period and reports the smallest p that matches within
    tol. Chaotic orbits and periods above max_period yield None. method
    must be 'convergence', the only detector.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if method != "convergence":
        raise ValueError(f"method must be 'convergence', got {method!r}")
    states = orbit.states
    for p in range(1, max_period + 1):
        if 2 * p > states.shape[0]:
            break
        if np.max(np.abs(states[-p:] - states[-2 * p : -p])) <= tol:
            return DetectedCycle(
                period=p, points=states[-p:].copy(), tol_used=tol,
                method="convergence",
            )
    return None


def itinerary(orbit: Orbit, zero_tol: float = 1e-9) -> str:
    """Symbol string of the recorded x-values: R (x > 0), L (x < 0), 0."""
    letters = np.where(
        orbit.x_values > zero_tol, "R", np.where(orbit.x_values < -zero_tol, "L", "0")
    )
    return "".join(letters)


def band_count(orbit: Orbit, gap_factor: float = DEFAULT_GAP_FACTOR) -> int:
    """Number of attractor bands covered by the recorded x-values.

    Sorts the x-values and looks at the largest inter-point gaps. A gap
    qualifies as a candidate band boundary when it exceeds gap_factor
    times the median gap; walking the candidates from largest down, the
    boundary set ends at the first gap_factor-fold drop between
    consecutive gap sizes (the frontier is compared against the largest
    non-candidate gap). Without such a drop the gap spectrum is smooth,
    which is how a single chaotic band looks, so the count is 1.
    """
    if gap_factor <= 1:
        raise ValueError("gap_factor must be > 1")
    xs = np.sort(orbit.x_values)
    gaps = np.diff(xs)
    if gaps.size == 0:
        return 1
    cutoff = gap_factor * float(np.median(gaps))
    cand_mask = gaps > cutoff
    if not cand_mask.any():
        return 1
    cand = np.sort(gaps[cand_mask])[::-1]
    noncand = gaps[~cand_mask]
    frontier = float(noncand.max()) if noncand.size else 0.0
    series = np.append(cand, frontier)
    for i in range(series.size - 1):
        nxt = series[i + 1]
        if nxt <= 0.0 or series[i] / nxt > gap_factor:
            return i + 2
    return 1


def cobweb_data(p: SkewTentParams, x0: float, steps: int) -> np.ndarray:
    """Vertex list of a cobweb plot path for the 1D map.

    Starts at (x0, 0); each step appends the vertical segment endpoint
    (x, f(x)) and the diagonal endpoint (f(x), f(x)). Shape is
    (2 * steps + 1, 2).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    pts = np.empty((2 * steps + 1, 2))
    pts[0] = (x0, 0.0)
    x = float(x0)
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
    if d_steps < 1:
        raise ValueError("d_steps must be >= 1")
    # a non-finite or overflowing span is reported by the checks below
    with np.errstate(invalid="ignore", over="ignore"):
        ds = np.linspace(d_min, d_max, d_steps)
    # the checks and messages of SkewTentParams and trajectory, in their order
    SkewTentParams(a=a, d=ds[0], mu_hat=mu_hat)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 <= transient < steps:
        raise ValueError("need 0 <= transient < steps")
    x0 = float(mu_hat) / 2.0 if x0 is None else float(x0)
    if not math.isfinite(x0):
        raise ValueError("z0 must be finite")
    if not np.all(np.isfinite(ds)):
        raise ValueError("d must be finite")

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
