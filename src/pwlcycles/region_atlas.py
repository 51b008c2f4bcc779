"""Parameter-plane atlas: grid classification, curve sampling, nesting checks.

The region inequalities and the verdict precedence live in skew_tent's
region kernel, which classify runs on one point and this module runs on
the grid's two axes, broadcast against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .skew_tent import (
    DEFAULT_CURVE_TOL,
    _CODE_OF_FLAGS,
    _VERDICTS,
    _bands,
    _flag_rule,
    _flags,
    _line,
    _margins,
    _require_count,
    _require_int,
    _require_mu_sign,
    _require_region_n,
    _require_tol,
    existence_bound,
)

__all__ = [
    "GridSpec",
    "RegionGrid",
    "scan",
    "curve_samples",
    "nesting_report",
]

# |fl(margin)| above this multiple of the sum of its absolute terms fixes
# the sign of the kernel's band margins (see scan)
_BAND_FILTER = 2.0**-48


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered rectangular grid over the (a, d) plane.

    Cell centers are a_min + (i + 0.5) * (a_max - a_min) / a_steps, so a
    single-cell grid samples the rectangle midpoint. n_list holds the
    cycle lengths to classify; mu_sign orients the offset sign.
    """

    a_min: float
    a_max: float
    a_steps: int
    d_min: float
    d_max: float
    d_steps: int
    n_list: tuple = (3,)
    mu_sign: str = "+"

    def __post_init__(self):
        for name in ("a_steps", "d_steps"):
            object.__setattr__(self, name, _require_int(getattr(self, name), name))
        if self.a_steps < 1 or self.d_steps < 1:
            raise ValueError("a_steps and d_steps must be >= 1")
        # an infinite bound, or a span near the float range, gives inf or
        # NaN cell centres
        with np.errstate(over="ignore", invalid="ignore"):
            centers = np.concatenate([self.a_centers(), self.d_centers()])
        if not np.isfinite(centers).all():
            raise ValueError("grid bounds and cell centres must be finite")
        if not (self.a_min <= self.a_max and self.d_min <= self.d_max):
            raise ValueError("grid bounds must be ordered")
        _require_mu_sign(self.mu_sign)
        if not self.n_list:
            raise ValueError("n_list must be non-empty")
        n_list = tuple(_require_region_n(n) for n in self.n_list)
        if len(set(n_list)) < len(n_list):
            raise ValueError(f"n_list must not repeat a cycle length, got {n_list}")
        object.__setattr__(self, "n_list", n_list)

    def a_centers(self) -> np.ndarray:
        i = np.arange(self.a_steps)
        return self.a_min + (i + 0.5) * (self.a_max - self.a_min) / self.a_steps

    def d_centers(self) -> np.ndarray:
        j = np.arange(self.d_steps)
        return self.d_min + (j + 0.5) * (self.d_max - self.d_min) / self.d_steps


@dataclass(frozen=True)
class RegionGrid:
    """Classification verdicts per grid cell and cycle length.

    codes[n][i, j] is the uint8 code of the verdict at (a_values[i],
    d_values[j]): its index in VERDICTS, the verdict names in rising
    precedence. cells[n][i, j] is that verdict's name, a str; cells is
    named from codes on its first read and kept.
    """

    VERDICTS: ClassVar[tuple] = tuple(v.value for v in _VERDICTS)

    spec: GridSpec
    a_values: np.ndarray
    d_values: np.ndarray
    codes: dict = field(default_factory=dict)

    @cached_property
    def cells(self) -> dict:
        names = np.array(self.VERDICTS, dtype=object)
        return {n: names[codes] for n, codes in self.codes.items()}


def _oriented_axes(spec: GridSpec):
    """The kernel's (a, d) operands: a column of a values and a row of d
    values, swapped for mu_sign '-'. They broadcast to the
    (a_steps, d_steps) mesh, so work that depends on one axis alone is
    done once per axis value, not once per cell.
    """
    a = spec.a_centers()[:, None]
    d = spec.d_centers()[None, :]
    if spec.mu_sign == "-":
        return d, a
    return a, d


def _existence_counts(slopes, bound, other):
    """The existence cells of each line of constant slope, counted.

    A cell exists where the slope is positive and fl(bound - x) > 0 for
    its other coordinate x. That holds exactly when bound > x: x is a
    finite centre, so for a finite bound the rounded difference is zero
    only when bound == x and otherwise keeps its sign, and bound = +-inf
    keeps the test exact. The centres never decrease, so each line's
    existence cells are a prefix of the other axis, counted by one
    searchsorted; a slope <= 0 or a NaN bound counts none.
    """
    return np.where((slopes > 0) & ~np.isnan(bound), np.searchsorted(other, bound), 0)


def _first(test, guess, size):
    """The first cell of each line at which test(lines, cells) holds, or
    size where it never does, for a test that fails and then holds
    along every line, from a guessed cell in [0, size] per line.

    A guessed cell is kept where the test holds on it and fails on the
    cell before; the other lines are bisected on the side those two
    cells point to, so a poor guess costs time, never a wrong cell.
    """
    k = guess
    holds = (k == size) | test(slice(None), np.minimum(k, size - 1))
    before = (k > 0) & test(slice(None), np.maximum(k - 1, 0))
    low = np.where(holds, np.where(before, 0, k), k + 1)
    high = np.where(holds, np.where(before, k - 1, k), size)
    while (open_ := np.flatnonzero(low < high)).size:
        mid = (low[open_] + high[open_]) // 2
        at = test(open_, mid)
        high[open_] = np.where(at, mid, high[open_])
        low[open_] = np.where(at, low[open_], mid + 1)
    return low


def _window(margin, guess, end):
    """The cells [low, high) of each line, around the guessed cell, that
    the filter leaves uncertain, for a margin that rises along the cells
    below end: certainly negative on [0, low), positive on [high, end).

    From the guess the search walks down to a cell certified negative
    and up to one certified positive, in steps that double, and stops
    at -1 or end where there is none; margin(lines, cells) gives the
    value and the rounded sum of its absolute terms.
    """
    k = np.minimum(guess, end)
    count = k.size
    cell = np.concatenate([k - 1, k])
    stop = np.concatenate([np.full_like(k, -1), end])
    side = np.repeat([-1, 1], count)
    lines = np.flatnonzero(cell != stop)
    step = 1
    while lines.size:
        value, scale = margin(lines % count, cell[lines])
        lines = lines[~(side[lines] * value > _BAND_FILTER * scale)]
        left = side[lines] * (stop[lines] - cell[lines]) - step
        cell[lines] = stop[lines] - side[lines] * np.maximum(left, 0)
        lines = lines[cell[lines] != stop[lines]]
        step *= 2
    return cell[:count] + 1, cell[count:]


def _cells(starts, ends):
    """(line, cell) of every cell in [starts, ends) of each line."""
    counts = ends - starts
    lines = np.repeat(np.arange(counts.size), counts)
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return lines, np.arange(lines.size) + offsets


def _runs(slopes, d, n_list, tol):
    """The verdict runs of every line, for the ascending kernel offsets d.

    A line is one n of n_list and one kernel slope a, n outermost; along
    it each region boundary is a breakpoint, found from an approximate
    threshold and fixed by evaluating the kernel's own expression on the
    cells around it. The line constants (bound, r = 1 / (a - bound),
    P = a^(n-1), PP = fl(P P)) and band polynomials are the kernel's own
    _line and _bands, so every expression below has the kernel's bits.
    Each of the kernel's seven sign tests is a prefix, a suffix or a run
    of cells, and its breakpoint tests go through the kernel's
    _flag_rule.

    - Existence is the prefix d < bound (_existence_counts).
    - Stability and the flip are a suffix and a prefix of fl(P d), and
      the curve is one run of fl(fl(bound - d) r): P > 0 and r > 0, so
      each rounded value is monotone in d, because rounding is monotone.
      _first finds each end exactly on any grid, one ulp apart or with
      equal centres.
    - The bands matter only where the cycle exists and is not stable,
      the prefix of cells below min(existence end, stability start).
      There d < bound <= -1 (the rounded S_(n-1) is at least a^(n-2))
      and fl(P d) <= -1, so P |d| >= 1 - 2^-54, the exact cubic
      c(d) = PP d^3 + a - d rises with d (c' = 3 PP d^2 - 1 > 0, as
      PP >= 2 P^2 / 3 even where PP is subnormal) and the exact
      quadratic q(d) = P d^2 + d - a falls (q' = 2 P d + 1 < 0). With
      |d| > 1 and P d^2 >= |d|, no product underflows, so the kernel's
      float cubic is within B = gamma_5 (PP |d|^3 + a + |d|) of c
      (gamma_k = k u / (1 - k u), u = 2^-53; Higham, Accuracy and
      Stability, section 3.1) unless it overflows, and c + B and c - B
      rise too, with slopes 3 PP d^2 (1 -+ gamma_5) - (1 +- gamma_5).
      _BAND_FILTER times the rounded sum of the absolute terms is at
      least 2 B, so a cell whose |fl(c)| exceeds it has c + B < 0 (or
      c - B > 0), and every cell below it (above it) has fl(c) < 0
      (fl(c) > 0). An overflow, which only the larger |d| below a cell
      can bring, gives the cubic -inf, the sign claimed. The quadratic
      is the same with gamma_4, the sides swapped and +inf. From the
      roots' approximate cells, _window walks out to the nearest
      certified cells, and only the cells between them, usually none,
      are left uncertain, so fl(c) may change sign more than once there.
    - The kernel sets no flag at a <= 0, so a line of slope a <= 0,
      every breakpoint at 0, is one OutsideRegion run.
    - Lines of a > 0 and PP zero or not finite are left to the kernel.
      Where a > 0 and PP is finite and positive, so is P, bound <= -1 is
      finite, and 0 < r < 1.

    Returns the region flags and the length of each line's runs, each
    of shape (9, lines), the flags read at each run's first cell; the
    uncertain cells as (line, cell) arrays; and the mask of the lines
    left to the kernel, one row per n.
    """
    size = d.size
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound, r, p, pp = (
            np.concatenate(v) for v in zip(*(_line(slopes, n) for n in n_list))
        )
        a = np.tile(slopes, len(n_list))
        kernel = (a > 0) & ~((pp > 0) & np.isfinite(pp))
        fast = np.flatnonzero((a > 0) & ~kernel)
        A, B, P, PP, R = (v[fast] for v in (a, bound, p, pp, r))
        E = _existence_counts(A, B, d)
        count = fast.size

        # F, S, C0, C1: the first cells with fl(P d) >= -1 and > -1, and
        # with -kink = fl(fl(d - bound) r) >= -tol and > tol, read as
        # >= the next float up; each is fl((d - Z) W) >= T
        Z = np.concatenate([np.zeros(2 * count), B, B])
        W = np.concatenate([P, P, R, R])
        T = np.repeat(
            [-1.0, np.nextafter(-1.0, 0.0), -tol, np.nextafter(tol, np.inf)], count
        )
        F, S, C0, C1 = _first(
            lambda i, j: (d[j] - Z[i]) * W[i] >= T[i],
            np.searchsorted(d, Z + T / W),
            size,
        ).reshape(4, count)

        def rising(i, j):
            # the cubic of each fast line, then its quadratic negated, and
            # the rounded sums of their absolute terms on d < 0
            line = i % count
            slope, x = A[line], d[j]
            cubic, quad, t, w = _bands(slope, P[line], PP[line], x)
            is_cubic = i < count
            return (
                np.where(is_cubic, cubic, -quad),
                np.where(is_cubic, (slope - t) - x, (w - x) + slope),
            )

        # the roots in |d|: P |d| = y solves y^3 - y - a P = 0 (PP = P^2
        # to rounding), whose largest root Viete's trigonometric form
        # gives for z = a P sqrt(27) / 2 <= 1 and its hyperbolic form
        # above; the quadratic's from its formula
        z = A * P * (27.0**0.5 / 2.0)
        y = np.where(
            z <= 1.0,
            np.cos(np.arccos(np.minimum(z, 1.0)) / 3.0),
            np.cosh(np.arccosh(np.maximum(z, 1.0)) / 3.0),
        )
        roots = np.concatenate([y * (2.0 / 3.0**0.5), 0.5 + np.sqrt(0.25 + P * A)])
        roots /= np.tile(P, 2)
        U = np.minimum(E, S)
        low, high = _window(rising, np.searchsorted(d, -roots), np.tile(U, 2))
        # cubic < 0 below K0 and > 0 from K1; quad < 0 from Q1
        K0, Q0 = low.reshape(2, count)
        K1, Q1 = high.reshape(2, count)

        breaks = np.zeros((8, a.size), np.intp)
        breaks[:, fast] = E, S, F, C0, C1, K0, K1, Q1
        e, s, f, c0, c1, k0, k1, q1 = breaks
        ends = np.sort(breaks, axis=0)
        starts = np.vstack([np.zeros_like(ends[:1]), ends])
        ends = np.vstack([ends, np.full_like(ends[:1], size)])
        j = starts
        flags = _flag_rule(
            j < e, j < f, j >= s, j >= k1, j < k0, j >= q1, (c0 <= j) & (j < c1))
    line, j = _cells(low, high)
    uncertain = fast[line % count], j
    return flags, ends - starts, uncertain, kernel.reshape(len(n_list), -1)


def scan(spec: GridSpec, tol: float = DEFAULT_CURVE_TOL) -> RegionGrid:
    """Classify every grid cell for every n in spec.n_list.

    Every verdict is, bit for bit, the one skew_tent's region kernel
    gives at that cell, and so the one classify gives at that point, but
    most cells are never evaluated: along each line of one n and one
    kernel slope (a grid row for mu_sign '+', a column for '-') the
    verdict changes only at a few breakpoints (_runs). One np.repeat of
    the run codes gives the codes of each n's cells; a line of slope
    a <= 0 is one OutsideRegion run. A cell no run certifies gets
    classify's own expression: the few uncertain cells, gathered, and
    the lines whose a^(2(n-1)) rounds to zero or overflows, on their
    (line, d) mesh. No cell is named here: the grid names its cells
    when they are first read.
    """
    _require_tol(tol)
    slopes, d = (axis.ravel() for axis in _oriented_axes(spec))
    flags, lengths, (line, j), kernel = _runs(slopes, d, spec.n_list, tol)
    # one array per n, of one line per slope
    runs = zip(
        _CODE_OF_FLAGS[flags.T].reshape(len(spec.n_list), -1),
        lengths.T.reshape(len(spec.n_list), -1),
    )
    codes = [np.repeat(*run).reshape(slopes.size, d.size) for run in runs]
    n_index, row = np.divmod(line, slopes.size)
    # an n with no uncertain cell and no kernel line evaluates nothing
    todo = np.bincount(n_index, minlength=len(codes)) + kernel.sum(axis=1)
    for k in np.flatnonzero(todo).tolist():
        n, at, rows = spec.n_list[k], n_index == k, kernel[k]
        for where, a, x in (
            ((row[at], j[at]), slopes[row[at]], d[j[at]]),
            (rows, slopes[rows, None], d),
        ):
            if a.size:
                codes[k][where] = _CODE_OF_FLAGS[_flags(a, _margins(a, x, n), tol)]
    a_values, d_values = (slopes, d) if spec.mu_sign == "+" else (d, slopes)
    codes = {n: c if spec.mu_sign == "+" else c.T for n, c in zip(spec.n_list, codes)}
    return RegionGrid(spec=spec, a_values=a_values, d_values=d_values, codes=codes)


def curve_samples(
    n: int, a_min: float, a_max: float, samples: int, mu_sign: str = "+"
) -> np.ndarray:
    """Points on the border-collision curve, shape (samples, 2).

    For mu_sign '+' the rows are (a, bound(a)) with a on an inclusive
    linspace; for '-' the mirrored curve (bound(t), t) is returned, so
    the rows are always (a, d) coordinates of the queried plane.
    """
    samples = _require_count(samples, "samples", 2)
    if a_min <= 0 or a_max <= 0:
        raise ValueError("curve parameterization requires positive slope range")
    # NaN passes the test above, and an infinite bound gives inf and NaN rows
    if not (math.isfinite(a_min) and math.isfinite(a_max)):
        raise ValueError("slope bounds must be finite")
    _require_mu_sign(mu_sign)
    t = np.linspace(a_min, a_max, samples)
    bound = existence_bound(t, n)
    return np.column_stack([t, bound] if mu_sign == "+" else [bound, t])


def nesting_report(spec: GridSpec) -> dict:
    """Check that existence regions nest for consecutive cycle lengths.

    For sorted n_list, every cell inside the existence region for a
    larger n must also lie inside it for the next smaller n. Returns
    {'pairs': [(n_small, n_large), ...], 'cells_checked': int,
    'violations': [...]}; each violation records the cell center and the
    offending pair, in row-major (a, d) order. An empty violations list
    certifies the nesting on this grid.

    No grid of cells is formed. Along each line of the kernel's slope
    axis (a for mu_sign '+', d for '-') the existence cells are a prefix
    of the other axis, counted exactly by _existence_counts as scan
    counts them; a violation is a cell between the counts of a pair.
    """
    ns = sorted(spec.n_list)
    slopes, other = (axis.ravel() for axis in _oriented_axes(spec))
    a_values, d_values = (slopes, other) if spec.mu_sign == "+" else (other, slopes)
    bounds = np.array([existence_bound(slopes, n) for n in ns])
    counts = dict(zip(ns, _existence_counts(slopes, bounds, other)))
    pairs = list(zip(ns[:-1], ns[1:]))
    violations = []
    for n_small, n_large in pairs:
        lo, hi = counts[n_small], counts[n_large]
        # (slope index, other index) of each cell in the larger region only
        cells = [
            (k, l)
            for k in np.flatnonzero(hi > lo).tolist()
            for l in range(int(lo[k]), int(hi[k]))
        ]
        if spec.mu_sign == "-":
            cells = sorted((l, k) for k, l in cells)
        violations.extend(
            {
                "a": float(a_values[i]),
                "d": float(d_values[j]),
                "n_outer": n_small,
                "n_inner": n_large,
            }
            for i, j in cells
        )
    return {
        "pairs": pairs,
        "cells_checked": spec.a_steps * spec.d_steps * len(pairs),
        "violations": violations,
    }
