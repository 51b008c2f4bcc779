"""Parameter-plane atlas: grid classification, curve sampling, nesting checks.

The region inequalities and the verdict precedence live in skew_tent's
region kernel, which classify runs on one point and this module runs on
the grid's two axes, broadcast against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .skew_tent import (
    DEFAULT_CURVE_TOL,
    _VERDICT_OF_FLAGS,
    _bound,
    _flags,
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

_VERDICT_NAMES = np.array([v.value for v in _VERDICT_OF_FLAGS], dtype=object)
# scan runs the region kernel on tiles of whole a rows of about this many
# cells, so one tile's margins stay in cache while its flags are read
_TILE_CELLS = 1 << 15


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

    cells[n][i, j] is the verdict string at (a_values[i], d_values[j]).
    """

    spec: GridSpec
    a_values: np.ndarray
    d_values: np.ndarray
    cells: dict = field(default_factory=dict)


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


def scan(spec: GridSpec, tol: float = DEFAULT_CURVE_TOL) -> RegionGrid:
    """Classify every grid cell for every n in spec.n_list.

    Runs skew_tent's region kernel on the grid's axes, which broadcast to
    the mesh, one tile of whole a rows (about _TILE_CELLS cells) at a
    time: the operand that carries the a axis is sliced, the kernel's a
    for mu_sign '+' and its d for '-', so a tile's margins stay in cache
    and only the uint8 flags of the whole grid are kept, one array per
    n that _VERDICT_NAMES names once. Every elementwise operation sees
    the same operands in the same order as on a single point, so every
    cell gets the margins, bit for bit, and the verdict classify gives
    at that point.
    """
    _require_tol(tol)
    a, d = _oriented_axes(spec)
    step = max(1, _TILE_CELLS // spec.d_steps)
    tiles = [
        (rows, a[rows], d) if spec.mu_sign == "+" else (rows, a, d[rows])
        for rows in (slice(s, s + step) for s in range(0, spec.a_steps, step))
    ]
    cells = {}
    for n in spec.n_list:
        flags = np.empty((spec.a_steps, spec.d_steps), np.uint8)
        for rows, tile_a, tile_d in tiles:
            flags[rows] = _flags(tile_a, _margins(tile_a, tile_d, n), tol)
        cells[n] = _VERDICT_NAMES[flags]
    return RegionGrid(
        spec=spec, a_values=spec.a_centers(), d_values=spec.d_centers(), cells=cells
    )


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

    No grid of cells is formed. The kernel's slope axis (a for mu_sign
    '+', d for '-') fixes the bound b of each line of cells, and the
    cell exists where the slope is positive and fl(b - x) > 0 for the
    other coordinate x. That holds exactly when b > x: x is a finite
    centre, so for a finite b the rounded difference is zero only when
    b == x and otherwise keeps its sign, and b = +-inf keeps the test
    exact. The centres never decrease, so each line's existence cells
    are a prefix of the other axis, counted by one searchsorted; a
    slope <= 0 or a NaN bound counts none. A violation is a cell
    between the counts of a pair.
    """
    ns = sorted(spec.n_list)
    a_values, d_values = spec.a_centers(), spec.d_centers()
    slopes, other = a_values, d_values
    if spec.mu_sign == "-":
        slopes, other = other, slopes
    counts = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in ns:
            bound = _bound(slopes, n)[0]
            inside = (slopes > 0) & ~np.isnan(bound)
            counts[n] = np.where(inside, np.searchsorted(other, bound), 0)
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
