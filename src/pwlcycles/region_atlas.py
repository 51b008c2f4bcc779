"""Parameter-plane atlas: grid classification, curve sampling, nesting checks.

The region inequalities and the verdict precedence live in skew_tent's
region kernel, which classify runs on one point and this module runs on
the grid's two axes, broadcast against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .skew_tent import (
    DEFAULT_CURVE_TOL,
    _VERDICT_OF_FLAGS,
    _existence_margins,
    _exists,
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
    the full mesh. Every elementwise operation sees the same operands in
    the same order as on a single point, so every cell gets the margins,
    bit for bit, and the verdict classify gives at that point.
    """
    _require_tol(tol)
    a, d = _oriented_axes(spec)
    cells = {}
    for n in spec.n_list:
        m = _margins(a, d, n)
        cells[n] = _VERDICT_NAMES[_flags(a, m, tol)]
        # released only now, below the new verdicts, so the allocator
        # hands their pages to the next n instead of returning them
        del m
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
    offending pair. An empty violations list certifies the nesting on
    this grid.
    """
    ns = sorted(set(spec.n_list))
    a, d = _oriented_axes(spec)
    a_values, d_values = spec.a_centers(), spec.d_centers()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        masks = {n: _exists(a, _existence_margins(a, d, n)[0]) for n in ns}
    pairs = list(zip(ns[:-1], ns[1:]))
    violations = []
    for n_small, n_large in pairs:
        bad = masks[n_large] & ~masks[n_small]
        for i, j in zip(*np.nonzero(bad)):
            violations.append(
                {
                    "a": float(a_values[i]),
                    "d": float(d_values[j]),
                    "n_outer": n_small,
                    "n_inner": n_large,
                }
            )
    return {
        "pairs": pairs,
        "cells_checked": spec.a_steps * spec.d_steps * len(pairs),
        "violations": violations,
    }
