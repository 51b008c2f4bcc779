"""Parameter-plane atlas: grid classification, curve sampling, nesting checks.

The per-point logic lives in skew_tent.classify; this module evaluates
the same inequalities as array expressions so full grids stay cheap, and
a unit test pins the two routes against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .skew_tent import DEFAULT_CURVE_TOL, Verdict, existence_bound

__all__ = [
    "GridSpec",
    "RegionGrid",
    "scan",
    "curve_samples",
    "nesting_report",
]


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
        if self.a_steps < 1 or self.d_steps < 1:
            raise ValueError("a_steps and d_steps must be >= 1")
        if not (self.a_min <= self.a_max and self.d_min <= self.d_max):
            raise ValueError("grid bounds must be ordered")
        if self.mu_sign not in ("+", "-"):
            raise ValueError(f"mu_sign must be '+' or '-', got {self.mu_sign!r}")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if not self.n_list:
            raise ValueError("n_list must be non-empty")
        if any(n < 3 for n in self.n_list):
            raise ValueError("all n in n_list must be >= 3")

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


def _oriented_mesh(spec: GridSpec):
    A, D = np.meshgrid(spec.a_centers(), spec.d_centers(), indexing="ij")
    if spec.mu_sign == "-":
        return D, A
    return A, D


def _existence_mask(AA: np.ndarray, DD: np.ndarray, n: int) -> np.ndarray:
    bound = existence_bound(AA, n)
    return (AA > 0.0) & (DD < bound)


def scan(spec: GridSpec, tol: float = DEFAULT_CURVE_TOL) -> RegionGrid:
    """Classify every grid cell for every n in spec.n_list.

    Applies the same verdict precedence as skew_tent.classify by
    overwriting the verdict grid from lowest precedence to highest.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    AA, DD = _oriented_mesh(spec)
    cells = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in spec.n_list:
            bound = existence_bound(AA, n)
            positive = AA > 0.0
            exists = positive & (DD < bound)
            curve = positive & (np.abs(DD - bound) <= tol)
            lower = -1.0 / AA ** (n - 1)
            stable = exists & (DD > lower)
            cubic = AA ** (2 * (n - 1)) * DD**3 + AA - DD
            quad = AA ** (n - 1) * DD**2 + DD - AA
            nband = exists & (cubic < 0.0) & (quad < 0.0)
            twonband = exists & (DD < lower) & (cubic > 0.0)

            verdicts = np.full(AA.shape, Verdict.OUTSIDE_REGION.value, dtype=object)
            verdicts[exists] = Verdict.EXISTS_UNSTABLE.value
            verdicts[twonband] = Verdict.TWONBAND_CHAOS.value
            verdicts[nband] = Verdict.NBAND_CHAOS.value
            verdicts[stable] = Verdict.EXISTS_STABLE.value
            verdicts[curve] = Verdict.ON_BIFURCATION_CURVE.value
            cells[n] = verdicts
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
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if a_min <= 0 or a_max <= 0:
        raise ValueError("curve parameterization requires positive slope range")
    if mu_sign not in ("+", "-"):
        raise ValueError(f"mu_sign must be '+' or '-', got {mu_sign!r}")
    t = np.linspace(a_min, a_max, samples)
    bound = existence_bound(t, n)
    if mu_sign == "+":
        return np.column_stack([t, bound])
    return np.column_stack([bound, t])


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
    AA, DD = _oriented_mesh(spec)
    A_plain, D_plain = np.meshgrid(spec.a_centers(), spec.d_centers(), indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        masks = {n: _existence_mask(AA, DD, n) for n in ns}
    pairs = list(zip(ns[:-1], ns[1:]))
    violations = []
    for n_small, n_large in pairs:
        bad = masks[n_large] & ~masks[n_small]
        for i, j in zip(*np.nonzero(bad)):
            violations.append(
                {
                    "a": float(A_plain[i, j]),
                    "d": float(D_plain[i, j]),
                    "n_outer": n_small,
                    "n_inner": n_large,
                }
            )
    return {
        "pairs": pairs,
        "cells_checked": int(AA.size) * len(pairs),
        "violations": violations,
    }
