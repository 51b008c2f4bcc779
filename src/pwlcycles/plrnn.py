"""Piecewise-linear RNN machinery: orthant regions, branch matrices, and
reduction of the dynamics at one switching boundary to the canonical form.

The network is Z' = diag(A_diag) Z + W relu(Z) + h. Each sign pattern of
Z selects one of 2^M affine branches; two regions whose patterns differ
in exactly one coordinate s share a switching boundary, and when row s
of W has no off-diagonal entries the dynamics near that boundary reorder
into the canonical x/Y split handled by cycle_solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycle_solver import CanonicalSystem, CycleSolution, solve_cycle
from .errors import (
    NotAdjacentError,
    PwlcyclesError,
    SameRegionError,
    StructureViolationError,
)
from .skew_tent import ParamClassification, _kink_tol, _require_tol, classify

__all__ = [
    "PLRNNSystem",
    "RegionIndex",
    "LocalizedSystem",
    "LocalCycleReport",
    "region_of",
    "branch_matrix",
    "relu_step",
    "adjacent",
    "localize",
    "local_cycle_analysis",
]


@dataclass
class PLRNNSystem:
    """ReLU network parameters.

    The conventional form keeps the diagonal of W at zero (self-coupling
    lives in A_diag); relaxed_diagonal=True lifts that restriction, which
    is what makes the two slopes at a switching boundary differ.
    """

    A_diag: np.ndarray
    W: np.ndarray
    h: np.ndarray
    relaxed_diagonal: bool = False

    def __post_init__(self):
        self.A_diag = np.atleast_1d(np.asarray(self.A_diag, dtype=float))
        self.W = np.asarray(self.W, dtype=float)
        self.h = np.atleast_1d(np.asarray(self.h, dtype=float))
        M = self.A_diag.shape[0]
        if self.W.shape != (M, M):
            raise ValueError(f"W shape {self.W.shape} does not match M={M}")
        if self.h.shape != (M,):
            raise ValueError(f"h shape {self.h.shape} does not match M={M}")
        for name in ("A_diag", "W", "h"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not self.relaxed_diagonal and np.any(np.diag(self.W) != 0.0):
            raise ValueError(
                "W must have a zero diagonal unless relaxed_diagonal is set"
            )

    @property
    def M(self) -> int:
        return self.A_diag.shape[0]


@dataclass(frozen=True)
class RegionIndex:
    """One orthant-like region, as a sign word plus its mirrored ordinal.

    bits[i] = 1 marks coordinate i+1 positive in this region. The ordinal
    reads the bits word in mirrored (least-significant-first) order:
    ordinal = sum bits[i] * 2^i, so (1,0,0) is region 1, (0,1,0) is 2.
    """

    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_bits(cls, bits) -> "RegionIndex":
        return cls(bits)

    @classmethod
    def from_ordinal(cls, ordinal: int, M: int) -> "RegionIndex":
        if not 0 <= ordinal < 1 << M:
            raise ValueError(f"ordinal {ordinal} out of range for M={M}")
        return cls(bits=tuple((ordinal >> i) & 1 for i in range(M)))

    @property
    def ordinal(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))

    @property
    def M(self) -> int:
        return len(self.bits)


def region_of(z) -> RegionIndex:
    """Region containing state z; coordinates equal to 0 count as inactive."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return RegionIndex.from_bits(tuple(int(v > 0.0) for v in z))


def branch_matrix(sys: PLRNNSystem, r: RegionIndex) -> np.ndarray:
    """Affine-branch matrix diag(A_diag) + W diag(bits) for region r."""
    if r.M != sys.M:
        raise ValueError(f"region has M={r.M}, system has M={sys.M}")
    return np.diag(sys.A_diag) + sys.W * np.asarray(r.bits, dtype=float)


def relu_step(sys: PLRNNSystem, z) -> np.ndarray:
    """One network step, diag(A_diag) z + W relu(z) + h."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return sys.A_diag * z + sys.W @ np.maximum(z, 0.0) + sys.h


def adjacent(i: RegionIndex, j: RegionIndex) -> int | None:
    """1-based boundary coordinate shared by two regions, or None.

    Returns s when the bit words differ in exactly coordinate s; None
    when they differ in more than one place. Raises SameRegionError for
    identical regions, which share no switching boundary.
    """
    if i.M != j.M:
        raise ValueError("regions must have the same dimension")
    diff = [k for k in range(i.M) if i.bits[k] != j.bits[k]]
    if not diff:
        raise SameRegionError(f"regions {i.bits} and {j.bits} are identical")
    if len(diff) > 1:
        return None
    return diff[0] + 1


@dataclass(frozen=True)
class LocalizedSystem:
    """Canonical reduction of the network at one switching boundary.

    s is the 1-based boundary coordinate; region_neg / region_pos are the
    adjacent regions with bits_s = 0 and 1. permutation lists 0-based
    original coordinates in canonical order (s-1 first), so canonical
    coordinate k is original coordinate permutation[k]. degenerate_kink
    marks a = d, where the reduced 1D map has no kink at all (always the
    case for a strictly zero-diagonal W).
    """

    s: int
    region_neg: RegionIndex
    region_pos: RegionIndex
    canonical: CanonicalSystem
    permutation: tuple
    degenerate_kink: bool

    def to_canonical_state(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return z[list(self.permutation)]

    def to_original_state(self, state) -> np.ndarray:
        state = np.atleast_1d(np.asarray(state, dtype=float))
        out = np.empty_like(state)
        out[list(self.permutation)] = state
        return out


def localize(sys: PLRNNSystem, i: RegionIndex, j: RegionIndex) -> LocalizedSystem:
    """Reduce the network at the boundary between adjacent regions i, j.

    Requires row s of W to vanish off the diagonal, so that the boundary
    coordinate evolves autonomously; offending entries raise
    StructureViolationError with 1-based coordinates. The branch with
    bits_s = 0 supplies the slope a = A_diag[s] and coupling b_vec (zero
    for any W: that branch masks column s of W), the bits_s = 1 branch
    supplies d = A_diag[s] + W[s, s] and e_vec = off-diagonal column s of
    W, and both the same A_block. The offset is mu_hat = h_s. a = d sets
    the degenerate_kink flag. Every float is read from the network with
    the bits branch_matrix gives it, signed zeros included.

    Raises NotAdjacentError when the regions differ in more than one
    coordinate and SameRegionError when they are identical.
    """
    if i.M != sys.M or j.M != sys.M:
        raise ValueError("regions must match the system dimension")
    s = adjacent(i, j)
    if s is None:
        raise NotAdjacentError(
            f"regions {i.bits} and {j.bits} differ in more than one coordinate"
        )
    if i.bits[s - 1] == 1:
        i, j = j, i

    k = s - 1
    bad = [
        (s, c + 1, float(sys.W[k, c]))
        for c in range(sys.M)
        if c != k and sys.W[k, c] != 0.0
    ]
    if bad:
        raise StructureViolationError(s, bad)

    # the branch matrices' entries as the same sums, so zeros keep their
    # sign: the bits_s = 0 branch takes 0.0 times column s of W, and off
    # the diagonal W adds to a zero of diag(A_diag)
    rest = [c for c in range(sys.M) if c != k]
    bits = np.asarray(i.bits, dtype=float)[rest]
    canonical = CanonicalSystem(
        a=float(sys.A_diag[k] + sys.W[k, k] * 0.0),
        d=float(sys.A_diag[k] + sys.W[k, k]),
        b_vec=np.zeros(len(rest)),
        e_vec=sys.W[rest, k] + 0.0,
        A_block=np.diag(sys.A_diag[rest]) + sys.W[np.ix_(rest, rest)] * bits,
        h_Y=sys.h[rest],
        mu_hat=float(sys.h[k]),
    )
    return LocalizedSystem(
        s=s,
        region_neg=i,
        region_pos=j,
        canonical=canonical,
        permutation=(k, *rest),
        degenerate_kink=(canonical.a == canonical.d),
    )


@dataclass(frozen=True)
class LocalCycleReport:
    """Outcome of analyzing one cycle length at one switching boundary.

    solution is None when the closed-form solve failed; solve_error then
    holds the exception. locality_ok is None without a solution, True
    when every cycle point keeps the sign pattern the two regions share
    on all non-boundary coordinates. Points sitting exactly on another
    coordinate's boundary (within zero_tol) are recorded as warnings,
    not violations.
    """

    localized: LocalizedSystem
    n: int
    classification: ParamClassification
    solution: CycleSolution | None
    solve_error: Exception | None
    locality_ok: bool | None
    violations: tuple
    boundary_warnings: tuple


def local_cycle_analysis(
    sys: PLRNNSystem,
    i: RegionIndex,
    j: RegionIndex,
    n: int,
    zero_tol: float | None = None,
) -> LocalCycleReport:
    """Classify and solve the length-n cycle of the localized dynamics.

    n must be an integer >= 3, as classify's region tests need; a
    smaller n raises ValueError before the cycle is solved. A negative
    offset classifies and solves the mirrored family L R^(n-1), as
    classify's mu_sign and solve_cycle read it. The
    reduction only describes the network where the non-boundary
    coordinates stay inside the shared sign pattern of regions i and j,
    so any solved cycle is checked for exactly that before it may be
    trusted as a cycle of the full network.
    zero_tol reads a point as on the kink in the solve (letter 0, or the
    family's 'R') and as on a boundary in the locality check, by default
    zero_tolerance(mu_hat); a given one must be finite and > 0 (ValueError).
    """
    if zero_tol is not None:
        _require_tol(zero_tol, "zero_tol")
    loc = localize(sys, i, j)
    can = loc.canonical
    mu_sign = "-" if can.mu_hat < 0 else "+"
    classification = classify(can.a, can.d, n, mu_sign=mu_sign)

    solution = None
    solve_error = None
    try:
        solution = solve_cycle(can, n, zero_tol)
    except PwlcyclesError as err:
        # without its traceback: the traceback holds this frame, whose
        # solve_error would close a reference cycle around every failed solve
        solve_error = err.with_traceback(None)

    violations = []
    warnings = []
    locality_ok = None
    if solution is not None:
        zero_tol = _kink_tol(zero_tol, can.mu_hat)
        shared = loc.region_neg.bits
        for idx, point in enumerate(solution.points):
            for canon_coord in range(1, sys.M):
                orig = loc.permutation[canon_coord]
                value = float(point[canon_coord])
                required = shared[orig]
                record = {
                    "point_index": idx,
                    "coordinate": orig + 1,
                    "value": value,
                    "required_sign": "+" if required else "-",
                }
                if abs(value) <= zero_tol:
                    warnings.append(record)
                elif (required == 1) != (value > 0.0):
                    violations.append(record)
        locality_ok = not violations

    return LocalCycleReport(
        localized=loc,
        n=n,
        classification=classification,
        solution=solution,
        solve_error=solve_error,
        locality_ok=locality_ok,
        violations=tuple(violations),
        boundary_warnings=tuple(warnings),
    )
