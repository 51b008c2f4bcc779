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
    DegenerateOffsetError,
    EigenvalueOneError,
    NotAdjacentError,
    NotAdmissibleError,
    SameRegionError,
    SingularDenominatorError,
    StructureViolationError,
)
from .skew_tent import ParamClassification, classify, zero_tolerance

__all__ = [
    "PLRNNSystem",
    "RegionIndex",
    "LocalizedSystem",
    "LocalCycleReport",
    "region_of",
    "branch_matrix",
    "plrnn_step",
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
    ordinal: int

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)
        expected = sum(b << i for i, b in enumerate(bits))
        if self.ordinal != expected:
            raise ValueError(
                f"ordinal {self.ordinal} does not match bits {bits} "
                f"(expected {expected})"
            )

    @classmethod
    def from_bits(cls, bits) -> "RegionIndex":
        bits = tuple(int(b) for b in bits)
        return cls(bits=bits, ordinal=sum(b << i for i, b in enumerate(bits)))

    @classmethod
    def from_ordinal(cls, ordinal: int, M: int) -> "RegionIndex":
        if not 0 <= ordinal < 2**M:
            raise ValueError(f"ordinal {ordinal} out of range for M={M}")
        return cls(bits=tuple((ordinal >> i) & 1 for i in range(M)), ordinal=ordinal)

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


def plrnn_step(sys: PLRNNSystem, z) -> np.ndarray:
    """One network step via the branch matrix of the current region."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return branch_matrix(sys, region_of(z)) @ z + sys.h


def relu_step(sys: PLRNNSystem, z) -> np.ndarray:
    """One network step via the relu form; must agree with plrnn_step."""
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
    under the strict form), the bits_s = 1 branch supplies
    d = A_diag[s] + W[s, s] and e_vec = off-diagonal column s of W. The
    offset is mu_hat = h_s. a = d sets the degenerate_kink flag.

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

    A1 = branch_matrix(sys, i)
    A2 = branch_matrix(sys, j)
    rest = [c for c in range(sys.M) if c != k]
    perm = (k, *rest)

    a = float(A1[k, k])
    d = float(A2[k, k])
    canonical = CanonicalSystem(
        a=a,
        d=d,
        b_vec=A1[rest, k],
        e_vec=A2[rest, k],
        A_block=A1[np.ix_(rest, rest)],
        h_Y=sys.h[rest],
        mu_hat=float(sys.h[k]),
    )
    return LocalizedSystem(
        s=s,
        region_neg=i,
        region_pos=j,
        canonical=canonical,
        permutation=perm,
        degenerate_kink=(a == d),
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

    The reduction only describes the network where the non-boundary
    coordinates stay inside the shared sign pattern of regions i and j,
    so any solved cycle is checked for exactly that before it may be
    trusted as a cycle of the full network.
    """
    loc = localize(sys, i, j)
    can = loc.canonical
    mu_sign = "-" if can.mu_hat < 0 else "+"
    classification = classify(can.a, can.d, n, mu_sign=mu_sign)

    solution = None
    solve_error = None
    try:
        solution = solve_cycle(can, n)
    except (
        DegenerateOffsetError,
        SingularDenominatorError,
        NotAdmissibleError,
        EigenvalueOneError,
    ) as err:
        # without its traceback: the traceback holds this frame, whose
        # solve_error would close a reference cycle around every failed solve
        solve_error = err.with_traceback(None)

    violations = []
    warnings = []
    locality_ok = None
    if solution is not None:
        if zero_tol is None:
            zero_tol = zero_tolerance(can.mu_hat)
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
