"""Cycles of the canonical piecewise-linear system in R^(m+1).

The first coordinate x evolves under the skew tent map on its own; the
remaining block Y is driven linearly by x,

    x <= 0:  x' = a x + mu_hat,  Y' = b_vec x + A_block Y + h_Y
    x >= 0:  x' = d x + mu_hat,  Y' = e_vec x + A_block Y + h_Y.

Given the x-components of an R L^(n-1) cycle, the Y-components follow
from one dense linear solve for Y_1 plus a forward recursion; a separate
per-coordinate route exists for diagonal A_block so the two can be
cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenvalueOneError, SingularDenominatorError
from .skew_tent import (
    SkewTentParams,
    XCycle,
    cycle_x_components,
    geometric_sum,
    zero_tolerance,
)

__all__ = [
    "EIG_TOL",
    "CanonicalSystem",
    "CycleSolution",
    "branch_affine",
    "step",
    "multipliers",
    "solve_cycle",
    "y_components_diagonal",
    "solve_symbolic_cycle",
]

EIG_TOL = 1e-9


@dataclass
class CanonicalSystem:
    """Parameters of the canonical system; m = 0 reduces it to the 1D map."""

    a: float
    d: float
    b_vec: np.ndarray
    e_vec: np.ndarray
    A_block: np.ndarray
    h_Y: np.ndarray
    mu_hat: float

    def __post_init__(self):
        self.a = float(self.a)
        self.d = float(self.d)
        self.mu_hat = float(self.mu_hat)
        self.b_vec = np.atleast_1d(np.asarray(self.b_vec, dtype=float))
        self.e_vec = np.atleast_1d(np.asarray(self.e_vec, dtype=float))
        self.h_Y = np.atleast_1d(np.asarray(self.h_Y, dtype=float))
        self.A_block = np.asarray(self.A_block, dtype=float)
        m = self.b_vec.shape[0]
        if self.A_block.size == 0:
            self.A_block = self.A_block.reshape(m, m)
        if self.A_block.shape != (m, m):
            raise ValueError(
                f"A_block shape {self.A_block.shape} does not match m={m}"
            )
        for name in ("b_vec", "e_vec", "h_Y"):
            vec = getattr(self, name)
            if vec.shape != (m,):
                raise ValueError(f"{name} shape {vec.shape} does not match m={m}")
        for name in ("a", "d", "mu_hat"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("b_vec", "e_vec", "A_block", "h_Y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")

    @property
    def m(self) -> int:
        return self.b_vec.shape[0]

    @classmethod
    def from_skew_tent(cls, p: SkewTentParams) -> "CanonicalSystem":
        empty = np.zeros(0)
        return cls(
            a=p.a,
            d=p.d,
            b_vec=empty,
            e_vec=empty.copy(),
            A_block=np.zeros((0, 0)),
            h_Y=empty.copy(),
            mu_hat=p.mu_hat,
        )

    def skew_params(self) -> SkewTentParams:
        return SkewTentParams(a=self.a, d=self.d, mu_hat=self.mu_hat)


@dataclass(frozen=True)
class CycleSolution:
    """An n-cycle of the canonical system.

    points holds n state vectors of length m+1 ordered along the cycle;
    multipliers are the eigenvalues of the composed one-period Jacobian;
    residual is the max-norm closure defect after one full period.
    admissible is False when the solved points do not realize the sign
    pattern the sequence prescribes.
    """

    n: int
    points: tuple
    sequence: str
    multipliers: tuple
    stable: bool
    residual: float
    admissible: bool = True


def branch_affine(sys: CanonicalSystem, letter: str):
    """Affine map (M, c) of one branch; z' = M z + c on that branch.

    'R' selects the x >= 0 branch (slope d, coupling e_vec); 'L' and '0'
    select the x <= 0 branch (slope a, coupling b_vec).
    """
    m = sys.m
    M = np.zeros((m + 1, m + 1))
    c = np.empty(m + 1)
    c[0] = sys.mu_hat
    c[1:] = sys.h_Y
    M[1:, 1:] = sys.A_block
    if letter == "R":
        M[0, 0] = sys.d
        M[1:, 0] = sys.e_vec
    elif letter in ("L", "0"):
        M[0, 0] = sys.a
        M[1:, 0] = sys.b_vec
    else:
        raise ValueError(f"branch letter must be 'R', 'L' or '0', got {letter!r}")
    return M, c


def step(sys: CanonicalSystem, state: np.ndarray) -> np.ndarray:
    """One application of the canonical map; x = 0 takes the x <= 0 branch."""
    state = np.asarray(state, dtype=float)
    x = state[0]
    out = np.empty_like(state)
    if x <= 0.0:
        out[0] = sys.a * x + sys.mu_hat
        out[1:] = sys.b_vec * x + sys.A_block @ state[1:] + sys.h_Y
    else:
        out[0] = sys.d * x + sys.mu_hat
        out[1:] = sys.e_vec * x + sys.A_block @ state[1:] + sys.h_Y
    return out


def _sorted_complex_tuple(values) -> tuple:
    arr = np.sort_complex(np.asarray(values, dtype=complex))
    return tuple(complex(v) for v in arr)


def _slope_product(sys: CanonicalSystem, sequence: str) -> float:
    slope_product = 1.0
    for letter in sequence:
        if letter == "R":
            slope_product *= sys.d
        elif letter in ("L", "0"):
            slope_product *= sys.a
        else:
            raise ValueError(f"invalid sequence letter {letter!r}")
    return slope_product


def _period_spectrum(sys: CanonicalSystem, sequence: str, eig_tol):
    """A_block^n and the sorted multipliers of the sequence (n = its length).

    A_block^n is decomposed once. Raises EigenvalueOneError when one of
    its eigenvalues lies within eig_tol of 1; eig_tol None skips the check.
    """
    n = len(sequence)
    A_n, block_eigs = sys.A_block, ()
    if sys.m:
        A_n = np.linalg.matrix_power(sys.A_block, n)
        block_eigs = np.linalg.eigvals(A_n)
        if eig_tol is not None and np.any(np.abs(block_eigs - 1.0) <= eig_tol):
            raise EigenvalueOneError(
                f"A_block^{n} has an eigenvalue at 1; Y components are not unique"
            )
    return A_n, _sorted_complex_tuple([_slope_product(sys, sequence), *block_eigs])


def multipliers(sys: CanonicalSystem, sequence: str) -> tuple:
    """Eigenvalues of the composed one-period Jacobian for the sequence.

    The branch Jacobians are block lower-triangular with a zero row above
    the Y block, so the composed spectrum splits exactly into the scalar
    slope product (a per 'L'/'0', d per 'R') and the eigenvalues of
    A_block^n. Sorted by real part, then imaginary part.
    """
    if not sequence:
        raise ValueError("sequence must be non-empty")
    return _period_spectrum(sys, sequence, None)[1]


def _residual(sys: CanonicalSystem, points, sequence: str) -> float:
    maps = {letter: branch_affine(sys, letter) for letter in set(sequence)}
    z = np.array(points[0], dtype=float)
    for letter in sequence:
        M, c = maps[letter]
        z = M @ z + c
    return float(np.max(np.abs(z - points[0]))) if z.size else 0.0


def solve_cycle(
    sys: CanonicalSystem,
    n: int,
    zero_tol: float | None = None,
    eig_tol: float = EIG_TOL,
) -> CycleSolution:
    """Closed-form R L^(n-1) n-cycle of the canonical system.

    The x-components come from the 1D closed form. With u_1 = x_1 e_vec
    + h_Y and u_i = x_i b_vec + h_Y the drive of the step leaving point i,
    Y_1 then solves

        (I - A^n) Y_1 = sum_{k=0}^{n-1} A^k u_{n-k}

    (the Y reached after one period started from Y = 0, summed by
    Horner's rule), and the remaining Y_i follow by forward recursion.

    A_block^n is decomposed once. Its eigenvalues decide the one
    precondition check, EigenvalueOneError when one lies within eig_tol
    of 1 (the Y_1 solve is singular; an eigenvalue of A_block at 1 is
    caught here too), and together with the slope product they are the
    cycle's multipliers. Raises everything the 1D closed form raises.
    """
    xc = cycle_x_components(sys.skew_params(), n, zero_tol=zero_tol)
    xs = xc.xs
    m = sys.m
    A = sys.A_block

    A_n, mults = _period_spectrum(sys, xc.sequence, eig_tol)
    Z = np.empty((n, m + 1))
    Z[:, 0] = xs
    if m:
        U = np.outer(xs, sys.b_vec) + sys.h_Y
        U[0] = xs[0] * sys.e_vec + sys.h_Y
        rhs = U[0]
        for u in U[1:]:
            rhs = A @ rhs + u
        Z[0, 1:] = np.linalg.solve(np.eye(m) - A_n, rhs)
        for i in range(1, n):
            Z[i, 1:] = A @ Z[i - 1, 1:] + U[i - 1]
    points = tuple(Z)
    stable = all(abs(v) < 1.0 for v in mults)
    return CycleSolution(
        n=n,
        points=points,
        sequence=xc.sequence,
        multipliers=mults,
        stable=stable,
        residual=_residual(sys, points, xc.sequence),
    )


def y_components_diagonal(
    sys: CanonicalSystem, xs, eig_tol: float = EIG_TOL
) -> list:
    """Y-components of the R L^(n-1) cycle for exactly diagonal A_block.

    Each coordinate decouples, so Y_1 is a scalar formula per entry:

        Y1_i = ((x_n + x_{n-1} A_ii + ... + x_2 A_ii^(n-2)) b_i
                + x_1 A_ii^(n-1) e_i + S_n(A_ii) h_i) / (1 - A_ii^n).

    Returns all n Y vectors via the forward recursion. This is an
    independent route used to cross-check the dense solve; it demands a
    literally diagonal A_block and raises ValueError otherwise, and
    EigenvalueOneError when some A_ii^n is within eig_tol of 1.
    xs may be an XCycle or any sequence of x-values in cycle order.
    """
    if isinstance(xs, XCycle):
        xs = xs.xs
    xs = [float(x) for x in xs]
    n = len(xs)
    if n < 2:
        raise ValueError("need at least 2 cycle points")
    m = sys.m
    A = sys.A_block
    diag = np.diag(A).copy()
    if np.count_nonzero(A - np.diag(diag)):
        raise ValueError("A_block must be exactly diagonal for this route")

    Y1 = np.empty(m)
    for i in range(m):
        ai = diag[i]
        den = 1.0 - ai**n
        if abs(den) <= eig_tol:
            raise EigenvalueOneError(
                f"diagonal entry {ai!r} has {ai!r}^{n} within {eig_tol} of 1"
            )
        coupled = 0.0
        for k in range(n - 1):
            coupled += xs[n - 1 - k] * ai**k
        Y1[i] = (
            coupled * sys.b_vec[i]
            + xs[0] * ai ** (n - 1) * sys.e_vec[i]
            + geometric_sum(ai, n) * sys.h_Y[i]
        ) / den

    ys = [Y1, sys.e_vec * xs[0] + diag * Y1 + sys.h_Y]
    for i in range(1, n - 1):
        ys.append(sys.b_vec * xs[i] + diag * ys[-1] + sys.h_Y)
    return ys


def solve_symbolic_cycle(
    sys: CanonicalSystem,
    sequence: str,
    zero_tol: float | None = None,
    eig_tol: float = EIG_TOL,
) -> CycleSolution:
    """Cycle whose branch choices are dictated by an explicit sequence.

    Composes the branch affine maps in sequence order and solves the
    fixed-point equation of the composition, without assuming the
    R L^(n-1) pattern. The solution's admissible flag records whether the
    solved points actually realize the sequence's signs within zero_tol;
    inadmissible solutions are returned, not raised, since they mark
    where a symbolic cycle ceases to exist.

    Raises SingularDenominatorError when m = 0 and the slope product is 1
    within eig_tol, EigenvalueOneError when the composed linear part has
    an eigenvalue there for m > 0.
    """
    if not sequence:
        raise ValueError("sequence must be non-empty")
    n = len(sequence)
    if zero_tol is None:
        zero_tol = zero_tolerance(sys.mu_hat)

    m = sys.m
    M_total = np.eye(m + 1)
    c_total = np.zeros(m + 1)
    for letter in sequence:
        M, c = branch_affine(sys, letter)
        M_total = M @ M_total
        c_total = M @ c_total + c

    slope_product = float(M_total[0, 0])
    if abs(1.0 - slope_product) <= eig_tol:
        if m == 0:
            raise SingularDenominatorError(sys.a, sys.d, n, 1.0 - slope_product)
        raise EigenvalueOneError(
            "composed linear part has an eigenvalue at 1; cycle is not isolated"
        )
    mults = _period_spectrum(sys, sequence, eig_tol)[1]

    z = np.linalg.solve(np.eye(m + 1) - M_total, c_total)
    points = [z]
    for letter in sequence[:-1]:
        M, c = branch_affine(sys, letter)
        points.append(M @ points[-1] + c)
    points = tuple(points)

    admissible = True
    for z_k, letter in zip(points, sequence):
        x = z_k[0]
        if letter == "R":
            ok = x > zero_tol
        elif letter == "L":
            ok = x < -zero_tol
        else:
            ok = abs(x) <= zero_tol
        if not ok:
            admissible = False
            break

    stable = all(abs(v) < 1.0 for v in mults)
    return CycleSolution(
        n=n,
        points=points,
        sequence=sequence,
        multipliers=mults,
        stable=stable,
        residual=_residual(sys, points, sequence),
        admissible=admissible,
    )
