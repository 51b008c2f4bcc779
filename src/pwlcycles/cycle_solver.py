"""Cycles of the canonical piecewise-linear system in R^(m+1).

The first coordinate x evolves under the skew tent map on its own; the
remaining block Y is driven linearly by x,

    x <= 0:  x' = a x + mu_hat,  Y' = b_vec x + A_block Y + h_Y
    x >= 0:  x' = d x + mu_hat,  Y' = e_vec x + A_block Y + h_Y.

The system is triangular, so every cycle is solved in two halves. The
x-components come from the 1D map alone: the closed form for the
canonical R L^(n-1) word, L R^(n-1) for mu_hat < 0 (solve_cycle), and
for any R/L word the scalar composition of the word rotated to start at
each point (solve_symbolic_cycle). The Y-components then follow from one
linear solve for Y_1 plus forward recursion (_y_cycle), a step both
entry points share with the simulator's cycle route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenvalueOneError, NotAdmissibleError
from .skew_tent import (
    SkewTentParams,
    _cycle_points,
    _kink_tol,
    _sign_word,
    cycle_x_components,
)

__all__ = [
    "EIG_TOL",
    "CanonicalSystem",
    "CycleSolution",
    "branch_affine",
    "step",
    "multipliers",
    "solve_cycle",
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
    residual is the largest max-norm miss of one step along the cycle,
    max_k |f_(w_k)(z_k) - z_(k+1)| with the branch f_(w_k) that the k-th
    letter picks. admissible is False when the solved points do not
    realize the sign pattern the sequence prescribes.
    """

    n: int
    points: tuple
    sequence: str
    multipliers: tuple
    stable: bool
    residual: float
    admissible: bool = True


_RIGHT = {"R": True, "L": False, "0": False}


def _branch(sys: CanonicalSystem, right) -> tuple:
    """(slope, coupling) of the x >= 0 branch when right, else of x <= 0."""
    return (sys.d, sys.e_vec) if right else (sys.a, sys.b_vec)


def branch_affine(sys: CanonicalSystem, letter: str):
    """Affine map (M, c) of one branch; z' = M z + c on that branch.

    'R' selects the x >= 0 branch (slope d, coupling e_vec); 'L' and '0'
    select the x <= 0 branch (slope a, coupling b_vec).
    """
    right = _RIGHT.get(letter) if isinstance(letter, str) else None
    if right is None:
        raise ValueError(f"branch letter must be 'R', 'L' or '0', got {letter!r}")
    m = sys.m
    M = np.zeros((m + 1, m + 1))
    c = np.empty(m + 1)
    c[0] = sys.mu_hat
    c[1:] = sys.h_Y
    M[1:, 1:] = sys.A_block
    M[0, 0], M[1:, 0] = _branch(sys, right)
    return M, c


def step(sys: CanonicalSystem, state: np.ndarray) -> np.ndarray:
    """One application of the canonical map; x = 0 takes the x <= 0 branch."""
    state = np.asarray(state, dtype=float)
    x = state[0]
    slope, coupling = _branch(sys, not x <= 0.0)
    out = np.empty_like(state)
    out[0] = slope * x + sys.mu_hat
    out[1:] = coupling * x + sys.A_block @ state[1:] + sys.h_Y
    return out


def _word(sys: CanonicalSystem, sequence: str):
    """The word's slope list, its mask of 'R' letters and its x multiplier.

    'R' selects the x >= 0 branch (slope d), 'L' and '0' the x <= 0
    branch (slope a), as in branch_affine. The multiplier a^(#L) d^(#R)
    takes each power as the region kernel's chain does, multiplying left
    to right from 1, so it is one float in every rotation and, for
    R L^(n-1), the kernel's P d and the closed form's, bit for bit.
    Raises ValueError on an empty word and on any other letter.
    """
    if not sequence:
        raise ValueError("sequence must be non-empty")
    try:
        right = np.array([_RIGHT[letter] for letter in sequence], dtype=bool)
    except KeyError as err:
        raise ValueError(f"invalid sequence letter {err.args[0]!r}") from None
    k = sequence.count("R")
    product = math.prod([sys.a] * (len(sequence) - k)) * math.prod([sys.d] * k)
    return np.where(right, sys.d, sys.a), right, product


def _period_spectrum(sys: CanonicalSystem, sequence: str, product, check_eig: bool):
    """A_block^n and the sorted multipliers of the sequence (n = its length).

    product is the word's x multiplier. A_block^n is decomposed once.
    Raises NotAdmissibleError when it overflows, and, with check_eig,
    EigenvalueOneError when one of its eigenvalues lies within EIG_TOL of 1.
    """
    n = len(sequence)
    A_n, block_eigs = sys.A_block, ()
    if sys.m:
        with np.errstate(over="ignore", invalid="ignore"):
            A_n = np.linalg.matrix_power(sys.A_block, n)
        if not np.isfinite(A_n).all():
            raise NotAdmissibleError((), sequence, f"A_block^{n} overflows")
        block_eigs = np.linalg.eigvals(A_n)
        if check_eig and np.any(np.abs(block_eigs - 1.0) <= EIG_TOL):
            raise EigenvalueOneError(
                f"A_block^{n} has an eigenvalue at 1; Y components are not unique"
            )
    spectrum = np.array([product, *block_eigs], dtype=complex)
    return A_n, tuple(np.sort_complex(spectrum).tolist())


def multipliers(sys: CanonicalSystem, sequence: str) -> tuple:
    """Eigenvalues of the composed one-period Jacobian for the sequence.

    The branch Jacobians are block lower-triangular with a zero row above
    the Y block, so the composed spectrum splits exactly into the x
    multiplier a^(#L) d^(#R) of _word, which classify compares with -1
    for R L^(n-1), and the eigenvalues of A_block^n, sorted by real then
    imaginary part. Raises NotAdmissibleError when A_block^n overflows.
    """
    return _period_spectrum(sys, sequence, _word(sys, sequence)[2], False)[1]


def _drive(sys: CanonicalSystem, xs: np.ndarray, right) -> np.ndarray:
    """The drives u_k of the Y block by the x-values xs, shape (len(xs), m):
    u_k = x_k e_vec + h_Y where the bool array right marks a step leaving
    on the right branch, slope d, and x_k b_vec + h_Y otherwise."""
    U = np.take((sys.b_vec, sys.e_vec), right.view(np.uint8), axis=0)
    U *= xs[:, None]
    return np.add(U, sys.h_Y, out=U)


def _drive_bound(sys: CanonicalSystem, xs: np.ndarray) -> float:
    """max|x| max(max|e_vec|, max|b_vec|) + max|h_Y| over the x-values xs,
    at least every |u_k| of _drive, to within its rounding; NaN or inf
    when an x-value is."""
    gain = max(float(np.abs(sys.e_vec).max()), float(np.abs(sys.b_vec).max()))
    return float(np.abs(xs).max()) * gain + float(np.abs(sys.h_Y).max())


def _y_cycle(sys: CanonicalSystem, xs: np.ndarray, right, A_n) -> tuple:
    """The Y block of the cycle through the x-values xs, and its drives.

    right marks the points that leave on the x >= 0 branch and A_n is
    A_block^n, n = len(xs). With u_k the drive of the step leaving
    point k (_drive), Y_0 solves

        (I - A^n) Y_0 = sum_{k=0}^{n-1} A^(n-1-k) u_k

    (the Y reached after one period started from Y = 0, summed by
    Horner's rule), and Y_k = A Y_(k-1) + u_(k-1) follow by forward
    recursion. Returns (Y, U), both of shape (n, m), U holding u_k.
    """
    A = sys.A_block
    U = _drive(sys, xs, right)
    rhs = U[0]
    for u in U[1:]:
        rhs = A @ rhs + u
    Y = np.empty_like(U)
    Y[0] = np.linalg.solve(np.eye(sys.m) - A_n, rhs)
    for i in range(1, len(U)):
        Y[i] = A @ Y[i - 1] + U[i - 1]
    return Y, U


def _solution(
    sys: CanonicalSystem, xs, sequence: str, word, admissible: bool
) -> CycleSolution:
    """The cycle through the x-values xs along sequence, with its Y block.

    word is _word of the sequence; the Y block is _y_cycle's. The
    residual steps every point once along its letter's branch.
    Raises what the A^n decomposition raises, and NotAdmissibleError
    when a point is not finite.
    """
    n = len(sequence)
    m = sys.m
    slopes, right, product = word

    A_n, mults = _period_spectrum(sys, sequence, product, True)
    Z = np.empty((n, m + 1))
    Z[:, 0] = xs
    if m:
        Z[:, 1:], U = _y_cycle(sys, Z[:, 0], right, A_n)
    if not np.isfinite(Z).all():
        raise NotAdmissibleError(xs, sequence, f"the {n}-cycle overflows")
    miss = np.empty_like(Z)
    miss[:, 0] = slopes * Z[:, 0] + sys.mu_hat
    if m:
        miss[:, 1:] = Z[:, 1:] @ sys.A_block.T + U
    miss[:-1] -= Z[1:]
    miss[-1] -= Z[0]
    return CycleSolution(
        n=n,
        points=tuple(Z),
        sequence=sequence,
        multipliers=mults,
        stable=all(abs(v) < 1.0 for v in mults),
        residual=float(np.max(np.abs(miss))),
        admissible=admissible,
    )


def solve_cycle(
    sys: CanonicalSystem, n: int, zero_tol: float | None = None
) -> CycleSolution:
    """Closed-form n-cycle of the family the sign of mu_hat names, as
    classify's mu_sign does: R L^(n-1) for mu_hat > 0, else L R^(n-1).

    The x-components come from the 1D closed form, the Y-components from
    one linear solve for Y_1 plus forward recursion. A kink point keeps
    its family's branch, letter 0 in R L^(n-1) and 'R' in L R^(n-1), so
    the x multiplier is classify's. A_block^n is decomposed once. Its
    eigenvalues decide the one precondition check, EigenvalueOneError
    when one lies within EIG_TOL of 1 (the Y_1 solve is singular; an
    eigenvalue of A_block at 1 is caught here too), and together with the
    x multiplier they are the cycle's multipliers.
    Raises everything the 1D closed form raises, and NotAdmissibleError
    when A_block^n overflows.
    """
    xc = cycle_x_components(sys.skew_params(), n, zero_tol=zero_tol)
    sequence = xc.sequence if sys.mu_hat > 0 else xc.sequence.replace("0", "R")
    return _solution(sys, xc.xs, sequence, _word(sys, sequence), True)


def solve_symbolic_cycle(
    sys: CanonicalSystem, sequence: str, zero_tol: float | None = None
) -> CycleSolution:
    """Cycle whose branch choices are dictated by an explicit sequence.

    x runs the skew tent map on its own: x_k = c_k / (1 - P) is the fixed
    point of the word rotated to start at point k, the scalar composition
    x -> P x + c_k (P the x multiplier, c_k by Horner's rule). All n
    rotations run at once over the slope list laid twice end to end, so
    no point inherits another's rounding and the cost is quadratic in the
    word length. Y is then solved as in solve_cycle. The admissible flag
    records whether the points' sign word, within zero_tol, equals the
    sequence; inadmissible solutions are returned, not raised, since they
    mark where a symbolic cycle ceases to exist.

    Raises ValueError unless a given zero_tol is finite and positive,
    what skew_tent's one denominator rule raises (SingularDenominatorError
    when 1 - P is zero within SINGULAR_TOL, NotAdmissibleError when P or
    a point is not finite), and EigenvalueOneError and the A_block^n
    overflow as solve_cycle does.
    """
    n = len(sequence)
    zero_tol = _kink_tol(zero_tol, sys.mu_hat)
    slopes, _, product = word = _word(sys, sequence)
    ring = np.concatenate((slopes, slopes))
    offsets = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            offsets = ring[j : j + n] * offsets + sys.mu_hat
    xs = _cycle_points(sys.a, sys.d, sequence, product, offsets.tolist())
    admissible = _sign_word(xs, zero_tol) == sequence
    return _solution(sys, xs, sequence, word, admissible)
