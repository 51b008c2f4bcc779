"""Typed errors shared across the toolkit."""

from __future__ import annotations

__all__ = [
    "PwlcyclesError",
    "SingularDenominatorError",
    "NotAdmissibleError",
    "DegenerateOffsetError",
    "EigenvalueOneError",
    "DivergenceError",
    "StructureViolationError",
    "NotAdjacentError",
    "SameRegionError",
    "ConfigError",
]


class PwlcyclesError(Exception):
    """Base class for all toolkit errors. Each subclass sets exit_code, the
    pwlcycles exit status: 2 config, 3 solver precondition, 5 structural."""


class SingularDenominatorError(PwlcyclesError):
    """The cycle denominator 1 - power is about zero (power: such as a^2*d^1)."""

    exit_code = 3

    def __init__(self, a: float, d: float, n: int, denominator: float, power: str):
        self.a = a
        self.d = d
        self.n = n
        self.denominator = denominator
        super().__init__(
            f"singular denominator 1 - {power} = {denominator!r} "
            f"for a={a!r}, d={d!r}, n={n}"
        )


class NotAdmissibleError(PwlcyclesError):
    """Computed cycle points violate the sign pattern of their sequence.

    Carries the raw values so callers can inspect the failed candidate.
    The default message is formatted when it is read, not when the error
    is raised: solvers reject candidates whose messages nobody reads.
    """

    exit_code = 3

    def __init__(self, xs, letters, message: str = ""):
        self.xs = tuple(map(float, xs))
        self.letters = str(letters)
        super().__init__(message)

    def __str__(self) -> str:
        message = super().__str__()
        if message or "xs" not in vars(self):  # a given message, or no __init__
            return message
        return f"cycle candidate not admissible: xs={self.xs}, letters={self.letters!r}"


class DegenerateOffsetError(PwlcyclesError):
    """mu_hat = 0: the origin is a fixed point and cycle formulas collapse."""

    exit_code = 3


class EigenvalueOneError(PwlcyclesError):
    """A linear-part eigenvalue sits on 1, so the fixed-point solve is singular."""

    exit_code = 3


class DivergenceError(PwlcyclesError):
    """An orbit coordinate exceeded the divergence threshold.

    threshold is the absolute bound the state crossed: the simulator's
    DIVERGENCE_THRESHOLD times the run's scale.
    """

    exit_code = 3

    def __init__(self, step: int, state, threshold: float):
        self.step = int(step)
        self.state = state
        self.threshold = float(threshold)
        super().__init__(f"orbit diverged at step {step}: |state| > {self.threshold!r}")


class StructureViolationError(PwlcyclesError):
    """The boundary row of W has nonzero off-diagonal entries."""

    exit_code = 5

    def __init__(self, s: int, entries):
        # entries: list of (row, col, value) with 1-based coordinates
        self.s = int(s)
        self.entries = list(entries)
        desc = ", ".join(f"W[{r},{c}]={v!r}" for r, c, v in self.entries)
        super().__init__(f"row {s} of W must be zero off-diagonal; found {desc}")


class NotAdjacentError(PwlcyclesError):
    """Region pair differs in more than one coordinate."""

    exit_code = 5


class SameRegionError(PwlcyclesError):
    """Region pair is identical; no switching boundary between them."""

    exit_code = 5


class ConfigError(PwlcyclesError):
    """System configuration document is malformed or inconsistent."""

    exit_code = 2
