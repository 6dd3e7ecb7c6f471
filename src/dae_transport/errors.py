"""Exception types shared across the package."""

from __future__ import annotations


class ContractError(ValueError):
    """An argument or invariant violation: bad shapes, weights, or matrices."""


class DomainError(ValueError):
    """Inputs outside the mathematical domain of an operation."""


class SingularityError(RuntimeError):
    """A transport reached (or would pass) the time where covariance loses rank.

    Attributes
    ----------
    critical_time : float | None
        The first time at which the covariance becomes singular, when known.
    partial : object | None
        Partial result computed before the singularity (the initial state of a
        continuous flow past its horizon), set by the raiser when it has one.
    """

    def __init__(self, message: str, critical_time: float | None = None):
        super().__init__(message)
        self.critical_time = critical_time
        self.partial = None
