"""Exception types raised by the billiard simulator."""

from __future__ import annotations


class BilliardError(Exception):
    """Base class for all package-specific errors."""


class DomainConstructionError(BilliardError, ValueError):
    """A domain or scatterer violates a construction invariant."""


class InvalidStateError(BilliardError, ValueError):
    """A phase point sits inside a scatterer or has a degenerate velocity."""


class SingularEventError(BilliardError):
    """Base for singular collision conditions; carries the singular time.

    ``time`` is relative to the state that ``next_collision`` searched from.
    ``flow`` raises none of them: it ends the trajectory at that time with
    the matching termination status.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class GrazingSingularityError(SingularEventError):
    """Impact with cos(phi) below the grazing cutoff."""


class DegenerateCollisionError(SingularEventError):
    """Two boundary roots within the minimum time gap (corner-like hit)."""


class EscapeError(SingularEventError):
    """The particle left a box ambient without meeting a scatterer."""


class InfeasibleCovectorError(BilliardError, ValueError):
    """Requested Lyapunov bound is unattainable for a unit covector."""


class SeriesRangeError(BilliardError, ValueError):
    """Query time outside the range covered by a transport series."""


class ConfigError(BilliardError, ValueError):
    """Experiment configuration is malformed or violates a precondition."""
