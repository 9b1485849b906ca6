"""Exception types shared across the package."""

from __future__ import annotations


class PhevOptError(Exception):
    """Base class for all package errors."""


class CycleFormatError(PhevOptError):
    """A drive-cycle file is malformed (bad header, non-monotonic time, ...)."""


class MapFormatError(PhevOptError):
    """An efficiency-map file is malformed."""


class MapDomainError(PhevOptError):
    """A lookup point lies outside an efficiency map's axis bounding box."""


class EnvelopeError(PhevOptError):
    """A power request exceeds a component's physical envelope."""


class InfeasibleVehicleError(PhevOptError):
    """Rule-based simulation drove the battery to empty: the vehicle cannot
    complete the cycle under the given configuration."""


class InfeasibleProblemError(PhevOptError):
    """The DP problem has no admissible decision sequence from the initial
    state. Carries the first stage at which every state is unreachable."""

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class ToleranceBreachError(PhevOptError):
    """A rolled-out trajectory left the allowed SOC window by more than one
    grid quantum."""


class ScenarioError(PhevOptError):
    """A scenario file is missing, malformed, or references missing inputs."""
