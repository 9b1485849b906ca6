"""Exception types shared across the package, and ``require``, the one form
of a record's refusal."""

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


def exact(v: float) -> str:
    """The shorter of ``v``'s ``:g`` and ``repr`` forms that reads back as
    ``v``, so that a value one ulp past a bound does not print as the bound
    itself (``:g`` keeps six digits)."""
    forms = (f"{v:g}", repr(float(v)).removesuffix(".0"))
    return min((s for s in forms if v != v or float(s) == v), key=len)


def require(ok: bool, record, name: str, rule: str) -> None:
    """Raise ``ValueError("<name> = <value> <rule>")`` unless ``ok``, where
    ``<value>`` is ``record``'s field ``name``, printed ``exact``. Write
    ``ok`` as the rule holding (``x > 0``, not ``not x <= 0``), so that NaN,
    which fails every comparison, is refused too."""
    if not ok:
        raise ValueError(f"{name} = {exact(getattr(record, name))} {rule}")
