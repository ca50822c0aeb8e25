"""Exception types shared across the package.

Every error raised on purpose derives from :class:`TeleworkImpactError`, so
callers (and the CLI) can distinguish domain failures from genuine bugs.
"""

from __future__ import annotations


class TeleworkImpactError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TeleworkImpactError):
    """Configuration file is missing, unreadable, or malformed."""


class DomainError(TeleworkImpactError, ValueError):
    """A number is outside its declared domain: of the wrong kind, not
    finite, or out of range (see :func:`.model.checked`)."""


class UnknownCategoryError(TeleworkImpactError):
    """Effect category name is not in the taxonomy registry."""


class MissingFactorError(TeleworkImpactError):
    """Factor table lacks one or more required coefficients."""

    def __init__(self, keys: list[str]):
        self.keys = list(keys)
        super().__init__("missing factors: " + ", ".join(self.keys))


class NegativeFactorError(TeleworkImpactError):
    """A factor value is negative."""

    def __init__(self, key: str, value: float):
        self.key = key
        self.value = value
        super().__init__(f"negative factor {key} = {value}")


class DiaryFormatError(TeleworkImpactError):
    """Whole-file diary problem (missing header or wrong column set)."""


class MissingProfileError(TeleworkImpactError):
    """A day-type profile needed for a comparison has no days."""

    def __init__(self, day_type):
        self.day_type = day_type
        value = getattr(day_type, "value", day_type)
        super().__init__(f"no days available for day type '{value}'")


class InvalidOverrideError(TeleworkImpactError):
    """Scenario override violates an inventory or scenario invariant."""


class SweepPointError(TeleworkImpactError):
    """Evaluation of one sweep point failed; carries the offending value."""

    def __init__(self, parameter: str, value: float, cause: Exception):
        self.parameter = parameter
        self.value = value
        self.cause = cause
        super().__init__(f"sweep point {parameter}={value}: {cause}")


class NoRootError(TeleworkImpactError):
    """Net energy has the same sign at both bracket endpoints."""

    def __init__(self, lo: float, hi: float, f_lo: float, f_hi: float):
        self.lo = lo
        self.hi = hi
        self.f_lo = f_lo
        self.f_hi = f_hi
        super().__init__(
            f"no sign change over [{lo}, {hi}]: net({lo}) = {f_lo}, net({hi}) = {f_hi}"
        )


class NonFiniteError(TeleworkImpactError):
    """A factor is NaN or infinite, or an evaluation inside a break-even
    bracket failed or returned a non-finite value."""
