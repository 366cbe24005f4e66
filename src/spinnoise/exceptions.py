"""Exception types shared across the package."""


class SpinNoiseError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpinNoiseError, ValueError):
    """An argument is outside the physically meaningful domain."""


class ContractViolationError(SpinNoiseError, ValueError):
    """An input state violates a structural requirement (e.g. Hermiticity)."""


class ConfigError(SpinNoiseError, ValueError):
    """A configuration file, key, or value is invalid."""


class NumericError(SpinNoiseError, ArithmeticError):
    """The numerics broke down (NaN/Inf encountered mid-run).

    ``point`` is the index of the failing point within a stepping-engine
    call that advanced several points together, or None.
    """

    def __init__(self, message: str, point: int | None = None):
        super().__init__(message)
        self.point = point


class SteadyStateError(SpinNoiseError, RuntimeError):
    """No unique steady state exists, or the solver failed to reach tolerance."""
