"""Exception types shared across the package."""


class SigmaevoError(Exception):
    """Base class for all package errors."""


class ParameterError(SigmaevoError, ValueError):
    """An argument violates a documented constraint."""


class AdmissibilityError(ParameterError):
    """Equation parameters fall outside the validity window of a result."""


class DomainError(ParameterError):
    """A function was evaluated outside its domain (e.g. negative s)."""


class GridMismatchError(SigmaevoError, ValueError):
    """Field arrays do not match the grid they are used with."""


class CoverageError(SigmaevoError, ValueError):
    """Trajectory snapshots do not cover the requested space-time region."""


class DataSeriesError(SigmaevoError, ValueError):
    """A time series is unusable for fitting (nonpositive or too short)."""


class ConfigError(SigmaevoError, ValueError):
    """A run configuration failed validation."""
