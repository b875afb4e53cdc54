"""Exception types shared across the lab."""


class ThresholdLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ThresholdLabError):
    """An input violated one of the standing model assumptions."""


class DegenerateInputError(ThresholdLabError):
    """An input is degenerate (e.g. an identically zero potential)."""


class BracketError(ThresholdLabError):
    """A root/threshold search failed to bracket a sign change, or a coupling
    has no bound state to solve for."""


class ConvergenceError(ThresholdLabError):
    """An iteration did not meet its stopping rule within its step limit."""


class FitError(ThresholdLabError):
    """A potential fit exceeded its residual tolerance."""


class BasisError(ThresholdLabError):
    """A variational basis is unusable (no overlap direction survives regularization)."""


class HypothesisError(ThresholdLabError):
    """A run would leave the paper's hypotheses (a sweep crossing lambda*)."""


class ConfigError(ThresholdLabError):
    """A configuration file failed to parse or validate."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
