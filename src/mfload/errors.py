"""Exception types shared across the library.

Two families, matching the CLI exit-code discipline: ConfigError and its
subclasses mean the caller handed us something invalid (exit code 1), while
EstimationError and its subclasses mean a computation failed at runtime on
valid input (exit code 2).
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration value or failed input validation."""


class InsufficientDataError(ConfigError):
    """Series or sample set is too short for the requested computation."""


class EstimationError(RuntimeError):
    """A numerical estimation failed on otherwise valid input."""


class DegenerateSeriesError(EstimationError):
    """The series has no usable fluctuation structure (constant input, say)."""


class CalibrationError(EstimationError):
    """Calibration search exhausted its budget without meeting tolerance.

    Carries the best candidate found so the caller can inspect how close
    the search got.
    """

    def __init__(self, message, best_meta=None, measured=None, residuals=None):
        super().__init__(message)
        self.best_meta = best_meta
        # (hurst, delta_h) actually measured for the best candidate
        self.measured = measured
        # (hurst error, delta_h error) against the targets
        self.residuals = residuals
