"""Exception types shared across the library, and the two number rules every module uses.

Two families, matching the CLI exit-code discipline: ConfigError and its
subclasses mean the caller handed us something invalid (exit code 1), while
EstimationError and its subclasses mean a computation failed at runtime on
valid input (exit code 2). A rule names only its field: ``field: rule, got value``.
"""

from __future__ import annotations

import math


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


def check_positive(value, field: str) -> None:
    """Reject a value that is not a finite number above 0 (NaN included), naming the field."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{field}: must be finite and positive, got {value!r}")


def check_non_negative(value, field: str) -> None:
    """Reject a value that is not a finite number of at least 0 (NaN included), naming the field."""
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"{field}: must be finite and non-negative, got {value!r}")
