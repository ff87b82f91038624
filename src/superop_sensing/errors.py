"""Exception types shared across the package."""

import numpy as np


class DimensionError(ValueError):
    """Input shapes are inconsistent or out of the allowed range."""


class DegenerateSpectrumError(ValueError):
    """An operator family is numerically degenerate where distinctness is required."""


class AssumptionViolationError(ValueError):
    """A rank assumption needed by a deterministic step does not hold numerically."""

    def __init__(self, message, observed_rank=None):
        super().__init__(message)
        self.observed_rank = observed_rank


class DivergenceError(RuntimeError):
    """An iterative solver produced a non-finite or exploding loss."""


class UndefinedMetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. zero-norm reference)."""


# Failures of the numerics on valid inputs, as opposed to programming errors.
NUMERICAL_ERRORS = (DivergenceError, AssumptionViolationError,
                    DegenerateSpectrumError, UndefinedMetricError,
                    np.linalg.LinAlgError)
