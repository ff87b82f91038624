"""Exception types shared across the package, and the one rule that
checks a field of a config, a manifest or a public call."""

import numbers
import sys

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


def _is_int(value) -> bool:
    """Whether value is an integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _in_interval(value, interval: str) -> bool:
    """Whether a real lies in `interval`, written like "(0, 1]" or
    "[0, inf)"; NaN, infinities and integers beyond every float lie in
    none."""
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    return (abs(value) <= sys.float_info.max
            and (low < value if interval[0] == "(" else low <= value)
            and (value < high if interval[-1] == ")" else value <= high))


def _check_fields(fields, rules: dict) -> dict:
    """The values of the fields that `rules` names, checked in its order:
    the one field rule of every config, stored manifest and integer
    argument of a public call. A rule is

    - an int: an integer at least that value, returned as int;
    - a str: a finite real in that interval (see `_in_interval`);
    - a tuple: one of its values, matched in type too, so True is not 1.

    A bool is neither an integer nor a real. Raises DimensionError naming
    the first field that is missing or breaks its rule.
    """
    out = {}
    for name, rule in rules.items():
        if name not in fields:
            raise DimensionError(f"{name} is missing")
        value = fields[name]
        if isinstance(rule, tuple):
            if not any(isinstance(value, type(a)) and value == a for a in rule):
                raise DimensionError(f"unknown {name} {value!r}: must be one of {rule}")
        elif isinstance(rule, str):
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not _in_interval(value, rule)):
                raise DimensionError(f"{name} must be a finite real in {rule}, "
                                     f"got {value!r}")
        elif not _is_int(value):
            raise DimensionError(f"{name} must be an integer, got {value!r}")
        elif value < rule:
            raise DimensionError(f"{name} must be an integer >= {rule}, got {value!r}")
        else:
            value = int(value)
        out[name] = value
    return out
