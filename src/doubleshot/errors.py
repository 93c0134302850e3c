"""Exception taxonomy shared across the package, and the integer, real and
bool checks that every module refuses bad input with.

The CLI maps these onto exit codes: usage/parse problems exit 2, numerical
failures exit 3, resource-cap violations exit 4.
"""
import math
import numbers

import numpy as np

# an integer input (a term index, a count, a seed) is one of these types,
# and not a bool
_INTEGRAL = (int, np.integer)


class InvalidInputError(ValueError):
    """Caller passed something structurally wrong (bad letters, width mismatch...)."""


class ObservableParseError(InvalidInputError):
    """Malformed observable file; carries the offending 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ResourceLimitError(RuntimeError):
    """Dense-simulation qubit cap (or similar hard limit) exceeded."""


class NumericalError(RuntimeError):
    """A numerical routine produced garbage (non-finite integrand, dead chain...)."""


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is neither here."""
    return isinstance(value, _INTEGRAL) and type(value) is not bool


def _require_integer(name: str, value, minimum: int) -> None:
    """Refuse a value that is not an integer or is below minimum."""
    if not _is_integer(value):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")


def _require_real(name: str, value) -> float:
    """value as a float; refuses a bool, a non-real and a value that is not
    finite as a float (an int beyond the float range is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise InvalidInputError(f"{name} must be finite, got {result!r}")
    return result


def _require_bool(name: str, value) -> None:
    """Refuse a value that is not a bool or a numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidInputError(f"{name} must be a bool, got {value!r}")
