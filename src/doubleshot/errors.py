"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage/parse problems exit 2, numerical
failures exit 3, resource-cap violations exit 4.
"""


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
