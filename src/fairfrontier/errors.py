"""Exception types shared across the package, and the one rule for numbers
that come from outside it.

The CLI maps the exceptions onto exit codes: validation and input problems
exit 2, resource and complexity limits exit 3.
"""

import math
from numbers import Real


class FairFrontierError(Exception):
    """Base class for all package errors."""


class ValidationError(FairFrontierError):
    """A model, distribution, or configuration value is malformed."""


class InputError(FairFrontierError):
    """An operation received arguments outside its domain."""


class ContractError(FairFrontierError):
    """A precondition of an analysis routine does not hold."""


class ResourceError(FairFrontierError):
    """A requested computation exceeds a hard size limit."""


class ComplexityError(ResourceError):
    """A decision region needs more intervals than the caller allowed."""


def _as_float(value) -> float:
    """value as a float, or NaN unless it is a real number that fits one.
    Bools and strings are not numbers: JSON's true and "1" are mistakes."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int too large for a float
        return math.nan


def _number(value, where: str) -> float:
    """value as a finite float; anything else raises ValidationError."""
    x = _as_float(value)
    if not math.isfinite(x):
        raise ValidationError(
            f"{where} must be a finite number, got {value!r}")
    return x


def _whole(value, where: str) -> int:
    """value as an int, refusing fractions instead of truncating them."""
    x = _as_float(value)
    if not (math.isfinite(x) and x.is_integer()):
        raise ValidationError(f"{where} must be a whole number, got {value!r}")
    return int(value)
