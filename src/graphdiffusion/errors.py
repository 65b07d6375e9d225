"""Exception types and the argument check shared across the package."""

import math
import numbers


class InputError(ValueError):
    """Rejected input: bad graph data, invalid parameters, unusable files."""


class ComputeError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


def check_number(value, what, integer=False):
    """Raise InputError for a bool, a non-number, an infinity, or, where
    integer is set, a non-integer. numpy scalars pass; NaN is left to the
    caller's range check."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) or abs(value) == math.inf:
        must = "an integer" if integer else "a finite number"
        raise InputError(f"{what} must be {must}, got {value!r}")
