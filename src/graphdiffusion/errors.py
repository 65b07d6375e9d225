"""Exception types and the argument check shared across the package."""

import math
import numbers


class InputError(ValueError):
    """Rejected input: bad graph data, invalid parameters, unusable files."""


class ComputeError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


RANGES = {"positive": lambda x: x > 0,
          "non-negative": lambda x: x >= 0,
          "in (0, 1)": lambda x: 0 < x < 1}


def check_number(value, what, integer=False, must=None):
    """Raise InputError unless value is a number of the kind and range asked.

    A bool, a non-number, an infinity or, where integer is set, a
    non-integer fails as "{what} must be a finite number" (or "an integer"),
    quoting the value with repr. must names one of RANGES: 'positive',
    'non-negative' or 'in (0, 1)'; a value outside it fails as
    "{what} must be {must}, got {value}". NaN fails every range. numpy
    scalars pass like the Python numbers they stand for.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) or abs(value) == math.inf:
        kind_name = "an integer" if integer else "a finite number"
        raise InputError(f"{what} must be {kind_name}, got {value!r}")
    if must is not None and not RANGES[must](value):
        raise InputError(f"{what} must be {must}, got {value}")
