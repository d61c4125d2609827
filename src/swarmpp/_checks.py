"""The one integer check and the one real check of every numeric input."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


def integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """A value of any integer type as a Python int, so that it serialises and
    digests as the int; a bool (numpy's too), a non-integer or a value below
    `lo` or above `hi` is refused by name."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if lo is not None and operator.index(value) < lo:
        raise ValueError(f"{name} must be at least {lo}, got {value!r}")
    if hi is not None and operator.index(value) > hi:
        raise ValueError(f"{name} must be at most {hi}, got {value!r}")
    return operator.index(value)


def real(value, name: str) -> float:
    """A finite value of any real type as a Python float, so that it
    serialises and equals itself; a bool (numpy's too), a non-real, nan, an
    infinity or an int past the largest double is refused by name."""
    # float and int are Reals; naming them first spares the common case the ABC's lookup
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (float, int, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int such as 10**400
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x
