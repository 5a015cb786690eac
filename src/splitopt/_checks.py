"""Argument checks: one function, and one message, for each kind of check.

Every module validates its inputs through these, where the input enters.
The range tests are negated (``not 0 < value < inf``), so that NaN fails
them too.  Each function returns the checked value, converted where noted.
"""

import numbers

import numpy as np


def positive(name, value, error=ValueError):
    """``float(value)``; raise ``error`` unless 0 < value < inf."""
    if not 0 < value < np.inf:
        raise error(f"{name} must be positive and finite, got {value}")
    return float(value)


def nonnegative(name, value):
    """``float(value)``; raise ValueError unless 0 <= value < inf."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")
    return float(value)


def integer(name, value, minimum, error=ValueError):
    """``int(value)``; raise ``error`` unless ``value`` is an integer (numpy's
    pass; a float, even an integral one, or NaN does not) of at least ``minimum``."""
    if not (isinstance(value, numbers.Integral) and value >= minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


def finite(name, values, position=int):
    """``values``; raise ValueError unless every entry is finite, showing the
    first three others at ``position(k)``, k the flat index."""
    flat = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        shown = ", ".join(f"{flat[k]} at {position(k)}" for k in bad[:3])
        raise ValueError(f"{name} must be finite, got {bad.size} that are not: "
                         f"{shown}{', ...' if bad.size > 3 else ''}")
    return values


def vector(v, size=None, what=None):
    """``v`` as a flat float array; raise ValueError unless it has ``size``
    entries, when a size is given, naming it ``what``."""
    v = np.asarray(v, dtype=float).ravel()
    if size is not None and v.size != size:
        raise ValueError(f"{what} has {v.size} entries, expected {size}")
    return v
