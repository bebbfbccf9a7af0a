"""Argument validation helpers.

All public entry points validate their inputs through these functions so
error messages are consistent and tests can assert on them.  Validators
return the (possibly coerced) value so they can be used inline::

    X = check_array_2d(X, "X")
    y = check_binary_labels(y, n_rows=X.shape[0])
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

Number = Union[int, float]


def check_positive(value: Number, name: str, *, strict: bool = True) -> Number:
    """Require ``value > 0`` (or ``>= 0`` when *strict* is False)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    value: Number,
    name: str,
    low: Optional[Number] = None,
    high: Optional[Number] = None,
    *,
    inclusive: bool = True,
) -> Number:
    """Require ``low <= value <= high`` (or strict inequalities)."""
    if low is not None:
        ok = value >= low if inclusive else value > low
        if not ok:
            op = ">=" if inclusive else ">"
            raise ValueError(f"{name} must be {op} {low}, got {value!r}")
    if high is not None:
        ok = value <= high if inclusive else value < high
        if not ok:
            op = "<=" if inclusive else "<"
            raise ValueError(f"{name} must be {op} {high}, got {value!r}")
    return value


def check_probability(value: Number, name: str) -> float:
    """Require a probability in [0, 1]."""
    return float(check_in_range(value, name, 0.0, 1.0))


def check_array_2d(
    X: object, name: str = "X", *, dtype: np.dtype = np.float64, min_rows: int = 0
) -> np.ndarray:
    """Coerce *X* to a C-contiguous 2-D float array; reject NaN/inf."""
    arr = np.ascontiguousarray(X, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < min_rows:
        raise ValueError(
            f"{name} needs at least {min_rows} row(s), got {arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_binary_labels(
    y: object, name: str = "y", *, n_rows: Optional[int] = None
) -> np.ndarray:
    """Coerce labels to an int8 vector of {0, 1}."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ValueError(
            f"{name} length {arr.shape[0]} does not match n_rows={n_rows}"
        )
    if ((arr != 0) & (arr != 1)).any():
        raise ValueError(
            f"{name} must contain only 0/1 labels, got values {np.unique(arr)}"
        )
    return arr.astype(np.int8, copy=False)


def check_feature_count(X: np.ndarray, expected: int, name: str = "X") -> np.ndarray:
    """Require that *X* has *expected* columns (model/feature agreement)."""
    if X.shape[1] != expected:
        raise ValueError(
            f"{name} has {X.shape[1]} feature(s); the model was built with {expected}"
        )
    return X


def check_monotonic(values: Sequence[Number], name: str) -> np.ndarray:
    """Require a non-decreasing sequence (used for timestamps)."""
    arr = np.asarray(values)
    if arr.size > 1 and np.any(np.diff(arr) < 0):
        raise ValueError(f"{name} must be non-decreasing")
    return arr
