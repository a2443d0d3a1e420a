"""Input-validation helpers with consistent error messages.

Raising early with a precise message is preferred over letting NumPy produce a
shape error several stack frames later; these helpers keep the call sites to a
single readable line.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np


def check_known_keys(
    name: str,
    data: Mapping[str, Any],
    known: Iterable[str],
    *,
    required: Iterable[str] = (),
) -> None:
    """Ensure a ``from_dict`` payload has no unknown and no missing keys.

    All the dict/JSON-buildable dataclasses share this one-line error style,
    so a typo in any config or record file reads the same everywhere.
    """
    known = set(known)
    required = set(required)
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {name} keys: {sorted(unknown)}; known keys: {sorted(known)}"
        )
    missing = required - set(data)
    if missing:
        raise ValueError(
            f"missing {name} keys: {sorted(missing)}; required keys: {sorted(required)}"
        )


def check_integer(name: str, value: Any) -> int:
    """*value* as a Python ``int``, if it is an integer (a NumPy integer
    scalar included) and not a boolean.

    A quoted number in a JSON config (``"2015"``), a fraction or ``true``
    must fail at configuration time with a config error, not as a
    ``TypeError`` mid-run or as a silently truncated size.  A config stores
    the returned ``int``, so it serialises to JSON.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_finite_real(name: str, value: Any) -> float:
    """*value* as a Python ``float``, if it is a finite, non-boolean real
    number (a NumPy integer or floating scalar included)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float, np.integer, np.floating))
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_positive(name: str, value: Any, *, strict: bool = True) -> float:
    """*value* as a float, if it is a finite, non-boolean number that is
    positive (or non-negative when ``strict=False``).

    NaN fails every comparison, so a bare ``value <= 0`` check would pass it
    (and infinity) through to a model that then computes NaN or zeros.
    """
    value = check_finite_real(name, value)
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(
    name: str, value: Any, *, exclusive_upper: bool = False, reason: str = ""
) -> float:
    """*value* as a float, if it is a non-boolean number in ``[0, 1]`` (or
    ``[0, 1)`` with *exclusive_upper*).

    *reason* is appended to the error for invariants whose bound needs a
    domain explanation (e.g. why a loss probability of 1 can never work).
    A quoted number or ``true`` fails here, not as a ``TypeError`` mid-run
    or as a silent 1.0.
    """
    value = check_finite_real(name, value)
    upper_ok = value < 1.0 if exclusive_upper else value <= 1.0
    if not (0.0 <= value and upper_ok):
        bound = "[0, 1)" if exclusive_upper else "[0, 1]"
        suffix = f": {reason}" if reason else ""
        raise ValueError(f"{name} must be within {bound}{suffix}, got {value}")
    return value


def check_finite(name: str, array: np.ndarray) -> np.ndarray:
    """Ensure every element of *array* is finite."""
    array = np.asarray(array)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return array


def check_shape(name: str, array: np.ndarray, shape: Sequence[int | None]) -> np.ndarray:
    """Ensure *array* matches *shape*, where ``None`` entries are wildcards."""
    array = np.asarray(array)
    if array.ndim != len(shape):
        raise ValueError(
            f"{name} must have {len(shape)} dimensions, got {array.ndim} (shape {array.shape})"
        )
    for axis, expected in enumerate(shape):
        if expected is not None and array.shape[axis] != expected:
            raise ValueError(
                f"{name} has shape {array.shape}, expected axis {axis} to be {expected}"
            )
    return array
