"""What counts as valid input, in one place.

Every public function checks the arrays and scalar knobs it is given here,
once, on entry; the kernels behind it trust their arguments, and a config
knob is a ranged dataclass field. File formats (the csv loader, activation
dumps) keep their own checks, which name the line or byte offset of the bad
input.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from numbers import Integral

import numpy as np

# each comparison is False on nan, so every range rejects it
RANGES = {
    "in [0, 1)": lambda v: 0.0 <= v < 1.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
    "finite and >= 0": lambda v: 0.0 <= v < math.inf,
    "finite and > 0": lambda v: 0.0 < v < math.inf,
    "finite": math.isfinite,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
}
# ranges of counts, which also take only ints and numpy integers
COUNTS = (">= 0", ">= 1", ">= 2")


def check_range(name: str, value, valid: str):
    """value, if it lies in the range RANGES[valid]; else ValueError."""
    if not RANGES[valid](value):
        raise ValueError(f"{name} must be {valid}, got {value}")
    if valid in COUNTS and not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value}")
    return value


def ranged(valid: str, default=MISSING):
    """A dataclass field that check_fields holds to RANGES[valid]."""
    return field(default=default, metadata={"range": valid})


def check_fields(obj) -> None:
    """check_range on each ranged field of the dataclass obj, in field
    order; a field set to None is unset and not checked."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "range" in f.metadata and value is not None:
            check_range(f.name, value, f.metadata["range"])


def check_matrix(X, name: str = "matrix", dim: int | None = None,
                 min_rows: int = 1) -> np.ndarray:
    """X as a finite (n, d) float64 array, with d == dim and n >= min_rows."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2d, got shape {X.shape}")
    if dim is not None and X.shape[1] != dim:
        raise ValueError(f"{name} have dim {X.shape[1]}, expected {dim}")
    if X.shape[0] < min_rows:
        raise ValueError(f"{name} need at least {min_rows} rows, got {X.shape[0]}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contain non-finite entries")
    return X


def _label_bounds(name: str, lo, hi, num_classes: int | None) -> int:
    """K, if every label lies in [0, K); K is num_classes, or else the
    largest label plus one, if an int64 label can hold it."""
    if lo < 0:
        raise ValueError(f"{name} must be >= 0, got {lo}")
    k = num_classes
    if k is None:
        k = min(int(hi) + 1, np.iinfo(np.int64).max)
    if hi >= k:
        raise ValueError(f"{name} must be < {k} (the class count), got {hi}")
    return k


def check_labels(labels, n: int, num_classes: int | None = None,
                 name: str = "labels") -> tuple:
    """(y, K): labels as an (n,) int64 vector with every entry in [0, K),
    where K is num_classes, or the largest label plus one when None.
    Float labels must hold whole numbers, such as 1.0. The labels are held
    to [0, K) before the cast, so none can wrap around on the way to int64;
    a list or tuple of Python ints is compared as ints, since numpy reads
    one that holds an int past int64 as rounded float64."""
    if (isinstance(labels, (list, tuple)) and 0 < len(labels) == n
            and all(isinstance(v, Integral) for v in labels)):
        _label_bounds(name, min(labels), max(labels), num_classes)
    raw = np.asarray(labels).reshape(-1)
    if raw.dtype.kind == "f":
        whole = np.isfinite(raw) & (raw == np.trunc(raw))
        if not whole.all():
            raise ValueError(
                f"{name} must be whole numbers, got {raw[~whole][0]}")
    if raw.shape != (n,):
        raise ValueError(f"{name} has {raw.shape[0]} entries for {n} rows")
    if not raw.size:
        return raw.astype(np.int64), num_classes or 0
    k = _label_bounds(name, raw.min(), raw.max(), num_classes)
    return raw.astype(np.int64, copy=False), k
