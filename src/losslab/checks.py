"""What counts as valid input, in one place.

Every public function checks the arrays and scalar knobs it is given here,
once, on entry; the kernels behind it trust their arguments. File formats
(the csv and idx loaders, activation dumps) keep their own checks, which
name the line or byte offset of the bad input.
"""

from __future__ import annotations

import math

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


def check_range(name: str, value, valid: str):
    """value, if it lies in the range RANGES[valid]; else ValueError."""
    if not RANGES[valid](value):
        raise ValueError(f"{name} must be {valid}, got {value}")
    return value


def check_ranges(obj, table: dict) -> None:
    """check_range on each attribute of obj that table names."""
    for name, valid in table.items():
        check_range(name, getattr(obj, name), valid)


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


def check_labels(labels, n: int, num_classes: int | None = None,
                 name: str = "labels") -> tuple:
    """(y, K): labels as an (n,) int64 vector with every entry in [0, K),
    where K is num_classes, or the largest label plus one when None.
    Float labels must hold whole numbers, such as 1.0."""
    raw = np.asarray(labels)
    if raw.dtype.kind == "f":
        flat = raw.reshape(-1)
        whole = np.isfinite(flat) & (flat == np.trunc(flat))
        if not whole.all():
            raise ValueError(
                f"{name} must be whole numbers, got {flat[~whole][0]}")
    y = raw.astype(np.int64, copy=False).reshape(-1)
    if y.shape != (n,):
        raise ValueError(f"{name} has {y.shape[0]} entries for {n} rows")
    if not y.size:
        return y, num_classes or 0
    lo, hi = y.min(), y.max()
    if lo < 0:
        raise ValueError(f"{name} must be >= 0, got {lo}")
    k = int(hi) + 1 if num_classes is None else num_classes
    if hi >= k:
        raise ValueError(f"{name} must be < {k} (the class count), got {hi}")
    return y, k
