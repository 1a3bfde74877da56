"""What counts as valid input, in one place.

Every public function checks the arrays and scalar knobs it is given here,
once, on entry; the kernels behind it trust their arguments, and a config
knob is a ranged or chosen dataclass field. A value picked by name (a loss
kind, a schedule, an analysis) is held to its tuple of choices by
check_choice, with one message: ``<name> must be one of <choices>, got
<value!r>``, and a key its kind does not read fails check_read. File
formats (the csv loader, activation dumps, the INI's section and key
names) keep their own checks, which name the line, byte offset, section
or key of the bad input.
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


def check_choice(name: str, value, choices: tuple):
    """value, if it is one of choices; else ValueError."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


def ranged(valid: str | None = None, default=MISSING, *, kinds=(), key=None):
    """A dataclass field that check_fields holds to RANGES[valid], if given,
    that only kinds read (kind_fields), and that key names in an INI file
    or loss line where that is not the field's name."""
    facts = {"range": valid, "kinds": kinds, "key": key}
    return field(default=default, metadata={k: v for k, v in facts.items() if v})


def chosen(choices: tuple, default=MISSING):
    """A dataclass field that check_fields holds to one of choices."""
    return field(default=default, metadata={"choices": choices})


def check_fields(obj) -> None:
    """check_range on each ranged field and check_choice on each chosen
    field of the dataclass obj, in field order; a ranged field set to None
    is unset and not checked. A tuple value has each of its entries held to
    the field's rule, and a field annotated as a tuple must hold one."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if "range" in f.metadata and v is not None:
                check_range(f.name, v, f.metadata["range"])
            if "choices" in f.metadata:
                check_choice(f.name, v, f.metadata["choices"])
        if str(f.type).startswith("tuple") and not isinstance(value, tuple):
            raise TypeError(f"{f.name} must be a tuple, got {value!r}")


def kind_fields(cls, kind: str) -> dict:
    """key -> name of each field of the dataclass cls that kind reads, in order."""
    return {f.metadata.get("key", f.name): f.name for f in fields(cls)
            if kind in f.metadata.get("kinds", ())}


def check_read(key: str, kind: str, keys: tuple) -> str:
    """key, if it is one of keys, those kind reads; else ValueError."""
    if key not in keys:
        raise ValueError(
            f"key {key!r} is not read by kind = {kind}; choose from {keys}")
    return key


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
