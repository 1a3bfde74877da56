"""Datasets: Gaussian blob generator plus a CSV loader.

CSV rows are headerless ``label, feat_1, ..., feat_d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_choice, check_labels, check_matrix, check_range

SPLITS = ("train", "eval")


@dataclass
class Batch:
    """Labeled rows. It holds no class count: a model holds the labels to its K."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64, each >= 0

    def __post_init__(self):
        self.features = check_matrix(self.features, "features", min_rows=0)
        self.labels, _ = check_labels(self.labels, self.n)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        """The largest label plus one, or 0 for no rows."""
        return int(self.labels.max()) + 1 if self.n else 0


def make_blobs(
    n_per_class: int,
    num_classes: int,
    feature_dim: int,
    spread: float,
    seed: int,
) -> Batch:
    """Isotropic Gaussian blobs around standard-normal class means.

    spread=0 collapses every class onto its mean. Classes come out in label
    order (the trainer shuffles); balanced by construction.
    """
    check_range("n_per_class", n_per_class, ">= 1")
    return _draw_blobs((n_per_class,), 0, num_classes, feature_dim, spread, seed)


def draw_blob_split(
    split: str,
    n_train_per_class: int,
    n_eval_per_class: int,
    num_classes: int,
    feature_dim: int,
    spread: float,
    seed: int,
) -> Batch:
    """The "train" or "eval" split of blobs whose classes share one set of
    means: each class's train rows, then its eval rows. Only the requested
    split is kept; its values are those of make_blobs with
    n_train_per_class + n_eval_per_class rows per class, sliced."""
    check_range("n_train_per_class", n_train_per_class, ">= 1")
    check_range("n_eval_per_class", n_eval_per_class, ">= 1")
    return _draw_blobs((n_train_per_class, n_eval_per_class), split_index(split),
                       num_classes, feature_dim, spread, seed)


def split_index(split: str) -> int:
    """0 for "train", 1 for "eval"; ValueError for any other split name."""
    return SPLITS.index(check_choice("split", split, SPLITS))


def _draw_blobs(segments, keep, num_classes, feature_dim, spread, seed) -> Batch:
    """Blobs drawn class by class in the generator's order: the class
    means, then for each class the noise of segments[0] rows, segments[1]
    rows, and so on. Segment keep's rows are kept, and the rest drawn into
    one scratch buffer, so every value matches one draw of all the rows."""
    check_range("num_classes", num_classes, ">= 2")
    check_range("feature_dim", feature_dim, ">= 1")
    check_range("spread", spread, "finite and >= 0")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, feature_dim))
    feats = np.empty((num_classes, segments[keep], feature_dim))
    others = segments[:keep] + segments[keep + 1:]
    dropped = np.empty((max(others, default=0), feature_dim))
    for rows in feats:
        for i, m in enumerate(segments):
            rng.standard_normal(out=rows if i == keep else dropped[:m])
    feats *= spread
    feats += means[:, None, :]
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), segments[keep])
    return Batch(feats.reshape(-1, feature_dim), labels)


def load_csv(path) -> Batch:
    labels = []
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise ValueError(
                        f"{path}: line {lineno}: need label plus >= 1 feature"
                    )
            elif len(parts) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(parts)}"
                )
            try:
                lab = int(parts[0])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: bad label {parts[0]!r}"
                ) from None
            try:
                feats = [float(v) for v in parts[1:]]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad feature value") from None
            if not all(map(math.isfinite, feats)):
                raise ValueError(f"{path}: line {lineno}: non-finite feature value")
            if lab < 0:
                raise ValueError(f"{path}: line {lineno}: negative label")
            labels.append(lab)
            rows.append(feats)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Batch(np.array(rows), np.array(labels, dtype=np.int64))

