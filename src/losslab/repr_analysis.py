"""Representation metrics: CKA, class separation, sparsity, AVH, spectra.

All functions are pure and operate on plain (n, d) matrices; labels are int
vectors in [0, K). Both are checked on entry, through ``losslab.checks``.
The optimized class-separation computation reduces the pairwise sums to
per-class means (O(nd + Kd)); tests hold it against a literal double loop.
"""

from __future__ import annotations

import numpy as np

from .checks import check_choice, check_labels, check_matrix
from .losses import NORM_EPS, DegenerateInputError, FinalLayer

SEPARATION_INDEXES = ("cosine", "cosine_mean_subtracted", "euclidean")


def linear_cka(X, Y) -> float:
    """Linear CKA of two representations of the same rows: cka_matrix's
    off-diagonal entry for the pair."""
    return float(cka_matrix([X, Y])[0, 1])


def cka_matrix(features_list) -> np.ndarray:
    """Linear CKA between every pair of representations, in the feature-space
    form ||Yc' Xc||_F^2 / (||Xc' Xc||_F ||Yc' Yc||_F), columns mean-centered.

    Each representation is checked, and its column mean and ||Xc' Xc||_F
    computed, once; a pair then costs one centering and one product. Only
    two centered copies are alive at a time. A constant representation
    raises DegenerateInputError whose ``index`` is its position in the list.
    """
    mats = [check_matrix(X, "features", min_rows=2) for X in features_list]
    for X in mats[1:]:
        if X.shape[0] != mats[0].shape[0]:
            raise ValueError(
                f"row counts differ: {mats[0].shape[0]} vs {X.shape[0]}")
    means, norms = [], []
    for i, X in enumerate(mats):
        means.append(X.mean(axis=0))
        Xc = X - means[-1]
        norms.append(np.linalg.norm(Xc.T @ Xc))
        if norms[-1] <= NORM_EPS:
            err = DegenerateInputError("constant representation has no CKA")
            err.index = i
            raise err
    m = len(mats)
    M = np.eye(m)
    for i in range(m - 1):
        Xc = mats[i] - means[i]
        for j in range(i + 1, m):
            Yc = mats[j] - means[j]
            num = np.sum((Yc.T @ Xc) ** 2)
            M[i, j] = M[j, i] = num / (norms[i] * norms[j])
    return M


def one_hot_matrix(labels, num_classes=None) -> np.ndarray:
    y, k = check_labels(labels, np.size(labels), num_classes)
    out = np.zeros((y.shape[0], k))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def _normalize_rows(X, sq) -> np.ndarray:
    """X with each row divided by its norm; sq holds the squared norms."""
    norms = np.sqrt(sq)[:, None]
    if np.any(norms <= NORM_EPS):
        raise DegenerateInputError("zero-norm row; cosine distance undefined")
    return X / norms


def _class_sums(X, y, k) -> np.ndarray:
    """Per-class sums of the rows of X (of its entries when X is 1-d), each
    added in row order, so they equal np.add.at's sums bit for bit. A 1-d
    X or a single column goes through np.bincount; wider X takes one axis-0
    sum per class, which numpy adds row after row (it sums a single column
    pairwise)."""
    if X.ndim == 1 or X.shape[1] == 1:
        sums = np.bincount(y, weights=X.reshape(-1), minlength=k)
        return sums.reshape(k, *X.shape[1:])
    return np.stack([X[y == c].sum(axis=0) for c in range(k)])


def class_separation_r2(
    X, labels, index="cosine", num_classes: int | None = None
):
    """One minus within-class over overall mean pairwise distance.

    Pair sums include self-pairs. Classes are weighted 1/(K N_k^2) in the
    numerator and class pairs 1/(K^2 N_j N_k) in the denominator, so the
    whole thing reduces to per-class means:

        cosine:    1 - mean_k(1 - ||m_k||^2) / (1 - ||mean_k m_k||^2)
        euclidean: 1 - mean_k 2(q_k - ||m_k||^2) / 2(mean q_k - ||mean m_k||^2)

    with m_k the class mean (of row-normalized X for cosine indexes) and
    q_k the class mean of squared row norms.

    index may also be a tuple of index names. X and labels are then checked,
    and X's squared row norms (shared by cosine and euclidean) computed,
    once for all of them, and the values come back as a tuple in that
    order, each equal to the single-index call's.
    """
    indexes = (index,) if isinstance(index, str) else tuple(index)
    for ix in indexes:
        check_choice("index", ix, SEPARATION_INDEXES)
    X = check_matrix(X)
    y, k = check_labels(labels, X.shape[0], num_classes)
    counts = np.bincount(y, minlength=k)
    # the per-class means divide by the counts
    if np.any(counts == 0):
        raise ValueError(f"empty classes {np.where(counts == 0)[0].tolist()}")
    sq = np.sum(X * X, axis=1)
    values = tuple(_separation(X, sq, y, k, counts, ix) for ix in indexes)
    return values[0] if isinstance(index, str) else values


def _separation(X, sq, y, k, counts, index) -> float:
    """class_separation_r2 of one index on checked X and labels."""
    if index == "cosine_mean_subtracted":
        X = X - X.mean(axis=0)
        sq = np.sum(X * X, axis=1)
    cosine = index != "euclidean"
    means = _class_sums(_normalize_rows(X, sq) if cosine else X, y, k) / counts[:, None]
    grand = means.mean(axis=0)
    if cosine:
        within = float(np.mean(1.0 - np.sum(means**2, axis=1)))
        overall = 1.0 - float(np.sum(grand**2))
    else:
        q = _class_sums(sq, y, k) / counts
        within = float(np.mean(2.0 * (q - np.sum(means**2, axis=1))))
        overall = 2.0 * (float(np.mean(q)) - float(np.sum(grand**2)))

    if overall <= NORM_EPS:
        raise DegenerateInputError("all rows coincide; separation undefined")
    return float(1.0 - within / overall)


def sparsity_profile(activations) -> np.ndarray:
    """Per layer, the fraction of entries strictly greater than zero."""
    if not activations:
        raise ValueError("need at least one layer")
    out = []
    for i, a in enumerate(activations):
        a = np.asarray(a)
        if a.size == 0:
            raise ValueError(f"layer {i} is empty")
        out.append(float(np.mean(a > 0)))
    return np.array(out)


def angular_visual_hardness(layer: FinalLayer, features, labels) -> np.ndarray:
    """arccos(sim to own class row) over the sum of arccos to all rows."""
    X = check_matrix(np.atleast_2d(features), "features", layer.feature_dim)
    y, _ = check_labels(labels, X.shape[0], layer.num_classes)
    xn = np.linalg.norm(X, axis=1, keepdims=True)
    wn = np.linalg.norm(layer.weights, axis=1, keepdims=True)
    if np.any(xn <= NORM_EPS) or np.any(wn <= NORM_EPS):
        raise DegenerateInputError("zero-norm vector; angles undefined")
    S = np.clip((X / xn) @ (layer.weights / wn).T, -1.0, 1.0)
    A = np.arccos(S)  # (n, K) angles
    denom = A.sum(axis=1)
    if np.any(denom <= NORM_EPS):
        raise DegenerateInputError("all angles zero; AVH undefined")
    return A[np.arange(X.shape[0]), y] / denom


def singular_spectrum(X) -> np.ndarray:
    """Descending singular values of the column-centered matrix."""
    X = check_matrix(X)
    s = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
    return np.sort(s)[::-1]
