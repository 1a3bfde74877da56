"""Cross-model prediction agreement, average-linkage clustering.

agreement_matrix returns the (m, m) array of pairwise agreements of m
prediction vectors, in their order; callers keep their own run names.

Agreement variants:
  same_top1                        equal predictions
  both_correct_or_both_incorrect   matching correctness indicator
  agree_on_mutual_errors           equal predictions among shared mistakes
                                   (NaN when there are no shared mistakes)
"""

from __future__ import annotations

import numpy as np

from .checks import check_choice, check_labels, check_matrix

AGREEMENT_VARIANTS = (
    "same_top1",
    "both_correct_or_both_incorrect",
    "agree_on_mutual_errors",
)


def _pair_agreement(pi, pj, y, variant: str) -> float:
    if variant == "same_top1":
        return float(np.mean(pi == pj))
    if variant == "both_correct_or_both_incorrect":
        return float(np.mean((pi == y) == (pj == y)))
    mutual = (pi != y) & (pj != y)
    if not mutual.any():
        return float("nan")
    return float(np.mean(pi[mutual] == pj[mutual]))


def agreement_matrix(predictions, labels, variant: str = "same_top1") -> np.ndarray:
    """(m, m) symmetric agreement of m prediction vectors, NaN where undefined."""
    check_choice("variant", variant, AGREEMENT_VARIANTS)
    P = check_matrix(predictions, "predictions")
    m, n = P.shape
    preds = check_labels(P, m * n, name="predictions")[0].reshape(m, n)
    y, _ = check_labels(labels, n)
    A = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            A[i, j] = A[j, i] = _pair_agreement(preds[i], preds[j], y, variant)
    return A


def linkage_dendrogram(distance) -> np.ndarray:
    """Agglomerative average-linkage merges.

    Returns an (m-1, 3) array of (cluster_a, cluster_b, height): leaves are
    0..m-1 and the merge at row r creates cluster m+r, as in the usual
    linkage encoding. Average linkage updates by cluster-size weighting:
    d(A+B, C) = (|A| d(A,C) + |B| d(B,C)) / (|A| + |B|).
    """
    D = np.asarray(distance, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"distance must be square, got {D.shape}")
    m = D.shape[0]
    if m < 2:
        raise ValueError("need at least 2 items to cluster")
    if not np.all(np.isfinite(D)):
        raise ValueError("distance matrix has non-finite entries")
    if np.any(D < 0.0):
        raise ValueError(f"distance matrix has negative entries, min {D.min()}")
    if np.max(np.abs(D - D.T)) > 1e-12:
        raise ValueError("distance matrix is not symmetric")
    if np.max(np.abs(np.diag(D))) > 1e-12:
        raise ValueError("distance diagonal must be zero")

    D = D.copy()
    ids = list(range(m))  # current cluster id per active slot
    sizes = [1] * m
    active = list(range(m))  # slot indices still alive
    merges = np.zeros((m - 1, 3))
    for r in range(m - 1):
        # smallest pairwise distance among active slots; ties -> lowest pair
        best = None
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i, j = active[ai], active[aj]
                d = D[i, j]
                if best is None or d < best[0] - 1e-15:
                    best = (d, i, j)
        d, i, j = best
        a, b = sorted((ids[i], ids[j]))
        merges[r] = (a, b, d)
        # merged cluster reuses slot i; average-linkage update
        ni, nj = sizes[i], sizes[j]
        for k in active:
            if k in (i, j):
                continue
            D[i, k] = D[k, i] = (ni * D[i, k] + nj * D[j, k]) / (ni + nj)
        sizes[i] = ni + nj
        ids[i] = m + r
        active.remove(j)
    return merges

