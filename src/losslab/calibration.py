"""Prediction-level evaluation: probabilities, accuracy, NLL, ECE, and
post-hoc temperature scaling.

Every public function takes scores, never probabilities: a finite (n, K)
array with K >= 2, labels in [0, K) and a loss kind from
``losses.LOSS_KINDS``, checked once, on entry, through ``losslab.checks``.
Probabilities are softmax rows for every kind except sigmoid, whose
per-class sigmoids are renormalized by the row sum. ece and
fit_temperature bin them with the unchecked _report, and the temperature
search calls the unchecked _probs and _nll. ECE uses ECE_BINS = 15
equal-width right-closed bins on (0, 1]; confidence 0 lands in bin 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import check_choice, check_labels, check_matrix, check_range
from .losses import LOSS_KINDS, row_max, sigmoid, softmax_rows

PROB_CLAMP = 1e-12
ECE_BINS = 15


@dataclass
class CalibrationBin:
    lower: float
    upper: float
    count: int
    accuracy: float | None
    mean_confidence: float | None


@dataclass
class CalibrationReport:
    nll: float
    ece: float
    temperature: float | None = None
    bins: list = field(default_factory=list)


def _checked(scores, labels=None, loss_kind="softmax") -> tuple:
    """(L, y): scores as a finite (n, K) matrix with K >= 2 (a (K,) row is
    n = 1) and labels as n ints in [0, K), or None without labels; and
    loss_kind one of LOSS_KINDS."""
    check_choice("loss_kind", loss_kind, LOSS_KINDS)
    L = check_matrix(np.atleast_2d(scores), "logits")
    check_range("classes", L.shape[1], ">= 2")
    return L, None if labels is None else check_labels(labels, *L.shape)[0]


def probs_from_logits(logits, loss_kind: str) -> np.ndarray:
    """(n, K) probabilities: normalized sigmoids for "sigmoid", else softmax."""
    return _probs(_checked(logits, loss_kind=loss_kind)[0], loss_kind)


def _probs(L: np.ndarray, loss_kind: str) -> np.ndarray:
    """probs_from_logits on a finite 2-d float64 L, without the checks."""
    if loss_kind == "sigmoid":
        s = sigmoid(L)
        denom = s.sum(axis=1, keepdims=True)
        # a row whose sigmoids sum below the normal range (every logit under
        # about -708) holds e^l up to underflow, since 1 + e^l rounds to 1;
        # its normalized value is softmax(l), computed without underflow
        low = denom[:, 0] < np.finfo(np.float64).tiny
        if low.any():
            s[low] = softmax_rows(L[low])
            denom[low] = 1.0
        return s / denom
    return softmax_rows(L)


def top1_predictions(scores) -> np.ndarray:
    # first maximum wins, i.e. ties resolve to the lower class index
    return np.argmax(np.atleast_2d(scores), axis=1)


def _nll(P: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood of labels y under probabilities P."""
    picked = np.clip(P[np.arange(P.shape[0]), y], PROB_CLAMP, None)
    return float(np.mean(-np.log(picked)))


def ece(scores, labels, loss_kind: str = "softmax") -> CalibrationReport:
    """NLL, ECE and bins of probs_from_logits(scores, loss_kind) against labels."""
    L, y = _checked(scores, labels, loss_kind=loss_kind)
    return _report(_probs(L, loss_kind), y)


def _report(P: np.ndarray, y: np.ndarray) -> CalibrationReport:
    """ece's binning on probabilities P and labels y, without the checks."""
    n = P.shape[0]
    conf = row_max(P)[:, 0]
    correct = top1_predictions(P) == y
    # right-closed bins on (0, 1]; conf 0 goes to the first bin
    idx = np.clip(np.ceil(conf * ECE_BINS).astype(int) - 1, 0, ECE_BINS - 1)

    bins = []
    total = 0.0
    for b in range(ECE_BINS):
        mask = idx == b
        count = int(mask.sum())
        lo, hi = b / ECE_BINS, (b + 1) / ECE_BINS
        if count == 0:
            bins.append(CalibrationBin(lo, hi, 0, None, None))
            continue
        acc = float(np.mean(correct[mask]))
        mc = float(np.mean(conf[mask]))
        total += count / n * abs(acc - mc)
        bins.append(CalibrationBin(lo, hi, count, acc, mc))
    return CalibrationReport(nll=_nll(P, y), ece=float(total), bins=bins)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LOG_T_TOL = 1e-6  # the search stops when the log T bracket is this narrow


def fit_temperature(
    logits, labels, loss_kind: str = "softmax"
) -> tuple[float, CalibrationReport]:
    """Golden-section search for T minimizing NLL of probs(logits / T).

    The search runs on log T over [-5, 5]; NLL in log T is unimodal for
    fixed logits. Returns (T, post-scaling report with temperature set).
    """
    L, y = _checked(logits, labels, loss_kind=loss_kind)

    # L and y are checked once, here; a logit that overflows once divided
    # by T gives a non-finite NLL below
    def f(u: float) -> float:
        v = _nll(_probs(L / math.exp(u), loss_kind), y)
        if not math.isfinite(v):
            raise RuntimeError(f"non-finite NLL at log T = {u:g}")
        return v

    a, b = -5.0, 5.0
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > LOG_T_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    u = (a + b) / 2.0
    T = math.exp(u)
    report = _report(_probs(L / T, loss_kind), y)
    report.temperature = T
    return T, report
