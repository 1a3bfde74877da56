"""Every public array entry point rejects the same bad inputs, through the
shared checks of losslab.checks, and scalar knobs are checked by range."""

import math
import re

import numpy as np
import pytest

from losslab.agreement import agreement_matrix, linkage_dendrogram
from losslab.calibration import ece, fit_temperature, nll, probs_from_logits
from losslab.checks import RANGES, check_labels, check_matrix, check_range
from losslab.data import Batch, make_blob_split, make_blobs
from losslab.losses import (
    FinalLayer,
    LossSpec,
    PenaltySpec,
    compose_loss,
    cosine_softmax_xent,
    dropout_xent,
    eval_scores,
    evaluate,
    label_smoothing_xent,
    logit_norm_xent,
    logit_penalty_xent,
    sigmoid_bias_init,
    sigmoid_xent,
    softmax_xent,
    squared_error_loss,
)
from losslab.mlp import init_mlp
from losslab.probe import ProbeConfig, fit_logreg, sweep_and_retrain
from losslab.repr_analysis import (
    angular_visual_hardness,
    class_separation_r2,
    cka_matrix,
    linear_cka,
    one_hot_matrix,
    singular_spectrum,
)

K = 3  # classes, and also the feature width, so X serves as logits too
LAYER = FinalLayer(np.random.default_rng(1).standard_normal((K, K)), np.ones(K))
PROBE = ProbeConfig(lambda_grid=(1.0,))


def valid_input():
    """(X, y): 12 finite rows of width K, every class present."""
    X = np.random.default_rng(0).standard_normal((12, K))
    return X, np.arange(12) % K


def _sweep_test_split(X, y):
    Xg, yg = valid_input()
    return sweep_and_retrain(Xg, yg, X, y, PROBE, num_classes=K)


def _with_nan(X, y):
    X = X.copy()
    X[3, 1] = np.nan
    return X, y


def _with_label(label):
    def defect(X, y):
        y = y.astype(type(label))
        y[5] = label
        return X, y
    return defect


# defect -> (the bad input made from a valid (X, y), error text)
DEFECTS = {
    "nan_matrix": (_with_nan, "non-finite"),
    "3d_array": (lambda X, y: (X[None], y), "must be 2d"),
    "label_minus_1": (_with_label(-1), "must be >= 0, got -1"),
    "label_K": (_with_label(K), f"must be < {K}"),
    "label_fractional": (_with_label(0.5), "must be whole numbers, got 0.5"),
    "wrong_label_length": (lambda X, y: (X, y[:-1]), "entries for 12 rows"),
}
ALL = tuple(DEFECTS)
MATRIX = ("nan_matrix", "3d_array")

# name -> (call(X, y), the defects it must reject); X is (n, K), y its labels
ENTRY_POINTS = {
    "softmax_xent": (softmax_xent, ALL),
    "label_smoothing_xent": (lambda X, y: label_smoothing_xent(X, y, 0.1), ALL),
    "logit_penalty_xent": (lambda X, y: logit_penalty_xent(X, y, 1e-3), ALL),
    "logit_norm_xent": (lambda X, y: logit_norm_xent(X, y, 0.5), ALL),
    "sigmoid_xent": (sigmoid_xent, ALL),
    "squared_error_loss": (squared_error_loss, ALL),
    "cosine_softmax_xent": (lambda X, y: cosine_softmax_xent(LAYER, X, y, 0.5), ALL),
    "dropout_xent": (lambda X, y: dropout_xent(LAYER, X, y, 0.7, seed=0), ALL),
    "compose_loss": (lambda X, y: compose_loss(LossSpec("softmax"), LAYER, X, y), ALL),
    "evaluate": (lambda X, y: evaluate(LossSpec("softmax"), LAYER, X, y), ALL),
    "eval_scores": (lambda X, y: eval_scores(LossSpec("softmax"), LAYER, X), MATRIX),
    "probs_from_logits": (lambda X, y: probs_from_logits(X, "softmax"), MATRIX),
    "nll": (lambda X, y: nll(np.abs(X), y), ALL),
    "ece": (lambda X, y: ece(np.abs(X), y), ALL),
    "fit_temperature": (fit_temperature, ALL),
    "class_separation_r2": (
        lambda X, y: class_separation_r2(X, y, num_classes=K), ALL),
    "angular_visual_hardness": (
        lambda X, y: angular_visual_hardness(LAYER, X, y), ALL),
    "linear_cka": (lambda X, y: linear_cka(X, valid_input()[0]), MATRIX),
    "cka_matrix": (lambda X, y: cka_matrix([valid_input()[0], X]), MATRIX),
    "singular_spectrum": (lambda X, y: singular_spectrum(X), MATRIX),
    # the row count comes from the labels themselves
    "one_hot_matrix": (lambda X, y: one_hot_matrix(y, K),
                       ("label_minus_1", "label_K", "label_fractional")),
    "fit_logreg": (lambda X, y: fit_logreg(X, y, 0.1, K), ALL),
    "sweep_and_retrain": (
        lambda X, y: sweep_and_retrain(X, y, X, y, PROBE, num_classes=K), ALL),
    "sweep_and_retrain_test_split": (_sweep_test_split, ALL),
    # a (runs, rows) matrix of whole-number predictions made from X.T;
    # there is no class count
    "agreement_matrix": (lambda X, y: agreement_matrix(np.floor(np.abs(X.T) * 2), y),
                         MATRIX + ("label_minus_1", "wrong_label_length",
                                   "label_fractional")),
    "Batch": (lambda X, y: Batch(X, y, K), ALL),
}

CASES = [
    pytest.param(name, defect, id=f"{name}-{defect}")
    for name, (_, defects) in ENTRY_POINTS.items()
    for defect in defects
]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_valid_input_accepted(name):
    ENTRY_POINTS[name][0](*valid_input())


@pytest.mark.parametrize("name, defect", CASES)
def test_bad_input_rejected(name, defect):
    call = ENTRY_POINTS[name][0]
    make, text = DEFECTS[defect]
    with pytest.raises(ValueError, match=text):
        call(*make(*valid_input()))


# functions whose scalar knobs are range-checked on entry
KNOB_CASES = [
    pytest.param(lambda: make_blobs(2, 2, 2, math.nan, 0),
                 "spread must be finite and >= 0", id="make_blobs-spread-nan"),
    pytest.param(lambda: make_blobs(2, 2, 2, math.inf, 0),
                 "spread must be finite and >= 0", id="make_blobs-spread-inf"),
    pytest.param(lambda: make_blobs(0, 2, 2, 1.0, 0),
                 "n_per_class must be >= 1", id="make_blobs-n_per_class"),
    pytest.param(lambda: make_blobs(2, 1, 2, 1.0, 0),
                 "num_classes must be >= 2", id="make_blobs-num_classes"),
    pytest.param(lambda: make_blobs(2, 2, 0, 1.0, 0),
                 "feature_dim must be >= 1", id="make_blobs-feature_dim"),
    pytest.param(lambda: make_blob_split(1, 0, 2, 2, 1.0, 0),
                 "n_eval_per_class must be >= 1", id="make_blob_split-n_eval"),
    pytest.param(lambda: make_blob_split(2, 1, 2, 2, math.nan, 0),
                 "spread must be finite", id="make_blob_split-spread"),
    pytest.param(lambda: init_mlp(0, (4,), 2, np.random.default_rng(0)),
                 "input_dim must be >= 1", id="init_mlp-input_dim"),
    pytest.param(lambda: init_mlp(3, (4, 0), 2, np.random.default_rng(0)),
                 "hidden width must be >= 1", id="init_mlp-width"),
    pytest.param(lambda: init_mlp(3, (4,), 1, np.random.default_rng(0)),
                 "num_classes must be >= 2", id="init_mlp-num_classes"),
    pytest.param(lambda: ece(np.eye(2), [0, 1], n_bins=0),
                 "n_bins must be >= 1", id="ece-n_bins"),
    pytest.param(lambda: fit_logreg(*valid_input(), 0.1, K, tolerance=-1.0),
                 "tolerance must be finite and > 0", id="fit_logreg-tolerance"),
    pytest.param(lambda: fit_logreg(*valid_input(), -1e-12, K),
                 "lam must be finite and >= 0", id="fit_logreg-lam"),
    pytest.param(lambda: sigmoid_bias_init(0),
                 "num_classes must be >= 1", id="sigmoid_bias_init"),
    pytest.param(lambda: dropout_xent(LAYER, *valid_input(), 0.7, n_samples=0, seed=0),
                 "n_samples must be >= 1", id="dropout_xent-n_samples"),
    pytest.param(lambda: PenaltySpec("logit_penalty", math.nan),
                 "penalty value must be finite", id="PenaltySpec-nan"),
    pytest.param(lambda: PenaltySpec("extra_final_l2", -1e-9),
                 "penalty value must be finite", id="PenaltySpec-negative"),
]


@pytest.mark.parametrize("call, text", KNOB_CASES)
def test_bad_knob_rejected(call, text):
    with pytest.raises(ValueError, match=text):
        call()


ONE_COLUMN = np.ones((4, 1))
# inputs that pass the shared array checks but that the function cannot score
VALUE_CASES = [
    pytest.param(lambda: agreement_matrix([[0.4, 1.0], [0.0, 1.0]], [0, 1]),
                 "predictions must be whole numbers, got 0.4",
                 id="agreement_matrix-prediction_fractional"),
    pytest.param(lambda: agreement_matrix([[-1, 1], [0, 1]], [0, 1]),
                 "predictions must be >= 0, got -1",
                 id="agreement_matrix-prediction_minus_1"),
    pytest.param(lambda: probs_from_logits(np.eye(2), "nonsense"),
                 "loss_kind must be one of", id="probs_from_logits-kind"),
    pytest.param(lambda: fit_temperature(np.eye(2), [0, 1], "nonsense"),
                 "loss_kind must be one of", id="fit_temperature-kind"),
    pytest.param(lambda: probs_from_logits(ONE_COLUMN, "softmax"),
                 "classes must be >= 2, got 1", id="probs_from_logits-one_column"),
    pytest.param(lambda: fit_temperature(ONE_COLUMN, np.zeros(4)),
                 "classes must be >= 2, got 1", id="fit_temperature-one_column"),
    pytest.param(lambda: nll(ONE_COLUMN, np.zeros(4)),
                 "classes must be >= 2, got 1", id="nll-one_column"),
    pytest.param(lambda: ece(ONE_COLUMN, np.zeros(4)),
                 "classes must be >= 2, got 1", id="ece-one_column"),
    pytest.param(lambda: linkage_dendrogram([[0, -1, 2], [-1, 0, 3], [2, 3, 0]]),
                 "negative entries", id="linkage_dendrogram-negative"),
]


@pytest.mark.parametrize("call, text", VALUE_CASES)
def test_unscorable_value_rejected(call, text):
    with pytest.raises(ValueError, match=text):
        call()


class TestChecks:
    def test_every_range_rejects_nan(self):
        for valid in RANGES:
            text = re.escape(f"x must be {valid}, got nan")
            with pytest.raises(ValueError, match=text):
                check_range("x", math.nan, valid)

    @pytest.mark.parametrize("valid, inside, outside", [
        ("in [0, 1)", (0.0, 0.5), (1.0, -1e-300)),
        ("in (0, 1)", (1e-300, 0.5), (0.0, 1.0)),
        ("in (0, 1]", (1e-300, 1.0), (0.0, 1.0 + 1e-15)),
        ("finite and >= 0", (0.0, 1e300), (-1e-300, math.inf)),
        ("finite and > 0", (1e-300, 1e300), (0.0, math.inf)),
        ("finite", (-1e300, 1e300), (math.inf, -math.inf)),
        (">= 0", (0, 7), (-1,)),
        (">= 1", (1, 7), (0,)),
        (">= 2", (2, 7), (1,)),
    ])
    def test_range_boundaries(self, valid, inside, outside):
        for v in inside:
            assert check_range("x", v, valid) == v
        for v in outside:
            with pytest.raises(ValueError):
                check_range("x", v, valid)

    def test_matrix_dim_and_rows(self):
        X = check_matrix([[1, 2], [3, 4]], "X", dim=2, min_rows=2)
        assert X.dtype == np.float64 and X.shape == (2, 2)
        with pytest.raises(ValueError, match="X have dim 2, expected 3"):
            check_matrix(X, "X", dim=3)
        with pytest.raises(ValueError, match="X need at least 3 rows, got 2"):
            check_matrix(X, "X", min_rows=3)
        assert check_matrix(np.zeros((0, 2)), min_rows=0).shape == (0, 2)

    def test_labels_infer_k(self):
        y, k = check_labels([2, 0, 1, 2], 4)
        assert y.dtype == np.int64 and k == 3
        assert check_labels([0, 1], 2, num_classes=5)[1] == 5
        assert check_labels([], 0)[1] == 0

    def test_labels_whole_floats_accepted(self):
        y, k = check_labels(np.array([1.0, 0.0, 2.0]), 3)
        assert y.dtype == np.int64 and y.tolist() == [1, 0, 2] and k == 3
        for bad in (np.nan, np.inf, -0.5):
            with pytest.raises(ValueError, match="must be whole numbers"):
                check_labels([0.0, bad], 2)
