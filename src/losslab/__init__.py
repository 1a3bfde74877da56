"""Small research stack: classification objectives, an MLP trainer, and
representation / calibration / transfer analysis tools."""

import os

# One BLAS thread per process: at losslab's matrix sizes a second thread
# buys no wall time and doubles the CPU, and every --jobs N worker starts
# from this environment. Set before anything imports numpy; a value the
# user has set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .losses import (  # noqa: E402 - after the thread environment
    DegenerateInputError,
    FinalLayer,
    LossResult,
    LossSpec,
    PenaltySpec,
    compose_loss,
    cosine_softmax_xent,
    dropout_xent,
    eval_scores,
    extra_final_l2_penalty,
    label_smoothing_xent,
    logit_norm_xent,
    logit_penalty_xent,
    sigmoid_bias_init,
    sigmoid_xent,
    softmax_xent,
    squared_error_loss,
)

__all__ = [
    "DegenerateInputError",
    "FinalLayer",
    "LossResult",
    "LossSpec",
    "PenaltySpec",
    "compose_loss",
    "cosine_softmax_xent",
    "dropout_xent",
    "eval_scores",
    "extra_final_l2_penalty",
    "label_smoothing_xent",
    "logit_norm_xent",
    "logit_penalty_xent",
    "sigmoid_bias_init",
    "sigmoid_xent",
    "softmax_xent",
    "squared_error_loss",
]

__version__ = "0.1.0"
