"""Minibatch trainer: Nesterov SGD, LR schedules, decay, EMA, epoch logging.

Fully deterministic for a fixed (model, dataset, config): shuffling and
dropout masks come from independent child streams of SeedSequence(seed).
train() copies the input model's parameters into one flat vector theta and
trains a model whose arrays are views of it, so the Nesterov step, the
product-form decay and the EMA are in-place vector operations. The input
model is never mutated. TrainConfig checks every knob once, so the step
itself checks nothing but finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import top1_predictions
from .checks import check_range, check_ranges
from .data import Batch
from .losses import LossSpec, compose_loss, eval_scores, evaluate, linear_backward
from .mlp import MlpModel, forward_hidden, model_from_params, penultimate_features
from .optim import lr_at, sgd_nesterov_step, weight_decay_grad

SCHEDULE_KINDS = ("cosine", "warmup_exp")

# TrainConfig knob -> checks.RANGES key
_TRAIN_RANGES = {
    "epochs": ">= 0",
    "batch_size": ">= 1",
    "peak_lr": "finite and > 0",
    "warmup_epochs": "finite and >= 0",
    "decay_per_epoch": "finite and > 0",
    "momentum": "in [0, 1)",
    "weight_decay_product": "finite and >= 0",
}


class TrainingDiverged(RuntimeError):
    """Loss or parameters went non-finite mid-run."""


@dataclass(frozen=True)
class TrainConfig:
    loss: LossSpec
    epochs: int
    batch_size: int
    peak_lr: float
    schedule: str = "cosine"
    warmup_epochs: float = 10.0
    decay_per_epoch: float = 0.975
    momentum: float = 0.9
    weight_decay_product: float = 0.0
    ema_momentum: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_ranges(self, _TRAIN_RANGES)
        if self.ema_momentum is not None:
            check_range("ema_momentum", self.ema_momentum, "in [0, 1)")
        if self.schedule not in SCHEDULE_KINDS:
            raise ValueError(
                f"schedule must be one of {SCHEDULE_KINDS}, got {self.schedule!r}"
            )


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    lr: float  # lr of the last step in this epoch
    train_loss: float
    train_acc: float
    holdout_acc: float | None = None


@dataclass
class TrainResult:
    model: MlpModel
    ema_model: MlpModel | None
    log: list = field(default_factory=list)


def loss_and_grads(
    model: MlpModel,
    spec: LossSpec,
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator | None = None,
):
    """Forward + backward through the whole network.

    Returns (value, grads) with grads in model.params() order.
    """
    acts = forward_hidden(model, X)
    H = acts[-1]
    res = compose_loss(spec, model.final, H, y, rng=rng)
    if res.grad_weights is not None:
        g_wf, g_bf, g_h = res.grad_weights, res.grad_bias, res.grad_features
    else:
        g_wf, g_bf, g_h = linear_backward(model.final, H, res.grad_logits)

    nh = len(model.hidden_weights)
    g_hidden_w = [None] * nh
    g_hidden_b = [None] * nh
    delta = g_h
    for i in range(nh - 1, -1, -1):
        delta = delta * (acts[i + 1] > 0)  # ReLU subgradient, 0 at the kink
        g_hidden_w[i] = delta.T @ acts[i]
        g_hidden_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.hidden_weights[i]

    grads = []
    for i in range(nh):
        grads.append(g_hidden_w[i])
        grads.append(g_hidden_b[i])
    grads.append(g_wf)
    grads.append(g_bf)
    return res.value, grads


def train(
    model: MlpModel,
    dataset: Batch,
    config: TrainConfig,
    holdout: Batch | None = None,
) -> TrainResult:
    for name, batch in (("dataset", dataset), ("holdout", holdout)):
        shape = None if batch is None else (batch.dim, batch.num_classes)
        if shape not in (None, (model.input_dim, model.num_classes)):
            raise ValueError(
                f"{name} has {shape[0]} features and {shape[1]} classes, "
                f"model {model.input_dim} and {model.num_classes}"
            )
    spec = config.loss

    ss = np.random.SeedSequence(config.seed)
    shuffle_ss, dropout_ss = ss.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)

    n = dataset.n
    steps_per_epoch = max(1, -(-n // config.batch_size))  # ceil
    total_steps = max(1, config.epochs * steps_per_epoch)

    params = model.params()
    theta = np.concatenate(params, axis=None)
    model = model_from_params(model, theta)
    velocity = np.zeros_like(theta)
    # product-form decay reaches the weight matrices (2-d), not the biases
    decay = np.concatenate([np.full(p.size, p.ndim == 2) for p in params])
    ema_m = config.ema_momentum
    ema = theta.copy() if ema_m is not None else None
    # the epoch log's forward writes each split into leading rows of these,
    # instead of faulting in fresh (n, width) layers every epoch
    rows = max(n, holdout.n if holdout is not None else 0)
    buffers = [np.empty((rows, w.shape[0])) for w in model.hidden_weights]

    log = []
    step = 0
    lr = 0.0
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            lr = float(lr_at(config, step, total_steps, steps_per_epoch))
            value, grads = loss_and_grads(
                model, spec, dataset.features[idx], dataset.labels[idx], dropout_rng
            )
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss at step {step} (kind {spec.kind!r}, lr {lr:g})"
                )
            grad = np.concatenate(grads, axis=None)
            if config.weight_decay_product > 0.0 and lr > 0.0:
                # skipped on lr=0 steps, whose updates are no-ops
                grad[decay] += weight_decay_grad(
                    theta[decay], config.weight_decay_product, lr
                )
            sgd_nesterov_step(theta, grad, velocity, lr, config.momentum)
            # exact: a reduction such as a sum could overflow on finite theta
            if not np.isfinite(theta).all():
                raise TrainingDiverged(
                    f"non-finite parameters after step {step} (kind {spec.kind!r})"
                )
            if ema is not None:
                ema *= ema_m
                ema += (1.0 - ema_m) * theta
            step += 1

        log.append(_epoch_record(model, spec, dataset, holdout, epoch, lr, buffers))

    ema_model = model_from_params(model, ema) if ema is not None else None
    return TrainResult(model=model, ema_model=ema_model, log=log)


def _epoch_record(model, spec, dataset, holdout, epoch, lr, buffers) -> EpochRecord:
    h = penultimate_features(model, dataset.features,
                             [b[: dataset.n] for b in buffers])
    loss, scores = evaluate(spec, model.final, h, dataset.labels)
    acc = float(np.mean(top1_predictions(scores) == dataset.labels))
    hold = None
    if holdout is not None:
        # reuses the train split's buffers, whose features are no longer read
        h = penultimate_features(model, holdout.features,
                                 [b[: holdout.n] for b in buffers])
        hold_scores = eval_scores(spec, model.final, h)
        hold = float(np.mean(top1_predictions(hold_scores) == holdout.labels))
    return EpochRecord(epoch, lr, float(loss), acc, hold)

