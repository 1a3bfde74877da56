"""Minibatch trainer: Nesterov SGD, LR schedules, decay, EMA, epoch logging.

Fully deterministic for a fixed (model, dataset, config, loss, seed); the
config is the recipe every run of a grid shares. Shuffling and dropout
masks come from independent child streams of SeedSequence(seed).
train() copies the input model's parameters into one flat vector theta and
trains a model whose arrays are views of it, so the Nesterov step, the
product-form decay and the EMA are in-place vector operations. The input
model is never mutated. Each TrainConfig knob is one field line that holds
its range, all checked once, so the step itself checks nothing but finiteness.

The epoch log evaluates each split in row blocks of at most LOG_BLOCK_ROWS
rows (a short tail joins the block before it, see _blocks), so its forward
buffers hold one block, not a whole split. Its loss is compose_loss's value
over the whole split to the last bit (losses.loss_rows and loss_value), and
its accuracies are counts of correct rows over the split's size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import top1_predictions
from .checks import check_fields, check_range, chosen, ranged
from .data import Batch
from .losses import LossSpec, compose_loss, eval_scores, loss_rows, loss_value
from .mlp import MlpModel, forward_hidden, model_from_params, penultimate_features
from .optim import lr_at, sgd_nesterov_step, weight_decay_grad

SCHEDULE_KINDS = ("cosine", "warmup_exp")

# rows per block of the epoch log's forward (see _blocks)
LOG_BLOCK_ROWS = 1024


class TrainingDiverged(RuntimeError):
    """Loss or parameters went non-finite mid-run."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = ranged(">= 0")
    batch_size: int = ranged(">= 1")
    peak_lr: float = ranged("finite and > 0")
    schedule: str = chosen(SCHEDULE_KINDS, "cosine")
    warmup_epochs: float = ranged("finite and >= 0", 10.0)
    decay_per_epoch: float = ranged("finite and > 0", 0.975)
    momentum: float = ranged("in [0, 1)", 0.9)
    weight_decay_product: float = ranged("finite and >= 0", 0.0, key="weight_decay")
    ema_momentum: float | None = ranged("in [0, 1)", None)

    def __post_init__(self):
        check_fields(self)


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
    res = compose_loss(spec, model.final, acts[-1], y, rng=rng)
    nh = len(model.hidden_weights)
    grads = [None] * (2 * nh) + [res.grad_weights, res.grad_bias]
    delta = res.grad_features
    for i in range(nh - 1, -1, -1):
        delta = delta * (acts[i + 1] > 0)  # ReLU subgradient, 0 at the kink
        grads[2 * i] = delta.T @ acts[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.hidden_weights[i]
    return res.value, grads


def train(model: MlpModel, dataset: Batch, config: TrainConfig,
          holdout: Batch | None = None, *, loss: LossSpec, seed: int) -> TrainResult:
    check_range("seed", seed, ">= 0")
    for name, batch in (("dataset", dataset), ("holdout", holdout)):
        # a split may lack the top classes, never go past the model's
        if batch is not None and (batch.dim != model.input_dim
                                  or batch.num_classes > model.num_classes):
            raise ValueError(
                f"{name} has {batch.dim} features and {batch.num_classes} "
                f"classes, model {model.input_dim} and {model.num_classes}"
            )
    ss = np.random.SeedSequence(seed)
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
    # the epoch log's forward writes each row block of a split into the
    # leading rows of these, instead of faulting in fresh layers every
    # epoch; they hold the largest block of either split
    rows = max(b.stop - b.start for split in (dataset, holdout)
               if split is not None for b in _blocks(split.n))
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
                model, loss, dataset.features[idx], dataset.labels[idx], dropout_rng
            )
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss at step {step} (kind {loss.kind!r}, lr {lr:g})"
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
                    f"non-finite parameters after step {step} (kind {loss.kind!r})"
                )
            if ema is not None:
                ema *= ema_m
                ema += (1.0 - ema_m) * theta
            step += 1

        log.append(_epoch_record(model, loss, dataset, holdout, epoch, lr, buffers))

    ema_model = model_from_params(model, ema) if ema is not None else None
    return TrainResult(model=model, ema_model=ema_model, log=log)


def _blocks(n: int, cap: int = LOG_BLOCK_ROWS) -> list:
    """Row slices that cover range(n) in order, cap rows each, except that
    a tail of fewer than cap // 2 rows joins the block before it. A block of
    a hundred rows or so can take another BLAS kernel than the whole split
    and change the last bits of its features; no block is that short unless
    the split is."""
    starts = list(range(0, n, cap)) or [0]
    if len(starts) > 1 and n - starts[-1] < cap // 2:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _block_features(model, batch, buffers):
    """(penultimate features, labels) of each row block of batch, in order;
    the features of a block are overwritten by the next one's."""
    for rows in _blocks(batch.n):
        out = [b[: rows.stop - rows.start] for b in buffers]
        yield (penultimate_features(model, batch.features[rows], out),
               batch.labels[rows])


def _accuracy(hits: int, n: int) -> float:
    """hits / n; nan for an empty split, as np.mean of no rows gives."""
    return float(np.divide(hits, n))


def _hits(scores, labels) -> int:
    return int(np.count_nonzero(top1_predictions(scores) == labels))


def _epoch_record(model, spec, dataset, holdout, epoch, lr, buffers) -> EpochRecord:
    values, squares, hits = [], [], 0
    for h, y in _block_features(model, dataset, buffers):
        v, sq, scores = loss_rows(spec, model.final, h, y)
        values.append(v)
        squares.append(sq)
        hits += _hits(scores, y)
    hold = None
    if holdout is not None:
        # reuses the train split's buffers, whose features are no longer read
        hold = _accuracy(sum(_hits(eval_scores(spec, model.final, h), y)
                             for h, y in _block_features(model, holdout, buffers)),
                         holdout.n)
    return EpochRecord(epoch, lr, loss_value(spec, model.final, values, squares),
                       _accuracy(hits, dataset.n), hold)
