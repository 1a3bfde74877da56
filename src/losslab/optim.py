"""In-place Nesterov step on one flat vector, LR schedules, product-form decay.

The momentum update is the "implementation" variant:

    v <- mu * v - eta * g
    p <- p + mu * v - eta * g

done in place as v *= mu; v -= eta*g; p += mu*v; p -= eta*g, which rounds
each element exactly as the two formulas do.

Weight decay is parameterized by the product lambda_tilde = lr * decay, so
its gradient contribution is (lambda_tilde / eta) * p and the per-step
shrink applied to the parameter is lambda_tilde * p regardless of where the
schedule currently is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sgd_nesterov_step(theta, grad, velocity, lr, momentum) -> None:
    """One Nesterov step on flat vectors; theta and velocity change in place."""
    velocity *= momentum
    velocity -= lr * grad
    theta += momentum * velocity
    theta -= lr * grad


def weight_decay_grad(param: np.ndarray, weight_decay_product: float, lr: float):
    """Gradient contribution of decay parameterized as lambda_tilde = lr*decay.

    Adding (lambda_tilde / lr) * p to the gradient makes the plain SGD part
    of the update shrink p by exactly lambda_tilde * p per step.
    """
    if weight_decay_product < 0:
        raise ValueError(
            f"weight_decay_product must be >= 0, got {weight_decay_product}"
        )
    if lr <= 0:
        raise ValueError(f"lr must be > 0 to apply product-form decay, got {lr}")
    return (weight_decay_product / lr) * param


@dataclass(frozen=True)
class CosineSchedule:
    """peak * 0.5 * (1 + cos(pi * step / total_steps)), no restarts."""

    peak_lr: float


@dataclass(frozen=True)
class WarmupExponentialSchedule:
    """Linear 0 -> peak over warmup_epochs, then *decay_per_epoch each epoch.

    The decay is a staircase on whole epochs elapsed past warmup.
    """

    peak_lr: float
    warmup_epochs: float = 10.0
    decay_per_epoch: float = 0.975
    steps_per_epoch: int = 1


def lr_at(schedule, step: int, total_steps: int) -> float:
    if total_steps <= 0:
        raise ValueError(f"total_steps must be > 0, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if isinstance(schedule, CosineSchedule):
        return schedule.peak_lr * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))
    if isinstance(schedule, WarmupExponentialSchedule):
        warm = schedule.warmup_epochs * schedule.steps_per_epoch
        if step < warm:
            return schedule.peak_lr * step / warm
        epochs_past = np.floor((step - warm) / schedule.steps_per_epoch)
        return schedule.peak_lr * schedule.decay_per_epoch**epochs_past
    raise TypeError(f"unknown schedule {type(schedule).__name__}")
