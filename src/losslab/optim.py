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

lr_at reads the schedule straight from a TrainConfig. These functions run
on every step and check nothing: TrainConfig checks every knob once.
"""

from __future__ import annotations

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
    of the update shrink p by exactly lambda_tilde * p per step. lr must be
    > 0; train() skips decay on lr=0 steps.
    """
    return (weight_decay_product / lr) * param


def lr_at(config, step: int, total_steps: int, steps_per_epoch: int) -> float:
    """Learning rate of a TrainConfig's schedule at step of total_steps.

    cosine:      peak * 0.5 * (1 + cos(pi * step / total_steps)), no restarts
    warmup_exp:  linear 0 -> peak over warmup_epochs, then a staircase of
                 *decay_per_epoch per whole epoch elapsed past warmup
    """
    if config.schedule == "cosine":
        return config.peak_lr * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))
    warm = config.warmup_epochs * steps_per_epoch
    if step < warm:
        return config.peak_lr * step / warm
    epochs_past = np.floor((step - warm) / steps_per_epoch)
    return config.peak_lr * config.decay_per_epoch**epochs_past
