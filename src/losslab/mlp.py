"""Minimal fully-connected ReLU network with a linear classification head.

Parameters live in plain numpy arrays. Layout: hidden layers as (W_i, b_i)
with W_i of shape (width_i, fan_in_i), then a FinalLayer. model_from_params
lays a model over one flat vector, so every array is a view of it.
He-uniform init for weights, constant init for biases (zero, or -log K for
sigmoid specs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import FinalLayer, LossSpec, sigmoid_bias_init


@dataclass
class MlpModel:
    hidden_weights: list  # W_i: (width_i, fan_in_i)
    hidden_biases: list  # b_i: (width_i,)
    final: FinalLayer

    @property
    def input_dim(self) -> int:
        if self.hidden_weights:
            return self.hidden_weights[0].shape[1]
        return self.final.feature_dim

    @property
    def num_classes(self) -> int:
        return self.final.num_classes

    def params(self) -> list:
        """Flat parameter list: hidden (W, b) pairs in order, then final W, b."""
        out = []
        for w, b in zip(self.hidden_weights, self.hidden_biases):
            out.append(w)
            out.append(b)
        out.append(self.final.weights)
        out.append(self.final.bias)
        return out


def model_from_params(template: MlpModel, theta: np.ndarray) -> MlpModel:
    """A model shaped like template whose arrays are views of the flat theta.

    theta holds the parameters in params() order; writing into theta
    updates the returned model.
    """
    views, start = [], 0
    for p in template.params():
        views.append(theta[start : start + p.size].reshape(p.shape))
        start += p.size
    nh = len(template.hidden_weights)
    return MlpModel(views[0 : 2 * nh : 2], views[1 : 2 * nh : 2],
                    FinalLayer(*views[2 * nh :]))


def he_uniform(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    fan_in = shape[1]
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def init_mlp(
    input_dim: int,
    hidden_widths,
    num_classes: int,
    rng: np.random.Generator,
    *,
    final_bias: float = 0.0,
) -> MlpModel:
    if input_dim < 1 or num_classes < 2:
        raise ValueError("need input_dim >= 1 and num_classes >= 2")
    ws, bs = [], []
    fan_in = input_dim
    for width in hidden_widths:
        if width < 1:
            raise ValueError(f"hidden width must be >= 1, got {width}")
        ws.append(he_uniform(rng, (width, fan_in)))
        bs.append(np.zeros(width))
        fan_in = width
    final = FinalLayer(
        he_uniform(rng, (num_classes, fan_in)), np.full(num_classes, final_bias)
    )
    return MlpModel(ws, bs, final)


def init_for_spec(
    input_dim: int,
    hidden_widths,
    num_classes: int,
    spec: LossSpec,
    rng: np.random.Generator,
) -> MlpModel:
    """Spec-aware init: sigmoid heads start at bias -log K."""
    bias = sigmoid_bias_init(num_classes) if spec.kind == "sigmoid" else 0.0
    return init_mlp(input_dim, hidden_widths, num_classes, rng, final_bias=bias)


def forward_hidden(model: MlpModel, X: np.ndarray) -> list:
    """All post-ReLU activations, input included: [X, H_1, ..., H_p]."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(
            f"inputs must be (n, {model.input_dim}), got {np.shape(X)}"
        )
    acts = [X]
    h = X
    for w, b in zip(model.hidden_weights, model.hidden_biases):
        h = np.maximum(h @ w.T + b, 0.0)
        acts.append(h)
    return acts


def penultimate_features(model: MlpModel, X: np.ndarray) -> np.ndarray:
    return forward_hidden(model, X)[-1]
