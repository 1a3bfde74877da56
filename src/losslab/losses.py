"""Classification objectives with exact analytic gradients.

Nine training objectives over the final layer, each built from three
kinds of part, each written once:

* **Heads** map features to scores and chain dL/dscores back to (dW, db,
  dX): the linear head W x + b, the cosine head sim(W_k, x)/tau + b_k,
  and the dropout head (the linear head on Bernoulli-masked features).
* **Score losses** give per-row values and gradients wrt the scores:
  softmax, smoothed, logit-norm and sigmoid cross-entropy (values in the
  cancellation-free form of ``softmax_xent_rows``), and squared error.
* **Penalties**: beta ||z||^2 on the head's clean scores, and
  (lambda/2) ||W||^2. logit_penalty is softmax plus beta, extra_final_l2
  softmax plus lambda.

``LOSS_PARAMS`` lists each kind's parameters once; ``LossSpec``, the
public objective functions and ``config``'s loss lines read it. Inputs
are validated once, by the public functions, through ``losslab.checks``;
the kernels behind them trust their arguments. Everything is plain numpy
and deterministic (dropout takes an explicit seed or Generator).

Conventions used throughout:

* ``logits`` is ``(K,)`` for a single example or ``(n, K)`` for a batch;
  ``target`` is an int or an ``(n,)`` int array of class indices.
* ``value`` is the mean per-example loss. ``grad_logits`` is the gradient
  of that mean with respect to the score matrix the score loss consumes
  (so batching divides per-example rows by n).
* ``compose_loss`` also returns the whole final-layer backward for every
  spec: total gradients with respect to the final-layer weights and bias
  and the input features. The objective functions that take logits
  return ``grad_logits`` only.
* ``loss_rows`` gives ``compose_loss``'s value in per-row pieces, without
  a backward, so a batch can be evaluated in row blocks; ``loss_value``
  turns the blocks' pieces into the value of the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .checks import check_labels, check_matrix, check_range

NORM_EPS = 1e-12

# kind -> ((name in a loss line, LossSpec field, checks.RANGES key), ...)
LOSS_PARAMS = {
    "softmax": (),
    "label_smoothing": (("alpha", "alpha", "in [0, 1)"),),
    "dropout": (("keep_prob", "keep_prob", "in (0, 1]"),),
    "extra_final_l2": (("lambda", "lambda_final", "finite and >= 0"),),
    "logit_penalty": (("beta", "beta", "finite and >= 0"),),
    "logit_norm": (("temperature", "temperature", "finite and > 0"),),
    "cosine_softmax": (("temperature", "temperature", "finite and > 0"),),
    "sigmoid": (),
    "squared_error": (
        ("kappa", "kappa", "finite and > 0"),
        ("target_magnitude", "target_magnitude", "finite"),
        ("loss_scale", "loss_scale", "finite and > 0"),
    ),
}

LOSS_KINDS = tuple(LOSS_PARAMS)

PENALTY_KINDS = ("logit_penalty", "extra_final_l2")


class DegenerateInputError(ValueError):
    """A vector that must be normalized has (near-)zero norm."""


@dataclass(frozen=True)
class FinalLayer:
    """Linear classification head: scores = weights @ x + bias."""

    weights: np.ndarray  # (K, M)
    bias: np.ndarray  # (K,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2d (K, M), got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise ValueError(
                f"bias shape {b.shape} does not match {w.shape[0]} classes"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("final layer has non-finite entries")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class PenaltySpec:
    """Additive regularizer attached to a base objective."""

    kind: str  # "logit_penalty" or "extra_final_l2"
    value: float

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        check_range("penalty value", self.value, "finite and >= 0")


@dataclass(frozen=True)
class LossSpec:
    """A base objective plus optional additive penalties.

    Only the fields ``LOSS_PARAMS`` lists for ``kind`` are read;
    constructing a spec with out-of-range values for its own kind raises
    immediately so config typos fail fast rather than training quietly
    with defaults.
    """

    kind: str
    alpha: float = 0.1  # label_smoothing
    keep_prob: float = 0.7  # dropout
    lambda_final: float = 8e-4  # extra_final_l2
    beta: float = 6e-4  # logit_penalty
    temperature: float = 0.05  # logit_norm / cosine_softmax
    kappa: float = 1.0  # squared_error: weight on the target term
    target_magnitude: float = 1.0  # squared_error: desired target logit
    loss_scale: float = 1.0  # squared_error: overall multiplier
    extra_penalties: tuple[PenaltySpec, ...] = ()

    def __post_init__(self):
        if self.kind not in LOSS_PARAMS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        for _, name, valid in LOSS_PARAMS[self.kind]:
            check_range(name, getattr(self, name), valid)
        object.__setattr__(self, "extra_penalties", tuple(self.extra_penalties))


@dataclass
class LossResult:
    """Value and gradients of one objective evaluation.

    ``grad_weights``/``grad_bias``/``grad_features`` are total gradients of
    ``value``. Results that involve the final layer (``compose_loss`` and
    the functions built on it) fill all three for every spec; the
    functions that take logits fill only ``grad_logits``.
    """

    value: float
    grad_logits: np.ndarray
    grad_weights: np.ndarray | None = None
    grad_bias: np.ndarray | None = None
    grad_features: np.ndarray | None = None


# ---------------------------------------------------------------------------
# numerically careful primitives


def row_max(a: np.ndarray) -> np.ndarray:
    """np.max(a, axis=-1, keepdims=True), taken over the leading axis of a
    contiguous transposed copy, i.e. as an elementwise maximum of whole
    rows. On a 1000 x 10 matrix that is about 4x faster than the last-axis
    reduction, and it picks the same values; only a zero maximum tied
    between +0.0 and -0.0 may take the other sign, which leaves exp(l - m)
    unchanged. (Transposing makes argmax slower, so argmax does not.)"""
    return np.ascontiguousarray(a.T).max(axis=0).T[..., None]


def logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(l))) with max subtraction."""
    m = row_max(logits)
    return (m + np.log(np.sum(np.exp(logits - m), axis=-1, keepdims=True)))[..., 0]


def softmax_xent_rows(scores: np.ndarray, target: np.ndarray):
    """Row-wise cross-entropy and softmax of an (n, K) score matrix, in one pass.

    Returns (values, P, m, tail): m is the row max, tail = log1p(sum over
    k != argmax of exp(z_k - m)), values = (m - z_t) + tail is
    logsumexp(z) - z_t, and P the softmax rows. Both terms of a value are
    >= 0, so a near-certain row keeps its tiny loss instead of losing it
    to cancellation, and log1p keeps every digit of a tiny tail.
    """
    rows = np.arange(scores.shape[0])
    top = np.argmax(scores, axis=1)
    m = scores[rows, top]
    e = np.exp(scores - m[:, None])
    P = e / np.sum(e, axis=1, keepdims=True)
    e[rows, top] = 0.0
    tail = np.log1p(np.sum(e, axis=1))
    return (m - scores[rows, target]) + tail, P, m, tail


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    m = row_max(logits)
    e = np.exp(logits - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # never overflows
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_bias_init(num_classes: int) -> float:
    """Bias so an all-zero-logit sigmoid model starts near chance mass 1/K."""
    check_range("num_classes", num_classes, ">= 1")
    return -float(np.log(num_classes))


# ---------------------------------------------------------------------------
# heads: features -> scores, and dL/dscores -> (dW, db, dX)


def linear_scores(layer: FinalLayer, X: np.ndarray) -> np.ndarray:
    return X @ layer.weights.T + layer.bias


def linear_backward(layer: FinalLayer, X: np.ndarray, G: np.ndarray) -> tuple:
    """(dW, db, dX) of the linear head's scores X W^T + b, given dL/dscores G."""
    return G.T @ X, G.sum(axis=0), G @ layer.weights


def _cosine_head(layer: FinalLayer, X: np.ndarray, temperature: float):
    """Scores z_k = sim(W_k, x)/tau + b_k, and their backward.

    The backward chains through the cosine:
      ds_k/dx   = W_k/(||W_k|| ||x||) - s_k x/||x||^2
      ds_k/dW_k = x/(||W_k|| ||x||) - s_k W_k/||W_k||^2
    """
    W = layer.weights
    xn = np.linalg.norm(X, axis=1, keepdims=True)  # (n, 1)
    wn = np.linalg.norm(W, axis=1, keepdims=True)  # (K, 1)
    if np.any(xn <= NORM_EPS):
        raise DegenerateInputError("feature vector norm is ~0; cosine undefined")
    if np.any(wn <= NORM_EPS):
        raise DegenerateInputError("class weight vector norm is ~0; cosine undefined")
    Xh = X / xn
    Wh = W / wn
    S = Xh @ Wh.T  # (n, K) cosines

    def backward(G):
        GS = G / temperature  # dL/dS
        # dL/dx_i = sum_k GS_ik (Wh_k / ||x_i|| - S_ik x_i / ||x_i||^2)
        dX = (GS @ Wh) / xn - (np.sum(GS * S, axis=1, keepdims=True) / (xn * xn)) * X
        # dL/dW_k = sum_i GS_ik (Xh_i / ||W_k|| - S_ik W_k / ||W_k||^2)
        col = np.sum(GS * S, axis=0)[:, None]  # (K, 1)
        dW = (GS.T @ Xh) / wn - col * W / (wn * wn)
        return dW, G.sum(axis=0), dX

    return S / temperature + layer.bias, backward


def _dropout_head(layer, X, keep_prob: float, s: int, rng: np.random.Generator):
    """The linear head on s maskings x * mask / keep_prob of X, stacked as rows.

    Its feature gradient chains through the masks back onto X.
    """
    n, M = X.shape
    masks = rng.random((s, n, M)) < keep_prob
    Xt = (X * masks / keep_prob).reshape(s * n, M)

    def backward(G):
        dW, db, dXt = linear_backward(layer, Xt, G)
        return dW, db, np.sum(dXt.reshape(s, n, M) * masks, axis=0) / keep_prob

    return linear_scores(layer, Xt), backward


def _clean_head(spec: LossSpec, layer: FinalLayer, X: np.ndarray):
    """The spec's mask-free head: cosine for cosine_softmax, else linear."""
    if spec.kind == "cosine_softmax":
        return _cosine_head(layer, X, spec.temperature)
    return linear_scores(layer, X), partial(linear_backward, layer, X)


# ---------------------------------------------------------------------------
# score losses: per-row values and per-row gradients wrt the scores, read
# off the spec; the callers average over rows, so they divide by n


def _softmax_ce(Z, t, spec=None):
    """-z_t + logsumexp(z); gradient softmax(z) - onehot."""
    values, G, _, _ = softmax_xent_rows(Z, t)
    G[np.arange(Z.shape[0]), t] -= 1.0
    return values, G


def _smoothed_ce(Z, t, spec):
    """Smoothed CE as (lse(z) - z_t) + alpha/(1-alpha) (lse(z) - mean(z)).

    Both terms are >= 0, each split into max and log1p tail as in
    softmax_xent_rows. Gradient c softmax(z) - onehot - alpha c / K, with
    c = 1/(1-alpha).
    """
    K, alpha = Z.shape[1], spec.alpha
    c = 1.0 / (1.0 - alpha)
    values, G, m, tail = softmax_xent_rows(Z, t)
    values += alpha * c * ((m - Z.mean(axis=1)) + tail)
    G *= c
    G[np.arange(Z.shape[0]), t] -= 1.0
    G -= alpha * c / K
    return values, G


def _unit_logits(L, temperature: float):
    """Direction-only logits l / (tau ||l||), and the norms r = ||l||."""
    r = np.linalg.norm(L, axis=1, keepdims=True)
    if np.any(r <= NORM_EPS):
        raise DegenerateInputError("logit vector norm is ~0; cannot normalize")
    return L / (temperature * r), r


def _logit_norm_ce(L, t, spec):
    """Softmax CE at u = l / (tau r), r = ||l||.

    Chained back to l: (g - (l.g / r^2) l) / (tau r), g the CE gradient at u.
    """
    U, r = _unit_logits(L, spec.temperature)
    values, g = _softmax_ce(U, t)
    coef = np.sum(L * g, axis=1, keepdims=True) / (r * r)
    return values, (g - coef * L) / (spec.temperature * r)


def _sigmoid_ce(Z, t, spec=None):
    """-z_t + sum_k softplus(z_k) as softplus(-z_t) + sum_{k != t} softplus(z_k).

    softplus(z) = max(z, 0) + log1p(e) and sigmoid(z) = (1 or e)/(1 + e)
    share e = exp(-|z|), which never overflows.
    """
    rows = np.arange(Z.shape[0])
    e = np.exp(-np.abs(Z))
    log1p_e = np.log1p(e)
    terms = np.maximum(Z, 0.0) + log1p_e
    terms[rows, t] = np.maximum(-Z[rows, t], 0.0) + log1p_e[rows, t]
    G = np.where(Z >= 0, 1.0, e) / (1.0 + e)
    G[rows, t] -= 1.0
    return terms.sum(axis=1), G


def _squared_error(Z, t, spec):
    kappa, M, scale = spec.kappa, spec.target_magnitude, spec.loss_scale
    n, K = Z.shape
    rows = np.arange(n)
    zt = Z[rows, t]
    sq_off = np.sum(Z * Z, axis=1) - zt * zt
    values = scale / K * (kappa * (zt - M) ** 2 + sq_off)
    g = 2.0 * scale / K * Z
    g[rows, t] = 2.0 * scale / K * kappa * (zt - M)
    return values, g


# any other kind is softmax cross-entropy, behind the head its kind names
_SCORE_LOSSES = {
    "label_smoothing": _smoothed_ce,
    "logit_norm": _logit_norm_ce,
    "sigmoid": _sigmoid_ce,
    "squared_error": _squared_error,
}


# ---------------------------------------------------------------------------
# penalties


def _logit_penalty(Z, beta: float):
    """Each row's ||z_i||^2, and the gradient of beta times their mean."""
    return np.sum(Z * Z, axis=1), 2.0 * beta * Z / Z.shape[0]


def _weight_penalty(W, lambda_final: float):
    """(lambda/2) ||W||_F^2, and its gradient; the bias is exempt."""
    return 0.5 * lambda_final * float(np.sum(W * W)), lambda_final * W


def _folded(spec: LossSpec) -> tuple[str, float, float]:
    """(kind, beta, lambda); logit_penalty/extra_final_l2 become softmax + penalty."""
    kind, beta, lam = spec.kind, 0.0, 0.0
    if kind == "logit_penalty":
        kind, beta = "softmax", spec.beta
    elif kind == "extra_final_l2":
        kind, lam = "softmax", spec.lambda_final
    for p in spec.extra_penalties:
        if p.kind == "logit_penalty":
            beta += p.value
        else:
            lam += p.value
    return kind, beta, lam


def _penalized(value: float, squares, beta: float, lam: float, W) -> float:
    """value, plus beta times the mean of the rows' ||z||^2, plus (lam/2) ||W||^2."""
    if beta > 0.0:
        value += beta * float(np.mean(squares))
    if lam > 0.0:
        value += _weight_penalty(W, lam)[0]
    return value


def _score_rows(kind: str, spec: LossSpec, beta: float, Z, t):
    """(values, squares, G) at scores Z: the score loss's per-row values, the
    rows' ||z||^2 when beta > 0 (else None), and dL/dZ of the mean value
    plus the logit penalty."""
    values, g = _SCORE_LOSSES.get(kind, _softmax_ce)(Z, t, spec)
    G, squares = g / Z.shape[0], None
    if beta > 0.0:
        squares, q = _logit_penalty(Z, beta)
        G = G + q
    return values, squares, G


def _dropout_xent(layer, X, t, keep_prob: float, n_samples: int, rng):
    """Softmax CE through the dropout head, averaged over n_samples mask draws.

    All masks come from one draw. Each sum starts at 0.0, so a -0.0 entry
    comes out +0.0.
    """
    n, s = X.shape[0], n_samples
    Z, backward = _dropout_head(layer, X, keep_prob, s, rng)
    values, g = _softmax_ce(Z, np.tile(t, s))
    G = g / n
    inv = 1.0 / s
    value = 0.0 + float(np.sum(np.mean(values.reshape(s, n), axis=1)))
    g_logits = 0.0 + G.reshape(s, n, -1).sum(axis=0)
    return value * inv, g_logits * inv, tuple((0.0 + a) * inv for a in backward(G))


def _compose(spec: LossSpec, layer: FinalLayer, X, t, n_samples: int, rng):
    """(value, dL/dZ, head gradients (dW, db, dX)) of a spec."""
    kind, beta, lam = _folded(spec)
    squares = None
    if kind == "dropout":
        value, G, grads = _dropout_xent(layer, X, t, spec.keep_prob, n_samples, rng)
        if beta > 0.0:
            # penalty on the clean logits keeps the term deterministic
            Z, clean_backward = _clean_head(spec, layer, X)
            squares, q = _logit_penalty(Z, beta)
            grads = tuple(a + b for a, b in zip(grads, clean_backward(q)))
    else:
        Z, head_backward = _clean_head(spec, layer, X)
        values, squares, G = _score_rows(kind, spec, beta, Z, t)
        value = float(np.mean(values))
        grads = head_backward(G)
    if lam > 0.0:
        grads = (grads[0] + _weight_penalty(layer.weights, lam)[1],) + grads[1:]
    return _penalized(value, squares, beta, lam, layer.weights), G, grads


# ---------------------------------------------------------------------------
# public objectives: validate, then run the kernels above


def _on_logits(spec: LossSpec, logits, target) -> LossResult:
    squeeze = np.ndim(logits) == 1
    L = check_matrix(np.atleast_2d(logits) if squeeze else logits, "logits")
    t, _ = check_labels(target, *L.shape, name="target")
    kind, beta, _ = _folded(spec)
    values, squares, G = _score_rows(kind, spec, beta, L, t)
    value = _penalized(float(np.mean(values)), squares, beta, 0.0, None)
    return LossResult(value=value, grad_logits=G[0] if squeeze else G)


def softmax_xent(logits, target) -> LossResult:
    """Mean cross-entropy -l_t + logsumexp(l); gradient (p - onehot)/n.

    The value is evaluated in the cancellation-free form of
    ``softmax_xent_rows``.
    """
    return _on_logits(LossSpec("softmax"), logits, target)


def label_smoothing_xent(logits, target, alpha: float) -> LossResult:
    """Smoothed cross-entropy in the 1/(1-alpha) scaling.

    Per example: -l_t + logsumexp(l)/(1-alpha) - alpha/((1-alpha) K) * sum(l),
    evaluated without cancellation. alpha=0 reduces exactly to
    softmax_xent.
    """
    return _on_logits(LossSpec("label_smoothing", alpha=alpha), logits, target)


def logit_penalty_xent(logits, target, beta: float) -> LossResult:
    """Softmax cross-entropy plus beta * ||l||^2 per example."""
    return _on_logits(LossSpec("logit_penalty", beta=beta), logits, target)


def logit_norm_xent(logits, target, temperature: float) -> LossResult:
    """Cross-entropy on direction-only logits l / (tau * ||l||).

    grad_logits is with respect to the raw logits l.
    """
    return _on_logits(
        LossSpec("logit_norm", temperature=temperature), logits, target
    )


def sigmoid_xent(logits, target) -> LossResult:
    """One-vs-all sigmoid cross-entropy: -l_t + sum_k softplus(l_k)."""
    return _on_logits(LossSpec("sigmoid"), logits, target)


def squared_error_loss(
    logits,
    target,
    kappa: float = 1.0,
    target_magnitude: float = 1.0,
    loss_scale: float = 1.0,
) -> LossResult:
    """Squared error on logits against (M at the target, 0 elsewhere).

    Per example: loss_scale/K * (kappa*(l_t - M)^2 + sum_{k != t} l_k^2).
    """
    spec = LossSpec("squared_error", kappa=kappa,
                    target_magnitude=target_magnitude, loss_scale=loss_scale)
    return _on_logits(spec, logits, target)


def extra_final_l2_penalty(layer: FinalLayer, lambda_final: float) -> LossResult:
    """(lambda/2) ||W||_F^2 on the final weight matrix; bias exempt."""
    spec = LossSpec("extra_final_l2", lambda_final=lambda_final)
    value, grad = _weight_penalty(layer.weights, spec.lambda_final)
    zeros = np.zeros(layer.num_classes)
    return LossResult(value, zeros, grad, zeros.copy())


def cosine_softmax_xent(
    layer: FinalLayer, features, target, temperature: float
) -> LossResult:
    """Softmax cross-entropy on z_k = sim(W_k, x)/tau + b_k.

    grad_logits is with respect to z; the weight, bias and feature
    gradients chain through the cosine head.
    """
    spec = LossSpec("cosine_softmax", temperature=temperature)
    return compose_loss(spec, layer, features, target)


def dropout_xent(
    layer: FinalLayer,
    features,
    target,
    keep_prob: float,
    n_samples: int = 1,
    *,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> LossResult:
    """Softmax cross-entropy with Bernoulli(keep_prob) feature masking.

    Inverted scaling: x_tilde = x * mask / keep_prob, logits = W x_tilde + b.
    Gradients are pathwise through the sampled masks and averaged over
    ``n_samples`` independent mask draws. keep_prob=1 reduces to
    softmax_xent on W x + b. Deterministic given seed or rng.
    """
    spec = LossSpec("dropout", keep_prob=keep_prob)
    return compose_loss(
        spec, layer, features, target, n_samples=n_samples, seed=seed, rng=rng
    )


def compose_loss(
    spec: LossSpec,
    layer: FinalLayer,
    features,
    target,
    *,
    n_samples: int = 1,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> LossResult:
    """Evaluate a LossSpec (head, score loss, penalties) at (layer, features).

    The composed value is base + sum of penalty terms. A logit penalty
    attaches to the head's clean scores (temperature-scaled cosine scores
    for cosine_softmax, raw logits for logit_norm, clean logits for a
    dropout base); an extra final-layer L2 adds lambda*W to the weight
    gradient. The result always carries the whole final-layer backward:
    total weight, bias and feature gradients, for every spec.
    """
    squeeze = np.ndim(features) == 1
    X = check_matrix(np.atleast_2d(features) if squeeze else features,
                     "features", layer.feature_dim)
    t, _ = check_labels(target, X.shape[0], layer.num_classes, "target")
    if spec.kind == "dropout":
        check_range("n_samples", n_samples, ">= 1")
        if rng is None:
            if seed is None:
                raise ValueError("dropout needs an explicit seed or rng")
            rng = np.random.default_rng(seed)
    value, G, grads = _compose(spec, layer, X, t, n_samples, rng)
    res = LossResult(value, G, *grads)
    if squeeze:
        # weight/bias grads keep their natural shapes; only row grads drop
        res.grad_logits = res.grad_logits[0]
        res.grad_features = res.grad_features[0]
    return res


def _reported(spec: LossSpec, Z: np.ndarray) -> np.ndarray:
    """The scores a spec reports, from its clean head's scores Z."""
    if spec.kind == "logit_norm":
        return _unit_logits(Z, spec.temperature)[0]
    return Z


def eval_scores(spec: LossSpec, layer: FinalLayer, features) -> np.ndarray:
    """Deterministic evaluation-time score matrix for a spec.

    Dropout evaluates with the mask off; logit_norm reports the normalized
    logits; cosine_softmax reports sim/tau + b; everything else reports the
    raw logits W x + b.
    """
    squeeze = np.ndim(features) == 1
    X = check_matrix(np.atleast_2d(features) if squeeze else features,
                     "features", layer.feature_dim)
    Z = _reported(spec, _clean_head(spec, layer, X)[0])
    return Z[0] if squeeze else Z


def loss_rows(spec: LossSpec, layer: FinalLayer, features, target) -> tuple:
    """(values, squares, scores): compose_loss's value in per-row pieces, from
    one head evaluation and no backward, with a dropout spec's mask off.

    values are the score loss's per-row values, squares the rows' ||z||^2
    of the clean scores when the spec carries a logit penalty (else None),
    and scores are eval_scores. Row blocks of a batch can be evaluated one
    at a time; loss_value turns their pieces into the batch's value.
    """
    X = check_matrix(features, "features", layer.feature_dim)
    t, _ = check_labels(target, X.shape[0], layer.num_classes, "target")
    kind, beta, _ = _folded(spec)
    Z = _clean_head(spec, layer, X)[0]
    values, squares, _ = _score_rows(kind, spec, beta, Z, t)
    return values, squares, _reported(spec, Z)


def loss_value(spec: LossSpec, layer: FinalLayer, values, squares) -> float:
    """compose_loss's value (a dropout spec's with the mask off) from the
    loss_rows pieces of a batch's row blocks: values and squares each list
    the blocks' arrays in row order. The mean runs over the rows put back
    together, so it is the value of the whole batch to the last bit."""
    _, beta, lam = _folded(spec)
    squares = np.concatenate(squares) if beta > 0.0 else None
    return _penalized(float(np.mean(np.concatenate(values))), squares, beta, lam,
                      layer.weights)
