"""Finite-difference checks for every analytic gradient.

Central differences with step 1e-5 on float64; agreement is measured as
max-abs error relative to max(||g_analytic||_inf, ||g_fd||_inf, 1e-8).
Dropout is checked pathwise on frozen masks (the FD perturbation must see
the same masks, so the check runs on a wrapper that replays them).
"""

import math
import zlib

import numpy as np
import pytest

from losslab.losses import (
    FinalLayer,
    LossSpec,
    PenaltySpec,
    compose_loss,
    cosine_softmax_xent,
    label_smoothing_xent,
    logit_norm_xent,
    logit_penalty_xent,
    sigmoid_xent,
    softmax_xent,
    squared_error_loss,
)

FD_STEP = 1e-5
FD_TOL = 1e-6


def fd_grad(f, x, step=FD_STEP):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += step
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2.0 * step)
        it.iternext()
    return g


def rel_err(ga, gfd):
    scale = max(np.max(np.abs(ga)), np.max(np.abs(gfd)), 1e-8)
    return np.max(np.abs(ga - gfd)) / scale


def random_logits(rng, n, k, spread=3.0):
    return spread * rng.standard_normal((n, k))


LOGIT_LOSSES = [
    ("softmax", lambda L, t: softmax_xent(L, t)),
    ("smoothing", lambda L, t: label_smoothing_xent(L, t, 0.1)),
    ("smoothing_heavy", lambda L, t: label_smoothing_xent(L, t, 0.6)),
    ("logit_penalty", lambda L, t: logit_penalty_xent(L, t, 6e-4)),
    ("logit_penalty_big", lambda L, t: logit_penalty_xent(L, t, 0.3)),
    ("logit_norm", lambda L, t: logit_norm_xent(L, t, 0.04)),
    ("sigmoid", lambda L, t: sigmoid_xent(L, t)),
    ("squared_error", lambda L, t: squared_error_loss(L, t, 9.0, 60.0, 10.0)),
]


@pytest.mark.parametrize("name,loss", LOGIT_LOSSES, ids=[n for n, _ in LOGIT_LOSSES])
@pytest.mark.parametrize("n,k", [(1, 2), (1, 7), (5, 4), (16, 10)])
def test_logit_gradients_match_fd(name, loss, n, k):
    # crc32 of the case id, not hash(): str hashes are salted per process
    rng = np.random.default_rng(zlib.crc32(f"{name}-{n}-{k}".encode()))
    L = random_logits(rng, n, k)
    t = rng.integers(0, k, size=n)
    res = loss(L, t)
    gfd = fd_grad(lambda M: loss(M, t).value, L)
    assert rel_err(res.grad_logits, gfd) < FD_TOL


# Near-certain rows: the true loss is many orders of magnitude below the
# logits, so a value formed as logsumexp(l) - l_t is rounding noise and
# central differences no longer see its slope.
NEAR_CERTAIN = [
    ("softmax", lambda L, t: softmax_xent(L, t), [12.0, -12.0],
     math.log1p(math.exp(-24.0))),
    ("logit_norm", lambda L, t: logit_norm_xent(L, t, 0.04), [1.0, -1.0],
     math.log1p(math.exp(-50.0 / math.sqrt(2.0)))),
    ("sigmoid", lambda L, t: sigmoid_xent(L, t), [30.0, -30.0],
     2.0 * math.log1p(math.exp(-30.0))),
]


@pytest.mark.parametrize(
    "name,loss,row,expected", NEAR_CERTAIN, ids=[c[0] for c in NEAR_CERTAIN]
)
def test_near_certain_row_value_and_fd(name, loss, row, expected):
    L = np.array([row])
    t = np.array([0])
    res = loss(L, t)
    assert abs(res.value - expected) <= 1e-12 * expected
    gfd = fd_grad(lambda M: loss(M, t).value, L)
    assert rel_err(res.grad_logits, gfd) < FD_TOL


def test_single_row_gradient_matches_batch_row():
    rng = np.random.default_rng(7)
    L = random_logits(rng, 1, 6)
    res1 = softmax_xent(L[0], int(3))
    res2 = softmax_xent(L, np.array([3]))
    assert res1.grad_logits.shape == (6,)
    np.testing.assert_allclose(res1.grad_logits, res2.grad_logits[0], rtol=0, atol=0)


def random_layer(rng, k, m):
    return FinalLayer(rng.standard_normal((k, m)), rng.standard_normal(k))


@pytest.mark.parametrize("n,k,m", [(1, 3, 4), (6, 5, 8), (12, 10, 16)])
def test_cosine_softmax_gradients_match_fd(n, k, m):
    rng = np.random.default_rng(100 + n)
    layer = random_layer(rng, k, m)
    X = rng.standard_normal((n, m)) + 0.1
    t = rng.integers(0, k, size=n)
    tau = 0.05
    res = cosine_softmax_xent(layer, X, t, tau)

    gx = fd_grad(lambda A: cosine_softmax_xent(layer, A, t, tau).value, X)
    assert rel_err(res.grad_features, gx) < FD_TOL

    gw = fd_grad(
        lambda W: cosine_softmax_xent(FinalLayer(W, layer.bias), X, t, tau).value,
        layer.weights,
    )
    assert rel_err(res.grad_weights, gw) < FD_TOL

    gb = fd_grad(
        lambda b: cosine_softmax_xent(FinalLayer(layer.weights, b), X, t, tau).value,
        layer.bias,
    )
    assert rel_err(res.grad_bias, gb) < FD_TOL


def masked_dropout_value(layer, X, t, keep_prob, masks):
    """Replay fixed masks; lets FD differentiate the pathwise objective."""
    from losslab.losses import logsumexp_rows

    vals = []
    for mask in masks:
        Xt = X * mask / keep_prob
        Z = Xt @ layer.weights.T + layer.bias
        rows = np.arange(X.shape[0])
        vals.append(np.mean(logsumexp_rows(Z) - Z[rows, t]))
    return float(np.mean(vals))


@pytest.mark.parametrize("n,k,m,s", [(1, 3, 5, 4), (6, 4, 8, 3)])
def test_dropout_pathwise_gradients_match_fd(n, k, m, s):
    from losslab.losses import dropout_xent

    rng = np.random.default_rng(21)
    layer = random_layer(rng, k, m)
    X = rng.standard_normal((n, m))
    t = rng.integers(0, k, size=n)
    keep = 0.7

    seed = 1234
    res = dropout_xent(layer, X, t, keep, n_samples=s, seed=seed)
    # regenerate the exact masks the implementation drew
    mask_rng = np.random.default_rng(seed)
    masks = [mask_rng.random((n, m)) < keep for _ in range(s)]

    assert (
        abs(masked_dropout_value(layer, X, t, keep, masks) - res.value) < 1e-12
    ), "mask replay drifted from the implementation"

    gx = fd_grad(lambda A: masked_dropout_value(layer, A, t, keep, masks), X)
    assert rel_err(res.grad_features, gx) < FD_TOL
    gw = fd_grad(
        lambda W: masked_dropout_value(FinalLayer(W, layer.bias), X, t, keep, masks),
        layer.weights,
    )
    assert rel_err(res.grad_weights, gw) < FD_TOL
    gb = fd_grad(
        lambda b: masked_dropout_value(FinalLayer(layer.weights, b), X, t, keep, masks),
        layer.bias,
    )
    assert rel_err(res.grad_bias, gb) < FD_TOL


COMPOSED_SPECS = [
    LossSpec("softmax", extra_penalties=(PenaltySpec("logit_penalty", 6e-4),)),
    LossSpec("label_smoothing", alpha=0.1, extra_penalties=(PenaltySpec("logit_penalty", 1e-3),)),
    LossSpec("sigmoid", extra_penalties=(PenaltySpec("extra_final_l2", 8e-4),)),
    LossSpec("squared_error", kappa=9.0, target_magnitude=60.0, loss_scale=10.0,
             extra_penalties=(PenaltySpec("extra_final_l2", 1e-3),)),
    LossSpec("cosine_softmax", temperature=0.05,
             extra_penalties=(PenaltySpec("logit_penalty", 2e-3),
                              PenaltySpec("extra_final_l2", 5e-4),)),
    LossSpec("extra_final_l2", lambda_final=8e-4),
    LossSpec("logit_norm", temperature=0.05,
             extra_penalties=(PenaltySpec("logit_penalty", 2e-3),)),
    LossSpec("logit_norm", temperature=0.05,
             extra_penalties=(PenaltySpec("logit_penalty", 2e-3),
                              PenaltySpec("extra_final_l2", 5e-4),)),
]


@pytest.mark.parametrize("spec", COMPOSED_SPECS, ids=lambda s: s.kind)
def test_composed_specs_match_fd(spec):
    rng = np.random.default_rng(5)
    n, k, m = 7, 4, 6
    layer = random_layer(rng, k, m)
    X = rng.standard_normal((n, m))
    t = rng.integers(0, k, size=n)

    res = compose_loss(spec, layer, X, t)

    gw = fd_grad(
        lambda W: compose_loss(spec, FinalLayer(W, layer.bias), X, t).value,
        layer.weights,
    )
    gb = fd_grad(
        lambda b: compose_loss(spec, FinalLayer(layer.weights, b), X, t).value,
        layer.bias,
    )
    gx = fd_grad(lambda A: compose_loss(spec, layer, A, t).value, X)

    if res.grad_weights is not None:
        assert rel_err(res.grad_weights, gw) < FD_TOL
        assert rel_err(res.grad_bias, gb) < FD_TOL
        assert rel_err(res.grad_features, gx) < FD_TOL
    else:
        # logit-only result: chain through l = W x + b by hand
        G = res.grad_logits
        assert rel_err(G.T @ X, gw) < FD_TOL
        assert rel_err(G.sum(axis=0), gb) < FD_TOL
        assert rel_err(G @ layer.weights, gx) < FD_TOL


def test_composed_dropout_with_penalty_matches_fd_on_frozen_masks():
    rng = np.random.default_rng(17)
    n, k, m, s = 5, 4, 6, 3
    layer = random_layer(rng, k, m)
    X = rng.standard_normal((n, m))
    t = rng.integers(0, k, size=n)
    spec = LossSpec(
        "dropout", keep_prob=0.7,
        extra_penalties=(PenaltySpec("logit_penalty", 1e-3),),
    )
    seed = 99
    res = compose_loss(spec, layer, X, t, n_samples=s, seed=seed)
    mask_rng = np.random.default_rng(seed)
    masks = [mask_rng.random((n, m)) < 0.7 for _ in range(s)]

    def value(layer_, X_):
        base = masked_dropout_value(layer_, X_, t, 0.7, masks)
        L = X_ @ layer_.weights.T + layer_.bias
        return base + 1e-3 * float(np.mean(np.sum(L * L, axis=1)))

    assert abs(value(layer, X) - res.value) < 1e-12
    assert rel_err(res.grad_features, fd_grad(lambda A: value(layer, A), X)) < FD_TOL
    assert (
        rel_err(
            res.grad_weights,
            fd_grad(lambda W: value(FinalLayer(W, layer.bias), X), layer.weights),
        )
        < FD_TOL
    )
    assert (
        rel_err(
            res.grad_bias,
            fd_grad(lambda b: value(FinalLayer(layer.weights, b), X), layer.bias),
        )
        < FD_TOL
    )
