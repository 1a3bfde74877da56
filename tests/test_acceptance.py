"""Release gate: one test per acceptance criterion, print-then-assert.

Run with `pytest tests/test_acceptance.py -v -s` to see one
`ACCEPTANCE <n> <name>: PASS|FAIL (detail)` line per criterion even when
a criterion is red.

The numeric experiments (criteria 5-8) retrain small MLPs and take a few
minutes combined; everything else is seconds.
"""

import math
import time
import warnings

import numpy as np
import pytest

from losslab.calibration import (
    ece,
    fit_temperature,
    nll,
    probs_from_logits,
    top1_predictions,
)
from losslab.config import ExperimentConfig
from losslab.experiments import (
    CONVERGENCE_RECIPES,
    CONVERGENCE_TASK,
    agreement_experiment,
    convergence_experiment,
    separation_experiment,
    temperature_experiment,
)
from losslab.losses import (
    FinalLayer,
    LossSpec,
    PenaltySpec,
    compose_loss,
    cosine_softmax_xent,
    dropout_xent,
    label_smoothing_xent,
    logit_norm_xent,
    logit_penalty_xent,
    logsumexp_rows,
    sigmoid_xent,
    softmax_xent,
    squared_error_loss,
)
from losslab.harness import run_all, run_dir
from losslab.probe import DEFAULT_GRID, ProbeConfig, fit_logreg, sweep_and_retrain
from losslab.repr_analysis import (
    angular_visual_hardness,
    class_separation_r2,
    linear_cka,
    one_hot_matrix,
)

FD_STEP = 1e-5
FD_TOL = 1e-6


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    mark = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {mark}{extra}")
    return ok


# ---------------------------------------------------------------- 1: gradients


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


def _force_miss(rng, scores, t):
    """Resample targets until some example is misclassified.

    A batch the model gets entirely, confidently right has exponentially
    small gradients; central differences bottom out near 5e-12 absolute,
    so such instances measure FD noise, not gradient correctness.
    """
    while not np.any(t != scores.argmax(axis=1)):
        t = rng.integers(0, scores.shape[1], size=scores.shape[0])
    return t


def _draw_logits(rng, min_row_norm=0.0):
    n = int(rng.integers(1, 7))
    k = int(rng.integers(2, 8))
    L = 3.0 * rng.standard_normal((n, k))
    while np.linalg.norm(L, axis=1).min() <= min_row_norm:
        L = 3.0 * rng.standard_normal((n, k))
    return L, _force_miss(rng, L, rng.integers(0, k, size=n))


def _draw_layer_problem(rng, min_row_norm=0.35):
    # row-norm floors keep the FD probe away from the normalization pole
    n = int(rng.integers(1, 6))
    k = int(rng.integers(2, 7))
    m = int(rng.integers(2, 7))
    W = rng.standard_normal((k, m))
    while np.linalg.norm(W, axis=1).min() < min_row_norm:
        W = rng.standard_normal((k, m))
    X = rng.standard_normal((n, m))
    while np.linalg.norm(X, axis=1).min() < min_row_norm:
        X = rng.standard_normal((n, m))
    layer = FinalLayer(W, rng.standard_normal(k))
    t = _force_miss(rng, X @ W.T + layer.bias, rng.integers(0, k, size=n))
    return layer, X, t


def _check_logit_loss(rng, loss, min_row_norm=0.0):
    L, t = _draw_logits(rng, min_row_norm)
    res = loss(L, t)
    return rel_err(res.grad_logits, fd_grad(lambda M: loss(M, t).value, L))


def _layer_surfaces_err(res, value, layer, X):
    """Max rel err over the weight/bias/feature gradients of value()."""
    gw = fd_grad(lambda W: value(FinalLayer(W, layer.bias), X), layer.weights)
    gb = fd_grad(lambda b: value(FinalLayer(layer.weights, b), X), layer.bias)
    gx = fd_grad(lambda A: value(layer, A), X)
    return max(
        rel_err(res.grad_weights, gw),
        rel_err(res.grad_bias, gb),
        rel_err(res.grad_features, gx),
    )


def _cosine_scores(layer, X, tau):
    Xh = X / np.linalg.norm(X, axis=1, keepdims=True)
    Wh = layer.weights / np.linalg.norm(layer.weights, axis=1, keepdims=True)
    return Xh @ Wh.T / tau + layer.bias


def _check_cosine(rng):
    layer, X, t = _draw_layer_problem(rng)
    tau = float(rng.uniform(0.05, 0.3))
    t = _force_miss(rng, _cosine_scores(layer, X, tau), t)
    res = cosine_softmax_xent(layer, X, t, tau)
    return _layer_surfaces_err(
        res, lambda lay, A: cosine_softmax_xent(lay, A, t, tau).value, layer, X
    )


def _check_extra_final_l2(rng):
    layer, X, t = _draw_layer_problem(rng)
    spec = LossSpec("extra_final_l2", lambda_final=float(rng.uniform(1e-4, 1e-2)))
    res = compose_loss(spec, layer, X, t)
    return _layer_surfaces_err(
        res, lambda lay, A: compose_loss(spec, lay, A, t).value, layer, X
    )


def _replayed_dropout_value(layer, X, t, keep, masks):
    """Pathwise objective on frozen masks so FD sees a smooth function."""
    vals = []
    for mask in masks:
        Z = (X * mask / keep) @ layer.weights.T + layer.bias
        rows = np.arange(X.shape[0])
        vals.append(np.mean(logsumexp_rows(Z) - Z[rows, t]))
    return float(np.mean(vals))


def _check_dropout(rng):
    layer, X, t = _draw_layer_problem(rng)
    keep = float(rng.uniform(0.4, 0.95))
    seed = int(rng.integers(0, 2**31))
    res = dropout_xent(layer, X, t, keep, n_samples=2, seed=seed)
    mask_rng = np.random.default_rng(seed)
    masks = [mask_rng.random(X.shape) < keep for _ in range(2)]
    assert abs(_replayed_dropout_value(layer, X, t, keep, masks) - res.value) < 1e-12
    return _layer_surfaces_err(
        res, lambda lay, A: _replayed_dropout_value(lay, A, t, keep, masks), layer, X
    )


def _check_composed(rng, spec):
    layer, X, t = _draw_layer_problem(rng)
    if spec.kind == "cosine_softmax":
        t = _force_miss(rng, _cosine_scores(layer, X, spec.temperature), t)
    res = compose_loss(spec, layer, X, t)
    if res.grad_weights is not None:
        return _layer_surfaces_err(
            res, lambda lay, A: compose_loss(spec, lay, A, t).value, layer, X
        )
    # logit-only result: chain through l = W x + b by hand
    gw = fd_grad(
        lambda W: compose_loss(spec, FinalLayer(W, layer.bias), X, t).value,
        layer.weights,
    )
    gb = fd_grad(
        lambda b: compose_loss(spec, FinalLayer(layer.weights, b), X, t).value,
        layer.bias,
    )
    gx = fd_grad(lambda A: compose_loss(spec, layer, A, t).value, X)
    G = res.grad_logits
    return max(
        rel_err(G.T @ X, gw),
        rel_err(G.sum(axis=0), gb),
        rel_err(G @ layer.weights, gx),
    )


def _check_label_smoothing(rng):
    a = float(rng.uniform(0.05, 0.7))  # frozen before FD probes the surface
    return _check_logit_loss(rng, lambda L, t: label_smoothing_xent(L, t, a))


def _check_logit_penalty(rng):
    beta = float(rng.uniform(1e-4, 0.3))
    return _check_logit_loss(rng, lambda L, t: logit_penalty_xent(L, t, beta))


def _check_logit_norm(rng):
    # tau floor keeps normalized logits out of deep softmax saturation
    tau = float(rng.uniform(0.05, 0.5))
    return _check_logit_loss(
        rng, lambda L, t: logit_norm_xent(L, t, tau), min_row_norm=0.5
    )


def _check_squared_error(rng):
    kappa = float(rng.uniform(0.5, 9.0))
    target = float(rng.uniform(1.0, 60.0))
    scale = float(rng.uniform(0.5, 10.0))
    return _check_logit_loss(
        rng, lambda L, t: squared_error_loss(L, t, kappa, target, scale)
    )


GRAD_FAMILIES = (
    ("softmax", lambda rng: _check_logit_loss(rng, softmax_xent)),
    ("label_smoothing", _check_label_smoothing),
    ("dropout", _check_dropout),
    ("extra_final_l2", _check_extra_final_l2),
    ("logit_penalty", _check_logit_penalty),
    ("logit_norm", _check_logit_norm),
    ("cosine_softmax", _check_cosine),
    ("sigmoid", lambda rng: _check_logit_loss(rng, sigmoid_xent)),
    ("squared_error", _check_squared_error),
    # regularizer/loss pairings, one per expressible combination family
    ("smoothing+logit_penalty", lambda rng: _check_composed(
        rng, LossSpec("label_smoothing", alpha=0.1,
                      extra_penalties=(PenaltySpec("logit_penalty", 6e-4),)))),
    ("sigmoid+logit_penalty", lambda rng: _check_composed(
        rng, LossSpec("sigmoid",
                      extra_penalties=(PenaltySpec("logit_penalty", 1e-4),)))),
    ("cosine+logit_penalty", lambda rng: _check_composed(
        rng, LossSpec("cosine_softmax", temperature=0.05,
                      extra_penalties=(PenaltySpec("logit_penalty", 2e-4),)))),
)


def test_01_gradient_suite():
    t0 = time.perf_counter()
    worst = {}
    for i, (name, check) in enumerate(GRAD_FAMILIES):
        rng = np.random.default_rng(1000 + i)
        worst[name] = max(check(rng) for _ in range(100))
    elapsed = time.perf_counter() - t0
    bad = max(worst.values())
    ok = bad < FD_TOL and elapsed < 30.0
    detail = (
        f"{len(GRAD_FAMILIES)} objectives x 100 instances, "
        f"max rel err {bad:.2e} ({max(worst, key=worst.get)}), {elapsed:.1f}s"
    )
    assert _verdict(1, "gradient suite", ok, detail), detail


# ------------------------------------------------------------- 2: reductions


def test_02_reduction_identities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(1000):
        L, t = _draw_logits(rng)
        base = softmax_xent(L, t)
        for red in (label_smoothing_xent(L, t, 0.0), logit_penalty_xent(L, t, 0.0)):
            worst = max(worst, abs(red.value - base.value),
                        float(np.max(np.abs(red.grad_logits - base.grad_logits))))

        layer, X, t2 = _draw_layer_problem(rng)
        Z = X @ layer.weights.T + layer.bias
        ref = softmax_xent(Z, t2)
        G = ref.grad_logits
        for red in (
            dropout_xent(layer, X, t2, 1.0, n_samples=1, seed=i),
            compose_loss(LossSpec("extra_final_l2", lambda_final=0.0), layer, X, t2),
        ):
            if red.grad_weights is not None:
                gw, gb, gx = red.grad_weights, red.grad_bias, red.grad_features
            else:  # a reduction may come back logit-only; chain it the same way
                R = red.grad_logits
                gw, gb, gx = R.T @ X, R.sum(axis=0), R @ layer.weights
            worst = max(
                worst,
                abs(red.value - ref.value),
                float(np.max(np.abs(gw - G.T @ X))),
                float(np.max(np.abs(gb - G.sum(axis=0)))),
                float(np.max(np.abs(gx - G @ layer.weights))),
            )
    ok = worst < 1e-12
    detail = f"alpha=0, keep=1, beta=0, lambda=0 x 1000 instances, max dev {worst:.2e}"
    assert _verdict(2, "reduction identities", ok, detail), detail


# ----------------------------------------------------------- 3: metric oracles


def _gram_cka(X, Y):
    n = X.shape[0]
    H = np.eye(n) - 1.0 / n
    Kx = H @ (X @ X.T) @ H
    Ky = H @ (Y @ Y.T) @ H
    return float(np.sum(Kx * Ky) / (np.linalg.norm(Kx) * np.linalg.norm(Ky)))


def _r2_pair_loop(X, y, index):
    X = np.asarray(X, dtype=np.float64)
    if index == "cosine_mean_subtracted":
        X = X - X.mean(axis=0)
    if index in ("cosine", "cosine_mean_subtracted"):
        X = X / np.linalg.norm(X, axis=1, keepdims=True)

        def dist(a, b):
            return 1.0 - float(a @ b)
    else:

        def dist(a, b):
            return float(np.sum((a - b) ** 2))

    classes = np.unique(y)
    groups = [np.where(y == c)[0] for c in classes]
    within = 0.0
    for idx in groups:
        within += sum(dist(X[i], X[j]) for i in idx for j in idx) / idx.size**2
    within /= len(groups)
    overall = 0.0
    for ia in groups:
        for ib in groups:
            overall += sum(dist(X[i], X[j]) for i in ia for j in ib) / (
                ia.size * ib.size
            )
    overall /= len(groups) ** 2
    return 1.0 - within / overall


def _avh_loop(layer, X, y):
    out = []
    for i in range(X.shape[0]):
        angles = []
        for k in range(layer.num_classes):
            c = float(X[i] @ layer.weights[k]) / (
                float(np.linalg.norm(X[i])) * float(np.linalg.norm(layer.weights[k]))
            )
            angles.append(math.acos(max(-1.0, min(1.0, c))))
        out.append(angles[int(y[i])] / sum(angles))
    return np.asarray(out)


def _ece_bin_loop(P, y, n_bins=15):
    conf = P.max(axis=1)
    correct = P.argmax(axis=1) == y
    total = 0.0
    for b in range(n_bins):
        lo, hi = b / n_bins, (b + 1) / n_bins
        mask = (conf <= hi) if b == 0 else (conf > lo) & (conf <= hi)
        if mask.any():
            total += mask.mean() * abs(correct[mask].mean() - conf[mask].mean())
    return total


def test_03_metric_oracles():
    rng = np.random.default_rng(333)
    gaps = {"cka": 0.0, "r2": 0.0, "avh": 0.0, "ece": 0.0}

    for _ in range(30):
        n = int(rng.integers(5, 40))
        X = rng.standard_normal((n, int(rng.integers(2, 12))))
        Y = rng.standard_normal((n, int(rng.integers(2, 12))))
        gaps["cka"] = max(gaps["cka"], abs(linear_cka(X, Y) - _gram_cka(X, Y)))

    for _ in range(10):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(3 * k, 25))
        y = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        X = rng.standard_normal((n, int(rng.integers(2, 9))))
        for index in ("cosine", "cosine_mean_subtracted", "euclidean"):
            gaps["r2"] = max(
                gaps["r2"],
                abs(class_separation_r2(X, y, index) - _r2_pair_loop(X, y, index)),
            )

    for _ in range(20):
        layer, X, y = _draw_layer_problem(rng)
        gaps["avh"] = max(
            gaps["avh"],
            float(np.max(np.abs(angular_visual_hardness(layer, X, y) - _avh_loop(layer, X, y)))),
        )

    for _ in range(20):
        n, k = int(rng.integers(5, 80)), int(rng.integers(2, 9))
        P = probs_from_logits(2.0 * rng.standard_normal((n, k)), "softmax")
        y = rng.integers(0, k, size=n)
        gaps["ece"] = max(gaps["ece"], abs(ece(P, y).ece - _ece_bin_loop(P, y)))

    bad = max(gaps.values())
    ok = bad < 1e-10
    detail = ", ".join(f"{k} {v:.1e}" for k, v in gaps.items()) + " vs brute force"
    assert _verdict(3, "metric oracles", ok, detail), detail


def test_03_cosine_r2_equals_onehot_cka():
    """How the cosine separation index relates to linear CKA against
    one-hot labels on balanced data with unit-norm rows.

    With Kc the centered Gram matrix and P the projection onto the
    centered class indicators, tr(Kc P) is the between-class scatter
    sum_i ||m_{y_i} - mu||^2, and

        R2  = tr(Kc P) / tr(Kc)
        CKA = tr(Kc P) / (||Kc||_F sqrt(K-1)).

    (a) On generic draws both closed forms hold to 1e-10, with tr(Kc P)
    computed here from class means, not from either metric. (b) The
    denominators agree when the centered spectrum is flat with rank K-1
    (the equality case of tr(Kc) <= sqrt(rank) ||Kc||_F), so R2 == CKA to
    1e-12 on rotated regular-simplex features, where both lie strictly
    inside (0, 1).
    """
    rng = np.random.default_rng(34)
    gap_r2, gap_cka = 0.0, 0.0
    for k, per in ((2, 15), (3, 8), (4, 10), (5, 12), (6, 10)):
        y = np.repeat(np.arange(k), per)  # balanced, n <= 60
        X = rng.standard_normal((y.size, 8))
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        Xc = Xn - Xn.mean(axis=0)
        Kc = Xc @ Xc.T
        means = np.stack([Xn[y == c].mean(axis=0) for c in range(k)])
        between = float(np.sum((means[y] - Xn.mean(axis=0)) ** 2))
        r2 = class_separation_r2(Xn, y, "cosine")
        cka = linear_cka(Xn, one_hot_matrix(y, k))
        gap_r2 = max(gap_r2, abs(r2 - between / np.trace(Kc)))
        gap_cka = max(
            gap_cka, abs(cka - between / (np.linalg.norm(Kc) * math.sqrt(k - 1)))
        )

    # rows are unit vertices of a regular simplex, each used equally often
    # (flat centered spectrum of rank K-1); labels mix vertices through a
    # sum of random permutations, so every class and vertex has `reps` rows
    gap_flat, values = 0.0, []
    for k in (3, 4, 5, 6):
        V = np.eye(k) - 1.0 / k
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        V = np.hstack([V, np.zeros((k, 8 - k))]) @ Q
        reps = 3
        vertex = np.concatenate([rng.permutation(k) for _ in range(reps)])
        y = np.tile(np.arange(k), reps)
        Xn = V[vertex]
        sv = np.linalg.svd(Xn - Xn.mean(axis=0), compute_uv=False)
        assert np.allclose(sv[: k - 1], sv[0]) and np.all(sv[k - 1 :] < 1e-12)
        r2 = class_separation_r2(Xn, y, "cosine")
        cka = linear_cka(Xn, one_hot_matrix(y, k))
        values.append(r2)
        gap_flat = max(gap_flat, abs(r2 - cka))

    ok = (
        gap_r2 < 1e-10
        and gap_cka < 1e-10
        and gap_flat < 1e-12
        and all(0.01 < v < 0.99 for v in values)
    )
    detail = (
        f"generic: |R2 - tr(KcP)/tr(Kc)| {gap_r2:.1e}, "
        f"|CKA - tr(KcP)/(||Kc||_F sqrt(K-1))| {gap_cka:.1e}; "
        f"flat spectrum: |R2 - CKA| {gap_flat:.1e} at R2 "
        + ", ".join(f"{v:.3f}" for v in values)
    )
    assert _verdict(3, "cosine R2 and one-hot CKA closed forms", ok, detail), detail


# ------------------------------------------------------------- 4: calibration


def test_04_calibration_contracts():
    rng = np.random.default_rng(44)
    flips, nll_rise = 0, -np.inf
    for i in range(50):
        n, k = int(rng.integers(4, 80)), int(rng.integers(2, 11))
        L = float(rng.uniform(0.5, 4.0)) * rng.standard_normal((n, k))
        y = rng.integers(0, k, size=n)
        kind = "sigmoid" if i % 5 == 0 else "softmax"
        pre_probs = probs_from_logits(L, kind)
        T, rep = fit_temperature(L, y, kind)
        if np.any(
            top1_predictions(probs_from_logits(L / T, kind))
            != top1_predictions(pre_probs)
        ):
            flips += 1
        nll_rise = max(nll_rise, rep.nll - nll(pre_probs, y))

    # two examples at conf 0.9 (one right, one wrong), one at 0.65 right,
    # one at 0.6 wrong: ECE = 1/4*.6 + 1/4*.35 + 2/4*.4 = 0.4375
    P = np.array([[0.9, 0.1], [0.9, 0.1], [0.65, 0.35], [0.6, 0.4]])
    hand = 0.25 * abs(0.0 - 0.6) + 0.25 * abs(1.0 - 0.65) + 0.5 * abs(0.5 - 0.9)
    got = ece(P, np.array([0, 1, 0, 1])).ece
    exact = got == hand and abs(hand - 0.4375) < 1e-12

    ok = flips == 0 and nll_rise <= 1e-12 and exact
    detail = (
        f"50 batches: top-1 flips {flips}, max NLL rise {nll_rise:.1e}; "
        f"4-example ECE {got} == {hand}"
    )
    assert _verdict(4, "calibration contracts", ok, detail), detail


# ------------------------------------------------- 5: separation ladder


def _mean_se(values):
    v = np.asarray(values, dtype=np.float64)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


@pytest.mark.slow
def test_05_class_separation_ordering():
    t0 = time.perf_counter()
    res = separation_experiment()
    elapsed = time.perf_counter() - t0

    order = ("softmax", "label_smoothing", "cosine_softmax", "squared_error")
    stats = {name: _mean_se(res[name]) for name in order}
    min_ratio = np.inf
    for lo, hi in zip(order, order[1:]):
        gap = stats[hi][0] - stats[lo][0]
        pooled = math.hypot(stats[lo][1], stats[hi][1])
        min_ratio = min(min_ratio, gap / pooled)

    ok = min_ratio > 1.0 and elapsed < 600.0
    ladder = " < ".join(f"{name} {stats[name][0]:.4f}" for name in order)
    detail = f"R2 {ladder}; min gap/pooled-SE {min_ratio:.1f}; {elapsed:.0f}s"
    assert _verdict(5, "class separation ordering", ok, detail), detail


# ---------------------------------------------- 6: temperature tradeoff


@pytest.mark.slow
def test_06_temperature_tradeoff():
    taus = (0.01, 0.03, 0.05, 0.08)
    res = temperature_experiment(taus)
    r2m = np.array([res[tau]["r2"].mean() for tau in taus])
    trm = np.array([res[tau]["transfer"].mean() for tau in taus])
    # strict monotonicity over 4 distinct points == Spearman +1 / -1
    ok = bool(np.all(np.diff(r2m) > 0) and np.all(np.diff(trm) < 0))
    detail = (
        "R2 " + " -> ".join(f"{v:.3f}" for v in r2m)
        + " rising; transfer " + " -> ".join(f"{v:.3f}" for v in trm)
        + " falling"
    )
    assert _verdict(6, "temperature tradeoff", ok, detail), detail


# ------------------------------------- 7: determinism and convergence


@pytest.mark.slow
def test_07_determinism_and_convergence(tmp_path):
    identical = True
    for kind in ("softmax", "cosine_softmax"):
        spec, lr = CONVERGENCE_RECIPES[kind]
        paths = []
        for run in range(2):
            out = tmp_path / f"{kind}_{run}"
            run_all(ExperimentConfig(
                dataset=CONVERGENCE_TASK, hidden=(64, 64),
                train={"epochs": 12, "batch_size": 64, "peak_lr": lr},
                seeds=(0,), losses=((kind, spec),), analyses=(),
                output_dir=str(out),
            ))
            paths.append((run_dir(out, kind, 0) / "train_log.csv").read_bytes())
        identical = identical and paths[0] == paths[1]

    accs = convergence_experiment()
    low = min(accs.values())
    ok = identical and low >= 0.95
    detail = (
        f"retrain logs byte-identical: {identical}; "
        f"min train acc {low:.3f} over {len(accs)} losses within 100 epochs"
    )
    assert _verdict(7, "determinism and convergence", ok, detail), detail


# ------------------------------------------------ 8: prediction clusters


@pytest.mark.slow
def test_08_agreement_clustering():
    res = agreement_experiment()
    members = {i: {i} for i in range(len(res["names"]))}
    next_id = len(res["names"])
    first_within = True
    for a, b, _height in res["merges"][:3]:
        union = members[int(a)] | members[int(b)]
        first_within = first_within and len({res["loss_of"][i] for i in union}) == 1
        members[next_id] = union
        next_id += 1

    ok = res["within_mean"] > res["cross_mean"] and first_within
    detail = (
        f"seed-mean agreement within {res['within_mean']:.3f} > "
        f"cross {res['cross_mean']:.3f}; first 3 merges within-loss: {first_within}"
    )
    assert _verdict(8, "agreement clustering", ok, detail), detail


# -------------------------------------------------- 9: probe mechanics


def test_09_probe_mechanics():
    rng = np.random.default_rng(0)
    k, d, per = 3, 5, 30
    means = 2.5 * rng.standard_normal((k, d))
    X = np.concatenate([means[c] + rng.standard_normal((per, d)) for c in range(k)])
    y = np.repeat(np.arange(k), per)
    Xt = np.concatenate([means[c] + rng.standard_normal((10, d)) for c in range(k)])
    yt = np.repeat(np.arange(k), 10)

    warm_w = warm_b = None
    max_gap = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for lam in DEFAULT_GRID:
            warm = fit_logreg(X, y, lam, k, init_weights=warm_w, init_bias=warm_b,
                              tolerance=1e-6, max_iterations=15000)
            cold = fit_logreg(X, y, lam, k, tolerance=1e-6, max_iterations=15000)
            warm_w, warm_b = warm.weights, warm.bias
            max_gap = max(max_gap, abs(warm.objective - cold.objective))

        sweep = sweep_and_retrain(
            X, y, Xt, yt,
            ProbeConfig(max_iterations=6000, tolerance=1e-6, seed=0),
        )
    shrinks = bool(np.all(np.diff(sweep.weight_norms) <= 1e-8))

    ok = len(DEFAULT_GRID) == 45 and max_gap < 1e-5 and shrinks
    detail = (
        f"45-point grid; max warm-vs-cold objective gap {max_gap:.2e}; "
        f"||W||_F monotone nonincreasing: {shrinks}"
    )
    assert _verdict(9, "probe mechanics", ok, detail), detail
