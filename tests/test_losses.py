"""Value-level checks for the loss objectives.

Expected numbers are either closed-form (uniform logits, two-class cases),
independently derived oracles (exhaustive mask enumeration for dropout), or
arithmetic identities (reduction of one loss to another at a parameter
boundary). Nothing here was tuned to the implementation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab import losses
from losslab.checks import kind_fields
from losslab.losses import (
    LOSS_KINDS,
    DegenerateInputError,
    FinalLayer,
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
    logsumexp_rows,
    loss_rows,
    loss_value,
    row_max,
    sigmoid,
    sigmoid_bias_init,
    sigmoid_xent,
    softmax_rows,
    softmax_xent,
    softmax_xent_rows,
    squared_error_loss,
)
from losslab.probe import _objective_and_grad
from test_gradients import COMPOSED_SPECS


class TestSoftmax:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 3, 10, 100):
            res = softmax_xent(np.zeros(k), 0)
            assert abs(res.value - math.log(k)) < 1e-12

    def test_two_class_closed_form(self):
        # loss = log(1 + exp(l_other - l_target))
        res = softmax_xent(np.array([2.0, -1.0]), 0)
        assert abs(res.value - math.log1p(math.exp(-3.0))) < 1e-12

    def test_large_margin_is_stable_not_zero(self):
        res = softmax_xent(np.array([10.0, -10.0]), 0)
        expected = math.log1p(math.exp(-20.0))  # ~2.06e-9
        assert res.value > 0
        # adding the tiny tail to the max costs ~ulp(10) of absolute error
        assert abs(res.value - expected) < 1e-14

    def test_extreme_logits_stay_finite(self):
        res = softmax_xent(np.array([1000.0, -1000.0, 0.0]), 2)
        assert math.isfinite(res.value)
        assert abs(res.value - 1000.0) < 1e-9
        assert np.all(np.isfinite(res.grad_logits))

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        L = rng.standard_normal((8, 5))
        t = rng.integers(0, 5, 8)
        g = softmax_xent(L, t).grad_logits
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-15)

    def test_batch_value_is_mean_of_singles(self):
        rng = np.random.default_rng(1)
        L = rng.standard_normal((6, 4))
        t = rng.integers(0, 4, 6)
        singles = [softmax_xent(L[i], int(t[i])).value for i in range(6)]
        assert abs(softmax_xent(L, t).value - np.mean(singles)) < 1e-12

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError):
            softmax_xent(np.array([1.0, np.nan]), 0)
        with pytest.raises(ValueError):
            softmax_xent(np.array([1.0, np.inf]), 0)

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            softmax_xent(np.zeros(3), 3)
        with pytest.raises(ValueError):
            softmax_xent(np.zeros(3), -1)


class TestLabelSmoothing:
    def test_frozen_two_class_value(self):
        # alpha=0.1, l=[0,0], t=0: -0 + log(2)/0.9 - (0.1/(0.9*2))*0 = log2/0.9
        res = label_smoothing_xent(np.zeros(2), 0, 0.1)
        assert abs(res.value - math.log(2.0) / 0.9) < 1e-12
        assert abs(res.value - 0.7701635339554948) < 1e-12

    def test_alpha_zero_is_exactly_softmax(self):
        rng = np.random.default_rng(2)
        L = rng.standard_normal((5, 7))
        t = rng.integers(0, 7, 5)
        a = label_smoothing_xent(L, t, 0.0)
        b = softmax_xent(L, t)
        assert a.value == b.value
        np.testing.assert_array_equal(a.grad_logits, b.grad_logits)

    def test_matches_weighted_xent_oracle(self):
        # smoothed CE with targets (1-a)+a/K on t and a/K off t, scaled 1/(1-a)
        rng = np.random.default_rng(3)
        L = rng.standard_normal((4, 6))
        t = rng.integers(0, 6, 4)
        alpha = 0.3
        K = 6
        logp = L - logsumexp_rows(L)[:, None]
        w = np.full((4, K), alpha / K)
        w[np.arange(4), t] += 1.0 - alpha
        oracle = float(np.mean(-np.sum(w * logp, axis=1))) / (1.0 - alpha)
        assert abs(label_smoothing_xent(L, t, alpha).value - oracle) < 1e-12

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            label_smoothing_xent(np.zeros(3), 0, 1.0)
        with pytest.raises(ValueError):
            label_smoothing_xent(np.zeros(3), 0, -0.01)


class TestLogitPenalty:
    def test_value_decomposition(self):
        rng = np.random.default_rng(4)
        L = rng.standard_normal((3, 5))
        t = rng.integers(0, 5, 3)
        beta = 6e-4
        base = softmax_xent(L, t).value
        pen = beta * float(np.mean(np.sum(L * L, axis=1)))
        assert abs(logit_penalty_xent(L, t, beta).value - (base + pen)) < 1e-14

    def test_beta_zero_is_softmax(self):
        L = np.array([[1.0, -2.0, 0.5]])
        t = [2]
        a = logit_penalty_xent(L, t, 0.0)
        b = softmax_xent(L, t)
        assert a.value == b.value
        np.testing.assert_array_equal(a.grad_logits, b.grad_logits)


class TestLogitNorm:
    def test_normalized_logits_have_norm_one_over_tau(self):
        rng = np.random.default_rng(5)
        L = 5.0 * rng.standard_normal((4, 6))
        tau = 0.04
        spec = LossSpec("logit_norm", temperature=tau)
        layer = FinalLayer(np.eye(6), np.zeros(6))
        Z = eval_scores(spec, layer, L)
        np.testing.assert_allclose(np.linalg.norm(Z, axis=1), 1.0 / tau, rtol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        L = rng.standard_normal((3, 4))
        t = [0, 1, 3]
        a = logit_norm_xent(L, t, 0.07)
        b = logit_norm_xent(137.0 * L, t, 0.07)
        assert abs(a.value - b.value) < 1e-12

    def test_zero_logits_rejected(self):
        with pytest.raises(DegenerateInputError):
            logit_norm_xent(np.zeros(4), 1, 0.05)

    def test_gradient_orthogonal_to_logits(self):
        # value depends only on direction, so grad has no radial component
        rng = np.random.default_rng(7)
        L = rng.standard_normal(5)
        g = logit_norm_xent(L, 2, 0.04).grad_logits
        assert abs(float(L @ g)) < 1e-12


class TestSigmoid:
    def test_two_class_zero_logits(self):
        # -0 + 2*softplus(0) = 2 log 2
        res = sigmoid_xent(np.zeros(2), 0)
        assert abs(res.value - 2.0 * math.log(2.0)) < 1e-12

    def test_confident_correct_is_tiny_and_positive(self):
        res = sigmoid_xent(np.array([30.0, -30.0]), 0)
        expected = 2.0 * math.log1p(math.exp(-30.0))  # two equal softplus tails
        assert res.value > 0
        # softplus(30) stores 30 + tail, costing ~ulp(30) absolute
        assert abs(res.value - expected) < 1e-13

    def test_huge_logits_finite(self):
        res = sigmoid_xent(np.array([800.0, -800.0, 5.0]), 0)
        assert math.isfinite(res.value)
        assert np.all(np.isfinite(res.grad_logits))

    def test_bias_init_value(self):
        assert abs(sigmoid_bias_init(1000) - (-math.log(1000.0))) < 1e-12
        with pytest.raises(ValueError):
            sigmoid_bias_init(0)

    def test_bias_init_gives_chance_level_probability(self):
        # all-zero weights + init bias: sigmoid(-log K) = 1/(K+1), i.e.
        # chance level up to O(1/K^2)
        K = 50
        p = 1.0 / (1.0 + math.exp(-sigmoid_bias_init(K)))
        assert abs(p - 1.0 / (K + 1)) < 1e-15
        assert abs(p - 1.0 / K) < 1.0 / K**2


class TestSquaredError:
    def test_frozen_example(self):
        # kappa=9, M=60, scale=10, K=2, l=[0,0], t=0:
        # 10/2 * (9*(0-60)^2 + 0) = 162000
        res = squared_error_loss(np.zeros(2), 0, 9.0, 60.0, 10.0)
        assert res.value == pytest.approx(162000.0, abs=1e-9)

    def test_perfect_logits_give_zero(self):
        K = 5
        L = np.zeros(K)
        L[3] = 60.0
        res = squared_error_loss(L, 3, 9.0, 60.0, 10.0)
        assert res.value == 0.0
        np.testing.assert_array_equal(res.grad_logits, np.zeros(K))

    def test_value_nonnegative(self):
        rng = np.random.default_rng(8)
        L = 10 * rng.standard_normal((20, 6))
        t = rng.integers(0, 6, 20)
        assert squared_error_loss(L, t, 9.0, 60.0, 10.0).value >= 0.0

    def test_gradient_closed_form(self):
        L = np.array([[1.0, 2.0, 3.0]])
        res = squared_error_loss(L, [1], 9.0, 60.0, 10.0)
        expect = 2.0 * 10.0 / 3.0 * np.array([1.0, 9.0 * (2.0 - 60.0), 3.0])
        np.testing.assert_allclose(res.grad_logits[0], expect, rtol=1e-13)


class TestDropout:
    def test_keep_one_is_exactly_softmax(self):
        rng = np.random.default_rng(9)
        layer = FinalLayer(rng.standard_normal((4, 6)), rng.standard_normal(4))
        X = rng.standard_normal((5, 6))
        t = rng.integers(0, 4, 5)
        res = dropout_xent(layer, X, t, 1.0, n_samples=3, seed=0)
        ref = softmax_xent(X @ layer.weights.T + layer.bias, t)
        assert abs(res.value - ref.value) < 1e-15
        # batched 3d matmul takes a different BLAS path than the 2d one,
        # so allow last-ulp noise
        np.testing.assert_allclose(res.grad_logits, ref.grad_logits, atol=1e-15)

    def test_same_seed_same_result(self):
        rng = np.random.default_rng(10)
        layer = FinalLayer(rng.standard_normal((3, 5)), np.zeros(3))
        X = rng.standard_normal((4, 5))
        t = [0, 1, 2, 0]
        a = dropout_xent(layer, X, t, 0.7, n_samples=8, seed=42)
        b = dropout_xent(layer, X, t, 0.7, n_samples=8, seed=42)
        assert a.value == b.value
        np.testing.assert_array_equal(a.grad_weights, b.grad_weights)

    def test_seed_required(self):
        layer = FinalLayer(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            dropout_xent(layer, np.ones(3), 0, 0.7)

    def test_monte_carlo_mean_matches_exhaustive_enumeration(self):
        # small feature dim: enumerate all 2^m masks exactly, weight by
        # keep^|on| (1-keep)^|off|, compare the sampled estimate within
        # 4 exact-standard-error bars.
        rng = np.random.default_rng(11)
        m, k = 6, 3
        layer = FinalLayer(rng.standard_normal((k, m)), rng.standard_normal(k))
        x = rng.standard_normal(m)
        t = 1
        keep = 0.7

        vals = []
        probs = []
        for bits in range(2**m):
            mask = np.array([(bits >> j) & 1 for j in range(m)], dtype=float)
            on = int(mask.sum())
            probs.append(keep**on * (1 - keep) ** (m - on))
            z = layer.weights @ (x * mask / keep) + layer.bias
            vals.append(float(logsumexp_rows(z[None, :])[0] - z[t]))
        probs = np.array(probs)
        vals = np.array(vals)
        assert abs(probs.sum() - 1.0) < 1e-12
        exact_mean = float(probs @ vals)
        exact_var = float(probs @ (vals - exact_mean) ** 2)

        n_samples = 40000
        res = dropout_xent(layer, x, t, keep, n_samples=n_samples, seed=5)
        se = math.sqrt(exact_var / n_samples)
        assert abs(res.value - exact_mean) < 4 * se

    def test_gradient_monte_carlo_matches_exhaustive(self):
        rng = np.random.default_rng(12)
        m, k = 5, 3
        layer = FinalLayer(rng.standard_normal((k, m)), np.zeros(k))
        x = rng.standard_normal(m)
        t = 0
        keep = 0.6

        from losslab.losses import softmax_rows

        gw_exact = np.zeros((k, m))
        for bits in range(2**m):
            mask = np.array([(bits >> j) & 1 for j in range(m)], dtype=float)
            on = int(mask.sum())
            p = keep**on * (1 - keep) ** (m - on)
            xt = x * mask / keep
            z = layer.weights @ xt + layer.bias
            g = softmax_rows(z[None, :])[0]
            g[t] -= 1.0
            gw_exact += p * np.outer(g, xt)

        res = dropout_xent(layer, x, t, keep, n_samples=60000, seed=6)
        assert np.max(np.abs(res.grad_weights - gw_exact)) < 0.02


class TestCosineSoftmax:
    def test_frozen_opposite_weights(self):
        # W0 = x direction, W1 = -x, tau=1, b=0: z = [1, -1],
        # loss = log(1 + e^{-2})... with t=0 and z=[1,-1]: log(1+e^-2).
        layer = FinalLayer(np.array([[2.0, 0.0], [-2.0, 0.0]]), np.zeros(2))
        x = np.array([5.0, 0.0])
        res = cosine_softmax_xent(layer, x, [0], 1.0)
        assert abs(res.value - math.log1p(math.exp(-2.0))) < 1e-12

    def test_orthogonal_frozen_value(self):
        # orthogonal weight vectors, x aligned with W0, tau=1:
        # z = [1, 0], loss = log(1 + e^{-1}) ~ 0.313262
        layer = FinalLayer(np.array([[3.0, 0.0], [0.0, 7.0]]), np.zeros(2))
        x = np.array([0.5, 0.0])
        res = cosine_softmax_xent(layer, x, [0], 1.0)
        assert abs(res.value - 0.3132616875182228) < 1e-12

    def test_scale_invariance_in_x_and_w(self):
        rng = np.random.default_rng(13)
        layer = FinalLayer(rng.standard_normal((4, 5)), rng.standard_normal(4))
        X = rng.standard_normal((3, 5))
        t = [0, 2, 3]
        a = cosine_softmax_xent(layer, X, t, 0.05)
        b = cosine_softmax_xent(layer, 42.0 * X, t, 0.05)
        scaled = FinalLayer(layer.weights * np.array([1, 9, 2, 5.0])[:, None], layer.bias)
        c = cosine_softmax_xent(scaled, X, t, 0.05)
        assert abs(a.value - b.value) < 1e-12
        assert abs(a.value - c.value) < 1e-12

    def test_zero_feature_rejected(self):
        layer = FinalLayer(np.eye(3), np.zeros(3))
        with pytest.raises(DegenerateInputError):
            cosine_softmax_xent(layer, np.zeros(3), [0], 0.05)

    def test_zero_weight_row_rejected(self):
        w = np.eye(3)
        w[1] = 0.0
        with pytest.raises(DegenerateInputError):
            cosine_softmax_xent(FinalLayer(w, np.zeros(3)), np.ones(3), [0], 0.05)


class TestExtraFinalL2:
    def test_penalty_value_and_grad(self):
        w = np.array([[3.0, 4.0], [0.0, 0.0]])
        layer = FinalLayer(w, np.array([7.0, -7.0]))  # bias must not matter
        res = extra_final_l2_penalty(layer, 8e-4)
        assert abs(res.value - 0.5 * 8e-4 * 25.0) < 1e-15
        np.testing.assert_allclose(res.grad_weights, 8e-4 * w)
        np.testing.assert_array_equal(res.grad_bias, np.zeros(2))


class TestCompose:
    def test_value_additivity(self):
        rng = np.random.default_rng(14)
        layer = FinalLayer(rng.standard_normal((4, 6)), rng.standard_normal(4))
        X = rng.standard_normal((5, 6))
        t = rng.integers(0, 4, 5)
        beta, lam = 6e-4, 8e-4
        spec = LossSpec(
            "softmax",
            extra_penalties=(
                PenaltySpec("logit_penalty", beta),
                PenaltySpec("extra_final_l2", lam),
            ),
        )
        L = X @ layer.weights.T + layer.bias
        expect = (
            softmax_xent(L, t).value
            + beta * float(np.mean(np.sum(L * L, axis=1)))
            + 0.5 * lam * float(np.sum(layer.weights**2))
        )
        assert abs(compose_loss(spec, layer, X, t).value - expect) < 1e-12

    def test_logit_norm_penalty_on_raw_logits(self):
        # beta*||l||^2 sits on the raw logits l = W x + b, not on the
        # normalized l/(tau ||l||), whose squared norm is 1/tau^2 on every row
        rng = np.random.default_rng(19)
        layer = FinalLayer(rng.standard_normal((4, 6)), rng.standard_normal(4))
        X = rng.standard_normal((5, 6))
        t = rng.integers(0, 4, 5)
        beta, tau = 1e-2, 0.05
        spec = LossSpec(
            "logit_norm", temperature=tau,
            extra_penalties=(PenaltySpec("logit_penalty", beta),),
        )
        L = X @ layer.weights.T + layer.bias
        expect = logit_norm_xent(L, t, tau).value + beta * float(
            np.mean(np.sum(L * L, axis=1))
        )
        assert abs(compose_loss(spec, layer, X, t).value - expect) < 1e-12

    @pytest.mark.parametrize("spec", [LossSpec(kind) for kind in LOSS_KINDS] + [
        LossSpec("softmax", extra_penalties=(PenaltySpec("extra_final_l2", 1e-3),)),
        LossSpec("sigmoid", extra_penalties=(PenaltySpec("logit_penalty", 2e-3),
                                             PenaltySpec("extra_final_l2", 5e-4))),
        LossSpec("extra_final_l2", lambda_final=1e-3,
                 extra_penalties=(PenaltySpec("extra_final_l2", 5e-4),)),
        LossSpec("logit_norm", extra_penalties=(PenaltySpec("logit_penalty", 2e-3),)),
        LossSpec("squared_error", extra_penalties=(PenaltySpec("extra_final_l2", 1e-3),)),
        LossSpec("dropout", extra_penalties=(PenaltySpec("logit_penalty", 1e-3),
                                             PenaltySpec("extra_final_l2", 1e-3))),
        LossSpec("cosine_softmax", extra_penalties=(PenaltySpec("logit_penalty", 1e-3),
                                                    PenaltySpec("extra_final_l2", 1e-3))),
    ], ids=lambda s: s.kind + "+" * len(s.extra_penalties))
    def test_every_spec_returns_the_final_layer_backward(self, spec):
        rng = np.random.default_rng(15)
        layer = FinalLayer(rng.standard_normal((3, 4)), rng.standard_normal(3))
        X = rng.standard_normal((5, 4))
        t = [0, 1, 2, 0, 1]
        res = compose_loss(spec, layer, X, t, seed=0)
        assert res.grad_weights.shape == (3, 4)
        assert res.grad_bias.shape == (3,)
        assert res.grad_features.shape == (5, 4)
        if spec.kind in ("cosine_softmax", "dropout"):
            return  # heads that are not W x + b; the FD suite checks them
        dW, db, dX = losses.linear_backward(layer, X, res.grad_logits)
        lam = spec.lambda_final if spec.kind == "extra_final_l2" else 0.0
        for p in spec.extra_penalties:
            if p.kind == "extra_final_l2":
                lam += p.value
        if lam > 0.0:
            dW = dW + lam * layer.weights
        np.testing.assert_array_equal(res.grad_weights, dW)
        np.testing.assert_array_equal(res.grad_bias, db)
        np.testing.assert_array_equal(res.grad_features, dX)

    def test_direct_grads_present_exactly_when_needed(self):
        # the trainer always needs the final-layer backward, so every spec,
        # a plain softmax included, carries dW, db and dX
        rng = np.random.default_rng(15)
        layer = FinalLayer(rng.standard_normal((3, 4)), np.zeros(3))
        X = rng.standard_normal((2, 4))
        t = [0, 1]
        plain = compose_loss(LossSpec("softmax"), layer, X, t)
        dW, db, dX = losses.linear_backward(layer, X, plain.grad_logits)
        np.testing.assert_array_equal(plain.grad_weights, dW)
        np.testing.assert_array_equal(plain.grad_bias, db)
        np.testing.assert_array_equal(plain.grad_features, dX)
        for spec in (
            LossSpec("cosine_softmax", temperature=0.1),
            LossSpec("dropout", keep_prob=0.5),
            LossSpec("extra_final_l2", lambda_final=1e-3),
            LossSpec("softmax", extra_penalties=(PenaltySpec("extra_final_l2", 1e-3),)),
        ):
            res = compose_loss(spec, layer, X, t, seed=0)
            assert res.grad_weights is not None
            assert res.grad_bias is not None
            assert res.grad_features is not None

    def test_single_example_results_squeeze(self):
        layer = FinalLayer(np.eye(3), np.zeros(3))
        spec = LossSpec("softmax", extra_penalties=(PenaltySpec("extra_final_l2", 1e-3),))
        res = compose_loss(spec, layer, np.array([1.0, 2.0, 3.0]), 2)
        assert res.grad_logits.shape == (3,)
        assert res.grad_features.shape == (3,)
        assert res.grad_weights.shape == (3, 3)

    def test_evaluation_loss_dropout_is_maskfree(self):
        rng = np.random.default_rng(16)
        layer = FinalLayer(rng.standard_normal((3, 5)), np.zeros(3))
        X = rng.standard_normal((4, 5))
        t = [0, 1, 2, 0]
        spec = LossSpec("dropout", keep_prob=0.5)
        values, squares, _ = loss_rows(spec, layer, X, t)
        v = loss_value(spec, layer, [values], [squares])
        ref = softmax_xent(X @ layer.weights.T + layer.bias, t).value
        assert v == ref


class TestEvalScores:
    def test_plain_kinds_report_raw_logits(self):
        rng = np.random.default_rng(17)
        layer = FinalLayer(rng.standard_normal((3, 4)), rng.standard_normal(3))
        X = rng.standard_normal((2, 4))
        L = X @ layer.weights.T + layer.bias
        for kind in ("softmax", "label_smoothing", "dropout", "sigmoid",
                     "squared_error", "logit_penalty", "extra_final_l2"):
            np.testing.assert_array_equal(eval_scores(LossSpec(kind), layer, X), L)

    def test_cosine_scores_bounded(self):
        rng = np.random.default_rng(18)
        layer = FinalLayer(rng.standard_normal((4, 6)), np.zeros(4))
        X = rng.standard_normal((10, 6))
        Z = eval_scores(LossSpec("cosine_softmax", temperature=0.05), layer, X)
        assert np.all(np.abs(Z) <= 1.0 / 0.05 + 1e-9)


# ---------------------------------------------------------------------------
# the one-pass kernels give the bits of the separate passes they replaced


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


class TestRowMax:
    """row_max picks what np.max(..., axis=-1) picks; where a zero maximum
    is tied between +0.0 and -0.0 its sign may differ, and the softmax and
    logsumexp rows built on it keep every bit."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(24)
        yield rng.standard_normal((50, 10))
        yield rng.integers(-2, 2, size=(50, 9)).astype(float)  # ties
        zeros = rng.choice([-0.0, 0.0], size=(50, 17))
        yield zeros
        yield np.where(rng.random((50, 17)) < 0.5, zeros, -3.0)
        yield rng.standard_normal((3, 4, 5))

    def test_values_equal_np_max(self):
        for A in self.matrices():
            ref = np.max(A, axis=-1, keepdims=True)
            ours = row_max(A)
            assert ours.shape == ref.shape
            assert np.array_equal(ours, ref)

    def test_one_d_input_keeps_every_bit(self):
        for A in self.matrices():
            for row in A.reshape(-1, A.shape[-1]):
                assert same_bits(row_max(row), np.max(row, axis=-1, keepdims=True))

    def test_softmax_and_logsumexp_keep_every_bit(self):
        for A in self.matrices():
            m = np.max(A, axis=-1, keepdims=True)
            e = np.exp(A - m)
            assert same_bits(softmax_rows(A), e / np.sum(e, axis=-1, keepdims=True))
            assert same_bits(logsumexp_rows(A),
                             (m + np.log(np.sum(e, axis=-1, keepdims=True)))[..., 0])


def reference_xent_rows(Z, t):
    """(m - z_t) + log1p(sum_{k != argmax} exp(z_k - m)), in separate passes."""
    rows = np.arange(Z.shape[0])
    m = np.max(Z, axis=1)
    e = np.exp(Z - m[:, None])
    e[rows, np.argmax(Z, axis=1)] = 0.0
    return (m - Z[rows, t]) + np.log1p(np.sum(e, axis=1)), m, np.log1p(np.sum(e, axis=1))


def reference_softplus(x):
    """log(1 + exp(x)) without overflow on large |x|."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def one_hot(t, K):
    return np.eye(K)[t]


def kernel_cases():
    rng = np.random.default_rng(40)
    random = 3.0 * rng.standard_normal((64, 10))
    certain = rng.standard_normal((16, 10))
    certain[np.arange(16), np.arange(16) % 10] += 45.0  # gap >= 40
    tied = np.array([[2.0, 2.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0],
                     [-3.0, 5.0, 5.0, 5.0], [1.0, -2.0, 1.0, 0.5]])
    return [
        pytest.param(random, rng.integers(0, 10, 64), id="random"),
        pytest.param(certain, np.arange(16) % 10, id="certain_target"),
        pytest.param(certain, (np.arange(16) + 3) % 10, id="certain_other"),
        pytest.param(tied, np.array([1, 3, 2, 2]), id="tied"),
    ]


@pytest.mark.parametrize("Z,t", kernel_cases())
class TestOnePassKernels:
    def test_values_and_softmax(self, Z, t):
        values, P, m, tail = softmax_xent_rows(Z, t)
        ref, ref_m, ref_tail = reference_xent_rows(Z, t)
        np.testing.assert_array_equal(values, ref)
        np.testing.assert_array_equal(m, ref_m)
        np.testing.assert_array_equal(tail, ref_tail)
        np.testing.assert_array_equal(P, softmax_rows(Z))

    def test_softmax_ce(self, Z, t):
        values, G = losses._softmax_ce(Z, t)
        np.testing.assert_array_equal(values, reference_xent_rows(Z, t)[0])
        np.testing.assert_array_equal(G, softmax_rows(Z) - one_hot(t, Z.shape[1]))

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_smoothed_ce(self, Z, t, alpha):
        K, c = Z.shape[1], 1.0 / (1.0 - alpha)
        ref, m, tail = reference_xent_rows(Z, t)
        ref = ref + alpha * c * ((m - Z.mean(axis=1)) + tail)
        ref_G = c * softmax_rows(Z) - one_hot(t, K) - alpha * c / K
        values, G = losses._smoothed_ce(Z, t, LossSpec("label_smoothing", alpha=alpha))
        np.testing.assert_array_equal(values, ref)
        np.testing.assert_array_equal(G, ref_G)

    def test_sigmoid_ce(self, Z, t):
        Z = np.vstack([Z, np.full((1, Z.shape[1]), 800.0)])
        t = np.append(t, 0)
        rows = np.arange(Z.shape[0])
        terms = reference_softplus(Z)
        terms[rows, t] = reference_softplus(-Z[rows, t])
        values, G = losses._sigmoid_ce(Z, t)
        np.testing.assert_array_equal(values, terms.sum(axis=1))
        np.testing.assert_array_equal(G, sigmoid(Z) - one_hot(t, Z.shape[1]))

    def test_probe_objective(self, Z, t):
        # Z stands in for the features; the probe's scores are Xa theta^T
        rng = np.random.default_rng(41)
        K = 5
        Xa = np.hstack([Z, np.ones((Z.shape[0], 1))])
        theta = rng.standard_normal((K, Xa.shape[1]))
        y = t % K
        lam = 0.3
        value, G, P = _objective_and_grad(theta, Xa, y, lam)
        S = Xa @ theta.T
        W = theta[:, :-1]
        ref_G = (softmax_rows(S) - one_hot(y, K)).T @ Xa
        ref_G[:, :-1] += lam * W
        ref = float(np.sum(reference_xent_rows(S, y)[0])) + 0.5 * lam * float(np.sum(W * W))
        assert value == ref
        np.testing.assert_array_equal(G, ref_G)
        np.testing.assert_array_equal(P, softmax_rows(S))


def mask_off(spec):
    return replace(spec, kind="softmax") if spec.kind == "dropout" else spec


@pytest.mark.parametrize(
    "spec", [LossSpec(kind) for kind in LOSS_KINDS] + COMPOSED_SPECS,
    ids=lambda s: s.kind + "".join(f"+{p.kind}" for p in s.extra_penalties),
)
def test_evaluate_is_compose_value_and_eval_scores(spec):
    # evaluating a batch, whole or in row blocks, through loss_rows and
    # loss_value gives compose_loss's value and eval_scores
    rng = np.random.default_rng(42)
    layer = FinalLayer(rng.standard_normal((4, 6)), rng.standard_normal(4))
    X = rng.standard_normal((9, 6))
    t = rng.integers(0, 4, 9)
    ref = compose_loss(mask_off(spec), layer, X, t).value
    values, squares, scores = loss_rows(spec, layer, X, t)
    assert loss_value(spec, layer, [values], [squares]) == ref
    np.testing.assert_array_equal(scores, eval_scores(spec, layer, X))
    values, squares, _ = zip(*(loss_rows(spec, layer, X[rows], t[rows])
                               for rows in (slice(0, 4), slice(4, 9))))
    assert loss_value(spec, layer, values, squares) == ref


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize(
    "kind,field",
    [(kind, name) for kind in LOSS_KINDS for name in kind_fields(LossSpec, kind).values()],
)
def test_nonfinite_parameter_rejected(kind, field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        LossSpec(kind, **{field: value})


def test_public_objectives_check_parameters_through_the_table():
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        logit_penalty_xent(np.zeros(3), 0, math.inf)
    with pytest.raises(ValueError, match="target_magnitude must be finite"):
        squared_error_loss(np.zeros(3), 0, target_magnitude=math.nan)


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_softmax_value_nonnegative_and_grad_sums_zero(k, n, seed):
    rng = np.random.default_rng(seed)
    L = 4.0 * rng.standard_normal((n, k))
    t = rng.integers(0, k, n)
    res = softmax_xent(L, t)
    assert res.value >= 0.0
    np.testing.assert_allclose(res.grad_logits.sum(axis=1), 0.0, atol=1e-12)


@given(
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_smoothing_value_nonnegative(alpha, seed):
    rng = np.random.default_rng(seed)
    L = 4.0 * rng.standard_normal((3, 5))
    t = rng.integers(0, 5, 3)
    assert label_smoothing_xent(L, t, alpha).value >= 0.0


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_sigmoid_value_nonnegative(seed):
    rng = np.random.default_rng(seed)
    L = 6.0 * rng.standard_normal((4, 6))
    t = rng.integers(0, 6, 4)
    assert sigmoid_xent(L, t).value >= 0.0
