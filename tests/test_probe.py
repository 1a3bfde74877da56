"""Linear probe: ridge-penalized multinomial regression on frozen features."""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp, softmax

from losslab.probe import (
    ProbeConfig,
    fit_logreg,
    probe_accuracy,
    stratified_split,
    sweep_and_retrain,
)


def acceptance_blobs():
    """The three-class data of test_09_probe_mechanics: (X, y, Xt, yt)."""
    rng = np.random.default_rng(0)
    k, d, per = 3, 5, 30
    means = 2.5 * rng.standard_normal((k, d))
    X = np.concatenate([means[c] + rng.standard_normal((per, d)) for c in range(k)])
    y = np.repeat(np.arange(k), per)
    Xt = np.concatenate([means[c] + rng.standard_normal((10, d)) for c in range(k)])
    yt = np.repeat(np.arange(k), 10)
    return X, y, Xt, yt


def reference_objective(theta, X, y, lam, k):
    """J(W, b) and its gradient written with scipy, theta = [vec W, b]."""
    n, d = X.shape
    W, b = theta[: k * d].reshape(k, d), theta[k * d:]
    Z = X @ W.T + b
    value = np.sum(logsumexp(Z, axis=1) - Z[np.arange(n), y])
    R = softmax(Z, axis=1)
    R[np.arange(n), y] -= 1.0
    grad = np.concatenate([(R.T @ X + lam * W).ravel(), R.sum(axis=0)])
    return value + 0.5 * lam * np.sum(W * W), grad


def two_blob_features(rng, n_per=40, gap=6.0):
    a = rng.standard_normal((n_per, 3)) + np.array([gap, 0, 0])
    b = rng.standard_normal((n_per, 3)) - np.array([gap, 0, 0])
    X = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


class TestFitLogreg:
    def test_huge_lambda_collapses_weights(self):
        # at the optimum |W| ~ |grad CE| / lambda, so 1e7 pins it near zero
        rng = np.random.default_rng(0)
        X, y = two_blob_features(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = fit_logreg(X, y, 1e7, 2, max_iterations=500, tolerance=1e-6)
        assert np.max(np.abs(fit.weights)) < 1e-3

    def test_separable_data_fits_perfectly_at_tiny_lambda(self):
        rng = np.random.default_rng(1)
        X, y = two_blob_features(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_logreg(X, y, 1e-6, 2, max_iterations=3000,
                             tolerance=1e-3)
        assert probe_accuracy(fit.weights, fit.bias, X, y) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 4))
        y = rng.integers(0, 3, 60)
        fit = fit_logreg(X, y, 0.1, 3, max_iterations=200, tolerance=1e-8)
        trace = np.asarray(fit.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_two_inits_reach_same_objective(self):
        # strictly convex objective: the optimum is unique
        rng = np.random.default_rng(3)
        X = rng.standard_normal((80, 5))
        y = rng.integers(0, 4, 80)
        tol = 1e-6
        f0 = fit_logreg(X, y, 1.0, 4, max_iterations=20000, tolerance=tol)
        w0 = rng.standard_normal((4, 5)) * 0.5
        b0 = rng.standard_normal(4) * 0.5
        f1 = fit_logreg(X, y, 1.0, 4, max_iterations=20000, tolerance=tol,
                        init_weights=w0, init_bias=b0)
        assert f0.converged and f1.converged
        assert abs(f0.objective - f1.objective) < 1e-4

    def test_one_hot_features_are_learnable(self):
        y = np.tile(np.arange(3), 20)
        X = np.eye(3)[y] * 4.0
        fit = fit_logreg(X, y, 1e-6, 3, max_iterations=2000, tolerance=1e-3)
        assert probe_accuracy(fit.weights, fit.bias, X, y) == pytest.approx(1.0)

    def test_non_convergence_warns(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 4))
        y = rng.integers(0, 3, 50)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            fit_logreg(X, y, 1e-8, 3, max_iterations=2, tolerance=1e-14)

    def test_near_certain_rows_keep_their_loss(self):
        # margins of 30-45 nats: logsumexp(z) - z_t rounds each row's loss
        # away, while the true value is about exp(-margin)
        rng = np.random.default_rng(6)
        rows, y = np.arange(12), np.arange(12) % 3
        S = rng.standard_normal((12, 3))
        S[rows, y] = S.max(axis=1) + rng.uniform(30.0, 45.0, 12)
        # one indicator feature per row, so row i scores S[i] exactly
        fit = fit_logreg(np.eye(12), y, 0.0, 3,
                         init_weights=S.T, init_bias=np.zeros(3))
        others = S - S[rows, y][:, None]
        others[rows, y] = -np.inf
        expected = float(np.sum(np.log1p(np.sum(np.exp(others), axis=1))))
        assert fit.n_iter == 0
        assert fit.objective == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_singular_hessian_stops_unconverged(self):
        # lambda = 0 and a feature that is 0 on every row: the Hessian has
        # a zero row, Cholesky fails, and the fit says so
        rng = np.random.default_rng(7)
        X = np.hstack([rng.standard_normal((40, 3)), np.zeros((40, 1))])
        y = rng.integers(0, 3, 40)
        with pytest.warns(RuntimeWarning, match="logreg did not converge"):
            fit = fit_logreg(X, y, 0.0, 3)
        assert not fit.converged and fit.n_iter == 0

    @pytest.mark.parametrize("lam,k,d", [(1e-2, 2, 3), (0.3, 3, 5), (4.0, 5, 8)])
    def test_matches_scipy_minimizer(self, lam, k, d):
        rng = np.random.default_rng(100 + k)
        n = 20 * k
        y = np.arange(n) % k
        X = 0.8 * rng.standard_normal((k, d))[y] + rng.standard_normal((n, d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_logreg(X, y, lam, k, tolerance=1e-10)
        ref = minimize(
            reference_objective, np.zeros(k * (d + 1)), args=(X, y, lam, k),
            jac=True, method="L-BFGS-B",
            options=dict(gtol=1e-11, ftol=0.0, maxiter=20000),
        )
        assert np.linalg.norm(ref.jac) < 1e-7
        assert fit.objective == pytest.approx(ref.fun, rel=1e-12)
        W_ref, b_ref = ref.x[: k * d].reshape(k, d), ref.x[k * d:]
        np.testing.assert_allclose(fit.weights, W_ref, atol=1e-7)
        # the bias is defined up to a shared shift; compare it centered
        np.testing.assert_allclose(fit.bias - fit.bias.mean(),
                                   b_ref - b_ref.mean(), atol=1e-7)

    def test_gradient_norm_reported_below_tolerance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 4))
        y = rng.integers(0, 3, 50)
        fit = fit_logreg(X, y, 0.5, 3, max_iterations=2000, tolerance=1e-6)
        assert fit.converged
        assert fit.grad_norm < 1e-6


class TestSplit:
    def test_stratified_counts(self):
        y = np.array([0] * 30 + [1] * 10)
        tr, va = stratified_split(y, 0.2, seed=0)
        assert np.sum(y[va] == 0) == 6
        assert np.sum(y[va] == 1) == 2
        assert len(set(tr) | set(va)) == 40
        assert len(set(tr) & set(va)) == 0

    def test_val_clamped_below_class_size(self):
        y = np.array([0, 0, 1, 1])
        tr, va = stratified_split(y, 0.9, seed=0)
        # each class keeps at least one training example
        assert np.sum(y[tr] == 0) >= 1
        assert np.sum(y[tr] == 1) >= 1

    def test_deterministic_in_seed(self):
        y = np.tile(np.arange(4), 25)
        a = stratified_split(y, 0.25, seed=7)
        b = stratified_split(y, 0.25, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = stratified_split(y, 0.25, seed=8)
        assert not np.array_equal(a[1], c[1])

    def test_empty_val_rejected(self):
        y = np.array([0, 1])
        with pytest.raises(ValueError):
            stratified_split(y, 0.0, seed=0)


class TestSweep:
    def test_separable_features_probe_to_high_accuracy(self):
        rng = np.random.default_rng(10)
        Xtr, ytr = two_blob_features(rng, n_per=60)
        Xte, yte = two_blob_features(rng, n_per=30)
        cfg = ProbeConfig(lambda_grid=(1e-4, 1e-2, 1.0, 100.0),
                          max_iterations=1500, tolerance=1e-3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = sweep_and_retrain(Xtr, ytr, Xte, yte, cfg)
        assert res.test_accuracy > 0.95
        # fully separable: every lambda ties at val acc 1, largest wins
        assert res.best_lambda == pytest.approx(100.0)

    def test_noise_features_probe_to_chance(self):
        rng = np.random.default_rng(11)
        Xtr = rng.standard_normal((300, 6))
        ytr = rng.integers(0, 3, 300)
        Xte = rng.standard_normal((300, 6))
        yte = rng.integers(0, 3, 300)
        cfg = ProbeConfig(lambda_grid=(1e-2, 1.0, 100.0),
                          max_iterations=800, tolerance=1e-3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = sweep_and_retrain(Xtr, ytr, Xte, yte, cfg, num_classes=3)
        # binomial sd at p=1/3, n=300 is ~0.027
        assert abs(res.test_accuracy - 1 / 3) < 3 * 0.0273

    def test_weight_norms_shrink_with_lambda(self):
        rng = np.random.default_rng(12)
        Xtr, ytr = two_blob_features(rng, n_per=50)
        Xte, yte = two_blob_features(rng, n_per=20)
        grid = tuple(np.logspace(-4, 3, 8))
        cfg = ProbeConfig(lambda_grid=grid, max_iterations=1500,
                          tolerance=1e-4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = sweep_and_retrain(Xtr, ytr, Xte, yte, cfg)
        norms = np.asarray(res.weight_norms)
        assert np.all(np.diff(norms) <= 1e-8)

    def test_ties_resolve_to_larger_lambda(self):
        # one-hot features: every small lambda fits validation perfectly
        y = np.tile(np.arange(3), 30)
        X = np.eye(3)[y] * 6.0
        cfg = ProbeConfig(lambda_grid=(1e-6, 1e-4, 1e-2),
                          max_iterations=2000, tolerance=1e-3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = sweep_and_retrain(X, y, X, y, cfg)
        accs = np.asarray(res.val_accuracy)
        best = np.flatnonzero(accs == accs.max())[-1]
        assert res.best_lambda == pytest.approx(res.lambda_grid[best])

    def test_rotation_invariance_at_tiny_lambda(self):
        rng = np.random.default_rng(13)
        Xtr, ytr = two_blob_features(rng, n_per=50)
        Xte, yte = two_blob_features(rng, n_per=25)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        cfg = ProbeConfig(lambda_grid=(1e-6,), max_iterations=3000,
                          tolerance=1e-3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plain = sweep_and_retrain(Xtr, ytr, Xte, yte, cfg)
            rot = sweep_and_retrain(Xtr @ Q, ytr, Xte @ Q, yte, cfg)
        assert abs(plain.test_accuracy - rot.test_accuracy) < 0.005

    def test_every_fit_converges_on_acceptance_data(self):
        X, y, Xt, yt = acceptance_blobs()
        cfg = ProbeConfig(max_iterations=6000, tolerance=1e-6, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sweep_and_retrain(X, y, Xt, yt, cfg)
        assert res.converged.shape == res.n_iter.shape == (len(cfg.lambda_grid),)
        assert res.converged.all() and res.refit_converged
        assert np.all(res.grad_norm <= 1e-6) and res.refit_grad_norm <= 1e-6
        assert np.all(res.n_iter >= 0) and res.refit_n_iter >= 0

    def test_missing_train_class_rejected(self):
        Xtr = np.random.default_rng(0).standard_normal((20, 3))
        ytr = np.array([0, 1] * 10)
        Xte = Xtr.copy()
        yte = np.array([0, 1, 2, 0] * 5)
        cfg = ProbeConfig(lambda_grid=(1.0,), seed=0)
        with pytest.raises(ValueError, match="class"):
            sweep_and_retrain(Xtr, ytr, Xte, yte, cfg, num_classes=3)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            ProbeConfig(lambda_grid=(1.0, 0.5))
