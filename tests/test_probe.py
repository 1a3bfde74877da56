"""Linear probe: ridge-penalized multinomial regression on frozen features."""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp, softmax

from losslab import probe
from losslab.calibration import top1_predictions
from losslab.probe import (
    VAL_FRACTION,
    ProbeConfig,
    _newton_direction,
    _newton_workspace,
    _solve,
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


def dense_hessian(P, Xa, lam):
    """The Newton system's matrix, assembled one class block at a time.

    Block (k, l) is sum_i (p_ik [k == l] - p_ik p_il) x~_i x~_i^T, plus
    lambda on the weight diagonal of the diagonal blocks and 1/K on every
    bias-bias entry (the e e^T that fixes the shared bias shift).
    """
    n, K = P.shape
    D = Xa.shape[1]
    H = np.zeros((K * D, K * D))
    for k in range(K):
        for l in range(K):
            w = P[:, k] * ((k == l) - P[:, l])
            block = (Xa * w[:, None]).T @ Xa
            if k == l:
                block[:-1, :-1] += lam * np.eye(D - 1)
            block[-1, -1] += 1.0 / K
            H[k * D:(k + 1) * D, l * D:(l + 1) * D] = block
    return H


def newton_case(K, seed, n=60, d=6):
    """Softmax rows P, augmented features and the cross-entropy gradient G.

    Each row of P - onehot(y) sums to 0, so G's class rows sum to 0, as
    every gradient of J at lambda = 0 does: G has no part along the shared
    shift W -> W + 1 w^T, where a small lambda leaves H nearly singular.
    """
    rng = np.random.default_rng(seed)
    Xa = np.hstack([rng.standard_normal((n, d)), np.ones((n, 1))])
    P = softmax(rng.standard_normal((n, K)), axis=1)
    R = P.copy()
    R[np.arange(n), np.arange(n) % K] -= 1.0
    return P, Xa, R.T @ Xa


def record_directions(monkeypatch, reuse_scale=1.0):
    """Spy on the two ways a fit takes a direction. Returns a list that
    gets ("fresh", G, work) for each _newton_direction, which factors the
    Hessian, and ("reuse", G, work) for each _solve against a factor held
    from an earlier iterate, whose direction the spy scales by
    reuse_scale; the solve inside _newton_direction is not listed."""
    calls, inside = [], []
    newton_direction, solve = probe._newton_direction, probe._solve

    def spy_direction(P, Xa, lam, G, work=None):
        calls.append(("fresh", G.copy(), work))
        inside.append(True)
        try:
            return newton_direction(P, Xa, lam, G, work)
        finally:
            inside.pop()

    def spy_solve(G, work):
        if inside:
            return solve(G, work)
        calls.append(("reuse", G.copy(), work))
        return reuse_scale * solve(G, work)

    monkeypatch.setattr(probe, "_newton_direction", spy_direction)
    monkeypatch.setattr(probe, "_solve", spy_solve)
    return calls


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

    def test_shared_weight_offset_start_reaches_zero_start_optimum(self):
        # softmax ignores a vector added to every weight row, and the fit
        # centers its start, so the offset start ends where zeros end: the
        # same objective and predictions, weights that sum to 0 over the
        # classes, and a bias that keeps its class sum
        X, y, Xt, _ = acceptance_blobs()
        rng = np.random.default_rng(11)
        w0 = np.tile(3.0 * rng.standard_normal(X.shape[1]), (3, 1))
        b0 = np.array([0.5, -1.0, 2.0])
        zero = fit_logreg(X, y, 1.0, 3, tolerance=1e-8)
        shifted = fit_logreg(X, y, 1.0, 3, init_weights=w0, init_bias=b0,
                             tolerance=1e-8)
        assert zero.converged and shifted.converged
        assert shifted.objective == pytest.approx(zero.objective, rel=1e-12)
        np.testing.assert_allclose(shifted.weights, zero.weights, atol=1e-8)
        assert np.abs(shifted.weights.sum(axis=0)).max() < 1e-12 * np.abs(w0).max()
        assert shifted.bias.sum() == pytest.approx(b0.sum(), abs=1e-12)
        np.testing.assert_allclose(shifted.bias - shifted.bias.mean(),
                                   zero.bias - zero.bias.mean(), atol=1e-8)
        for rows in (X, Xt):
            assert np.array_equal(
                top1_predictions(rows @ shifted.weights.T + shifted.bias),
                top1_predictions(rows @ zero.weights.T + zero.bias))

    @pytest.mark.parametrize("init", [None, "offset"])
    def test_one_class_fit_takes_no_direction(self, init, monkeypatch):
        # K = 1: the sum-zero basis is empty, the centered start has W = 0
        # and its gradient is 0, so the fit converges without a direction
        monkeypatch.setattr(probe, "_newton_direction", None)
        X, _, _, _ = acceptance_blobs()
        w0 = None if init is None else np.full((1, X.shape[1]), 2.5)
        fit = fit_logreg(X, np.zeros(X.shape[0], dtype=int), 1.0, 1,
                         init_weights=w0, init_bias=np.array([0.7]))
        assert fit.converged and fit.n_iter == 0 and fit.grad_norm == 0.0
        assert np.array_equal(fit.weights, np.zeros((1, X.shape[1])))
        assert fit.bias.tolist() == [0.7]

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

    @pytest.mark.parametrize("lam,k,d", [(1.0, 2, 8), (0.1, 3, 8), (1e-2, 3, 8)])
    def test_steps_within_rounding_are_judged_by_the_gradient(self, lam, k, d):
        # near the optimum a Newton step moves J by less than its rounding,
        # so the Armijo test on J alone rejects good steps. On this data
        # it ran to 2,000 iterations with ||G|| at 1e-10 to 1e-8: with a
        # fresh factor every step in the first and third case, and with
        # factor reuse in the first two
        rng = np.random.default_rng(100 + k)
        n = 20 * k
        y = np.arange(n) % k
        X = 0.8 * rng.standard_normal((k, d))[y] + rng.standard_normal((n, d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_logreg(X, y, lam, k, tolerance=1e-12)
        assert fit.converged and fit.n_iter < 30

    @pytest.mark.parametrize("lam,tol", [
        (np.nan, 1e-4), (np.inf, 1e-4), (0.1, np.nan), (0.1, np.inf),
        (-1e-300, 1e-4), (0.1, 0.0), (0.1, -1.0),
    ])
    def test_non_finite_lambda_or_tolerance_rejected(self, lam, tol):
        # an infinite tolerance would report any start as converged, and
        # a nan lambda gives a nan gradient
        X, y, _, _ = acceptance_blobs()
        with pytest.raises(ValueError, match="finite"):
            fit_logreg(X, y, lam, 3, tolerance=tol)

    @pytest.mark.parametrize("max_iterations, match", [
        (2.5, "max_iterations must be an integer, got 2.5"),
        (3.0, "max_iterations must be an integer, got 3.0"),
        (-1, "max_iterations must be >= 0, got -1"),
    ], ids=["fractional", "whole_float", "negative"])
    def test_max_iterations_must_be_a_count(self, max_iterations, match):
        # 2.5 used to run 3 Newton iterations
        X, y, _, _ = acceptance_blobs()
        with pytest.raises(ValueError, match=match):
            fit_logreg(X, y, 1e-3, 3, max_iterations=max_iterations, tolerance=1e-30)

    def test_gradient_norm_reported_below_tolerance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 4))
        y = rng.integers(0, 3, 50)
        fit = fit_logreg(X, y, 0.5, 3, max_iterations=2000, tolerance=1e-6)
        assert fit.converged
        assert fit.grad_norm < 1e-6


class TestNewtonDirection:
    @pytest.mark.parametrize("lam", [1e-6, 1e-2, 1e3])
    @pytest.mark.parametrize("K", [2, 3, 5, 10])
    def test_matches_dense_solve(self, K, lam):
        P, Xa, G = newton_case(K, seed=K)
        ref = -np.linalg.solve(dense_hessian(P, Xa, lam), G.reshape(-1))
        got = _newton_direction(P, Xa, lam, G)
        assert got.shape == G.shape
        rel = np.linalg.norm(got.reshape(-1) - ref) / np.linalg.norm(ref)
        # at lambda = 1e-6, cond(H) is about 3e7 here: a dense Cholesky
        # and this LU solve already differ by up to about 4e-9
        assert rel < 1e-8

    @pytest.mark.parametrize("K", [5, 10])
    def test_matches_dense_solve_at_500_rows(self, K):
        # TRANSFER_TASK's probe rows at the benchmark's width, through a
        # nan-filled workspace. At lambda = 1e-6, cond(H) is about 1.7e8
        # here, and a dense Cholesky and this LU solve already differ by
        # about 1e-8, so the check starts at 1e-2
        n, d = 500, 64
        P, Xa, G = newton_case(K, seed=40 + K, n=n, d=d)
        work = _newton_workspace(n, K, d + 1)
        for buf in work:
            buf.fill(np.nan)
        for lam in (1e-2, 1e3):
            ref = -np.linalg.solve(dense_hessian(P, Xa, lam), G.reshape(-1))
            got = _newton_direction(P, Xa, lam, G, work)
            rel = np.linalg.norm(got.reshape(-1) - ref) / np.linalg.norm(ref)
            assert rel < 1e-8

    @pytest.mark.parametrize("n,K,D", [(100, 5, 65), (500, 5, 65), (500, 10, 65),
                                       (20, 4, 41), (7, 2, 3)])
    def test_workspace_holds_rows_and_lower_blocks(self, n, K, D):
        # one (n, D) row panel, or one D x D product when n < D, and the
        # (K-1)K/2 lower blocks of the sum-zero Hessian
        work = _newton_workspace(n, K, D)
        floats = max(n, D) * D + (K - 1) * K // 2 * D * D
        assert sum(buf.size for buf in work) == floats

    def test_row_buffer_does_not_grow_with_classes(self):
        # at fixed n, doubling K grows only the packed blocks
        (R5, H5), (R10, H10) = (_newton_workspace(500, K, 65) for K in (5, 10))
        assert R5.size == R10.size == 500 * 65
        assert (H5.size, H10.size) == (10 * 65 * 65, 45 * 65 * 65)

    @pytest.mark.parametrize("K", [2, 5])
    def test_fewer_rows_than_block_width(self, K):
        # n = 20 < D = 41: the Schur products use A3's rows past the n that
        # the assembly fills; a nan-filled workspace shows any stale read
        n, d = 20, 40
        P, Xa, G = newton_case(K, seed=30 + K, n=n, d=d)
        work = _newton_workspace(n, K, d + 1)
        for buf in work:
            buf.fill(np.nan)
        ref = -np.linalg.solve(dense_hessian(P, Xa, 1e-2), G.reshape(-1))
        got = _newton_direction(P, Xa, 1e-2, G, work)
        rel = np.linalg.norm(got.reshape(-1) - ref) / np.linalg.norm(ref)
        assert rel < 1e-8

    def test_singular_last_class_block_raises(self):
        # a class whose probability underflowed on every row: at
        # lambda = 0, H is flat along that class's weights less their class
        # mean, which is the last column of the sum-zero basis, so the
        # factorization fails at the last Schur block
        K = 4
        P, Xa, G = newton_case(K, seed=20)
        P[:, -1] = 0.0
        P /= P.sum(axis=1, keepdims=True)
        with pytest.raises(np.linalg.LinAlgError):
            _newton_direction(P, Xa, 0.0, G)

    @pytest.mark.parametrize("K", [1, 2, 3, 5, 10])
    def test_sum_zero_basis_is_orthonormal(self, K):
        # the Newton blocks' row weights below the diagonal rely on each
        # column being constant over the support of the columns before it
        Q = probe._sum_zero_basis(K)
        assert Q.shape == (K, K - 1) and not Q.flags.writeable
        np.testing.assert_allclose(Q.T @ Q, np.eye(K - 1), atol=1e-15)
        np.testing.assert_allclose(Q.sum(axis=0), 0.0, atol=1e-15)
        for k in range(K - 1):
            for j in range(k):
                assert np.array_equal(Q[:, k] * Q[:, j], Q[0, k] * Q[:, j])

    @pytest.mark.parametrize("lam", [1e-6, 1e-2, 1e3])
    @pytest.mark.parametrize("K", [2, 3, 5, 10])
    def test_direction_rows_sum_to_zero(self, K, lam):
        # the direction lives in the sum-zero subspace: a Newton step
        # leaves the class sums of W and b where they were
        P, Xa, G = newton_case(K, seed=K)
        got = _newton_direction(P, Xa, lam, G)
        assert np.abs(got.sum(axis=0)).max() <= 1e-12 * np.linalg.norm(got)

    def test_reused_workspace_matches_fresh_buffers(self):
        # two calls in a row through one workspace, pre-filled with nan, at
        # different P and lambda: each must equal a call with fresh buffers
        K, n, d = 3, 60, 6
        work = _newton_workspace(n, K, d + 1)
        for buf in work:
            buf.fill(np.nan)
        for seed, lam in ((3, 1e-2), (4, 1e3)):
            P, Xa, G = newton_case(K, seed=seed, n=n, d=d)
            fresh = _newton_direction(P, Xa, lam, G)
            assert np.array_equal(_newton_direction(P, Xa, lam, G, work), fresh)

    @pytest.mark.parametrize("lam", [1e-6, 1e-2, 1e3])
    @pytest.mark.parametrize("K", [1, 2, 3, 5, 10])
    def test_solve_reproduces_the_fresh_direction(self, K, lam):
        # _solve on the factor that _newton_direction left in a nan-filled
        # workspace gives that direction bit for bit, and serves another
        # gradient as a solve against the same Hessian
        P, Xa, G = newton_case(K, seed=K)
        work = _newton_workspace(*P.shape, Xa.shape[1])
        for buf in work:
            buf.fill(np.nan)
        direction = _newton_direction(P, Xa, lam, G, work)
        assert np.array_equal(_solve(G, work), direction)
        G2 = newton_case(K, seed=K + 50)[2]
        if K > 1:
            ref = -np.linalg.solve(dense_hessian(P, Xa, lam), G2.reshape(-1))
            got = _solve(G2, work).reshape(-1)
            assert np.linalg.norm(got - ref) < 1e-8 * np.linalg.norm(ref)

    def test_one_fit_passes_one_workspace_to_every_direction(self, monkeypatch):
        # each step factors afresh or reuses the held factor, always in one
        # workspace; no reused direction fails here, so the two counts add
        # up to the steps
        calls = record_directions(monkeypatch)
        X, y, _, _ = acceptance_blobs()
        fit = fit_logreg(X, y, 1.0, 3, tolerance=1e-8)
        assert fit.converged and fit.n_iter >= 3
        fresh = sum(kind == "fresh" for kind, _, _ in calls)
        assert 0 < fresh < len(calls) == fit.n_iter
        assert calls[0][2] is not None and all(w is calls[0][2] for _, _, w in calls)

    def test_sweep_shares_one_workspace_across_its_fits(self, monkeypatch):
        # a workspace with spare rows, pre-filled with nan, gives the fit
        # of fresh buffers bit for bit; the sweep's fits share one Hessian
        X, y, Xt, yt = acceptance_blobs()
        Xa = np.hstack([X, np.ones((X.shape[0], 1))])
        work = _newton_workspace(X.shape[0] + 7, 3, Xa.shape[1])
        for buf in work:
            buf.fill(np.nan)
        for lam in (1e-2, 1e2):
            shared = probe._fit(Xa, y, lam, (np.zeros((3, Xa.shape[1])),), 1e-8, 2000,
                                work)
            fresh = fit_logreg(X, y, lam, 3, tolerance=1e-8)
            assert shared.n_iter == fresh.n_iter and shared.n_iter > 0
            assert np.array_equal(shared.weights, fresh.weights)
            assert np.array_equal(shared.bias, fresh.bias)
        calls = record_directions(monkeypatch)
        res = sweep_and_retrain(X, y, Xt, yt, ProbeConfig(tolerance=1e-6))
        # fresh factorizations plus reuse solves: one per step
        assert len(calls) == res.n_iter.sum() + res.refit_n_iter
        assert all(w[1] is calls[0][2][1] for _, _, w in calls)

    def test_contraction_decides_reuse(self, monkeypatch):
        # at lambda = 1e2 a reused factor's step cuts ||G|| by less than
        # REUSE_CONTRACTION, and the next direction is factored afresh
        calls = record_directions(monkeypatch)
        X, y, _, _ = acceptance_blobs()
        fit = fit_logreg(X, y, 1e2, 3, tolerance=1e-8)
        assert fit.converged
        norms = [np.linalg.norm(G) for _, G, _ in calls] + [fit.grad_norm]
        kinds = [kind for kind, _, _ in calls]
        assert kinds[0] == "fresh"
        for i, kind in enumerate(kinds[1:], 1):
            # a direction reuses exactly when the step before it was full
            # (every step is, here) and cut ||G|| by the factor
            cut = norms[i - 1] >= probe.REUSE_CONTRACTION * norms[i]
            assert (kind == "reuse") == cut
        assert ("reuse", "fresh") in zip(kinds, kinds[1:])

    def test_failed_reuse_takes_a_fresh_factor_and_converges(self, monkeypatch):
        # a spy stretches every reused direction 3-fold, past the Armijo
        # bound: the fit factors afresh at the same theta, where the failed
        # solve was, and still reaches the unspied optimum
        X, y, _, _ = acceptance_blobs()
        plain = fit_logreg(X, y, 1.0, 3, tolerance=1e-8)
        calls = record_directions(monkeypatch, reuse_scale=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_logreg(X, y, 1.0, 3, tolerance=1e-8)
        assert fit.converged
        reused = [i for i, (kind, _, _) in enumerate(calls) if kind == "reuse"]
        assert reused
        for i in reused:
            kind, G, _ = calls[i + 1]
            assert kind == "fresh" and np.array_equal(G, calls[i][1])
        assert len(calls) == fit.n_iter + len(reused)
        assert fit.objective == pytest.approx(plain.objective, rel=1e-12)
        np.testing.assert_allclose(fit.weights, plain.weights, atol=1e-8)


class TestSplit:
    def test_stratified_counts(self):
        y = np.array([0] * 30 + [1] * 10)
        tr, va = stratified_split(y, 0.2)
        assert np.sum(y[va] == 0) == 6
        assert np.sum(y[va] == 1) == 2
        assert len(set(tr) | set(va)) == 40
        assert len(set(tr) & set(va)) == 0

    def test_val_clamped_below_class_size(self):
        y = np.array([0, 0, 1, 1])
        tr, va = stratified_split(y, 0.9)
        # each class keeps at least one training example
        assert np.sum(y[tr] == 0) >= 1
        assert np.sum(y[tr] == 1) >= 1

    def test_deterministic_in_seed(self):
        # the split's generator is seeded with 0: a repeat call gives it again
        y = np.tile(np.arange(4), 25)
        a = stratified_split(y, 0.25)
        b = stratified_split(y, 0.25)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_one_row_per_class_rejected(self):
        # no class can give a validation row and keep a training row
        match = "a split needs a class with at least 2 rows"
        with pytest.raises(ValueError, match=match):
            stratified_split([0, 1, 2], 0.5)
        with pytest.raises(ValueError, match=match):
            sweep_and_retrain(np.eye(3), [0, 1, 2], np.eye(3), [0, 1, 2],
                              ProbeConfig())

    def test_empty_val_rejected(self):
        y = np.array([0, 1])
        with pytest.raises(ValueError):
            stratified_split(y, 0.0)


class TestSweep:
    def test_separable_features_probe_to_high_accuracy(self):
        rng = np.random.default_rng(10)
        Xtr, ytr = two_blob_features(rng, n_per=60)
        Xte, yte = two_blob_features(rng, n_per=30)
        cfg = ProbeConfig(lambda_grid=(1e-4, 1e-2, 1.0, 100.0),
                          max_iterations=1500, tolerance=1e-3)
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
                          max_iterations=800, tolerance=1e-3)
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
                          tolerance=1e-4)
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
                          max_iterations=2000, tolerance=1e-3)
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
                          tolerance=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plain = sweep_and_retrain(Xtr, ytr, Xte, yte, cfg)
            rot = sweep_and_retrain(Xtr @ Q, ytr, Xte @ Q, yte, cfg)
        assert abs(plain.test_accuracy - rot.test_accuracy) < 0.005

    def test_every_fit_converges_on_acceptance_data(self):
        X, y, Xt, yt = acceptance_blobs()
        cfg = ProbeConfig(max_iterations=6000, tolerance=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sweep_and_retrain(X, y, Xt, yt, cfg)
        assert res.converged.shape == res.n_iter.shape == (len(cfg.lambda_grid),)
        assert res.converged.all() and res.refit_converged
        assert np.all(res.grad_norm <= 1e-6) and res.refit_grad_norm <= 1e-6
        assert np.all(res.n_iter >= 0) and res.refit_n_iter >= 0

    def test_predicted_starts_match_plain_warm_starts(self):
        # the path against a chain of fits each started from the last
        # solution: the same accuracies and choice, in fewer Newton steps
        X, y, Xt, yt = acceptance_blobs()
        cfg = ProbeConfig(max_iterations=6000, tolerance=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sweep_and_retrain(X, y, Xt, yt, cfg)
            tr, va = stratified_split(y, VAL_FRACTION)
            W = b = None
            val_acc, n_iter = [], []
            for lam in cfg.lambda_grid:
                fit = fit_logreg(X[tr], y[tr], lam, 3, init_weights=W, init_bias=b,
                                 tolerance=cfg.tolerance,
                                 max_iterations=cfg.max_iterations)
                W, b = fit.weights, fit.bias
                val_acc.append(probe_accuracy(W, b, X[va], y[va]))
                n_iter.append(fit.n_iter)
        assert res.converged.all()
        assert np.array_equal(res.val_accuracy, val_acc)
        best = max(i for i, a in enumerate(val_acc) if a == max(val_acc))
        assert res.best_lambda == cfg.lambda_grid[best]
        assert res.n_iter.sum() < sum(n_iter)

    def test_path_and_refit_are_fit_logreg_bit_for_bit(self):
        # the sweep's unchecked fits against fit_logreg on the same rows and
        # starts: the path descends, so its first fit, at the larger lambda,
        # starts from zeros, the second from the first (fewer than two
        # earlier fits, so no secant), and the refit from the best
        X, y, Xt, yt = acceptance_blobs()
        cfg = ProbeConfig(lambda_grid=(1e-2, 1.0), tolerance=1e-6)
        res = sweep_and_retrain(X, y, Xt, yt, cfg)
        tr, _ = stratified_split(y, VAL_FRACTION)
        first = fit_logreg(X[tr], y[tr], 1.0, 3, tolerance=cfg.tolerance)
        second = fit_logreg(X[tr], y[tr], 1e-2, 3, first.weights, first.bias,
                            tolerance=cfg.tolerance)
        best = (second, first)[cfg.lambda_grid.index(res.best_lambda)]
        final = fit_logreg(X, y, res.best_lambda, 3, best.weights, best.bias,
                           tolerance=cfg.tolerance)
        assert res.n_iter.tolist() == [second.n_iter, first.n_iter]
        assert res.grad_norm.tolist() == [second.grad_norm, first.grad_norm]
        assert res.refit_n_iter == final.n_iter > 0
        assert np.array_equal(res.weights, final.weights)
        assert np.array_equal(res.bias, final.bias)

    def test_trimmed_path_is_fit_logreg_bit_for_bit(self):
        # the path keeps only its last two solutions and the best one: on
        # a grid whose best lambda (1e2, the largest of a six-way tie)
        # comes before the last two fits of the descending walk, it matches
        # a chain of fit_logreg calls that keeps every fit and picks each
        # start by the secant rule itself. That takes the secant from 1e2
        # down, except at 0.9, where the secant from 1 steps a decade as
        # 10 -> 1 did and the last solution wins
        X, y, Xt, yt = acceptance_blobs()
        keep = np.flatnonzero(np.arange(y.size) < np.array([30, 45, 68])[y])
        X, y = X[keep], y[keep]  # 30, 15 and 8 rows: large lambdas pick class 0
        cfg = ProbeConfig(lambda_grid=(1e-2, 1e-1, 0.9, 1.0, 10.0, 1e2, 1e3, 1e4),
                          tolerance=1e-6)
        res = sweep_and_retrain(X, y, Xt, yt, cfg)
        tr, va = stratified_split(y, VAL_FRACTION)
        fits, val_acc, secant = {}, {}, []
        order = list(reversed(range(len(cfg.lambda_grid))))
        for step, i in enumerate(order):
            lam = cfg.lambda_grid[i]
            thetas = [np.concatenate([fits[j].weights.ravel(), fits[j].bias])
                      for j in order[max(step - 2, 0):step]]
            start = thetas[-1] if thetas else np.zeros(3 * 6)
            if len(thetas) == 2:
                guess = 2.0 * thetas[1] - thetas[0]
                secant.append(reference_objective(guess, X[tr], y[tr], lam, 3)[0]
                              < reference_objective(start, X[tr], y[tr], lam, 3)[0])
                start = guess if secant[-1] else start
            fits[i] = fit_logreg(X[tr], y[tr], lam, 3, start[:15].reshape(3, 5),
                                 start[15:], tolerance=cfg.tolerance)
            val_acc[i] = probe_accuracy(fits[i].weights, fits[i].bias, X[va], y[va])
        val_acc = [val_acc[i] for i in range(len(cfg.lambda_grid))]
        best = max(i for i, a in enumerate(val_acc) if a == max(val_acc))
        assert best > 1  # not among the last two fits of the walk
        assert secant == [True, True, True, False, True, True]
        final = fit_logreg(X, y, cfg.lambda_grid[best], 3, fits[best].weights,
                           fits[best].bias, tolerance=cfg.tolerance)
        assert res.best_lambda == cfg.lambda_grid[best]
        assert res.val_accuracy.tolist() == val_acc
        assert res.n_iter.tolist() == [fits[i].n_iter for i in range(len(fits))]
        assert res.grad_norm.tolist() == [fits[i].grad_norm for i in range(len(fits))]
        assert res.refit_n_iter == final.n_iter > 0
        assert res.refit_grad_norm == final.grad_norm
        assert np.array_equal(res.weights, final.weights)
        assert np.array_equal(res.bias, final.bias)

    def test_sweep_factors_less_than_it_steps(self, monkeypatch):
        # on the acceptance data the walk down the grid reuses factors:
        # fewer factorizations than Newton steps, and every fit converges
        calls = record_directions(monkeypatch)
        X, y, Xt, yt = acceptance_blobs()
        cfg = ProbeConfig(max_iterations=6000, tolerance=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sweep_and_retrain(X, y, Xt, yt, cfg)
        assert res.converged.all() and res.refit_converged
        fresh = sum(kind == "fresh" for kind, _, _ in calls)
        assert 0 < fresh < res.n_iter.sum()

    def test_no_evaluation_repeats_its_predecessor(self, monkeypatch):
        # each candidate start is evaluated once: the fit begins with the
        # objective, gradient and softmax rows it computed to choose it
        calls = []

        def spy(theta, Xa, y, lam):
            calls.append((theta.copy(), lam))
            return objective_and_grad(theta, Xa, y, lam)

        objective_and_grad = probe._objective_and_grad
        monkeypatch.setattr(probe, "_objective_and_grad", spy)
        X, y, Xt, yt = acceptance_blobs()
        res = sweep_and_retrain(X, y, Xt, yt, ProbeConfig(tolerance=1e-6))
        assert res.converged.all() and res.refit_converged
        assert len(calls) > res.n_iter.sum() + res.refit_n_iter
        for (a, lam_a), (b, lam_b) in zip(calls, calls[1:]):
            assert not (lam_a == lam_b and np.array_equal(a, b))

    def test_missing_train_class_rejected(self):
        Xtr = np.random.default_rng(0).standard_normal((20, 3))
        ytr = np.array([0, 1] * 10)
        Xte = Xtr.copy()
        yte = np.array([0, 1, 2, 0] * 5)
        cfg = ProbeConfig(lambda_grid=(1.0,))
        with pytest.raises(ValueError, match="class"):
            sweep_and_retrain(Xtr, ytr, Xte, yte, cfg, num_classes=3)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            ProbeConfig(lambda_grid=(1.0, 0.5))

    @pytest.mark.parametrize("grid, match", [
        ((), "lambda_grid is empty"),
        ((1.0, 1.0), "lambda_grid must be strictly increasing"),
    ], ids=["empty", "repeat"])
    def test_bad_grid_named(self, grid, match):
        with pytest.raises(ValueError, match=match):
            ProbeConfig(lambda_grid=grid)

    @pytest.mark.parametrize("bad", [
        dict(lambda_grid=(1e-3, np.nan)),
        dict(lambda_grid=(1e-3, np.inf)),
        dict(lambda_grid=(np.nan,)),
        dict(tolerance=np.nan),
        dict(tolerance=np.inf),
        dict(tolerance=0.0),
        dict(lambda_grid=(-1e-300, 1.0)),
    ])
    def test_non_finite_config_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ProbeConfig(**bad)

    @pytest.mark.parametrize("max_iterations", [2.5, 1000.0])
    def test_fractional_max_iterations_rejected(self, max_iterations):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            ProbeConfig(max_iterations=max_iterations)
