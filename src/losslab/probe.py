"""L2-regularized multinomial logistic regression probe on frozen features.

Objective (sum form, bias unregularized):

    J(W, b) = sum_i CE(softmax(W x_i + b), y_i) + (lambda / 2) ||W||_F^2

minimized by damped Newton on (W, b) jointly. With augmented features
x~ = [x, 1] the Hessian is sum_i (diag(p_i) - p_i p_i^T) kron x~_i x~_i^T
plus lambda on the weight diagonal. It is factorized by a block Cholesky
over its K x K grid of (d+1) x (d+1) class blocks; a Hessian that is not
positive definite ends the fit, reported as not converged. Armijo
backtracking along the Newton direction keeps the objective from rising.
Every Newton direction assembles only H's K(K+1)/2 lower blocks, packed
by block column, each through one (n, d+1) row panel, and factorizes them
in place, in a workspace that the fit, or the sweep for all its fits,
allocates once, so directions do not allocate (and page-fault) fresh
Hessians. Besides the packed blocks the workspace holds only that panel,
which then takes one (d+1) x (d+1) product at a time, not a panel per
class. The sweep checks its input once; its fits run unchecked on the
augmented rows it built.

The regularization path sweeps 45 log-spaced lambdas ascending with warm
starts. From the third lambda on, a fit starts from the last solution or
from its secant prediction 2 theta_i - theta_{i-1}, whichever has the
lower objective at the new lambda. The path picks the best validation
accuracy (ties to the larger lambda), then refits on the full training
set from that lambda's solution. It keeps only the two solutions the
secant reads, the best one so far and the per-lambda scalars, not a fit
per lambda.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .calibration import top1_predictions
from .checks import check_fields, check_labels, check_matrix, check_range, ranged
from .losses import softmax_xent_rows

DEFAULT_GRID = tuple(np.logspace(-6.0, 5.0, 45))


@dataclass(frozen=True)
class ProbeConfig:
    lambda_grid: tuple = DEFAULT_GRID
    val_fraction: float = ranged("in (0, 1)", 0.1)
    max_iterations: int = ranged(">= 1", 2000)
    # on the joint (W, b) gradient norm
    tolerance: float = ranged("finite and > 0", 1e-4)
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(v) for v in self.lambda_grid)
        if len(grid) < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be strictly increasing")
        for lam in grid:
            check_range("lambda_grid entry", lam, "finite and >= 0")
        check_fields(self)
        object.__setattr__(self, "lambda_grid", grid)


@dataclass
class LogRegFit:
    weights: np.ndarray  # (K, d)
    bias: np.ndarray  # (K,)
    converged: bool
    grad_norm: float
    objective: float
    n_iter: int
    objective_trace: list = field(default_factory=list)


@dataclass
class ProbeResult:
    best_lambda: float
    lambda_grid: tuple
    val_accuracy: np.ndarray  # per grid point
    weight_norms: np.ndarray  # ||W||_F per grid point at the sweep optimum
    test_accuracy: float
    weights: np.ndarray
    bias: np.ndarray
    # solver outcome per grid point, then of the refit at best_lambda
    converged: np.ndarray
    n_iter: np.ndarray
    grad_norm: np.ndarray
    refit_converged: bool
    refit_n_iter: int
    refit_grad_norm: float


def _objective_and_grad(theta, Xa, y, lam):
    """J, its gradient and the softmax rows at theta = [W, b], shape (K, d+1)."""
    W = theta[:, :-1]
    Z = Xa @ theta.T
    values, P, _, _ = softmax_xent_rows(Z, y)
    value = float(np.sum(values)) + 0.5 * lam * float(np.sum(W * W))
    R = P.copy()
    R[np.arange(y.size), y] -= 1.0
    G = R.T @ Xa
    G[:, :-1] += lam * W
    return value, G, P


def _newton_workspace(n, K, D):
    """(R, Hp): the buffers _newton_direction works in. R, max(n, D) D
    floats, holds one (n, D) row panel while H is assembled and then one
    D x D product at a time; Hp holds H's K(K+1)/2 lower D x D blocks,
    packed by block column. A fit, or a whole sweep, reuses them for every
    direction."""
    return np.empty(max(n, D) * D), np.empty(K * (K + 1) // 2 * D * D)


def _newton_direction(P, Xa, lam, G, work=None):
    """-H^{-1} G by block Cholesky; raises LinAlgError if H is not positive definite.

    H is a K x K grid of D x D class blocks, D = d + 1, and symmetric, so
    only its lower blocks are assembled, in the buffers of work (from
    _newton_workspace for at least n rows; fresh ones when None). Hp packs
    them by block column: column j is the (K - j, D, D) stack of blocks
    (j..K-1, j). Block (k, j) is X~^T (X~ * w) with the row weights
    w = -p_k p_j off the diagonal and p_j - p_j^2 on it, one matmul through
    R's (n, D) row panel, so R does not grow with K. Each buffer is
    overwritten before it is read, so nothing carries over from one call
    to the next.

    H = L L^T is factorized left-looking, one column at a time and in
    place: column j, less the products of the factor columns left of it
    (each formed in R, free once H is assembled), has the Schur block S_j
    on top. np.linalg.cholesky(S_j) gives L_jj and raises LinAlgError when
    S_j is not positive definite, which happens exactly when H is not.
    L_jj^{-1} turns the blocks below S_j into L's column j, is kept over
    S_j and carries the forward substitution, which then takes block j's
    share out of the residuals below it; the last block needs no column
    below it, so its share of the direction is S_{K-1}^{-1} times its
    forward residual. The back substitution climbs through the stored
    L_jj^{-1}. LAPACK sees only D x D blocks, the bulk of the work is
    matmul, and no temporary is bigger than a D x D block or n floats.

    The bias is unpenalized, so H is singular along b -> b + c 1, where J
    is flat. Adding e e^T, with e the unit all-ones direction on the bias
    block, makes H definite without moving the step: G is orthogonal to e,
    so the step is unchanged off e and zero along it.
    """
    n, K = P.shape
    D = Xa.shape[1]
    R, Hp = _newton_workspace(n, K, D) if work is None else work
    panel, S = R[:n * D].reshape(n, D), R[:D * D].reshape(D, D)
    cols, start = [], 0
    for j in range(K):
        C = Hp[start:start + (K - j) * D * D].reshape(K - j, D, D)
        start += C.size
        for k in range(j, K):
            w = P[:, j] * (1.0 - P[:, j]) if k == j else -(P[:, k] * P[:, j])
            np.multiply(Xa, w[:, None], out=panel)
            np.matmul(Xa.T, panel, out=C[k - j])
        np.einsum("aa->a", C[0])[:-1] += lam
        C[:, -1, -1] += 1.0 / K
        cols.append(C)
    # x goes from G through L^-1 G to H^-1 G
    x = G.reshape(-1).copy()
    for j, C in enumerate(cols):
        s, below = slice(j * D, (j + 1) * D), slice((j + 1) * D, None)
        for i in range(j):
            Lji = cols[i][j - i:]  # L's blocks (j..K-1, i)
            for B, Lki in zip(C, Lji):
                B -= np.matmul(Lki, Lji[0].T, out=S)
        L = np.linalg.cholesky(C[0])
        if j == K - 1:
            x[s] = np.linalg.solve(C[0], x[s])
            break
        M = np.linalg.inv(L)
        for B in C[1:]:
            B[...] = np.matmul(B, M.T, out=S)
        C[0] = M
        x[s] = M @ x[s]
        x[below] -= C[1:].reshape(-1, D) @ x[s]
    for j in reversed(range(K - 1)):
        s, below = slice(j * D, (j + 1) * D), slice((j + 1) * D, None)
        C = cols[j]
        x[s] = C[0].T @ (x[s] - C[1:].reshape(-1, D).T @ x[below])
    return -x.reshape(K, D)


def fit_logreg(
    features,
    labels,
    lam: float,
    num_classes: int | None = None,
    init_weights=None,
    init_bias=None,
    tolerance: float = 1e-4,
    max_iterations: int = 2000,
    work=None,
) -> LogRegFit:
    """Damped Newton from (init_weights, init_bias), zeros by default.

    work is a _newton_workspace for at least as many rows as features
    has; every Newton direction builds its row panel in the first n (d+1)
    floats of its row buffer. None allocates one for this fit. A sweep
    passes one workspace to all of its fits, so no fit allocates (and
    page-faults) a fresh Hessian.
    """
    X = check_matrix(features, "features")
    y, K = check_labels(labels, X.shape[0], num_classes)
    check_range("lam", lam, "finite and >= 0")
    check_range("tolerance", tolerance, "finite and > 0")
    check_range("max_iterations", max_iterations, ">= 0")
    d = X.shape[1]
    W = np.zeros((K, d)) if init_weights is None else np.array(init_weights, dtype=np.float64)
    b = np.zeros(K) if init_bias is None else np.array(init_bias, dtype=np.float64)
    if W.shape != (K, d) or b.shape != (K,):
        raise ValueError(f"init shapes {W.shape}/{b.shape} do not match ({K},{d})")
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    return _fit(Xa, y, lam, np.hstack([W, b[:, None]]), tolerance, max_iterations, work)


def _fit(Xa, y, lam, theta, tolerance, max_iterations, work=None) -> LogRegFit:
    """fit_logreg on checked inputs: the augmented rows Xa = [X, 1], their
    labels y and the start theta = [W, b], (K, d+1). sweep_and_retrain
    checks its input once and runs every fit through here."""
    value, G, P = _objective_and_grad(theta, Xa, y, lam)
    trace = [value]
    it = 0
    gn = float(np.linalg.norm(G))
    if work is None:
        work = _newton_workspace(Xa.shape[0], theta.shape[0], Xa.shape[1])
    while gn > tolerance and it < max_iterations:
        try:
            direction = _newton_direction(P, Xa, lam, G, work)
        except np.linalg.LinAlgError:
            break  # Hessian not positive definite: reported as not converged
        slope = float(np.sum(G * direction))
        # Armijo backtracking on f(theta + t direction) from the full step
        step = 1.0
        accepted = False
        while step > 1e-20:
            theta2 = theta + step * direction
            v2, G2, P2 = _objective_and_grad(theta2, Xa, y, lam)
            if v2 <= value + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # stalled at float precision
        theta, value, G, P = theta2, v2, G2, P2
        gn = float(np.linalg.norm(G))
        trace.append(value)
        it += 1

    converged = gn <= tolerance
    if not converged:
        warnings.warn(
            f"logreg did not converge in {it} iterations "
            f"(grad norm {gn:.3e} > {tolerance:g})",
            RuntimeWarning,
        )
    W, b = theta[:, :-1].copy(), theta[:, -1].copy()
    return LogRegFit(W, b, converged, gn, value, it, trace)


def probe_accuracy(W, b, X, y) -> float:
    return float(np.mean(top1_predictions(X @ W.T + b) == np.asarray(y)))


def stratified_split(labels, val_fraction: float, seed: int):
    """(train_idx, val_idx): seeded per-class split, train side never empty.

    labels are checked as check_labels does and val_fraction must be in
    (0, 1), as in ProbeConfig. harness.transfer_probe splits its coarse
    classes through it at 0.5 and seed 0, with the validation side as the
    probe's training rows.
    """
    y, _ = check_labels(labels, np.size(labels))
    check_range("val_fraction", val_fraction, "in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    # the classes present, ascending; np.unique would import numpy.ma
    for k in np.flatnonzero(np.bincount(y)):
        idx = np.where(y == k)[0]
        idx = rng.permutation(idx)
        # at least one row, capped so train survives
        n_val = min(max(1, int(round(val_fraction * idx.size))), idx.size - 1)
        val_idx.append(idx[:n_val])
        train_idx.append(idx[n_val:])
    train_idx = np.concatenate(train_idx)
    val_idx = np.concatenate(val_idx)
    if val_idx.size == 0:
        raise ValueError("every class holds 1 row; a split needs a class "
                         "with at least 2 rows")
    return np.sort(train_idx), np.sort(val_idx)


def _path_start(last, prev, Xa, y, lam):
    """The start, [W, b], of the path fit at lam after the solutions
    last = theta_i and prev = theta_{i-1} (None before the second fit):
    theta_i, or the secant prediction 2 theta_i - theta_{i-1} when that has
    the lower objective at lam. The grid is uniform in log lambda, so the
    secant extrapolates theta linearly along it."""
    if prev is None:
        return last
    guess = 2.0 * last - prev
    if _objective_and_grad(guess, Xa, y, lam)[0] < _objective_and_grad(last, Xa, y, lam)[0]:
        return guess
    return last


def sweep_and_retrain(
    features_train,
    labels_train,
    features_test,
    labels_test,
    config: ProbeConfig = ProbeConfig(),
    num_classes: int | None = None,
) -> ProbeResult:
    X = check_matrix(features_train, "features_train")
    Xt = check_matrix(features_test, "features_test", X.shape[1])
    y, k = check_labels(labels_train, X.shape[0], num_classes, "labels_train")
    yt, kt = check_labels(labels_test, Xt.shape[0], num_classes, "labels_test")
    return _sweep_and_retrain(X, y, Xt, yt, config, max(k, kt))


def _sweep_and_retrain(X, y, Xt, yt, config, K) -> ProbeResult:
    """sweep_and_retrain on checked inputs: float rows X and Xt of one
    width, int64 labels y and yt in [0, K). harness.transfer_probe checks
    its input once and calls this directly.

    The path keeps only what the next fit, the refit and ProbeResult read:
    the last two solutions, for the secant start, the best one so far, and
    the per-lambda scalars."""
    tr, va = stratified_split(y, config.val_fraction, config.seed)
    if np.count_nonzero(np.bincount(y[tr])) < K:
        raise ValueError("a class is missing from the probe training split")

    # [X, 1] once: the path fits take its train rows, the refit all of it
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    Xa_tr, ytr, Xva, yva = Xa[tr], y[tr], X[va], y[va]
    grid = config.lambda_grid
    val_acc, norms, grad_norm = np.zeros((3, len(grid)))
    n_iter = np.zeros(len(grid), dtype=np.int64)
    converged = np.zeros(len(grid), dtype=bool)
    work = _newton_workspace(X.shape[0], K, Xa.shape[1])  # the refit's rows
    prev = last = best = None
    best_i = 0
    for i, lam in enumerate(grid):
        start = np.zeros((K, Xa.shape[1])) if last is None else _path_start(
            last, prev, Xa_tr, ytr, lam)
        fit = _fit(Xa_tr, ytr, lam, start, config.tolerance, config.max_iterations, work)
        prev, last = last, np.hstack([fit.weights, fit.bias[:, None]])
        converged[i], n_iter[i], grad_norm[i] = fit.converged, fit.n_iter, fit.grad_norm
        val_acc[i] = probe_accuracy(fit.weights, fit.bias, Xva, yva)
        norms[i] = float(np.linalg.norm(fit.weights))
        # ties go to the larger lambda: the grid ascends, so keep >=
        if val_acc[i] >= val_acc[best_i]:
            best_i, best = i, last
    best_lambda = grid[best_i]

    final = _fit(Xa, y, best_lambda, best, config.tolerance, config.max_iterations,
                 work)
    return ProbeResult(
        best_lambda=best_lambda,
        lambda_grid=grid,
        val_accuracy=val_acc,
        weight_norms=norms,
        test_accuracy=probe_accuracy(final.weights, final.bias, Xt, yt),
        weights=final.weights,
        bias=final.bias,
        converged=converged,
        n_iter=n_iter,
        grad_norm=grad_norm,
        refit_converged=final.converged,
        refit_n_iter=final.n_iter,
        refit_grad_norm=final.grad_norm,
    )
