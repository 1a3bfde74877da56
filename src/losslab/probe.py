"""L2-regularized multinomial logistic regression probe on frozen features.

Objective (sum form, bias unregularized):

    J(W, b) = sum_i CE(softmax(W x_i + b), y_i) + (lambda / 2) ||W||_F^2

minimized by damped Newton on (W, b) jointly. With augmented features
x~ = [x, 1] the Hessian is sum_i (diag(p_i) - p_i p_i^T) kron x~_i x~_i^T
plus lambda on the weight diagonal. Softmax does not change when one
vector is added to every class row, and ||W||^2 picks the representative
whose weight rows sum to 0 over the classes, so each fit centers its
start's weight rows and every Newton step then stays in the sum-zero
subspace. Each direction is solved there, in an orthonormal class basis
with K-1 columns: a block Cholesky over the (K-1) x (K-1) grid of
(d+1) x (d+1) blocks, which has no flat bias direction to patch. A
Hessian that is not positive definite ends the fit, reported as not
converged. Armijo backtracking along the Newton direction keeps the
objective from rising; a step whose change in the objective is within
its rounding is judged by the gradient norm instead. After a full step
that cut the gradient norm by at least REUSE_CONTRACTION, the next
direction is solved against the factor the fit already holds, not a new
one; if that step fails the Armijo test, the fit factors afresh at the
same iterate. Convergence is always judged on the true gradient. Every
fresh Newton direction assembles only the
(K-1)K/2 lower blocks, packed by block column, each through one
(n, d+1) row panel, and factorizes them in place, in a workspace that
the fit, or the sweep for all its fits, allocates once, so directions do
not allocate (and page-fault) fresh Hessians. Besides the packed blocks
the workspace holds only that panel, which then takes one
(d+1) x (d+1) product at a time, not a panel per class. The sweep checks
its input once; its fits run unchecked on the augmented rows it built.

The regularization path walks the 45 log-spaced lambdas from the largest
down with warm starts: at the top the zero start is nearly optimal, and
each solution is a close start for the next. A fit is given candidate
starts and begins at the one with the lowest objective, with the
objective, gradient and softmax rows it computed there. From the third
lambda on, the candidates are the last solution and its secant
prediction 2 theta_i - theta_{i-1}. The path picks the best validation
accuracy, ties to the larger lambda (the first seen, so only a strictly
better one replaces it), then refits on the full training set from that
lambda's solution. It keeps only the two solutions the secant reads, the
best one so far and the per-lambda scalars, in grid order, not a fit per
lambda.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .calibration import top1_predictions
from .checks import check_fields, check_labels, check_matrix, check_range, ranged
from .losses import softmax_xent_rows

DEFAULT_GRID = tuple(np.logspace(-6.0, 5.0, 45))
# a fit solves its next direction against the factor it holds after a
# full step that cut the gradient norm by at least this factor
REUSE_CONTRACTION = 10.0
# relative size of the objective's rounding error, as in the line search
# of scikit-learn's NewtonSolver
ROUNDING = 16 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class ProbeConfig:
    lambda_grid: tuple[float, ...] = ranged("finite and >= 0", DEFAULT_GRID)
    val_fraction: float = ranged("in (0, 1)", 0.1)
    max_iterations: int = ranged(">= 1", 2000)
    # on the joint (W, b) gradient norm
    tolerance: float = ranged("finite and > 0", 1e-4)
    seed: int = ranged(">= 0", 0)

    def __post_init__(self):
        if np.iterable(self.lambda_grid):  # a scalar fails check_fields
            object.__setattr__(self, "lambda_grid", tuple(map(float, self.lambda_grid)))
        check_fields(self)
        grid = self.lambda_grid
        if not grid:
            raise ValueError("lambda_grid is empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be strictly increasing")


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


@functools.lru_cache(maxsize=None)
def _sum_zero_basis(K):
    """Q, (K, K-1), read-only: Helmert's orthonormal basis of the class
    vectors that sum to 0. Column a is a+1 ones, then -(a+1), then zeros,
    over sqrt((a+1)(a+2))."""
    a = np.arange(1, K)
    Q = np.triu(np.ones((K, K - 1)))
    Q[a, a - 1] = -a
    Q /= np.sqrt(a * (a + 1.0))
    Q.flags.writeable = False
    return Q


def _newton_workspace(n, K, D):
    """(R, Hp): the buffers _newton_direction works in. R, max(n, D) D
    floats, holds one (n, D) row panel while H~ is assembled and then one
    D x D product at a time; Hp holds the (K-1)K/2 lower D x D blocks of
    the Hessian in the sum-zero class basis, packed by block column. A
    fit, or a whole sweep, reuses them for every direction."""
    return np.empty(max(n, D) * D), np.empty((K - 1) * K // 2 * D * D)


def _block_columns(Hp, Kr, D):
    """Hp's packed lower blocks as views, one per block column: column j
    is the (Kr-j, D, D) stack of blocks (j..Kr-1, j)."""
    cols, start = [], 0
    for j in range(Kr):
        cols.append(Hp[start:start + (Kr - j) * D * D].reshape(Kr - j, D, D))
        start += cols[-1].size
    return cols


def _newton_direction(P, Xa, lam, G, work=None):
    """-H^{-1} G in the sum-zero subspace, by block Cholesky; raises
    LinAlgError if H is not positive definite there.

    The direction is -Q H~^{-1} Q^T G, with Q from _sum_zero_basis and
    H~ = (Q kron I)^T H (Q kron I) a (K-1) x (K-1) grid of D x D blocks,
    D = d + 1. Its class rows sum to 0, and any part of G along the shared
    shift, which a centered iterate's gradient lacks, is dropped.

    H~ is symmetric, so only its lower blocks are assembled, in the
    buffers of work (from _newton_workspace for at least n rows; fresh
    ones when None). Hp packs them by block column: column j is the
    (K-1-j, D, D) stack of blocks (j..K-2, j). Block (k, j) is
    X~^T (X~ * w) with the row weights w = P (q_k * q_j) - u_k u_j, U = P Q,
    one matmul through R's (n, D) row panel, so R does not grow with K;
    lambda lands on the weight diagonal of the diagonal blocks. Each
    buffer is overwritten before it is read, so nothing carries over from
    one call to the next.

    H~ = L L^T is factorized left-looking, one column at a time and in
    place: column j, less the products of the factor columns left of it
    (each formed in R, free once H~ is assembled), has the Schur block S_j
    on top. np.linalg.cholesky(S_j) gives L_jj and raises LinAlgError when
    S_j is not positive definite, which happens exactly when H~ is not.
    L_jj^{-1} turns the blocks below S_j into L's column j and is kept
    over S_j; the last block needs no column below it and stays S_{K-2}.
    LAPACK sees only D x D blocks, the bulk of the work is matmul, and no
    temporary is bigger than a D x D block or P.

    The factor stays in Hp, and the direction is _solve(G, work) on it,
    so a fit can solve later gradients against it without factoring.
    """
    n, K = P.shape
    D = Xa.shape[1]
    R, Hp = _newton_workspace(n, K, D) if work is None else work
    panel, S = R[:n * D].reshape(n, D), R[:D * D].reshape(D, D)
    Q = _sum_zero_basis(K)
    Kr = K - 1
    Ut = (P @ Q).T
    # block (k, j)'s row weights are P (q_k * q_j) - u_k u_j; below the
    # diagonal q_k is Q[0, k] wherever q_j is not 0, so u_j (Q[0, k] - u_k)
    diag = (P @ (Q * Q)).T - Ut * Ut
    off = Q[0][:, None] - Ut
    cols = _block_columns(Hp, Kr, D)
    for j, C in enumerate(cols):
        for k in range(j, Kr):
            w = diag[j] if k == j else Ut[j] * off[k]
            np.multiply(Xa, w[:, None], out=panel)
            np.matmul(Xa.T, panel, out=C[k - j])
        np.einsum("aa->a", C[0])[:-1] += lam
    for j, C in enumerate(cols):
        for i in range(j):
            Lji = cols[i][j - i:]  # L's blocks (j..Kr-1, i)
            for B, Lki in zip(C, Lji):
                B -= np.matmul(Lki, Lji[0].T, out=S)
        L = np.linalg.cholesky(C[0])
        if j < Kr - 1:
            M = np.linalg.inv(L)
            for B in C[1:]:
                B[...] = np.matmul(B, M.T, out=S)
            C[0] = M
    return _solve(G, (R, Hp))


def _solve(G, work):
    """-Q H~^{-1} Q^T G from the factor that _newton_direction left in
    work's packed blocks: column j holds L_jj^{-1} over L's blocks below
    it, and the last column holds S_{K-2}. The forward substitution runs
    through each stored L_jj^{-1} and takes block j's share out of the
    residuals below it; the last block's share is S_{K-2}^{-1} times its
    forward residual; the back substitution climbs through the stored
    L_jj^{-1}. A fit can thus solve for a new gradient against the
    Hessian it factored at an earlier iterate; on the factor's own
    gradient this is, bit for bit, the direction _newton_direction
    returned."""
    K, D = G.shape
    Kr = K - 1
    cols = _block_columns(work[1], Kr, D)
    Q = _sum_zero_basis(K)
    # x goes from Q^T G through L^-1 Q^T G to H~^-1 Q^T G
    x = (Q.T @ G).reshape(-1)
    for j, C in enumerate(cols):
        s, below = slice(j * D, (j + 1) * D), slice((j + 1) * D, None)
        if j == Kr - 1:
            x[s] = np.linalg.solve(C[0], x[s])
        else:
            x[s] = C[0] @ x[s]
            x[below] -= C[1:].reshape(-1, D) @ x[s]
    for j in reversed(range(Kr - 1)):
        s, below = slice(j * D, (j + 1) * D), slice((j + 1) * D, None)
        C = cols[j]
        x[s] = C[0].T @ (x[s] - C[1:].reshape(-1, D).T @ x[below])
    return -(Q @ x.reshape(Kr, D))


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

    The fit first takes the class mean out of the start's weight rows,
    which moves no softmax row, so a start whose weight rows share an
    offset reaches the zero start's optimum. Every Newton step sums to 0
    over the classes, so the bias keeps init_bias's class sum.

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
    return _fit(Xa, y, lam, (np.hstack([W, b[:, None]]),), tolerance, max_iterations,
                work)


def _fit(Xa, y, lam, starts, tolerance, max_iterations, work=None) -> LogRegFit:
    """fit_logreg on checked inputs: the augmented rows Xa = [X, 1], their
    labels y and a tuple of candidate starts [W, b], (K, d+1).
    sweep_and_retrain checks its input once and runs every fit through
    here.

    Each start has the class mean taken out of its weight rows, the
    subspace the Newton steps keep, and is evaluated in turn; the fit
    begins at the one with the lowest objective, the first on a tie.

    A step factors the Hessian afresh (_newton_direction) unless the step
    before it was a full step that cut ||G|| by at least
    REUSE_CONTRACTION; then it solves against the factor left in work
    (_solve) and tries the full step only. If that fails the Armijo test,
    the same iterate is factored afresh and the fit goes on. Every step
    counts in n_iter; the fit stops when ||G|| <= tolerance."""
    candidates = []
    for start in starts:
        W = start[:, :-1]
        theta = np.hstack([W - W.mean(axis=0), start[:, -1:]])
        candidates.append((theta, _objective_and_grad(theta, Xa, y, lam)))
    theta, (value, G, P) = min(candidates, key=lambda c: c[1][0])
    trace = [value]
    it = 0
    gn = float(np.linalg.norm(G))
    if work is None:
        work = _newton_workspace(Xa.shape[0], theta.shape[0], Xa.shape[1])
    reuse = False
    while gn > tolerance and it < max_iterations:
        if reuse:
            direction = _solve(G, work)
        else:
            try:
                direction = _newton_direction(P, Xa, lam, G, work)
            except np.linalg.LinAlgError:
                break  # Hessian not positive definite: reported as not converged
        slope = float(np.sum(G * direction))
        # Armijo backtracking on f(theta + t direction) from the full step;
        # a reused factor gets the full step only. A change in f within its
        # rounding says nothing, so such a step is judged by its gradient
        step = 1.0
        accepted = False
        while step > 1e-20:
            theta2 = theta + step * direction
            v2, G2, P2 = _objective_and_grad(theta2, Xa, y, lam)
            gn2 = float(np.linalg.norm(G2))
            if v2 <= value + 1e-4 * step * slope or (
                    abs(v2 - value) <= ROUNDING * abs(value) and gn2 < gn):
                accepted = True
                break
            if reuse:
                break
            step *= 0.5
        if not accepted:
            if reuse:
                reuse = False  # factor afresh at this theta
                continue
            break  # stalled at float precision
        reuse = step == 1.0 and gn2 * REUSE_CONTRACTION <= gn
        theta, value, G, P, gn = theta2, v2, G2, P2, gn2
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

    The path visits the grid from the largest lambda down, the first fit
    from zeros, and writes each lambda's scalars at its grid index. A
    lambda becomes the best only with a strictly higher validation
    accuracy, so ties go to the larger lambda, which was seen first. The
    path keeps only what the next fit, the refit and ProbeResult read: the
    last two solutions, for the secant start, the best one so far, and the
    per-lambda scalars. All fits share one workspace, and each fit starts
    with a fresh factor, never one left by the fit before."""
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
    best_i = len(grid) - 1
    for i in reversed(range(len(grid))):
        # the grid is uniform in log lambda, so the secant start
        # 2 theta_i - theta_{i-1} extrapolates theta linearly along it
        starts = ((np.zeros((K, Xa.shape[1])),) if last is None else
                  (last,) if prev is None else (last, 2.0 * last - prev))
        fit = _fit(Xa_tr, ytr, grid[i], starts, config.tolerance, config.max_iterations,
                   work)
        prev, last = last, np.hstack([fit.weights, fit.bias[:, None]])
        converged[i], n_iter[i], grad_norm[i] = fit.converged, fit.n_iter, fit.grad_norm
        val_acc[i] = probe_accuracy(fit.weights, fit.bias, Xva, yva)
        norms[i] = float(np.linalg.norm(fit.weights))
        # ties go to the larger lambda, which the descending walk saw first
        if best is None or val_acc[i] > val_acc[best_i]:
            best_i, best = i, last
    best_lambda = grid[best_i]

    final = _fit(Xa, y, best_lambda, (best,), config.tolerance, config.max_iterations,
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
