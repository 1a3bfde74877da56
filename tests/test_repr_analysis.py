"""Representation metrics against brute-force oracles."""

import numpy as np
import pytest

from losslab import repr_analysis
from losslab.losses import DegenerateInputError, FinalLayer
from losslab.repr_analysis import (
    SEPARATION_INDEXES,
    _class_sums,
    angular_visual_hardness,
    cka_matrix,
    class_separation_r2,
    linear_cka,
    one_hot_matrix,
    singular_spectrum,
    sparsity_profile,
)


def gram_cka_oracle(X, Y):
    """Independent HSIC/Gram-matrix formulation."""
    n = X.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    Kc = H @ (X @ X.T) @ H
    Lc = H @ (Y @ Y.T) @ H
    return np.trace(Kc @ Lc) / np.sqrt(np.trace(Kc @ Kc) * np.trace(Lc @ Lc))


class TestLinearCka:
    def test_self_similarity(self):
        X = np.random.default_rng(0).standard_normal((12, 5))
        assert linear_cka(X, X) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_and_scaling_invariance(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 4))
        Y = rng.standard_normal((10, 6))
        R, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        base = linear_cka(X, Y)
        assert linear_cka(X @ R, Y) == pytest.approx(base, abs=1e-10)
        assert linear_cka(3.7 * X, Y) == pytest.approx(base, abs=1e-10)
        assert linear_cka(X, -0.2 * Y) == pytest.approx(base, abs=1e-10)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            X = rng.standard_normal((9, 3))
            Y = rng.standard_normal((9, 7))
            c = linear_cka(X, Y)
            assert 0.0 <= c <= 1.0
            assert linear_cka(Y, X) == pytest.approx(c, abs=1e-12)

    def test_matches_gram_form_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = rng.standard_normal((8, 3))
            Y = rng.standard_normal((8, 4))
            assert linear_cka(X, Y) == pytest.approx(
                gram_cka_oracle(X, Y), abs=1e-10
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((11, 4))
        Y = rng.standard_normal((11, 5))
        perm = rng.permutation(11)
        assert linear_cka(X[perm], Y[perm]) == pytest.approx(
            linear_cka(X, Y), abs=1e-12
        )

    def test_constant_matrix_rejected(self):
        X = np.random.default_rng(5).standard_normal((6, 3))
        with pytest.raises(DegenerateInputError):
            linear_cka(X, np.ones((6, 2)))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            linear_cka(np.zeros((4, 2)), np.zeros((5, 2)))


class TestCkaMatrix:
    """cka_matrix is bit-identical to the per-pair formula it replaces."""

    @staticmethod
    def runs(rng):
        # same rows, different widths and scales
        return [s * rng.standard_normal((40, d)) + rng.standard_normal(d)
                for s, d in ((1.0, 6), (3.0, 4), (0.1, 9), (7.0, 6))]

    def test_equals_literal_formula_and_linear_cka(self):
        feats = self.runs(np.random.default_rng(20))
        M = cka_matrix(feats)
        assert np.array_equal(np.diag(M), np.ones(len(feats)))
        for i in range(len(feats)):
            for j in range(i + 1, len(feats)):
                Xc = feats[i] - feats[i].mean(axis=0)
                Yc = feats[j] - feats[j].mean(axis=0)
                num = np.sum((Yc.T @ Xc) ** 2)
                expect = num / (np.linalg.norm(Xc.T @ Xc)
                                * np.linalg.norm(Yc.T @ Yc))
                assert M[i, j] == expect and M[j, i] == expect, (i, j)
                assert linear_cka(feats[i], feats[j]) == expect, (i, j)

    def test_constant_run_rejected_with_its_position(self):
        feats = self.runs(np.random.default_rng(21))
        feats[2] = np.ones((40, 3))
        with pytest.raises(DegenerateInputError,
                           match="constant representation") as err:
            cka_matrix(feats)
        assert err.value.index == 2

    def test_row_count_mismatch(self):
        feats = self.runs(np.random.default_rng(22))
        feats[1] = feats[1][:-1]
        with pytest.raises(ValueError, match="row counts differ"):
            cka_matrix(feats)


def r2_double_loop_oracle(X, y, index):
    """Literal pairwise implementation, self-pairs included.

    numerator: classes weighted 1/(K N_k^2); denominator: class pairs
    weighted 1/(K^2 N_j N_k).
    """
    X = np.asarray(X, dtype=float)
    if index == "cosine_mean_subtracted":
        X = X - X.mean(axis=0)
    if index in ("cosine", "cosine_mean_subtracted"):
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
        dist = lambda a, b: 1.0 - float(a @ b)
    else:
        dist = lambda a, b: float(np.sum((a - b) ** 2))
    classes = np.unique(y)
    K = classes.size
    num = 0.0
    for k in classes:
        idx = np.where(y == k)[0]
        s = 0.0
        for i in idx:
            for j in idx:
                s += dist(X[i], X[j])
        num += s / idx.size**2
    num /= K
    den = 0.0
    for kj in classes:
        for kk in classes:
            ij = np.where(y == kj)[0]
            ik = np.where(y == kk)[0]
            s = 0.0
            for a in ij:
                for b in ik:
                    s += dist(X[a], X[b])
            den += s / (ij.size * ik.size)
    den /= K**2
    return 1.0 - num / den


class TestClassSeparation:
    @pytest.mark.parametrize("index", ["cosine", "cosine_mean_subtracted", "euclidean"])
    def test_matches_double_loop_oracle(self, index):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 5))
        y = rng.integers(0, 3, 30)
        y[:3] = [0, 1, 2]  # every class present
        assert class_separation_r2(X, y, index) == pytest.approx(
            r2_double_loop_oracle(X, y, index), abs=1e-10
        )

    @pytest.mark.parametrize("index", ["cosine", "cosine_mean_subtracted", "euclidean"])
    def test_oracle_agreement_unbalanced(self, index):
        rng = np.random.default_rng(7)
        y = np.array([0] * 4 + [1] * 9 + [2] * 2)
        X = rng.standard_normal((y.size, 4)) + 0.1
        assert class_separation_r2(X, y, index) == pytest.approx(
            r2_double_loop_oracle(X, y, index), abs=1e-10
        )

    def test_collapsed_classes_give_one(self):
        dirs = np.eye(3)
        X = np.repeat(dirs, 5, axis=0) * 2.5
        y = np.repeat(np.arange(3), 5)
        assert class_separation_r2(X, y, "cosine") == pytest.approx(1.0, abs=1e-12)

    def test_single_class_gives_zero(self):
        X = np.random.default_rng(8).standard_normal((10, 4))
        y = np.zeros(10, dtype=int)
        assert class_separation_r2(X, y, "cosine") == pytest.approx(0.0, abs=1e-12)

    def test_cosine_range_and_rescale_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((24, 6))
        y = rng.integers(0, 4, 24)
        y[:4] = np.arange(4)
        r = class_separation_r2(X, y, "cosine")
        assert 0.0 <= r <= 1.0
        scales = rng.uniform(0.1, 10.0, size=(24, 1))
        assert class_separation_r2(X * scales, y, "cosine") == pytest.approx(
            r, abs=1e-10
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((20, 5))
        y = rng.integers(0, 2, 20)
        y[:2] = [0, 1]
        perm = rng.permutation(20)
        for index in ("cosine", "euclidean"):
            assert class_separation_r2(X[perm], y[perm], index) == pytest.approx(
                class_separation_r2(X, y, index), abs=1e-12
            )

    def test_classes_are_the_labels_present(self):
        # a label no row holds is no class: {0, 2} is {0, 1}, bit for bit
        X = np.random.default_rng(5).standard_normal((12, 3))
        y = np.arange(12) % 2
        assert (class_separation_r2(X, 2 * y, SEPARATION_INDEXES)
                == class_separation_r2(X, y, SEPARATION_INDEXES))

    def test_zero_row_rejected_for_cosine(self):
        X = np.ones((4, 2))
        X[2] = 0.0
        with pytest.raises(DegenerateInputError):
            class_separation_r2(X, [0, 0, 1, 1], "cosine")

    def test_identical_rows_degenerate(self):
        X = np.ones((6, 3))
        with pytest.raises(DegenerateInputError):
            class_separation_r2(X, [0, 0, 0, 1, 1, 1], "euclidean")


def add_at_class_means(X, y, k):
    """Class means summed by np.add.at, as class_separation_r2 once did."""
    sums = np.zeros((k, *X.shape[1:]))
    np.add.at(sums, y, X)
    counts = np.bincount(y, minlength=k)
    return sums / counts.reshape(k, *([1] * (X.ndim - 1)))


def add_at_r2(X, y, index):
    """class_separation_r2 as it was written with np.add.at."""
    k = int(y.max()) + 1
    if index == "cosine_mean_subtracted":
        X = X - X.mean(axis=0)
    if index in ("cosine", "cosine_mean_subtracted"):
        means = add_at_class_means(X / np.linalg.norm(X, axis=1, keepdims=True),
                                   y, k)
        within = float(np.mean(1.0 - np.sum(means**2, axis=1)))
        overall = 1.0 - float(np.sum(means.mean(axis=0) ** 2))
    else:
        means = add_at_class_means(X, y, k)
        q = add_at_class_means(np.sum(X**2, axis=1), y, k)
        within = float(np.mean(2.0 * (q - np.sum(means**2, axis=1))))
        overall = 2.0 * (float(np.mean(q)) - float(np.sum(means.mean(axis=0) ** 2)))
    return float(1.0 - within / overall)


class TestClassSums:
    """The class sums are np.add.at's, bit for bit: shuffled labels,
    unequal class sizes, and every matrix the three indexes average."""

    @staticmethod
    def data(d, seed):
        rng = np.random.default_rng(seed)
        y = rng.permutation(np.repeat(np.arange(4), [3, 50, 17, 130]))
        scale = 10.0 ** rng.integers(-4, 5, size=(y.size, 1))
        return scale * rng.standard_normal((y.size, d)) + 0.5, y

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_means_equal_add_at(self, d):
        X, y = self.data(d, 30 + d)
        counts = np.bincount(y)
        Xm = X - X.mean(axis=0)
        for Z in (X / np.linalg.norm(X, axis=1, keepdims=True),
                  Xm / np.linalg.norm(Xm, axis=1, keepdims=True),
                  X, np.sum(X**2, axis=1)):
            ours = _class_sums(Z, y, 4) / counts.reshape(4, *([1] * (Z.ndim - 1)))
            assert np.array_equal(ours, add_at_class_means(Z, y, 4))

    @pytest.mark.parametrize("d", [1, 2, 64])
    @pytest.mark.parametrize("index", SEPARATION_INDEXES)
    def test_r2_equals_add_at(self, d, index):
        X, y = self.data(d, 40 + d)
        assert class_separation_r2(X, y, index) == add_at_r2(X, y, index)

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_index_tuple_equals_single_calls(self, d, monkeypatch):
        # report_separation's one call per run: X checked once, and each
        # value bit for bit the single-index call's (and np.add.at's)
        X, y = self.data(d, 50 + d)
        single = tuple(class_separation_r2(X, y, ix) for ix in SEPARATION_INDEXES)
        assert single == tuple(add_at_r2(X, y, ix) for ix in SEPARATION_INDEXES)
        checks = []
        check = repr_analysis.check_matrix
        monkeypatch.setattr(repr_analysis, "check_matrix",
                            lambda *a: checks.append(1) or check(*a))
        assert class_separation_r2(X, y, SEPARATION_INDEXES) == single
        assert len(checks) == 1
        assert class_separation_r2(X, y, ("euclidean", "cosine")) == single[::-2]

    def test_unknown_index_in_tuple_rejected(self):
        X, y = self.data(2, 60)
        with pytest.raises(ValueError, match="'manhattan'"):
            class_separation_r2(X, y, ("cosine", "manhattan"))


class TestSparsity:
    def test_frozen_cases(self):
        zero = np.zeros((3, 4))
        half = np.array([[1.0, 0.0], [3.0, 0.0]])
        out = sparsity_profile([zero, half])
        np.testing.assert_allclose(out, [0.0, 0.5])

    def test_negative_entries_count_as_inactive(self):
        a = np.array([[-1.0, 2.0, 0.0]])
        assert sparsity_profile([a])[0] == pytest.approx(1.0 / 3.0)

    def test_counting_oracle_on_relu_activations(self):
        from losslab.mlp import forward_hidden, init_mlp

        rng = np.random.default_rng(11)
        model = init_mlp(6, (9, 7), 3, rng)
        X = rng.standard_normal((20, 6))
        acts = forward_hidden(model, X)[1:]
        out = sparsity_profile(acts)
        for frac, a in zip(out, acts):
            count = sum(1 for v in a.ravel() if v > 0)
            assert frac == pytest.approx(count / a.size)


class TestAvh:
    def test_perfect_alignment_is_zero(self):
        layer = FinalLayer(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        out = angular_visual_hardness(layer, np.array([[2.0, 0.0]]), [0])
        assert out[0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_angles_give_one_over_k(self):
        # three weight rows at equal angles to x
        w = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        x = np.ones((1, 3))
        layer = FinalLayer(w, np.zeros(3))
        for t in range(3):
            out = angular_visual_hardness(layer, x, [t])
            assert out[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_per_example_loop(self):
        rng = np.random.default_rng(12)
        layer = FinalLayer(rng.standard_normal((5, 7)), np.zeros(5))
        X = rng.standard_normal((9, 7))
        y = rng.integers(0, 5, 9)
        out = angular_visual_hardness(layer, X, y)
        for i in range(9):
            angles = []
            for k in range(5):
                c = layer.weights[k] @ X[i] / (
                    np.linalg.norm(layer.weights[k]) * np.linalg.norm(X[i])
                )
                angles.append(np.arccos(np.clip(c, -1, 1)))
            expect = angles[y[i]] / sum(angles)
            assert out[i] == pytest.approx(expect, abs=1e-10)

    def test_zero_feature_rejected(self):
        layer = FinalLayer(np.eye(2), np.zeros(2))
        with pytest.raises(DegenerateInputError):
            angular_visual_hardness(layer, np.zeros((1, 2)), [0])


class TestSpectra:
    def test_rank_one(self):
        X = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        s = singular_spectrum(X)
        assert s[0] > 1e-6
        assert np.all(s[1:] < 1e-10)

    def test_activations_mode_centers(self):
        X = np.random.default_rng(14).standard_normal((10, 4))
        s = singular_spectrum(X)
        Xc = X - X.mean(axis=0)
        assert np.sum(s**2) == pytest.approx(np.sum(Xc**2), abs=1e-8)
        assert np.all(np.diff(s) <= 1e-15)  # descending


def test_one_hot_matrix():
    out = one_hot_matrix([1, 0, 2], 4)
    np.testing.assert_array_equal(
        out, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
    )
