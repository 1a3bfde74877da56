"""Dataset generation and file-format tests."""

import re

import numpy as np
import pytest

from losslab.data import Batch, draw_blob_split, load_csv, make_blobs


class TestBlobs:
    def test_shapes_balance_and_dtype(self):
        b = make_blobs(7, 4, 3, 0.5, seed=0)
        assert b.features.shape == (28, 3)
        assert b.labels.shape == (28,)
        assert b.features.dtype == np.float64
        counts = np.bincount(b.labels, minlength=4)
        assert np.all(counts == 7)

    def test_deterministic(self):
        a = make_blobs(5, 3, 4, 1.0, seed=9)
        b = make_blobs(5, 3, 4, 1.0, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        c = make_blobs(5, 3, 4, 1.0, seed=10)
        assert not np.array_equal(a.features, c.features)

    def test_spread_zero_collapses_to_means(self):
        b = make_blobs(6, 3, 5, 0.0, seed=1)
        for k in range(3):
            rows = b.features[b.labels == k]
            assert np.all(rows == rows[0])

    def test_nearest_centroid_recovers_labels_at_small_spread(self):
        b = make_blobs(50, 5, 8, 0.01, seed=2)
        means = np.stack([b.features[b.labels == k].mean(0) for k in range(5)])
        d = ((b.features[:, None, :] - means[None]) ** 2).sum(-1)
        np.testing.assert_array_equal(np.argmin(d, axis=1), b.labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_blobs(0, 3, 2, 1.0, 0)
        with pytest.raises(ValueError):
            make_blobs(5, 1, 2, 1.0, 0)
        with pytest.raises(ValueError):
            make_blobs(5, 3, 2, -1.0, 0)


def one_shot_blobs(n_train, n_eval, num_classes, dim, spread, seed):
    """(all rows, train rows, eval rows) the one-shot way: the class means,
    then the noise of every row in one generator call; each class's first
    n_train rows train and the rest evaluate."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, dim))
    feats = np.repeat(means, n_train + n_eval, axis=0)
    feats = feats + spread * rng.standard_normal(feats.shape)
    per_class = feats.reshape(num_classes, n_train + n_eval, dim)
    return (feats, per_class[:, :n_train].reshape(-1, dim),
            per_class[:, n_train:].reshape(-1, dim))


def same_bits(a, b):
    # bit for bit: -0.0 and 0.0 differ here
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBlobSplit:
    @pytest.mark.parametrize("shape", [
        (50, 20, 10, 64, 1.75, 3),
        (7, 3, 4, 3, 0.0, 2),  # spread 0: every row is its class mean
        (3, 1, 2, 5, 2.0, 0),  # two classes, one eval row each
        (1, 4, 3, 1, 0.5, 11),
    ])
    def test_each_split_is_the_one_shot_draw(self, shape):
        n_train, n_eval, k = shape[:3]
        full, *splits = one_shot_blobs(*shape)
        same_bits(make_blobs(n_train + n_eval, *shape[2:]).features, full)
        for split, n, ref in zip(("train", "eval"), (n_train, n_eval), splits):
            got = draw_blob_split(split, *shape)
            same_bits(got.features, ref)
            np.testing.assert_array_equal(got.labels, np.repeat(np.arange(k), n))
            assert got.num_classes == k


class TestBatch:
    def test_label_range_checked(self):
        # no class count to exceed: a model holds labels to its own K
        # (training.train, harness.load_runs, harness.dump_activations)
        assert Batch(np.zeros((2, 2)), np.array([0, 5])).num_classes == 6
        with pytest.raises(ValueError, match="must be >= 0, got -1"):
            Batch(np.zeros((2, 2)), np.array([0, -1]))

    def test_class_count_is_largest_label_plus_one(self):
        assert Batch(np.zeros((3, 2)), [2, 0, 2]).num_classes == 3
        assert Batch(np.zeros((0, 2)), np.zeros(0, np.int64)).num_classes == 0
        with pytest.raises(AttributeError):
            Batch(np.zeros((1, 2)), [0]).num_classes = 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Batch(np.zeros((2, 2)), np.array([0]))


class TestCsv:
    def test_round_trip(self, tmp_path):
        b = make_blobs(4, 3, 5, 0.7, seed=3)
        p = tmp_path / "data.csv"
        with open(p, "w") as fh:
            for label, row in zip(b.labels, b.features):
                fh.write(f"{label}," + ",".join("%.17g" % v for v in row) + "\n")
        back = load_csv(p)
        np.testing.assert_allclose(back.features, b.features, rtol=0, atol=0)
        np.testing.assert_array_equal(back.labels, b.labels)
        assert back.num_classes == 3

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(p)

    def test_bad_label_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,1.0\nx,2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(p)

    def test_bad_float_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,1.0\n1,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(p)

    def test_non_finite_feature_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,1.0\n1,nan\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 2: non-finite")):
            load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="no data"):
            load_csv(p)

