"""Agreement matrices, hand-rolled average linkage vs scipy."""

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from scipy.spatial.distance import squareform

from losslab.agreement import agreement_matrix, linkage_dendrogram


class TestAgreementMatrix:
    def test_identical_predictions_all_variants(self):
        p = np.array([0, 1, 2, 0])
        y = np.array([0, 1, 0, 0])
        for variant in ("same_top1", "both_correct_or_both_incorrect",
                        "agree_on_mutual_errors"):
            m = agreement_matrix([p, p.copy()], y, variant)
            assert m.agree[0, 1] == pytest.approx(1.0)

    def test_hand_counted_six_example_pair(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        p1 = np.array([0, 1, 2, 0, 0, 0])  # correct at 0..3
        p2 = np.array([0, 1, 2, 1, 0, 1])  # correct at 0..2
        same = agreement_matrix([p1, p2], y, "same_top1").agree[0, 1]
        assert same == pytest.approx(4 / 6)
        both = agreement_matrix([p1, p2], y, "both_correct_or_both_incorrect")
        assert both.agree[0, 1] == pytest.approx(5 / 6)
        # mutual errors at indices 4, 5; equal prediction only at 4
        mut = agreement_matrix([p1, p2], y, "agree_on_mutual_errors").agree[0, 1]
        assert mut == pytest.approx(1 / 2)

    def test_no_mutual_errors_is_nan(self):
        y = np.array([0, 1])
        p1 = np.array([0, 1])  # all correct
        p2 = np.array([1, 1])
        m = agreement_matrix([p1, p2], y, "agree_on_mutual_errors")
        assert np.isnan(m.agree[0, 1])

    def test_same_top1_is_similarity(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 3, 40)
        preds = [rng.integers(0, 3, 40) for _ in range(4)]
        m = agreement_matrix(preds, y, "same_top1")
        np.testing.assert_allclose(m.agree, m.agree.T)
        np.testing.assert_allclose(np.diag(m.agree), 1.0)
        assert np.all((m.agree >= 0) & (m.agree <= 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            agreement_matrix([np.zeros(3, int)], np.zeros(4, int))


class TestLinkage:
    def test_two_items(self):
        D = np.array([[0.0, 0.3], [0.3, 0.0]])
        merges = linkage_dendrogram(D)
        assert merges.shape == (1, 3)
        assert merges[0, 2] == pytest.approx(0.3)
        assert sorted(merges[0, :2]) == [0, 1]

    def test_three_items_forced_order(self):
        D = np.array(
            [[0.0, 0.1, 0.9], [0.1, 0.0, 0.9], [0.9, 0.9, 0.0]]
        )
        merges = linkage_dendrogram(D)
        assert sorted(merges[0, :2]) == [0, 1]
        assert merges[0, 2] == pytest.approx(0.1)
        assert merges[1, 2] == pytest.approx(0.9)
        assert 3 in merges[1, :2]  # merged cluster id m + 0

    def test_matches_scipy_average_linkage(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            pts = rng.standard_normal((6, 3))
            D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
            ours = linkage_dendrogram(D)
            ref = sch.linkage(squareform(D, checks=False), method="average")
            np.testing.assert_allclose(ours[:, 2], ref[:, 2], atol=1e-10)
            for r in range(5):
                assert sorted(ours[r, :2]) == sorted(ref[r, :2])

    def test_asymmetric_rejected(self):
        D = np.array([[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            linkage_dendrogram(D)

    def test_nonzero_diagonal_rejected(self):
        D = np.array([[0.1, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            linkage_dendrogram(D)

    def test_nan_rejected(self):
        D = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            linkage_dendrogram(D)

