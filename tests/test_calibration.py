"""Calibration metrics: frozen hand values, oracles, scaling contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab.calibration import (
    _report,
    ece,
    fit_temperature,
    probs_from_logits,
    top1_predictions,
)

# a score that every softmax row turns into a probability of exactly 0
NEVER = -800.0


class TestProbs:
    def test_zero_logits_uniform_both_kinds(self):
        for kind in ("softmax", "sigmoid"):
            p = probs_from_logits(np.zeros((2, 5)), kind)
            np.testing.assert_allclose(p, 0.2, atol=1e-12)

    def test_sigmoid_hand_value(self):
        # sigma(ln 3) = 0.75, sigma(0) = 0.5 -> normalized [0.6, 0.4]
        p = probs_from_logits(np.array([[math.log(3.0), 0.0]]), "sigmoid")
        np.testing.assert_allclose(p[0], [0.6, 0.4], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        # both kinds, on wide draws, on logits at +-800 (exp overflows
        # unshifted) and on rows whose maximum is tied
        rng = np.random.default_rng(0)
        tied = np.array([[800.0, 800.0, -800.0], [-800.0, -800.0, -800.0],
                         [3.0, 3.0, 3.0], [800.0, -800.0, 800.0]])
        batches = (30 * rng.standard_normal((40, 7)),
                   800 * rng.choice([-1.0, 1.0], size=(40, 7)),
                   tied)
        for kind in ("softmax", "sigmoid"):
            for L in batches:
                p = probs_from_logits(L, kind)
                assert p.shape == L.shape
                assert np.all((p >= 0.0) & (p <= 1.0)), kind
                assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12, kind

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            probs_from_logits(np.array([[np.inf, 0.0]]), "softmax")


class TestTopk:
    def test_tie_goes_to_lower_index(self):
        logits = np.array([[5.0, 5.0, 0.0]])
        assert top1_predictions(logits)[0] == 0


class TestNll:
    def test_perfect_predictions(self):
        L = np.where(np.eye(3) == 1.0, 0.0, NEVER)
        assert ece(L, [0, 1, 2]).nll == 0.0

    def test_uniform_gives_log_k(self):
        L = np.zeros((5, 4))
        assert ece(L, [0, 3, 1, 2, 0]).nll == pytest.approx(math.log(4.0), abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        L = rng.standard_normal((12, 5))
        y = rng.integers(0, 5, 12)
        expect = sum(
            math.log(sum(math.exp(v) for v in L[i])) - L[i, y[i]] for i in range(12)
        ) / 12
        assert ece(L, y).nll == pytest.approx(expect, abs=1e-12)

    def test_clamp_keeps_finite(self):
        v = ece(np.array([[0.0, NEVER]]), [1]).nll
        assert math.isfinite(v)
        assert v == pytest.approx(-math.log(1e-12))


def ece_loop_oracle(P, y, n_bins=15):
    """Independent per-example implementation with interval checks."""
    conf = P.max(axis=1)
    pred = P.argmax(axis=1)
    total = 0.0
    n = len(y)
    for b in range(n_bins):
        lo, hi = b / n_bins, (b + 1) / n_bins
        members = [
            i
            for i in range(n)
            if (lo < conf[i] <= hi) or (b == 0 and conf[i] == 0.0)
        ]
        if not members:
            continue
        acc = np.mean([pred[i] == y[i] for i in members])
        mc = np.mean([conf[i] for i in members])
        total += len(members) / n * abs(acc - mc)
    return total


class TestEce:
    def test_all_confident_correct_is_zero(self):
        L = np.repeat(np.array([[0.0, NEVER]]), 6, axis=0)
        rep = ece(L, np.zeros(6, dtype=int))
        assert rep.ece == pytest.approx(0.0, abs=1e-12)

    def test_all_confident_wrong_is_one(self):
        L = np.repeat(np.array([[0.0, NEVER]]), 6, axis=0)
        rep = ece(L, np.ones(6, dtype=int))
        assert rep.ece == pytest.approx(1.0, abs=1e-12)

    def test_scores_give_possible_values(self):
        # as probabilities, this matrix gave an ECE of 1.5 and an NLL of
        # -0.896; read as scores, it is a pair of confident rows
        L = np.array([[3.0, 0.5], [0.2, 2.0]])
        for kind in ("softmax", "sigmoid"):
            rep = ece(L, [0, 1], kind)
            assert 0.0 <= rep.ece <= 1.0 and rep.nll >= 0.0, kind

    # no finite score matrix gives the exact probabilities of the next two
    # cases, so they call the binning kernel directly
    def test_hand_built_four_example_batch(self):
        # two examples at conf 0.9 (one right, one wrong): gap 0.4, weight 1/2
        # one at conf 0.65 correct: gap 0.35, weight 1/4
        # one at conf 0.6 wrong: gap 0.6, weight 1/4  -> ECE = 0.4375
        P = np.array([[0.9, 0.1], [0.9, 0.1], [0.65, 0.35], [0.6, 0.4]])
        y = np.array([0, 1, 0, 1])
        rep = _report(P, y)
        assert rep.ece == pytest.approx(0.4375, abs=1e-12)
        assert sum(b.count for b in rep.bins) == 4
        assert len(rep.bins) == 15

    def test_bin_edges_right_closed(self):
        # conf exactly 0.6 = 9/15 belongs to bin 9 (0.5333, 0.6], not bin 10
        P = np.array([[0.6, 0.4]])
        rep = _report(P, np.array([0]))
        occupied = [i for i, b in enumerate(rep.bins) if b.count]
        assert occupied == [8]
        assert rep.bins[8].upper == pytest.approx(0.6)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        L = 2 * rng.standard_normal((60, 4))
        y = rng.integers(0, 4, 60)
        for kind in ("softmax", "sigmoid"):
            rep = ece(L, y, kind)
            oracle = ece_loop_oracle(probs_from_logits(L, kind), y)
            assert rep.ece == pytest.approx(oracle, abs=1e-10), kind

    def test_permutation_and_duplication_invariance(self):
        rng = np.random.default_rng(5)
        L = rng.standard_normal((30, 3))
        y = rng.integers(0, 3, 30)
        base = ece(L, y).ece
        perm = rng.permutation(30)
        assert ece(L[perm], y[perm]).ece == pytest.approx(base, abs=1e-12)
        L2 = np.vstack([L, L])
        y2 = np.concatenate([y, y])
        assert ece(L2, y2).ece == pytest.approx(base, abs=1e-12)

    def test_bin_counts_sum_to_n(self):
        rng = np.random.default_rng(6)
        L = rng.standard_normal((25, 5))
        rep = ece(L, rng.integers(0, 5, 25))
        assert sum(b.count for b in rep.bins) == 25


class TestTemperature:
    def test_well_calibrated_logits_give_t_near_one(self):
        # logits are logs of the true class-conditional probabilities and
        # label counts match those probabilities exactly, so T=1 is optimal
        row = np.log(np.array([0.75, 0.25]))
        L = np.repeat(row[None, :], 8, axis=0)
        y = np.array([0] * 6 + [1] * 2)
        T, rep = fit_temperature(L, y, "softmax")
        assert T == pytest.approx(1.0, abs=1e-3)
        assert rep.temperature == T

    def test_post_scaling_nll_never_worse(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            L = 3 * rng.standard_normal((40, 5))
            y = rng.integers(0, 5, 40)
            pre = ece(L, y).nll
            T, rep = fit_temperature(L, y, "softmax")
            assert rep.nll <= pre + 1e-9

    def test_doubling_logits_doubles_t(self):
        # calibrated rows make the optimum interior, so T tracks the scale
        L = np.tile(np.log([0.75, 0.25]), (8, 1))
        y = np.array([0] * 6 + [1] * 2)
        T1, rep1 = fit_temperature(L, y, "softmax")
        T2, rep2 = fit_temperature(2.0 * L, y, "softmax")
        assert T2 == pytest.approx(2.0 * T1, rel=1e-3)
        assert rep2.nll == pytest.approx(rep1.nll, abs=1e-6)

    def test_scaling_preserves_top1(self):
        rng = np.random.default_rng(9)
        L = rng.standard_normal((30, 6))
        y = rng.integers(0, 6, 30)
        T, _ = fit_temperature(L, y, "softmax")
        np.testing.assert_array_equal(
            top1_predictions(L), top1_predictions(L / T)
        )

    def test_sigmoid_kind_also_improves(self):
        rng = np.random.default_rng(10)
        L = 4 * rng.standard_normal((50, 3))
        y = rng.integers(0, 3, 50)
        # rows near -6 whose top logit is always right: the fit sharpens
        # toward T = e^-5, where every scaled sigmoid of a row underflows
        low = -6.0 + 0.025 * L
        for logits, labels in ((L, y), (low, top1_predictions(low))):
            pre = ece(logits, labels, "sigmoid").nll
            _, rep = fit_temperature(logits, labels, "sigmoid")
            assert rep.nll <= pre + 1e-9


def reference_fit_temperature(L, y, kind):
    """The golden-section search on log T over [-5, 5], through the checked
    ece at every step."""
    g = (math.sqrt(5.0) - 1.0) / 2.0

    def f(u):
        return ece(L / math.exp(u), y, kind).nll

    a, b = -5.0, 5.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-6:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    T = math.exp((a + b) / 2.0)
    report = ece(L / T, y, kind)
    report.temperature = T
    return T, report


class TestTemperatureIsExact:
    """fit_temperature checks its logits once and then runs unchecked; its
    temperature and report equal the checked search's, bit for bit."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(23)
        L = 3.0 * rng.standard_normal((60, 5))
        y = rng.integers(0, 5, 60)
        yield "softmax", L, y
        yield "sigmoid", L, y
        # every sigmoid of the last row underflows at every T in the range,
        # so each step takes the softmax branch of probs_from_logits
        under = np.vstack([L[:, :3], [-2.0e5, -2.1e5, -1.9e5]])
        yield "sigmoid", under, np.append(y % 3, 2)
        low = -6.0 + 0.025 * L
        yield "sigmoid", low, top1_predictions(low)

    def test_equals_checked_search(self):
        for kind, L, y in self.cases():
            T, report = fit_temperature(L, y, kind)
            T_ref, ref = reference_fit_temperature(L, y, kind)
            assert T == T_ref, kind
            assert report == ref, kind

    def test_nonfinite_rejected_on_entry(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit_temperature(np.array([[np.nan, 0.0]]), [0], "sigmoid")


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_temperature_never_changes_accuracy(seed):
    rng = np.random.default_rng(seed)
    L = 2 * rng.standard_normal((20, 4))
    y = rng.integers(0, 4, 20)
    T, _ = fit_temperature(L, y, "softmax")
    np.testing.assert_array_equal(top1_predictions(L), top1_predictions(L / T))
