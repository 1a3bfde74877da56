"""Optimizer unit tests with hand-unrolled expected values."""

import numpy as np
import pytest

from losslab.losses import LossSpec
from losslab.optim import lr_at, sgd_nesterov_step, weight_decay_grad
from losslab.training import TrainConfig


def schedule(peak_lr, **knobs):
    return TrainConfig(loss=LossSpec("softmax"), epochs=1, batch_size=1,
                       peak_lr=peak_lr, **knobs)


class TestNesterov:
    def test_two_steps_hand_unrolled(self):
        # f(p) = p^2 / 2, grad = p; eta=0.1, mu=0.9, p0=1
        # v1 = -0.1,  p1 = 1 + 0.9*(-0.1) - 0.1 = 0.81
        # v2 = 0.9*(-0.1) - 0.081 = -0.171, p2 = 0.81 - 0.1539 - 0.081 = 0.5751
        p = np.array([1.0])
        v = np.zeros(1)
        sgd_nesterov_step(p, np.array([1.0]), v, 0.1, 0.9)
        assert p[0] == pytest.approx(0.81, abs=1e-15)
        assert v[0] == pytest.approx(-0.1, abs=1e-15)
        sgd_nesterov_step(p, p.copy(), v, 0.1, 0.9)
        assert v[0] == pytest.approx(-0.171, abs=1e-15)
        assert p[0] == pytest.approx(0.5751, abs=1e-15)

    def test_zero_momentum_is_plain_sgd(self):
        p = np.array([2.0, -1.0])
        g = np.array([0.5, 0.5])
        v = np.zeros(2)
        sgd_nesterov_step(p, g, v, 0.2, 0.0)
        np.testing.assert_allclose(p, [1.9, -1.1])
        np.testing.assert_allclose(v, [-0.1, -0.1])

    def test_updates_theta_and_velocity_in_place(self):
        theta = np.array([1.0, 2.0])
        v = np.array([0.5, 0.0])
        g = np.array([1.0, 1.0])
        theta_buf, v_buf = theta, v
        assert sgd_nesterov_step(theta, g, v, 0.1, 0.9) is None
        assert theta is theta_buf and v is v_buf
        np.testing.assert_allclose(v, [0.35, -0.1])
        np.testing.assert_allclose(theta, [1.0 + 0.9 * 0.35 - 0.1, 1.81])
        np.testing.assert_array_equal(g, [1.0, 1.0])


class TestWeightDecay:
    def test_product_form_shrink_is_lr_independent(self):
        # with zero loss gradient and no momentum, each step multiplies the
        # param by (1 - lambda_tilde) no matter what the lr is
        lam = 0.01
        for lr in (0.001, 0.1, 1.6):
            p = np.array([3.0])
            v = np.zeros(1)
            g = weight_decay_grad(p, lam, lr)
            sgd_nesterov_step(p, g, v, lr, 0.0)
            assert p[0] == pytest.approx(3.0 * (1 - lam), rel=1e-14)

    def test_negative_decay_rejected(self):
        # checked once, where the knob enters, not on every step
        with pytest.raises(ValueError, match="weight_decay_product"):
            schedule(0.1, weight_decay_product=-0.01)


class TestSchedules:
    def test_cosine_endpoints_and_midpoint(self):
        s = schedule(2.0)
        assert lr_at(s, 0, 100, 1) == pytest.approx(2.0)
        assert lr_at(s, 50, 100, 1) == pytest.approx(1.0)
        assert lr_at(s, 100, 100, 1) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_monotone_decreasing(self):
        s = schedule(1.0)
        vals = [lr_at(s, i, 200, 1) for i in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_warmup_linear_then_staircase(self):
        s = schedule(1.6, schedule="warmup_exp", warmup_epochs=10,
                     decay_per_epoch=0.975)
        assert lr_at(s, 5, 1000, 1) == pytest.approx(0.8)
        assert lr_at(s, 10, 1000, 1) == pytest.approx(1.6)
        assert lr_at(s, 12, 1000, 1) == pytest.approx(1.6 * 0.975**2)

    def test_warmup_staircase_is_constant_within_epoch(self):
        s = schedule(1.0, schedule="warmup_exp", warmup_epochs=2,
                     decay_per_epoch=0.5)
        # epoch 3 (steps 20..29) sits at decay^0, epoch 4 at decay^1
        assert lr_at(s, 20, 100, 10) == pytest.approx(1.0)
        assert lr_at(s, 29, 100, 10) == pytest.approx(1.0)
        assert lr_at(s, 30, 100, 10) == pytest.approx(0.5)
