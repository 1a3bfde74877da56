"""Trainer behavior: determinism, logging, divergence, decay, EMA."""

import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from losslab import training
from losslab.data import Batch, make_blobs
from losslab.harness import write_log_csv
from losslab.losses import LOSS_KINDS, FinalLayer, LossSpec, compose_loss, eval_scores
from losslab.mlp import (
    MlpModel,
    forward_hidden,
    init_for_spec,
    init_mlp,
    penultimate_features,
)
from losslab.optim import lr_at
from losslab.training import (
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    loss_and_grads,
    train,
)
from test_gradients import COMPOSED_SPECS


def small_data(seed=0, spread=0.2):
    return make_blobs(20, 3, 4, spread, seed=seed)


def small_model(seed=0, spec=LossSpec("softmax")):
    rng = np.random.default_rng(seed)
    return init_for_spec(4, (16,), 3, spec, rng)


def cfg(**kw):
    base = dict(
        epochs=5,
        batch_size=16,
        peak_lr=0.1,
        momentum=0.9,
    )
    base.update(kw)
    return TrainConfig(**base)


def fit(model, data, holdout=None, *, loss=LossSpec("softmax"), seed=0, **knobs):
    """train() under cfg(**knobs), with the run's loss and seed."""
    return train(model, data, cfg(**knobs), holdout, loss=loss, seed=seed)


class TestConfigValidation:
    @pytest.mark.parametrize("knob", ["momentum", "ema_momentum"])
    def test_momentum_of_one_rejected(self, knob):
        with pytest.raises(ValueError, match=f"{knob} must be in"):
            cfg(**{knob: 1.0})


class TestInit:
    def test_he_uniform_bounds(self):
        rng = np.random.default_rng(0)
        m = init_mlp(9, (50,), 4, rng)
        limit = np.sqrt(6.0 / 9)
        w = m.hidden_weights[0]
        assert np.all(np.abs(w) <= limit)
        assert np.max(np.abs(w)) > 0.8 * limit  # actually fills the range
        assert np.all(m.hidden_biases[0] == 0.0)
        assert np.all(m.final.bias == 0.0)

    def test_sigmoid_spec_gets_log_k_bias(self):
        m = small_model(spec=LossSpec("sigmoid"))
        np.testing.assert_allclose(m.final.bias, -np.log(3.0))

    def test_forward_shapes(self):
        m = small_model()
        X = np.zeros((7, 4))
        acts = forward_hidden(m, X)
        assert [a.shape for a in acts] == [(7, 4), (7, 16)]
        assert penultimate_features(m, X).shape == (7, 16)

    def test_relu_nonnegative(self):
        m = small_model()
        X = np.random.default_rng(1).standard_normal((11, 4))
        assert np.all(penultimate_features(m, X) >= 0.0)


class TestBufferedForward:
    @pytest.mark.parametrize("hidden", [(16,), (16, 8), (16, 8, 12)])
    @pytest.mark.parametrize("spare_rows", [0, 23])
    def test_out_matches_fresh_forward(self, hidden, spare_rows):
        # out may be leading-row views of larger buffers, as in the epoch log
        m = init_mlp(4, hidden, 3, np.random.default_rng(5))
        X = np.random.default_rng(6).standard_normal((37, 4))
        big = [np.full((37 + spare_rows, w), np.nan) for w in hidden]
        out = [b[:37] for b in big]
        acts = forward_hidden(m, X, out)
        fresh = forward_hidden(m, X)
        h = X
        for i, (w, b) in enumerate(zip(m.hidden_weights, m.hidden_biases)):
            h = np.maximum(h @ w.T + b, 0.0)  # the unbuffered formula
            assert np.array_equal(acts[i + 1], fresh[i + 1])
            assert np.array_equal(acts[i + 1], h)
            assert np.shares_memory(acts[i + 1], big[i])
        assert np.array_equal(penultimate_features(m, X, out), fresh[-1])


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        data = small_data()
        m = small_model()
        spec = LossSpec("dropout", keep_prob=0.7)
        r1 = fit(m, data, loss=spec, seed=3)
        r2 = fit(m, data, loss=spec, seed=3)
        for a, b in zip(r1.model.params(), r2.model.params()):
            np.testing.assert_array_equal(a, b)
        assert [rec.train_loss for rec in r1.log] == [rec.train_loss for rec in r2.log]

    def test_different_seed_differs(self):
        data = small_data()
        m = small_model()
        r1 = fit(m, data, seed=3)
        r2 = fit(m, data, seed=4)
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(r1.model.params(), r2.model.params())
        )

    def test_input_model_not_mutated(self):
        data = small_data()
        m = small_model()
        before = [p.copy() for p in m.params()]
        fit(m, data)
        for a, b in zip(before, m.params()):
            np.testing.assert_array_equal(a, b)

    def test_zero_epochs_returns_input_params(self):
        data = small_data()
        m = small_model()
        r = fit(m, data, epochs=0)
        for a, b in zip(m.params(), r.model.params()):
            np.testing.assert_array_equal(a, b)
        assert r.log == []


MONOTONE_CASES = [
    (LossSpec("softmax"), 0.05),
    (LossSpec("label_smoothing", alpha=0.1), 0.05),
    (LossSpec("dropout", keep_prob=0.9), 0.02),
    (LossSpec("extra_final_l2", lambda_final=8e-4), 0.05),
    (LossSpec("logit_penalty", beta=6e-4), 0.05),
    (LossSpec("logit_norm", temperature=0.08), 0.02),
    (LossSpec("cosine_softmax", temperature=0.1), 0.02),
    (LossSpec("sigmoid"), 0.05),
    (LossSpec("squared_error", kappa=1.0, target_magnitude=1.0, loss_scale=1.0), 0.02),
]


@pytest.mark.parametrize("spec,lr", MONOTONE_CASES, ids=lambda c: c.kind if isinstance(c, LossSpec) else None)
def test_loss_nonincreasing_on_noise_free_data(spec, lr):
    # spread=0 blobs, full batch, no momentum, small lr: the logged
    # deterministic loss must go down every epoch
    data = make_blobs(10, 3, 4, 0.0, seed=11)
    m = small_model(seed=2, spec=spec)
    r = fit(m, data, loss=spec, epochs=8, batch_size=30, peak_lr=lr,
            momentum=0.0, schedule="cosine", seed=5)
    losses = [rec.train_loss for rec in r.log]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-12, f"loss went up: {losses}"


class TestLogging:
    def test_log_rows_and_holdout(self):
        data = small_data()
        hold = make_blobs(5, 3, 4, 0.2, seed=77)
        r = fit(small_model(), data, hold, epochs=4)
        assert len(r.log) == 4
        assert [rec.epoch for rec in r.log] == [1, 2, 3, 4]
        for rec in r.log:
            assert 0.0 <= rec.train_acc <= 1.0
            assert 0.0 <= rec.holdout_acc <= 1.0
            assert rec.lr > 0.0

    def test_log_csv_round_trip(self, tmp_path):
        data = small_data()
        r = fit(small_model(), data, epochs=3)
        p = tmp_path / "log.csv"
        write_log_csv(r.log, p)
        header = p.read_text().splitlines()[0]
        assert header == "epoch,lr,train_loss,train_acc,holdout_acc"
        with open(p, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert [int(b["epoch"]) for b in back] == [1, 2, 3]
        for a, b in zip(r.log, back):
            assert float(b["train_loss"]) == pytest.approx(a.train_loss, rel=1e-9)
            assert b["holdout_acc"] == ""

    @pytest.mark.parametrize(
        "spec", [LossSpec(kind) for kind in LOSS_KINDS] + COMPOSED_SPECS,
        ids=lambda s: s.kind + "".join(f"+{p.kind}" for p in s.extra_penalties),
    )
    def test_epoch_log_is_compose_value_and_eval_scores(self, spec):
        # the log evaluates the head once, without a backward; its numbers
        # must be those of the full objective (dropout with the mask off)
        # over the whole split, also when it runs in several row blocks
        cap = training.LOG_BLOCK_ROWS
        big = make_blobs(750, 3, 4, 0.2, seed=0)
        big_hold = make_blobs(560, 3, 4, 0.2, seed=77)
        # two blocks and a tail that joins the second; a holdout of two
        assert [b.stop - b.start for b in training._blocks(big.n)] == [cap, big.n - cap]
        assert [b.stop - b.start for b in training._blocks(big_hold.n)] == [
            cap, big_hold.n - cap]
        plain = replace(spec, kind="softmax") if spec.kind == "dropout" else spec
        # one block, then several; batch 600 gives four steps an epoch, as 16
        # does on the small split
        for data, hold, batch_size in ((small_data(), None, 16), (big, big_hold, 600)):
            r = fit(small_model(spec=spec), data, hold, loss=spec, epochs=2,
                    peak_lr=1e-3, batch_size=batch_size)
            final = r.model.final

            def acc(batch):
                h = penultimate_features(r.model, batch.features)
                hits = np.argmax(eval_scores(spec, final, h), axis=1) == batch.labels
                return h, float(np.mean(hits))

            h, train_acc = acc(data)
            assert r.log[-1].train_loss == compose_loss(plain, final, h,
                                                        data.labels).value
            assert r.log[-1].train_acc == train_acc
            assert r.log[-1].holdout_acc == (None if hold is None else acc(hold)[1])

    def test_holdout_larger_than_train_split(self):
        # both splits share the log's buffers, sized to the larger one
        data = small_data()
        hold = make_blobs(40, 3, 4, 0.2, seed=77)
        assert hold.n > data.n
        r = fit(small_model(), data, hold, epochs=3)
        final = r.model.final

        def acc(batch):
            scores = eval_scores(
                LossSpec("softmax"), final,
                penultimate_features(r.model, batch.features),
            )
            return float(np.mean(np.argmax(scores, axis=1) == batch.labels))

        assert r.log[-1].holdout_acc == acc(hold)
        assert r.log[-1].train_acc == acc(data)

    def test_learns_separable_data(self):
        data = make_blobs(30, 3, 4, 0.05, seed=8)
        r = fit(small_model(seed=1), data, epochs=30, peak_lr=0.2)
        assert r.log[-1].train_acc > 0.95


class TestInputChecks:
    @pytest.mark.parametrize("which, batch, match", [
        ("holdout", make_blobs(5, 3, 5, 0.2, seed=77), "holdout has 5 features and 3"),
        ("holdout", make_blobs(5, 4, 4, 0.2, seed=77), "holdout has 4 features and 4"),
        ("dataset", make_blobs(5, 3, 5, 0.2, seed=77), "dataset has 5 features and 3"),
        ("dataset", make_blobs(5, 4, 4, 0.2, seed=77), "dataset has 4 features and 4"),
        # one label that reaches the model's K = 3 is enough
        ("holdout", Batch(np.zeros((2, 4)), [0, 3]), "holdout has 4 features and 4"),
        ("dataset", Batch(np.zeros((2, 4)), [3, 0]), "dataset has 4 features and 4"),
    ])
    def test_mismatched_split_rejected_before_first_step(
        self, monkeypatch, which, batch, match
    ):
        def no_step(*args, **kwargs):
            raise AssertionError("trained before checking its inputs")

        monkeypatch.setattr(training, "loss_and_grads", no_step)
        splits = {"dataset": small_data(), "holdout": small_data(seed=1)}
        splits[which] = batch
        with pytest.raises(ValueError, match=match):
            fit(small_model(), splits["dataset"], splits["holdout"])

    @pytest.mark.parametrize("seed, match", [
        (-1, "seed must be >= 0, got -1"),
        (np.nan, "seed must be >= 0, got nan"),
        (1.5, "seed must be an integer, got 1.5"),
    ], ids=["negative", "nan", "fractional"])
    def test_bad_seed_rejected_before_first_step(self, monkeypatch, seed, match):
        def no_step(*args, **kwargs):
            raise AssertionError("trained before checking its seed")

        monkeypatch.setattr(training, "loss_and_grads", no_step)
        with pytest.raises(ValueError, match=re.escape(match)):
            train(small_model(), small_data(), cfg(), loss=LossSpec("softmax"),
                  seed=seed)

    def test_split_without_the_top_class_accepted(self):
        # a split may lack classes the model has, as a csv file may
        data, hold = small_data(), small_data(seed=1)
        kept = [Batch(b.features[b.labels < 2], b.labels[b.labels < 2])
                for b in (data, hold)]
        assert [b.num_classes for b in kept] == [2, 2]
        r = fit(small_model(), kept[0], kept[1], epochs=2)
        assert len(r.log) == 2 and r.model.num_classes == 3


class TestDivergence:
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_huge_lr_raises(self):
        data = small_data()
        spec = LossSpec("squared_error", kappa=9.0, target_magnitude=60.0,
                        loss_scale=10.0)
        with pytest.raises(TrainingDiverged):
            fit(small_model(), data, loss=spec, peak_lr=1e8, epochs=50)


class TestWeightDecayInTrainer:
    def test_decay_shrinks_weights_not_biases(self):
        data = small_data()
        m = small_model()
        plain = fit(m, data, epochs=10, seed=6)
        decayed = fit(m, data, epochs=10, seed=6, weight_decay_product=5e-3)
        norm = lambda model: sum(
            float(np.sum(w**2)) for w in model.hidden_weights
        ) + float(np.sum(model.final.weights**2))
        assert norm(decayed.model) < norm(plain.model)

    def test_zero_lr_step_skips_decay(self):
        # warmup_exp starts at lr 0 and product-form decay divides by lr,
        # so the one step of this run must skip decay and move nothing
        data = small_data()
        m = small_model()
        r = fit(m, data, epochs=1, batch_size=data.n, schedule="warmup_exp",
                weight_decay_product=5e-3)
        for a, b in zip(r.model.params(), m.params(), strict=True):
            assert np.array_equal(a, b)


class TestEmaInTrainer:
    def test_ema_model_present_and_distinct(self):
        data = small_data()
        r = fit(small_model(), data, epochs=5, ema_momentum=0.99)
        assert r.ema_model is not None
        diffs = [
            np.max(np.abs(a - b))
            for a, b in zip(r.model.params(), r.ema_model.params())
        ]
        assert max(diffs) > 0.0

    def test_no_ema_by_default(self):
        r = fit(small_model(), small_data(), epochs=1)
        assert r.ema_model is None


def reference_train(model, data, config, loss, seed):
    """The per-array loop: Nesterov, product-form decay and EMA on lists."""
    ss = np.random.SeedSequence(seed)
    shuffle_ss, dropout_ss = ss.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)
    steps_per_epoch = -(-data.n // config.batch_size)
    total = config.epochs * steps_per_epoch
    mu, m = config.momentum, config.ema_momentum
    nh = len(model.hidden_weights)

    def as_model(ps):
        return MlpModel(ps[0 : 2 * nh : 2], ps[1 : 2 * nh : 2],
                        FinalLayer(ps[-2], ps[-1]))

    params = [p.copy() for p in model.params()]
    velocity = [np.zeros_like(p) for p in params]
    shadow = [p.copy() for p in params]
    step = 0
    for _ in range(config.epochs):
        perm = shuffle_rng.permutation(data.n)
        for start in range(0, data.n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            lr = float(lr_at(config, step, total, steps_per_epoch))
            _, grads = loss_and_grads(as_model(params), loss,
                                      data.features[idx], data.labels[idx],
                                      dropout_rng)
            if lr > 0.0:
                for i, p in enumerate(params):
                    if p.ndim == 2:
                        grads[i] = grads[i] + (
                            config.weight_decay_product / lr) * p
            for i, (p, g) in enumerate(zip(params, grads)):
                velocity[i] = mu * velocity[i] - lr * g
                params[i] = p + mu * velocity[i] - lr * g
            for s, p in zip(shadow, params):
                s *= m
                s += (1.0 - m) * p
            step += 1
    return as_model(params), as_model(shadow)


def test_flat_step_matches_per_array_reference():
    data = small_data(seed=4)
    model = init_mlp(4, (8, 6), 3, np.random.default_rng(9))
    config = cfg(epochs=3, weight_decay_product=5e-3, ema_momentum=0.9)
    loss = LossSpec("dropout", keep_prob=0.8)
    result = train(model, data, config, loss=loss, seed=2)
    ref_model, ref_ema = reference_train(model, data, config, loss, 2)
    for got, want in ((result.model, ref_model), (result.ema_model, ref_ema)):
        for a, b in zip(got.params(), want.params(), strict=True):
            assert np.array_equal(a, b)


class TestLossAndGrads:
    def test_matches_fd_through_hidden_layers(self):
        # end-to-end FD on every parameter of a two-hidden-layer net
        rng = np.random.default_rng(12)
        model = init_mlp(3, (5, 4), 3, rng)
        X = rng.standard_normal((6, 3))
        y = rng.integers(0, 3, 6)
        spec = LossSpec("softmax")
        value, grads = loss_and_grads(model, spec, X, y)

        params = model.params()
        step = 1e-6
        for pi, (p, g) in enumerate(zip(params, grads)):
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + step
                up, _ = loss_and_grads(model, spec, X, y)
                p[idx] = orig - step
                dn, _ = loss_and_grads(model, spec, X, y)
                p[idx] = orig
                fd = (up - dn) / (2 * step)
                assert abs(fd - g[idx]) < 5e-7, f"param {pi} idx {idx}"
                it.iternext()

    def test_relu_dead_units_get_zero_grad(self):
        rng = np.random.default_rng(13)
        model = init_mlp(2, (4,), 2, rng)
        model.hidden_biases[0][:] = -100.0  # all units dead
        X = rng.standard_normal((3, 2))
        _, grads = loss_and_grads(model, LossSpec("softmax"), X, [0, 1, 0])
        np.testing.assert_array_equal(grads[0], 0.0)
        np.testing.assert_array_equal(grads[1], 0.0)
