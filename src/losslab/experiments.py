"""Desk-scale blob experiments behind the headline claims.

Three recipes, all on synthetic Gaussian blobs so they run on a laptop:

  separation_experiment    R2 of penultimate features under four losses
  temperature_experiment   cosine-softmax tau sweep: R2 up, transfer down
  agreement_experiment     per-seed prediction clustering for two losses

plus per-kind convergence recipes showing every objective trains to high
accuracy on separable blobs. The tuned constants (spread, learning rates)
were picked empirically so the softmax baseline sits in the high-80s to
low-90s eval accuracy: hard enough that the losses shape representations
differently, easy enough that every run converges.

Every recipe is one ExperimentConfig. An experiment trains all of its runs
with one harness.train_runs call, one worker per CPU, into a temporary
directory, then measures the trained models through harness.load_runs.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .agreement import agreement_matrix, linkage_dendrogram
from .calibration import top1_predictions
from .config import DatasetConfig, ExperimentConfig
from .harness import (
    load_experiment_data,
    load_runs,
    train_runs,
    transfer_probe,
)
from .losses import LOSS_KINDS, LossSpec
from .probe import ProbeConfig
from .repr_analysis import class_separation_r2

# ten classes, 500/class, means a couple spreads apart: moderate overlap.
# data seed picked so squared-error training keeps every feature row alive
# (ReLU nets under that loss go very sparse and can zero out an example)
SEPARATION_TASK = DatasetConfig(spread=1.75, seed=3)

# small and nearly noise-free: every kind should nail it
CONVERGENCE_TASK = DatasetConfig(
    classes=5, features=16, per_class=60, eval_per_class=20, spread=0.15
)


def _train(recipes, seeds, task: DatasetConfig, output_dir) -> tuple:
    """Train each (name, spec, train knobs) recipe at every seed into
    output_dir; returns one config per recipe and the run summaries,
    recipe by recipe."""
    configs = [
        ExperimentConfig(
            dataset=task,
            hidden=(64, 64),
            train={"epochs": 40, "batch_size": 128, "peak_lr": 0.05, **knobs},
            seeds=tuple(seeds),
            losses=((name, spec),),
            analyses=(),
            output_dir=output_dir,
        )
        for name, spec, knobs in recipes
    ]
    runs = [(c, name, spec, seed) for c in configs
            for name, spec in c.losses for seed in c.seeds]
    return configs, train_runs(runs, jobs=min(len(runs), os.cpu_count() or 1))


def _r2s(config, batch, index: str) -> np.ndarray:
    """Per-seed R2 of the config's penultimate features on a labeled batch."""
    return np.asarray([
        class_separation_r2(run.features, batch.labels, index)
        for run in load_runs(config, batch)
    ])


# (name, spec, train knobs): per-loss optimizer settings, tuned so every
# loss lands in the same high-80s eval accuracy band. squared error needs
# a warmup schedule or early feature death eats whole examples.
SEPARATION_LOSSES = (
    ("softmax", LossSpec("softmax"), dict(epochs=250, peak_lr=0.05)),
    ("label_smoothing", LossSpec("label_smoothing", alpha=0.1),
     dict(epochs=250, peak_lr=0.05)),
    ("cosine_softmax", LossSpec("cosine_softmax", temperature=0.05),
     dict(epochs=250, peak_lr=0.15)),
    ("squared_error",
     LossSpec("squared_error", kappa=1.0, target_magnitude=1.0, loss_scale=1.0),
     dict(epochs=300, peak_lr=0.08, schedule="warmup_exp",
          warmup_epochs=30, decay_per_epoch=0.99)),
)


def separation_experiment(seeds=(0, 1, 2, 3, 4), index: str = "cosine") -> dict:
    """{loss name: per-seed R2 of train-split penultimate features}.

    R2 is measured on the split the model trained on; that is where the
    collapse the four losses disagree about actually happens.
    """
    train_batch, _ = load_experiment_data(SEPARATION_TASK)
    with tempfile.TemporaryDirectory() as tmp:
        configs, _ = _train(SEPARATION_LOSSES, seeds, SEPARATION_TASK, tmp)
        return {
            config.losses[0][0]: _r2s(config, train_batch, index)
            for config in configs
        }


# per-tau budget: lr grows with tau (mirroring loss-scale stabilization
# for sharp logits) until stability caps it. high tau shrinks feature
# norms so aggressively that long budgets zero out whole example rows,
# so tau=0.08 trains short instead; it collapses fastest anyway.
TEMPERATURE_RECIPES = {
    0.01: dict(epochs=250, peak_lr=0.03),
    0.03: dict(epochs=250, peak_lr=0.09),
    0.05: dict(epochs=250, peak_lr=0.15),
    0.08: dict(epochs=80, peak_lr=0.10),
}

# transfer target: a fresh draw of the task family (new class means),
# relabeled coarsely. probing the training task's own eval split cannot
# see collapse at all: its coarse labels are a function of the fine
# labels, so maximally collapsed features still solve it.
TRANSFER_TASK = DatasetConfig(spread=1.75, seed=11)


def temperature_experiment(
    taus=(0.01, 0.03, 0.05, 0.08),
    seeds=(0, 1, 2),
    merge: int = 5,
    index: str = "cosine",
) -> dict:
    """{tau: {"r2": per-seed array, "transfer": per-seed array}}.

    R2 is on the train split. Transfer is probe accuracy on penultimate
    features of the transfer task's eval split with labels k -> k mod
    merge, half probe-train / half probe-test per coarse class.
    """
    train_batch, _ = load_experiment_data(SEPARATION_TASK)
    _, transfer_batch = load_experiment_data(TRANSFER_TASK)
    probe_cfg = ProbeConfig(tolerance=1e-3, max_iterations=1000)
    recipes = [
        (f"tau{i}", LossSpec("cosine_softmax", temperature=tau),
         TEMPERATURE_RECIPES.get(tau, dict(epochs=80, peak_lr=0.05)))
        for i, tau in enumerate(taus)
    ]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        configs, _ = _train(recipes, seeds, SEPARATION_TASK, tmp)
        for tau, config in zip(taus, configs):
            accs = [
                transfer_probe(
                    run.features, transfer_batch.labels, merge, probe_cfg
                ).test_accuracy
                for run in load_runs(config, transfer_batch)
            ]
            out[tau] = {"r2": _r2s(config, train_batch, index),
                        "transfer": np.asarray(accs)}
    return out


# clustering needs the runs to still disagree somewhere. On blobs with the
# default overlap, a 40-epoch budget leaves each objective in its own
# optimization regime (squared error ramps much later than softmax), so
# top-1 predictions carry the loss identity; at full convergence every run
# agrees with every other and the shared data seed couples same-seed pairs
# across losses more tightly than loss family does.
AGREEMENT_TASK = DatasetConfig(spread=2.0)

# two loss families whose error patterns differ most; identical budgets so
# the clustering can only pick up the objective, not the schedule
AGREEMENT_LOSSES = (
    ("softmax", LossSpec("softmax"), dict(epochs=40, peak_lr=0.05)),
    ("squared_error",
     LossSpec("squared_error", kappa=1.0, target_magnitude=1.0, loss_scale=1.0),
     dict(epochs=40, peak_lr=0.05)),
)


def agreement_experiment(seeds=(0, 1, 2, 3, 4), variant: str = "same_top1") -> dict:
    """Cluster per-seed predictions of two losses on the shared eval split.

    Returns names, per-run loss ids, the agreement matrix, the average
    linkage merge list on 1 - agreement, and the within/cross seed-means.
    """
    _, eval_batch = load_experiment_data(AGREEMENT_TASK)
    with tempfile.TemporaryDirectory() as tmp:
        configs, _ = _train(AGREEMENT_LOSSES, seeds, AGREEMENT_TASK, tmp)
        runs = [run for c in configs for run in load_runs(c, eval_batch)]
    preds = [top1_predictions(run.scores) for run in runs]
    names = [f"{run.name}:seed{run.seed}" for run in runs]
    loss_of = [run.name for run in runs]
    agree = agreement_matrix(preds, eval_batch.labels, variant)
    merges = linkage_dendrogram(1.0 - agree)

    same = np.equal.outer(loss_of, loss_of)
    off = ~np.eye(len(names), dtype=bool)
    within = float(agree[same & off].mean())
    cross = float(agree[~same].mean())
    return {
        "names": names,
        "loss_of": loss_of,
        "agreement": agree,
        "merges": merges,
        "within_mean": within,
        "cross_mean": cross,
    }


# per-kind (spec, peak_lr) pairs that reach high train accuracy fast on
# CONVERGENCE_TASK; squared error keeps unit targets so its gradients
# stay on the same scale as the rest
CONVERGENCE_RECIPES = {
    "softmax": (LossSpec("softmax"), 0.05),
    "label_smoothing": (LossSpec("label_smoothing", alpha=0.1), 0.05),
    "dropout": (LossSpec("dropout", keep_prob=0.7), 0.05),
    "extra_final_l2": (LossSpec("extra_final_l2", lambda_final=8e-4), 0.05),
    "logit_penalty": (LossSpec("logit_penalty", beta=6e-4), 0.05),
    "logit_norm": (LossSpec("logit_norm", temperature=0.05), 0.05),
    "cosine_softmax": (LossSpec("cosine_softmax", temperature=0.05), 0.01),
    "sigmoid": (LossSpec("sigmoid"), 0.05),
    "squared_error":
        (LossSpec("squared_error", kappa=1.0, target_magnitude=1.0), 0.1),
}
assert tuple(CONVERGENCE_RECIPES) == LOSS_KINDS


def convergence_experiment(seed: int = 0) -> dict:
    """{kind: final train accuracy} for every objective on easy blobs."""
    recipes = [
        (kind, spec, dict(epochs=100, batch_size=64, peak_lr=lr))
        for kind, (spec, lr) in CONVERGENCE_RECIPES.items()
    ]
    with tempfile.TemporaryDirectory() as tmp:
        _, summaries = _train(recipes, (seed,), CONVERGENCE_TASK, tmp)
    return {s["loss"]: s["final_train_acc"] for s in summaries}
