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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agreement import agreement_matrix, linkage_dendrogram
from .calibration import top1_predictions
from .data import make_blob_split
from .harness import transfer_probe
from .losses import LOSS_KINDS, LossSpec, eval_scores
from .mlp import init_for_spec, penultimate_features
from .probe import ProbeConfig
from .repr_analysis import class_separation_r2
from .training import TrainConfig, train


@dataclass(frozen=True)
class BlobsTask:
    classes: int = 10
    features: int = 32
    per_class: int = 500
    eval_per_class: int = 100
    spread: float = 2.0
    seed: int = 0

    def batches(self):
        return make_blob_split(
            self.per_class, self.eval_per_class, self.classes,
            self.features, self.spread, self.seed,
        )


# ten classes, 500/class, means a couple spreads apart: moderate overlap.
# data seed picked so squared-error training keeps every feature row alive
# (ReLU nets under that loss go very sparse and can zero out an example)
SEPARATION_TASK = BlobsTask(spread=1.75, seed=3)

# small and nearly noise-free: every kind should nail it
CONVERGENCE_TASK = BlobsTask(
    classes=5, features=16, per_class=60, eval_per_class=20, spread=0.15
)


def run_blobs(
    spec: LossSpec,
    seed: int,
    task: BlobsTask = SEPARATION_TASK,
    epochs: int = 40,
    batch_size: int = 128,
    peak_lr: float = 0.05,
    hidden: tuple = (64, 64),
    **knobs,
):
    """Train one MLP on the task; returns (model, eval features, eval batch, result)."""
    train_batch, eval_batch = task.batches()
    # same reservation as the harness: children 0/1 feed train(), 2 inits
    init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    model = init_for_spec(
        train_batch.dim, hidden, train_batch.num_classes, spec, init_rng
    )
    config = TrainConfig(
        loss=spec, epochs=epochs, batch_size=batch_size, peak_lr=peak_lr,
        seed=seed, **knobs,
    )
    result = train(model, train_batch, config, holdout=eval_batch)
    final = result.ema_model if result.ema_model is not None else result.model
    feats = penultimate_features(final, eval_batch.features)
    return final, feats, eval_batch, result


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


def separation_experiment(
    seeds=(0, 1, 2, 3, 4),
    task: BlobsTask = SEPARATION_TASK,
    index: str = "cosine",
) -> dict:
    """{loss name: per-seed R2 of train-split penultimate features}.

    R2 is measured on the split the model trained on; that is where the
    collapse the four losses disagree about actually happens.
    """
    train_batch, _ = task.batches()
    out = {}
    for name, spec, knobs in SEPARATION_LOSSES:
        r2s = []
        for seed in seeds:
            model, _, _, _ = run_blobs(spec, seed, task=task, **knobs)
            feats = penultimate_features(model, train_batch.features)
            r2s.append(class_separation_r2(feats, train_batch.labels, index))
        out[name] = np.asarray(r2s)
    return out


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
TRANSFER_TASK = BlobsTask(spread=1.75, seed=11)


def temperature_experiment(
    taus=(0.01, 0.03, 0.05, 0.08),
    seeds=(0, 1, 2),
    task: BlobsTask = SEPARATION_TASK,
    transfer_task: BlobsTask = TRANSFER_TASK,
    merge: int = 5,
    index: str = "cosine",
) -> dict:
    """{tau: {"r2": per-seed array, "transfer": per-seed array}}.

    R2 is on the train split. Transfer is probe accuracy on penultimate
    features of the transfer task's eval split with labels k -> k mod
    merge, half probe-train / half probe-test per coarse class.
    """
    train_batch, _ = task.batches()
    _, transfer_batch = transfer_task.batches()
    probe_cfg = ProbeConfig(tolerance=1e-3, max_iterations=1000)
    out = {}
    for tau in taus:
        spec = LossSpec("cosine_softmax", temperature=tau)
        knobs = TEMPERATURE_RECIPES.get(tau, dict(epochs=80, peak_lr=0.05))
        r2s, accs = [], []
        for seed in seeds:
            model, _, _, _ = run_blobs(spec, seed, task=task, **knobs)
            feats = penultimate_features(model, train_batch.features)
            r2s.append(class_separation_r2(feats, train_batch.labels, index))
            moved = penultimate_features(model, transfer_batch.features)
            accs.append(
                transfer_probe(
                    moved, transfer_batch.labels, merge, probe_cfg
                ).test_accuracy
            )
        out[tau] = {"r2": np.asarray(r2s), "transfer": np.asarray(accs)}
    return out


# clustering needs the runs to still disagree somewhere. On blobs with the
# default overlap, a 40-epoch budget leaves each objective in its own
# optimization regime (squared error ramps much later than softmax), so
# top-1 predictions carry the loss identity; at full convergence every run
# agrees with every other and the shared data seed couples same-seed pairs
# across losses more tightly than loss family does.
AGREEMENT_TASK = BlobsTask()

# two loss families whose error patterns differ most; identical budgets so
# the clustering can only pick up the objective, not the schedule
AGREEMENT_LOSSES = (
    ("softmax", LossSpec("softmax"), dict(epochs=40, peak_lr=0.05)),
    ("squared_error",
     LossSpec("squared_error", kappa=1.0, target_magnitude=1.0, loss_scale=1.0),
     dict(epochs=40, peak_lr=0.05)),
)


def agreement_experiment(
    seeds=(0, 1, 2, 3, 4),
    task: BlobsTask = AGREEMENT_TASK,
    variant: str = "same_top1",
) -> dict:
    """Cluster per-seed predictions of two losses on the shared eval split.

    Returns names, per-run loss ids, the agreement matrix, the average
    linkage merge list on 1 - agreement, and the within/cross seed-means.
    """
    preds, names, loss_of = [], [], []
    labels = None
    for name, spec, knobs in AGREEMENT_LOSSES:
        for seed in seeds:
            final, feats, eval_batch, _ = run_blobs(
                spec, seed, task=task, **knobs
            )
            scores = eval_scores(spec, final.final, feats)
            preds.append(top1_predictions(scores))
            names.append(f"{name}:seed{seed}")
            loss_of.append(name)
            labels = eval_batch.labels
    mat = agreement_matrix(preds, labels, variant, names=names)
    merges = linkage_dendrogram(1.0 - mat.agree)

    same = np.equal.outer(loss_of, loss_of)
    off = ~np.eye(len(names), dtype=bool)
    within = float(mat.agree[same & off].mean())
    cross = float(mat.agree[~same].mean())
    return {
        "names": names,
        "loss_of": loss_of,
        "agreement": mat.agree,
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


def convergence_experiment(
    seed: int = 0,
    task: BlobsTask = CONVERGENCE_TASK,
    epochs: int = 100,
) -> dict:
    """{kind: final train accuracy} for every objective on easy blobs."""
    out = {}
    for kind, (spec, lr) in CONVERGENCE_RECIPES.items():
        _, _, _, result = run_blobs(
            spec, seed, task=task, epochs=epochs, batch_size=64, peak_lr=lr
        )
        out[kind] = result.log[-1].train_acc
    return out
