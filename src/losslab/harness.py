"""Config-driven experiment runner.

For each (loss, seed) pair the runner trains a fresh MLP, then persists
its artifacts under ``{out}/runs/{loss}/seed{N}/``:

    model.npz         trained weights (EMA shadow when enabled)
    train_log.csv     per-epoch lr / loss / accuracies
    penultimate.dump  export copy: eval-split features + labels
    eval_scores.dump  export copy: eval-split score matrix + labels
    predictions.csv   example_id, predicted_class, confidence
    run.json          loss line, seed, and final accuracies

Reports under ``{out}/reports/`` are pure views over ``model.npz`` and
``run.json``: load_runs loads each model once and recomputes its features
and scores on the data split, and no report reads a dump. Rerunning the
same config reproduces every file byte for byte (no timestamps, fixed
float formatting).

run_single is the only code in losslab that trains a model; the CLI and
the blobs experiments reach it through train_runs.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .agreement import agreement_matrix, linkage_dendrogram
from .calibration import (
    ece,
    fit_temperature,
    probs_from_logits,
    top1_predictions,
)
from .config import ExperimentConfig, format_loss_line
from .data import Batch, load_csv, load_idx, make_blob_split
# read_activation_dump is unused here; perfbench/tracer.py patches it here
from .dumps import read_activation_dump, write_activation_dump  # noqa: F401
from .losses import LossSpec, eval_scores
from .mlp import (
    FinalLayer,
    MlpModel,
    forward_hidden,
    init_for_spec,
    penultimate_features,
)
from .probe import ProbeConfig, ProbeResult, sweep_and_retrain
from .repr_analysis import (
    SEPARATION_INDEXES,
    angular_visual_hardness,
    class_separation_r2,
    linear_cka,
    singular_spectrum,
    sparsity_profile,
)
from .training import TrainConfig, train, write_log_csv

FMT = "%.10g"


class RunFailure(RuntimeError):
    """A (loss, seed) run failed; carries the failing pair."""

    def __init__(self, loss_name: str, seed: int, cause: BaseException):
        super().__init__(f"loss={loss_name} seed={seed}: {cause}")
        self.loss_name = loss_name
        self.seed = seed
        self.cause = cause

    def __reduce__(self):
        # rebuilt from its own arguments when it crosses a process pool
        return type(self), (self.loss_name, self.seed, self.cause)


def save_model(model: MlpModel, path) -> None:
    arrays = {}
    for i, (w, b) in enumerate(zip(model.hidden_weights, model.hidden_biases)):
        arrays[f"hidden_w_{i}"] = w
        arrays[f"hidden_b_{i}"] = b
    arrays["final_w"] = model.final.weights
    arrays["final_b"] = model.final.bias
    np.savez(path, **arrays)


def load_model(path) -> MlpModel:
    with np.load(path) as z:
        n_hidden = sum(1 for k in z.files if k.startswith("hidden_w_"))
        ws = [z[f"hidden_w_{i}"] for i in range(n_hidden)]
        bs = [z[f"hidden_b_{i}"] for i in range(n_hidden)]
        final = FinalLayer(z["final_w"], z["final_b"])
    return MlpModel(ws, bs, final)


def load_experiment_data(ds) -> tuple:
    """DatasetConfig -> (train Batch, eval Batch) with a shared class count."""
    if ds.kind == "blobs":
        return make_blob_split(
            ds.per_class, ds.eval_per_class, ds.classes, ds.features,
            ds.spread, ds.seed,
        )
    loader = load_csv if ds.kind == "csv" else load_idx
    tr = loader(ds.path)
    ev = loader(ds.eval_path)
    k = max(tr.num_classes, ev.num_classes)
    return (
        Batch(tr.features, tr.labels, k),
        Batch(ev.features, ev.labels, k),
    )


def run_dir(output_dir, loss_name: str, seed: int) -> Path:
    return Path(output_dir) / "runs" / loss_name / f"seed{seed}"


def reports_dir(output_dir) -> Path:
    return Path(output_dir) / "reports"


def write_predictions_csv(path, predicted, confidence) -> None:
    with open(path, "w") as fh:
        fh.write("example_id,predicted_class,confidence\n")
        for i, (p, c) in enumerate(zip(predicted, confidence)):
            fh.write(f"{i},{int(p)},{FMT % c}\n")


def run_single(config: ExperimentConfig, loss_name: str, spec: LossSpec,
               seed: int) -> dict:
    """Train one (loss, seed) pair and persist its artifact directory."""
    train_batch, eval_batch = load_experiment_data(config.dataset)
    # children 0 and 1 of SeedSequence(seed) drive shuffling and dropout
    # inside train(); child 2 is reserved here for weight init
    init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    model = init_for_spec(
        train_batch.dim, config.hidden, train_batch.num_classes, spec, init_rng
    )
    tc = TrainConfig(loss=spec, seed=seed, **config.train)
    result = train(model, train_batch, tc, holdout=eval_batch)
    final_model = result.ema_model if result.ema_model is not None else result.model

    out = run_dir(config.output_dir, loss_name, seed)
    out.mkdir(parents=True, exist_ok=True)
    save_model(final_model, out / "model.npz")
    write_log_csv(result.log, out / "train_log.csv")

    feats = penultimate_features(final_model, eval_batch.features)
    write_activation_dump(out / "penultimate.dump", feats, eval_batch.labels)
    scores = eval_scores(spec, final_model.final, feats)
    write_activation_dump(out / "eval_scores.dump", scores, eval_batch.labels)

    probs = probs_from_logits(scores, spec.kind)
    pred = top1_predictions(scores)
    write_predictions_csv(out / "predictions.csv", pred, probs.max(axis=1))

    eval_acc = float(np.mean(pred == eval_batch.labels))
    summary = {
        "loss": loss_name,
        "loss_line": format_loss_line(spec),
        "seed": seed,
        "epochs": len(result.log),
        "final_train_acc": result.log[-1].train_acc if result.log else None,
        "eval_acc": eval_acc,
    }
    with open(out / "run.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _run_single_job(args):
    config, loss_name, spec, seed = args
    try:
        return run_single(config, loss_name, spec, seed)
    except Exception as exc:  # noqa: BLE001 - wrapped with the failing pair
        raise RunFailure(loss_name, seed, exc) from exc


def train_runs(runs, jobs: int = 1) -> list:
    """Train (config, loss name, spec, seed) runs; returns summaries in order.

    With jobs > 1 the runs go to spawned workers. A spawned worker imports
    numpy afresh with this process's os.environ, so it keeps the one BLAS
    thread that importing losslab sets (see ``losslab/__init__.py``).
    """
    if jobs > 1:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            return list(pool.map(_run_single_job, runs))
    return [_run_single_job(r) for r in runs]


def _runs(config):
    for name, spec in config.losses:
        for seed in config.seeds:
            yield name, spec, seed


def run_all(config: ExperimentConfig, jobs: int = 1) -> list:
    """Train the full (loss, seed) grid; returns run summaries in grid order."""
    return train_runs(
        [(config, name, spec, seed) for name, spec, seed in _runs(config)], jobs
    )


# ---------------------------------------------------------------- reports


def _run_names(config):
    return [f"{name}:seed{seed}" for name, _, seed in _runs(config)]


@dataclass(frozen=True)
class LoadedRun:
    """A trained run and its penultimate features and scores on a batch."""

    name: str
    spec: LossSpec
    seed: int
    model: MlpModel
    batch: Batch
    features: np.ndarray
    scores: np.ndarray


def load_runs(config, batch: Batch | None = None) -> list:
    """Every (loss, seed) run of the grid, loaded once from its model.npz.

    batch defaults to the config's eval split; the records share it.
    """
    if batch is None:
        batch = load_experiment_data(config.dataset)[1]
    runs = []
    for name, spec, seed in _runs(config):
        path = run_dir(config.output_dir, name, seed) / "model.npz"
        if not path.exists():
            raise FileNotFoundError(f"missing artifact {path}; run training first")
        model = load_model(path)
        feats = penultimate_features(model, batch.features)
        runs.append(LoadedRun(name, spec, seed, model, batch, feats,
                              eval_scores(spec, model.final, feats)))
    return runs


def _mean_stderr(values) -> tuple:
    v = np.asarray(values, dtype=np.float64)
    mean = float(v.mean())
    if v.size < 2:
        return mean, None
    return mean, float(v.std(ddof=1) / np.sqrt(v.size))


def _fmt_opt(x) -> str:
    return "" if x is None else FMT % x


def _write_matrix_csv(path, names, matrix) -> None:
    with open(path, "w") as fh:
        fh.write("name," + ",".join(names) + "\n")
        for name, row in zip(names, matrix):
            fh.write(name + "," + ",".join(FMT % v for v in row) + "\n")


def report_accuracy(config) -> tuple:
    """Per-loss eval accuracy, mean and standard error over seeds."""
    path = reports_dir(config.output_dir) / "accuracy.csv"
    with open(path, "w") as fh:
        fh.write("loss,mean_eval_acc,stderr,n_seeds\n")
        for name, _ in config.losses:
            accs = []
            for seed in config.seeds:
                with open(run_dir(config.output_dir, name, seed) / "run.json") as rf:
                    accs.append(json.load(rf)["eval_acc"])
            mean, se = _mean_stderr(accs)
            fh.write(f"{name},{FMT % mean},{_fmt_opt(se)},{len(accs)}\n")
    return (path,)


def report_separation(config, runs) -> tuple:
    path = reports_dir(config.output_dir) / "separation.csv"
    with open(path, "w") as fh:
        fh.write("loss,index,mean_r2,stderr\n")
        for name, _ in config.losses:
            mine = [r for r in runs if r.name == name]
            for ix in SEPARATION_INDEXES:
                mean, se = _mean_stderr(
                    [class_separation_r2(r.features, r.batch.labels, ix)
                     for r in mine]
                )
                fh.write(f"{name},{ix},{FMT % mean},{_fmt_opt(se)}\n")
    return (path,)


def report_cka(config, runs) -> tuple:
    m = len(runs)
    M = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            M[i, j] = M[j, i] = linear_cka(runs[i].features, runs[j].features)
    path = reports_dir(config.output_dir) / "cka.csv"
    _write_matrix_csv(path, _run_names(config), M)
    return (path,)


def report_sparsity(config, runs) -> tuple:
    """Fraction of active ReLU units per hidden layer on the eval split."""
    path = reports_dir(config.output_dir) / "sparsity.csv"
    with open(path, "w") as fh:
        fh.write("loss,seed,layer,fraction_active\n")
        for run in runs:
            acts = forward_hidden(run.model, run.batch.features)[1:]
            for layer, frac in enumerate(sparsity_profile(acts)):
                fh.write(f"{run.name},{run.seed},{layer},{FMT % frac}\n")
    return (path,)


def report_calibration(config, runs) -> tuple:
    """calibration.json (pre/post temperature) + calibration_bins.csv."""
    rows = []
    table = {}
    for name, spec in config.losses:
        fits = []
        for run in (r for r in runs if r.name == name):
            labels = run.batch.labels
            pre = ece(probs_from_logits(run.scores, spec.kind), labels)
            temp, post = fit_temperature(run.scores, labels, spec.kind)
            fits.append(
                {
                    "seed": run.seed,
                    "nll": pre.nll,
                    "ece": pre.ece,
                    "temperature": temp,
                    "nll_scaled": post.nll,
                    "ece_scaled": post.ece,
                }
            )
            for b in pre.bins:
                rows.append(
                    (name, run.seed, b.lower, b.upper, b.count,
                     b.accuracy, b.mean_confidence)
                )
        table[name] = {
            "runs": fits,
            "mean": {
                key: _mean_stderr([f[key] for f in fits])[0]
                for key in ("nll", "ece", "temperature", "nll_scaled", "ece_scaled")
            },
        }
    rdir = reports_dir(config.output_dir)
    json_path = rdir / "calibration.json"
    with open(json_path, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    bins_path = rdir / "calibration_bins.csv"
    with open(bins_path, "w") as fh:
        fh.write("loss,seed,lower,upper,count,accuracy,mean_confidence\n")
        for name, seed, lo, hi, count, acc, conf in rows:
            fh.write(
                f"{name},{seed},{FMT % lo},{FMT % hi},{count},"
                f"{_fmt_opt(acc)},{_fmt_opt(conf)}\n"
            )
    return json_path, bins_path


def report_agreement(config, runs) -> tuple:
    """Agreement matrix over all runs + average-linkage merge list."""
    names = _run_names(config)
    preds = [top1_predictions(r.scores) for r in runs]
    agree = agreement_matrix(preds, runs[0].batch.labels, config.agreement_variant)
    rdir = reports_dir(config.output_dir)
    mat_path = rdir / f"agreement_{config.agreement_variant}.csv"
    _write_matrix_csv(mat_path, names, agree)
    # cluster on disagreement; the mutual-error variant leaves NaN for
    # pairs with no shared mistakes, so linkage only runs when finite
    dist = 1.0 - agree
    link_path = rdir / "linkage.csv"
    with open(link_path, "w") as fh:
        fh.write("step,id_a,id_b,distance\n")
        if np.all(np.isfinite(dist)):
            for step, (a, b, d) in enumerate(linkage_dendrogram(dist)):
                fh.write(f"{step},{int(a)},{int(b)},{FMT % d}\n")
    return mat_path, link_path


def report_avh(config, runs) -> tuple:
    path = reports_dir(config.output_dir) / "avh.csv"
    with open(path, "w") as fh:
        fh.write("loss,seed,mean_avh\n")
        for run in runs:
            avh = angular_visual_hardness(run.model.final, run.features,
                                          run.batch.labels)
            fh.write(f"{run.name},{run.seed},{FMT % float(avh.mean())}\n")
    return (path,)


def report_spectra(config, runs) -> tuple:
    """Singular values of centered penultimate activations, descending."""
    path = reports_dir(config.output_dir) / "spectra.csv"
    with open(path, "w") as fh:
        fh.write("loss,seed,rank,sigma\n")
        for run in runs:
            for rank, s in enumerate(singular_spectrum(run.features)):
                fh.write(f"{run.name},{run.seed},{rank},{FMT % s}\n")
    return (path,)


def merge_labels(labels, merge: int) -> np.ndarray:
    """Coarse relabeling: class k maps to k mod merge."""
    return np.asarray(labels, dtype=np.int64) % merge


def transfer_probe(features, labels, merge: int, probe_config: ProbeConfig,
                   split_seed: int = 0) -> ProbeResult:
    """Probe on coarse labels: per-class half train / half test."""
    y = merge_labels(labels, merge)
    rng = np.random.default_rng(split_seed)
    tr_idx, te_idx = [], []
    for k in np.unique(y):
        idx = rng.permutation(np.where(y == k)[0])
        half = idx.size // 2
        tr_idx.append(idx[:half])
        te_idx.append(idx[half:])
    tr = np.sort(np.concatenate(tr_idx))
    te = np.sort(np.concatenate(te_idx))
    X = np.asarray(features, dtype=np.float64)
    return sweep_and_retrain(X[tr], y[tr], X[te], y[te], probe_config)


def report_transfer(config, runs) -> tuple:
    """Coarse-label probe accuracy per run, with whether every fit behind it
    (the lambda path and the refit) converged and its largest gradient norm."""
    path = reports_dir(config.output_dir) / "transfer.csv"
    with open(path, "w") as fh:
        fh.write("loss,seed,merge,probe_acc,converged,max_grad_norm\n")
        for run in runs:
            res = transfer_probe(
                run.features, run.batch.labels, config.transfer_merge,
                ProbeConfig(),
            )
            converged = bool(res.converged.all()) and res.refit_converged
            max_gn = max(float(res.grad_norm.max()), res.refit_grad_norm)
            fh.write(
                f"{run.name},{run.seed},{config.transfer_merge},"
                f"{FMT % res.test_accuracy},{int(converged)},{FMT % max_gn}\n"
            )
    return (path,)


# analysis name -> reporter(config, load_runs(config)); like
# report_accuracy, each returns the tuple of paths it wrote
REPORTERS = {
    "separation": report_separation,
    "cka": report_cka,
    "sparsity": report_sparsity,
    "calibration": report_calibration,
    "agreement": report_agreement,
    "avh": report_avh,
    "spectra": report_spectra,
    "transfer": report_transfer,
}


def write_metadata(config) -> Path:
    """reports/metadata.json: the grid and the settings of every report."""
    meta = {
        "runs": _run_names(config),
        "losses": {name: format_loss_line(spec) for name, spec in config.losses},
        "seeds": list(config.seeds),
        "analyses": list(config.analyses),
        "agreement_variant": config.agreement_variant,
        "agreement_distance": "1 - agreement, average linkage",
        "spectra_mode": "activations",
        "transfer_merge": config.transfer_merge,
        "dataset": asdict(config.dataset),
    }
    meta_path = reports_dir(config.output_dir) / "metadata.json"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta_path


def write_reports(config) -> list:
    """Accuracy table plus every enabled analysis; returns written paths."""
    reports_dir(config.output_dir).mkdir(parents=True, exist_ok=True)
    written = list(report_accuracy(config))
    if config.analyses:
        runs = load_runs(config)
        for analysis in config.analyses:
            written.extend(REPORTERS[analysis](config, runs))
    written.append(write_metadata(config))
    return written


def dump_activations(model_path, dataset: Batch, out_path) -> None:
    """Penultimate features + labels of a saved model on a dataset."""
    model = load_model(model_path)
    feats = penultimate_features(model, dataset.features)
    write_activation_dump(out_path, feats, dataset.labels)
