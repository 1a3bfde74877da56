"""Config-driven experiment runner.

For each (loss, seed) pair the runner trains a fresh MLP, then persists
its artifacts under ``{out}/runs/{loss}/seed{N}/``:

    model.npz         trained weights (EMA shadow when enabled)
    train_log.csv     per-epoch lr / loss / accuracies
    penultimate.dump  export copy: eval-split features + labels
    eval_scores.dump  export copy: eval-split score matrix + labels
    predictions.csv   example_id, predicted_class, confidence
    run.json          loss line, seed, and final accuracies

Every command gets its data from load_experiment_data, one split per
call: training asks for both, and analyze, report and dump only for the
split they read, so a blobs task draws and a file task reads nothing else.

Reports under ``{out}/reports/`` are pure views over ``model.npz`` and
``run.json``: load_runs loads each model once and recomputes its features
on a data split (a report that needs scores computes them from the
features), and no report reads a dump. Each reporter returns its tables
and writes nothing; write_reports is the one function that writes
``reports/``, for ``losslab analyze`` and ``losslab report`` alike. Rerunning the same config reproduces every file byte for byte (no
timestamps, fixed float formatting).

run_single is the only code in losslab that trains a model; the CLI and
the blobs experiments reach it through train_runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agreement import agreement_matrix, linkage_dendrogram
from .calibration import (
    ece,
    fit_temperature,
    probs_from_logits,
    top1_predictions,
)
from .checks import (check_choice, check_labels, check_matrix, check_range,
                     present_classes)
from .config import ExperimentConfig, format_loss_line
from .data import SPLITS, Batch, draw_blob_split, load_csv, split_index
# read_activation_dump is unused here; perfbench/tracer.py patches it here
from .dumps import read_activation_dump, write_activation_dump  # noqa: F401
from .losses import DegenerateInputError, LossSpec, eval_scores
from .mlp import (
    FinalLayer,
    MlpModel,
    forward_hidden,
    init_for_spec,
    penultimate_features,
)
from .probe import ProbeConfig, ProbeResult, stratified_split
# the sweep on checked rows, under the name perfbench/tracer.py patches here
from .probe import _sweep_and_retrain as sweep_and_retrain
from .repr_analysis import (
    SEPARATION_INDEXES,
    angular_visual_hardness,
    cka_matrix,
    class_separation_r2,
    singular_spectrum,
    sparsity_profile,
)
# linear_cka is unused here too (report_cka calls cka_matrix); the tracer
# patches it here
from .repr_analysis import linear_cka  # noqa: F401
from .training import train

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


def load_experiment_data(ds, split: str) -> Batch:
    """The "train" or "eval" split of a DatasetConfig, alone: a blobs task
    draws only that split's rows (data.draw_blob_split), and a csv task
    reads only that split's file."""
    if ds.kind == "blobs":
        return draw_blob_split(split, ds.per_class, ds.eval_per_class,
                               ds.classes, ds.features, ds.spread, ds.seed)
    return load_csv((ds.path, ds.eval_path)[split_index(split)])


def run_dir(output_dir, loss_name: str, seed: int) -> Path:
    return Path(output_dir) / "runs" / loss_name / f"seed{seed}"


def reports_dir(output_dir) -> Path:
    return Path(output_dir) / "reports"


def _cell(value) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, (str, int, np.integer)) else FMT % value


def _write_csv(path, header, rows) -> None:
    """Every CSV of a run or a report: the header, then one line per row,
    each ending in a bare line feed. None is written empty, str and ints
    with str(), and any other value as FMT. The file is opened only once
    every row is built, so a row that raises leaves the file as it was."""
    text = "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])
    Path(path).write_text(text, newline="")


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          newline="")


def _artifact(path) -> Path:
    """path, or FileNotFoundError naming it when training has not made it."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing artifact {path}; run training first")
    return path


def write_predictions_csv(path, predicted, confidence) -> None:
    _write_csv(path, ("example_id", "predicted_class", "confidence"),
               zip(range(len(predicted)), predicted, confidence))


def write_log_csv(log, path) -> None:
    _write_csv(path, ("epoch", "lr", "train_loss", "train_acc", "holdout_acc"),
               ((r.epoch, r.lr, r.train_loss, r.train_acc, r.holdout_acc)
                for r in log))


def run_single(config: ExperimentConfig, loss_name: str, spec: LossSpec,
               seed: int) -> dict:
    """Train one (loss, seed) pair and persist its artifact directory."""
    train_batch, eval_batch = (load_experiment_data(config.dataset, split)
                               for split in SPLITS)
    # the one choice of K in losslab: the larger class count of the two
    # splits, since either file of a csv task may lack the top class
    k = max(train_batch.num_classes, eval_batch.num_classes)
    # children 0 and 1 of SeedSequence(seed) drive shuffling and dropout
    # inside train(); child 2 is reserved here for weight init
    init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    model = init_for_spec(train_batch.dim, config.hidden, k, spec, init_rng)
    result = train(model, train_batch, config.train, holdout=eval_batch,
                   loss=spec, seed=seed)
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
    _write_json(out / "run.json", summary)
    return summary


def _run_single_job(args):
    config, loss_name, spec, seed = args
    try:
        return run_single(config, loss_name, spec, seed)
    except Exception as exc:  # noqa: BLE001 - wrapped with the failing pair
        raise RunFailure(loss_name, seed, exc) from exc


def train_runs(runs, jobs: int = 1) -> list:
    """Train (config, loss name, spec, seed) runs; returns summaries in order.

    jobs must be an integer >= 1. With jobs > 1 the runs go to spawned
    workers, and only then are multiprocessing and concurrent.futures
    imported, so a serial sweep and every other command load neither. A
    spawned worker imports numpy afresh with this process's os.environ, so
    it keeps the one BLAS thread that importing losslab sets (see
    ``losslab/__init__.py``).
    """
    check_range("jobs", jobs, ">= 1")
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

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
    """A trained run and its penultimate features on a batch.

    Only the features are stored. scores computes eval_scores from them on
    each access, so a reporter that needs a run's scores reads them once and
    lets them go with the run's turn.
    """

    name: str
    spec: LossSpec
    seed: int
    model: MlpModel
    batch: Batch
    features: np.ndarray

    @property
    def scores(self) -> np.ndarray:
        return eval_scores(self.spec, self.model.final, self.features)


def load_runs(config, batch: Batch | None = None) -> list:
    """Every (loss, seed) run of the grid, loaded once from its model.npz,
    with its penultimate features on batch and nothing else of its forward.

    batch defaults to the config's eval split, drawn or read alone, whose
    labels must lie below the trained heads' class count; the records share
    it. The hidden layers below the penultimate one go through one set of
    buffers that every run reuses (the grid shares config.hidden); each run
    keeps only its features, a new array.
    """
    grid = list(_runs(config))
    models = [
        load_model(_artifact(run_dir(config.output_dir, name, seed) / "model.npz"))
        for name, _, seed in grid
    ]
    if batch is None:
        batch = load_experiment_data(config.dataset, "eval")
        check_labels(batch.labels, batch.n, models[0].final.num_classes)
    widths = [w.shape[0] for w in models[0].hidden_weights]
    shared = [np.empty((batch.n, w)) for w in widths[:-1]]
    runs = []
    for (name, spec, seed), model in zip(grid, models):
        out = shared + [np.empty((batch.n, w)) for w in widths[-1:]]
        feats = penultimate_features(model, batch.features, out)
        runs.append(LoadedRun(name, spec, seed, model, batch, feats))
    return runs


def mean_stderr(values) -> tuple:
    """(mean, standard error) of values; the error is None below 2 values."""
    v = np.asarray(values, dtype=np.float64)
    mean = float(v.mean())
    if v.size < 2:
        return mean, None
    return mean, float(v.std(ddof=1) / np.sqrt(v.size))


def report_accuracy(config) -> dict:
    """Per-loss eval accuracy, mean and standard error over seeds."""
    rows = []
    for name, _ in config.losses:
        accs = []
        for seed in config.seeds:
            path = _artifact(run_dir(config.output_dir, name, seed) / "run.json")
            accs.append(json.loads(path.read_text())["eval_acc"])
        rows.append((name, *mean_stderr(accs), len(accs)))
    return {"accuracy.csv": (("loss", "mean_eval_acc", "stderr", "n_seeds"), rows)}


def _naming_run(runs, fn, *args):
    """fn(*args) for one run, or for all of runs at once. A
    DegenerateInputError keeps its type and text, prefixed by the name of
    the run that raised it: the only one, or runs[err.index]."""
    try:
        return fn(*args)
    except DegenerateInputError as err:
        run = runs[getattr(err, "index", 0)]
        raise DegenerateInputError(f"{run.name}:seed{run.seed}: {err}") from err


def report_separation(config, runs) -> dict:
    """Per loss and index, R2 mean and standard error over seeds; each run's
    three indexes come from one class_separation_r2 call."""
    r2 = [_naming_run([r], class_separation_r2, r.features, r.batch.labels,
                      SEPARATION_INDEXES) for r in runs]
    return {"separation.csv": (("loss", "index", "mean_r2", "stderr"), [
        (name, ix, *mean_stderr([v[i] for r, v in zip(runs, r2) if r.name == name]))
        for name, _ in config.losses
        for i, ix in enumerate(SEPARATION_INDEXES)
    ])}


def report_cka(config, runs) -> dict:
    M = _naming_run(runs, cka_matrix, [r.features for r in runs])
    names = _run_names(config)
    return {"cka.csv": (("name", *names),
                        [(n, *row) for n, row in zip(names, M)])}


def report_sparsity(config, runs) -> dict:
    """Fraction of active ReLU units per hidden layer on the eval split.
    The runs' hidden layers go through one set of buffers, as in load_runs."""
    n = runs[0].batch.n
    out = [np.empty((n, w.shape[0])) for w in runs[0].model.hidden_weights]
    return {"sparsity.csv": (("loss", "seed", "layer", "fraction_active"), [
        (run.name, run.seed, layer, frac)
        for run in runs
        for layer, frac in enumerate(sparsity_profile(
            forward_hidden(run.model, run.batch.features, out)[1:]))
    ])}


def report_calibration(config, runs) -> dict:
    """calibration.json (pre/post temperature) + calibration_bins.csv."""
    rows = []
    table = {}
    for name, spec in config.losses:
        fits = []
        for run in (r for r in runs if r.name == name):
            labels, scores = run.batch.labels, run.scores
            pre = ece(scores, labels, spec.kind)
            temp, post = fit_temperature(scores, labels, spec.kind)
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
            rows.extend(
                (name, run.seed, b.lower, b.upper, b.count,
                 b.accuracy, b.mean_confidence)
                for b in pre.bins
            )
        table[name] = {
            "runs": fits,
            "mean": {
                key: mean_stderr([f[key] for f in fits])[0]
                for key in ("nll", "ece", "temperature", "nll_scaled", "ece_scaled")
            },
        }
    return {
        "calibration.json": table,
        "calibration_bins.csv": (("loss", "seed", "lower", "upper", "count",
                                  "accuracy", "mean_confidence"), rows),
    }


def report_agreement(config, runs) -> dict:
    """Agreement matrix over all runs + average-linkage merge list."""
    names = _run_names(config)
    preds = [top1_predictions(r.scores) for r in runs]
    agree = agreement_matrix(preds, runs[0].batch.labels, config.agreement_variant)
    # cluster on disagreement; linkage needs two runs or more, and the
    # mutual-error variant leaves NaN for pairs with no shared mistakes
    dist = 1.0 - agree
    clusterable = len(runs) >= 2 and np.all(np.isfinite(dist))
    merges = linkage_dendrogram(dist) if clusterable else ()
    return {
        f"agreement_{config.agreement_variant}.csv": (
            ("name", *names), [(n, *row) for n, row in zip(names, agree)]),
        "linkage.csv": (("step", "id_a", "id_b", "distance"), [
            (step, int(a), int(b), d) for step, (a, b, d) in enumerate(merges)
        ]),
    }


def report_avh(config, runs) -> dict:
    return {"avh.csv": (("loss", "seed", "mean_avh"), [
        (run.name, run.seed,
         _naming_run([run], angular_visual_hardness, run.model.final,
                     run.features, run.batch.labels).mean())
        for run in runs
    ])}


def report_spectra(config, runs) -> dict:
    """Singular values of centered penultimate activations, descending."""
    return {"spectra.csv": (("loss", "seed", "rank", "sigma"), [
        (run.name, run.seed, rank, s)
        for run in runs
        for rank, s in enumerate(singular_spectrum(run.features))
    ])}


def transfer_probe(features, labels, merge: int,
                   probe_config: ProbeConfig) -> ProbeResult:
    """Probe on coarse labels, class k mod merge; the classes are those
    present. Each coarse class is split in half by stratified_split(y,
    0.5): its validation side trains the probe and the rest tests it. The
    rows and class sizes are checked here, once: the sweep runs unchecked."""
    X = check_matrix(features, "features")
    y, _ = check_labels(labels, X.shape[0])
    check_range("merge", merge, ">= 2")
    y, counts = present_classes(y % merge)
    # the half split trains on min(max(1, round(n / 2)), n - 1) of n rows: 1
    # at n = 2, 2 at n = 3; the sweep's own split needs a class with 2
    if counts.min() < 2 or counts.max() < 3:
        raise ValueError(f"transfer_merge = {merge} gives coarse classes of "
                         f"{counts.tolist()} rows; the transfer probe needs at "
                         "least 2 rows in each and 3 in one")
    te, tr = stratified_split(y, 0.5)
    return sweep_and_retrain(X[tr], y[tr], X[te], y[te], probe_config, counts.size)


def report_transfer(config, runs) -> dict:
    """Coarse-label probe accuracy per run, with whether every fit behind it
    (the lambda path and the refit) converged and its largest gradient norm."""
    rows = []
    for run in runs:
        res = transfer_probe(
            run.features, run.batch.labels, config.transfer_merge, ProbeConfig(),
        )
        converged = bool(res.converged.all()) and res.refit_converged
        # to 3 digits: the last of the 10 that %.10g writes move with BLAS
        # and summation order while probe_acc and converged hold
        max_gn = max(float(res.grad_norm.max()), res.refit_grad_norm)
        rows.append((run.name, run.seed, config.transfer_merge,
                     res.test_accuracy, int(converged), float(f"{max_gn:.3g}")))
    return {"transfer.csv": (("loss", "seed", "merge", "probe_acc", "converged",
                              "max_grad_norm"), rows)}


# analysis name (config.ANALYSES, in order) -> reporter(config, runs). Like
# report_accuracy(config), each writes nothing and returns {file name in
# reports/: table}: the object for a .json name, else (header, rows).
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


def write_reports(config, kinds=None) -> list:
    """The only writer of reports/: each kind's tables as its reporter
    returns them (default: accuracy, then the config's analyses), then
    metadata.json, the grid and every report's settings. Returns the paths
    in that order. A bad kind raises before any file is written. The runs
    load once, after accuracy, and only for an analysis; reporters are
    looked up per call, so a patched one runs."""
    kinds = ("accuracy", *config.analyses) if kinds is None else tuple(kinds)
    for kind in kinds:
        check_choice("report kind", kind, ("accuracy", *REPORTERS))
    rdir = reports_dir(config.output_dir)
    rdir.mkdir(parents=True, exist_ok=True)
    (rdir / "metadata.json").unlink(missing_ok=True)  # so a failed call leaves none
    written = []

    def write(tables):
        for name, table in tables.items():
            path = rdir / name
            if path.suffix == ".json":
                _write_json(path, table)
            else:
                _write_csv(path, *table)
            written.append(path)

    runs = None
    for kind in kinds:
        if kind == "accuracy":
            write(report_accuracy(config))
        else:
            runs = load_runs(config) if runs is None else runs
            write(REPORTERS[kind](config, runs))
    write({"metadata.json": {
        "runs": _run_names(config),
        "losses": {name: format_loss_line(spec) for name, spec in config.losses},
        "seeds": list(config.seeds),
        "analyses": list(config.analyses),
        "agreement_variant": config.agreement_variant,
        "agreement_distance": "1 - agreement, average linkage",
        "spectra_mode": "activations",
        "transfer_merge": config.transfer_merge,
        "dataset": config.dataset.record(),
    }})
    return written


def dump_activations(model_path, ds, split: str, out_path) -> int:
    """Penultimate features + labels of a saved model on one split of a
    DatasetConfig, drawn or read alone, whose labels must lie below the
    model's class count; returns the row count."""
    model = load_model(model_path)
    batch = load_experiment_data(ds, split)
    check_labels(batch.labels, batch.n, model.final.num_classes)
    feats = penultimate_features(model, batch.features)
    write_activation_dump(out_path, feats, batch.labels)
    return batch.n
