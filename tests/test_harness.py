"""End-to-end experiment harness: artifacts, reports, determinism."""

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from losslab import harness
from losslab.config import ANALYSES, DatasetConfig, ExperimentConfig
from losslab.dumps import read_activation_dump
from losslab.harness import (
    LoadedRun,
    RunFailure,
    load_model,
    load_runs,
    report_separation,
    run_all,
    run_dir,
    save_model,
    train_runs,
    write_predictions_csv,
    write_reports,
)
from losslab.data import Batch
from losslab.losses import DegenerateInputError, LossSpec
from losslab.mlp import init_mlp
from losslab.probe import ProbeConfig
from losslab.training import TrainConfig

RUN_FILES = (
    "model.npz",
    "train_log.csv",
    "penultimate.dump",
    "eval_scores.dump",
    "predictions.csv",
    "run.json",
)


def tiny_config(output_dir) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(
            kind="blobs", classes=4, features=8, per_class=30,
            eval_per_class=10, spread=0.8, seed=3,
        ),
        hidden=(16, 16),
        train=TrainConfig(epochs=6, batch_size=32, peak_lr=0.05),
        seeds=(0, 1),
        losses=(
            ("plain", LossSpec("softmax")),
            ("smooth", LossSpec("label_smoothing", alpha=0.1)),
        ),
        analyses=ANALYSES,
        output_dir=str(output_dir),
    )


def read_predictions(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return (np.array([int(r["predicted_class"]) for r in rows]),
            np.array([float(r["confidence"]) for r in rows]))


def tree_digest(root) -> dict:
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest = hashlib.md5(path.read_bytes()).hexdigest()
            out[str(path.relative_to(root))] = digest
    return out


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    config = tiny_config(out)
    summaries = run_all(config)
    return config, {"runs": summaries, "reports": write_reports(config)}


class TestRunArtifacts:
    def test_every_run_dir_complete(self, experiment):
        config, _ = experiment
        for name in ("plain", "smooth"):
            for seed in (0, 1):
                d = run_dir(config.output_dir, name, seed)
                for fname in RUN_FILES:
                    assert (d / fname).exists(), f"{name}/seed{seed}/{fname}"

    def test_summaries_cover_grid(self, experiment):
        _, result = experiment
        got = {(s["loss"], s["seed"]) for s in result["runs"]}
        assert got == {("plain", 0), ("plain", 1), ("smooth", 0), ("smooth", 1)}

    def test_run_json_reports_eval_acc(self, experiment):
        config, result = experiment
        summary = result["runs"][0]
        path = run_dir(config.output_dir, summary["loss"], summary["seed"])
        on_disk = json.loads((path / "run.json").read_text())
        assert on_disk["eval_acc"] == summary["eval_acc"]
        assert 0.0 <= on_disk["eval_acc"] <= 1.0

    def test_dump_round_trip(self, experiment):
        config, _ = experiment
        d = run_dir(config.output_dir, "plain", 0)
        dump = read_activation_dump(d / "penultimate.dump")
        assert dump.data.shape == (4 * 10, 16)
        assert dump.labels.shape == (40,)
        scores = read_activation_dump(d / "eval_scores.dump")
        assert scores.data.shape == (40, 4)

    def test_missing_dump_names_artifact(self, experiment):
        config, _ = experiment
        missing = run_dir(config.output_dir, "plain", 7) / "model.npz"
        with pytest.raises(FileNotFoundError, match="run training first") as err:
            load_runs(replace(config, seeds=(7,)))
        assert str(missing) in str(err.value)

    def test_predictions_csv_layout(self, experiment):
        config, _ = experiment
        path = run_dir(config.output_dir, "plain", 0) / "predictions.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "example_id,predicted_class,confidence"
        assert len(lines) == 1 + 40
        pred, conf = read_predictions(path)
        assert pred.shape == conf.shape == (40,)
        assert np.all((conf > 0) & (conf <= 1))


class TestReports:
    def test_report_files_exist(self, experiment):
        config, result = experiment
        reports = Path(config.output_dir) / "reports"
        expected = {
            "accuracy.csv", "separation.csv", "cka.csv", "sparsity.csv",
            "calibration.json", "calibration_bins.csv",
            "agreement_same_top1.csv", "linkage.csv", "avh.csv",
            "spectra.csv", "transfer.csv", "metadata.json",
        }
        assert {p.name for p in reports.iterdir()} == expected
        assert set(map(str, result["reports"])) >= {
            str(reports / "accuracy.csv")
        }

    def test_accuracy_report_matches_runs(self, experiment):
        config, result = experiment
        with open(Path(config.output_dir) / "reports" / "accuracy.csv") as fh:
            rows = list(csv.DictReader(fh))
        by_loss = {r["loss"]: r for r in rows}
        assert set(by_loss) == {"plain", "smooth"}
        accs = [s["eval_acc"] for s in result["runs"] if s["loss"] == "plain"]
        assert float(by_loss["plain"]["mean_eval_acc"]) == pytest.approx(
            np.mean(accs)
        )
        expected_se = np.std(accs, ddof=1) / np.sqrt(len(accs))
        assert float(by_loss["plain"]["stderr"]) == pytest.approx(expected_se)
        assert by_loss["plain"]["n_seeds"] == "2"

    def test_agreement_matrix_square(self, experiment):
        config, _ = experiment
        path = Path(config.output_dir) / "reports" / "agreement_same_top1.csv"
        rows = path.read_text().splitlines()
        names = rows[0].split(",")[1:]
        assert names == [
            "plain:seed0", "plain:seed1", "smooth:seed0", "smooth:seed1",
        ]
        assert len(rows) == 1 + 4
        mat = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]])
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 1.0)

    def test_linkage_covers_all_runs(self, experiment):
        config, _ = experiment
        path = Path(config.output_dir) / "reports" / "linkage.csv"
        rows = path.read_text().splitlines()
        assert rows[0] == "step,id_a,id_b,distance"
        assert len(rows) == 1 + 3  # n - 1 merges for n = 4 runs

    def test_calibration_json_structure(self, experiment):
        config, _ = experiment
        path = Path(config.output_dir) / "reports" / "calibration.json"
        data = json.loads(path.read_text())
        assert set(data) == {"plain", "smooth"}
        run = data["plain"]["runs"][0]
        assert set(run) >= {
            "seed", "nll", "ece", "temperature", "nll_scaled", "ece_scaled",
        }
        assert run["nll_scaled"] <= run["nll"] + 1e-12

    def test_transfer_report_records_convergence(self, experiment):
        config, _ = experiment
        with open(Path(config.output_dir) / "reports" / "transfer.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["loss"], r["seed"]) for r in rows] == [
            ("plain", "0"), ("plain", "1"), ("smooth", "0"), ("smooth", "1"),
        ]
        for r in rows:
            assert r["converged"] == "1"
            assert 0.0 <= float(r["max_grad_norm"]) <= ProbeConfig().tolerance

    def test_transfer_grad_norm_written_to_3_digits(self, experiment):
        # the digits past the third move with BLAS and summation order
        config, _ = experiment
        with open(Path(config.output_dir) / "reports" / "transfer.csv") as fh:
            cells = [r["max_grad_norm"] for r in csv.DictReader(fh)]
        assert len(cells) == 4
        for cell in cells:
            mantissa = cell.lower().split("e")[0]
            assert len(mantissa.replace(".", "").strip("0")) <= 3, cell
            assert 0.0 <= float(cell) <= ProbeConfig().tolerance

    def test_metadata_lists_grid(self, experiment):
        config, _ = experiment
        path = Path(config.output_dir) / "reports" / "metadata.json"
        meta = json.loads(path.read_text())
        assert meta["seeds"] == [0, 1]
        assert meta["losses"]["plain"] == "softmax"
        assert meta["transfer_merge"] == 5
        # the kind and the fields it reads, not the csv paths' nulls
        assert meta["dataset"] == dict(kind="blobs", classes=4, features=8, per_class=30,
                                       eval_per_class=10, spread=0.8, seed=3)


RUN_NAMES = "plain:seed0,plain:seed1,smooth:seed0,smooth:seed1"
CSV_HEADERS = {
    "train_log.csv": "epoch,lr,train_loss,train_acc,holdout_acc",
    "predictions.csv": "example_id,predicted_class,confidence",
    "accuracy.csv": "loss,mean_eval_acc,stderr,n_seeds",
    "separation.csv": "loss,index,mean_r2,stderr",
    "cka.csv": "name," + RUN_NAMES,
    "sparsity.csv": "loss,seed,layer,fraction_active",
    "calibration_bins.csv":
        "loss,seed,lower,upper,count,accuracy,mean_confidence",
    "agreement_same_top1.csv": "name," + RUN_NAMES,
    "linkage.csv": "step,id_a,id_b,distance",
    "avh.csv": "loss,seed,mean_avh",
    "spectra.csv": "loss,seed,rank,sigma",
    "transfer.csv": "loss,seed,merge,probe_acc,converged,max_grad_norm",
}


def is_float_cell(cell) -> bool:
    try:
        int(cell)
    except ValueError:
        try:
            float(cell)
        except ValueError:
            return False
        return True
    return False


class TestCsvFormat:
    def test_every_csv_has_header_newlines_and_float_format(self, experiment):
        config, _ = experiment
        paths = sorted(Path(config.output_dir).rglob("*.csv"))
        assert {p.name for p in paths} == set(CSV_HEADERS)
        assert len(paths) == 4 * 2 + len(CSV_HEADERS) - 2
        floats = 0
        for path in paths:
            raw = path.read_bytes()
            assert b"\r" not in raw, path
            text = raw.decode()
            assert text.startswith(CSV_HEADERS[path.name] + "\n"), path
            for line in text.splitlines()[1:]:
                for cell in line.split(","):
                    if is_float_cell(cell):
                        assert cell == "%.10g" % float(cell), (path, cell)
                        floats += 1
        assert floats > 0

    def test_failed_reporter_writes_no_file(self, tmp_path):
        config = replace(tiny_config(tmp_path),
                         losses=(("plain", LossSpec("softmax")),), seeds=(0,))
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(4), 10)
        features = rng.standard_normal((40, 16))
        features[3] = 0.0
        run = LoadedRun("plain", LossSpec("softmax"), 0, None,
                        Batch(features, labels), features)
        reports = tmp_path / "reports"
        reports.mkdir()
        with pytest.raises(DegenerateInputError):
            report_separation(config, [run])
        assert not (reports / "separation.csv").exists()


class TestPureReporters:
    def test_reporters_compute_and_write_reports_writes(self, experiment,
                                                         tmp_path):
        # every reporter returns its tables and writes nothing; write_reports
        # of one kind then writes the bytes the full analyze wrote
        config, _ = experiment
        assert tuple(harness.REPORTERS) == ANALYSES
        shutil.copytree(Path(config.output_dir) / "runs", tmp_path / "runs")
        copy = replace(config, output_dir=str(tmp_path))
        before = tree_digest(tmp_path)
        runs = load_runs(copy)
        tables = {"accuracy": harness.report_accuracy(copy)}
        for kind, reporter in harness.REPORTERS.items():
            tables[kind] = reporter(copy, runs)
        assert tree_digest(tmp_path) == before
        assert not (tmp_path / "reports").exists()
        expected = Path(config.output_dir) / "reports"
        for kind, kind_tables in tables.items():
            written = write_reports(copy, (kind,))
            names = [*kind_tables, "metadata.json"]
            assert written == [tmp_path / "reports" / n for n in names]
            for path in written:
                assert path.read_bytes() == (expected / path.name).read_bytes()
        assert tree_digest(tmp_path / "reports") == tree_digest(expected)

    def test_bad_kind_writes_nothing(self, experiment, tmp_path):
        # every kind is checked before the first report is written
        config, _ = experiment
        shutil.copytree(Path(config.output_dir) / "runs", tmp_path / "runs")
        copy = replace(config, output_dir=str(tmp_path))
        before = tree_digest(tmp_path)
        kinds = ("accuracy", *ANALYSES)
        with pytest.raises(ValueError, match=re.escape(
                f"report kind must be one of {kinds}, got 'bogus'")):
            write_reports(copy, ("accuracy", "separation", "bogus"))
        assert tree_digest(tmp_path) == before
        assert not (tmp_path / "reports").exists()


class TestFeaturePath:
    def test_reports_need_no_dumps(self, experiment, tmp_path):
        # reports are views over model.npz and run.json: without the dumps
        # the same eight analyses write the same bytes
        config, _ = experiment
        shutil.copytree(Path(config.output_dir) / "runs", tmp_path / "runs")
        dumps = sorted((tmp_path / "runs").rglob("*.dump"))
        assert len(dumps) == 4 * 2
        for path in dumps:
            path.unlink()
        write_reports(replace(config, output_dir=str(tmp_path)))
        assert tree_digest(tmp_path / "reports") == tree_digest(
            Path(config.output_dir) / "reports"
        )

    def test_dumps_are_faithful_exports(self, experiment, tmp_path):
        # the loader recomputes exactly what run_single dumped, also for a
        # dropout head, a cosine head and an EMA shadow
        config, _ = experiment
        base = replace(tiny_config(tmp_path), seeds=(0,))
        kinds = replace(base, output_dir=str(tmp_path / "kinds"), losses=(
            ("drop", LossSpec("dropout", keep_prob=0.7)),
            ("cos", LossSpec("cosine_softmax", temperature=0.05)),
        ))
        ema = replace(base, output_dir=str(tmp_path / "ema"),
                      losses=(("ema", LossSpec("softmax")),),
                      train=replace(base.train, ema_momentum=0.9))
        run_all(kinds)
        run_all(ema)
        checked = 0
        for c in (config, kinds, ema):
            for run in load_runs(c):
                d = run_dir(c.output_dir, run.name, run.seed)
                feats = read_activation_dump(d / "penultimate.dump")
                scores = read_activation_dump(d / "eval_scores.dump")
                assert np.array_equal(run.features, feats.data)
                assert np.array_equal(run.scores, scores.data)
                assert np.array_equal(run.batch.labels, feats.labels)
                checked += 1
        assert checked == 4 + 2 + 1


class TestDeterminism:
    def test_rerun_is_byte_identical(self, experiment, tmp_path):
        config, _ = experiment
        other = tiny_config(tmp_path / "again")
        run_all(other)
        write_reports(other)
        first = tree_digest(config.output_dir)
        second = tree_digest(other.output_dir)
        assert first == second


    def test_pool_matches_serial(self, tmp_path):
        # workers run with one BLAS thread, the parent with the default;
        # the artifacts must not depend on it
        serial = tiny_config(tmp_path / "serial")
        pooled = tiny_config(tmp_path / "pooled")
        assert run_all(pooled, jobs=2) == run_all(serial, jobs=1)
        first = tree_digest(serial.output_dir)
        assert len(first) == 4 * len(RUN_FILES)
        assert tree_digest(pooled.output_dir) == first

    def test_pool_of_two_configs_matches_serial(self, tmp_path):
        # one call over two configs that differ only in train and share an
        # output directory: every run must train under its own config
        def train(out, jobs):
            base = tiny_config(out)
            configs = {
                "fast": base,
                "slow": replace(base, train=replace(base.train, peak_lr=0.02)),
            }
            runs = [
                (config, name, LossSpec("softmax"), seed)
                for name, config in configs.items()
                for seed in config.seeds
            ]
            return train_runs(runs, jobs)

        serial = train(tmp_path / "serial", 1)
        assert train(tmp_path / "pooled", 2) == serial
        first = tree_digest(tmp_path / "serial")
        assert len(first) == 4 * len(RUN_FILES)
        assert tree_digest(tmp_path / "pooled") == first
        logs = [
            (run_dir(tmp_path / "serial", name, 0) / "train_log.csv").read_bytes()
            for name in ("fast", "slow")
        ]
        assert logs[0] != logs[1]


class TestFailurePropagation:
    def test_divergence_names_loss_and_seed(self, tmp_path):
        # squared error has gradients linear in the logits, so a silly lr
        # genuinely explodes (softmax would just saturate)
        config = tiny_config(tmp_path)
        boom = ExperimentConfig(
            dataset=config.dataset, hidden=config.hidden,
            train=replace(config.train, peak_lr=1e6),
            seeds=(0,), losses=(("boom", LossSpec("squared_error")),),
            analyses=(), output_dir=str(tmp_path / "boom"),
        )
        with pytest.raises(RunFailure, match="loss=boom seed=0"):
            with np.errstate(all="ignore"):
                run_all(boom)

    def test_bad_data_path_names_loss_and_seed(self, tmp_path):
        config = tiny_config(tmp_path)
        bad = ExperimentConfig(
            dataset=DatasetConfig(
                kind="csv", path=str(tmp_path / "no.csv"),
                eval_path=str(tmp_path / "no_eval.csv"),
            ),
            hidden=config.hidden, train=config.train,
            seeds=(4,), losses=(("lost", LossSpec("softmax")),),
            analyses=(), output_dir=str(tmp_path / "lost"),
        )
        with pytest.raises(RunFailure, match="loss=lost seed=4"):
            run_all(bad)
        with pytest.raises(RunFailure, match="loss=lost seed=4"):
            run_all(bad, jobs=2)


def transfer_probe_rows(monkeypatch, labels, merge):
    """(train rows, train labels, test rows, test labels) that
    transfer_probe hands to the probe sweep; row i's one feature is i."""
    seen = []
    monkeypatch.setattr(harness, "sweep_and_retrain",
                        lambda *args: seen.append(args[:4]))
    rows = np.arange(len(labels), dtype=np.float64)[:, None]
    harness.transfer_probe(rows, labels, merge, ProbeConfig())
    (X_tr, y_tr, X_te, y_te), = seen
    return X_tr[:, 0].astype(np.int64), y_tr, X_te[:, 0].astype(np.int64), y_te


def half_split_reference(y):
    """transfer_probe's former own split: default_rng(0), one permutation
    per coarse class in ascending class order, and the first n // 2 rows of
    each class to probe-train, the rest to probe-test."""
    rng = np.random.default_rng(0)
    tr, te = [], []
    for k in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == k))
        tr.append(idx[:idx.size // 2])
        te.append(idx[idx.size // 2:])
    return np.sort(np.concatenate(tr)), np.sort(np.concatenate(te))


def coarse_task(sizes, merge, seed):
    """Fine labels, shuffled, whose coarse class k (label mod merge) has
    sizes[k] rows."""
    rng = np.random.default_rng(seed)
    coarse = np.repeat(np.arange(len(sizes)), sizes)
    fine = coarse + merge * rng.integers(0, 3, coarse.size)
    return rng.permutation(fine)


class TestTransferSplit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_rows_as_half_split(self, monkeypatch, seed):
        # stratified_split at 0.5 keeps round(n / 2) = n // 2 rows unless
        # n = 3 (mod 4), and none of these sizes is
        labels = coarse_task((2, 4, 5, 6, 8, 9), 6, seed)
        tr, y_tr, te, y_te = transfer_probe_rows(monkeypatch, labels, 6)
        ref_tr, ref_te = half_split_reference(labels % 6)
        np.testing.assert_array_equal(tr, ref_tr)
        np.testing.assert_array_equal(te, ref_te)
        np.testing.assert_array_equal(y_tr, labels[tr] % 6)
        np.testing.assert_array_equal(y_te, labels[te] % 6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_odd_sizes_3_mod_4_train_on_the_larger_half(self, monkeypatch, seed):
        # round(1.5) = 2 and round(3.5) = 4 go to the even neighbour: the
        # half split's n // 2 rows, plus the next row of the same permutation
        labels = coarse_task((3, 7), 2, seed)
        tr, y_tr, te, y_te = transfer_probe_rows(monkeypatch, labels, 2)
        np.testing.assert_array_equal(np.bincount(y_tr), [2, 4])
        np.testing.assert_array_equal(np.bincount(y_te), [1, 3])
        ref_tr, _ = half_split_reference(labels % 2)
        assert set(ref_tr) < set(tr)
        np.testing.assert_array_equal(np.sort(np.concatenate([tr, te])),
                                      np.arange(labels.size))

    def test_one_row_per_coarse_class_rejected(self):
        # every coarse class holds one row: no half split exists
        with pytest.raises(ValueError, match="a class with at least 2 rows"):
            harness.transfer_probe(np.eye(4), [0, 1, 2, 3], 4, ProbeConfig())


class TestSmallHelpers:
    def test_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        model = init_mlp(5, (4, 3), 2, rng)
        save_model(model, tmp_path / "m.npz")
        again = load_model(tmp_path / "m.npz")
        for a, b in zip(model.hidden_weights, again.hidden_weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(model.hidden_biases, again.hidden_biases):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.final.weights, again.final.weights)
        np.testing.assert_array_equal(model.final.bias, again.final.bias)

    def test_predictions_round_trip(self, tmp_path):
        pred = np.array([0, 2, 1], dtype=np.int64)
        conf = np.array([0.5, 0.75, 1.0])
        write_predictions_csv(tmp_path / "p.csv", pred, conf)
        p2, c2 = read_predictions(tmp_path / "p.csv")
        np.testing.assert_array_equal(pred, p2)
        np.testing.assert_allclose(conf, c2)

    def test_merge_labels_wraps(self, monkeypatch):
        # transfer_probe relabels class k as k mod merge
        y = np.arange(40) % 10
        tr, y_tr, te, y_te = transfer_probe_rows(monkeypatch, y, 5)
        np.testing.assert_array_equal(y_tr, y[tr] % 5)
        np.testing.assert_array_equal(y_te, y[te] % 5)
        assert set(y_tr) == set(y_te) == {0, 1, 2, 3, 4}

    def test_mean_stderr_single_run(self):
        mean, se = harness.mean_stderr([0.5])
        assert mean == 0.5 and se is None

    def test_mean_stderr_hand_checked(self):
        mean, se = harness.mean_stderr([0.4, 0.6])
        assert mean == pytest.approx(0.5)
        # sample std of {0.4, 0.6} is 0.1414..., over sqrt(2)
        assert se == pytest.approx(0.1)

    def test_run_failure_message(self):
        err = RunFailure("plain", 3, ValueError("exploded"))
        assert "loss=plain seed=3" in str(err)
        assert "exploded" in str(err)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset,expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
])
def test_import_sets_one_blas_thread_unless_set(preset, expected):
    # a fresh interpreter, as the CLI and every spawned --jobs worker start
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset)
    src = str(Path(harness.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src
    code = ("import os, losslab; "
            f"print(' '.join(os.environ[v] for v in {BLAS_THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == expected


def test_no_pool_without_jobs(experiment, tmp_path):
    # only train_runs with jobs > 1 imports the pool modules; analyze, in a
    # fresh interpreter as the CLI starts, loads neither, nor numpy.ma
    # (np.unique imports it; the transfer probe lists classes without it)
    from test_cli import INI

    config, _ = experiment
    shutil.copytree(Path(config.output_dir) / "runs", tmp_path / "runs")
    ini = tmp_path / "exp.ini"
    ini.write_text(INI.format(out=tmp_path))
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    code = ("import sys; from losslab import cli; "
            f"code = cli.main(['analyze', '--config', {str(ini)!r}]); "
            "print(code, *(m in sys.modules for m in "
            "('multiprocessing', 'concurrent.futures', 'numpy.ma')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 False False False"
    assert (tmp_path / "reports" / "transfer.csv").exists()
