"""CLI subcommands drive the harness end to end."""

import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from losslab.calibration import ece, fit_temperature
from losslab.cli import build_parser, main
from losslab.config import load_config
from losslab.dumps import read_activation_dump
from losslab.harness import load_model, load_runs

INI = """\
[dataset]
kind = blobs
classes = 4
features = 8
per_class = 30
eval_per_class = 10
spread = 0.8
seed = 3

[model]
hidden = 16, 16

[train]
epochs = 6
batch_size = 32
peak_lr = 0.05

[experiment]
seeds = 0, 1
output = {out}
analyses = separation, cka, sparsity, calibration, agreement, avh, spectra, transfer

[losses]
plain = softmax
smooth = label_smoothing alpha=0.1
"""


def parse_json_stream(text):
    decoder = json.JSONDecoder()
    out, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        obj, end = decoder.raw_decode(text, i)
        out.append(obj)
        i = end
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    ini = root / "exp.ini"
    ini.write_text(INI.format(out=out))
    assert main(["sweep", "--config", str(ini)]) == 0
    return ini, out


def with_experiment_key(ini, tmp_path, line):
    """A copy of the INI with one more [experiment] key."""
    path = tmp_path / "variant.ini"
    path.write_text(ini.read_text().replace("output = ", line + "\noutput = "))
    return path


class TestSweepAndTrain:
    def test_sweep_trains_grid(self, workspace):
        _, out = workspace
        for name in ("plain", "smooth"):
            for seed in (0, 1):
                assert (out / "runs" / name / f"seed{seed}" / "model.npz").exists()

    def test_train_one_loss_one_seed(self, workspace, tmp_path, capsys):
        ini, _ = workspace
        other = tmp_path / "solo"
        code = main(["train", "--config", str(ini), "--out", str(other),
                     "--loss", "smooth", "--seed", "1"])
        assert code == 0
        summaries = parse_json_stream(capsys.readouterr().out)
        assert len(summaries) == 1
        assert summaries[0]["loss"] == "smooth"
        assert summaries[0]["seed"] == 1
        assert (other / "runs" / "smooth" / "seed1" / "run.json").exists()
        assert not (other / "runs" / "plain").exists()

    def test_unknown_loss_fails_cleanly(self, workspace, capsys):
        ini, _ = workspace
        assert main(["train", "--config", str(ini), "--loss", "nope"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "loss must be one of ('plain', 'smooth'), got 'nope'" in err


class TestAnalysisCommands:
    def test_analyze_writes_reports(self, workspace, capsys):
        ini, out = workspace
        assert main(["analyze", "--config", str(ini)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed, "analyze should list the report files it wrote"
        for line in printed:
            assert Path(line).exists()
        assert (out / "reports" / "accuracy.csv").exists()
        assert (out / "reports" / "separation.csv").exists()

    def test_calibrate_prints_one_run(self, workspace):
        ini, out = workspace
        assert main(["report", "--config", str(ini), "--kind", "calibration"]) == 0
        report = json.loads((out / "reports" / "calibration.json").read_text())
        (data,) = [r for r in report["plain"]["runs"] if r["seed"] == 0]
        assert data["nll_scaled"] <= data["nll"] + 1e-12
        assert data["temperature"] > 0

    def test_calibration_equals_direct_calls(self, workspace, capsys):
        # every number of both files is ece or fit_temperature on the run's
        # eval scores, bit for bit (the CSV holds each as %.10g)
        ini, out = workspace
        assert main(["report", "--config", str(ini), "--kind", "calibration"]) == 0
        capsys.readouterr()
        report = json.loads((out / "reports" / "calibration.json").read_text())
        bins = (out / "reports" / "calibration_bins.csv").read_text().splitlines()[1:]
        rows = []
        for run in load_runs(load_config(ini)):
            labels, kind = run.batch.labels, run.spec.kind
            pre = ece(run.scores, labels, kind)
            T, post = fit_temperature(run.scores, labels, kind)
            (entry,) = [r for r in report[run.name]["runs"] if r["seed"] == run.seed]
            assert entry == {"seed": run.seed, "nll": pre.nll, "ece": pre.ece,
                             "temperature": T, "nll_scaled": post.nll,
                             "ece_scaled": post.ece}
            rows.extend(
                ",".join("" if v is None else str(v) if isinstance(v, (str, int))
                         else "%.10g" % v for v in
                         (run.name, run.seed, b.lower, b.upper, b.count,
                          b.accuracy, b.mean_confidence))
                for b in pre.bins)
        assert bins == rows
        for name, entry in report.items():
            for key, mean in entry["mean"].items():
                assert mean == float(np.mean([r[key] for r in entry["runs"]])), key

    def test_report_accuracy(self, workspace, capsys):
        ini, _ = workspace
        assert main(["report", "--config", str(ini), "--kind", "accuracy"]) == 0
        path = Path(capsys.readouterr().out.strip())
        assert path.name == "accuracy.csv" and path.exists()

    def test_agreement_variant_flag(self, workspace, tmp_path, capsys):
        ini, out = workspace
        ini = with_experiment_key(ini, tmp_path,
                                  "agreement_variant = agree_on_mutual_errors")
        assert main(["report", "--config", str(ini), "--kind", "agreement"]) == 0
        capsys.readouterr()
        assert (out / "reports" / "agreement_agree_on_mutual_errors.csv").exists()
        meta = json.loads((out / "reports" / "metadata.json").read_text())
        assert meta["agreement_variant"] == "agree_on_mutual_errors"

    def test_transfer_merge_flag(self, workspace, tmp_path, capsys):
        ini, out = workspace
        ini = with_experiment_key(ini, tmp_path, "transfer_merge = 2")
        assert main(["report", "--config", str(ini), "--kind", "transfer"]) == 0
        report = out / "reports" / "transfer.csv"
        assert str(report) in capsys.readouterr().out
        body = report.read_text().splitlines()
        assert body[0] == "loss,seed,merge,probe_acc,converged,max_grad_norm"
        assert all(row.split(",")[2] == "2" for row in body[1:])
        meta = json.loads((out / "reports" / "metadata.json").read_text())
        assert meta["transfer_merge"] == 2


class TestOneRunGrid:
    def test_agreement_on_one_run_writes_header_only_linkage(self, tmp_path, capsys):
        ini = tmp_path / "one.ini"
        ini.write_text(INI.format(out=tmp_path / "out")
                       .replace("seeds = 0, 1", "seeds = 0")
                       .replace("smooth = label_smoothing alpha=0.1\n", ""))
        assert main(["sweep", "--config", str(ini)]) == 0
        assert main(["analyze", "--config", str(ini)]) == 0
        capsys.readouterr()
        reports = tmp_path / "out" / "reports"
        assert (reports / "linkage.csv").read_text() == "step,id_a,id_b,distance\n"
        assert (reports / "agreement_same_top1.csv").read_text().splitlines() == [
            "name,plain:seed0", "plain:seed0,1"]
        assert (reports / "metadata.json").exists()


class TestDumpCommand:
    def test_dump_eval_split(self, workspace, tmp_path, capsys):
        ini, out = workspace
        model = out / "runs" / "plain" / "seed0" / "model.npz"
        target = tmp_path / "feats.dump"
        assert main(["dump", "--config", str(ini), "--model", str(model),
                     "--split", "eval", "--dump-out", str(target)]) == 0
        dump = read_activation_dump(target)
        assert dump.data.shape == (40, 16)
        assert np.array_equal(np.unique(dump.labels), np.arange(4))

    def test_dump_train_split(self, workspace, tmp_path):
        ini, out = workspace
        model = out / "runs" / "plain" / "seed0" / "model.npz"
        target = tmp_path / "train.dump"
        assert main(["dump", "--config", str(ini), "--model", str(model),
                     "--split", "train", "--dump-out", str(target)]) == 0
        assert read_activation_dump(target).data.shape == (120, 16)


class TestErrorPaths:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "absent.ini")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_one(self, tmp_path, capsys, jobs):
        ini = tmp_path / "exp.ini"
        ini.write_text(INI.format(out=tmp_path / "out"))
        assert main(["sweep", "--config", str(ini), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
        assert not (tmp_path / "out" / "runs").exists()

    def test_analyze_before_sweep_names_artifact(self, tmp_path, capsys):
        ini = tmp_path / "untrained.ini"
        ini.write_text(INI.format(out=tmp_path / "out"))
        assert main(["analyze", "--config", str(ini)]) == 1
        missing = tmp_path / "out" / "runs" / "plain" / "seed0" / "run.json"
        assert f"missing artifact {missing}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "reports" / "accuracy.csv").exists()

    def test_failed_run_names_pair(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(INI.format(out=tmp_path / "out").replace(
            "plain = softmax", "plain = squared_error"
        ).replace("peak_lr = 0.05", "peak_lr = 1e6"))
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(ini), "--loss", "plain"])
        assert code == 1
        assert "loss=plain seed=0" in capsys.readouterr().err


class TestDegenerateRun:
    def test_error_names_the_run(self, workspace, tmp_path, capsys):
        # a dead last hidden layer makes every penultimate row of one run
        # zero; each analysis that cannot use it says which run it was
        ini, out = workspace
        shutil.copytree(out / "runs", tmp_path / "runs")
        path = tmp_path / "runs" / "smooth" / "seed1" / "model.npz"
        with np.load(path) as z:
            arrays = dict(z)
        arrays["hidden_b_1"] = np.full_like(arrays["hidden_b_1"], -100.0)
        np.savez(path, **arrays)
        capsys.readouterr()
        assert main(["analyze", "--config", str(ini), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: smooth:seed1: zero-norm row; cosine distance undefined\n")
        for kind, text in (("cka", "constant representation has no CKA"),
                           ("avh", "zero-norm vector; angles undefined")):
            assert main(["report", "--config", str(ini), "--out", str(tmp_path),
                         "--kind", kind]) == 1
            assert capsys.readouterr().err == f"error: smooth:seed1: {text}\n"


def csv_grid(tmp_path, classes=(4, 3)):
    """The INI grid on train.csv and eval.csv in tmp_path, trained; the
    files hold the first classes[0] and classes[1] of four classes. By
    default the eval file lacks the last class, so once the train file is
    gone the class count must come from the trained models."""
    rng = np.random.default_rng(25)
    means = rng.standard_normal((4, 8))
    for name, per, k in zip(("train.csv", "eval.csv"), (30, 10), classes):
        labels = np.repeat(np.arange(k), per)
        feats = means[labels] + 0.8 * rng.standard_normal((labels.size, 8))
        (tmp_path / name).write_text("".join(
            f"{k}," + ",".join(map(repr, row)) + "\n"
            for k, row in zip(labels, feats.tolist())))
    blobs = INI[:INI.index("[model]")]
    ini = tmp_path / "csv.ini"
    ini.write_text(INI.replace(blobs, (
        f"[dataset]\nkind = csv\npath = {tmp_path / 'train.csv'}\n"
        f"eval_path = {tmp_path / 'eval.csv'}\n\n"
    )).replace(", transfer", "").format(out=tmp_path / "out"))
    assert main(["sweep", "--config", str(ini)]) == 0
    return ini


class TestCsvData:
    def test_analyze_reads_only_the_eval_file(self, tmp_path, capsys):
        ini = csv_grid(tmp_path)
        assert main(["analyze", "--config", str(ini)]) == 0
        reports = tmp_path / "out" / "reports"
        # metadata.json names the csv task by what it reads, no blobs defaults
        meta = json.loads((reports / "metadata.json").read_text())
        assert meta["dataset"] == {"kind": "csv", "path": str(tmp_path / "train.csv"),
                                   "eval_path": str(tmp_path / "eval.csv")}
        before = {p.name: p.read_bytes() for p in reports.iterdir()}
        shutil.rmtree(reports)
        (tmp_path / "train.csv").unlink()
        capsys.readouterr()
        assert main(["analyze", "--config", str(ini)]) == 0, capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == before

    def test_dump_eval_reads_only_the_eval_file(self, tmp_path, capsys):
        ini = csv_grid(tmp_path)
        model = tmp_path / "out" / "runs" / "plain" / "seed0" / "model.npz"
        target = tmp_path / "eval.dump"
        argv = ["dump", "--config", str(ini), "--model", str(model),
                "--split", "eval", "--dump-out", str(target)]
        assert main(argv) == 0
        before = target.read_bytes()
        target.unlink()
        (tmp_path / "train.csv").unlink()
        capsys.readouterr()
        assert main(argv) == 0, capsys.readouterr().err
        assert target.read_bytes() == before
        assert read_activation_dump(target).data.shape == (30, 16)

    def test_model_takes_the_larger_class_count(self, tmp_path):
        # run_single picks K once, from both splits: here the train file
        # lacks the top class that the eval file has
        csv_grid(tmp_path, classes=(3, 4))
        for name in ("plain", "smooth"):
            path = tmp_path / "out" / "runs" / name / "seed0" / "model.npz"
            assert load_model(path).num_classes == 4

    def test_eval_label_past_the_trained_head_rejected(self, tmp_path, capsys):
        # the heads have K = 4; an eval row labeled 4 is refused by
        # load_runs (analyze) and dump_activations (dump) alike
        ini = csv_grid(tmp_path)
        eval_csv = tmp_path / "eval.csv"
        eval_csv.write_text(eval_csv.read_text() + "4," + ",".join(["0.5"] * 8) + "\n")
        text = "labels must be < 4 (the class count), got 4"
        with pytest.raises(ValueError, match=re.escape(text)):
            load_runs(load_config(ini))
        capsys.readouterr()
        assert main(["analyze", "--config", str(ini)]) == 1
        assert capsys.readouterr().err == f"error: {text}\n"
        target = tmp_path / "eval.dump"
        model = tmp_path / "out" / "runs" / "plain" / "seed0" / "model.npz"
        assert main(["dump", "--config", str(ini), "--model", str(model),
                     "--split", "eval", "--dump-out", str(target)]) == 1
        assert capsys.readouterr().err == f"error: {text}\n"
        assert not target.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """argv of every ``losslab ...`` line in README, with backslash
    continuations joined and trailing comments dropped."""
    text = README.read_text().replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[1:]
        for line in text.splitlines()
        if line.startswith("losslab ")
    ]


class TestReadme:
    def test_documented_commands_parse(self, capsys):
        commands = readme_commands()
        assert commands
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README line does not parse: losslab {shlex.join(argv)}"
                            f"\n{capsys.readouterr().err}")

    def test_documents_exactly_the_subcommands(self):
        documented = {argv[0] for argv in readme_commands()}
        assert documented == {"train", "sweep", "dump", "analyze", "report"}
        assert "{train,sweep,dump,analyze,report}" in build_parser().format_help()
