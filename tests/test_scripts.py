"""The experiment scripts: their rank correlation and their arguments.

The experiments themselves are stubbed out, so these run in milliseconds;
the real experiments are the acceptance gate's business. The benchmark's
tracer is checked here too, for the program names it patches.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from losslab.cli import main as losslab_main
from losslab.config import ANALYSES
from losslab.repr_analysis import SEPARATION_INDEXES

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_temperature_script_runs_without_scipy(monkeypatch):
    # scipy is a test-only dependency: the script must import without it
    for name in ("scipy", "scipy.stats"):
        monkeypatch.setitem(sys.modules, name, None)
    load_script("run_temperature_tradeoff")


def test_spearman_matches_scipy_with_ties():
    mod = load_script("run_temperature_tradeoff")
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.integers(0, 4, n).astype(float)  # ties on purpose
        b = np.round(rng.standard_normal(n), 1)
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            continue
        assert mod.spearman(a, b) == pytest.approx(spearmanr(a, b).statistic,
                                                    abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_spearman_of_a_perfect_ordering_is_exact(n):
    # Pearson's r of float ranks reads +-0.9999999999999999 at these n
    mod = load_script("run_temperature_tradeoff")
    x = np.linspace(0.01, 0.1, n)
    assert mod.spearman(x, x ** 2) == 1.0
    assert mod.spearman(x, -x) == -1.0


def test_temperature_script_passes_on_five_ordered_temperatures(monkeypatch,
                                                                capsys):
    mod = load_script("run_temperature_tradeoff")
    taus = (0.01, 0.03, 0.05, 0.08, 0.1)
    monkeypatch.setattr(mod, "temperature_experiment", lambda seeds, merge: {
        t: {"r2": np.full(len(seeds), 0.5 + i / 10),
            "transfer": np.full(len(seeds), 0.9 - i / 10)}
        for i, t in enumerate(taus)
    })
    assert mod.main(["--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "spearman(tau, R2) = +1.00" in out
    assert "spearman(tau, transfer) = -1.00" in out


def test_temperature_script_exit_code(monkeypatch, capsys):
    mod = load_script("run_temperature_tradeoff")
    taus = (0.01, 0.03, 0.05, 0.08)

    def fake(seeds, merge):
        return {t: {"r2": np.full(len(seeds), i + 1.0),
                    "transfer": np.full(len(seeds), 10.0 - i)}
                for i, t in enumerate(taus)}

    monkeypatch.setattr(mod, "temperature_experiment", fake)
    assert mod.main(["--seeds", "2"]) == 0
    assert "spearman(tau, transfer) = -1.00" in capsys.readouterr().out


def test_class_separation_offers_every_index(monkeypatch, capsys):
    mod = load_script("run_class_separation")
    seen = []

    def fake(seeds, index):
        seen.append(index)
        return {name: np.array([0.1 * i, 0.1 * i + 0.01])
                for i, name in enumerate(mod.ORDER)}

    monkeypatch.setattr(mod, "separation_experiment", fake)
    for index in SEPARATION_INDEXES:
        assert mod.main(["--index", index, "--seeds", "2"]) == 0
    assert seen == list(SEPARATION_INDEXES)
    with pytest.raises(SystemExit):
        mod.main(["--index", "centroid"])
    capsys.readouterr()


def test_class_separation_cannot_judge_one_seed(monkeypatch, capsys):
    # one seed has no standard error, so no gap is certified, however wide
    mod = load_script("run_class_separation")
    monkeypatch.setattr(mod, "separation_experiment", lambda seeds, index: {
        name: np.array([0.2 * i]) for i, name in enumerate(mod.ORDER)
    })
    assert mod.main(["--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "pooled_se" not in out and " ok" not in out
    assert out.count("CANNOT BE JUDGED") == len(mod.ORDER) - 1
    assert out.splitlines()[1].split() == ["softmax", "0.0000", "-", "0.0000"]


# average-linkage merges of three seeds each of losses a and b, as rows
# (cluster, cluster, height); the second "mixed" merge joins b:seed0 to
# the pair a:seed0, a:seed1
AGREEMENT_MERGES = {
    "within": [[0, 1, 0.1], [3, 4, 0.2], [2, 6, 0.3], [5, 7, 0.4], [8, 9, 0.9]],
    "mixed": [[0, 1, 0.1], [3, 6, 0.2], [2, 7, 0.3], [4, 8, 0.4], [5, 9, 0.9]],
}


@pytest.mark.parametrize("shown", ["1", "4"])
@pytest.mark.parametrize("merges, code", [("within", 0), ("mixed", 1)])
def test_agreement_script_judges_the_first_three_merges(monkeypatch, capsys,
                                                        merges, code, shown):
    # the first three merges must each join one loss's runs, however many
    # of them --merges prints
    mod = load_script("run_agreement_clustering")
    monkeypatch.setattr(mod, "agreement_experiment", lambda seeds, variant: {
        "names": [f"{loss}:seed{s}" for loss in "ab" for s in range(3)],
        "loss_of": ["a"] * 3 + ["b"] * 3,
        "within_mean": 0.9,
        "cross_mean": 0.5,
        "merges": np.array(AGREEMENT_MERGES[merges]),
    })
    assert mod.main(["--merges", shown]) == code
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("merge ")]
    assert len(printed) == int(shown)
    assert printed[0].endswith("[a:seed0, a:seed1] within-loss")


def test_script_csv_ends_lines_in_bare_line_feeds(monkeypatch, tmp_path, capsys):
    # --out goes through the harness's one CSV writer, like every artifact
    sep = load_script("run_class_separation")
    monkeypatch.setattr(sep, "separation_experiment", lambda seeds, index: {
        name: np.array([0.1 * i, 0.1 * i + 0.01]) for i, name in enumerate(sep.ORDER)
    })
    temp = load_script("run_temperature_tradeoff")
    monkeypatch.setattr(temp, "temperature_experiment", lambda seeds, merge: {
        t: {"r2": np.full(len(seeds), i + 1.0),
            "transfer": np.full(len(seeds), 0.5 - i / 8)}
        for i, t in enumerate((0.01, 0.03, 0.05))
    })
    sep_csv, temp_csv = tmp_path / "r2.csv", tmp_path / "sweep.csv"
    assert sep.main(["--seeds", "2", "--out", str(sep_csv)]) == 0
    assert temp.main(["--seeds", "2", "--out", str(temp_csv)]) == 0
    capsys.readouterr()
    sep_text = sep_csv.read_bytes().decode()
    temp_text = temp_csv.read_bytes().decode()
    assert "\r" not in sep_text and "\r" not in temp_text
    assert sep_text.splitlines()[:3] == ["loss,seed,r2", "softmax,0,0", "softmax,1,0.01"]
    assert temp_text.splitlines() == [
        "tau,seed,r2,transfer", "0.01,0,1,0.5", "0.01,1,1,0.5",
        "0.03,0,2,0.375", "0.03,1,2,0.375", "0.05,0,3,0.25", "0.05,1,3,0.25",
    ]


def test_tracer_finds_every_patch_point(tmp_path):
    # install() looks up each traced function before the CLI parses its
    # arguments, so a renamed or deleted one fails even a --help run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
         str(tmp_path / "t.json"), "--help"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


TRACE_INI = """\
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
seeds = 0
output = {out}

[losses]
plain = softmax
"""


def test_tracer_spans_every_step(tmp_path):
    # a span count of zero would read as a layer that costs nothing: every
    # patch point must still be on the path that train() takes
    ini = tmp_path / "exp.ini"
    ini.write_text(TRACE_INI.format(out=tmp_path / "out"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace),
         "train", "--config", str(ini)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = [span[2] for span in json.loads(trace.read_text())["spans"]]
    steps = names.count("training.loss_and_grads")
    assert steps == 6 * 4  # 6 epochs of ceil(120 / 32) batches
    assert names.count("losses.compose_loss") == steps
    assert names.count("mlp.forward_hidden") == steps
    assert names.count("training.epoch_log") == 6


def test_tracer_spans_every_report(tmp_path):
    # the benchmark's per-layer report metrics are the spans of this path:
    # one per reporter, and one probe sweep per run inside transfer
    ini = tmp_path / "exp.ini"
    # all eight analyses, and a second run for the agreement linkage
    text = TRACE_INI.replace(
        "output = {out}\n", "output = {out}\nanalyses = " + ", ".join(ANALYSES) + "\n"
    ).format(out=tmp_path / "out")
    ini.write_text(text + "cos = cosine_softmax temperature=0.05\n")
    assert losslab_main(["sweep", "--config", str(ini)]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace),
         "analyze", "--config", str(ini)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = [span[2] for span in json.loads(trace.read_text())["spans"]]
    for kind in ("accuracy",) + ANALYSES:
        assert names.count(f"harness.report_{kind}") == 1, kind
    assert names.count("probe.sweep_and_retrain") == 2


def test_tracer_spans_the_analysis_layers(tmp_path):
    # the benchmark's per-layer analysis metrics are spans inside three
    # reporters: a count of zero would read as a layer that costs nothing
    ini = tmp_path / "exp.ini"
    cheap = [kind for kind in ANALYSES if kind != "transfer"]
    text = TRACE_INI.replace(
        "seeds = 0\n", "seeds = 0, 1\n"
    ).replace(
        "output = {out}\n", "output = {out}\nanalyses = " + ", ".join(cheap) + "\n"
    ).format(out=tmp_path / "out")
    ini.write_text(text + "cos = cosine_softmax temperature=0.05\n")
    assert losslab_main(["sweep", "--config", str(ini)]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace),
         "analyze", "--config", str(ini)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = [span[2] for span in json.loads(trace.read_text())["spans"]]
    runs = 4
    # report_separation computes a run's three indexes in one call
    assert names.count("repr_analysis.class_separation_r2") == runs
    assert names.count("calibration.fit_temperature") == runs
    assert names.count("agreement.agreement_matrix") == 1
    # report_cka computes every pair in one cka_matrix call, which the
    # tracer does not patch, so the linear_cka span no longer occurs
    assert names.count("repr_analysis.linear_cka") == 0
