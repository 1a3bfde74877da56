"""Each benchmark check passes on a real artifact tree and fails on a
deliberately corrupted copy of it.

    python3 -m pytest perfbench -q

The tree comes from the losslab CLI in src/ on a tiny grid (a few seconds).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run

GRID = dict(
    dataset=dict(kind="blobs", classes=4, features=8, per_class=60,
                 eval_per_class=15, spread=1.0, seed=5),
    hidden="16, 16", epochs=15, seeds=(0, 1),
    losses=(run.OBJECTIVES[0], run.OBJECTIVES[6], run.OBJECTIVES[7]),
    analyses=run.CHEAP_ANALYSES,
)


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    work = tmp_path_factory.mktemp("grid")
    (work / "grid.ini").write_text(run.ini_text(GRID, "out"))
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    for cmd in ("sweep", "analyze"):
        subprocess.run([sys.executable, "-m", "losslab.cli", cmd,
                        "--config", "grid.ini"], cwd=work, env=env, check=True,
                       stdout=subprocess.DEVNULL)
    return work / "out"


def problems(root, analyses=GRID["analyses"]):
    return checks.check_tree(root, checks.eval_split(GRID["dataset"]),
                             run.loss_table(GRID),
                             GRID["seeds"], analyses)


@pytest.fixture
def copy(tree, tmp_path):
    return Path(shutil.copytree(tree, tmp_path / "out"))


def edit_csv(path, fn):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(lines)) + "\n")


def test_intact_tree_passes(tree):
    assert problems(tree) == []


def test_flipped_prediction(copy):
    path = copy / "runs" / "softmax" / "seed0" / "predictions.csv"

    def flip(lines):
        i, p, c = lines[1].split(",")
        lines[1] = f"{i},{(int(p) + 1) % 4},{c}"
        return lines

    edit_csv(path, flip)
    found = problems(copy)
    assert any("predictions differ" in p for p in found), found


def test_eval_acc_disagrees_with_predictions(copy):
    path = copy / "runs" / "sigmoid" / "seed1" / "run.json"
    summary = json.loads(path.read_text())
    summary["eval_acc"] += 1.0 / 60
    path.write_text(json.dumps(summary))
    found = problems(copy)
    assert any("eval_acc" in p for p in found), found


def test_perturbed_penultimate_feature(copy):
    path = copy / "runs" / "cosine_softmax" / "seed0" / "penultimate.dump"
    raw = bytearray(path.read_bytes())
    off = checks.DUMP_HEADER.size + 8 * 3
    value = np.frombuffer(bytes(raw[off:off + 8]), "<f8")[0]
    raw[off:off + 8] = np.array([value + 0.5], "<f8").tobytes()
    path.write_bytes(bytes(raw))
    found = problems(copy)
    assert any("penultimate features differ" in p for p in found), found


@pytest.mark.parametrize("symmetric", [True, False])
def test_perturbed_cka_entry(copy, symmetric):
    path = copy / "reports" / "cka.csv"
    names, M = checks.read_matrix(path)
    M[0, 2] += 1e-4
    if symmetric:
        M[2, 0] += 1e-4
    write_matrix(path, names, M)
    found = problems(copy)
    assert any("HSIC" in p for p in found), found
    assert any("not symmetric" in p for p in found) != symmetric, found


def write_matrix(path, names, M):
    with open(path, "w") as fh:
        fh.write("name," + ",".join(names) + "\n")
        for name, row in zip(names, M):
            fh.write(name + "," + ",".join("%.10g" % v for v in row) + "\n")


def test_non_descending_spectrum(copy):
    def swap(lines):
        a, b = lines[1].rsplit(",", 1), lines[2].rsplit(",", 1)
        lines[1], lines[2] = f"{a[0]},{b[1]}", f"{b[0]},{a[1]}"
        return lines

    edit_csv(copy / "reports" / "spectra.csv", swap)
    found = problems(copy)
    assert any("descending" in p for p in found), found


def test_spectrum_energy_mismatch(copy):
    def scale(lines):
        head, sigma = lines[1].rsplit(",", 1)
        lines[1] = f"{head},{float(sigma) * 1.01!r}"
        return lines

    edit_csv(copy / "reports" / "spectra.csv", scale)
    found = problems(copy)
    assert any("Frobenius" in p for p in found), found


@pytest.mark.parametrize("report", ["separation.csv", "cka.csv", "spectra.csv",
                                    "agreement_same_top1.csv", "accuracy.csv"])
def test_truncated_report(copy, report):
    path = copy / "reports" / report
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    assert problems(copy)


def test_perturbed_separation(copy):
    def bump(lines):
        loss, index, r2, se = lines[1].split(",")
        lines[1] = f"{loss},{index},{float(r2) + 1e-4!r},{se}"
        return lines

    edit_csv(copy / "reports" / "separation.csv", bump)
    found = problems(copy)
    assert any("brute force" in p for p in found), found


def test_agreement_not_from_predictions(copy):
    path = copy / "reports" / "agreement_same_top1.csv"
    names, M = checks.read_matrix(path)
    M[1, 3] = M[3, 1] = M[1, 3] - 0.01
    write_matrix(path, names, M)
    found = problems(copy)
    assert any("differs from predictions" in p for p in found), found


def test_temperature_that_worsens_nll(copy):
    path = copy / "reports" / "calibration.json"
    table = json.loads(path.read_text())
    entry = table["softmax"]["runs"][0]
    entry["temperature"] *= 8.0
    path.write_text(json.dumps(table))
    found = problems(copy)
    assert any("calibration.json: softmax:seed0" in p for p in found), found


def test_sparsity_and_avh_recomputed(copy):
    def bump(lines):
        parts = lines[1].split(",")
        parts[-1] = repr(float(parts[-1]) + 0.01)
        lines[1] = ",".join(parts)
        return lines

    edit_csv(copy / "reports" / "sparsity.csv", bump)
    edit_csv(copy / "reports" / "avh.csv", bump)
    found = problems(copy)
    assert any(p.startswith("sparsity.csv") for p in found), found
    assert any(p.startswith("avh.csv") for p in found), found


def test_transfer_accuracy_bounds(copy):
    runs = [f"{name},{seed}" for name, _ in GRID["losses"] for seed in GRID["seeds"]]
    path = copy / "reports" / "transfer.csv"
    body = "".join(f"{r},5,0.75\n" for r in runs)
    path.write_text("loss,seed,merge,probe_acc\n" + body)
    analyses = GRID["analyses"] + ("transfer",)
    assert not any("transfer" in p for p in problems(copy, analyses))
    path.write_text("loss,seed,merge,probe_acc\n" + body.replace("0.75", "0.2", 1))
    found = problems(copy, analyses)
    assert any("outside (1/5, 1]" in p for p in found), found


def test_missing_metadata(copy):
    (copy / "reports" / "metadata.json").unlink()
    assert any("metadata.json" in p for p in problems(copy))
