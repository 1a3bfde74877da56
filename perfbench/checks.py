"""Checks of a losslab artifact tree, computed apart from the program.

Every check recomputes what a file claims from the run's inputs or from
other artifacts, with plain numpy written here, or tests a property the
method must have. None compares against a stored copy of earlier output.
Each check returns a list of problems; an empty list means it passed.

The inputs are regenerated from the documented blob recipe: draw K class
means from a standard normal, then ``spread`` times standard-normal noise
around each, all from ``default_rng(dataset seed)``; the first
``per_class`` rows of each class train, the rest evaluate.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

RTOL = 1e-8  # reports print %.10g
MIN_EVAL_ACC = 0.5  # chance is 1/K = 0.1 on the benchmark grids
DUMP_HEADER = struct.Struct("<8sIQQBB")


class Run:
    """One (loss, seed) run directory and the benchmark's view of its loss."""

    def __init__(self, root, name, kind, temperature, seed):
        self.name, self.kind, self.temperature, self.seed = (
            name, kind, temperature, seed)
        self.dir = Path(root) / "runs" / name / f"seed{seed}"
        self.label = f"{name}:seed{seed}"


def eval_split(ds):
    """Eval features and labels of the blob dataset described by ds."""
    k, d = ds["classes"], ds["features"]
    total = ds["per_class"] + ds["eval_per_class"]
    rng = np.random.default_rng(ds["seed"])
    means = rng.standard_normal((k, d))
    X = np.repeat(means, total, axis=0)
    X = X + ds["spread"] * rng.standard_normal(X.shape)
    y = np.repeat(np.arange(k), total)
    ev = np.arange(k * total).reshape(k, total)[:, ds["per_class"]:].ravel()
    return X[ev], y[ev]


def read_dump(path):
    """(data, labels) from an ACTDUMP file, read from its documented layout."""
    raw = Path(path).read_bytes()
    magic, version, n, d, size, flags = DUMP_HEADER.unpack_from(raw)
    if magic != b"ACTDUMP\n" or version != 1 or size not in (4, 8):
        raise ValueError(f"{path}: bad header")
    off = DUMP_HEADER.size
    end = off + n * d * size + (8 * n if flags & 1 else 0)
    if len(raw) != end:
        raise ValueError(f"{path}: {len(raw)} bytes, header implies {end}")
    data = np.frombuffer(raw, f"<f{size}", n * d, off).reshape(n, d)
    labels = None
    if flags & 1:
        labels = np.frombuffer(raw, "<i8", n, off + n * d * size)
    return data.astype(np.float64), labels


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_matrix(path):
    rows = read_csv(path)
    names = [r["name"] for r in rows]
    M = np.array([[float(r[c]) for c in names] for r in rows])
    return names, M


def forward(model_path, X):
    """(hidden activations list, final W, final b) of a saved model."""
    with np.load(model_path) as z:
        n_hidden = sum(1 for key in z.files if key.startswith("hidden_w_"))
        acts = [X]
        for i in range(n_hidden):
            acts.append(np.maximum(acts[-1] @ z[f"hidden_w_{i}"].T
                                   + z[f"hidden_b_{i}"], 0.0))
        return acts[1:], z["final_w"], z["final_b"]


def unit_rows(A):
    return A / np.linalg.norm(A, axis=1, keepdims=True)


def scores(run, H, W, b):
    if run.kind == "cosine_softmax":
        return unit_rows(H) @ unit_rows(W).T / run.temperature + b
    L = H @ W.T + b
    if run.kind == "logit_norm":
        return L / (run.temperature * np.linalg.norm(L, axis=1, keepdims=True))
    return L


def probabilities(run, Z):
    if run.kind == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-Z))
        return s / s.sum(axis=1, keepdims=True)
    e = np.exp(Z - Z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def nll(P, y):
    return float(np.mean(-np.log(np.clip(P[np.arange(y.size), y], 1e-12, None))))


def close(a, b, rtol=RTOL, atol=1e-10):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= atol + rtol * np.abs(np.asarray(b))))


def mean_stderr(v):
    v = np.asarray(v, dtype=np.float64)
    se = float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else None
    return float(v.mean()), se


# ---------------------------------------------------------------- per run


def check_run(run, X, y):
    """Features, scores, predictions and eval_acc of one run against a
    numpy forward pass of its model.npz. Returns (problems, state)."""
    acts, W, b = forward(run.dir / "model.npz", X)
    H = acts[-1]
    feats, labels = read_dump(run.dir / "penultimate.dump")
    problems = []
    if labels is None or not np.array_equal(labels, y):
        problems.append(f"{run.label}: penultimate.dump labels differ from the eval split")
    if feats.shape != H.shape or not close(feats, H, 1e-9, 1e-12):
        problems.append(f"{run.label}: penultimate features differ from the forward pass")
    Z = scores(run, H, W, b)
    dumped, _ = read_dump(run.dir / "eval_scores.dump")
    if dumped.shape != Z.shape or not close(dumped, Z, 1e-9, 1e-12):
        problems.append(f"{run.label}: eval scores differ from the forward pass")
    pred = np.argmax(Z, axis=1)
    P = probabilities(run, Z)
    rows = read_csv(run.dir / "predictions.csv")
    got = np.array([int(r["predicted_class"]) for r in rows])
    conf = np.array([float(r["confidence"]) for r in rows])
    ids = [int(r["example_id"]) for r in rows]
    if ids != list(range(y.size)):
        problems.append(f"{run.label}: predictions.csv has {len(ids)} rows, not {y.size}")
    else:
        top2 = np.sort(Z, axis=1)[:, -2:]
        tie = top2[:, 1] - top2[:, 0] <= 1e-9 * np.abs(top2[:, 1])
        if np.any((got != pred) & ~tie):
            problems.append(f"{run.label}: predictions differ from argmax of the forward pass")
        if not close(conf, P.max(axis=1)):
            problems.append(f"{run.label}: confidences differ from the forward pass")
    acc = float(np.mean(got == y)) if got.size == y.size else -1.0
    with open(run.dir / "run.json") as fh:
        eval_acc = json.load(fh)["eval_acc"]
    if eval_acc != acc:
        problems.append(f"{run.label}: eval_acc {eval_acc} but predictions give {acc}")
    if acc < MIN_EVAL_ACC:
        problems.append(f"{run.label}: eval accuracy {acc} below {MIN_EVAL_ACC}")
    return problems, {"acts": acts, "W": W, "Z": Z, "pred": got, "acc": acc,
                      "feats": feats}


# ---------------------------------------------------------------- reports


def check_accuracy(rdir, runs, state):
    rows = {r["loss"]: r for r in read_csv(rdir / "accuracy.csv")}
    problems = []
    for name in dict.fromkeys(r.name for r in runs):
        accs = [state[r.label]["acc"] for r in runs if r.name == name]
        mean, se = mean_stderr(accs)
        row = rows.get(name)
        if row is None:
            problems.append(f"accuracy.csv: no row for {name}")
        elif not close(float(row["mean_eval_acc"]), mean) or (
            se is not None and not close(float(row["stderr"]), se)
        ):
            problems.append(f"accuracy.csv: {name} does not match the predictions")
    return problems


def separation_r2(X, y, index):
    """1 - within/overall mean pairwise distance, by brute force."""
    if index == "cosine_mean_subtracted":
        X = X - X.mean(axis=0)
    if index == "euclidean":
        sq = np.sum(X * X, axis=1)
        D = sq[:, None] + sq[None, :] - 2.0 * X @ X.T
    else:
        Xn = unit_rows(X)
        D = 1.0 - Xn @ Xn.T
    classes = np.unique(y)
    block = np.array([[D[np.ix_(y == j, y == k)].mean() for k in classes]
                      for j in classes])
    return 1.0 - np.mean(np.diag(block)) / block.mean()


def check_separation(rdir, runs, state):
    rows = {(r["loss"], r["index"]): r for r in read_csv(rdir / "separation.csv")}
    problems = []
    for name in dict.fromkeys(r.name for r in runs):
        mine = [r for r in runs if r.name == name]
        y = read_dump(mine[0].dir / "penultimate.dump")[1]
        for index in ("cosine", "cosine_mean_subtracted", "euclidean"):
            row = rows.get((name, index))
            want = mean_stderr([separation_r2(state[r.label]["feats"], y, index)
                                for r in mine])[0]
            if row is None:
                problems.append(f"separation.csv: no {index} row for {name}")
            elif not close(float(row["mean_r2"]), want, 1e-7, 1e-9):
                problems.append(f"separation.csv: {name} {index} R2 "
                                f"{row['mean_r2']} but brute force gives {want:.10g}")
    return problems


def centered_gram(X):
    K = X @ X.T
    return K - K.mean(axis=0) - K.mean(axis=1)[:, None] + K.mean()


def check_cka(rdir, runs, state):
    names, M = read_matrix(rdir / "cka.csv")
    if names != [r.label for r in runs] or M.shape != (len(runs),) * 2:
        return ["cka.csv: rows are not the grid's runs in order"]
    problems = []
    if not np.array_equal(M, M.T):
        problems.append("cka.csv: matrix is not symmetric")
    if not np.all(np.diag(M) == 1.0):
        problems.append("cka.csv: diagonal is not 1")
    grams = [centered_gram(state[r.label]["feats"]) for r in runs]
    self_hsic = [np.sqrt(np.sum(G * G)) for G in grams]
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            want = np.sum(grams[i] * grams[j]) / (self_hsic[i] * self_hsic[j])
            if not close(M[i, j], want, 1e-7, 1e-9) or not close(M[j, i], want, 1e-7, 1e-9):
                problems.append(f"cka.csv: ({names[i]}, {names[j]}) = {M[i, j]:.10g} "
                                f"but HSIC gives {want:.10g}")
    return problems


def check_sparsity(rdir, runs, state):
    rows = {(r["loss"], int(r["seed"]), int(r["layer"])): float(r["fraction_active"])
            for r in read_csv(rdir / "sparsity.csv")}
    problems = []
    for r in runs:
        for layer, a in enumerate(state[r.label]["acts"]):
            got = rows.get((r.name, r.seed, layer))
            if got is None or not close(got, np.mean(a > 0)):
                problems.append(f"sparsity.csv: {r.label} layer {layer} is {got}, "
                                f"forward pass gives {np.mean(a > 0):.10g}")
    return problems


def check_calibration(rdir, runs, state):
    with open(rdir / "calibration.json") as fh:
        table = json.load(fh)
    problems = []
    for r in runs:
        entry = [e for e in table.get(r.name, {}).get("runs", ()) if e["seed"] == r.seed]
        if len(entry) != 1:
            problems.append(f"calibration.json: no entry for {r.label}")
            continue
        e = entry[0]
        Z, y = read_dump(r.dir / "eval_scores.dump")
        at_one = nll(probabilities(r, Z), y)
        at_t = nll(probabilities(r, Z / e["temperature"]), y)
        if not close(e["nll"], at_one, 1e-9):
            problems.append(f"calibration.json: {r.label} nll {e['nll']} but T=1 gives {at_one}")
        if not close(e["nll_scaled"], at_t, 1e-9):
            problems.append(f"calibration.json: {r.label} nll_scaled {e['nll_scaled']} "
                            f"but T={e['temperature']} gives {at_t}")
        if at_t > at_one * (1 + 1e-12) or e["nll_scaled"] > e["nll"] * (1 + 1e-12):
            problems.append(f"calibration.json: {r.label} fitted temperature "
                            f"worsens NLL ({at_t} > {at_one})")
    return problems


def check_agreement(rdir, runs, state):
    names, M = read_matrix(rdir / "agreement_same_top1.csv")
    if names != [r.label for r in runs]:
        return ["agreement_same_top1.csv: rows are not the grid's runs in order"]
    problems = []
    preds = [state[r.label]["pred"] for r in runs]
    want = np.array([[np.mean(p == q) for q in preds] for p in preds])
    if not close(M, want):
        problems.append("agreement_same_top1.csv: differs from predictions.csv")
    heights = [float(r["distance"]) for r in read_csv(rdir / "linkage.csv")]
    if len(heights) != len(runs) - 1 or np.any(np.diff(heights) < -1e-12):
        problems.append("linkage.csv: not m-1 merges at non-decreasing heights")
    return problems


def check_avh(rdir, runs, state):
    rows = {(r["loss"], int(r["seed"])): float(r["mean_avh"])
            for r in read_csv(rdir / "avh.csv")}
    problems = []
    for r in runs:
        s = state[r.label]
        A = np.arccos(np.clip(unit_rows(s["feats"]) @ unit_rows(s["W"]).T, -1, 1))
        y = read_dump(r.dir / "penultimate.dump")[1]
        want = np.mean(A[np.arange(y.size), y] / A.sum(axis=1))
        got = rows.get((r.name, r.seed))
        if got is None or not close(got, want):
            problems.append(f"avh.csv: {r.label} is {got}, angles give {want:.10g}")
    return problems


def check_spectra(rdir, runs, state):
    sig = {}
    for row in read_csv(rdir / "spectra.csv"):
        sig.setdefault((row["loss"], int(row["seed"])), []).append(
            (int(row["rank"]), float(row["sigma"])))
    problems = []
    for r in runs:
        F = state[r.label]["feats"]
        pairs = sig.get((r.name, r.seed), [])
        s = np.array([v for _, v in sorted(pairs)])
        if [k for k, _ in sorted(pairs)] != list(range(min(F.shape))):
            problems.append(f"spectra.csv: {r.label} has {len(pairs)} ranks, "
                            f"not {min(F.shape)}")
            continue
        Fc = F - F.mean(axis=0)
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            problems.append(f"spectra.csv: {r.label} is not non-negative and descending")
        if not close(np.sum(s * s), np.sum(Fc * Fc), 1e-7):
            problems.append(f"spectra.csv: {r.label} squares do not sum to the "
                            "centered Frobenius norm")
    return problems


def check_transfer(rdir, runs, state, merge):
    rows = {(r["loss"], int(r["seed"])): r for r in read_csv(rdir / "transfer.csv")}
    problems = []
    for r in runs:
        row = rows.get((r.name, r.seed))
        if row is None or int(row["merge"]) != merge:
            problems.append(f"transfer.csv: no merge={merge} row for {r.label}")
            continue
        acc = float(row["probe_acc"])
        if not (1.0 / merge < acc <= 1.0):
            problems.append(f"transfer.csv: {r.label} probe accuracy {acc} "
                            f"outside (1/{merge}, 1]")
    return problems


REPORT_CHECKS = {
    "separation": check_separation,
    "cka": check_cka,
    "sparsity": check_sparsity,
    "calibration": check_calibration,
    "agreement": check_agreement,
    "avh": check_avh,
    "spectra": check_spectra,
}


def check_tree(root, split, losses, seeds, analyses, merge=5):
    """Every check over one artifact tree; returns the list of problems.

    split: (X, y) of the eval split, from eval_split.
    losses: ((name, kind, temperature), ...) in the INI's order.
    """
    root = Path(root)
    runs = [Run(root, name, kind, temp, seed)
            for name, kind, temp in losses for seed in seeds]
    X, y = split
    problems, state = [], {}
    for r in runs:
        try:
            p, state[r.label] = check_run(r, X, y)
        except (OSError, KeyError, ValueError) as exc:
            return problems + [f"{r.label}: unreadable artifact: {exc}"]
        problems += p
    rdir = root / "reports"
    checks = [("accuracy", check_accuracy)] + [
        (a, REPORT_CHECKS[a]) for a in analyses if a in REPORT_CHECKS]
    for name, check in checks:
        try:
            problems += check(rdir, runs, state)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems.append(f"{name} report unreadable: {exc!r}")
    if "transfer" in analyses:
        try:
            problems += check_transfer(rdir, runs, state, merge)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"transfer report unreadable: {exc!r}")
    try:
        with open(rdir / "metadata.json") as fh:
            if json.load(fh)["runs"] != [r.label for r in runs]:
                problems.append("metadata.json: runs differ from the grid")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"metadata.json unreadable: {exc!r}")
    return problems


def tree_bytes(root):
    """{relative path: bytes} of every file under root."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}
