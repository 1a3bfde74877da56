"""losslab benchmark: runs the CLI as a user would, times it, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a losslab source tree; the program is taken from
``src/``. Workloads (closed loop, one command at a time):

    sweep_serial  losslab sweep --jobs 1 over 8 objectives x 2 seeds, then
                  losslab analyze six times (seven analyses, no transfer)
    analyze_full  set-up trains softmax and cosine_softmax at one seed;
                  the timed command is losslab analyze with all eight analyses

With --trace 0 the timed commands run untraced and the last stdout line
holds the end-to-end metrics. With --trace 1 they run under
perfbench/tracer.py and the last line holds the per-layer metrics. Every
run checks the artifacts (perfbench/checks.py). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"

OBJECTIVES = (
    ("softmax", "softmax"),
    ("label_smoothing", "label_smoothing alpha=0.1"),
    ("dropout", "dropout keep_prob=0.7"),
    ("extra_final_l2", "extra_final_l2 lambda=8e-4"),
    ("logit_penalty", "logit_penalty beta=6e-4"),
    ("logit_norm", "logit_norm temperature=0.05"),
    ("cosine_softmax", "cosine_softmax temperature=0.05"),
    ("sigmoid", "sigmoid"),
)
KINDS = tuple(name for name, _ in OBJECTIVES)
CHEAP_ANALYSES = ("separation", "cka", "sparsity", "calibration",
                  "agreement", "avh", "spectra")
ALL_ANALYSES = CHEAP_ANALYSES + ("transfer",)
FITS_PER_DUMP = 46  # probe: 45-point lambda path plus the final refit
NOT_CONVERGED = b"logreg did not converge"
ANALYZE_REPEATS = 6  # sweep_serial: analyze runs per round
SETUP_REPEATS = {"sweep_serial": 51, "analyze_full": 5}
# a run makes --seconds // ROUND_S rounds, at least one: fixed by --seconds
# alone, so every run of a workload does the same work on any machine
ROUND_S = {"sweep_serial": 15, "analyze_full": 25}


def grid(workload, seed):
    """The INI settings of a workload for a benchmark seed."""
    if workload == "sweep_serial":
        dataset = dict(kind="blobs", classes=10, features=32, per_class=500,
                       eval_per_class=100, spread=1.75, seed=seed)
        return dict(dataset=dataset, hidden="64, 64", epochs=20,
                    seeds=(2 * seed, 2 * seed + 1), losses=OBJECTIVES,
                    analyses=CHEAP_ANALYSES)
    # analyze_full: fixed inputs, so the probe's failed fits repeat exactly
    dataset = dict(kind="blobs", classes=10, features=32, per_class=200,
                   eval_per_class=20, spread=1.75, seed=0)
    return dict(dataset=dataset, hidden="64, 64", epochs=20, seeds=(0,),
                losses=(OBJECTIVES[0], OBJECTIVES[6]), analyses=ALL_ANALYSES)


def ini_text(g, output):
    ds = "\n".join(f"{k} = {v}" for k, v in g["dataset"].items())
    losses = "\n".join(f"{name} = {line}" for name, line in g["losses"])
    return (
        f"[dataset]\n{ds}\n\n[model]\nhidden = {g['hidden']}\n\n"
        f"[train]\nepochs = {g['epochs']}\nbatch_size = 128\npeak_lr = 0.05\n"
        "schedule = cosine\n\n"
        f"[experiment]\nseeds = {', '.join(map(str, g['seeds']))}\n"
        f"output = {output}\nanalyses = {', '.join(g['analyses'])}\n\n"
        f"[losses]\n{losses}\n"
    )


def loss_table(g):
    """((name, kind, temperature), ...) for the checks."""
    out = []
    for name, line in g["losses"]:
        params = dict(tok.split("=") for tok in line.split()[1:])
        temp = float(params["temperature"]) if "temperature" in params else None
        out.append((name, line.split()[0], temp))
    return tuple(out)


def environment():
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{v: os.environ.get(v) for v in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Program:
    """Runs losslab CLI commands in the work directory, one at a time."""

    def __init__(self, work, traced):
        self.work = work
        self.traced = traced
        self.n = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        # one line per unconverged probe fit, so they can be counted
        self.env["PYTHONWARNINGS"] = "always::RuntimeWarning"

    def run(self, *args, traced=True):
        """-> dict(wall, cpu, rss_mb, stderr); raises on a nonzero exit.
        The command is traced when the program is and traced is true."""
        self.n += 1
        tag = f"{self.n:03d}_{args[0]}"
        cmd = [sys.executable]
        if self.traced and traced:
            cmd += [str(BENCH / "tracer.py"), str(self.work / f"{tag}.trace.json")]
        else:
            cmd += ["-m", "losslab.cli"]
        cmd += list(args)
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            try:
                # wait4's usage covers the command and every child it waited for
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_bytes()
        if proc.returncode != 0:
            raise CommandFailed(f"{' '.join(args)} exited {proc.returncode}: "
                                f"{stderr.decode(errors='replace')[-2000:]}")
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "stderr": stderr}

class CommandFailed(RuntimeError):
    pass


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def write_ini(work, g, name, output):
    (work / name).write_text(ini_text(g, output))
    fresh(work / output).mkdir(parents=True)


def set_up(work, g):
    """Write the INI, empty the output directory and regenerate the eval
    split the checks compare against. -> (seconds, (X, y))."""
    t0 = time.perf_counter()
    write_ini(work, g, "grid.ini", "out")
    split = checks.eval_split(g["dataset"])
    return time.perf_counter() - t0, split


# ---------------------------------------------------------------- workloads


def sweep_serial(prog, g, seed, rounds, repeats):
    """Each round is one sweep --jobs 1 and ANALYZE_REPEATS analyses."""
    work = prog.work
    setup = [set_up(work, g) for _ in range(repeats)]
    timed = []
    for _ in range(rounds):
        fresh(work / "out")
        cmds = [prog.run("sweep", "--config", "grid.ini", "--jobs", "1")]
        cmds += [prog.run("analyze", "--config", "grid.ini")
                 for _ in range(ANALYZE_REPEATS)]
        timed.append(cmds)
    runs = len(g["losses"]) * len(g["seeds"])
    ops = runs + ANALYZE_REPEATS * (1 + len(g["analyses"]))
    problems = checks.check_tree(work / "out", setup[0][1], loss_table(g),
                                 g["seeds"], g["analyses"])
    problems += pool_matches_serial(prog, g, seed)
    return {
        "setup": [s for s, _ in setup],
        "sweep": [cmds[0]["wall"] for cmds in timed],
        "analyze": [c["wall"] for cmds in timed for c in cmds[1:]],
        "rounds": timed,
        "attempted": ops * rounds,
        "failed": 0,
        "problems": problems,
    }


def pool_matches_serial(prog, g, seed):
    """Untimed: two runs of the grid again through sweep --jobs 2 must give
    the bytes the timed --jobs 1 sweep wrote. The pair rotates with seed."""
    i = (2 * seed) % len(g["losses"])
    part = dict(g, losses=(g["losses"][i], g["losses"][i + 1]),
                seeds=g["seeds"][:1], analyses=())
    write_ini(prog.work, part, "pool.ini", "pool")
    prog.run("sweep", "--config", "pool.ini", "--jobs", "2", traced=False)
    problems = []
    for name, _ in part["losses"]:
        rel = Path("runs") / name / f"seed{part['seeds'][0]}"
        a = checks.tree_bytes(prog.work / "out" / rel)
        b = checks.tree_bytes(prog.work / "pool" / rel)
        if not a or a != b:
            problems.append(f"{rel}: --jobs 2 artifacts differ from --jobs 1")
    return problems


def analyze_full(prog, g, seed, rounds, repeats):
    """Set-up also trains the grid; each round is one analyze."""
    work = prog.work
    setup, sweeps, trees = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, split = set_up(work, g)
        sweeps.append(prog.run("sweep", "--config", "grid.ini", "--jobs", "1")["wall"])
        setup.append(time.perf_counter() - t0)
        trees.append(checks.tree_bytes(work / "out" / "runs"))
    problems = []
    if any(t != trees[0] for t in trees):
        problems.append("set-up sweeps of one config wrote different bytes")
    timed = [[prog.run("analyze", "--config", "grid.ini")] for _ in range(rounds)]
    unconverged = [cmds[0]["stderr"].count(NOT_CONVERGED) for cmds in timed]
    if len(set(unconverged)) != 1:
        problems.append(f"unconverged probe fits differ between rounds: {unconverged}")
    dumps = len(g["losses"]) * len(g["seeds"])
    ops = 1 + len(g["analyses"]) + FITS_PER_DUMP * dumps
    problems += checks.check_tree(work / "out", split, loss_table(g),
                                  g["seeds"], g["analyses"])
    return {
        "setup": setup,
        "sweep": sweeps,
        "analyze": [cmds[0]["wall"] for cmds in timed],
        "rounds": timed,
        "attempted": ops * rounds,
        "failed": sum(unconverged),
        "problems": problems,
    }


WORKLOADS = {"sweep_serial": sweep_serial, "analyze_full": analyze_full}


# ---------------------------------------------------------------- metrics


def end_to_end(res):
    med = statistics.median
    return {
        "setup_s": (med(res["setup"]), "s"),
        "sweep_s": (med(res["sweep"]), "s"),
        "analyze_s": (med(res["analyze"]), "s"),
        "cpu_s": (med(sum(c["cpu"] for c in cmds) for cmds in res["rounds"]), "s"),
        "peak_rss_mb": (med(max(c["rss_mb"] for c in cmds)
                            for cmds in res["rounds"]), "MB"),
    }


def tail(values):
    """(percentile, value): the highest of p99.9/p99/p90/p75 with at least
    ten samples beyond it; the median when there are fewer than 40."""
    for q in (99.9, 99.0, 90.0, 75.0):
        if len(values) * (1 - q / 100) >= 10:
            return q, float(np.percentile(values, q))
    return 50.0, float(np.median(values)) if values else 0.0


SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}
# spans reported as "<span>.<unit>": median seconds per call, scaled
MEDIAN_SPANS = (
    ("training.loss_and_grads", "us"),
    ("losses.compose_loss", "us"),
    ("mlp.forward_hidden", "us"),
    ("optim.sgd_nesterov_step", "us"),
    ("mlp.model_from_params", "us"),
    ("training.epoch_log", "ms"),
    ("training.train", "s"),
    ("harness.run_single", "s"),
    ("harness.load_experiment_data", "ms"),
    ("dumps.write_activation_dump", "ms"),
    ("harness.run_all", "s"),
    *((f"harness.report_{name}", "s") for name in ("accuracy",) + ALL_ANALYSES),
    ("repr_analysis.class_separation_r2", "ms"),
    ("repr_analysis.linear_cka", "ms"),
    ("calibration.fit_temperature", "ms"),
    ("agreement.agreement_matrix", "ms"),
    ("agreement.linkage_dendrogram", "ms"),
    ("dumps.read_activation_dump", "ms"),
    ("probe.sweep_and_retrain", "s"),
    ("probe.fit_logreg", "ms"),
)


def median(values):
    return float(np.median(values)) if len(values) else 0.0


def per_layer(trace_paths):
    """-> (metrics, tail percentiles) from the spans of every trace file."""
    spans, child_s = {}, {}
    for path in trace_paths:
        with open(path) as fh:
            for sid, parent, name, t0, t1, extra in json.load(fh)["spans"]:
                spans.setdefault(name, []).append((t1 - t0, extra or {}, sid))
                child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)

    def col(name, key=None):
        return [e[key] if key else d for d, e, _ in spans.get(name, ())]

    m = {f"{name}.{unit}": (median(col(name)) * SCALE[unit], unit)
         for name, unit in MEDIAN_SPANS}
    lg, fit = "training.loss_and_grads", "probe.fit_logreg"
    tails = {lg: tail(col(lg)), fit: tail(col(fit))}
    m[f"{lg}.tail_us"] = (tails[lg][1] * 1e6, "us")
    m[f"{lg}.calls"] = (len(col(lg)), "count")
    for kind in KINDS:
        d = [d for d, e, _ in spans.get(lg, ()) if e["kind"] == kind]
        m[f"{lg}.{kind}.us"] = (median(d) * 1e6, "us")
    m["training.train.self_s"] = (median(
        [d - child_s.get(sid, 0.0) for d, _, sid in spans.get("training.train", ())]), "s")
    m["dumps.write_activation_dump.bytes"] = (
        median(col("dumps.write_activation_dump", "bytes")), "bytes")
    m["harness.run_all.cpu_s"] = (median(col("harness.run_all", "cpu_s")), "s")
    calls, converged = len(col(fit)), sum(col(fit, "converged"))
    m[f"{fit}.calls"] = (calls, "count")
    m[f"{fit}.converged"] = (converged, "count")
    m[f"{fit}.converged_ratio"] = (converged / calls if calls else 0.0, "ratio")
    m[f"{fit}.n_iter"] = (median(col(fit, "n_iter")), "count")
    m[f"{fit}.tail_ms"] = (tails[fit][1] * 1e3, "ms")
    return m, {name: q for name, (q, _) in tails.items()}


# ---------------------------------------------------------------- main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "losslab" / "cli.py").is_file():
        print(f"error: no losslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    work = fresh(WORK / args.workload)
    work.mkdir(parents=True)
    prog = Program(work, traced=bool(args.trace))
    g = grid(args.workload, args.seed)
    # a traced run sets up once and runs one round, so counts are per round
    rounds = 1 if args.trace else max(1, int(args.seconds // ROUND_S[args.workload]))
    repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
    print(json.dumps({"env": environment()}))
    try:
        res = WORKLOADS[args.workload](prog, g, args.seed, rounds, repeats)
    except (CommandFailed, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in res["problems"]:
        print(f"check failed: {p}", file=sys.stderr)

    e2e = end_to_end(res)
    if args.trace:
        metrics, tails = per_layer(sorted(work.glob("*.trace.json")))
        print(json.dumps({"traced": {k: v for k, (v, _) in e2e.items()},
                          "tail_percentiles": tails}))
    else:
        metrics = e2e
        print(json.dumps({"samples": {
            k: res[k] for k in ("setup", "sweep", "analyze")}}))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not res["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
