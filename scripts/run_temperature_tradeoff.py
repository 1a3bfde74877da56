#!/usr/bin/env python3
"""Sweep cosine-softmax temperature: separation rises, transfer falls.

Usage:
    python scripts/run_temperature_tradeoff.py [--seeds 3] [--out sweep.csv]

For each temperature, trains on the blobs task and reports train-split
R2 plus probe accuracy on the coarse 5-way relabeling of
experiments.TRANSFER_TASK's eval split. That task is a fresh draw of the
blobs task family (data seed 11, so new class means), not the training task.
"""

import argparse
import math
import sys

import numpy as np

from losslab.experiments import temperature_experiment
from losslab.harness import _write_csv


def ranks(values) -> np.ndarray:
    """Ranks 1..n, ties sharing the mean of the ranks they span."""
    v = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts  # 0-based rank of each value's first copy
    return (first + (counts + 1) / 2.0)[inverse]


def spearman(a, b) -> float:
    """Spearman's rank correlation: Pearson's r of the ranks.

    The sums run in integers over doubled ranks. For a perfect ordering
    sxx = syy = |sxy|, so the square root is exact and r is exactly +1 or
    -1. nan when either side is constant.
    """
    x = (2 * ranks(a)).astype(np.int64).tolist()
    y = (2 * ranks(b)).astype(np.int64).tolist()
    n = len(x)
    sxy = n * sum(p * q for p, q in zip(x, y)) - sum(x) * sum(y)
    sxx = n * sum(p * p for p in x) - sum(x) ** 2
    syy = n * sum(q * q for q in y) - sum(y) ** 2
    return sxy / math.sqrt(sxx * syy) if sxx and syy else math.nan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of training seeds per temperature")
    parser.add_argument("--merge", type=int, default=5,
                        help="coarse classes for the transfer probe")
    parser.add_argument("--out", help="optional CSV of per-seed values")
    args = parser.parse_args(argv)

    results = temperature_experiment(seeds=tuple(range(args.seeds)),
                                     merge=args.merge)
    taus = sorted(results)
    r2 = np.array([results[t]["r2"].mean() for t in taus])
    tr = np.array([results[t]["transfer"].mean() for t in taus])

    print(f"{'tau':>5} {'R2':>8} {'transfer':>9}")
    for t, a, b in zip(taus, r2, tr):
        print(f"{t:>5} {a:>8.4f} {b:>9.4f}")

    rho_r2 = spearman(taus, r2)
    rho_tr = spearman(taus, tr)
    print(f"spearman(tau, R2) = {rho_r2:+.2f} (want +1)")
    print(f"spearman(tau, transfer) = {rho_tr:+.2f} (want -1)")

    if args.out:
        rows = []
        for t in taus:
            pairs = zip(results[t]["r2"], results[t]["transfer"])
            rows += [(t, seed, a, b) for seed, (a, b) in enumerate(pairs)]
        _write_csv(args.out, ("tau", "seed", "r2", "transfer"), rows)
        print(f"wrote {args.out}")

    return 0 if (rho_r2 == 1.0 and rho_tr == -1.0) else 1


if __name__ == "__main__":
    sys.exit(main())
