#!/usr/bin/env python3
"""Train four losses on moderate-overlap blobs and compare class separation.

Usage:
    python scripts/run_class_separation.py [--seeds 5] [--out r2.csv]

Prints per-loss R2 of the train-split penultimate features (mean over
seeds with standard error) and checks the adjacent gaps in the order
softmax < label smoothing < cosine softmax < squared error. A gap is
judged against its pooled standard error, so below 2 seeds no gap can be,
and the script exits 1.
"""

import argparse
import sys

import numpy as np

from losslab.experiments import separation_experiment
from losslab.harness import _write_csv, mean_stderr
from losslab.repr_analysis import SEPARATION_INDEXES

# weakest collapse first; gaps are checked pairwise along this order
ORDER = ("softmax", "label_smoothing", "cosine_softmax", "squared_error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of training seeds per loss")
    parser.add_argument("--index", default="cosine",
                        choices=SEPARATION_INDEXES)
    parser.add_argument("--out", help="optional CSV of per-seed R2 values")
    args = parser.parse_args(argv)

    results = separation_experiment(seeds=tuple(range(args.seeds)),
                                    index=args.index)
    # the reports' mean and standard error: no error below 2 seeds
    stats = {k: mean_stderr(v) for k, v in results.items()}

    print(f"{'loss':<18} {'R2 mean':>9} {'stderr':>8}  per-seed")
    for name in ORDER:
        mean, err = stats[name]
        per_seed = " ".join(f"{r:.4f}" for r in results[name])
        err = "-" if err is None else f"{err:.4f}"
        print(f"{name:<18} {mean:>9.4f} {err:>8}  {per_seed}")

    ok = True
    for lo, hi in zip(ORDER, ORDER[1:]):
        (m_lo, e_lo), (m_hi, e_hi) = stats[lo], stats[hi]
        gap = m_hi - m_lo
        if e_lo is None or e_hi is None:
            ok = False
            print(f"{hi} - {lo}: gap={gap:.4f} CANNOT BE JUDGED "
                  "(no standard error below 2 seeds)")
            continue
        pooled = float(np.hypot(e_hi, e_lo))
        good = gap > pooled
        ok &= good
        print(f"{hi} - {lo}: gap={gap:.4f} pooled_se={pooled:.4f} "
              f"{'ok' if good else 'NOT SEPARATED'}")

    if args.out:
        _write_csv(args.out, ("loss", "seed", "r2"),
                   ((name, seed, r2) for name in ORDER
                    for seed, r2 in enumerate(results[name])))
        print(f"wrote {args.out}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
