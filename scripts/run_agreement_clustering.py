#!/usr/bin/env python3
"""Cluster per-seed predictions of two losses by top-1 agreement.

Usage:
    python scripts/run_agreement_clustering.py [--variant same_top1]

Trains softmax and squared error across seeds, builds the pairwise
agreement matrix on the shared eval split, and prints the within-loss
vs cross-loss seed-means plus the first average-linkage merges. It exits
0 only if the within-loss mean is the higher and each of the first
JUDGED_MERGES merges joins runs of one loss, however many --merges prints.
"""

import argparse
import sys

from losslab.agreement import AGREEMENT_VARIANTS
from losslab.experiments import agreement_experiment

# the merges that must each join runs of one loss, as acceptance
# criterion 8 requires
JUDGED_MERGES = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variant", default="same_top1",
                        choices=AGREEMENT_VARIANTS)
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of training seeds per loss")
    parser.add_argument("--merges", type=int, default=4,
                        help="how many dendrogram merges to print")
    args = parser.parse_args(argv)

    out = agreement_experiment(seeds=tuple(range(args.seeds)),
                               variant=args.variant)
    names, loss_of = out["names"], out["loss_of"]

    print(f"within-loss mean agreement: {out['within_mean']:.4f}")
    print(f"cross-loss mean agreement:  {out['cross_mean']:.4f}")

    # merged clusters get ids above the run count, in merge order
    cluster = {i: {i} for i in range(len(names))}
    ok = out["within_mean"] > out["cross_mean"]
    for step, (a, b, dist) in enumerate(out["merges"]):
        members = cluster[int(a)] | cluster[int(b)]
        cluster[len(names) + step] = members
        pure = len({loss_of[i] for i in members}) == 1
        if step < JUDGED_MERGES:
            ok &= pure
        if step < args.merges:
            listed = ", ".join(names[i] for i in sorted(members))
            print(f"merge {step}: d={dist:.4f} [{listed}] "
                  f"{'within-loss' if pure else 'MIXED'}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
