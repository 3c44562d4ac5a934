#!/usr/bin/env python3
"""Synthetic single-positive benchmark: train every scheme arm over several
seeds and print a test-mAP table plus the memorization phase table.

Example:
    python scripts/run_benchmark.py --seeds 1,2,3 --epochs 30
"""

import argparse
import csv
import sys
import time

from wsml import evaluation, schemes, trainer
from wsml.dataset import SyntheticSpec, generate_synthetic, make_single_positive
from wsml.io import atomic_write

ARMS = ["naive-an", "wan", "lsan", "ll-r", "ll-ct", "ll-cp", "full-label"]


def build_pipeline(seed, n, dim, classes, pos_rate):
    full = generate_synthetic(SyntheticSpec(n=n, dim=dim, classes=classes, pos_rate=pos_rate, seed=seed))
    pool, test = trainer.split(full, 0.2, seed=seed)
    return pool, test, make_single_positive(pool, seed=seed)


def train_arm(arm, pool, test, single_pos, seed, epochs, delta_rel):
    token = "naive-an" if arm == "full-label" else arm
    cfg = trainer.TrainConfig(
        scheme=schemes.SchemeConfig(schemes.Scheme(token), delta_rel=delta_rel),
        epochs=epochs,
        batch_size=16,
        learning_rate=1e-3,
        arch="mlp1",
        hidden=64,
        seed=seed,
    )
    data = pool if arm == "full-label" else single_pos
    return trainer.run(cfg, data, test)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated pipeline seeds")
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--dim", type=int, default=20)
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--pos-rate", type=float, default=0.3)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--delta-rel", type=float, default=0.2)
    parser.add_argument("--out", help="also write the table as CSV (atomically)")
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    results = {arm: [] for arm in ARMS}
    started = time.time()

    for seed in seeds:
        pool, test, single_pos = build_pipeline(seed, args.n, args.dim, args.classes, args.pos_rate)
        for arm in ARMS:
            rep = train_arm(arm, pool, test, single_pos, seed, args.epochs, args.delta_rel)
            results[arm].append(rep.test_map)
            if arm == "naive-an":
                table = evaluation.phase_distribution(
                    rep.tracker.argmax_epoch,
                    rep.tracker.epochs_tracked,
                    single_pos.truth[rep.train_indices],
                    rep.initial_states,
                )
                print(f"seed {seed} highest-loss phase (% warmup / % regular):")
                for bucket, stats in table.items():
                    if stats is not None:
                        print(f"  {bucket}: {stats.warmup_pct:5.1f} / {stats.regular_pct:5.1f}  (n={stats.count})")

    print(f"\ntest mAP by scheme ({len(seeds)} seeds, {time.time() - started:.0f}s):")
    header = ["scheme"] + [f"seed{s}" for s in seeds] + ["mean"]
    rows = []
    for arm in ARMS:
        vals = results[arm]
        rows.append([arm] + [f"{v:.2f}" for v in vals] + [f"{sum(vals) / len(vals):.2f}"])
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))

    if args.out:
        with atomic_write(args.out) as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
