#!/usr/bin/env python3
"""End-to-end experiment: generate a benchmark, meta-train the predictors,
run the optimizer and its ablations plus baselines over the held-out fold,
and aggregate CSV reports.

Example:
    python scripts/run_end_to_end.py --out /tmp/exp --seeds 3 --jobs 4
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from graybo import benchtab
from graybo.cli import main as cli_main
from graybo.metalearn import split_folds


def run(cmd: list[str]) -> None:
    print("+ graybo " + " ".join(cmd))
    code = cli_main(cmd)
    if code != 0:
        raise SystemExit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--datasets", type=int, default=20)
    ap.add_argument("--clusters", type=int, default=5)
    ap.add_argument("--configs", type=int, default=100)
    ap.add_argument("--models", type=int, default=8)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--iters", type=int, default=2000, help="meta-training iterations")
    ap.add_argument("--seeds", type=int, default=3, help="run seeds per method/dataset")
    ap.add_argument("--budget-trainings", type=float, default=50.0,
                    help="budget as a multiple of the median full-training cost")
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    out = args.out
    bench_dir = os.path.join(out, "bench")
    runs_dir = os.path.join(out, "runs")
    ck_path = os.path.join(out, "meta.json")
    started = time.time()

    run(
        [
            "gen",
            "--clusters", str(args.clusters),
            "--datasets", str(args.datasets),
            "--models", str(args.models),
            "--configs", str(args.configs),
            "--epochs", str(args.epochs),
            "--seed", str(args.seed),
            "--out", bench_dir,
        ]
    )

    from graybo.core import load_space

    space = load_space(os.path.join(bench_dir, "space.json"))
    md = benchtab.load_metadataset(bench_dir, space)
    bench = benchtab.TabularBenchmark(md)
    folds = split_folds(bench.md.dataset_ids, k=4, seed=0, val_fold=1, test_fold=0)
    held_out = folds.test_ids
    print(f"held-out datasets: {held_out}")

    run(
        [
            "metatrain",
            "--bench", bench_dir,
            "--folds", "4",
            "--val-fold", "1",
            "--test-fold", "0",
            "--iters", str(args.iters),
            "--seed", "0",
            "--out", ck_path,
        ]
    )

    budgets = {
        did: args.budget_trainings
        * float(np.median(bench.md.datasets[did].final_costs()))
        for did in held_out
    }
    # one budget per dataset: run each dataset separately
    seeds = ",".join(str(s) for s in range(args.seeds))
    speed = ["--fit-steps", "10", "--fit-window", "96", "--max-steps", "300", "--refit-period", "5"]
    for did in held_out:
        budget = str(budgets[did])
        run(
            [
                "tune", "--bench", bench_dir, "--dataset", did,
                "--budget-seconds", budget, "--checkpoint", ck_path,
                "--seed", seeds, "--jobs", str(args.jobs), "--out", runs_dir,
                *speed,
            ]
        )
        for method in ("random", "sha", "gp-full"):
            run(
                [
                    "baseline", "--method", method, "--bench", bench_dir,
                    "--dataset", did, "--budget-seconds", budget,
                    "--seed", seeds, "--jobs", str(args.jobs), "--out", runs_dir,
                    *(["--fit-steps", "10"] if method == "gp-full" else []),
                ]
            )

    run(["report", "--runs", runs_dir, "--bench", bench_dir, "--out", os.path.join(out, "report")])
    print(f"done in {time.time() - started:.0f}s; reports in {os.path.join(out, 'report')}")


if __name__ == "__main__":
    main()
