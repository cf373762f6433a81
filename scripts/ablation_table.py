#!/usr/bin/env python3
"""Ablation table for the paper's claim, at the acceptance criterion-7 settings.

Generates the acceptance benchmark (generator seed 11), splits it into 4
folds (seed 0; fold 1 is the meta-validation fold, fold 0 is held out),
meta-trains one checkpoint per meta seed as criterion 6 does (2000
iterations), and runs every variant on the 5 datasets of one fold x 5 run
seeds with criterion 7's tune settings:

  qt        meta-learned init, cost-aware EI (the full method)
  qt-nc     meta-learned init, plain EI
  qt-nm     random init, cost-aware EI
  qt-nm-nc  random init, plain EI
  gp-full   full-fidelity GP baseline
  random    random search

Each row gives the median regret AUC over all runs, the per-dataset
medians, the median share of the budget spent, and the share of cost-aware
winners whose step-cost denominator was clamped to ``STEP_COST_FLOOR``.
The runs call only the public ``tune``, ``gp_full`` and ``random_search``;
the clamp share is read by wrapping the ``ei_scores`` and
``argmax_lowest_id`` that ``tune`` calls, which leaves every run as it is.
Variants with a meta-learned init get one row per meta seed.  This is a
measuring script, not a gate.

Example:
    python scripts/ablation_table.py --jobs 2
    python scripts/ablation_table.py --meta-seeds 0,1,2,3,4 --variants qt,qt-nc --jobs 2
    python scripts/ablation_table.py --fold val --variants qt,qt-nc   # tune on fold 1, not 0
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from graybo import benchtab, optimizer
from graybo.costmodel import STEP_COST_FLOOR
from graybo.evalkit import gp_full, random_search, trace_auc
from graybo.metalearn import meta_train, split_folds
from graybo.optimizer import TuneConfig, tune

GEN_SEED = 11
RUN_SEEDS = (0, 1, 2, 3, 4)
QT_KW = dict(fit_steps=10, fit_window=96, max_steps=300, refit_period=5)
BUDGET_TRAININGS = 50.0
# variant -> (use_meta, use_cost) for tune; None for the baselines
VARIANTS = {
    "qt": (True, True),
    "qt-nc": (True, False),
    "qt-nm": (False, True),
    "qt-nm-nc": (False, False),
    "gp-full": None,
    "random": None,
}


@contextmanager
def _count_clamped_winners():
    """Yields [clamped, cost-aware winners], counted over the ``tune`` calls
    made inside the block."""
    counts = [0, 0]
    real_scores, real_argmax = optimizer.ei_scores, optimizer.argmax_lowest_id
    last = {}

    def scores(mean, std, incumbents, predicted_cost, observed_cum, cost_aware):
        last["args"] = (predicted_cost, observed_cum, cost_aware)
        return real_scores(mean, std, incumbents, predicted_cost, observed_cum, cost_aware)

    def argmax(pool, s):
        pid = real_argmax(pool, s)
        predicted, observed, cost_aware = last.pop("args")
        if cost_aware:
            i = list(pool).index(pid)
            counts[0] += float(predicted[i] - observed[i]) <= STEP_COST_FLOOR
            counts[1] += 1
        return pid

    optimizer.ei_scores, optimizer.argmax_lowest_id = scores, argmax
    try:
        yield counts
    finally:
        optimizer.ei_scores, optimizer.argmax_lowest_id = real_scores, real_argmax


def _run(task):
    """One run: (regret AUC, share of the budget spent, [clamped, cost-aware
    winners])."""
    variant, seed, view, space, checkpoint, budget, y_bounds = task
    counts = [0, 0]
    if variant == "gp-full":
        trace = gp_full(view, space, budget, seed, fit_steps=QT_KW["fit_steps"])
    elif variant == "random":
        trace = random_search(view, space, budget, seed)
    else:
        use_meta, use_cost = VARIANTS[variant]
        cfg = TuneConfig(budget_seconds=budget, seed=seed, use_meta=use_meta, use_cost=use_cost, **QT_KW)
        with _count_clamped_winners() as counts:
            trace = tune(view, space, cfg, checkpoint=checkpoint)
    return trace_auc(trace, y_bounds, budget), trace.final_cum_time / budget, counts


def _parse_list(text: str) -> list[str]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return items


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--meta-seeds", type=_parse_list, default=["0"], help="comma list (default 0)")
    ap.add_argument("--variants", type=_parse_list, default=list(VARIANTS), help="comma list (default all)")
    ap.add_argument("--fold", choices=("test", "val"), default="test",
                    help="run on the held-out fold 0 (default) or the meta-validation fold 1")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)
    unknown = set(args.variants) - set(VARIANTS)
    if unknown:
        ap.error(f"unknown variants {sorted(unknown)}")
    if args.jobs < 1:
        ap.error("--jobs must be >= 1")
    meta_seeds = [int(s) for s in args.meta_seeds]

    started = time.perf_counter()
    space = benchtab.default_search_space(8)
    gen = benchtab.GeneratorConfig(
        n_clusters=5, n_datasets=20, n_models=8, configs_per_dataset=100,
        n_epochs=50, obs_noise=0.01, cost_base=1.0, seed=GEN_SEED,
    )
    bench = benchtab.TabularBenchmark(benchtab.generate(gen, space))
    folds = split_folds(bench.md.dataset_ids, k=4, seed=0, val_fold=1, test_fold=0)
    datasets = folds.test_ids if args.fold == "test" else folds.val_ids
    checkpoints = {}
    if any(VARIANTS[v] is not None and VARIANTS[v][0] for v in args.variants):
        for m in meta_seeds:
            checkpoints[m] = meta_train(
                bench.md, folds, space, iters=2000, eval_every=100, patience=5, seed=m
            ).checkpoint

    rows = []  # (label, variant, meta seed or None)
    for v in args.variants:
        if VARIANTS[v] is not None and VARIANTS[v][0]:
            rows += [(f"{v} (meta {m})" if len(meta_seeds) > 1 else v, v, m) for m in meta_seeds]
        else:
            rows.append((v, v, None))
    keys = [(v, m, did, s) for _, v, m in rows for did in datasets for s in RUN_SEEDS]
    budgets = {did: BUDGET_TRAININGS * float(np.median(bench.md.datasets[did].final_costs())) for did in datasets}
    # each task carries its dataset's view (not the whole table) and its checkpoint
    tasks = [
        (v, s, bench.view(did), space, checkpoints.get(m), budgets[did], bench.y_bounds(did))
        for v, m, did, s in keys
    ]
    if args.jobs == 1:
        results = [_run(t) for t in tasks]
    else:
        import multiprocessing as mp

        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=mp.get_context("spawn")) as pool:
            results = list(pool.map(_run, tasks, chunksize=1))
    by_task = dict(zip(keys, results))

    print(f"# {args.fold} fold {datasets}, run seeds {list(RUN_SEEDS)}, {QT_KW}")
    print("| variant | median AUC | " + " | ".join(datasets) + " | budget spent | clamped winners |")
    print("|---" * (len(datasets) + 4) + "|")
    for label, v, m in rows:
        runs = [by_task[(v, m, did, s)] for did in datasets for s in RUN_SEEDS]
        aucs = [r[0] for r in runs]
        per_ds = [statistics.median(by_task[(v, m, did, s)][0] for s in RUN_SEEDS) for did in datasets]
        spent = statistics.median(r[1] for r in runs)
        clamped = sum(r[2][0] for r in runs)
        winners = sum(r[2][1] for r in runs)
        clamp = f"{clamped}/{winners} ({clamped / winners:.2%})" if winners else "-"
        cells = [f"{statistics.median(aucs):.4f}", *(f"{a:.4f}" for a in per_ds), f"{spent:.1%}", clamp]
        print(f"| {label} | " + " | ".join(cells) + " |")
    print(f"# {len(keys)} runs in {time.perf_counter() - started:.0f} s on {args.jobs} worker(s)")


if __name__ == "__main__":
    main()
