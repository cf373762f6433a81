"""Baseline optimizers, normalized-regret and rank metrics, and CSV reports.

Every baseline records its evaluations in the tuning loop's run-state
(``optimizer._RunState``), which prices each step, charges it to the
budget, applies the step cap (``open``) and builds the trace, so
simulated-second budgets mean the same thing across methods.
"""

from __future__ import annotations

import logging
import os
import warnings
from typing import Iterable, Mapping, Sequence

import numpy as np

from .benchtab import DatasetView, TabularBenchmark
from .core import SearchSpace
from .optimizer import RunTrace, TuneConfig, _RunState, tune
from .rng import substream

log = logging.getLogger("graybo.evalkit")


class DegenerateBoundsError(ValueError):
    """Raised when a dataset's performance bounds collapse to a point."""


def normalized_regret(y: float, y_min: float, y_max: float) -> float:
    """(y_max - y) / (y_max - y_min) for a performance y (1 - loss);
    0 at the tabulated best, 1 at the tabulated worst.  Out-of-range y is
    clamped with a warning."""
    if not y_max > y_min:
        raise DegenerateBoundsError(f"degenerate bounds [{y_min}, {y_max}]")
    if y < y_min or y > y_max:
        warnings.warn(f"performance {y} outside [{y_min}, {y_max}]; clamped", stacklevel=2)
        y = min(max(y, y_min), y_max)
    return (y_max - y) / (y_max - y_min)


def trace_final_regret(trace: RunTrace, bounds: tuple[float, float]) -> float:
    _, _, best_loss = trace.best()
    return normalized_regret(1.0 - best_loss, bounds[0], bounds[1])


def regret_over_time(
    trace: RunTrace, bounds: tuple[float, float], grid: Sequence[float]
) -> np.ndarray:
    """Right-continuous step samples of incumbent regret; 1 before the
    first completed evaluation."""
    y_min, y_max = bounds
    times = np.array([s.cum_time for s in trace.steps])
    regs = np.array([normalized_regret(1.0 - s.incumbent, y_min, y_max) for s in trace.steps])
    grid = np.asarray(grid, dtype=np.float64)
    idx = np.searchsorted(times, grid, side="right") - 1
    out = np.ones_like(grid)
    seen = idx >= 0
    out[seen] = regs[idx[seen]]
    return out


def trace_auc(trace: RunTrace, bounds: tuple[float, float], horizon: float) -> float:
    """Time-averaged incumbent regret over [0, horizon] of the step function
    (exact rectangle integral, no sampling grid)."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    y_min, y_max = bounds
    total = 0.0
    prev_t = 0.0
    prev_r = 1.0
    for s in trace.steps:
        t = min(s.cum_time, horizon)
        if t > prev_t:
            total += prev_r * (t - prev_t)
            prev_t = t
        prev_r = normalized_regret(1.0 - s.incumbent, y_min, y_max)
        if s.cum_time >= horizon:
            break
    if prev_t < horizon:
        total += prev_r * (horizon - prev_t)
    return total / horizon


# ---------------------------------------------------------------------------
# Baselines


def random_search(
    view: DatasetView,
    space: SearchSpace,
    budget_seconds: float,
    seed: int,
    max_steps: int | None = None,
) -> RunTrace:
    """Uniformly sample a pipeline (among those with epochs left) and train
    it epoch-by-epoch to the horizon, repeating until the budget is crossed."""
    flags = {"budget_seconds": budget_seconds, "seed": seed, "max_steps": max_steps}
    state = _RunState(view.n_pipelines, view.n_epochs, 1, budget_seconds, max_steps)
    rng = substream(seed, "random", view.dataset_id)
    exhausted = False
    while state.open():
        fresh = state.candidate_pool()
        if not fresh:
            exhausted = True
            break
        pid = fresh[int(rng.integers(len(fresh)))]
        while state.cand_tau[pid] <= view.n_epochs and state.open():
            state.evaluate(view, pid)
    return state.trace("random", view.dataset_id, seed, flags, exhausted)


def sha_rungs(n_epochs: int, eta: int, r_min: int) -> list[int]:
    """Rung budgets r_min, eta*r_min, ... capped at the horizon."""
    rungs = []
    r = r_min
    while r <= n_epochs:
        rungs.append(r)
        r *= eta
    return rungs


def successive_halving(
    view: DatasetView,
    space: SearchSpace,
    budget_seconds: float,
    eta: int = 3,
    r_min: int = 1,
    seed: int = 0,
) -> RunTrace:
    """Synchronous successive halving: brackets of eta**s configs race at
    geometric rung budgets; the lowest-loss third (1/eta) is promoted, with
    epochs resumed from each pipeline's checkpointed progress.  No pipeline
    trains past the top rung, and the run ends exhausted once every pipeline
    has reached it."""
    if eta < 2:
        raise ValueError("eta must be >= 2")
    if not 1 <= r_min <= view.n_epochs:
        raise ValueError(f"r_min must lie in [1, {view.n_epochs}]")
    flags = {"budget_seconds": budget_seconds, "eta": eta, "r_min": r_min, "seed": seed}
    state = _RunState(view.n_pipelines, view.n_epochs, 1, budget_seconds)
    rng = substream(seed, "sha", view.dataset_id)
    rungs = sha_rungs(view.n_epochs, eta, r_min)
    n0 = eta ** (len(rungs) - 1)
    exhausted = False

    while state.open():
        # training stops at the top rung, so a pipeline that has reached it
        # has nothing left to race for
        fresh = [int(p) for p in np.flatnonzero(state.cand_tau <= rungs[-1])]
        if not fresh:
            exhausted = True
            break
        take = min(n0, len(fresh))
        chosen = rng.choice(len(fresh), size=take, replace=False)
        alive = sorted(fresh[i] for i in chosen)
        for level, rung in enumerate(rungs):
            for pid in alive:
                while state.cand_tau[pid] <= rung:
                    state.evaluate(view, pid)
                    if not state.open():
                        return state.trace("sha", view.dataset_id, seed, flags)
            if level == len(rungs) - 1:
                break
            scores = sorted((state.cand_curves[pid, rung - 1], pid) for pid in alive)
            keep = max(1, len(alive) // eta)
            alive = sorted(pid for _, pid in scores[:keep])
    return state.trace("sha", view.dataset_id, seed, flags, exhausted)


def gp_full(
    view: DatasetView,
    space: SearchSpace,
    budget_seconds: float,
    seed: int,
    fit_steps: int = 100,
    lr: float = 1e-4,
    max_steps: int | None = None,
) -> RunTrace:
    """Full-fidelity GP baseline: EI over whole learning curves only."""
    cfg = TuneConfig(
        budget_seconds=budget_seconds,
        use_meta=False,
        use_cost=False,
        full_fidelity=True,
        fit_steps=fit_steps,
        lr=lr,
        seed=seed,
        max_steps=max_steps,
    )
    return tune(view, space, cfg, method="gp-full")


# ---------------------------------------------------------------------------
# Aggregation


def rank_table(
    regrets_by_dataset: Mapping[str, Mapping[str, float]]
) -> dict[str, tuple[float, float]]:
    """Per-method mean and std of rank across datasets; within a dataset,
    methods rank by regret ascending with ties given the average rank.

    The ranks equal ``scipy.stats.rankdata(row, method="average")``: a
    value's rank is the count of smaller values plus (its ties, itself
    included, + 1) / 2, and a dataset with a NaN regret ranks all NaN."""
    datasets = list(regrets_by_dataset)
    if not datasets:
        raise ValueError("no datasets to rank")
    methods = sorted(regrets_by_dataset[datasets[0]])
    rows = []
    for did in datasets:
        cell = regrets_by_dataset[did]
        missing = [m for m in methods if m not in cell] + [m for m in cell if m not in methods]
        if missing:
            raise ValueError(f"dataset {did!r}: method set mismatch ({missing})")
        rows.append([cell[m] for m in methods])
    vals = np.array(rows, dtype=np.float64)
    below = (vals[:, None, :] < vals[:, :, None]).sum(axis=2)
    tied = (vals[:, None, :] == vals[:, :, None]).sum(axis=2)
    arr = below + 0.5 * (tied + 1)
    arr[np.isnan(vals).any(axis=1)] = np.nan
    return {
        m: (float(arr[:, j].mean()), float(arr[:, j].std()))
        for j, m in enumerate(methods)
    }


def write_reports(
    traces: Iterable[RunTrace],
    bench: TabularBenchmark,
    out_dir: str,
    grid_points: int = 51,
) -> dict[str, str]:
    """Emit results.csv, ranks.csv, and regret_curves.csv for a batch of runs.

    Datasets with degenerate bounds are excluded (with a warning); ranks
    use the per-(method, dataset) mean of final regret across seeds."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    curves = []
    for trace in sorted(traces, key=lambda t: (t.method, t.dataset, t.seed)):
        if bench.degenerate(trace.dataset):
            log.warning("dataset %s has degenerate bounds; excluded", trace.dataset)
            continue
        bounds = bench.y_bounds(trace.dataset)
        budget = float(trace.flags.get("budget_seconds", trace.final_cum_time or 1.0))
        final = trace_final_regret(trace, bounds)
        auc = trace_auc(trace, bounds, budget)
        rows.append(
            (
                trace.method,
                trace.dataset,
                trace.seed,
                final,
                auc,
                len(trace.steps),
                trace.final_cum_time,
                trace.overhead_seconds,
            )
        )
        grid = np.linspace(0.0, budget, grid_points)
        series = regret_over_time(trace, bounds, grid)
        for t, r in zip(grid, series):
            curves.append((trace.method, trace.dataset, trace.seed, float(t), float(r)))
    if not rows:
        raise ValueError("no usable run traces")

    results_path = os.path.join(out_dir, "results.csv")
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.write("method,dataset,seed,final_regret,auc_regret,steps,sim_seconds,overhead_seconds\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")

    cells: dict[str, dict[str, list[float]]] = {}
    for method, did, _, final, *_ in rows:
        cells.setdefault(did, {}).setdefault(method, []).append(final)
    regrets_by_dataset = {
        did: {m: float(np.mean(v)) for m, v in ms.items()} for did, ms in cells.items()
    }
    ranks = rank_table(regrets_by_dataset)
    ranks_path = os.path.join(out_dir, "ranks.csv")
    with open(ranks_path, "w", encoding="utf-8") as fh:
        fh.write("method,mean_rank,std_rank\n")
        for m in sorted(ranks):
            mean, std = ranks[m]
            fh.write(f"{m},{mean},{std}\n")

    curves_path = os.path.join(out_dir, "regret_curves.csv")
    with open(curves_path, "w", encoding="utf-8") as fh:
        fh.write("method,dataset,seed,time,regret\n")
        for row in curves:
            fh.write(",".join(str(v) for v in row) + "\n")
    return {"results": results_path, "ranks": ranks_path, "curves": curves_path}
