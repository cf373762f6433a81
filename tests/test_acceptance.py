"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite is deterministic.
"""

import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats as sstats

from oracle import expected_improvement, fd_noise_floor, grad_check, history_inputs

from graybo import benchtab
from graybo.core import (
    History,
    MetaFeatures,
    ModelInfo,
    Observation,
    best_in_history,
    encode,
    incumbent_loss,
    query_epoch,
    sample_pipeline,
)
from graybo.costmodel import CostPredictor, log_cost_mse
from graybo.evalkit import (
    gp_full,
    normalized_regret,
    random_search,
    rank_table,
    trace_auc,
)
from graybo.metalearn import MetaCheckpoint, meta_train, split_folds, zero_shot_rank_eval
from graybo.optimizer import RunTrace, TuneConfig, tune
from graybo.rng import substream
from graybo.surrogate import DeepKernelGP, PredictorContext, kernel_matrix

GEN_SEED = 11
META_SEEDS = (0, 1, 2, 3, 4)
RUN_SEEDS = (0, 1, 2, 3, 4)
QT_KW = dict(fit_steps=10, fit_window=96, max_steps=300, refit_period=5)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared fixtures


@pytest.fixture(scope="module")
def space():
    return benchtab.default_search_space(8)


@pytest.fixture(scope="module")
def bench(space):
    cfg = benchtab.GeneratorConfig(
        n_clusters=5,
        n_datasets=20,
        n_models=8,
        configs_per_dataset=100,
        n_epochs=50,
        obs_noise=0.01,
        cost_base=1.0,
        seed=GEN_SEED,
    )
    return benchtab.TabularBenchmark(benchtab.generate(cfg, space))


@pytest.fixture(scope="module")
def folds(bench):
    # 4 folds of 5: two train folds + one validation fold participate in
    # meta-training (15 datasets); one fold stays fully held out.
    return split_folds(bench.md.dataset_ids, k=4, seed=0, val_fold=1, test_fold=0)


_meta_train_seconds = {"value": 0.0}


@pytest.fixture(scope="module")
def meta_results(bench, folds, space):
    results = []
    started = time.perf_counter()
    for seed in META_SEEDS:
        results.append(
            meta_train(
                bench.md,
                folds,
                space,
                iters=2000,
                eval_every=100,
                patience=5,
                seed=seed,
            )
        )
    _meta_train_seconds["value"] = time.perf_counter() - started
    return results


@pytest.fixture(scope="module")
def shared_dirs(tmp_path_factory, bench, space, meta_results):
    root = tmp_path_factory.mktemp("acceptance")
    bdir = root / "bench"
    benchtab.save_metadataset(bench.md, space, bdir)
    from graybo.core import save_space

    save_space(space, bdir / "space.json")
    ck_path = root / "meta.json"
    meta_results[0].checkpoint.save(ck_path)
    return {"bench": str(bdir), "checkpoint": str(ck_path)}


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness


def _gradcheck_history(space, meta, seed, n_obs, n_epochs):
    rng = substream(seed, "accept-grad", n_obs)
    plan = {2: [1, 1], 8: [5, 3], 32: [8, 8, 8, 8]}[n_obs]
    h = History()
    encs = {}
    for pid, epochs in enumerate(plan):
        p = sample_pipeline(space, rng)
        encs[pid] = encode(p, space)
        cost = 0.0
        for ep in range(1, epochs + 1):
            cost += float(rng.uniform(1.0, 5.0))
            h.append(Observation(pid, ep, float(rng.uniform(0.1, 0.9)), cost))
    ctx = PredictorContext.from_space(space, meta, n_epochs, 1)
    return ctx, h, encs


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    space = benchtab.default_search_space(3)
    meta = MetaFeatures(n_samples=5000, resolution=128, channels=3, classes=20)
    worst = 0.0
    for seed in range(5):
        for n_obs in (2, 8, 32):
            ctx, h, encs = _gradcheck_history(space, meta, seed, n_obs, n_epochs=8)
            inputs, y, costs = history_inputs(h, encs, ctx)
            gp = DeepKernelGP(ctx, substream(seed, "accept-gp", n_obs))
            gp.set_normalization(y)

            def nll():
                return gp.nll(gp.features_batch(inputs), y)

            def nll_grads():
                gp.vector.grad[...] = 0.0
                gp.nll_with_grads(inputs, y)

            err = grad_check(gp.params(), nll, nll_grads, noise_floor=fd_noise_floor(nll()))
            worst = max(worst, err)

            cp = CostPredictor(ctx, substream(seed, "accept-cp", n_obs))

            def mse():
                return log_cost_mse(cp.raw_batch(inputs), costs)

            def mse_grads():
                cp.vector.grad[...] = 0.0
                cp.mse_with_grads(inputs, costs)

            err = grad_check(cp.params(), mse, mse_grads, noise_floor=fd_noise_floor(mse()))
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    _report(
        1,
        worst <= 1e-4 and elapsed < 120,
        f"max relative gradient error {worst:.2e} over 5 seeds x {{2,8,32}}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: GP oracle equivalence


def test_criterion_2_gp_oracle_equivalence(space):
    started = time.perf_counter()
    meta = MetaFeatures(n_samples=2000, resolution=32, channels=3, classes=10)
    ctx = PredictorContext.from_space(space, meta, 10, 1)
    worst = 0.0
    rng = substream(0, "accept-oracle")
    for trial in range(20):
        n = int(rng.integers(1, 11))
        t = int(rng.integers(1, 6))
        d = 6
        Ztr = rng.standard_normal((n, d))
        ytr = rng.uniform(0.05, 0.95, n)
        Zte = rng.standard_normal((t, d))
        gp = DeepKernelGP(ctx, substream(trial, "accept-oracle-gp"))
        gp.set_normalization(ytr)
        post = gp.posterior(Ztr, ytr, Zte)
        K = kernel_matrix(Ztr, Ztr, gp.kernel) + gp.kernel.noise_var * np.eye(n)
        Kinv = np.linalg.inv(K)
        Ks = kernel_matrix(Ztr, Zte, gp.kernel)
        Kss = kernel_matrix(Zte, Zte, gp.kernel)
        yn = (ytr - gp.y_mean) / gp.y_std
        mean_ref = gp.y_mean + gp.y_std * (Ks.T @ Kinv @ yn)
        cov_ref = (Kss - Ks.T @ Kinv @ Ks) * gp.y_std**2
        nll_ref = (
            0.5 * yn @ Kinv @ yn
            + 0.5 * math.log(np.linalg.det(K))
            + 0.5 * n * math.log(2 * math.pi)
        )
        worst = max(worst, float(np.abs(post.mean - mean_ref).max()))
        worst = max(worst, float(np.abs(post.cov - cov_ref).max()))
        worst = max(worst, abs(gp.nll(Ztr, ytr) - nll_ref))
    elapsed = time.perf_counter() - started
    _report(
        2,
        worst <= 1e-8 and elapsed < 10,
        f"max |exact - dense-inverse| {worst:.2e} over 20 instances, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: EI against Monte Carlo


def test_criterion_3_ei_monte_carlo():
    started = time.perf_counter()
    rng = substream(0, "accept-ei")
    samples = np.random.default_rng(424242).standard_normal(10_000_000)
    worst = 0.0
    for _ in range(50):
        mu = float(rng.uniform(0.0, 1.0))
        sigma = float(rng.uniform(0.01, 1.0))
        inc = float(rng.uniform(0.0, 1.0))
        mc = float(np.maximum(inc - (mu + sigma * samples), 0.0).mean())
        worst = max(worst, abs(expected_improvement(mu, sigma, inc) - mc))
    # sigma = 0 edge cases are exact
    exact_ok = (
        expected_improvement(0.5, 0.0, 0.4) == 0.0
        and expected_improvement(0.4, 0.0, 0.5) == pytest.approx(0.1, abs=1e-15)
        and expected_improvement(0.5, 0.0, 0.5) == 0.0
    )
    elapsed = time.perf_counter() - started
    _report(
        3,
        worst <= 1e-3 and exact_ok and elapsed < 30,
        f"max |closed-form - MC(1e7)| {worst:.2e} over 50 triples, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: Pareto hub against brute force


def _dominates(a, b):
    ge = a.upstream_accuracy >= b.upstream_accuracy and a.param_count <= b.param_count
    strict = a.upstream_accuracy > b.upstream_accuracy or a.param_count < b.param_count
    return ge and strict


def test_criterion_4_pareto_oracle():
    started = time.perf_counter()
    rng = substream(0, "accept-pareto")
    ok = True
    for trial in range(200):
        n = int(rng.integers(1, 101))
        models = [
            ModelInfo(
                name=f"m{i}",
                param_count=float(rng.choice([0.5, 1.07, 2.0, 5.0, 5.0, 26.0, 305.67])),
                upstream_accuracy=float(
                    rng.choice([70.0, 73.632, 80.0, 80.0, 89.5, 90.691])
                ),
            )
            for i in range(n)
        ]
        front = {m.name for m in benchtab.pareto_hub(models)}
        oracle = {
            m.name
            for m in models
            if not any(_dominates(o, m) for o in models if o is not m)
        }
        if front != oracle:
            ok = False
            break
    fixture = benchtab.pareto_hub(
        [
            ModelInfo(name="large", param_count=305.67, upstream_accuracy=90.691),
            ModelInfo(name="small", param_count=1.07, upstream_accuracy=73.632),
        ]
    )
    both_kept = {m.name for m in fixture} == {"large", "small"}
    elapsed = time.perf_counter() - started
    _report(
        4,
        ok and both_kept and elapsed < 5,
        f"200 fuzz inputs match the O(n^2) oracle, frontier fixture kept, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 5: regret and rank identities


def test_criterion_5_regret_and_ranks():
    started = time.perf_counter()
    rng = substream(0, "accept-regret")
    ok = True
    for _ in range(2000):
        y_min = float(rng.uniform(0.0, 0.5))
        span = float(rng.uniform(1e-6, 0.5))
        y = y_min + float(rng.uniform(0.0, 1.0)) * span
        val = normalized_regret(y, y_min, y_min + span)
        if not 0.0 <= val <= 1.0:
            ok = False
            break
    exact = (
        normalized_regret(0.9, 0.1, 0.9) == 0.0 and normalized_regret(0.1, 0.1, 0.9) == 1.0
    )
    rank_ok = True
    for k in (2, 3, 5, 7):
        methods = [f"m{i}" for i in range(k)]
        regrets = {
            f"d{j}": {m: float(rng.uniform()) for m in methods} for j in range(6)
        }
        ranks = rank_table(regrets)
        mean_of_means = np.mean([ranks[m][0] for m in methods])
        if abs(mean_of_means - (k + 1) / 2) > 1e-12:
            rank_ok = False
    elapsed = time.perf_counter() - started
    _report(
        5,
        ok and exact and rank_ok and elapsed < 5,
        f"regret in [0,1] on 2000 fuzz inputs, endpoints exact, rank means (k+1)/2, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: meta-learning transfers


def test_criterion_6_meta_learning_transfers(bench, folds, space, meta_results):
    started = time.perf_counter()
    held_out = folds.test_ids
    meta_corrs = []
    for seed, result in zip(META_SEEDS, meta_results):
        for did in held_out:
            z = zero_shot_rank_eval(
                result.checkpoint, bench.md.datasets[did], space, epoch=50, seed=seed
            )
            meta_corrs.append(z.correlation)
    rand_corrs = []
    for seed in range(20):
        for did in held_out:
            z = zero_shot_rank_eval(
                None, bench.md.datasets[did], space, epoch=50, seed=seed
            )
            rand_corrs.append(z.correlation)
    meta_median = statistics.median(meta_corrs)
    rand_median = statistics.median(rand_corrs)
    elapsed = time.perf_counter() - started + _meta_train_seconds["value"]
    _report(
        6,
        meta_median > rand_median and elapsed < 600,
        f"held-out zero-shot median: meta {meta_median:.3f} vs random-init {rand_median:.3f}, "
        f"{elapsed:.0f}s incl. meta-training",
    )


# ---------------------------------------------------------------------------
# Criterion 7: end-to-end qualitative ordering


_worker_cache: dict = {}


def _load_shared(bench_dir: str, ck_path: str):
    key = (bench_dir, ck_path)
    if key not in _worker_cache:
        from graybo.core import load_space

        space = load_space(os.path.join(bench_dir, "space.json"))
        md = benchtab.load_metadataset(bench_dir, space)
        ck = MetaCheckpoint.load(ck_path) if ck_path else None
        _worker_cache[key] = (benchtab.TabularBenchmark(md), space, ck)
    return _worker_cache[key]


def _c7_run(args):
    method, did, seed, bench_dir, ck_path = args
    bench, space, ck = _load_shared(bench_dir, ck_path)
    view = bench.view(did)
    table = bench.md.datasets[did]
    budget = 50.0 * float(np.median(table.final_costs()))
    if method == "qt":
        cfg = TuneConfig(
            budget_seconds=budget, seed=seed, use_meta=True, use_cost=True, **QT_KW
        )
        trace = tune(view, space, cfg, checkpoint=ck)
    elif method == "qt-nm-nc":
        cfg = TuneConfig(
            budget_seconds=budget, seed=seed, use_meta=False, use_cost=False, **QT_KW
        )
        trace = tune(view, space, cfg)
    elif method == "gp-full":
        trace = gp_full(view, space, budget, seed, fit_steps=QT_KW["fit_steps"])
    else:
        trace = random_search(view, space, budget, seed)
    auc = trace_auc(trace, bench.y_bounds(did), budget)
    overshoot_ok = trace.final_cum_time <= budget + trace.steps[-1].step_cost
    return method, did, seed, auc, overshoot_ok, trace.to_json()


def test_criterion_7_end_to_end_ordering(bench, folds, shared_dirs):
    started = time.perf_counter()
    held_out = folds.test_ids
    work = []
    for method in ("qt", "qt-nm-nc", "gp-full", "random"):
        ck = shared_dirs["checkpoint"] if method == "qt" else ""
        for did in held_out:
            for seed in RUN_SEEDS:
                work.append((method, did, seed, shared_dirs["bench"], ck))
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    results = []
    with ProcessPoolExecutor(max_workers=4, mp_context=ctx) as pool:
        for out in pool.map(_c7_run, work):
            results.append(out)
    aucs: dict[str, list[float]] = {}
    overshoots = []
    for method, did, seed, auc, overshoot_ok, _ in results:
        aucs.setdefault(method, []).append(auc)
        overshoots.append(overshoot_ok)
    med = {m: statistics.median(v) for m, v in aucs.items()}
    ordering = (
        med["qt"] < med["random"]
        and med["qt"] <= med["qt-nm-nc"]
        and med["qt"] < med["gp-full"]
    )
    elapsed = time.perf_counter() - started
    _report(
        7,
        ordering and all(overshoots) and elapsed < 900,
        "median regret AUC: "
        + ", ".join(f"{m}={med[m]:.4f}" for m in ("qt", "qt-nm-nc", "gp-full", "random"))
        + f", {elapsed:.0f}s on 4 workers",
    )


# ---------------------------------------------------------------------------
# Criterion 8: budget discipline and determinism


def test_criterion_8_budget_and_determinism(shared_dirs, tmp_path):
    from graybo.cli import main

    bdir = shared_dirs["bench"]
    overshoot_ok = True
    for seed in (0, 1):
        for args_extra, method in ((["--ablate", "no-meta", "no-cost"], "tune"),):
            out = tmp_path / f"budget_{seed}.json"
            code = main(
                [
                    "tune",
                    "--bench",
                    bdir,
                    "--dataset",
                    "d00",
                    "--budget-seconds",
                    "40000",
                    "--fit-steps",
                    "5",
                    "--max-steps",
                    "60",
                    "--seed",
                    str(seed),
                    "--out",
                    str(out),
                    *args_extra,
                ]
            )
            assert code == 0
            trace = RunTrace.from_json(open(out).read())
            if trace.steps and not trace.exhausted and trace.flags.get("max_steps") is None:
                overshoot_ok &= (
                    trace.final_cum_time <= 40000 + trace.steps[-1].step_cost
                )
            overshoot_ok &= trace.final_cum_time <= 40000 + max(
                s.step_cost for s in trace.steps
            )

    # byte-identical traces, checkpoints, and reports across two runs
    identical = True
    pairs = []
    for run in range(2):
        tdir = tmp_path / f"run{run}"
        tdir.mkdir()
        main(
            [
                "tune",
                "--bench",
                bdir,
                "--dataset",
                "d00,d01",
                "--budget-seconds",
                "9000",
                "--fit-steps",
                "5",
                "--max-steps",
                "25",
                "--seed",
                "0",
                "--out",
                str(tdir / "runs"),
            ]
        )
        main(
            [
                "baseline",
                "--method",
                "random",
                "--bench",
                bdir,
                "--dataset",
                "d00,d01",
                "--budget-seconds",
                "9000",
                "--seed",
                "0",
                "--out",
                str(tdir / "runs"),
            ]
        )
        main(
            [
                "metatrain",
                "--bench",
                bdir,
                "--folds",
                "4",
                "--iters",
                "40",
                "--eval-every",
                "20",
                "--seed",
                "5",
                "--out",
                str(tdir / "ck.json"),
            ]
        )
        main(
            [
                "report",
                "--runs",
                str(tdir / "runs"),
                "--bench",
                bdir,
                "--out",
                str(tdir / "rep"),
            ]
        )
        pairs.append(tdir)
    a, b = pairs
    for rel in [
        "ck.json",
        "rep/results.csv",
        "rep/ranks.csv",
        "rep/regret_curves.csv",
    ] + [f"runs/{name}" for name in sorted(os.listdir(a / "runs"))]:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            identical = False
            break
    _report(
        8,
        overshoot_ok and identical,
        "budget overshoot bounded by the final step; traces, checkpoints, reports byte-identical",
    )


# ---------------------------------------------------------------------------
# Criterion 9: core loop semantics


def test_criterion_9_algorithm_semantics(tiny_bench, small_space):
    ok = True
    details = []

    # query-epoch progression: dt for unobserved, then +dt per evaluation
    h = History()
    if query_epoch(h, 0, 1) != 1 or query_epoch(h, 0, 3) != 3:
        ok, _ = False, details.append("fresh query epoch")
    h.append(Observation(0, 1, 0.5, 1.0))
    h.append(Observation(0, 2, 0.4, 2.0))
    h.append(Observation(0, 3, 0.35, 3.0))
    if query_epoch(h, 0, 1) != 4:
        ok, _ = False, details.append("progression")

    # incumbent: exact epoch, then fallback to strictly earlier epochs
    h2 = History()
    h2.append(Observation(0, 3, 0.4, 1.0))
    h2.append(Observation(1, 3, 0.3, 1.0))
    if incumbent_loss(h2, 3) != 0.3:
        ok, _ = False, details.append("incumbent at epoch")
    h3 = History()
    h3.append(Observation(0, 1, 0.5, 1.0))
    h3.append(Observation(0, 2, 0.45, 2.0))
    if incumbent_loss(h3, 3) != 0.45:
        ok, _ = False, details.append("incumbent fallback")

    # mandatory initial random evaluation under a sub-minimal budget
    view = tiny_bench.view(tiny_bench.dataset_ids[0])
    trace = tune(view, small_space, TuneConfig(budget_seconds=1e-9, fit_steps=2, seed=0))
    if len(trace.steps) != 1:
        ok, _ = False, details.append("mandatory first evaluation")

    # returned pipeline equals the history minimum
    trace2 = tune(
        view, small_space, TuneConfig(budget_seconds=200.0, fit_steps=2, seed=1)
    )
    h4 = History()
    for s in trace2.steps:
        h4.append(Observation(s.pipeline_id, s.epoch, s.loss, s.cum_time))
    if trace2.best() != best_in_history(h4):
        ok, _ = False, details.append("min-loss return")

    _report(9, ok, "query-epoch progression, incumbent fallback, mandatory first step, min-loss return")
