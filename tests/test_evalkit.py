import math
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from graybo.benchtab import GeneratorConfig, TabularBenchmark, generate
from graybo.evalkit import (
    DegenerateBoundsError,
    gp_full,
    normalized_regret,
    random_search,
    rank_table,
    regret_over_time,
    sha_rungs,
    successive_halving,
    trace_auc,
    write_reports,
)
from graybo.optimizer import RunTrace, TraceStep, TuneConfig, tune
from graybo.rng import substream


@pytest.fixture(scope="module")
def bench(small_space):
    cfg = GeneratorConfig(
        n_clusters=2,
        n_datasets=2,
        n_models=3,
        configs_per_dataset=9,
        n_epochs=9,
        obs_noise=0.01,
        cost_base=1.0,
        seed=31,
    )
    return TabularBenchmark(generate(cfg, small_space))


# ---------------------------------------------------------------------------
# normalized_regret


def test_regret_best_is_zero():
    assert normalized_regret(0.9, 0.1, 0.9) == 0.0


def test_regret_worst_is_one():
    assert normalized_regret(0.1, 0.1, 0.9) == 1.0


def test_regret_interpolates():
    assert normalized_regret(0.7, 0.1, 0.9) == pytest.approx(0.25)


def test_regret_clamps_with_warning():
    with pytest.warns(UserWarning):
        assert normalized_regret(1.5, 0.0, 1.0) == 0.0
    with pytest.warns(UserWarning):
        assert normalized_regret(-0.5, 0.0, 1.0) == 1.0


def test_regret_degenerate_bounds_raise():
    with pytest.raises(DegenerateBoundsError):
        normalized_regret(0.5, 0.5, 0.5)


def test_regret_affine_invariant():
    rng = substream(0, "affine")
    for _ in range(50):
        y_min, span = rng.uniform(0, 1), rng.uniform(0.1, 2)
        y = y_min + rng.uniform(0, 1) * span
        a, b = rng.uniform(0.5, 3), rng.uniform(-2, 2)
        base = normalized_regret(y, y_min, y_min + span)
        mapped = normalized_regret(a * y + b, a * y_min + b, a * (y_min + span) + b)
        assert mapped == pytest.approx(base, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    y_min=st.floats(0.0, 0.5),
    span=st.floats(0.01, 0.5),
    frac=st.floats(0.0, 1.0),
)
def test_regret_always_in_unit_interval(y_min, span, frac):
    val = normalized_regret(y_min + frac * span, y_min, y_min + span)
    assert 0.0 <= val <= 1.0


# ---------------------------------------------------------------------------
# random search


def test_random_search_tiny_budget_one_eval(bench, small_space):
    trace = random_search(bench.view(bench.dataset_ids[0]), small_space, 1e-9, seed=0)
    assert len(trace.steps) == 1


def test_random_search_rejects_zero_max_steps(bench, small_space):
    # an empty trace could not be scored by the reports
    view = bench.view(bench.dataset_ids[0])
    with pytest.raises(ValueError, match="max_steps"):
        random_search(view, small_space, 1e9, seed=0, max_steps=0)
    assert len(random_search(view, small_space, 1e9, seed=0, max_steps=1).steps) == 1


def test_random_search_deterministic(bench, small_space):
    a = random_search(bench.view(bench.dataset_ids[0]), small_space, 150.0, seed=5)
    b = random_search(bench.view(bench.dataset_ids[0]), small_space, 150.0, seed=5)
    assert a.to_json() == b.to_json()


def test_random_search_evaluates_curves_to_horizon(bench, small_space):
    view = bench.view(bench.dataset_ids[0])
    trace = random_search(view, small_space, 1e9, seed=1)
    assert trace.exhausted
    per_pipeline: dict[int, list[int]] = {}
    for s in trace.steps:
        per_pipeline.setdefault(s.pipeline_id, []).append(s.epoch)
    for epochs in per_pipeline.values():
        assert epochs == list(range(1, view.n_epochs + 1))


def test_random_search_draws_uniformly(small_space):
    cfg = GeneratorConfig(
        n_clusters=1,
        n_datasets=1,
        n_models=3,
        configs_per_dataset=400,
        n_epochs=2,
        obs_noise=0.0,
        cost_base=1.0,
        seed=2,
    )
    bench = TabularBenchmark(generate(cfg, small_space))
    view = bench.view(bench.dataset_ids[0])
    counts = np.zeros(view.n_pipelines)
    for seed in range(4):
        trace = random_search(view, small_space, 1e9, seed=seed, max_steps=500)
        for s in trace.steps:
            if s.epoch == 1:
                counts[s.pipeline_id] += 1
    # ~1000 starts over 400 pipelines
    expected = counts.sum() / len(counts)
    chi2 = ((counts - expected) ** 2 / expected).sum()
    p = 1.0 - sstats.chi2.cdf(chi2, df=len(counts) - 1)
    assert p > 0.01


# ---------------------------------------------------------------------------
# successive halving


def test_sha_rung_budgets():
    assert sha_rungs(9, eta=3, r_min=1) == [1, 3, 9]
    assert sha_rungs(50, eta=3, r_min=1) == [1, 3, 9, 27]


def test_sha_bracket_structure(bench, small_space):
    view = bench.view(bench.dataset_ids[0])  # 9 pipelines, 9 epochs
    trace = successive_halving(view, small_space, 1e9, eta=3, r_min=1, seed=0)
    first = trace.steps[: 9 + 3 * 2 + 1 * 6]
    by_pid: dict[int, int] = {}
    for s in first:
        by_pid[s.pipeline_id] = max(by_pid.get(s.pipeline_id, 0), s.epoch)
    depth_counts = {1: 0, 3: 0, 9: 0}
    for depth in by_pid.values():
        depth_counts[depth] += 1
    # 9 configs at rung 1, 3 promoted to rung 3, 1 to rung 9
    assert len(by_pid) == 9
    assert depth_counts[9] == 1
    assert depth_counts[3] == 2  # promoted but not to the top
    assert depth_counts[1] == 6


def test_sha_total_epochs_per_bracket():
    # 9 configs, eta=3: 9*1 + 3*(3-1) + 1*(9-3) = 21 epoch evaluations
    assert 9 * 1 + 3 * (3 - 1) + 1 * (9 - 3) == 21


def test_sha_first_bracket_consumes_21_epochs(bench, small_space):
    view = bench.view(bench.dataset_ids[0])
    trace = successive_halving(view, small_space, 1e9, eta=3, r_min=1, seed=0)
    assert len(trace.steps) >= 21
    bracket = trace.steps[:21]
    assert sum(1 for _ in bracket) == 21


def test_sha_promotes_lowest_losses(bench, small_space):
    view = bench.view(bench.dataset_ids[0])
    trace = successive_halving(view, small_space, 1e9, eta=3, r_min=1, seed=3)
    rung1 = {}
    for s in trace.steps[:9]:
        rung1[s.pipeline_id] = s.loss
    promoted = {s.pipeline_id for s in trace.steps[9:15]}
    best3 = sorted(rung1, key=lambda pid: (rung1[pid], pid))[:3]
    assert promoted == set(best3)


def test_sha_stops_below_horizon_when_every_pipeline_is_at_the_top_rung(tiny_bench, small_space):
    # 10 epochs, eta=3: rungs 1, 3, 9, so no pipeline is ever trained to
    # epoch 10; with an unbounded budget the run must still end
    view = tiny_bench.view(tiny_bench.dataset_ids[0])
    with pytest.raises(ValueError, match="r_min"):
        successive_halving(view, small_space, 1e9, r_min=view.n_epochs + 1)
    guarded = hasattr(signal, "SIGALRM")
    if guarded:

        def _timeout(signum, frame):
            raise TimeoutError("successive_halving did not return")

        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(20)
    try:
        trace = successive_halving(view, small_space, 1e9, eta=3, r_min=1, seed=0)
    finally:
        if guarded:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert trace.exhausted
    top = {}
    for s in trace.steps:
        top[s.pipeline_id] = max(top.get(s.pipeline_id, 0), s.epoch)
    assert set(top) == set(range(view.n_pipelines))
    assert set(top.values()) == {9}


def test_sha_deterministic(bench, small_space):
    view = bench.view(bench.dataset_ids[0])
    a = successive_halving(view, small_space, 500.0, seed=7)
    b = successive_halving(view, small_space, 500.0, seed=7)
    assert a.to_json() == b.to_json()


def test_sha_rejects_bad_eta(bench, small_space):
    with pytest.raises(ValueError):
        successive_halving(bench.view(bench.dataset_ids[0]), small_space, 10.0, eta=1)


# ---------------------------------------------------------------------------
# gp-full


def test_gp_full_consumes_full_curve_costs(bench, small_space):
    view = bench.view(bench.dataset_ids[0])
    trace = gp_full(view, small_space, 1e9, seed=0, fit_steps=3)
    table = bench.md.datasets[bench.dataset_ids[0]]
    for s in trace.steps:
        assert s.epoch == view.n_epochs
        assert s.step_cost == pytest.approx(table.costs[s.pipeline_id, -1])


def test_gp_full_first_step_matches_tune_seed(bench, small_space):
    view = bench.view(bench.dataset_ids[0])
    gf = gp_full(view, small_space, 1e9, seed=9, fit_steps=3, max_steps=2)
    cfg = TuneConfig(budget_seconds=1e9, fit_steps=3, seed=9, max_steps=2)
    qt = tune(view, small_space, cfg)
    assert gf.steps[0].pipeline_id == qt.steps[0].pipeline_id


def test_gp_full_eventually_evaluates_everything(small_space):
    cfg = GeneratorConfig(
        n_clusters=1,
        n_datasets=1,
        n_models=3,
        configs_per_dataset=3,
        n_epochs=4,
        obs_noise=0.0,
        cost_base=1.0,
        seed=4,
    )
    bench = TabularBenchmark(generate(cfg, small_space))
    trace = gp_full(bench.view(bench.dataset_ids[0]), small_space, 1e9, seed=1, fit_steps=3)
    assert {s.pipeline_id for s in trace.steps} == {0, 1, 2}
    assert trace.exhausted


# ---------------------------------------------------------------------------
# ranks


def test_rank_table_constant_ordering():
    regrets = {f"d{i}": {"a": 0.1, "b": 0.2} for i in range(3)}
    ranks = rank_table(regrets)
    assert ranks["a"] == (1.0, 0.0)
    assert ranks["b"] == (2.0, 0.0)


def test_rank_table_tie_average():
    regrets = {"d0": {"a": 0.1, "b": 0.1}, "d1": {"a": 0.1, "b": 0.2}}
    ranks = rank_table(regrets)
    assert ranks["a"] == (1.25, 0.25)
    assert ranks["b"] == (1.75, 0.25)


def test_rank_table_mean_identity():
    rng = substream(1, "ranks")
    methods = ["a", "b", "c", "d"]
    regrets = {
        f"d{i}": {m: float(rng.uniform()) for m in methods} for i in range(5)
    }
    ranks = rank_table(regrets)
    mean_of_means = np.mean([ranks[m][0] for m in methods])
    assert mean_of_means == pytest.approx((len(methods) + 1) / 2)


def test_rank_table_matches_sort_oracle():
    rng = substream(2, "oracle")
    methods = ["a", "b", "c", "d"]
    regrets = {
        f"d{i}": {m: float(rng.choice([0.1, 0.2, 0.2, 0.5])) for m in methods}
        for i in range(5)
    }
    ranks = rank_table(regrets)
    per_method = {m: [] for m in methods}
    for did in regrets:
        vals = regrets[did]
        for m in methods:
            rank = 1 + sum(1 for o in methods if vals[o] < vals[m])
            ties = sum(1 for o in methods if vals[o] == vals[m])
            per_method[m].append(rank + (ties - 1) / 2)
    for m in methods:
        assert ranks[m][0] == pytest.approx(np.mean(per_method[m]))
        assert ranks[m][1] == pytest.approx(np.std(per_method[m]))


def _rankdata_table(rows, methods):
    # the (mean, std) per method that scipy's average ranks give
    arr = np.array([sstats.rankdata(r, method="average") for r in rows])
    return {m: (float(arr[:, j].mean()), float(arr[:, j].std())) for j, m in enumerate(methods)}


def test_rank_table_equals_scipy_rankdata():
    rng = substream(3, "rankdata")
    for trial in range(300):
        n_methods = int(rng.integers(1, 7))
        methods = [f"m{j}" for j in range(n_methods)]
        rows = rng.choice([-np.inf, -0.0, 0.0, 0.1, 0.2, 0.2, 0.5, np.inf], size=(4, n_methods))
        rows[0] = rng.uniform(size=n_methods)
        if trial % 3 == 0:
            rows[1, int(rng.integers(n_methods))] = np.nan
        regrets = {f"d{i}": dict(zip(methods, map(float, r))) for i, r in enumerate(rows)}
        got = rank_table(regrets)
        want = _rankdata_table(rows, methods)
        # bitwise, so NaN equals NaN
        assert np.array([got[m] for m in methods]).tobytes() == np.array(
            [want[m] for m in methods]
        ).tobytes()
        for r in rows:  # one dataset: its mean rank is the row's rank
            one = rank_table({"d": dict(zip(methods, map(float, r)))})
            ranks = sstats.rankdata(r, method="average")
            assert np.array([one[m][0] for m in methods]).tobytes() == ranks.tobytes()


def test_rank_table_missing_cell_raises():
    with pytest.raises(ValueError):
        rank_table({"d0": {"a": 0.1, "b": 0.2}, "d1": {"a": 0.1}})


# ---------------------------------------------------------------------------
# regret over time


def _toy_trace(budget=10.0):
    trace = RunTrace(
        method="m", dataset="d", seed=0, flags={"budget_seconds": budget}
    )
    data = [(2.0, 0.5, 0.5), (5.0, 0.7, 0.5), (8.0, 0.2, 0.2)]
    for t, loss, inc in data:
        trace.steps.append(
            TraceStep(
                pipeline_id=0,
                epoch=1,
                loss=loss,
                step_cost=1.0,
                cum_time=t,
                incumbent=inc,
            )
        )
    return trace


def test_regret_series_before_first_eval_is_one():
    trace = _toy_trace()
    series = regret_over_time(trace, (0.0, 1.0), [0.0, 1.0, 1.9])
    assert list(series) == [1.0, 1.0, 1.0]


def test_regret_series_right_continuous_steps():
    trace = _toy_trace()
    series = regret_over_time(trace, (0.0, 1.0), [2.0, 4.9, 8.0, 9.5])
    assert list(series) == pytest.approx([0.5, 0.5, 0.2, 0.2])


def test_regret_series_constant_incumbent():
    trace = _toy_trace()
    for s in trace.steps:
        pass
    flat = RunTrace(method="m", dataset="d", seed=0, flags={})
    flat.steps = [
        TraceStep(0, 1, 0.5, 1.0, float(t), 0.5) for t in (1, 2, 3)
    ]
    series = regret_over_time(flat, (0.0, 1.0), [1.0, 2.5, 3.0])
    assert len(set(series)) == 1


def test_auc_matches_grid_integration_oracle():
    trace = _toy_trace(budget=10.0)
    auc = trace_auc(trace, (0.0, 1.0), 10.0)
    grid = np.linspace(0.0, 10.0, 100_001)
    series = regret_over_time(trace, (0.0, 1.0), grid)
    numeric = np.trapezoid(series, grid) / 10.0
    assert auc == pytest.approx(numeric, abs=1e-3)


def test_auc_extends_final_incumbent_to_horizon():
    trace = _toy_trace()
    # exact: 1.0 on [0,2), 0.5 on [2,8), 0.2 on [8,10]
    expected = (2.0 * 1.0 + 6.0 * 0.5 + 2.0 * 0.2) / 10.0
    assert trace_auc(trace, (0.0, 1.0), 10.0) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# reports


def test_write_reports_produces_csvs(bench, small_space, tmp_path):
    traces = []
    for did in bench.dataset_ids:
        view = bench.view(did)
        for seed in range(2):
            traces.append(random_search(view, small_space, 100.0, seed=seed))
            traces.append(
                successive_halving(view, small_space, 100.0, seed=seed)
            )
    paths = write_reports(traces, bench, tmp_path)
    results = open(paths["results"]).read().splitlines()
    assert results[0] == "method,dataset,seed,final_regret,auc_regret,steps,sim_seconds,overhead_seconds"
    assert len(results) == 1 + len(traces)
    ranks = open(paths["ranks"]).read().splitlines()
    assert ranks[0] == "method,mean_rank,std_rank"
    mean_ranks = [float(line.split(",")[1]) for line in ranks[1:]]
    assert np.mean(mean_ranks) == pytest.approx((len(mean_ranks) + 1) / 2)
    curves = open(paths["curves"]).read().splitlines()
    assert curves[0] == "method,dataset,seed,time,regret"
    assert len(curves) > 1


def test_write_reports_deterministic(bench, small_space, tmp_path):
    traces = [
        random_search(bench.view(bench.dataset_ids[0]), small_space, 60.0, seed=0),
        successive_halving(bench.view(bench.dataset_ids[0]), small_space, 60.0, seed=0),
    ]
    p1 = write_reports(traces, bench, tmp_path / "a")
    p2 = write_reports(list(reversed(traces)), bench, tmp_path / "b")
    for key in p1:
        assert open(p1[key]).read() == open(p2[key]).read()


def test_write_reports_empty_raises(bench, tmp_path):
    with pytest.raises(ValueError):
        write_reports([], bench, tmp_path)
