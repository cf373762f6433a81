import json
import math

import numpy as np
import pytest

from graybo.benchtab import GeneratorConfig, TabularBenchmark, generate
from graybo.core import History, best_in_history
from graybo.optimizer import RunTrace, TraceStep, TuneConfig, incumbent_curve, tune


@pytest.fixture(scope="module")
def bench(small_space):
    cfg = GeneratorConfig(
        n_clusters=2,
        n_datasets=2,
        n_models=3,
        configs_per_dataset=6,
        n_epochs=5,
        obs_noise=0.01,
        cost_base=1.0,
        seed=21,
    )
    return TabularBenchmark(generate(cfg, small_space))


def _cfg(**kw):
    defaults = dict(budget_seconds=1e9, fit_steps=5, lr=1e-3, seed=0)
    defaults.update(kw)
    return TuneConfig(**defaults)


def _run(bench, space, **kw):
    view = bench.view(bench.dataset_ids[0])
    return tune(view, space, _cfg(**kw))


def test_single_pipeline_exhausts_whole_curve(small_space):
    cfg_gen = GeneratorConfig(
        n_clusters=1,
        n_datasets=1,
        n_models=3,
        configs_per_dataset=1,
        n_epochs=5,
        obs_noise=0.0,
        cost_base=1.0,
        seed=5,
    )
    bench = TabularBenchmark(generate(cfg_gen, small_space))
    trace = _run(bench, small_space)
    assert trace.exhausted
    assert [s.epoch for s in trace.steps] == [1, 2, 3, 4, 5]
    assert {s.pipeline_id for s in trace.steps} == {0}


def test_tiny_budget_still_runs_one_evaluation(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=1e-9)
    assert len(trace.steps) == 1


def test_identical_seeds_reproduce_identical_traces(bench, small_space):
    t1 = _run(bench, small_space, budget_seconds=200.0, seed=3)
    t2 = _run(bench, small_space, budget_seconds=200.0, seed=3)
    assert t1.to_json() == t2.to_json()


def test_different_seeds_differ(bench, small_space):
    t1 = _run(bench, small_space, budget_seconds=200.0, seed=3)
    t2 = _run(bench, small_space, budget_seconds=200.0, seed=4)
    assert t1.to_json() != t2.to_json()


def test_budget_overshoot_bounded_by_final_step(bench, small_space):
    budget = 120.0
    trace = _run(bench, small_space, budget_seconds=budget)
    assert trace.final_cum_time <= budget + trace.steps[-1].step_cost
    if not trace.exhausted and trace.flags.get("max_steps") is None:
        assert trace.final_cum_time > budget


def test_epoch_progressions_have_no_gaps(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=300.0)
    seen: dict[int, list[int]] = {}
    for s in trace.steps:
        seen.setdefault(s.pipeline_id, []).append(s.epoch)
    for epochs in seen.values():
        assert epochs == list(range(1, len(epochs) + 1))


def test_cumulative_time_strictly_increasing(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=300.0)
    times = [s.cum_time for s in trace.steps]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_incumbent_sequence_nonincreasing(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=300.0)
    incs = [s.incumbent for s in trace.steps]
    assert all(b <= a for a, b in zip(incs, incs[1:]))


def test_returned_best_matches_history_minimum(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=300.0)
    h = History()
    from graybo.core import Observation

    for s in trace.steps:
        h.append(
            Observation(
                pipeline_id=s.pipeline_id,
                epoch=s.epoch,
                val_loss=s.loss,
                cum_cost=0.0,
            )
        )
    assert trace.best()[2] == best_in_history(h)[2]


def test_best_mismatch_with_history_raises(bench, small_space, monkeypatch):
    # the end-of-run consistency check must survive ``python -O``
    import graybo.optimizer as optimizer

    monkeypatch.setattr(optimizer, "best_in_history", lambda h: (-1, -1, -1.0))
    with pytest.raises(RuntimeError, match="disagrees"):
        _run(bench, small_space, budget_seconds=50.0)


def test_full_fidelity_evaluates_whole_curves(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=1e9, full_fidelity=True, use_cost=False)
    n = bench.md.datasets[bench.dataset_ids[0]].n_epochs
    assert all(s.epoch == n for s in trace.steps)
    table = bench.md.datasets[bench.dataset_ids[0]]
    for s in trace.steps:
        assert s.step_cost == pytest.approx(table.costs[s.pipeline_id, -1])
    assert trace.exhausted
    assert len(trace.steps) == table.n_pipelines


def test_use_meta_requires_checkpoint(bench, small_space):
    view = bench.view(bench.dataset_ids[0])
    with pytest.raises(ValueError):
        tune(view, small_space, _cfg(use_meta=True))


def test_no_meta_no_cost_runs_without_checkpoint(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=100.0, use_meta=False, use_cost=False)
    assert len(trace.steps) >= 1
    assert trace.flags["use_meta"] is False and trace.flags["use_cost"] is False


def test_max_steps_caps_evaluations(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=1e9, max_steps=4)
    assert len(trace.steps) == 4


def test_fit_window_changes_nothing_small_history(bench, small_space):
    a = _run(bench, small_space, budget_seconds=60.0, fit_window=10_000)
    b = _run(bench, small_space, budget_seconds=60.0, fit_window=None)
    assert a.to_json().replace('"fit_window": 10000', '"fit_window": null') == b.to_json()


def test_overhead_zero_by_default(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=60.0)
    assert trace.overhead_seconds == 0.0


def test_count_overhead_adds_time(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=60.0, count_overhead=True)
    assert trace.overhead_seconds > 0.0


def test_trace_json_round_trip(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=100.0)
    text = trace.to_json()
    again = RunTrace.from_json(text)
    assert again.to_json() == text
    payload = json.loads(text)
    assert list(payload) == [
        "method",
        "dataset",
        "seed",
        "flags",
        "steps",
        "overhead_seconds",
        "exhausted",
    ]
    assert list(payload["steps"][0]) == [
        "pipeline",
        "epoch",
        "loss",
        "step_cost",
        "cum_time",
        "incumbent",
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        TuneConfig(budget_seconds=0.0)
    with pytest.raises(ValueError):
        TuneConfig(budget_seconds=1.0, dt=0)


# ---------------------------------------------------------------------------
# incumbent_curve


def test_incumbent_curve_running_minimum():
    trace = RunTrace(method="m", dataset="d", seed=0, flags={})
    for i, loss in enumerate([0.5, 0.6, 0.4]):
        trace.steps.append(
            TraceStep(
                pipeline_id=i,
                epoch=1,
                loss=loss,
                step_cost=1.0,
                cum_time=float(i + 1),
                incumbent=min([0.5, 0.6, 0.4][: i + 1]),
            )
        )
    curve = incumbent_curve(trace)
    assert [c[1] for c in curve] == [0.5, 0.5, 0.4]


def test_incumbent_curve_single_step():
    trace = RunTrace(method="m", dataset="d", seed=0, flags={})
    trace.steps.append(
        TraceStep(pipeline_id=0, epoch=1, loss=0.3, step_cost=1.0, cum_time=1.0, incumbent=0.3)
    )
    assert incumbent_curve(trace) == [(1.0, 0.3)]


def test_incumbent_curve_matches_recomputation(bench, small_space):
    trace = _run(bench, small_space, budget_seconds=200.0)
    curve = incumbent_curve(trace)
    best = math.inf
    recomputed = []
    for s in trace.steps:
        best = min(best, s.loss)
        recomputed.append((s.cum_time, best))
    assert curve == recomputed


def test_incumbent_curve_empty_trace_raises():
    with pytest.raises(ValueError):
        incumbent_curve(RunTrace(method="m", dataset="d", seed=0, flags={}))


def test_score_cache_incremental_matches_rebuild(bench, small_space, meta_features):
    # rank-1 Cholesky appends and column refreshes must reproduce a full
    # recomputation of the posterior moments
    from graybo.costmodel import CostPredictor
    from graybo.optimizer import _RunState, _ScoreCache
    from graybo.rng import substream
    from graybo.surrogate import DeepKernelGP, PredictorContext
    from graybo.core import encode

    view = bench.view(bench.dataset_ids[0])
    ctx = PredictorContext.from_space(small_space, view.meta, view.n_epochs, 1)
    encodings = {
        pid: encode(view.pipeline(pid), small_space) for pid in range(view.n_pipelines)
    }
    state = _RunState(view, ctx, encodings)
    h = History()
    from graybo.core import Observation

    def observe(pid):
        epoch = h.max_epoch(pid) + 1
        loss, cum = view.query(pid, epoch)
        h.append(Observation(pid, epoch, loss, cum))
        state.record(pid, epoch, loss, cum)

    for pid in (0, 1, 2):
        observe(pid)
    gp = DeepKernelGP(ctx, substream(0, "cache-gp"))
    cp = CostPredictor(ctx, substream(0, "cache-cp"))
    inputs, y, _ = state.train_inputs(None)
    gp.fit(inputs, y, steps=5, lr=1e-3)
    cache = _ScoreCache(gp, cp, state)
    for pid in (3, 0, 4, 1):
        observe(pid)
        cache.apply_evaluation(state, state.n_rows - 1, pid)
    fresh = _ScoreCache(gp, cp, state)
    pool = np.arange(view.n_pipelines)
    m1, s1 = cache.moments(pool)
    m2, s2 = fresh.moments(pool)
    assert np.allclose(m1, m2, atol=1e-9)
    assert np.allclose(s1, s2, atol=1e-9)
    assert np.allclose(cache.costs(pool), fresh.costs(pool), atol=1e-12)
    # the History-based candidate inputs price every next step the same way
    from graybo.surrogate import candidate_inputs

    hist_inputs, _ = candidate_inputs(list(pool), h, encodings, ctx)
    assert np.allclose(cache.costs(pool), cp.predict_batch(hist_inputs), rtol=1e-12, atol=1e-12)


def test_cost_aware_loop_never_floor_clamps_an_observed_step(bench, small_space, monkeypatch):
    # every table cost is positive, so an already-observed candidate's step
    # is too: its acquisition denominator must stay above STEP_COST_FLOOR
    from graybo import optimizer
    from graybo.costmodel import STEP_COST_FLOOR

    real = optimizer.ei_scores
    seen = []

    def spy(mean, std, incumbents, predicted, observed_cum, cost_aware):
        seen.append((predicted.copy(), observed_cum.copy()))
        return real(mean, std, incumbents, predicted, observed_cum, cost_aware)

    monkeypatch.setattr(optimizer, "ei_scores", spy)
    _run(bench, small_space, budget_seconds=200.0, use_cost=True)
    observed_rows = 0
    for predicted, observed_cum in seen:
        obs = observed_cum > 0
        observed_rows += int(obs.sum())
        assert np.all(predicted[obs] - observed_cum[obs] > STEP_COST_FLOOR)
    assert observed_rows > 0
