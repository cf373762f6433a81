import json
import math

import numpy as np
import pytest

from graybo.benchtab import DatasetView, GeneratorConfig, TabularBenchmark, generate
from graybo.core import History, HistoryOrderError, Observation, best_in_history
from graybo.evalkit import gp_full, random_search, successive_halving
from graybo.optimizer import RunTrace, TraceStep, TuneConfig, _RunState, incumbent_curve, tune


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


# ---------------------------------------------------------------------------
# the run-state's checks on each recorded observation


def _doctored(view, from_epoch, bad):
    """``view`` whose queries at ``from_epoch`` and later return
    ``bad(loss, cost)`` instead of the table's values."""

    class Doctored(DatasetView):
        def query(self, pipeline_id, epoch):
            loss, cost = DatasetView.query(self, pipeline_id, epoch)
            return bad(loss, cost) if epoch >= from_epoch else (loss, cost)

    return Doctored(view.table)


_BAD_QUERIES = {
    "loss-above-one": (1, lambda loss, cost: (1.5, cost), ValueError, "outside"),
    "negative-cost": (1, lambda loss, cost: (loss, -1.0), ValueError, "cum_cost"),
    # a second epoch costing less, cumulatively, than the first
    "cost-decreased": (2, lambda loss, cost: (loss, 0.0), HistoryOrderError, "decreased"),
}


@pytest.mark.parametrize("case", list(_BAD_QUERIES))
def test_run_state_rejects_a_bad_observation_in_tune(tiny_bench, small_space, case):
    from_epoch, bad, exc, match = _BAD_QUERIES[case]
    view = _doctored(tiny_bench.view(tiny_bench.dataset_ids[0]), from_epoch, bad)
    with pytest.raises(exc, match=match):
        tune(view, small_space, _cfg(budget_seconds=1e9, fit_steps=1))


@pytest.mark.parametrize("case", list(_BAD_QUERIES))
def test_run_state_rejects_a_bad_observation_in_random_search(tiny_bench, small_space, case):
    from_epoch, bad, exc, match = _BAD_QUERIES[case]
    view = _doctored(tiny_bench.view(tiny_bench.dataset_ids[0]), from_epoch, bad)
    with pytest.raises(exc, match=match):
        random_search(view, small_space, 1e9, seed=0)


def test_run_state_record_rejects_an_epoch_off_the_progression():
    state = _RunState(2, 10, 2)
    with pytest.raises(HistoryOrderError, match="expected 2"):
        state.record(0, 1, 0.5, 1.0)
    state.record(0, 2, 0.5, 1.0)
    for epoch in (2, 6):
        with pytest.raises(HistoryOrderError, match="expected 4"):
            state.record(0, epoch, 0.4, 2.0)
    state.record(1, 2, 0.3, 0.5)
    # rejected observations leave no trace in the state
    assert state.n_rows == 2
    assert list(state.cand_tau) == [4, 4]
    assert state.trace("m", "d", 0, {}).best() == (1, 2, 0.3)


def test_no_optimizer_builds_a_history(tiny_bench, small_space, monkeypatch):
    # the run-state is the only record of a run's observations
    def refuse(self):
        raise AssertionError("History constructed")

    monkeypatch.setattr(History, "__init__", refuse)
    view = tiny_bench.view(tiny_bench.dataset_ids[0])
    assert tune(view, small_space, _cfg(budget_seconds=60.0, fit_steps=1)).steps
    assert gp_full(view, small_space, 60.0, seed=0, fit_steps=1).steps
    assert random_search(view, small_space, 60.0, seed=0).steps
    assert successive_halving(view, small_space, 60.0, seed=0).steps


_RUNS = {
    "tune": lambda view, space: tune(view, space, _cfg(budget_seconds=200.0)),
    "tune-overhead": lambda view, space: tune(
        view, space, _cfg(budget_seconds=200.0, count_overhead=True)
    ),
    # the cap falls inside a curve (5 epochs), not at a pipeline's end
    "random-capped": lambda view, space: random_search(view, space, 1e9, seed=0, max_steps=7),
    "sha": lambda view, space: successive_halving(view, space, 200.0, seed=0),
}


@pytest.mark.parametrize("run", list(_RUNS))
def test_trace_replays_into_a_history_with_its_prices_and_incumbents(bench, small_space, run):
    # each step is priced as its pipeline's cumulative-cost difference, the
    # incumbent is the running minimum, and the run's seconds are its step
    # costs plus the decision time charged to the budget
    view = bench.view(bench.dataset_ids[0])
    trace = _RUNS[run](view, small_space)
    h = History()
    best = math.inf
    for s in trace.steps:
        before = h.of_pipeline(s.pipeline_id)
        loss, cum_cost = view.query(s.pipeline_id, s.epoch)
        h.append(Observation(s.pipeline_id, s.epoch, s.loss, cum_cost))
        assert s.loss == loss
        assert s.step_cost == cum_cost - (before[-1].cum_cost if before else 0.0)
        best = min(best, s.loss)
        assert s.incumbent == best
    total = sum(s.step_cost for s in trace.steps) + trace.overhead_seconds
    assert trace.final_cum_time == pytest.approx(total, rel=1e-12)
    assert (trace.overhead_seconds > 0.0) == (run == "tune-overhead")
    if run == "random-capped":
        assert len(trace.steps) == 7
    else:
        assert not trace.flags.get("max_steps")


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
    with pytest.raises(ValueError):
        TuneConfig(budget_seconds=1.0, fit_steps=-1)
    with pytest.raises(ValueError):
        TuneConfig(budget_seconds=1.0, fit_window=0)
    for lr in (math.nan, math.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="lr"):
            TuneConfig(budget_seconds=1.0, lr=lr)
    for max_steps in (0, -1):
        with pytest.raises(ValueError, match="max_steps"):
            TuneConfig(budget_seconds=1.0, max_steps=max_steps)
    TuneConfig(budget_seconds=1.0, fit_steps=0, fit_window=1, lr=1e-9, max_steps=1)


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


def _cache_fixture(bench, space):
    """A run state with three observations, a briefly fitted GP and a fresh
    score cache over it, plus an ``observe(pid)`` that appends the
    pipeline's next epoch to both the state and a History."""
    from types import SimpleNamespace

    from graybo.core import Observation, encode
    from graybo.costmodel import CostPredictor
    from graybo.optimizer import _RunState, _ScoreCache
    from graybo.rng import substream
    from graybo.surrogate import DeepKernelGP, Encodings, PredictorContext

    view = bench.view(bench.dataset_ids[0])
    ctx = PredictorContext.from_space(space, view.meta, view.n_epochs, 1)
    encodings = {pid: encode(view.pipeline(pid), space) for pid in range(view.n_pipelines)}
    enc = Encodings.of(ctx, [encodings[p] for p in range(view.n_pipelines)])
    state = _RunState(view.n_pipelines, view.n_epochs, 1)
    h = History()

    def observe(pid):
        epoch = h.max_epoch(pid) + 1
        loss, cum = view.query(pid, epoch)
        h.append(Observation(pid, epoch, loss, cum))
        state.record(pid, epoch, loss, cum)

    for pid in (0, 1, 2):
        observe(pid)
    gp = DeepKernelGP(ctx, substream(0, "cache-gp"))
    cp = CostPredictor(ctx, substream(0, "cache-cp"))
    inputs, y, _ = state.train_inputs(enc, None)
    gp.fit(inputs, y, steps=5, lr=1e-3)
    return SimpleNamespace(
        view=view, ctx=ctx, encodings=encodings, enc=enc, state=state, h=h, observe=observe,
        gp=gp, cp=cp, cache=_ScoreCache(gp, cp, state, enc),
    )


@pytest.mark.parametrize("dt", [1, 2, 3, None], ids=["dt1", "dt2", "dt3", "full"])
def test_run_state_inputs_equal_the_row_by_row_reference(tiny_bench, small_space, dt):
    # the run-state gathers rows through Encodings.inputs, whose curve input
    # is a pipeline's losses at indices < tau - dt; the History reference
    # builds each row from the observations strictly before tau (training)
    # or all of them (candidates).  Both must agree to the byte, also at
    # full fidelity (dt = T) and on a window of the last rows.
    from oracle import candidate_inputs, history_inputs, replay

    from graybo.core import Observation, encode
    from graybo.rng import substream
    from graybo.surrogate import PredictorContext

    view = tiny_bench.view(tiny_bench.dataset_ids[0])
    dt = dt or view.n_epochs
    ctx = PredictorContext.from_space(small_space, view.meta, view.n_epochs, dt)
    encodings = {pid: encode(view.pipeline(pid), small_space) for pid in range(view.n_pipelines)}
    rng = substream(8, "visibility", dt)
    h = History()
    for _ in range(40):
        live = [p for p in range(view.n_pipelines) if h.max_epoch(p) + dt <= view.n_epochs]
        if not live:
            break
        pid = live[int(rng.integers(len(live)))]
        epoch = h.max_epoch(pid) + dt
        h.append(Observation(pid, epoch, *view.query(pid, epoch)))
    state, enc = replay(ctx, encodings, h)

    def same(got, want):
        for name in ("hp", "model_onehot", "curves", "epoch", "meta", "observed_cost"):
            a, b = getattr(got, name), getattr(want, name)
            if a is None or b is None:
                assert a is None and b is None, name
                continue
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    for window in (None, 5):
        got, y, cost = state.train_inputs(enc, window)
        want, want_y, want_cost = history_inputs(h, encodings, ctx, window)
        same(got, want)
        assert y.tobytes() == want_y.tobytes() and cost.tobytes() == want_cost.tobytes()
    pool = list(range(view.n_pipelines))
    want, taus = candidate_inputs(pool, h, encodings, ctx)
    same(state.candidate_arrays(enc, pool), want)
    assert np.array_equal(state.cand_tau, taus)


def test_score_cache_incremental_matches_rebuild(tiny_bench, small_space):
    # rank-1 Cholesky appends and column refreshes must reproduce a full
    # recomputation of the posterior moments, also after the buffers grow
    # past their initial 64 rows (the factor's leading dimension changes)
    from oracle import candidate_inputs, reference_scores

    from graybo.acquisition import ei_scores
    from graybo.optimizer import _ScoreCache

    f = _cache_fixture(tiny_bench, small_space)
    cache, state, cp = f.cache, f.state, f.cp
    cap0 = cache.L.shape[0]
    order = [3, 0, 4, 1] + [pid for _ in range(6) for pid in range(f.view.n_pipelines)]
    for pid in order:
        f.observe(pid)
        cache.apply_evaluation(state)
    assert state.n_rows == 3 + len(order) > cap0 == 64
    assert cache.L.shape[0] > cap0
    fresh = _ScoreCache(f.gp, cp, state, f.enc)
    pool = np.arange(f.view.n_pipelines)
    m1, s1 = cache.moments(pool)
    m2, s2 = fresh.moments(pool)
    assert np.allclose(m1, m2, atol=1e-9)
    assert np.allclose(s1, s2, atol=1e-9)
    assert np.allclose(cache.costs(pool), fresh.costs(pool), atol=1e-12)
    # the History-based reference gives the same moments, prices every next
    # step the same way and ends in the same scores
    hist_inputs, _ = candidate_inputs(list(pool), f.h, f.encodings, f.ctx)
    assert np.allclose(cache.costs(pool), cp.predict_batch(hist_inputs), rtol=1e-12, atol=1e-12)
    live = state.candidate_pool()
    idx = np.asarray(live)
    m_ref, s_ref, scores_ref = reference_scores(live, f.h, f.gp, cp, f.encodings, f.ctx, True)
    mean, std = cache.moments(idx)
    assert np.allclose(mean, m_ref, atol=1e-9)
    assert np.allclose(std, s_ref, atol=1e-9)
    incumbents = state.incumbent_table()[state.cand_tau[idx] - 1]
    scores = ei_scores(mean, std, incumbents, cache.costs(idx), state.cand_last_cum[idx], True)
    assert np.allclose(scores, scores_ref, rtol=1e-8, atol=0.0)


def test_rank1_update_rejects_a_nan_latent(bench, small_space, monkeypatch):
    # a NaN latent for the appended row must raise, not reach the factor
    from graybo.surrogate import LATENT_WIDTH, DeepKernelGP

    f = _cache_fixture(bench, small_space)
    f.observe(3)
    monkeypatch.setattr(
        DeepKernelGP,
        "features_batch",
        lambda self, inputs: np.full((len(inputs), LATENT_WIDTH), np.nan),
    )
    with pytest.raises(ValueError):
        f.cache.apply_evaluation(f.state)
    assert np.isfinite(f.cache.L).all()


def test_rank1_update_rejects_a_cache_two_rows_behind(bench, small_space):
    # the appended row's latent and solve are read from the evaluated
    # pipeline's candidate row, which is right only one row behind
    f = _cache_fixture(bench, small_space)
    f.observe(3)
    f.observe(4)
    before = f.cache.L.copy()
    with pytest.raises(RuntimeError):
        f.cache.apply_evaluation(f.state)
    assert f.cache.n == 3
    assert np.array_equal(f.cache.L, before)


def _round_robin(f, rounds):
    """Each unfinished pipeline's next epoch, ``rounds`` times over."""
    for _ in range(rounds):
        for pid in range(f.view.n_pipelines):
            if f.state.cand_tau[pid] <= f.view.n_epochs:
                yield pid


def test_rank1_step_matches_the_recompute_reference(tiny_bench, small_space):
    # reading the new row from the candidate's latent and column agrees with
    # computing it from its training inputs, over 100+ steps and a _grow
    from oracle import recompute_rank1

    from graybo.optimizer import _ScoreCache

    f = _cache_fixture(tiny_bench, small_space)
    cache, state = f.cache, f.state
    ref = _ScoreCache(f.gp, f.cp, state, f.enc)
    steps = 0
    for pid in _round_robin(f, 9):
        f.observe(pid)
        cache.apply_evaluation(state)
        recompute_rank1(ref, state)
        n = cache.n
        assert n == ref.n == state.n_rows
        assert np.allclose(cache.Ztr[n - 1], ref.Ztr[n - 1], rtol=0.0, atol=1e-12)
        assert np.allclose(cache.L[n - 1, :n], ref.L[n - 1, :n], rtol=0.0, atol=1e-12)
        assert np.allclose(cache.w[:n], ref.w[:n], rtol=0.0, atol=1e-12)
        assert np.allclose(cache.V[:n], ref.V[:n], rtol=0.0, atol=1e-12)
        assert np.allclose(cache.colnorm2, ref.colnorm2, rtol=0.0, atol=1e-12)
        assert np.array_equal(cache.Zc, ref.Zc)
        steps += 1
    assert steps >= 100
    assert cache.L.shape[0] > 64


def test_tune_gives_the_same_trace_with_the_recompute_rank1_step(tiny_bench, small_space, monkeypatch):
    # tune_long-shaped settings: rare refits, so most steps are rank-1 steps
    from oracle import recompute_rank1

    from graybo import optimizer

    view = tiny_bench.view(tiny_bench.dataset_ids[0])
    cfg = TuneConfig(budget_seconds=1e9, fit_steps=10, fit_window=96, refit_period=25, seed=3)
    trace = tune(view, small_space, cfg)
    calls = []

    def reference(cache, state):
        calls.append(state.n_rows)
        recompute_rank1(cache, state)

    monkeypatch.setattr(optimizer._ScoreCache, "apply_evaluation", reference)
    assert tune(view, small_space, cfg).to_json() == trace.to_json()
    assert len(calls) > 50


def test_rebuild_reusing_grown_buffers_matches_fresh_buffers(tiny_bench, small_space):
    from graybo.optimizer import _ScoreCache

    f = _cache_fixture(tiny_bench, small_space)
    cache = f.cache
    for pid in _round_robin(f, 6):
        f.observe(pid)
        cache.apply_evaluation(f.state)
    assert cache.L.shape[0] > 64  # grown
    L_buffer = cache.L
    reused = _ScoreCache(f.gp, f.cp, f.state, f.enc, reuse=cache)
    fresh = _ScoreCache(f.gp, f.cp, f.state, f.enc)
    assert reused.L is L_buffer and fresh.L is not L_buffer
    pool = np.arange(f.view.n_pipelines)
    for a, b in zip(reused.moments(pool), fresh.moments(pool)):
        assert np.array_equal(a, b)
    assert np.array_equal(reused.costs(pool), fresh.costs(pool))
    n = fresh.n
    assert np.array_equal(reused.L[:n, :n], fresh.L[:n, :n])


def _synthetic_run(space, meta, n_pipelines, n_epochs, n_rows):
    """A run state over random pipeline encodings with ``n_rows`` rows
    recorded round-robin, and a GP at its initial parameters."""
    from graybo.rng import substream
    from graybo.surrogate import DeepKernelGP, Encodings, PredictorContext, scale_meta

    ctx = PredictorContext.from_space(space, meta, n_epochs, 1)
    rng = substream(5, "synthetic-run")
    enc = Encodings(
        rng.uniform(size=(n_pipelines, ctx.hp_width)),
        np.eye(ctx.n_models)[rng.integers(ctx.n_models, size=n_pipelines)],
        scale_meta(meta),
        ctx.dt,
    )
    state = _RunState(n_pipelines, n_epochs, 1)

    def record(i):
        pid, epoch = i % n_pipelines, i // n_pipelines + 1
        state.record(pid, epoch, float(rng.uniform()), float(epoch * (1 + pid)))

    for i in range(n_rows):
        record(i)
    return state, enc, DeepKernelGP(ctx, substream(5, "synthetic-gp")), record


def _peak_bytes(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_rank1_step_and_rebuild_allocate_no_square_buffer(small_space, meta_features):
    from graybo.optimizer import _ScoreCache

    n0 = 600
    state, enc, gp, record = _synthetic_run(small_space, meta_features, 80, 10, n0)
    cache = _ScoreCache(gp, None, state, enc)
    cap = cache.L.shape[0]
    assert cap == 2 * n0
    for i in range(n0, n0 + 2):  # the first step is the warm-up
        record(i)
        peak = _peak_bytes(lambda: cache.apply_evaluation(state))
    n = cache.n
    assert peak < n * n * 8 / 4  # O(n) work: no n x n array
    for i in range(n, n + 5):
        record(i)
    _ScoreCache(gp, None, state, enc, reuse=cache)  # warm-up
    box = []
    peak = _peak_bytes(lambda: box.append(_ScoreCache(gp, None, state, enc, reuse=cache)))
    assert box[0].L is cache.L
    assert peak < cap * cap * 8  # the factor buffer is reused, not reallocated


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


@pytest.mark.parametrize("use_meta", [False, True])
def test_cost_aware_tune_moves_only_the_cost_head(bench, small_space, monkeypatch, use_meta):
    # the cost extractor stays at its start value (seeded init, or the
    # checkpoint's) through a whole run; only the head is refit
    from graybo import optimizer
    from graybo.costmodel import CostPredictor
    from graybo.metalearn import MetaCheckpoint
    from graybo.rng import substream
    from graybo.surrogate import DeepKernelGP, PredictorContext

    view = bench.view(bench.dataset_ids[0])
    ctx = PredictorContext.from_space(small_space, view.meta, view.n_epochs, 1)
    made = []

    class Spy(CostPredictor):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(optimizer, "CostPredictor", Spy)
    checkpoint, start = None, CostPredictor(ctx, substream(0, "tune", view.dataset_id, "cost-init"))
    if use_meta:
        start = CostPredictor(ctx, substream(1, "meta-cp"))
        gp = DeepKernelGP(ctx, substream(1, "meta-gp"))
        checkpoint = MetaCheckpoint.from_predictors(gp, start, {"format": "qtmeta-1"})
    trace = tune(view, small_space, _cfg(budget_seconds=200.0, use_meta=use_meta), checkpoint=checkpoint)
    assert len(trace.steps) > 5
    (cp,) = made
    for p, p0 in zip(cp.params(), start.params()):
        assert p.name == p0.name
        moved = not np.array_equal(p.values, p0.values)
        assert moved == p.name.startswith("cost.head."), p.name
