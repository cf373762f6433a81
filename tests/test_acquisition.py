import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import expected_improvement, reference_scores, replay

from graybo.acquisition import (
    argmax_lowest_id,
    ei_scores,
    expected_improvement_batch,
    norm_cdf,
    subsample_pool,
)
from graybo.core import History, Observation, encode, incumbent_loss, sample_pipeline
from graybo.costmodel import STEP_COST_FLOOR, CostPredictor
from graybo.optimizer import _ScoreCache
from graybo.rng import substream
from graybo.surrogate import DeepKernelGP, PredictorContext

N_EPOCHS = 10


@pytest.fixture()
def ctx(small_space, meta_features):
    return PredictorContext.from_space(small_space, meta_features, N_EPOCHS, 1)


# ---------------------------------------------------------------------------
# expected_improvement


def test_ei_zero_when_no_improvement_possible():
    assert expected_improvement(mu=0.5, sigma=0.0, incumbent=0.4) == 0.0


def test_ei_at_incumbent_mean_unit_sigma():
    val = expected_improvement(mu=0.3, sigma=1.0, incumbent=0.3)
    assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)


def test_ei_unit_gap_unit_sigma():
    val = expected_improvement(mu=0.0, sigma=1.0, incumbent=1.0)
    assert val == pytest.approx(1.0833154705876864, abs=1e-12)


def test_ei_sigma_zero_positive_gap():
    assert expected_improvement(mu=0.2, sigma=0.0, incumbent=0.5) == pytest.approx(0.3)


def test_ei_matches_monte_carlo():
    rng = np.random.default_rng(2024)
    samples = rng.standard_normal(2_000_000)
    for mu, sigma, inc in [(0.4, 0.2, 0.5), (0.8, 0.05, 0.3), (0.1, 1.5, 0.2)]:
        mc = np.maximum(inc - (mu + sigma * samples), 0.0).mean()
        assert expected_improvement(mu, sigma, inc) == pytest.approx(mc, abs=2e-3)


def test_ei_rejects_negative_sigma():
    with pytest.raises(ValueError):
        expected_improvement(0.5, -1.0, 0.4)


def test_norm_cdf_accuracy():
    from scipy.stats import norm

    u = np.linspace(-8, 8, 1601)
    assert np.abs(norm_cdf(u) - norm.cdf(u)).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(0.0, 1.0),
    sigma=st.floats(0.0, 2.0),
    inc=st.floats(0.0, 1.0),
)
def test_ei_nonnegative(mu, sigma, inc):
    assert expected_improvement(mu, sigma, inc) >= 0.0


@settings(max_examples=100, deadline=None)
@given(
    mu=st.floats(0.0, 1.0),
    sigma=st.floats(0.01, 2.0),
    inc=st.floats(0.0, 1.0),
    bump=st.floats(0.0, 0.5),
)
def test_ei_nondecreasing_in_incumbent(mu, sigma, inc, bump):
    lo = expected_improvement(mu, sigma, inc)
    hi = expected_improvement(mu, sigma, inc + bump)
    assert hi >= lo - 1e-12


@settings(max_examples=100, deadline=None)
@given(sigma=st.floats(0.0, 2.0), bump=st.floats(0.0, 1.0))
def test_ei_nondecreasing_in_sigma_at_incumbent_mean(sigma, bump):
    lo = expected_improvement(0.5, sigma, 0.5)
    hi = expected_improvement(0.5, sigma + bump, 0.5)
    assert hi >= lo - 1e-12


def test_ei_zero_iff_sigma_zero_and_no_gap():
    assert expected_improvement(0.5, 0.0, 0.5) == 0.0
    assert expected_improvement(0.5, 1e-9, 0.5) > 0.0
    assert expected_improvement(0.4, 0.0, 0.5) > 0.0


def test_ei_batch_matches_scalar():
    mus = np.array([0.1, 0.5, 0.9])
    sigmas = np.array([0.0, 0.3, 1.0])
    incs = np.array([0.2, 0.5, 0.4])
    batch = expected_improvement_batch(mus, sigmas, incs)
    for i in range(3):
        assert batch[i] == pytest.approx(expected_improvement(mus[i], sigmas[i], incs[i]))


# ---------------------------------------------------------------------------
# the scoring path tune runs: candidate_pool -> subsample_pool ->
# _ScoreCache moments and costs -> ei_scores -> argmax_lowest_id


def _setup(small_space, ctx, n_pipelines=4, seed=0):
    rng = substream(seed, "acq")
    encodings = {
        pid: encode(sample_pipeline(small_space, rng), small_space)
        for pid in range(n_pipelines)
    }
    h = History()
    for pid in range(n_pipelines):
        cost = 0.0
        for ep in range(1, 3):
            cost += float(rng.uniform(1, 3))
            h.append(Observation(pid, ep, float(rng.uniform(0.2, 0.8)), cost))
    gp = DeepKernelGP(ctx, substream(seed, "gp"))
    cp = CostPredictor(ctx, substream(seed, "cp"))
    return encodings, h, gp, cp


def _cache_scores(state, cache, pool, cost_aware):
    """Scores of ``pool`` as tune forms them from its run-state and cache."""
    idx = np.asarray(pool, dtype=np.int64)
    mean, std = cache.moments(idx)
    incumbents = state.incumbent_table()[state.cand_tau[idx] - 1]
    predicted = cache.costs(idx) if cost_aware else None
    return ei_scores(mean, std, incumbents, predicted, state.cand_last_cum[idx], cost_aware)


def test_eipu_is_ei_over_step_cost():
    # EI / max(c_hat - c, STEP_COST_FLOOR): an unobserved row (c = 0), an
    # observed one, and one whose prediction falls below its observed cost
    mean = np.array([0.4, 0.5, 0.3])
    std = np.array([0.1, 0.2, 0.05])
    incumbents = np.full(3, 0.45)
    predicted = np.array([12.5, 30.0, 25.0])
    observed = np.array([0.0, 27.0, 27.0])
    ei = expected_improvement_batch(mean, std, incumbents)
    scores = ei_scores(mean, std, incumbents, predicted, observed, True)
    assert np.array_equal(scores, ei / np.array([12.5, 3.0, STEP_COST_FLOOR]))
    with pytest.raises(ValueError):
        ei_scores(mean, std, incumbents, None, observed, True)


def test_cost_aware_off_equals_plain_ei_selection(small_space, ctx):
    encodings, h, gp, cp = _setup(small_space, ctx, seed=1)
    state, enc = replay(ctx, encodings, h)
    cache = _ScoreCache(gp, None, state, enc)
    pool = state.candidate_pool()
    scores = _cache_scores(state, cache, pool, cost_aware=False)
    _, _, plain_ei = reference_scores(pool, h, gp, None, encodings, ctx, cost_aware=False)
    assert np.allclose(scores, plain_ei, rtol=1e-8, atol=0.0)
    assert argmax_lowest_id(pool, scores) == pool[int(np.argmax(plain_ei))]


def test_cheap_candidate_wins_under_cost_awareness():
    # EI_A/cost 10 vs EI_B/cost 1: B wins per unit cost, A wins plain EI
    mean = np.array([0.2, 0.3])
    std = np.array([0.1, 0.1])
    incumbents = np.full(2, 0.4)
    predicted = np.array([10.0, 1.0])
    observed = np.zeros(2)
    plain = ei_scores(mean, std, incumbents, None, None, False)
    per_cost = ei_scores(mean, std, incumbents, predicted, observed, True)
    assert argmax_lowest_id([0, 1], plain) == 0
    assert argmax_lowest_id([0, 1], per_cost) == 1


def test_select_next_single_candidate(small_space, ctx):
    encodings, h, gp, cp = _setup(small_space, ctx, seed=2)
    state, enc = replay(ctx, encodings, h)
    cache = _ScoreCache(gp, cp, state, enc)
    pool = subsample_pool([2], 1, substream(1, "r"))
    assert argmax_lowest_id(pool, _cache_scores(state, cache, pool, cost_aware=True)) == 2


def test_select_next_matches_exhaustive_scores(small_space, ctx):
    # the cache's pick is the argmax of the History-based reference scores
    encodings, h, gp, cp = _setup(small_space, ctx, seed=3)
    state, enc = replay(ctx, encodings, h)
    cache = _ScoreCache(gp, cp, state, enc)
    pool = state.candidate_pool()
    _, _, reference = reference_scores(pool, h, gp, cp, encodings, ctx, cost_aware=True)
    pick = argmax_lowest_id(pool, _cache_scores(state, cache, pool, cost_aware=True))
    assert pick == pool[int(np.argmax(reference))]


def test_select_next_invariant_to_uniform_cost_rescale():
    # costs in other units (every predicted and observed cost times 10)
    # scale every score by 1/10 and keep the winner
    rng = substream(4, "rescale")
    mean = rng.uniform(0.2, 0.6, 8)
    std = rng.uniform(0.01, 0.2, 8)
    incumbents = np.full(8, 0.4)
    observed = rng.uniform(0.0, 20.0, 8)
    predicted = observed + rng.uniform(0.5, 3.0, 8)
    base = ei_scores(mean, std, incumbents, predicted, observed, True)
    scaled = ei_scores(mean, std, incumbents, 10.0 * predicted, 10.0 * observed, True)
    assert np.allclose(scaled, base / 10.0, rtol=1e-12)
    pool = list(range(8))
    assert argmax_lowest_id(pool, scaled) == argmax_lowest_id(pool, base)


def _encodings(space, n, key):
    return {pid: encode(sample_pipeline(space, substream(pid, key)), space) for pid in range(n)}


def test_select_next_excludes_exhausted(small_space, meta_features):
    # a pipeline leaves the pool once its next epoch would pass the horizon,
    # not before; when every pipeline has, the pool is empty
    for dt in (1, 2):
        ctx = PredictorContext.from_space(small_space, meta_features, N_EPOCHS, dt)
        state, _ = replay(ctx, _encodings(small_space, 3, "ex"), History())
        last = range(dt, N_EPOCHS + 1, dt)[-1]
        for ep in range(dt, last + 1, dt):
            assert state.candidate_pool() == [0, 1, 2]
            state.record(1, ep, 0.5, float(ep))
        assert state.candidate_pool() == [0, 2]
        for pid in (0, 2):
            for ep in range(dt, last + 1, dt):
                state.record(pid, ep, 0.5, float(ep))
        assert state.candidate_pool() == []


def test_select_next_all_exhausted_raises(small_space, ctx):
    # once every pipeline is fully trained the pool is empty: tune ends the
    # run exhausted instead of scoring
    encodings, h, gp, cp = _setup(small_space, ctx, seed=6)
    for pid in encodings:
        start = h.max_epoch(pid) + 1
        for ep in range(start, N_EPOCHS + 1):
            h.append(Observation(pid, ep, 0.5, 100.0 + ep))
    state, _ = replay(ctx, encodings, h)
    assert state.candidate_pool() == []


def test_ei_per_unit_cost_rejects_exhausted(small_space, ctx):
    # a fully trained pipeline is never scored; the others still are
    encodings, h, gp, cp = _setup(small_space, ctx, seed=7)
    for ep in range(3, N_EPOCHS + 1):
        h.append(Observation(0, ep, 0.5, 100.0 + ep))
    state, enc = replay(ctx, encodings, h)
    pool = state.candidate_pool()
    assert pool == [1, 2, 3]
    scores = _cache_scores(state, _ScoreCache(gp, cp, state, enc), pool, cost_aware=True)
    assert np.all(np.isfinite(scores)) and np.all(scores >= 0.0)


def test_candidate_cap_subsamples_deterministically():
    pool = list(range(3, 40, 3))
    pick1 = subsample_pool(pool, 5, substream(5, "r"))
    pick2 = subsample_pool(pool, 5, substream(5, "r"))
    assert pick1 == pick2
    assert len(pick1) == 5 and pick1 == sorted(pick1) and set(pick1) <= set(pool)
    assert subsample_pool(pool, len(pool), substream(5, "r")) == pool


def test_tie_break_prefers_lowest_pipeline_id():
    assert argmax_lowest_id([5, 7, 2, 9], np.array([0.3, 0.5, 0.5, 0.5])) == 2
    assert argmax_lowest_id([2, 1, 0], np.full(3, 0.25)) == 0
    assert argmax_lowest_id([4, 1], np.array([0.5, 0.5 - 1e-15])) == 4


def test_incumbent_table_matches_pointwise(small_space, meta_features):
    # with dt = 2 epoch 1 lies below every observation (the overall best),
    # odd epochs have none of their own (the best below) and the last
    # epochs lie above every observation
    ctx = PredictorContext.from_space(small_space, meta_features, N_EPOCHS, 2)
    encodings = _encodings(small_space, 4, "lk")
    h = History()
    rng = substream(77, "lk")
    for pid in range(4):
        cost = 0.0
        for ep in range(2, 2 * int(rng.integers(1, 4)) + 1, 2):
            cost += 1.0
            h.append(Observation(pid, ep, float(rng.uniform(0.1, 0.9)), cost))
    assert max(o.epoch for o in h) < N_EPOCHS
    state, _ = replay(ctx, encodings, h)
    table = state.incumbent_table()
    assert len(table) == N_EPOCHS
    for epoch in range(1, N_EPOCHS + 1):
        assert table[epoch - 1] == incumbent_loss(h, epoch)
