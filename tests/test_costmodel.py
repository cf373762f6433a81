import math

import numpy as np
import pytest

from oracle import fd_noise_floor, grad_check, history_inputs, replay

from graybo.acquisition import ei_scores
from graybo.core import History, Observation, encode, sample_pipeline
from graybo.costmodel import STEP_COST_FLOOR, CostPredictor
from graybo.rng import substream
from graybo.surrogate import PredictorContext

N_EPOCHS = 10


@pytest.fixture()
def ctx(small_space, meta_features):
    return PredictorContext.from_space(small_space, meta_features, N_EPOCHS, 1)


def _encodings(space, rng, n):
    return {pid: encode(sample_pipeline(space, rng), space) for pid in range(n)}


def test_predictions_nonnegative_and_deterministic(ctx, small_space):
    rng = substream(0, "cm")
    encs = _encodings(small_space, rng, 3)
    h = History()
    for pid in range(3):
        h.append(Observation(pid, 1, 0.5, float(pid + 1)))
    inputs, _, _ = history_inputs(h, encs, ctx)
    cp = CostPredictor(ctx, substream(1, "cp"))
    first = cp.predict_batch(inputs)
    second = cp.predict_batch(inputs)
    assert np.array_equal(first, second)
    assert np.all(first >= 0.0)


def test_fit_learns_linear_cost_table(ctx, small_space):
    # exact cost 2t per epoch; train on epochs 1..8, hold out 9..10
    rng = substream(2, "lin")
    encs = _encodings(small_space, rng, 6)
    h = History()
    for pid in range(6):
        for ep in range(1, 9):
            h.append(Observation(pid, ep, 0.5, 2.0 * ep))
    inputs, _, costs = history_inputs(h, encs, ctx)
    cp = CostPredictor(ctx, substream(3, "cp"))
    cp.fit(inputs, costs, steps=3000, lr=1e-2)
    held = History()
    for pid in range(6):
        for ep in range(1, 11):
            held.append(Observation(pid, ep, 0.5, 2.0 * ep))
    held_inputs, _, held_costs = history_inputs(held, encs, ctx)
    sel = [i for i, o in enumerate(held.observations) if o.epoch > 8]
    pred = cp.predict_batch(held_inputs)[sel]
    truth = held_costs[sel]
    rel_err = np.abs(pred - truth) / truth
    assert np.median(rel_err) <= 0.20


def test_fit_empty_history_is_noop(ctx):
    cp = CostPredictor(ctx, substream(4, "cp"))
    before = [p.values.copy() for p in cp.params()]
    inputs, _, costs = history_inputs(History(), {}, ctx)
    report = cp.fit(inputs, costs)
    assert report.steps == 0
    for p, b in zip(cp.params(), before):
        assert np.array_equal(p.values, b)


def test_fit_never_increases_loss(ctx, small_space):
    for seed in range(20):
        rng = substream(seed, "const")
        encs = _encodings(small_space, rng, 3)
        h = History()
        for pid in range(3):
            for ep in range(1, 4):
                h.append(Observation(pid, ep, 0.5, 7.5 * ep))
        inputs, _, costs = history_inputs(h, encs, ctx)
        cp = CostPredictor(ctx, substream(seed, "cpc"))
        report = cp.fit(inputs, costs, steps=25, lr=1e-3)
        assert report.final <= report.initial + 1e-12


def test_zero_cost_history_drives_raw_toward_zero(ctx, small_space):
    rng = substream(5, "zero")
    encs = _encodings(small_space, rng, 3)
    h = History()
    for pid in range(3):
        for ep in range(1, 4):
            h.append(Observation(pid, ep, 0.5, 0.0))
    inputs, _, costs = history_inputs(h, encs, ctx)
    cp = CostPredictor(ctx, substream(6, "cp"))
    before = np.abs(cp.raw_batch(inputs)).mean()
    cp.fit(inputs, costs, steps=500, lr=1e-2)
    after = np.abs(cp.raw_batch(inputs)).mean()
    assert after < before


def test_gradients_match_finite_differences(ctx, small_space):
    rng = substream(7, "grad")
    encs = _encodings(small_space, rng, 4)
    h = History()
    for pid in range(4):
        cost = 0.0
        for ep in range(1, 4):
            cost += float(rng.uniform(1, 6))
            h.append(Observation(pid, ep, float(rng.uniform(0.1, 0.9)), cost))
    inputs, _, costs = history_inputs(h, encs, ctx)
    cp = CostPredictor(ctx, substream(8, "cp"))

    def loss_fn():
        return cp.mse(inputs, costs)

    def grad_fn():
        for p in cp.params():
            p.zero_grad()
        cp.mse_with_grads(inputs, costs)

    floor = fd_noise_floor(loss_fn())
    assert grad_check(cp.params(), loss_fn, grad_fn, noise_floor=floor) <= 1e-4


# ---------------------------------------------------------------------------
# the next step's cost, as tune's acquisition divides by it


def _step_cost(cp, replayed, pid):
    """max(c_hat - c, STEP_COST_FLOOR) for the pipeline's next epoch, read
    back from ``ei_scores`` at an EI of exactly one."""
    state, enc = replayed
    predicted = cp.predict_batch(state.candidate_arrays(enc, [pid]))
    zero, one = np.zeros(1), np.ones(1)
    observed = state.cand_last_cum[pid : pid + 1]
    return 1.0 / float(ei_scores(zero, zero, one, predicted, observed, True)[0])


class _FixedCost(CostPredictor):
    """Cost predictor returning a constant, for denominator arithmetic tests."""

    def __init__(self, ctx, value):
        super().__init__(ctx, substream(99, "fixed"))
        self._value = value

    def predict_batch(self, inputs):
        return np.full(len(inputs), self._value)


def test_next_step_cost_unobserved_pipeline(ctx, small_space):
    state = replay(ctx, _encodings(small_space, substream(9, "nc"), 1), History())
    assert _step_cost(_FixedCost(ctx, 12.5), state, 0) == pytest.approx(12.5, rel=1e-15)


def test_next_step_cost_subtracts_observed(ctx, small_space):
    h = History()
    h.append(Observation(0, 1, 0.5, 27.0))
    state = replay(ctx, _encodings(small_space, substream(10, "nc"), 1), h)
    assert _step_cost(_FixedCost(ctx, 30.0), state, 0) == pytest.approx(3.0, rel=1e-15)


def test_next_step_cost_clamped_to_floor(ctx, small_space):
    h = History()
    h.append(Observation(0, 1, 0.5, 27.0))
    state = replay(ctx, _encodings(small_space, substream(11, "nc"), 1), h)
    assert _step_cost(_FixedCost(ctx, 25.0), state, 0) == pytest.approx(STEP_COST_FLOOR, rel=1e-15)


def test_next_step_cost_rejects_exhausted_pipeline(ctx, small_space):
    # a fully trained pipeline has no next step to price: it leaves the pool
    h = History()
    for ep in range(1, N_EPOCHS + 1):
        h.append(Observation(0, ep, 0.5, float(ep)))
    state, _ = replay(ctx, _encodings(small_space, substream(12, "nc"), 2), h)
    assert state.candidate_pool() == [1]


def test_next_step_cost_always_positive(ctx, small_space):
    rng = substream(13, "pos")
    encs = _encodings(small_space, rng, 5)
    h = History()
    for pid in range(5):
        cost = 0.0
        for ep in range(1, 5):
            cost += float(rng.uniform(0.0, 100.0))
            h.append(Observation(pid, ep, 0.5, cost))
    state = replay(ctx, encs, h)
    cp = CostPredictor(ctx, substream(14, "cp"))
    for pid in range(5):
        assert _step_cost(cp, state, pid) >= STEP_COST_FLOOR


class _LowCumulative(CostPredictor):
    """Cost net predicting a cumulative cost of 1 s for every row: below the
    observed cost of any pipeline trained for a few epochs."""

    def raw_batch(self, inputs):
        return np.full(len(inputs), math.log1p(1.0))


@pytest.mark.parametrize("dt", [1, 2])
def test_observed_step_priced_at_observed_rate(small_space, meta_features, dt):
    # linear cost table at 2 s per epoch; the net underestimates the
    # observed pipeline's cumulative cost, which must not floor-clamp a step
    # whose true cost is positive
    ctx = PredictorContext.from_space(small_space, meta_features, N_EPOCHS, dt)
    encs = _encodings(small_space, substream(15, "rate"), 2)
    h = History()
    for ep in range(dt, 3 * dt + 1, dt):
        h.append(Observation(0, ep, 0.5, 2.0 * ep))
    replayed = replay(ctx, encs, h)
    cp = _LowCumulative(ctx, substream(16, "cp"))
    denom = _step_cost(cp, replayed, 0)
    assert denom != STEP_COST_FLOOR
    assert denom == pytest.approx(2.0 * dt, rel=1e-12)
    state, enc = replayed
    inputs = state.candidate_arrays(enc, [0, 1])
    assert np.allclose(cp.predict_batch(inputs), [2.0 * (3 * dt + dt), 1.0], rtol=1e-12)
    # an unobserved pipeline keeps the net's prediction
    assert _step_cost(cp, replayed, 1) == pytest.approx(1.0)


def test_training_rows_keep_net_prediction(ctx, small_space):
    # observed cost conditions candidate rows only; training rows carry none
    encs = _encodings(small_space, substream(17, "train"), 1)
    h = History()
    for ep in range(1, 4):
        h.append(Observation(0, ep, 0.5, 2.0 * ep))
    state, enc = replay(ctx, encs, h)
    inputs, _, _ = state.train_inputs(enc, None)
    assert inputs.observed_cost is None
    cp = _LowCumulative(ctx, substream(18, "cp"))
    assert np.allclose(cp.predict_batch(inputs), 1.0)


def test_all_observed_rows_skip_the_network(ctx, small_space, monkeypatch):
    # every row is priced from its observed cost, which overwrites the net's
    # output: the net must not run, and the prices must not change
    encs = _encodings(small_space, substream(19, "skip"), 4)
    h = History()
    for pid in range(3):
        for ep in range(1, pid + 2):
            h.append(Observation(pid, ep, 0.5, 1.5 * ep + pid))
    cp = CostPredictor(ctx, substream(20, "cp"))
    calls = []
    real = cp.raw_batch
    monkeypatch.setattr(cp, "raw_batch", lambda inputs: calls.append(len(inputs)) or real(inputs))
    state, enc = replay(ctx, encs, h)
    observed = state.candidate_arrays(enc, [0, 1, 2])
    priced = cp.predict_batch(observed)
    assert calls == []
    c = observed.observed_cost
    assert np.array_equal(priced, c + c / np.array([1.0, 2.0, 3.0]))
    # one unobserved row brings the net back, for every row of the batch
    mixed = state.candidate_arrays(enc, [0, 1, 2, 3])
    mixed_priced = cp.predict_batch(mixed)
    assert calls == [4]
    assert np.array_equal(mixed_priced[:3], priced)
    assert mixed_priced[3] == np.expm1(max(real(mixed)[3], 0.0))
