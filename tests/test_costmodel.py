import math

import numpy as np
import pytest

from oracle import fd_noise_floor, grad_check, history_inputs, replay

from graybo import costmodel
from graybo.acquisition import ei_scores
from graybo.core import History, Observation, encode, sample_pipeline
from graybo.costmodel import HEAD_RIDGE, STEP_COST_FLOOR, CostPredictor, log_cost_mse
from graybo.neural import fit_best
from graybo.rng import substream
from graybo.surrogate import LATENT_WIDTH, PredictorContext

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


def _linear_history(n_pipelines, last_epoch, rate):
    h = History()
    for pid in range(n_pipelines):
        for ep in range(1, last_epoch + 1):
            h.append(Observation(pid, ep, 0.5, rate * ep))
    return h


def _window(ctx, small_space, seed, n_pipelines=4, n_epochs=3):
    """Training rows with random positive cumulative costs."""
    rng = substream(seed, "window")
    encs = _encodings(small_space, rng, n_pipelines)
    h = History()
    for pid in range(n_pipelines):
        cost = 0.0
        for ep in range(1, n_epochs + 1):
            cost += float(rng.uniform(1, 6))
            h.append(Observation(pid, ep, float(rng.uniform(0.1, 0.9)), cost))
    inputs, _, costs = history_inputs(h, encs, ctx)
    return inputs, costs


def test_fit_learns_linear_cost_table(ctx, small_space):
    # the extractor is trained (as meta-training trains it) on a 3 s/epoch
    # table; refitting the head alone on epochs 1..8 of a 2 s/epoch table
    # must then predict the held-out epochs 9..10
    encs = _encodings(small_space, substream(2, "lin"), 6)
    cp = CostPredictor(ctx, substream(3, "cp"))
    pre_inputs, _, pre_costs = history_inputs(_linear_history(6, 8, 3.0), encs, ctx)
    fit_best(
        cp.params(),
        lambda: cp.mse_with_grads(pre_inputs, pre_costs),
        lambda: log_cost_mse(cp.raw_batch(pre_inputs), pre_costs),
        3000,
        1e-2,
    )
    extractor = [p.values.copy() for p in cp.fx.params()]
    inputs, _, costs = history_inputs(_linear_history(6, 8, 2.0), encs, ctx)
    report = cp.fit(inputs, costs, cp.head_vector())
    assert report.steps == 1 and report.final < report.initial
    for p, before in zip(cp.fx.params(), extractor):
        assert np.array_equal(p.values, before)
    held = _linear_history(6, 10, 2.0)
    held_inputs, _, held_costs = history_inputs(held, encs, ctx)
    sel = [i for i, o in enumerate(held.observations) if o.epoch > 8]
    pred = cp.predict_batch(held_inputs)[sel]
    rel_err = np.abs(pred - held_costs[sel]) / held_costs[sel]
    assert np.median(rel_err) <= 0.05


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_head_refit_equals_the_ridge_normal_equations(ctx, small_space, seed):
    inputs, costs = _window(ctx, small_space, seed)
    cp = CostPredictor(ctx, substream(seed, "cp-ridge"))
    prior = substream(seed, "prior").standard_normal(LATENT_WIDTH + 1)
    z, _ = cp.fx.forward(inputs)
    # the ridge problem as ordinary least squares on an augmented system:
    # [X; sqrt(lam) I] theta = [log1p(c); sqrt(lam) prior]
    X = np.hstack([z, np.ones((len(z), 1))])
    root = math.sqrt(HEAD_RIDGE)
    A = np.vstack([X, root * np.eye(LATENT_WIDTH + 1)])
    rhs = np.concatenate([np.log1p(costs), root * prior])
    expected = np.linalg.lstsq(A, rhs, rcond=None)[0]
    report = cp.fit(inputs, costs, prior)
    assert np.allclose(cp.head_vector(), expected, rtol=1e-10, atol=0.0)
    assert report.final == pytest.approx(log_cost_mse(cp.raw_batch(inputs), costs), rel=1e-12)
    assert not report.rolled_back


def test_head_refit_with_a_huge_ridge_returns_the_prior(ctx, small_space, monkeypatch):
    monkeypatch.setattr(costmodel, "HEAD_RIDGE", 1e12)
    inputs, costs = _window(ctx, small_space, 3)
    cp = CostPredictor(ctx, substream(3, "cp-prior"))
    prior = substream(3, "prior").standard_normal(LATENT_WIDTH + 1)
    cp.fit(inputs, costs, prior)
    assert np.allclose(cp.head_vector(), prior, rtol=0.0, atol=1e-9)


def test_fit_never_increases_loss(ctx, small_space):
    # starting from the prior head, the solution minimizes
    # n * MSE + HEAD_RIDGE * |theta - prior|^2, so its MSE is no larger
    for seed in range(20):
        inputs, costs = _window(ctx, small_space, seed, n_pipelines=3)
        cp = CostPredictor(ctx, substream(seed, "cpc"))
        prior = cp.head_vector()
        report = cp.fit(inputs, costs, prior)
        shrink = HEAD_RIDGE * float(np.sum((cp.head_vector() - prior) ** 2))
        assert len(costs) * report.final + shrink <= len(costs) * report.initial * (1 + 1e-12)


def test_head_refit_with_a_nan_latent_rolls_back(ctx, small_space):
    inputs, costs = _window(ctx, small_space, 4)
    cp = CostPredictor(ctx, substream(4, "cp-nan"))
    cp.fx.trunk.layers[0].W.values[0, 0] = np.nan
    before = [p.values.copy() for p in cp.params()]
    report = cp.fit(inputs, costs, np.zeros(LATENT_WIDTH + 1))
    assert report.rolled_back and report.steps == 0
    assert not math.isfinite(report.final)
    for p, b in zip(cp.params(), before):
        assert np.array_equal(p.values, b, equal_nan=True)


def test_fit_empty_history_is_noop(ctx):
    cp = CostPredictor(ctx, substream(4, "cp"))
    before = [p.values.copy() for p in cp.params()]
    inputs, _, costs = history_inputs(History(), {}, ctx)
    report = cp.fit(inputs, costs, np.zeros(LATENT_WIDTH + 1))
    assert report.steps == 0 and not report.rolled_back
    for p, b in zip(cp.params(), before):
        assert np.array_equal(p.values, b)


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
    cp.fit(inputs, costs, cp.head_vector())
    after = np.abs(cp.raw_batch(inputs)).mean()
    assert after < before


def test_gradients_match_finite_differences(ctx, small_space):
    inputs, costs = _window(ctx, small_space, 7)
    cp = CostPredictor(ctx, substream(8, "cp"))

    def loss_fn():
        return log_cost_mse(cp.raw_batch(inputs), costs)

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
