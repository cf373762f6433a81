"""Point-estimate runtime-cost predictor and the per-step cost used in the
acquisition denominator.

The network mirrors the surrogate's feature extractor (independent
weights) with a scalar head regressing log(1 + cumulative cost seconds);
squared error is minimized in that transformed space so large models do
not dominate the objective.  It is trained (and meta-trained) on the
cumulative cost of every observation.

The predicted cumulative cost c_hat(x, tau) of a candidate's next epoch
tau is formed in one of two ways:

- a pipeline with no observed epoch (tau = dt) takes the network's
  prediction;
- a pipeline observed up to epoch tau - dt, at cumulative cost c, is priced
  from its own observed cost: c_hat = c + dt * c / (tau - dt), the cost so
  far plus one step at its observed mean rate.

The acquisition divides by c_hat(x, tau) - c(x, tau - dt), so an observed
pipeline's step is its observed rate and cannot cancel to the floor through
a few-percent error in a cumulative prediction ~tau/dt times larger than
the step it prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import EncodedPipeline, History, query_epoch
from .neural import Adam, Dense, NonFiniteGradientError, ParamBlock
from .surrogate import (
    LATENT_WIDTH,
    FeatureExtractor,
    PredictorContext,
    PredictorInputs,
    candidate_inputs,
    history_inputs,
)

STEP_COST_FLOOR = 1e-6


class FidelityExhaustedError(RuntimeError):
    """Raised when a pipeline's next epoch lies beyond the benchmark horizon."""


@dataclass
class CostFitReport:
    initial_mse: float
    final_mse: float
    steps: int
    rolled_back: bool = False


class CostPredictor:
    """Encoder identical in architecture to the surrogate's, plus a scalar head."""

    def __init__(self, ctx: PredictorContext, rng: np.random.Generator) -> None:
        self.ctx = ctx
        self.fx = FeatureExtractor(ctx, rng, name="cost")
        self.head = Dense("cost.head", LATENT_WIDTH, 1, rng)

    def params(self) -> list[ParamBlock]:
        return self.fx.params() + self.head.params()

    def raw_batch(self, inputs: PredictorInputs) -> np.ndarray:
        z, _ = self.fx.forward(inputs)
        out, _ = self.head.forward(z)
        return out[:, 0]

    def predict_batch(self, inputs: PredictorInputs) -> np.ndarray:
        """Predicted cumulative cost c_hat(x, tau) in seconds at each row's
        epoch tau, always nonnegative.

        Rows without ``observed_cost`` (training rows) and candidate rows at
        tau = dt take the network's prediction.  A candidate row observed up
        to tau - dt at cumulative cost c gets c + dt * c / (tau - dt): its
        observed cost plus one step at its observed mean rate.
        """
        pred = np.expm1(np.maximum(self.raw_batch(inputs), 0.0))
        if inputs.observed_cost is not None:
            prev = np.rint(inputs.tfrac * self.ctx.n_epochs) - self.ctx.dt
            seen = prev > 0
            c = inputs.observed_cost[seen]
            pred[seen] = c + self.ctx.dt * c / prev[seen]
        return pred

    def predict_one(self, inputs: PredictorInputs, index: int = 0) -> float:
        return float(self.predict_batch(inputs)[index])

    def mse_with_grads(
        self, inputs: PredictorInputs, costs: np.ndarray, flat1: np.ndarray | None = None
    ) -> float:
        """Mean squared error in log1p space; gradients accumulate into blocks."""
        z, trace = self.fx.forward(inputs, flat1=flat1)
        raw, head_cache = self.head.forward(z)
        raw = raw[:, 0]
        target = np.log1p(np.asarray(costs, dtype=np.float64))
        resid = raw - target
        n = len(resid)
        value = float(resid @ resid) / n
        draw = (2.0 / n) * resid
        dz = self.head.backward(head_cache, draw[:, None])
        self.fx.backward(trace, dz)
        return value

    def mse(self, inputs: PredictorInputs, costs: np.ndarray) -> float:
        raw = self.raw_batch(inputs)
        resid = raw - np.log1p(np.asarray(costs, dtype=np.float64))
        return float(resid @ resid) / len(resid)

    def fit(
        self,
        inputs: PredictorInputs,
        costs: np.ndarray,
        steps: int = 100,
        lr: float = 1e-4,
    ) -> CostFitReport:
        """Full-batch Adam on the log-cost squared error; keeps the best
        parameters seen, rolling back entirely on a non-finite loss."""
        costs = np.asarray(costs, dtype=np.float64)
        if len(costs) == 0:
            return CostFitReport(initial_mse=math.nan, final_mse=math.nan, steps=0)
        params = self.params()
        pre_fit = [p.values.copy() for p in params]
        adam = Adam(params, lr)
        best_val = math.inf
        best_state: list[np.ndarray] | None = None
        initial = math.nan
        flat1 = self.fx.curve_encoder.unroll(inputs.curves) if steps > 0 else None
        for step in range(steps):
            adam.zero_grad()
            val = self.mse_with_grads(inputs, costs, flat1=flat1)
            if step == 0:
                initial = val
            if not math.isfinite(val):
                for p, saved in zip(params, pre_fit):
                    p.values[...] = saved
                return CostFitReport(initial_mse=initial, final_mse=initial, steps=step, rolled_back=True)
            if val < best_val:
                best_val = val
                best_state = [p.values.copy() for p in params]
            try:
                adam.step()
            except NonFiniteGradientError:
                for p, saved in zip(params, pre_fit):
                    p.values[...] = saved
                return CostFitReport(initial_mse=initial, final_mse=initial, steps=step, rolled_back=True)
        final = self.mse(inputs, costs)
        if not (math.isfinite(final) and final <= best_val):
            for p, saved in zip(params, best_state):
                p.values[...] = saved
            final = best_val
        return CostFitReport(initial_mse=initial, final_mse=final, steps=steps)


def fit_on_history(
    cp: CostPredictor,
    h: History,
    encodings: Mapping[int, EncodedPipeline],
    ctx: PredictorContext,
    steps: int = 100,
    lr: float = 1e-4,
    window: int | None = None,
) -> CostFitReport:
    if len(h) == 0:
        return CostFitReport(initial_mse=math.nan, final_mse=math.nan, steps=0)
    inputs, _, costs = history_inputs(h, encodings, ctx, window=window)
    return cp.fit(inputs, costs, steps=steps, lr=lr)


def next_step_cost(
    cp: CostPredictor,
    pipeline_id: int,
    h: History,
    encodings: Mapping[int, EncodedPipeline],
    ctx: PredictorContext,
) -> float:
    """Predicted incremental cost of evaluating the pipeline's next epoch:
    predicted cumulative cost minus the observed cumulative cost one step
    earlier (zero for unobserved pipelines), clamped to a small positive floor.

    For an unobserved pipeline this is the network's cumulative prediction;
    for an observed one ``predict_batch`` prices the step at the pipeline's
    observed mean cost per epoch, so the difference is dt times that rate."""
    tau = query_epoch(h, pipeline_id, ctx.dt)
    if tau > ctx.n_epochs:
        raise FidelityExhaustedError(f"pipeline {pipeline_id} already at the last epoch")
    inputs, _ = candidate_inputs([pipeline_id], h, encodings, ctx)
    predicted = cp.predict_one(inputs)
    observed = h.cum_cost_at(pipeline_id, tau - ctx.dt)
    return max(predicted - observed, STEP_COST_FLOOR)
