"""Point-estimate runtime-cost predictor.

The network mirrors the surrogate's feature extractor (independent
weights) with a scalar head regressing log(1 + cumulative cost seconds);
squared error is minimized in that transformed space so large models do
not dominate the objective.  Meta-training fits the whole network by Adam
on the cumulative cost of every observation (``mse_with_grads``).

Within a tuning run the extractor stays frozen and only the head adapts:
``fit`` refits [W; b] on the run's observations in closed form, by ridge
regression on the extractor's 32-wide latents, shrunk toward a prior head
(the meta-learned one, or the seeded initial one without meta-learning)
with weight ``HEAD_RIDGE`` -- the adaptive Bayesian linear regression
idea of Perrone et al. 2018, as a point estimate.

The predicted cumulative cost c_hat(x, tau) of a candidate's next epoch
tau is formed in one of two ways:

- a pipeline with no observed epoch (tau = dt) takes the network's
  prediction;
- a pipeline observed up to epoch tau - dt, at cumulative cost c, is priced
  from its own observed cost: c_hat = c + dt * c / (tau - dt), the cost so
  far plus one step at its observed mean rate.

``acquisition.ei_scores`` divides by c_hat(x, tau) - c(x, tau - dt), so an
observed pipeline's step is its observed rate and cannot cancel to the
floor through a few-percent error in a cumulative prediction ~tau/dt times
larger than the step it prices.
"""

from __future__ import annotations

import math

import numpy as np

from .neural import Dense, FitReport, ParamBlock
from .surrogate import LATENT_WIDTH, FeatureExtractor, PredictorContext, PredictorInputs

STEP_COST_FLOOR = 1e-6
# weight of the pull toward the prior head in ``CostPredictor.fit``;
# checked against 0.1 and 10 on the meta-validation fold (CHANGES.md)
HEAD_RIDGE = 1.0


def log_cost_mse(raw: np.ndarray, costs: np.ndarray) -> float:
    """Mean squared error of raw outputs against log1p(costs)."""
    resid = raw - np.log1p(np.asarray(costs, dtype=np.float64))
    return float(resid @ resid) / len(resid)


class CostPredictor:
    """Encoder identical in architecture to the surrogate's, plus a scalar head."""

    def __init__(self, ctx: PredictorContext, rng: np.random.Generator) -> None:
        self.ctx = ctx
        self.fx = FeatureExtractor(ctx, rng, name="cost")
        self.head = Dense("cost.head", LATENT_WIDTH, 1, rng)

    def params(self) -> list[ParamBlock]:
        return self.fx.params() + self.head.params()

    def raw_batch(self, inputs: PredictorInputs) -> np.ndarray:
        z, _ = self.fx.forward(inputs, grad=False)
        out, _ = self.head.forward(z)
        return out[:, 0]

    def predict_batch(self, inputs: PredictorInputs) -> np.ndarray:
        """Predicted cumulative cost c_hat(x, tau) in seconds at each row's
        epoch tau, always nonnegative.

        Rows without ``observed_cost`` (training rows) and candidate rows at
        tau = dt take the network's prediction.  A candidate row observed up
        to tau - dt at cumulative cost c gets c + dt * c / (tau - dt): its
        observed cost plus one step at its observed mean rate.  When every
        row is such a row the network is not run.
        """
        if inputs.observed_cost is None:
            return np.expm1(np.maximum(self.raw_batch(inputs), 0.0))
        prev = inputs.epoch - self.ctx.dt
        seen = prev > 0
        if seen.all():  # no row needs the network
            pred = np.empty(len(inputs))
        else:
            pred = np.expm1(np.maximum(self.raw_batch(inputs), 0.0))
        c = inputs.observed_cost[seen]
        pred[seen] = c + self.ctx.dt * c / prev[seen]
        return pred

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

    def head_vector(self) -> np.ndarray:
        """The head as one (LATENT_WIDTH + 1,) vector [W; b]."""
        return np.append(self.head.W.values[:, 0], self.head.b.values)

    def fit(self, inputs: PredictorInputs, costs: np.ndarray, prior: np.ndarray) -> FitReport:
        """Refit the head in closed form; the extractor is left as it is.

        With latents z of the rows and X = [z, 1], the head becomes the
        ridge solution of (X'X + HEAD_RIDGE I) theta = X' log1p(c) +
        HEAD_RIDGE prior.  The report holds the log-cost MSE before and
        after.  Non-finite latents or a non-finite solution leave the head
        as it was and mark the report rolled back; no rows, no change.
        """
        costs = np.asarray(costs, dtype=np.float64)
        if len(costs) == 0:
            return FitReport(math.nan, math.nan, 0)
        z, _ = self.fx.forward(inputs, grad=False)
        X = np.hstack([z, np.ones((len(z), 1))])
        initial = log_cost_mse(X @ self.head_vector(), costs)
        if not np.all(np.isfinite(z)):
            return FitReport(initial, initial, 0, rolled_back=True)
        gram = X.T @ X
        gram[np.diag_indices_from(gram)] += HEAD_RIDGE
        theta = np.linalg.solve(gram, X.T @ np.log1p(costs) + HEAD_RIDGE * prior)
        if not np.all(np.isfinite(theta)):
            return FitReport(initial, initial, 0, rolled_back=True)
        self.head.W.values[:, 0] = theta[:-1]
        self.head.b.values[0] = theta[-1]
        return FitReport(initial, log_cost_mse(X @ theta, costs), 1)
