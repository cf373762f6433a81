"""Expected Improvement, its cost-per-unit variant, and the argmax.

``ei_scores`` scores each candidate's next unobserved epoch: the EI of
beating the incumbent loss at that fidelity, optionally divided by the
predicted incremental cost of training that one step,
max(c_hat(x, tau) - c(x, tau - dt), STEP_COST_FLOOR).  ``c_hat`` comes from
``CostPredictor.predict_batch``: the cost network's prediction for an
unobserved pipeline, and for an observed one its observed cumulative cost
plus one step at its observed mean rate, so that step is never priced by
the difference of two nearly equal cumulative costs.  The tuning loop's
score cache supplies the posterior moments and cost predictions.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import erfc

from .costmodel import STEP_COST_FLOOR

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_cdf(u: np.ndarray | float) -> np.ndarray | float:
    return 0.5 * erfc(-np.asarray(u, dtype=np.float64) / SQRT2)


def norm_pdf(u: np.ndarray | float) -> np.ndarray | float:
    u = np.asarray(u, dtype=np.float64)
    return INV_SQRT_2PI * np.exp(-0.5 * u * u)


def expected_improvement_batch(mu: np.ndarray, sigma: np.ndarray, incumbent: np.ndarray) -> np.ndarray:
    """Closed-form EI for minimization, E[max(incumbent - loss, 0)] under
    loss ~ N(mu, sigma^2), per row; max(incumbent - mu, 0) where sigma = 0."""
    gap = incumbent - mu
    out = np.maximum(gap, 0.0)
    pos = sigma > 0.0
    if np.any(pos):
        u = gap[pos] / sigma[pos]
        out[pos] = gap[pos] * norm_cdf(u) + sigma[pos] * norm_pdf(u)
    return out


def ei_scores(
    mean: np.ndarray,
    std: np.ndarray,
    incumbents: np.ndarray,
    predicted_cost: np.ndarray | None,
    observed_cum: np.ndarray | None,
    cost_aware: bool,
) -> np.ndarray:
    """Acquisition values from posterior moments and cost estimates: EI,
    divided by max(predicted_cost - observed_cum, STEP_COST_FLOOR) when
    ``cost_aware``."""
    ei = expected_improvement_batch(mean, std, incumbents)
    if not cost_aware:
        return ei
    if predicted_cost is None:
        raise ValueError("cost-aware scoring needs a cost predictor")
    denom = np.maximum(predicted_cost - observed_cum, STEP_COST_FLOOR)
    return ei / denom


def argmax_lowest_id(pool: Sequence[int], scores: np.ndarray) -> int:
    """Argmax with exact ties broken toward the lowest pipeline id."""
    best_pid = pool[0]
    best_score = scores[0]
    for pid, s in zip(pool[1:], scores[1:]):
        if s > best_score or (s == best_score and pid < best_pid):
            best_pid = pid
            best_score = s
    return int(best_pid)


def subsample_pool(pool: list[int], cap: int, rng: np.random.Generator) -> list[int]:
    """At most ``cap`` pipelines of ``pool``, drawn without replacement and
    kept in pool order."""
    if len(pool) <= cap:
        return pool
    idx = rng.choice(len(pool), size=cap, replace=False)
    return [pool[i] for i in sorted(idx)]

