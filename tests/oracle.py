"""Reference implementations that only the tests use.

``optimizer._RunState`` and ``optimizer._ScoreCache`` keep the predictors'
inputs, the GP posterior and the cost predictions up to date one
evaluation at a time.  The functions here recompute the same quantities
from a ``History`` alone, by the definitions, so tests can check the
incremental path against them.  The finite-difference gradient oracle,
the scalar expected improvement, the one-query latent vector and the
``np.where`` form of softplus live here too.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from graybo.acquisition import ei_scores, expected_improvement_batch
from graybo.core import EncodedPipeline, History, incumbent_loss
from graybo.costmodel import CostPredictor
from graybo.neural import ParamBlock
from graybo.optimizer import _Encodings, _RunState
from graybo.surrogate import DeepKernelGP, PredictorContext, PredictorInputs, assemble_inputs


def build_curve(n_epochs: int, observed: Sequence[tuple[int, float]]) -> np.ndarray:
    """Zero-padded loss curve of length ``n_epochs`` from (epoch, loss) pairs."""
    curve = np.zeros(n_epochs)
    for epoch, loss in observed:
        if not 1 <= epoch <= n_epochs:
            raise ValueError(f"curve epoch {epoch} outside [1, {n_epochs}]")
        curve[epoch - 1] = loss
    return curve


def history_inputs(
    h: History,
    encodings: Mapping[int, EncodedPipeline],
    ctx: PredictorContext,
    window: int | None = None,
) -> tuple[PredictorInputs, np.ndarray, np.ndarray]:
    """Training rows for the predictors: one per observation, with the
    pipeline's earlier observed losses as the curve input and the
    observation's loss / cumulative cost as targets.

    ``window`` keeps only the most recent observations.
    """
    obs = list(h.observations)
    if window is not None and len(obs) > window:
        obs = obs[-window:]
    encs, curves, epochs = [], [], []
    for o in obs:
        encs.append(encodings[o.pipeline_id])
        pairs = [(p.epoch, p.val_loss) for p in h.of_pipeline(o.pipeline_id) if p.epoch < o.epoch]
        curves.append(build_curve(ctx.n_epochs, pairs))
        epochs.append(o.epoch)
    inputs = assemble_inputs(ctx, encs, curves, epochs)
    y = np.array([o.val_loss for o in obs])
    costs = np.array([o.cum_cost for o in obs])
    return inputs, y, costs


def candidate_inputs(
    pids: Sequence[int],
    h: History,
    encodings: Mapping[int, EncodedPipeline],
    ctx: PredictorContext,
) -> tuple[PredictorInputs, np.ndarray]:
    """Query rows at each candidate's next epoch, with everything observed
    so far as its curve input and its observed cumulative cost one step
    earlier as ``observed_cost``.  Returns inputs plus the query epochs."""
    encs, curves, epochs, observed = [], [], [], []
    for pid in pids:
        encs.append(encodings[pid])
        pairs = [(o.epoch, o.val_loss) for o in h.of_pipeline(pid)]
        curves.append(build_curve(ctx.n_epochs, pairs))
        last = h.max_epoch(pid)
        epochs.append(last + ctx.dt)
        observed.append(h.cum_cost_at(pid, last))
    inputs = assemble_inputs(ctx, encs, curves, epochs)
    inputs.observed_cost = np.asarray(observed, dtype=np.float64)
    return inputs, np.asarray(epochs, dtype=np.int64)


def features(
    gp: DeepKernelGP, enc: EncodedPipeline, observed: Sequence[tuple[int, float]], t: int
) -> np.ndarray:
    """The GP's latent vector for one pipeline queried at epoch ``t`` with
    the (epoch, loss) pairs ``observed`` as its curve."""
    ctx = gp.ctx
    if not 1 <= t <= ctx.n_epochs:
        raise ValueError(f"epoch {t} outside [1, {ctx.n_epochs}]")
    inputs = assemble_inputs(ctx, [enc], [build_curve(ctx.n_epochs, observed)], [t])
    return gp.features_batch(inputs)[0]


def reference_scores(
    pids: Sequence[int],
    h: History,
    gp: DeepKernelGP,
    cp: CostPredictor | None,
    encodings: Mapping[int, EncodedPipeline],
    ctx: PredictorContext,
    cost_aware: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(posterior mean, posterior std, acquisition score) at each
    candidate's next epoch, with the GP conditioned on the whole history."""
    cand, taus = candidate_inputs(pids, h, encodings, ctx)
    train, y, _ = history_inputs(h, encodings, ctx)
    post = gp.posterior(gp.features_batch(train), y, gp.features_batch(cand))
    incumbents = np.array([incumbent_loss(h, int(t)) for t in taus])
    predicted = cp.predict_batch(cand) if cost_aware else None
    scores = ei_scores(post.mean, post.std, incumbents, predicted, cand.observed_cost, cost_aware)
    return post.mean, post.std, scores


def replay(
    ctx: PredictorContext, encodings: Mapping[int, EncodedPipeline], h: History
) -> tuple[_RunState, _Encodings]:
    """A tuning run-state that has recorded every observation of ``h``, in
    order, over the pipelines ``0 .. len(encodings) - 1``, and the encoding
    blocks its predictor inputs are gathered from."""
    n = len(encodings)
    state = _RunState(n, ctx.n_epochs, ctx.dt)
    for o in h:
        state.record(o.pipeline_id, o.epoch, o.val_loss, o.cum_cost)
    return state, _Encodings.of(ctx, [encodings[p] for p in range(n)])


def expected_improvement(mu: float, sigma: float, incumbent: float) -> float:
    """Closed-form EI for minimization, E[max(incumbent - loss, 0)] under
    loss ~ N(mu, sigma^2), for one triple, through the batch formula the
    tuning loop runs."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    mu_, sigma_, inc_ = (np.array([v], dtype=np.float64) for v in (mu, sigma, incumbent))
    return float(expected_improvement_batch(mu_, sigma_, inc_)[0])


def grad_check(
    blocks: Sequence[ParamBlock],
    loss_fn: Callable[[], float],
    grad_fn: Callable[[], None],
    h: float = 1e-5,
    noise_floor: float = 0.0,
) -> float:
    """Max relative disagreement between analytic gradients and central
    finite differences over every scalar parameter:
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

    ``loss_fn`` evaluates the objective at the current parameters;
    ``grad_fn`` zeroes and then fills every block's ``grad``.

    Central differences carry an irreducible absolute error of order
    eps * |f| / h from rounding inside the objective; disagreements no
    larger than ``noise_floor`` are below the oracle's resolution and
    count as exact agreement when a positive floor is given.
    """
    grad_fn()
    analytic = [b.grad.copy() for b in blocks]
    worst = 0.0
    for b, g in zip(blocks, analytic):
        flat = b.values.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            step = h * max(1.0, abs(orig))
            flat[i] = orig + step
            hi = loss_fn()
            flat[i] = orig - step
            lo = loss_fn()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            gap = abs(gflat[i] - numeric)
            if gap <= noise_floor:
                continue
            denom = max(1e-8, abs(gflat[i]) + abs(numeric))
            worst = max(worst, gap / denom)
    return worst


def fd_noise_floor(f_scale: float, h: float = 1e-5, chain: float = 4e3) -> float:
    """Resolution bound of the central-difference oracle for an objective
    of magnitude ``f_scale``: rounding noise amplified through the
    evaluation chain plus same-order truncation on stiff objectives,
    divided by the step.  The chain constant is calibrated against the
    GP marginal-likelihood evaluation path."""
    eps = np.finfo(np.float64).eps
    return chain * eps * max(1.0, abs(f_scale)) / h


def softplus(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``neural.softplus`` by its textbook branches: log(1 + e^x) and the
    logistic sigmoid picked per sign with ``np.where``."""
    e = np.exp(-np.abs(x))
    y = np.maximum(x, 0.0) + np.log1p(e)
    denom = 1.0 + e
    return y, np.where(x >= 0.0, 1.0 / denom, e / denom)
