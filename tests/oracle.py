"""History-based reference for the tuning loop's incremental scoring.

``optimizer._RunState`` and ``optimizer._ScoreCache`` keep the predictors'
inputs, the GP posterior and the cost predictions up to date one
evaluation at a time.  The functions here recompute the same quantities
from a ``History`` alone, by the definitions, so tests can check the
incremental path against them.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from graybo.acquisition import ei_scores
from graybo.core import EncodedPipeline, History, incumbent_loss
from graybo.costmodel import CostPredictor
from graybo.optimizer import _RunState
from graybo.surrogate import (
    DeepKernelGP,
    PredictorContext,
    PredictorInputs,
    assemble_inputs,
    build_curve,
    history_inputs,
)


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
) -> _RunState:
    """A tuning run-state that has recorded every observation of ``h``, in
    order, over the pipelines ``0 .. len(encodings) - 1``."""
    state = _RunState(SimpleNamespace(n_pipelines=len(encodings)), ctx, encodings)
    for o in h:
        state.record(o.pipeline_id, o.epoch, o.val_loss, o.cum_cost)
    return state
