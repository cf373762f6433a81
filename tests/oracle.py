"""Reference implementations that only the tests use.

``optimizer._RunState`` and ``optimizer._ScoreCache`` keep the predictors'
inputs, the GP posterior and the cost predictions up to date one
evaluation at a time.  The functions here recompute the same quantities
from a ``History`` alone, by the definitions, so tests can check the
incremental path against them.

The program gathers every predictor input through one function,
``surrogate.Encodings.inputs``.  The reference inputs here are stacked row
by row instead, by ``assemble_inputs``: the training and candidate rows
(``history_inputs``, ``candidate_inputs``), the one-query latent vector
(``features``) and the per-cell meta-train batch (``cell_batch``).  The
finite-difference gradient oracle, the scalar expected improvement, the
``np.where`` form of softplus and the score cache's rank-1 step computed
from scratch live here too.

The predictor passes work in place; their plain forms are kept here as
the byte-for-byte references: the convolution through a zero-padded copy
of its input (``conv_unroll``, ``conv_forward``, ``conv_backward``), the
curve encoder's forward and backward pass built from them
(``curve_encoder_pass``), and ``nll_with_grads`` with its kernel block as
plain expressions, one new array per operation.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from graybo.acquisition import ei_scores, expected_improvement_batch
from graybo.benchtab import DatasetTable
from graybo.core import EncodedPipeline, History, SearchSpace, encode, incumbent_loss
from graybo.costmodel import CostPredictor
from graybo.neural import Conv1d, CurveEncoder, ParamBlock
from graybo.optimizer import _NeedsRebuild, _RunState, _ScoreCache
from graybo.surrogate import (
    NOISE_FLOOR,
    SQRT5,
    DeepKernelGP,
    Encodings,
    PredictorContext,
    PredictorInputs,
    _chol_with_jitter,
    _pairwise_sqdist,
    kernel_matrix,
    scale_meta,
    solve_lower,
)


def assemble_inputs(
    ctx: PredictorContext,
    encodings: Sequence[EncodedPipeline],
    curves: Sequence[np.ndarray],
    epochs: Sequence[int],
) -> PredictorInputs:
    """Predictor inputs stacked row by row from each row's encoding, its
    curve as given and its epoch, with the scaled meta row tiled."""
    n = len(encodings)
    hp = np.stack([e.features[: ctx.hp_width] for e in encodings]) if n else np.zeros((0, ctx.hp_width))
    onehot = np.stack([e.features[ctx.hp_width :] for e in encodings]) if n else np.zeros((0, ctx.n_models))
    cm = np.stack(curves) if n else np.zeros((0, ctx.n_epochs))
    epoch = np.asarray(epochs, dtype=np.int64)
    meta = np.tile(scale_meta(ctx.meta), (n, 1))
    return PredictorInputs(hp=hp, model_onehot=onehot, curves=cm, epoch=epoch, meta=meta)


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
) -> tuple[_RunState, Encodings]:
    """A tuning run-state that has recorded every observation of ``h``, in
    order, over the pipelines ``0 .. len(encodings) - 1``, and the encoding
    blocks its predictor inputs are gathered from."""
    n = len(encodings)
    state = _RunState(n, ctx.n_epochs, ctx.dt)
    for o in h:
        state.record(o.pipeline_id, o.epoch, o.val_loss, o.cum_cost)
    return state, Encodings.of(ctx, [encodings[p] for p in range(n)])


def recompute_rank1(cache: _ScoreCache, state: _RunState) -> None:
    """``_ScoreCache.apply_evaluation`` with the new training row computed
    from scratch: its latent from a one-row forward pass of its training
    inputs (``train_inputs``), its solve from an n x 1 kernel column,
    instead of the pre-evaluation candidate row's latent and column."""
    gp = cache.gp
    pid = int(state.rows[0, state.n_rows - 1])
    if cache.n == cache.Ztr.shape[0]:
        cache._grow()
    n = cache.n
    row, y, _ = state.train_inputs(cache.enc, 1)
    z_new = gp.features_batch(row)[0]
    b = kernel_matrix(cache.Ztr[:n], z_new[None, :], gp.kernel)[:, 0]
    wvec = solve_lower(cache.L[:n], b)
    d2 = cache.diag - float(wvec @ wvec)
    if not d2 > 1e-10:
        raise _NeedsRebuild
    d = math.sqrt(d2)
    cache.L[n, :n] = wvec
    cache.L[n, n] = d
    cache.Ztr[n] = z_new
    y_norm = (y[0] - gp.y_mean) / gp.y_std
    cache.w[n] = (y_norm - float(wvec @ cache.w[:n])) / d
    ks_row = kernel_matrix(z_new[None, :], cache.Zc, gp.kernel)[0]
    v_row = (ks_row - wvec @ cache.V[:n]) / d
    cache.V[n] = v_row
    cache.colnorm2 += v_row**2
    cache.n = n + 1
    cand = state.candidate_arrays(cache.enc, [pid])
    zc = gp.features_batch(cand)[0]
    cache.Zc[pid] = zc
    ks_col = kernel_matrix(cache.Ztr[: cache.n], zc[None, :], gp.kernel)[:, 0]
    col = solve_lower(cache.L[: cache.n], ks_col)
    cache.V[: cache.n, pid] = col
    cache.colnorm2[pid] = float(col @ col)
    if cache.cp is not None:
        cache.cost_pred[pid] = cache.cp.predict_batch(cand)[0]


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


def conv_unroll(conv: Conv1d, x: np.ndarray) -> np.ndarray:
    """``Conv1d.unroll`` copied out of a zero-padded copy of ``x``."""
    batch, _, length = x.shape
    padded = np.zeros((batch, conv.c_in, length + 2 * conv.pad))
    padded[:, :, conv.pad : conv.pad + length] = x
    windows = np.empty((batch, conv.c_in, conv.width, length))
    for j in range(conv.width):
        windows[:, :, j, :] = padded[:, :, j : j + length]
    return windows.reshape(batch, conv.c_in * conv.width, length)


def conv_forward(conv: Conv1d, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Conv1d.forward`` of ``x``: the output and the window matrix."""
    flat = conv_unroll(conv, x)
    w_mat = conv.W.values.reshape(conv.c_out, conv.c_in * conv.width)
    return np.matmul(w_mat, flat) + conv.b.values[None, :, None], flat


def conv_backward(conv: Conv1d, flat: np.ndarray, dy: np.ndarray, need_dx: bool = True):
    """``Conv1d.backward``, with the input gradient summed in a zero-padded
    array, window 0 first, and returned as a strided view of its middle."""
    batch, length = dy.shape[0], dy.shape[2]
    ck = conv.c_in * conv.width
    dW = np.matmul(dy, flat.transpose(0, 2, 1)).sum(axis=0)
    conv.W.grad += dW.reshape(conv.c_out, conv.c_in, conv.width)
    conv.b.grad += dy.sum(axis=(0, 2))
    if not need_dx:
        return None
    dflat = np.matmul(conv.W.values.reshape(conv.c_out, ck).T, dy)
    dwin = dflat.reshape(batch, conv.c_in, conv.width, length)
    dpad = np.zeros((batch, conv.c_in, length + 2 * conv.pad))
    for j in range(conv.width):
        dpad[:, :, j : j + length] += dwin[:, :, j, :]
    return dpad[:, :, conv.pad : conv.pad + length]


def curve_encoder_pass(ce: CurveEncoder, curves: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """``CurveEncoder.forward`` then ``backward`` with ``dz`` from the plain
    convolution and the ``np.where`` softplus; returns the embedding and
    accumulates the gradients into ``ce``'s blocks."""
    h1, flat1 = conv_forward(ce.conv1, curves[:, None, :])
    a1, m1 = softplus(h1)
    h2, flat2 = conv_forward(ce.conv2, a1)
    a2, m2 = softplus(h2)
    da2 = np.broadcast_to(dz[:, :, None] / ce.n_epochs, m2.shape)
    da1 = conv_backward(ce.conv2, flat2, da2 * m2)
    conv_backward(ce.conv1, flat1, da1 * m1, need_dx=False)
    return a2.mean(axis=2)


def nll_with_grads(gp: DeepKernelGP, inputs: PredictorInputs, y: np.ndarray) -> float:
    """``DeepKernelGP.nll_with_grads`` with the kernel, its parameter
    gradients and the latent-gradient weights C as plain expressions."""
    z, trace = gp.fx.forward(inputs)
    y_n = gp.normalize(y)
    n = len(y_n)
    if not np.all(np.isfinite(z)):
        return math.inf
    ls = gp.kernel.lengthscale
    sv = gp.kernel.signal_var
    noise = gp.kernel.noise_var
    r = np.sqrt(_pairwise_sqdist(z, z))
    u = SQRT5 * r / ls
    e = np.exp(-u)
    K = sv * (1.0 + u + u * u / 3.0) * e
    A = K.copy()
    d = np.arange(n)
    A[d, d] += noise
    if not np.all(np.isfinite(A)):
        return math.inf
    L, _ = _chol_with_jitter(A)
    w = solve_lower(L, y_n)
    alpha = solve_lower(L, w, transpose=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    value = 0.5 * float(w @ w) + 0.5 * logdet + 0.5 * n * math.log(2.0 * math.pi)
    Linv = solve_lower(L, np.eye(n))
    G = 0.5 * (Linv.T @ Linv - np.outer(alpha, alpha))
    gp.kernel.log_sv.grad += np.sum(G * K)
    gp.kernel.log_ls.grad += np.sum(G * (sv * (u * u / 3.0) * (1.0 + u) * e))
    gp.kernel.log_nv.grad += np.trace(G) * (noise - NOISE_FLOOR)
    C = -(5.0 * sv / (3.0 * ls * ls)) * (1.0 + u) * e
    W = G * C
    dz = 2.0 * (W.sum(axis=1)[:, None] * z - W @ z)
    gp.fx.backward(trace, dz)
    return value


def cell_batch(
    table: DatasetTable,
    space: SearchSpace,
    ctx: PredictorContext,
    pis: np.ndarray,
    eps: np.ndarray,
) -> tuple[PredictorInputs, np.ndarray, np.ndarray]:
    """``metalearn._DatasetCache.cell_batch`` built one cell at a time:
    each (pipeline, epoch) cell's curve is a zero vector with the
    pipeline's true losses copied in up to epoch - dt."""
    ctx = dataclasses.replace(ctx, meta=table.meta)
    encodings = [encode(p, space) for p in table.pipelines]
    n_ep = table.n_epochs
    encs, curves, epochs = [], [], []
    for pi, ep in zip(pis, eps):
        encs.append(encodings[pi])
        curve = np.zeros(n_ep)
        curve[: max(ep - ctx.dt, 0)] = table.losses[pi, : max(ep - ctx.dt, 0)]
        curves.append(curve)
        epochs.append(int(ep))
    inputs = assemble_inputs(ctx, encs, curves, epochs)
    return inputs, table.losses[pis, eps - 1], table.costs[pis, eps - 1]
