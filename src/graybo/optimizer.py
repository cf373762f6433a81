"""Budgeted gray-box Bayesian-optimization loop over a tabular benchmark.

One run: a mandatory random first evaluation, then repeatedly refit the
loss and cost predictors on the observations so far, pick the candidate
maximizing expected improvement per unit cost at its next epoch, and
evaluate that one epoch step, until the simulated-seconds budget is
crossed or every pipeline is fully trained.

``_RunState`` is the one record of a run's observations, for this loop and
for the baselines in ``evalkit``: it queries each step, prices it and
writes it to the trace through ``TraceRecorder``.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .acquisition import argmax_lowest_id, ei_scores, subsample_pool
from .benchtab import BenchmarkQueryError, DatasetView
from .core import EncodedPipeline, HistoryOrderError, SearchSpace, encode
from .costmodel import CostPredictor
from .rng import substream
from .surrogate import (
    LATENT_WIDTH as LATENT,
    DeepKernelGP,
    PredictorContext,
    PredictorInputs,
    _chol_with_jitter,
    kernel_matrix,
    scale_meta,
    single_thread_numpy_blas,
    solve_lower,
)

log = logging.getLogger("graybo.optimizer")

# most candidates scored per iteration; larger pools are subsampled
CANDIDATE_CAP = 2000


@dataclass(frozen=True)
class TuneConfig:
    """Run configuration; ``full_fidelity`` forces the epoch step to the
    benchmark horizon (whole curves in one evaluation).

    ``fit_window`` refits the predictors on only the most recent
    observations (posterior conditioning still sees everything);
    ``max_steps`` hard-caps the number of evaluations; ``refit_period``
    refits only every k-th iteration once 30 observations exist (the exact
    posterior still reconditions on the full history every iteration).
    All three default to the unbounded every-iteration behavior.
    """

    budget_seconds: float
    dt: int = 1
    use_meta: bool = False
    use_cost: bool = True
    full_fidelity: bool = False
    fit_steps: int = 100
    lr: float = 1e-4
    seed: int = 0
    count_overhead: bool = False
    fit_window: int | None = None
    max_steps: int | None = None
    refit_period: int = 1

    def __post_init__(self) -> None:
        if self.budget_seconds <= 0:
            raise ValueError("budget_seconds must be > 0")
        if self.dt < 1:
            raise ValueError("dt must be >= 1")
        if self.refit_period < 1:
            raise ValueError("refit_period must be >= 1")
        if self.fit_steps < 0:
            raise ValueError("fit_steps must be >= 0")
        if self.fit_window is not None and self.fit_window < 1:
            raise ValueError("fit_window must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and > 0")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def flags(self) -> dict:
        return {
            "budget_seconds": self.budget_seconds,
            "dt": self.dt,
            "use_meta": self.use_meta,
            "use_cost": self.use_cost,
            "full_fidelity": self.full_fidelity,
            "fit_steps": self.fit_steps,
            "lr": self.lr,
            "count_overhead": self.count_overhead,
            "fit_window": self.fit_window,
            "max_steps": self.max_steps,
            "refit_period": self.refit_period,
        }


@dataclass(frozen=True)
class TraceStep:
    pipeline_id: int
    epoch: int
    loss: float
    step_cost: float
    cum_time: float
    incumbent: float


@dataclass
class RunTrace:
    method: str
    dataset: str
    seed: int
    flags: dict
    steps: list[TraceStep] = field(default_factory=list)
    overhead_seconds: float = 0.0
    exhausted: bool = False

    @property
    def final_cum_time(self) -> float:
        return self.steps[-1].cum_time if self.steps else 0.0

    def best(self) -> tuple[int, int, float]:
        """(pipeline_id, epoch, loss) of the minimal observed loss."""
        if not self.steps:
            raise ValueError("empty trace")
        best_step = min(self.steps, key=lambda s: s.loss)
        return best_step.pipeline_id, best_step.epoch, best_step.loss

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "dataset": self.dataset,
            "seed": self.seed,
            "flags": self.flags,
            "steps": [
                {
                    "pipeline": s.pipeline_id,
                    "epoch": s.epoch,
                    "loss": s.loss,
                    "step_cost": s.step_cost,
                    "cum_time": s.cum_time,
                    "incumbent": s.incumbent,
                }
                for s in self.steps
            ],
            "overhead_seconds": self.overhead_seconds,
            "exhausted": self.exhausted,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "RunTrace":
        payload = json.loads(text)
        steps = [
            TraceStep(
                pipeline_id=s["pipeline"],
                epoch=s["epoch"],
                loss=s["loss"],
                step_cost=s["step_cost"],
                cum_time=s["cum_time"],
                incumbent=s["incumbent"],
            )
            for s in payload["steps"]
        ]
        return cls(
            method=payload["method"],
            dataset=payload["dataset"],
            seed=payload["seed"],
            flags=payload["flags"],
            steps=steps,
            overhead_seconds=payload["overhead_seconds"],
            exhausted=payload["exhausted"],
        )


class TraceRecorder:
    """Shared budget accounting and trace writer: every optimizer's
    evaluations reach it through ``_RunState.evaluate``, so simulated-seconds
    semantics are identical across methods."""

    def __init__(self, method: str, dataset: str, seed: int, flags: dict, budget: float) -> None:
        self.budget = budget
        self.trace = RunTrace(method=method, dataset=dataset, seed=seed, flags=flags)
        self._cum = 0.0
        self._incumbent = np.inf

    def within_budget(self) -> bool:
        return self._cum <= self.budget

    def add_overhead(self, seconds: float) -> None:
        """Charge decision time to the trace and to the budget."""
        self.trace.overhead_seconds += seconds
        self._cum += seconds

    def record(self, pipeline_id: int, epoch: int, loss: float, step_cost: float) -> None:
        self._cum += step_cost
        self._incumbent = min(self._incumbent, loss)
        self.trace.steps.append(
            TraceStep(
                pipeline_id=pipeline_id,
                epoch=epoch,
                loss=loss,
                step_cost=step_cost,
                cum_time=self._cum,
                incumbent=float(self._incumbent),
            )
        )

    def finish(self, exhausted: bool = False) -> RunTrace:
        self.trace.exhausted = exhausted
        return self.trace


@dataclass(frozen=True)
class _Encodings:
    """Per-pipeline input blocks the predictors' inputs are gathered from:
    hyperparameters, model one-hot and the scaled meta-features (the same
    row for every pipeline)."""

    hp: np.ndarray
    onehot: np.ndarray
    meta: np.ndarray

    @classmethod
    def of(cls, ctx: PredictorContext, encodings: Sequence[EncodedPipeline]) -> "_Encodings":
        feats = np.stack([e.features for e in encodings])
        meta = np.broadcast_to(scale_meta(ctx.meta), (len(feats), 4))
        return cls(feats[:, : ctx.hp_width], feats[:, ctx.hp_width :], meta)


class _RunState:
    """The one record of a run's observations, for ``tune`` and the baselines.

    Row i (the i-th evaluation) is ``rows[:, i]`` = (pipeline, epoch, loss,
    cumulative cost), stored column-wise so a field of a run of rows is one
    contiguous slice.  Per pipeline, ``cand_tau`` is the next epoch to
    query, ``cand_last_cum`` the cumulative cost so far and ``cand_curves``
    the observed losses by epoch.  Predictor inputs are gathered on demand:
    a row's curve input is its pipeline's losses at earlier epochs.
    """

    def __init__(
        self, n_pipelines: int, n_epochs: int, dt: int, recorder: TraceRecorder | None = None
    ) -> None:
        self.n_epochs = n_epochs
        self.dt = dt
        self.recorder = recorder
        self.rows = np.empty((4, 64))
        self.n_rows = 0
        self.cand_curves = np.zeros((n_pipelines, n_epochs))
        self.cand_tau = np.full(n_pipelines, dt, dtype=np.int64)
        self.cand_last_cum = np.zeros(n_pipelines)
        self.epoch_min = np.full(n_epochs + 1, np.inf)

    def evaluate(self, view: DatasetView, pid: int) -> None:
        """Query the pipeline's next epoch, record it, and write the step,
        priced as the cumulative cost less the last observed one, to the trace."""
        epoch = int(self.cand_tau[pid])
        loss, cum_cost = view.query(pid, epoch)
        step_cost = float(cum_cost - self.cand_last_cum[pid])
        self.record(pid, epoch, loss, cum_cost)
        self.recorder.record(pid, epoch, loss, step_cost)

    def record(self, pid: int, epoch: int, loss: float, cum_cost: float) -> None:
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"val_loss {loss} outside [0, 1]")
        if not cum_cost >= 0.0:
            raise ValueError("cum_cost must be >= 0")
        if epoch != self.cand_tau[pid]:
            raise HistoryOrderError(f"pipeline {pid}: epoch {epoch}, expected {self.cand_tau[pid]}")
        if cum_cost < self.cand_last_cum[pid]:
            raise HistoryOrderError(f"pipeline {pid}: cum_cost decreased at epoch {epoch}")
        if self.n_rows == self.rows.shape[1]:
            self.rows = np.concatenate([self.rows, np.empty_like(self.rows)], axis=1)
        self.rows[:, self.n_rows] = pid, epoch, loss, cum_cost
        self.n_rows += 1
        self.cand_curves[pid, epoch - 1] = loss
        self.cand_tau[pid] = epoch + self.dt
        self.cand_last_cum[pid] = cum_cost
        self.epoch_min[epoch] = min(self.epoch_min[epoch], loss)

    def best(self) -> tuple[int, int, float]:
        """(pipeline, epoch, loss) of the first row with the minimal loss."""
        pid, epoch, loss = self.rows[:3, int(np.argmin(self.rows[2, : self.n_rows]))]
        return int(pid), int(epoch), float(loss)

    def train_inputs(self, enc: _Encodings, window: int | None):
        """The last ``window`` rows (all by default) as predictor inputs,
        with their loss and cumulative-cost targets."""
        lo = 0 if window is None else max(0, self.n_rows - window)
        pid, epoch, y, cost = self.rows[:, lo : self.n_rows]
        pid = pid.astype(np.int64)
        earlier = np.arange(1, self.n_epochs + 1) < epoch[:, None]
        inputs = PredictorInputs(
            hp=enc.hp[pid],
            model_onehot=enc.onehot[pid],
            curves=np.where(earlier, self.cand_curves[pid], 0.0),
            tfrac=epoch / self.n_epochs,
            meta=enc.meta[pid],
        )
        return inputs, y, cost

    def candidate_pool(self) -> list[int]:
        return [int(p) for p in np.nonzero(self.cand_tau <= self.n_epochs)[0]]

    def candidate_arrays(self, enc: _Encodings, pool) -> PredictorInputs:
        idx = np.asarray(pool, dtype=np.int64)
        return PredictorInputs(
            hp=enc.hp[idx],
            model_onehot=enc.onehot[idx],
            curves=self.cand_curves[idx],
            tfrac=self.cand_tau[idx] / self.n_epochs,
            meta=enc.meta[idx],
            observed_cost=self.cand_last_cum[idx],
        )

    def incumbent_table(self) -> np.ndarray:
        """incumbent at each epoch: exact-epoch minimum, else the minimum
        over earlier epochs, else the global minimum."""
        min_at = self.epoch_min[1:]
        below = np.concatenate(([np.inf], np.minimum.accumulate(min_at)[:-1]))
        table = np.where(np.isfinite(min_at), min_at, below)
        return np.where(np.isfinite(table), table, min_at.min())


class _NeedsRebuild(Exception):
    pass


class _ScoreCache:
    """Exact GP posterior moments and cost predictions over all candidates,
    maintained incrementally between parameter refits.

    A refit rebuilds everything; between refits each evaluation appends one
    training row (rank-1 Cholesky extension) and refreshes the evaluated
    pipeline's candidate column, so a non-refit iteration costs O(n^2)
    instead of O(n^3).  Its two triangular solves read L in place from the
    first n rows of the (cap x cap) buffer (``solve_lower``) instead of
    copying an n x n block.
    """

    def __init__(
        self, gp: DeepKernelGP, cp: CostPredictor | None, state: _RunState, enc: _Encodings
    ) -> None:
        self.gp = gp
        self.cp = cp
        self.enc = enc
        n_pipe = enc.hp.shape[0]
        inputs, y, _ = state.train_inputs(enc, None)
        n = len(y)
        self.Ztr = np.empty((max(64, 2 * n), LATENT), order="C")
        self.Ztr[:n] = gp.features_batch(inputs)
        cand_inputs = state.candidate_arrays(enc, np.arange(n_pipe))
        self.Zc = gp.features_batch(cand_inputs)
        noise = gp.kernel.noise_var
        A = kernel_matrix(self.Ztr[:n], self.Ztr[:n], gp.kernel) + noise * np.eye(n)
        L, jitter = _chol_with_jitter(A)
        self.diag = gp.kernel.signal_var + noise + jitter
        self.L = np.zeros((self.Ztr.shape[0], self.Ztr.shape[0]))
        self.L[:n, :n] = L
        y_norm = gp.normalize(y)
        self.w = np.empty(self.Ztr.shape[0])
        self.w[:n] = solve_lower(L, y_norm)
        Ks = kernel_matrix(self.Ztr[:n], self.Zc, gp.kernel)
        self.V = np.empty((self.Ztr.shape[0], n_pipe))
        self.V[:n] = solve_lower(L, Ks)
        self.colnorm2 = (self.V[:n] ** 2).sum(axis=0)
        self.n = n
        self.cost_pred = cp.predict_batch(cand_inputs) if cp is not None else None

    def _grow(self) -> None:
        cap = self.Ztr.shape[0] * 2
        n = self.n
        ztr = np.empty((cap, LATENT))
        ztr[:n] = self.Ztr[:n]
        self.Ztr = ztr
        big_l = np.zeros((cap, cap))
        big_l[:n, :n] = self.L[:n, :n]
        self.L = big_l
        w = np.empty(cap)
        w[:n] = self.w[:n]
        self.w = w
        v = np.empty((cap, self.V.shape[1]))
        v[:n] = self.V[:n]
        self.V = v

    def apply_evaluation(self, state: _RunState) -> None:
        """Fold in the run-state's last row: one new training row plus its
        pipeline's refreshed candidate column."""
        gp = self.gp
        pid = int(state.rows[0, state.n_rows - 1])
        if self.n == self.Ztr.shape[0]:
            self._grow()
        n = self.n
        row, y, _ = state.train_inputs(self.enc, 1)
        z_new = gp.features_batch(row)[0]
        b = kernel_matrix(self.Ztr[:n], z_new[None, :], gp.kernel)[:, 0]
        wvec = solve_lower(self.L[:n], b)
        d2 = self.diag - float(wvec @ wvec)
        if not d2 > 1e-10:  # NaN too: never write a NaN pivot into L
            raise _NeedsRebuild
        d = math.sqrt(d2)
        self.L[n, :n] = wvec
        self.L[n, n] = d
        self.Ztr[n] = z_new
        y_norm = (y[0] - gp.y_mean) / gp.y_std
        self.w[n] = (y_norm - float(wvec @ self.w[:n])) / d
        ks_row = kernel_matrix(z_new[None, :], self.Zc, gp.kernel)[0]
        v_row = (ks_row - wvec @ self.V[:n]) / d
        self.V[n] = v_row
        self.colnorm2 += v_row**2
        self.n = n + 1
        # refreshed candidate column for the evaluated pipeline
        cand = state.candidate_arrays(self.enc, [pid])
        zc = gp.features_batch(cand)[0]
        self.Zc[pid] = zc
        ks_col = kernel_matrix(self.Ztr[: self.n], zc[None, :], gp.kernel)[:, 0]
        col = solve_lower(self.L[: self.n], ks_col)
        self.V[: self.n, pid] = col
        self.colnorm2[pid] = float(col @ col)
        if self.cp is not None:
            self.cost_pred[pid] = self.cp.predict_batch(cand)[0]

    def moments(self, pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gp = self.gp
        mean_n = self.V[: self.n, pool].T @ self.w[: self.n]
        var_n = np.maximum(gp.kernel.signal_var - self.colnorm2[pool], 0.0)
        mean = gp.y_mean + gp.y_std * mean_n
        std = np.sqrt(var_n) * gp.y_std
        return mean, std

    def costs(self, pool: np.ndarray) -> np.ndarray:
        return self.cost_pred[pool]


@single_thread_numpy_blas()
def tune(
    view: DatasetView,
    space: SearchSpace,
    cfg: TuneConfig,
    checkpoint: Any | None = None,
    method: str = "tune",
) -> RunTrace:
    """Run the full loop against one dataset view; deterministic given
    (seed, inputs) when overhead counting is off.

    With ``use_meta`` the predictors start from the checkpoint's
    meta-learned parameters; with ``use_cost`` off the acquisition
    denominator is one and the cost model is left untouched.

    numpy's bundled OpenBLAS runs on the calling thread for the duration of
    the run (``single_thread_numpy_blas``); the caller's thread count is
    restored on return or on an exception.
    """
    n_epochs = view.n_epochs
    dt = n_epochs if cfg.full_fidelity else cfg.dt
    ctx = PredictorContext.from_space(space, view.meta, n_epochs, dt)
    enc = _Encodings.of(ctx, [encode(view.pipeline(p), space) for p in range(view.n_pipelines)])

    gp = DeepKernelGP(ctx, substream(cfg.seed, "tune", view.dataset_id, "surrogate-init"))
    cp = CostPredictor(ctx, substream(cfg.seed, "tune", view.dataset_id, "cost-init"))
    if cfg.use_meta:
        if checkpoint is None:
            raise ValueError("use_meta requires a meta-learned checkpoint")
        checkpoint.apply_to(gp, cp)

    flags = cfg.flags()
    flags["seed"] = cfg.seed
    recorder = TraceRecorder(method, view.dataset_id, cfg.seed, flags, cfg.budget_seconds)
    state = _RunState(view.n_pipelines, n_epochs, dt, recorder)

    init_rng = substream(cfg.seed, "tune", view.dataset_id, "init-sample")
    acq_rng = substream(cfg.seed, "tune", view.dataset_id, "acquisition")

    def run_step(pid: int) -> bool:
        try:
            state.evaluate(view, pid)
        except BenchmarkQueryError as exc:
            log.warning("benchmark query failed, returning partial trace: %s", exc)
            return False
        return True

    first_pid = int(init_rng.integers(view.n_pipelines))
    aborted = not run_step(first_pid)

    cache: _ScoreCache | None = None
    exhausted = False
    while not aborted and recorder.within_budget():
        if cfg.max_steps is not None and state.n_rows >= cfg.max_steps:
            break
        started = time.perf_counter() if cfg.count_overhead else 0.0
        refit = state.n_rows <= 30 or state.n_rows % cfg.refit_period == 0
        if refit or cache is None:
            inputs, y, costs = state.train_inputs(enc, cfg.fit_window)
            gp.fit(inputs, y, steps=cfg.fit_steps, lr=cfg.lr)
            if cfg.use_cost:
                cp.fit(inputs, costs, steps=cfg.fit_steps, lr=cfg.lr)
            cache = _ScoreCache(gp, cp if cfg.use_cost else None, state, enc)
        else:  # fold in the step evaluated last iteration
            try:
                cache.apply_evaluation(state)
            except _NeedsRebuild:
                cache = _ScoreCache(gp, cp if cfg.use_cost else None, state, enc)
        pool = state.candidate_pool()
        if not pool:
            exhausted = True
            break
        pool = subsample_pool(pool, CANDIDATE_CAP, acq_rng)
        idx = np.asarray(pool, dtype=np.int64)
        mean, std = cache.moments(idx)
        incumbents = state.incumbent_table()[state.cand_tau[idx] - 1]
        predicted = cache.costs(idx) if cfg.use_cost else None
        scores = ei_scores(
            mean, std, incumbents, predicted, state.cand_last_cum[idx], cfg.use_cost
        )
        pid = argmax_lowest_id(pool, scores)
        if cfg.count_overhead:
            recorder.add_overhead(time.perf_counter() - started)
            if not recorder.within_budget():
                break
        aborted = not run_step(pid)

    trace = recorder.finish(exhausted=exhausted)
    if not aborted and trace.steps and trace.best() != state.best():
        raise RuntimeError(
            f"trace best {trace.best()!r} disagrees with the run-state's {state.best()!r}"
        )
    return trace


def incumbent_curve(trace: RunTrace) -> list[tuple[float, float]]:
    """(cumulative seconds, best loss so far) per completed step."""
    if not trace.steps:
        raise ValueError("empty trace")
    return [(s.cum_time, s.incumbent) for s in trace.steps]
