"""Budgeted gray-box Bayesian-optimization loop over a tabular benchmark.

One run: a mandatory random first evaluation, then repeatedly refit the
loss and cost predictors on the history, pick the candidate maximizing
expected improvement per unit cost at its next epoch, evaluate one epoch
step, and append the observation, until the simulated-seconds budget is
crossed or every pipeline is fully trained.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from scipy.linalg import solve_triangular

from .acquisition import (
    AcqConfig,
    SearchExhaustedError,
    argmax_lowest_id,
    ei_scores,
    subsample_pool,
)
from .benchtab import BenchmarkQueryError, DatasetView
from .core import History, Observation, SearchSpace, best_in_history, encode, query_epoch
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
)

log = logging.getLogger("graybo.optimizer")


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
    """Shared budget accounting: every optimizer funnels evaluations through
    here so simulated-seconds semantics are identical across methods."""

    def __init__(self, method: str, dataset: str, seed: int, flags: dict, budget: float) -> None:
        self.budget = budget
        self.trace = RunTrace(method=method, dataset=dataset, seed=seed, flags=flags)
        self._cum = 0.0
        self._incumbent = np.inf

    @property
    def cum_time(self) -> float:
        return self._cum

    @property
    def n_steps(self) -> int:
        return len(self.trace.steps)

    def within_budget(self) -> bool:
        return self._cum <= self.budget

    def add_overhead(self, seconds: float, count_in_budget: bool) -> None:
        self.trace.overhead_seconds += seconds
        if count_in_budget:
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


def evaluate_step(
    view: DatasetView, h: History, recorder: TraceRecorder, pipeline_id: int, epoch: int, dt: int
) -> None:
    """Query the benchmark at the pipeline's next epoch and log the result."""
    loss, cum_cost = view.query(pipeline_id, epoch)
    step_cost = cum_cost - h.cum_cost_at(pipeline_id, epoch - dt)
    h.append(
        Observation(pipeline_id=pipeline_id, epoch=epoch, val_loss=loss, cum_cost=cum_cost)
    )
    recorder.record(pipeline_id, epoch, loss, step_cost)


class _RunState:
    """Incrementally maintained network inputs for one run.

    Training rows are immutable once appended (an observation's curve input
    is its pipeline's prefix at append time), and each pipeline's candidate
    row changes only when that pipeline is evaluated, so everything the hot
    loop feeds the predictors is cached and updated in O(changed rows).
    """

    def __init__(self, view: DatasetView, ctx: PredictorContext, encodings: dict) -> None:
        self.ctx = ctx
        n_pipe = view.n_pipelines
        n_ep = ctx.n_epochs
        self.pipe_hp = np.stack([encodings[p].features[: ctx.hp_width] for p in range(n_pipe)])
        self.pipe_onehot = np.stack([encodings[p].features[ctx.hp_width :] for p in range(n_pipe)])
        self.meta_row = scale_meta(ctx.meta)
        self.cand_curves = np.zeros((n_pipe, n_ep))
        self.cand_tau = np.full(n_pipe, ctx.dt, dtype=np.int64)
        self.cand_last_cum = np.zeros(n_pipe)
        self.epoch_min = np.full(n_ep + 1, np.inf)
        cap = 64
        self.rows_hp = np.empty((cap, ctx.hp_width))
        self.rows_onehot = np.empty((cap, self.pipe_onehot.shape[1]))
        self.rows_curves = np.empty((cap, n_ep))
        self.rows_tfrac = np.empty(cap)
        self.rows_y = np.empty(cap)
        self.rows_cost = np.empty(cap)
        self.n_rows = 0

    def _grow(self) -> None:
        cap = self.rows_hp.shape[0] * 2
        for name in ("rows_hp", "rows_onehot", "rows_curves", "rows_tfrac", "rows_y", "rows_cost"):
            old = getattr(self, name)
            new = np.empty((cap, *old.shape[1:]))
            new[: self.n_rows] = old[: self.n_rows]
            setattr(self, name, new)

    def record(self, pid: int, epoch: int, loss: float, cum_cost: float) -> None:
        if self.n_rows == self.rows_hp.shape[0]:
            self._grow()
        i = self.n_rows
        self.rows_hp[i] = self.pipe_hp[pid]
        self.rows_onehot[i] = self.pipe_onehot[pid]
        self.rows_curves[i] = self.cand_curves[pid]
        self.rows_tfrac[i] = epoch / self.ctx.n_epochs
        self.rows_y[i] = loss
        self.rows_cost[i] = cum_cost
        self.n_rows += 1
        self.cand_curves[pid, epoch - 1] = loss
        self.cand_tau[pid] = epoch + self.ctx.dt
        self.cand_last_cum[pid] = cum_cost
        if loss < self.epoch_min[epoch]:
            self.epoch_min[epoch] = loss

    def train_inputs(self, window: int | None):
        lo = 0 if window is None else max(0, self.n_rows - window)
        hi = self.n_rows
        meta = np.broadcast_to(self.meta_row, (hi - lo, 4))
        inputs = PredictorInputs(
            hp=self.rows_hp[lo:hi],
            model_onehot=self.rows_onehot[lo:hi],
            curves=self.rows_curves[lo:hi],
            tfrac=self.rows_tfrac[lo:hi],
            meta=meta,
        )
        return inputs, self.rows_y[lo:hi], self.rows_cost[lo:hi]

    def train_row(self, i: int) -> PredictorInputs:
        return PredictorInputs(
            hp=self.rows_hp[i : i + 1],
            model_onehot=self.rows_onehot[i : i + 1],
            curves=self.rows_curves[i : i + 1],
            tfrac=self.rows_tfrac[i : i + 1],
            meta=self.meta_row[None, :],
        )

    def candidate_pool(self) -> list[int]:
        return [int(p) for p in np.nonzero(self.cand_tau <= self.ctx.n_epochs)[0]]

    def candidate_arrays(self, pool) -> PredictorInputs:
        idx = np.asarray(pool, dtype=np.int64)
        meta = np.broadcast_to(self.meta_row, (len(pool), 4))
        return PredictorInputs(
            hp=self.pipe_hp[idx],
            model_onehot=self.pipe_onehot[idx],
            curves=self.cand_curves[idx],
            tfrac=self.cand_tau[idx] / self.ctx.n_epochs,
            meta=meta,
            observed_cost=self.cand_last_cum[idx],
        )

    def candidate_row(self, pid: int) -> PredictorInputs:
        return PredictorInputs(
            hp=self.pipe_hp[pid : pid + 1],
            model_onehot=self.pipe_onehot[pid : pid + 1],
            curves=self.cand_curves[pid : pid + 1],
            tfrac=np.array([self.cand_tau[pid] / self.ctx.n_epochs]),
            meta=self.meta_row[None, :],
            observed_cost=self.cand_last_cum[pid : pid + 1],
        )

    def incumbent_table(self) -> np.ndarray:
        """incumbent at each epoch: exact-epoch minimum, else the minimum
        over earlier epochs, else the global minimum."""
        n_ep = self.ctx.n_epochs
        min_at = self.epoch_min[1 : n_ep + 1]
        below = np.empty(n_ep)
        running = np.inf
        for e in range(n_ep):
            below[e] = running
            if min_at[e] < running:
                running = min_at[e]
        table = np.where(np.isfinite(min_at), min_at, below)
        return np.where(np.isfinite(table), table, running)


class _NeedsRebuild(Exception):
    pass


class _ScoreCache:
    """Exact GP posterior moments and cost predictions over all candidates,
    maintained incrementally between parameter refits.

    A refit rebuilds everything; between refits each evaluation appends one
    training row (rank-1 Cholesky extension) and refreshes the evaluated
    pipeline's candidate column, so a non-refit iteration costs O(n^2)
    instead of O(n^3).
    """

    def __init__(self, gp: DeepKernelGP, cp: CostPredictor | None, state: _RunState) -> None:
        self.gp = gp
        self.cp = cp
        n_pipe = state.pipe_hp.shape[0]
        inputs, y, _ = state.train_inputs(None)
        n = len(y)
        self.Ztr = np.empty((max(64, 2 * n), LATENT), order="C")
        self.Ztr[:n] = gp.features_batch(inputs)
        cand_inputs = state.candidate_arrays(np.arange(n_pipe))
        self.Zc = gp.features_batch(cand_inputs)
        noise = gp.kernel.noise_var
        A = kernel_matrix(self.Ztr[:n], self.Ztr[:n], gp.kernel) + noise * np.eye(n)
        L, jitter = _chol_with_jitter(A)
        self.diag = gp.kernel.signal_var + noise + jitter
        self.L = np.zeros_like(self.Ztr[:, :1], shape=(self.Ztr.shape[0], self.Ztr.shape[0]))
        self.L[:n, :n] = L
        y_norm = gp.normalize(y)
        self.w = np.empty(self.Ztr.shape[0])
        self.w[:n] = solve_triangular(L, y_norm, lower=True)
        Ks = kernel_matrix(self.Ztr[:n], self.Zc, gp.kernel)
        self.V = np.empty((self.Ztr.shape[0], n_pipe))
        self.V[:n] = solve_triangular(L, Ks, lower=True)
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

    def apply_evaluation(self, state: _RunState, row_index: int, pid: int) -> None:
        """Fold in the last evaluation: one new training row plus the
        evaluated pipeline's refreshed candidate column."""
        gp = self.gp
        if self.n == self.Ztr.shape[0]:
            self._grow()
        n = self.n
        z_new = gp.features_batch(state.train_row(row_index))[0]
        b = kernel_matrix(self.Ztr[:n], z_new[None, :], gp.kernel)[:, 0]
        wvec = solve_triangular(self.L[:n, :n], b, lower=True)
        d2 = self.diag - float(wvec @ wvec)
        if d2 <= 1e-10:
            raise _NeedsRebuild
        d = math.sqrt(d2)
        self.L[n, :n] = wvec
        self.L[n, n] = d
        self.Ztr[n] = z_new
        y_norm = (state.rows_y[row_index] - gp.y_mean) / gp.y_std
        self.w[n] = (y_norm - float(wvec @ self.w[:n])) / d
        ks_row = kernel_matrix(z_new[None, :], self.Zc, gp.kernel)[0]
        v_row = (ks_row - wvec @ self.V[:n]) / d
        self.V[n] = v_row
        self.colnorm2 += v_row**2
        self.n = n + 1
        # refreshed candidate column for the evaluated pipeline
        zc = gp.features_batch(state.candidate_row(pid))[0]
        self.Zc[pid] = zc
        ks_col = kernel_matrix(self.Ztr[: self.n], zc[None, :], gp.kernel)[:, 0]
        col = solve_triangular(self.L[: self.n, : self.n], ks_col, lower=True)
        self.V[: self.n, pid] = col
        self.colnorm2[pid] = float(col @ col)
        if self.cp is not None:
            self.cost_pred[pid] = self.cp.predict_batch(state.candidate_row(pid))[0]

    def moments(self, pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gp = self.gp
        mean_n = self.V[: self.n, pool].T @ self.w[: self.n]
        var_n = np.maximum(gp.kernel.signal_var - self.colnorm2[pool], 0.0)
        mean = gp.y_mean + gp.y_std * mean_n
        std = np.sqrt(var_n) * gp.y_std
        return mean, std

    def costs(self, pool: np.ndarray) -> np.ndarray:
        return self.cost_pred[pool]


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
    """
    n_epochs = view.n_epochs
    dt = n_epochs if cfg.full_fidelity else cfg.dt
    ctx = PredictorContext.from_space(space, view.meta, n_epochs, dt)
    encodings = {pid: encode(view.pipeline(pid), space) for pid in range(view.n_pipelines)}

    gp = DeepKernelGP(ctx, substream(cfg.seed, "tune", view.dataset_id, "surrogate-init"))
    cp = CostPredictor(ctx, substream(cfg.seed, "tune", view.dataset_id, "cost-init"))
    if cfg.use_meta:
        if checkpoint is None:
            raise ValueError("use_meta requires a meta-learned checkpoint")
        checkpoint.apply_to(gp, cp)

    flags = cfg.flags()
    flags["seed"] = cfg.seed
    recorder = TraceRecorder(method, view.dataset_id, cfg.seed, flags, cfg.budget_seconds)
    h = History()
    state = _RunState(view, ctx, encodings)

    init_rng = substream(cfg.seed, "tune", view.dataset_id, "init-sample")
    acq_rng = substream(cfg.seed, "tune", view.dataset_id, "acquisition")
    acq_cfg = AcqConfig(cost_aware=cfg.use_cost, dt=dt)

    def run_step(pid: int) -> bool:
        epoch = query_epoch(h, pid, dt)
        try:
            loss, cum_cost = view.query(pid, epoch)
        except BenchmarkQueryError as exc:
            log.warning("benchmark query failed, returning partial trace: %s", exc)
            return False
        step_cost = cum_cost - h.cum_cost_at(pid, epoch - dt)
        h.append(Observation(pipeline_id=pid, epoch=epoch, val_loss=loss, cum_cost=cum_cost))
        state.record(pid, epoch, loss, cum_cost)
        recorder.record(pid, epoch, loss, step_cost)
        return True

    first_pid = int(init_rng.integers(view.n_pipelines))
    aborted = not run_step(first_pid)

    cache: _ScoreCache | None = None
    pending: tuple[int, int] | None = None
    exhausted = False
    while not aborted and recorder.within_budget():
        if cfg.max_steps is not None and recorder.n_steps >= cfg.max_steps:
            break
        started = time.perf_counter() if cfg.count_overhead else 0.0
        refit = recorder.n_steps <= 30 or recorder.n_steps % cfg.refit_period == 0
        if refit or cache is None:
            inputs, y, costs = state.train_inputs(cfg.fit_window)
            gp.fit(inputs, y, steps=cfg.fit_steps, lr=cfg.lr)
            if cfg.use_cost:
                cp.fit(inputs, costs, steps=cfg.fit_steps, lr=cfg.lr)
            cache = _ScoreCache(gp, cp if cfg.use_cost else None, state)
        elif pending is not None:
            try:
                cache.apply_evaluation(state, *pending)
            except _NeedsRebuild:
                cache = _ScoreCache(gp, cp if cfg.use_cost else None, state)
        pending = None
        pool = state.candidate_pool()
        if not pool:
            exhausted = True
            break
        pool = subsample_pool(pool, acq_cfg.candidate_cap, acq_rng)
        idx = np.asarray(pool, dtype=np.int64)
        mean, std = cache.moments(idx)
        incumbents = state.incumbent_table()[state.cand_tau[idx] - 1]
        predicted = cache.costs(idx) if cfg.use_cost else None
        scores = ei_scores(
            mean, std, incumbents, predicted, state.cand_last_cum[idx], cfg.use_cost
        )
        pid = argmax_lowest_id(pool, scores)
        if cfg.count_overhead:
            recorder.add_overhead(time.perf_counter() - started, count_in_budget=True)
            if not recorder.within_budget():
                break
        aborted = not run_step(pid)
        pending = (state.n_rows - 1, pid)

    trace = recorder.finish(exhausted=exhausted)
    if not aborted and trace.steps and trace.best() != best_in_history(h):
        raise RuntimeError(
            f"trace best {trace.best()!r} disagrees with the history's {best_in_history(h)!r}"
        )
    return trace


def incumbent_curve(trace: RunTrace) -> list[tuple[float, float]]:
    """(cumulative seconds, best loss so far) per completed step."""
    if not trace.steps:
        raise ValueError("empty trace")
    return [(s.cum_time, s.incumbent) for s in trace.steps]
