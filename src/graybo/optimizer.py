"""Budgeted gray-box Bayesian-optimization loop over a tabular benchmark.

One run: a mandatory random first evaluation, then repeatedly refit the
loss and cost predictors on the observations so far, pick the candidate
maximizing expected improvement per unit cost at its next epoch, and
evaluate that one epoch step, until the simulated-seconds budget is
crossed or every pipeline is fully trained.

``_RunState`` is the one record of a run, for this loop and for the
baselines in ``evalkit``: it queries each step, prices it, charges it and
any counted decision time to the budget, answers whether the run may go on
(``open``: within budget and under the step cap) and builds the trace from
its rows at the end.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .acquisition import argmax_lowest_id, ei_scores, subsample_pool
from .benchtab import BenchmarkQueryError, DatasetView
from .core import HistoryOrderError, SearchSpace, encode
from .costmodel import CostPredictor
from .rng import substream
from .surrogate import (
    LATENT_WIDTH as LATENT,
    DeepKernelGP,
    Encodings,
    PredictorContext,
    PredictorInputs,
    _chol_with_jitter,
    gram,
    kernel_matrix,
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

    ``fit_steps`` and ``lr`` set the GP's Adam fit only: the cost model's
    head is refit in closed form (``CostPredictor.fit``).
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
        """Every setting by name, in field order with the seed last (the
        trace's key order)."""
        flags = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "seed"}
        flags["seed"] = self.seed
        return flags


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


class _RunState:
    """The one record of a run, for ``tune`` and the baselines.

    Row i (the i-th evaluation) is ``rows[:, i]`` = (pipeline, epoch, loss,
    cumulative cost, step cost, seconds spent after it), stored column-wise
    so a field of a run of rows is one contiguous slice.  A step costs its
    pipeline's cumulative cost less the last observed one; ``spent`` also
    holds the decision time charged by ``add_overhead``.  Per pipeline,
    ``cand_tau`` is the next epoch to query, ``cand_last_cum`` the
    cumulative cost so far and ``cand_curves`` the observed losses by epoch.
    Predictor inputs are gathered on demand by ``surrogate.Encodings.inputs``
    from ``cand_curves``: epochs are recorded only on the dt grid, so a row
    at epoch tau sees exactly its pipeline's losses at epochs up to tau - dt.
    """

    def __init__(
        self,
        n_pipelines: int,
        n_epochs: int,
        dt: int,
        budget: float = math.inf,
        max_steps: int | None = None,
    ) -> None:
        if max_steps is not None and max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self.n_epochs = n_epochs
        self.dt = dt
        self.budget = budget
        self.max_steps = max_steps
        self.spent = 0.0
        self.overhead = 0.0
        self.rows = np.empty((6, 64))
        self.n_rows = 0
        self.cand_curves = np.zeros((n_pipelines, n_epochs))
        self.cand_tau = np.full(n_pipelines, dt, dtype=np.int64)
        self.cand_last_cum = np.zeros(n_pipelines)
        self.epoch_min = np.full(n_epochs + 1, np.inf)

    def open(self) -> bool:
        """Within budget and under the step cap."""
        return self.spent <= self.budget and (
            self.max_steps is None or self.n_rows < self.max_steps
        )

    def add_overhead(self, seconds: float) -> None:
        """Charge decision time to the budget."""
        self.overhead += seconds
        self.spent += seconds

    def evaluate(self, view: DatasetView, pid: int) -> None:
        """Query the pipeline's next epoch and record it."""
        epoch = int(self.cand_tau[pid])
        loss, cum_cost = view.query(pid, epoch)
        self.record(pid, epoch, loss, cum_cost)

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
        step_cost = float(cum_cost - self.cand_last_cum[pid])
        self.spent += step_cost
        self.rows[:, self.n_rows] = pid, epoch, loss, cum_cost, step_cost, self.spent
        self.n_rows += 1
        self.cand_curves[pid, epoch - 1] = loss
        self.cand_tau[pid] = epoch + self.dt
        self.cand_last_cum[pid] = cum_cost
        self.epoch_min[epoch] = min(self.epoch_min[epoch], loss)

    def trace(
        self, method: str, dataset: str, seed: int, flags: dict, exhausted: bool = False
    ) -> RunTrace:
        """The run as a trace: one step per row, with the running minimum
        of the loss as its incumbent."""
        pid, epoch, loss, _, step_cost, spent = self.rows[:, : self.n_rows]
        incumbent = np.minimum.accumulate(loss)
        steps = [
            TraceStep(int(p), int(e), float(y), float(c), float(t), float(b))
            for p, e, y, c, t, b in zip(pid, epoch, loss, step_cost, spent, incumbent)
        ]
        return RunTrace(method, dataset, seed, flags, steps, self.overhead, exhausted)

    def train_inputs(self, enc: Encodings, window: int | None):
        """The last ``window`` rows (all by default) as predictor inputs,
        with their loss and cumulative-cost targets."""
        lo = 0 if window is None else max(0, self.n_rows - window)
        pid, epoch = self.rows[:2, lo : self.n_rows].astype(np.int64)
        y, cost = self.rows[2:4, lo : self.n_rows]
        return enc.inputs(pid, epoch, self.cand_curves[pid]), y, cost

    def candidate_pool(self) -> list[int]:
        return [int(p) for p in np.nonzero(self.cand_tau <= self.n_epochs)[0]]

    def candidate_arrays(self, enc: Encodings, pool) -> PredictorInputs:
        idx = np.asarray(pool, dtype=np.int64)
        return enc.inputs(
            idx, self.cand_tau[idx], self.cand_curves[idx], observed_cost=self.cand_last_cum[idx]
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

    The appended row needs no network pass and no solve of its own: the
    training row of an evaluation at epoch tau is, input for input, the
    pipeline's candidate row from before it (same encodings, the curve up
    to tau - dt, budget fraction tau / T), so its latent is ``Zc[pid]`` and
    ``L^-1 k(Ztr, z)`` is the pipeline's column ``V[:n, pid]``, which every
    rank-1 step since it was computed has extended.  Only the refreshed
    candidate (curve now up to tau) takes a forward pass and a solve.  That
    holds only while the cache is exactly one run-state row behind, which
    ``apply_evaluation`` checks.

    A rebuild handed the cache it replaces (``reuse``) keeps its factor,
    ``V``, ``w`` and ``Ztr`` buffers when they hold n rows, and builds the
    training Gram in the factor buffer's leading square (``gram``).
    """

    def __init__(
        self,
        gp: DeepKernelGP,
        cp: CostPredictor | None,
        state: _RunState,
        enc: Encodings,
        reuse: "_ScoreCache | None" = None,
    ) -> None:
        self.gp = gp
        self.cp = cp
        self.enc = enc
        n_pipe = enc.hp.shape[0]
        inputs, y, _ = state.train_inputs(enc, None)
        n = len(y)
        if reuse is not None and reuse.L.shape[0] >= n:
            self.Ztr, self.L, self.w, self.V = reuse.Ztr, reuse.L, reuse.w, reuse.V
        else:
            cap = max(64, 2 * n)
            self.Ztr = np.empty((cap, LATENT))
            self.L = np.zeros((cap, cap))
            self.w = np.empty(cap)
            self.V = np.empty((cap, n_pipe))
        self.Ztr[:n] = gp.features_batch(inputs)
        cand_inputs = state.candidate_arrays(enc, np.arange(n_pipe))
        self.Zc = gp.features_batch(cand_inputs)
        noise = gp.kernel.noise_var
        L, jitter = _chol_with_jitter(gram(self.Ztr[:n], gp.kernel, noise, out=self.L))
        self.diag = gp.kernel.signal_var + noise + jitter
        self.L[:n, :n] = L
        self.w[:n] = solve_lower(L, gp.normalize(y))
        self.V[:n] = solve_lower(L, kernel_matrix(self.Ztr[:n], self.Zc, gp.kernel))
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
        pipeline's refreshed candidate column.

        Raises ``RuntimeError`` unless the cache holds every row but that
        last one, ``ValueError`` on a non-finite refreshed latent and
        ``_NeedsRebuild`` on a pivot too small to extend the factor; all
        three before anything is written.
        """
        if state.n_rows != self.n + 1:
            raise RuntimeError(
                f"score cache holds {self.n} rows, the run state {state.n_rows}: "
                "a rank-1 step folds in exactly one"
            )
        gp = self.gp
        pid, _, loss = state.rows[:3, state.n_rows - 1]
        pid = int(pid)
        cand = state.candidate_arrays(self.enc, [pid])
        zc = gp.features_batch(cand)[0]
        if not np.isfinite(zc).all():
            raise ValueError("refreshed candidate latent must not contain infs or NaNs")
        n = self.n
        wvec = self.V[:n, pid].copy()  # L^-1 k(Ztr, z) of the new row
        d2 = self.diag - float(wvec @ wvec)
        if not d2 > 1e-10:  # NaN too: never write a NaN pivot into L
            raise _NeedsRebuild
        if n == self.Ztr.shape[0]:
            self._grow()
        d = math.sqrt(d2)
        self.Ztr[n] = self.Zc[pid]
        self.L[n, :n] = wvec
        self.L[n, n] = d
        self.w[n] = ((loss - gp.y_mean) / gp.y_std - float(wvec @ self.w[:n])) / d
        ks_row = kernel_matrix(self.Ztr[n : n + 1], self.Zc, gp.kernel)[0]
        v_row = (ks_row - wvec @ self.V[:n]) / d
        self.V[n] = v_row
        self.colnorm2 += v_row**2
        self.n = n + 1
        # refreshed candidate column for the evaluated pipeline
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
    denominator is one and the cost model is left untouched.  The cost
    model's extractor never trains during a run: each refit solves for its
    head, shrunk toward the head it started the run with.

    numpy's bundled OpenBLAS runs on the calling thread for the duration of
    the run (``single_thread_numpy_blas``); the caller's thread count is
    restored on return or on an exception.
    """
    n_epochs = view.n_epochs
    dt = n_epochs if cfg.full_fidelity else cfg.dt
    ctx = PredictorContext.from_space(space, view.meta, n_epochs, dt)
    enc = Encodings.of(ctx, [encode(view.pipeline(p), space) for p in range(view.n_pipelines)])

    gp = DeepKernelGP(ctx, substream(cfg.seed, "tune", view.dataset_id, "surrogate-init"))
    cp = CostPredictor(ctx, substream(cfg.seed, "tune", view.dataset_id, "cost-init"))
    if cfg.use_meta:
        if checkpoint is None:
            raise ValueError("use_meta requires a meta-learned checkpoint")
        checkpoint.apply_to(gp, cp)
    cost_prior = cp.head_vector()  # every refit of the cost head shrinks toward it

    state = _RunState(view.n_pipelines, n_epochs, dt, cfg.budget_seconds, cfg.max_steps)

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
    while not aborted and state.open():
        started = time.perf_counter() if cfg.count_overhead else 0.0
        refit = state.n_rows <= 30 or state.n_rows % cfg.refit_period == 0
        if refit or cache is None:
            inputs, y, costs = state.train_inputs(enc, cfg.fit_window)
            gp.fit(inputs, y, steps=cfg.fit_steps, lr=cfg.lr)
            if cfg.use_cost:
                cp.fit(inputs, costs, cost_prior)
            cache = _ScoreCache(gp, cp if cfg.use_cost else None, state, enc, reuse=cache)
        else:  # fold in the step evaluated last iteration
            try:
                cache.apply_evaluation(state)
            except _NeedsRebuild:
                cache = _ScoreCache(gp, cp if cfg.use_cost else None, state, enc, reuse=cache)
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
            state.add_overhead(time.perf_counter() - started)
            if not state.open():
                break
        aborted = not run_step(pid)

    return state.trace(method, view.dataset_id, cfg.seed, cfg.flags(), exhausted)


def incumbent_curve(trace: RunTrace) -> list[tuple[float, float]]:
    """(cumulative seconds, best loss so far) per completed step."""
    if not trace.steps:
        raise ValueError("empty trace")
    return [(s.cum_time, s.incumbent) for s in trace.steps]
