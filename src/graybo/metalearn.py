"""Meta-training of the loss and cost predictors on a meta-dataset.

Each iteration samples one meta-train dataset, draws a batch of
(pipeline, epoch) cells from its table, and takes one Adam step per
predictor: GP marginal likelihood for the loss surrogate, squared error in
log-cost space for the cost model.  A held-out fold provides the
early-stopping signal (the GP's validation NLL); the best-so-far parameters
become the checkpoint.  The cost model's validation MSE is recorded at the
same evaluations but selects nothing.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .benchtab import DatasetTable, MetaDataset
from .core import SearchSpace, encode
from .costmodel import CostPredictor, log_cost_mse
from .neural import Adam
from .rng import substream
from .surrogate import (
    DeepKernelGP,
    Encodings,
    PredictorContext,
    PredictorInputs,
    SingularKernelError,
)

MAX_CONSECUTIVE_SKIPS = 50


@dataclass(frozen=True)
class FoldSplit:
    """Disjoint, exhaustive dataset-id folds with designated roles.

    Meta-training uses every fold except ``val_fold`` (early stopping) and
    the optional ``test_fold`` (held out entirely).
    """

    folds: tuple[tuple[str, ...], ...]
    val_fold: int
    test_fold: int | None = None

    def __post_init__(self) -> None:
        k = len(self.folds)
        if not 0 <= self.val_fold < k:
            raise ValueError("val_fold out of range")
        if self.test_fold is not None and not 0 <= self.test_fold < k:
            raise ValueError("test_fold out of range")
        if self.test_fold == self.val_fold:
            raise ValueError("val and test folds must differ")
        sizes = sorted(len(f) for f in self.folds)
        if sizes[-1] - sizes[0] > 1:
            raise ValueError("fold sizes may differ by at most 1")

    @property
    def train_ids(self) -> list[str]:
        out: list[str] = []
        for i, fold in enumerate(self.folds):
            if i != self.val_fold and i != self.test_fold:
                out.extend(fold)
        return out

    @property
    def val_ids(self) -> list[str]:
        return list(self.folds[self.val_fold])

    @property
    def test_ids(self) -> list[str]:
        return list(self.folds[self.test_fold]) if self.test_fold is not None else []


def split_folds(
    dataset_ids: Sequence[str],
    k: int = 5,
    seed: int = 0,
    val_fold: int | None = None,
    test_fold: int | None = None,
) -> FoldSplit:
    """Seeded shuffle then round-robin assignment into k near-equal folds."""
    ids = list(dataset_ids)
    if len(ids) < k:
        raise ValueError(f"need at least {k} datasets, got {len(ids)}")
    rng = substream(seed, "folds")
    order = [ids[i] for i in rng.permutation(len(ids))]
    folds = tuple(tuple(order[i::k]) for i in range(k))
    return FoldSplit(
        folds=folds,
        val_fold=val_fold if val_fold is not None else k - 1,
        test_fold=test_fold,
    )


# ---------------------------------------------------------------------------
# Checkpoints: versioned JSON ("qtck-1") of base64 little-endian float64
# blocks, the kernel's log-parameters as floats, and a "qtmeta-1" manifest


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint fails schema validation."""


KERNEL_KEYS = ("log_ls", "log_sv", "log_nv")  # the "kernel.*" blocks, as written


def _field(obj, key: str, kinds, where: str):
    """``obj[key]``, which must exist and be one of ``kinds`` (not a bool)."""
    if not isinstance(obj, dict):
        raise CheckpointFormatError(f"{where} is not a JSON object")
    if key not in obj:
        raise CheckpointFormatError(f"{where}: missing key {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise CheckpointFormatError(f"{where}: {key!r} holds a {type(value).__name__}")
    return value


def _decode(entry) -> tuple[str, np.ndarray]:
    name = _field(entry, "name", str, "block entry")
    shape = _field(entry, "shape", list, f"block {name!r}")
    raw = _field(entry, "values_b64_f64le", str, f"block {name!r}")
    try:
        flat = np.frombuffer(base64.b64decode(raw, validate=True), dtype="<f8")
    except ValueError as exc:
        raise CheckpointFormatError(f"block {name!r}: {exc}") from None
    if not all(type(d) is int and d >= 0 for d in shape) or math.prod(shape) != flat.size:
        raise CheckpointFormatError(f"block {name!r}: {flat.size} values do not fill shape {shape}")
    return name, flat.astype(np.float64).reshape(shape)


@dataclass
class MetaCheckpoint:
    """Meta-learned parameters of both predictors, every block by name, plus
    a training manifest."""

    arrays: dict[str, np.ndarray]
    manifest: dict

    @classmethod
    def from_predictors(cls, gp: DeepKernelGP, cp: CostPredictor, manifest: dict) -> "MetaCheckpoint":
        blocks = gp.vector.blocks + cp.vector.blocks
        return cls({b.name: b.values.copy() for b in blocks}, dict(manifest))

    def _load_into(self, blocks) -> None:
        for b in blocks:
            if b.name not in self.arrays:
                raise CheckpointFormatError(f"checkpoint missing block {b.name!r}")
            arr = self.arrays[b.name]
            if arr.shape != b.shape:
                raise CheckpointFormatError(f"block {b.name!r}: shape {arr.shape} != expected {b.shape}")
            b.values[...] = arr

    def apply_to_surrogate(self, gp: DeepKernelGP) -> None:
        self._load_into(gp.vector.blocks)

    def apply_to(self, gp: DeepKernelGP, cp: CostPredictor) -> None:
        self._load_into(gp.vector.blocks + cp.vector.blocks)

    def to_payload(self) -> dict:
        blocks = [(n, a) for n, a in self.arrays.items() if not n.startswith("kernel.")]
        return {
            "format": "qtck-1",
            "blocks": [
                {
                    "name": name,
                    "shape": list(values.shape),
                    "values_b64_f64le": base64.b64encode(values.astype("<f8").tobytes()).decode("ascii"),
                }
                for name, values in blocks
            ],
            "kernel": {k: float(self.arrays[f"kernel.{k}"]) for k in KERNEL_KEYS},
            "manifest": self.manifest,
        }

    @classmethod
    def from_payload(cls, payload) -> "MetaCheckpoint":
        """Every malformed part raises :class:`CheckpointFormatError`; the
        kernel floats are checked as the blocks are."""
        if _field(payload, "format", str, "checkpoint") != "qtck-1":
            raise CheckpointFormatError(f"unsupported checkpoint format {payload['format']!r}")
        manifest = _field(payload, "manifest", dict, "checkpoint")
        if manifest.get("format") != "qtmeta-1":
            raise CheckpointFormatError(f"unsupported manifest format {manifest.get('format')!r}")
        arrays = dict(_decode(entry) for entry in _field(payload, "blocks", list, "checkpoint"))
        kernel = _field(payload, "kernel", dict, "checkpoint")
        for k in KERNEL_KEYS:
            arrays[f"kernel.{k}"] = np.array(float(_field(kernel, k, (int, float), "kernel")))
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise CheckpointFormatError(f"block {name!r} holds non-finite values")
        return cls(arrays, manifest)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_payload(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "MetaCheckpoint":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_payload(json.load(fh))


# ---------------------------------------------------------------------------
# Meta-training


@dataclass
class MetaTrainResult:
    """``val_cost_mse_history`` is the cost net's log-cost MSE on the same
    validation batches at every evaluation of ``val_nll_history``; it is
    recorded only, and never selects the checkpoint."""

    checkpoint: MetaCheckpoint
    val_nll_history: list[float]
    val_cost_mse_history: list[float]
    initial_val_nll: float
    best_val_nll: float
    stopped_early: bool
    iterations_run: int


class _DatasetCache:
    """One meta-dataset's encodings, gathered into batches by
    ``surrogate.Encodings.inputs``, and its target normalization."""

    def __init__(self, table: DatasetTable, encoded: dict, ctx_proto: PredictorContext) -> None:
        """``encoded`` maps ``id(pipeline)`` to its encoding."""
        self.table = table
        ctx = replace(ctx_proto, meta=table.meta)
        self.enc = Encodings.of(ctx, [encoded[id(p)] for p in table.pipelines])
        std = float(table.losses.std())
        self.y_mean = float(table.losses.mean())
        self.y_std = std if std > 0 else 1.0

    def cell_batch(self, pis: np.ndarray, eps: np.ndarray) -> tuple[PredictorInputs, np.ndarray, np.ndarray]:
        """Inputs, loss targets, and cost targets for (pipeline, epoch) cells.

        The curve input is the pipeline's true losses at epochs 1 .. epoch
        - dt (none when epoch <= dt), zero-padded (``tests/oracle.py``
        keeps the per-cell form)."""
        inputs = self.enc.inputs(pis, eps, self.table.losses[pis])
        return inputs, self.table.losses[pis, eps - 1], self.table.costs[pis, eps - 1]


def meta_train(
    md: MetaDataset,
    split: FoldSplit,
    space: SearchSpace,
    iters: int = 10000,
    lr: float = 1e-4,
    batch_size: int = 64,
    eval_every: int = 100,
    patience: int = 5,
    seed: int = 0,
    dt: int = 1,
) -> MetaTrainResult:
    """Meta-learn both predictors; returns the best-validation checkpoint.

    Gradient steps only ever touch meta-train datasets; the validation fold
    is read for its fixed scoring batches and test-fold tables are never
    accessed.  ``eval_every``, ``batch_size`` and ``dt`` below 1, or an
    ``lr`` that is not finite and positive, raise ``ValueError``.
    """
    if eval_every < 1:
        raise ValueError(f"eval_every (--eval-every) must be >= 1, got {eval_every}")
    if batch_size < 1:
        raise ValueError(f"batch_size (--batch) must be >= 1, got {batch_size}")
    if dt < 1:
        raise ValueError(f"dt (--dt) must be >= 1, got {dt}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr (--lr) must be finite and > 0, got {lr}")
    train_ids = split.train_ids
    if not train_ids:
        raise ValueError("meta-train folds are empty")
    for did in train_ids + split.val_ids:
        if did not in md.datasets:
            raise ValueError(f"fold references unknown dataset {did!r}")

    n_epochs = md.datasets[train_ids[0]].n_epochs
    proto_meta = md.datasets[train_ids[0]].meta
    ctx_proto = PredictorContext.from_space(space, proto_meta, n_epochs, dt)

    # the generator shares one Pipeline list between datasets: encode each once
    unique = {id(p): p for did in train_ids + split.val_ids for p in md.datasets[did].pipelines}
    encoded = {key: encode(p, space) for key, p in unique.items()}
    caches = {did: _DatasetCache(md.datasets[did], encoded, ctx_proto) for did in train_ids + split.val_ids}

    gp = DeepKernelGP(ctx_proto, substream(seed, "metatrain", "surrogate-init"))
    cp = CostPredictor(ctx_proto, substream(seed, "metatrain", "cost-init"))
    adam_gp = Adam(gp.vector, lr)
    adam_cp = Adam(cp.vector, lr)

    val_rng = substream(seed, "metatrain", "val-cells")
    val_batches = []
    for did in split.val_ids:
        cache = caches[did]
        pis = val_rng.integers(cache.table.n_pipelines, size=batch_size)
        eps = val_rng.integers(1, n_epochs + 1, size=batch_size)
        val_batches.append((cache, cache.cell_batch(pis, eps)))

    def val_nll() -> float:
        total = 0.0
        for cache, (inputs, y, _) in val_batches:
            gp.y_mean, gp.y_std = cache.y_mean, cache.y_std
            Z = gp.features_batch(inputs)
            total += gp.nll(Z, y) / len(y)
        return total / max(len(val_batches), 1)

    def val_cost_mse() -> float:
        total = sum(log_cost_mse(cp.raw_batch(inputs), c) for _, (inputs, _, c) in val_batches)
        return total / max(len(val_batches), 1)

    def snapshot() -> MetaCheckpoint:
        manifest = {
            "seed": seed,
            "iters": iters,
            "train_folds": [i for i in range(len(split.folds)) if i not in (split.val_fold, split.test_fold)],
            "val_fold": split.val_fold,
            "format": "qtmeta-1",
        }
        return MetaCheckpoint.from_predictors(gp, cp, manifest)

    initial_val = val_nll()
    best_val = initial_val
    best_ckpt = snapshot()
    history = [initial_val]
    cost_history = [val_cost_mse()]
    evals_since_best = 0
    stopped_early = False
    iter_rng = substream(seed, "metatrain", "iterations")
    consecutive_skips = 0
    ran = 0

    for it in range(iters):
        ran = it + 1
        did = train_ids[int(iter_rng.integers(len(train_ids)))]
        cache = caches[did]
        pis = iter_rng.integers(cache.table.n_pipelines, size=batch_size)
        eps = iter_rng.integers(1, n_epochs + 1, size=batch_size)
        inputs, y, c = cache.cell_batch(pis, eps)
        gp.y_mean, gp.y_std = cache.y_mean, cache.y_std
        try:
            adam_gp.zero_grad()
            gp.nll_with_grads(inputs, y)
            adam_gp.step()
            consecutive_skips = 0
        except SingularKernelError:
            consecutive_skips += 1
            if consecutive_skips >= MAX_CONSECUTIVE_SKIPS:
                raise RuntimeError(
                    f"meta-training aborted: {consecutive_skips} singular batches in a row"
                )
        adam_cp.zero_grad()
        cp.mse_with_grads(inputs, c)
        adam_cp.step()

        if ran % eval_every == 0:
            v = val_nll()
            history.append(v)
            cost_history.append(val_cost_mse())
            if v < best_val:
                best_val = v
                best_ckpt = snapshot()
                evals_since_best = 0
            else:
                evals_since_best += 1
                if evals_since_best >= patience:
                    stopped_early = True
                    break

    return MetaTrainResult(
        checkpoint=best_ckpt,
        val_nll_history=history,
        val_cost_mse_history=cost_history,
        initial_val_nll=initial_val,
        best_val_nll=best_val,
        stopped_early=stopped_early,
        iterations_run=ran,
    )


# ---------------------------------------------------------------------------
# Zero-shot transfer evaluation


@dataclass
class ZeroShotResult:
    correlation: float
    degenerate: bool


def zero_shot_rank_eval(
    checkpoint: MetaCheckpoint | None,
    table: DatasetTable,
    space: SearchSpace,
    epoch: int,
    dt: int = 1,
    probe_count: int = 16,
    probe_epochs: int = 5,
    seed: int = 0,
) -> ZeroShotResult:
    """Rank transfer of an unfit surrogate on an unseen dataset.

    A small seeded probe set of pipelines is observed for a few early
    epochs (mimicking the opening of an optimization run); every other
    pipeline is scored at ``epoch`` from its prior, curve-free features,
    and the posterior means are rank-correlated against the true tabulated
    losses at that epoch.  ``checkpoint=None`` scores a random
    initialization (the transfer-free baseline).  Constant predictions are
    reported as correlation 0 with the degenerate flag set.
    """
    n_ep = table.n_epochs
    if not 1 <= epoch <= n_ep:
        raise ValueError(f"epoch {epoch} outside [1, {n_ep}]")
    ctx = PredictorContext.from_space(space, table.meta, n_ep, dt)
    gp = DeepKernelGP(ctx, substream(seed, "zeroshot", table.dataset_id, "init"))
    if checkpoint is not None:
        checkpoint.apply_to_surrogate(gp)

    rng = substream(seed, "zeroshot", table.dataset_id, "probes")
    n_pipe = table.n_pipelines
    n_probe = min(probe_count, max(n_pipe - 2, 1))
    probe_ids = np.sort(rng.choice(n_pipe, size=n_probe, replace=False))

    enc = Encodings.of(ctx, [encode(p, space) for p in table.pipelines])
    taus = np.arange(dt, min(probe_epochs * dt, n_ep) + 1, dt)
    pids = np.repeat(probe_ids, len(taus))
    epochs_in = np.tile(taus, len(probe_ids))
    cond_inputs = enc.inputs(pids, epochs_in, table.losses[pids])
    y_cond = table.losses[pids, epochs_in - 1]
    gp.set_normalization(y_cond)
    Z_train = gp.features_batch(cond_inputs)

    test_ids = np.setdiff1d(np.arange(n_pipe), probe_ids)
    n_test = len(test_ids)
    test_inputs = enc.inputs(test_ids, np.full(n_test, epoch), np.zeros((n_test, n_ep)))
    Z_test = gp.features_batch(test_inputs)
    post = gp.posterior(Z_train, y_cond, Z_test)
    truth = table.losses[test_ids, epoch - 1]

    if np.std(post.mean) == 0.0 or np.std(truth) == 0.0:
        return ZeroShotResult(correlation=0.0, degenerate=True)
    from scipy.stats import spearmanr  # here, not at module level: ~0.5 s of every CLI start-up

    rho = spearmanr(post.mean, truth).statistic
    if not np.isfinite(rho):
        return ZeroShotResult(correlation=0.0, degenerate=True)
    return ZeroShotResult(correlation=float(rho), degenerate=False)
