"""Seeded synthetic tabular benchmark of learning curves.

Each dataset carries full loss and cumulative-cost curves for a fixed set
of pipelines, plus four meta-features.  Datasets belong to latent clusters;
pipelines score well on a dataset when their encoded hyperparameters land
near the dataset's latent target, so related datasets prefer related
pipelines and meta-learned predictors have real structure to transfer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import (
    MetaFeatures,
    ModelInfo,
    Pipeline,
    SearchSpace,
    encode,
    sample_pipeline,
)
from .rng import substream


class MetaDatasetFormatError(ValueError):
    """Raised when a persisted meta-dataset fails schema validation."""


class BenchmarkQueryError(KeyError):
    """Raised on unknown dataset/pipeline ids or out-of-range epochs."""


# ---------------------------------------------------------------------------
# Model hub construction


def pareto_hub(models: Sequence[ModelInfo]) -> list[ModelInfo]:
    """Keep exactly the models not strictly dominated in (accuracy up,
    size down); exact ties on both axes keep both.  Sorted by descending
    accuracy (size ascending within ties)."""
    if not models:
        raise ValueError("model list must be nonempty")
    order = sorted(models, key=lambda m: (-m.upstream_accuracy, m.param_count))
    kept: list[ModelInfo] = []
    best_size = math.inf
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and order[j].upstream_accuracy == order[i].upstream_accuracy:
            j += 1
        group = order[i:j]
        group_min = min(m.param_count for m in group)
        if group_min < best_size:
            kept.extend(m for m in group if m.param_count == group_min)
            best_size = group_min
        i = j
    return kept


# ---------------------------------------------------------------------------
# Generator


@dataclass(frozen=True)
class CurveParams:
    """Power-law learning-curve shape: loss decays from l0 toward l_inf."""

    l0: float
    l_inf: float
    kappa: float
    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.l_inf < self.l0 <= 1.0):
            raise ValueError("requires 0 <= l_inf < l0 <= 1")
        if self.kappa <= 0 or self.alpha <= 0:
            raise ValueError("kappa and alpha must be positive")

    def loss_at(self, t: np.ndarray | float) -> np.ndarray | float:
        return self.l_inf + (self.l0 - self.l_inf) * (1.0 + self.kappa * t) ** (-self.alpha)


@dataclass(frozen=True)
class GeneratorConfig:
    n_clusters: int = 5
    n_datasets: int = 20
    n_models: int = 8
    configs_per_dataset: int = 100
    n_epochs: int = 50
    obs_noise: float = 0.01
    cost_base: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for fname in ("n_clusters", "n_datasets", "n_models", "configs_per_dataset", "n_epochs"):
            if getattr(self, fname) < 1:
                raise ValueError(f"{fname} must be >= 1")
        if self.obs_noise < 0:
            raise ValueError("obs_noise must be >= 0")
        if self.cost_base <= 0:
            raise ValueError("cost_base must be > 0")


@dataclass
class DatasetTable:
    """Full loss/cost curves for every pipeline of one dataset."""

    dataset_id: str
    meta: MetaFeatures
    pipelines: list[Pipeline]
    losses: np.ndarray  # (n_pipelines, n_epochs)
    costs: np.ndarray  # (n_pipelines, n_epochs), cumulative
    cluster: int | None = None

    @property
    def n_pipelines(self) -> int:
        return len(self.pipelines)

    @property
    def n_epochs(self) -> int:
        return self.losses.shape[1]

    def final_costs(self) -> np.ndarray:
        return self.costs[:, -1]

    def validate(self) -> None:
        if self.losses.shape != self.costs.shape or self.losses.shape[0] != len(self.pipelines):
            raise MetaDatasetFormatError(f"dataset {self.dataset_id}: inconsistent table shapes")
        if np.any(self.losses < 0.0) or np.any(self.losses > 1.0):
            raise MetaDatasetFormatError(f"dataset {self.dataset_id}: losses outside [0, 1]")
        if np.any(np.diff(self.costs, axis=1) < 0.0):
            raise MetaDatasetFormatError(
                f"dataset {self.dataset_id}: cumulative costs must be nondecreasing"
            )


@dataclass
class MetaDataset:
    datasets: dict[str, DatasetTable] = field(default_factory=dict)

    @property
    def dataset_ids(self) -> list[str]:
        return list(self.datasets)

    @property
    def n_epochs(self) -> int:
        first = next(iter(self.datasets.values()))
        return first.n_epochs

    def validate(self) -> None:
        lengths = {t.n_epochs for t in self.datasets.values()}
        if len(lengths) > 1:
            raise MetaDatasetFormatError(f"curve lengths differ across datasets: {sorted(lengths)}")
        for table in self.datasets.values():
            table.validate()


def _logistic(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _lr_like_dim(space: SearchSpace) -> tuple[int, str] | None:
    """Encoded offset and name of a log-scale numeric dim named like a
    learning rate, if the space declares one."""
    pos = 0
    for d in space.dims:
        if d.kind == "numeric" and d.scale == "log" and d.name.lower() in ("lr", "learning_rate"):
            return pos, d.name
        pos += d.width
    return None


def generate(cfg: GeneratorConfig, space: SearchSpace) -> MetaDataset:
    """Build the synthetic meta-dataset; fully deterministic given the seed."""
    if cfg.n_models != len(space.hub):
        raise ValueError(
            f"n_models={cfg.n_models} must match the hub size {len(space.hub)}"
        )
    hub = space.hub
    hp_width = space.hp_width
    n_ep = cfg.n_epochs
    epochs = np.arange(1, n_ep + 1, dtype=np.float64)
    lr_dim = _lr_like_dim(space)
    pad = max(2, len(str(cfg.n_datasets - 1)))

    cluster_rng = substream(cfg.seed, "gen", "clusters")
    cluster_latents = cluster_rng.standard_normal((cfg.n_clusters, hp_width))
    cluster_affinity = cluster_rng.standard_normal((cfg.n_clusters, cfg.n_models))

    # One pipeline table shared by every dataset, so per-pipeline losses are
    # directly comparable across datasets (what transfer exploits).
    pipe_rng = substream(cfg.seed, "gen", "pipelines")
    pipelines = [sample_pipeline(space, pipe_rng) for _ in range(cfg.configs_per_dataset)]
    hps = [encode(p, space).features[:hp_width] for p in pipelines]

    md = MetaDataset()
    for di in range(cfg.n_datasets):
        did = f"d{di:0{pad}d}"
        cluster = di % cfg.n_clusters
        latent_rng = substream(cfg.seed, "gen", "dataset", di, "latent")
        u_d = cluster_latents[cluster] + 0.1 * latent_rng.standard_normal(hp_width)
        target = _logistic(u_d)
        # per-dataset affinity weights, correlated within a cluster so that
        # related datasets prefer related models
        w_rng = substream(cfg.seed, "gen", "dataset", di, "affinity")
        w_d = cluster_affinity[cluster] + 0.3 * w_rng.standard_normal(cfg.n_models)

        meta_rng = substream(cfg.seed, "gen", "dataset", di, "meta")
        n_samples = int(round(math.exp(meta_rng.uniform(math.log(400), math.log(40000)))))
        resolution = int(meta_rng.choice([32, 128, 224]))
        channels = int(meta_rng.choice([1, 3]))
        classes = int(meta_rng.integers(10, 101))
        meta = MetaFeatures(
            n_samples=n_samples, resolution=resolution, channels=channels, classes=classes
        )

        curve_rng = substream(cfg.seed, "gen", "dataset", di, "curves")
        losses = np.empty((cfg.configs_per_dataset, n_ep))
        costs = np.empty((cfg.configs_per_dataset, n_ep))
        for pi, (p, hp) in enumerate(zip(pipelines, hps)):
            quality = math.exp(-float(np.sum((hp - target) ** 2)) / hp_width)
            affinity = float(_logistic(np.array(w_d[p.model_index])))
            l_inf = min(max(0.05 + 0.9 * (1.0 - quality * affinity), 0.0), 0.95)
            gap = curve_rng.uniform(0.2, 0.6)
            l0 = min(1.0, l_inf + gap)
            kappa_raw = curve_rng.uniform(0.5, 2.0)
            kappa = kappa_raw
            if lr_dim is not None and lr_dim[1] in p.values:
                u = hp[lr_dim[0]]
                mid = 0.5 + 0.5 * (1.0 - 2.0 * abs(u - 0.5))
                kappa = 0.5 + (kappa_raw - 0.5) * mid
            alpha = curve_rng.uniform(0.5, 1.5)
            params = CurveParams(l0=l0, l_inf=l_inf, kappa=kappa, alpha=alpha)
            cost_jitter = curve_rng.uniform(-0.1, 0.1)
            noise = curve_rng.standard_normal(n_ep) * cfg.obs_noise
            losses[pi] = np.clip(params.loss_at(epochs) + noise, 0.0, 1.0)
            per_epoch = (
                cfg.cost_base
                * hub[p.model_index].param_count ** 0.7
                * (n_samples / 1000.0)
                * (1.0 + cost_jitter)
            )
            costs[pi] = per_epoch * epochs
        table = DatasetTable(
            dataset_id=did,
            meta=meta,
            pipelines=list(pipelines),
            losses=losses,
            costs=costs,
            cluster=cluster,
        )
        md.datasets[did] = table
    md.validate()
    return md


# ---------------------------------------------------------------------------
# Query interface


@dataclass(frozen=True)
class DatasetView:
    """One dataset's query surface handed to optimizers."""

    table: DatasetTable

    @property
    def dataset_id(self) -> str:
        return self.table.dataset_id

    @property
    def meta(self) -> MetaFeatures:
        return self.table.meta

    @property
    def n_pipelines(self) -> int:
        return self.table.n_pipelines

    @property
    def n_epochs(self) -> int:
        return self.table.n_epochs

    def pipeline(self, pipeline_id: int) -> Pipeline:
        if not 0 <= pipeline_id < self.table.n_pipelines:
            raise BenchmarkQueryError(f"unknown pipeline id {pipeline_id}")
        return self.table.pipelines[pipeline_id]

    def query(self, pipeline_id: int, epoch: int) -> tuple[float, float]:
        """Tabulated (validation loss, cumulative cost) at the given epoch."""
        if not 0 <= pipeline_id < self.table.n_pipelines:
            raise BenchmarkQueryError(f"unknown pipeline id {pipeline_id}")
        if not 1 <= epoch <= self.table.n_epochs:
            raise BenchmarkQueryError(
                f"epoch {epoch} outside [1, {self.table.n_epochs}]"
            )
        return (
            float(self.table.losses[pipeline_id, epoch - 1]),
            float(self.table.costs[pipeline_id, epoch - 1]),
        )


class TabularBenchmark:
    """Loaded meta-dataset plus per-dataset performance bounds."""

    def __init__(self, md: MetaDataset) -> None:
        md.validate()
        self.md = md
        self._bounds: dict[str, tuple[float, float]] = {}
        for did, table in md.datasets.items():
            y = 1.0 - table.losses
            self._bounds[did] = (float(y.min()), float(y.max()))

    @property
    def dataset_ids(self) -> list[str]:
        return self.md.dataset_ids

    def view(self, dataset_id: str) -> DatasetView:
        if dataset_id not in self.md.datasets:
            raise BenchmarkQueryError(f"unknown dataset id {dataset_id!r}")
        return DatasetView(self.md.datasets[dataset_id])

    def query(self, dataset_id: str, pipeline_id: int, epoch: int) -> tuple[float, float]:
        return self.view(dataset_id).query(pipeline_id, epoch)

    def y_bounds(self, dataset_id: str) -> tuple[float, float]:
        """(y_min, y_max) of performance y = 1 - loss over the full table."""
        if dataset_id not in self._bounds:
            raise BenchmarkQueryError(f"unknown dataset id {dataset_id!r}")
        return self._bounds[dataset_id]

    def degenerate(self, dataset_id: str) -> bool:
        y_min, y_max = self.y_bounds(dataset_id)
        return not y_min < y_max


# ---------------------------------------------------------------------------
# Persistence: JSON-lines, one record per (dataset, pipeline)


def _json_value(v) -> str:
    """JSON scalar with floats at 17 significant digits (exact round-trip)."""
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return json.dumps(v)


def _pipeline_record(did: str, pid: int, p: Pipeline, space: SearchSpace, losses, costs) -> str:
    hparams = ",".join(
        f"{json.dumps(name)}:{_json_value(v)}" for name, v in p.values.items()
    )
    curve = ",".join(_json_value(v) for v in losses)
    cost = ",".join(_json_value(v) for v in costs)
    return (
        f'{{"dataset":{json.dumps(did)},"pipeline":{pid},'
        f'"model":{json.dumps(space.hub[p.model_index].name)},'
        f'"hparams":{{{hparams}}},"curve":[{curve}],"cost":[{cost}]}}'
    )


def save_metadataset(md: MetaDataset, space: SearchSpace, directory) -> None:
    import os

    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "metadataset.jsonl"), "w", encoding="utf-8") as fh:
        for did, table in md.datasets.items():
            for pid, p in enumerate(table.pipelines):
                fh.write(
                    _pipeline_record(did, pid, p, space, table.losses[pid], table.costs[pid])
                )
                fh.write("\n")
    with open(os.path.join(directory, "metafeatures.jsonl"), "w", encoding="utf-8") as fh:
        for did, table in md.datasets.items():
            m = table.meta
            fh.write(
                json.dumps(
                    {
                        "dataset": did,
                        "n_samples": m.n_samples,
                        "resolution": m.resolution,
                        "channels": m.channels,
                        "classes": m.classes,
                    }
                )
            )
            fh.write("\n")


def _parse_jsonl(path: str) -> Iterable[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise MetaDatasetFormatError(f"{path}: line {lineno}: {exc}") from exc


def _pipeline_from_record(record: dict, space: SearchSpace, path: str, lineno: int) -> Pipeline:
    from .core import PipelineValidationError, validate_pipeline

    model_names = {m.name: i for i, m in enumerate(space.hub)}
    if record.get("model") not in model_names:
        raise MetaDatasetFormatError(
            f"{path}: line {lineno}: unknown model {record.get('model')!r}"
        )
    values = {}
    for name, v in record.get("hparams", {}).items():
        try:
            dim = space.dim(name)
        except KeyError:
            raise MetaDatasetFormatError(f"{path}: line {lineno}: unknown dim {name!r}")
        values[name] = float(v) if dim.kind == "numeric" else v
    p = Pipeline(model_index=model_names[record["model"]], values=values)
    try:
        validate_pipeline(p, space)
    except PipelineValidationError as exc:
        raise MetaDatasetFormatError(f"{path}: line {lineno}: {exc}") from exc
    return p


def load_metadataset(directory, space: SearchSpace) -> MetaDataset:
    """Parse and schema-validate a persisted meta-dataset."""
    import os

    mpath = os.path.join(directory, "metadataset.jsonl")
    fpath = os.path.join(directory, "metafeatures.jsonl")
    meta_by_id: dict[str, MetaFeatures] = {}
    for lineno, rec in _parse_jsonl(fpath):
        for key in ("dataset", "n_samples", "resolution", "channels", "classes"):
            if key not in rec:
                raise MetaDatasetFormatError(f"{fpath}: line {lineno}: missing field {key!r}")
        meta_by_id[rec["dataset"]] = MetaFeatures(
            n_samples=int(rec["n_samples"]),
            resolution=int(rec["resolution"]),
            channels=int(rec["channels"]),
            classes=int(rec["classes"]),
        )
    rows: dict[str, list[tuple[int, Pipeline, list, list]]] = {}
    n_ep: int | None = None
    for lineno, rec in _parse_jsonl(mpath):
        for key in ("dataset", "pipeline", "model", "hparams", "curve", "cost"):
            if key not in rec:
                raise MetaDatasetFormatError(f"{mpath}: line {lineno}: missing field {key!r}")
        if n_ep is None:
            n_ep = len(rec["curve"])
        if len(rec["curve"]) != n_ep or len(rec["cost"]) != n_ep:
            raise MetaDatasetFormatError(
                f"{mpath}: line {lineno}: curve length differs from {n_ep}"
            )
        p = _pipeline_from_record(rec, space, mpath, lineno)
        rows.setdefault(rec["dataset"], []).append(
            (int(rec["pipeline"]), p, rec["curve"], rec["cost"])
        )
    md = MetaDataset()
    for did, entries in rows.items():
        if did not in meta_by_id:
            raise MetaDatasetFormatError(f"{mpath}: dataset {did!r} missing meta-features")
        entries.sort(key=lambda e: e[0])
        ids = [e[0] for e in entries]
        if ids != list(range(len(ids))):
            raise MetaDatasetFormatError(f"{mpath}: dataset {did!r} has non-contiguous pipeline ids")
        md.datasets[did] = DatasetTable(
            dataset_id=did,
            meta=meta_by_id[did],
            pipelines=[e[1] for e in entries],
            losses=np.array([e[2] for e in entries], dtype=np.float64),
            costs=np.array([e[3] for e in entries], dtype=np.float64),
        )
    md.validate()
    return md


# ---------------------------------------------------------------------------
# Default experiment space


def default_search_space(n_models: int = 8) -> SearchSpace:
    """Finetuning-flavored conditional space with a synthetic model hub."""
    from .core import CATEGORICAL, NUMERIC, ORDINAL, Condition, HyperparamDim

    dims = (
        HyperparamDim(name="lr", kind=NUMERIC, lo=1e-5, hi=1e-1, scale="log"),
        HyperparamDim(name="weight_decay", kind=NUMERIC, lo=1e-6, hi=1e-2, scale="log"),
        HyperparamDim(name="dropout", kind=NUMERIC, lo=0.0, hi=0.5),
        HyperparamDim(name="batch_size", kind=ORDINAL, choices=(16, 32, 64, 128)),
        HyperparamDim(
            name="optimizer", kind=CATEGORICAL, choices=("sgd", "sgd_momentum", "adam")
        ),
        HyperparamDim(
            name="momentum",
            kind=NUMERIC,
            lo=0.5,
            hi=0.99,
            condition=Condition(parent="optimizer", values=("sgd_momentum",)),
        ),
        HyperparamDim(name="scheduler", kind=CATEGORICAL, choices=("none", "cosine", "step")),
        HyperparamDim(
            name="decay_rate",
            kind=NUMERIC,
            lo=0.1,
            hi=0.9,
            condition=Condition(parent="scheduler", values=("step",)),
        ),
    )
    sizes = np.geomspace(1.5, 60.0, n_models)
    accs = np.linspace(74.0, 91.0, n_models)
    hub = tuple(
        ModelInfo(name=f"m{i:02d}", param_count=float(s), upstream_accuracy=float(a))
        for i, (s, a) in enumerate(zip(sizes, accs))
    )
    return SearchSpace(dims=dims, hub=hub)
