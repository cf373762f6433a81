"""Search-space schema, pipelines, observation history, and encodings.

A pipeline is one model choice from a hub plus a (possibly conditional)
hyperparameter assignment; these are the units every other module scores,
evaluates, and records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

NUMERIC = "numeric"
ORDINAL = "ordinal"
CATEGORICAL = "categorical"
_KINDS = (NUMERIC, ORDINAL, CATEGORICAL)
_SCALES = ("linear", "log")


class SpaceValidationError(ValueError):
    """Raised when a search-space definition violates its schema."""


class PipelineValidationError(ValueError):
    """Raised when a pipeline assignment is inconsistent with its space."""


class EmptyHistoryError(ValueError):
    """Raised when an operation needs at least one observation."""


class HistoryOrderError(ValueError):
    """Raised when an appended observation breaks history invariants."""


@dataclass(frozen=True)
class Condition:
    """Dim activation rule: active iff parent is active and takes one of ``values``."""

    parent: str
    values: tuple[Any, ...]


@dataclass(frozen=True)
class HyperparamDim:
    name: str
    kind: str
    lo: float | None = None
    hi: float | None = None
    scale: str = "linear"
    choices: tuple[Any, ...] | None = None
    condition: Condition | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SpaceValidationError(f"dim {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == NUMERIC:
            if self.lo is None or self.hi is None:
                raise SpaceValidationError(f"dim {self.name!r}: numeric needs lo and hi")
            if not self.lo < self.hi:
                raise SpaceValidationError(f"dim {self.name!r}: requires lo < hi")
            if self.scale not in _SCALES:
                raise SpaceValidationError(f"dim {self.name!r}: bad scale {self.scale!r}")
            if self.scale == "log" and self.lo <= 0:
                raise SpaceValidationError(f"dim {self.name!r}: log scale requires lo > 0")
            if self.choices is not None:
                raise SpaceValidationError(f"dim {self.name!r}: numeric takes no choices")
        else:
            if not self.choices:
                raise SpaceValidationError(f"dim {self.name!r}: needs a nonempty choice list")
            if len(set(self.choices)) != len(self.choices):
                raise SpaceValidationError(f"dim {self.name!r}: choices must be unique")
            if self.lo is not None or self.hi is not None:
                raise SpaceValidationError(f"dim {self.name!r}: {self.kind} takes no bounds")

    @property
    def width(self) -> int:
        """Number of encoding slots this dim occupies."""
        return len(self.choices) if self.kind == CATEGORICAL else 1


@dataclass(frozen=True)
class ModelInfo:
    name: str
    param_count: float  # millions of parameters
    upstream_accuracy: float  # percent

    def __post_init__(self) -> None:
        if not self.param_count > 0:
            raise SpaceValidationError(f"model {self.name!r}: param_count must be > 0")
        if not 0.0 <= self.upstream_accuracy <= 100.0:
            raise SpaceValidationError(
                f"model {self.name!r}: upstream_accuracy must be in [0, 100]"
            )


@dataclass(frozen=True)
class SearchSpace:
    """Ordered hyperparameter dims plus the model hub; immutable once built."""

    dims: tuple[HyperparamDim, ...]
    hub: tuple[ModelInfo, ...]

    def __post_init__(self) -> None:
        if not self.hub:
            raise SpaceValidationError("hub must be nonempty")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise SpaceValidationError("dim names must be unique")
        seen: set[str] = set()
        for d in self.dims:
            if d.condition is not None:
                if d.condition.parent not in seen:
                    raise SpaceValidationError(
                        f"dim {d.name!r}: parent {d.condition.parent!r} must be declared earlier"
                    )
                if not d.condition.values:
                    raise SpaceValidationError(f"dim {d.name!r}: empty condition value set")
            seen.add(d.name)
        model_names = [m.name for m in self.hub]
        if len(set(model_names)) != len(model_names):
            raise SpaceValidationError("hub model names must be unique")

    def dim(self, name: str) -> HyperparamDim:
        for d in self.dims:
            if d.name == name:
                return d
        raise KeyError(name)

    @property
    def hp_width(self) -> int:
        """Encoded width of the hyperparameter block (model one-hot excluded)."""
        return sum(d.width for d in self.dims)

    @property
    def encoded_width(self) -> int:
        return self.hp_width + len(self.hub)


@dataclass(frozen=True)
class MetaFeatures:
    """Four integer dataset descriptors conditioning the predictors."""

    n_samples: int
    resolution: int
    channels: int
    classes: int

    def __post_init__(self) -> None:
        for fname in ("n_samples", "resolution", "channels", "classes"):
            v = getattr(self, fname)
            if not (isinstance(v, (int, np.integer)) and v > 0):
                raise ValueError(f"meta-feature {fname} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class Pipeline:
    """One model index plus values for the active dims (inactive dims absent)."""

    model_index: int
    values: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class EncodedPipeline:
    """Fixed-length feature vector plus per-entry activity mask."""

    features: np.ndarray
    mask: np.ndarray


def dim_active(dim: HyperparamDim, values: dict[str, Any]) -> bool:
    """A dim is active iff unconditional, or its parent holds an activating value."""
    if dim.condition is None:
        return True
    return values.get(dim.condition.parent, _INACTIVE) in dim.condition.values


_INACTIVE = object()


def validate_pipeline(p: Pipeline, space: SearchSpace) -> None:
    if not 0 <= p.model_index < len(space.hub):
        raise PipelineValidationError(f"model_index {p.model_index} outside hub")
    known = {d.name for d in space.dims}
    for name in p.values:
        if name not in known:
            raise PipelineValidationError(f"unknown dim {name!r}")
    for d in space.dims:
        active = dim_active(d, p.values)
        present = d.name in p.values
        if active != present:
            state = "must carry a value" if active else "must be inactive"
            raise PipelineValidationError(f"dim {d.name!r} {state}")
        if not present:
            continue
        v = p.values[d.name]
        if d.kind == NUMERIC:
            if not (isinstance(v, (int, float, np.floating, np.integer)) and d.lo <= v <= d.hi):
                raise PipelineValidationError(
                    f"dim {d.name!r}: value {v!r} outside [{d.lo}, {d.hi}]"
                )
        else:
            if v not in d.choices:
                raise PipelineValidationError(f"dim {d.name!r}: {v!r} not among choices")


def sample_pipeline(space: SearchSpace, rng: np.random.Generator) -> Pipeline:
    """Draw a pipeline uniformly: model uniform over the hub, each active dim
    uniform over its range/choices (log-uniform for log-scale numerics).

    Parents are resolved in declared order, so conditional children see
    fixed parent values and never need re-sampling.
    """
    model_index = int(rng.integers(len(space.hub)))
    values: dict[str, Any] = {}
    for d in space.dims:
        if not dim_active(d, values):
            continue
        if d.kind == NUMERIC:
            if d.scale == "log":
                values[d.name] = float(math.exp(rng.uniform(math.log(d.lo), math.log(d.hi))))
            else:
                values[d.name] = float(rng.uniform(d.lo, d.hi))
        else:
            values[d.name] = d.choices[int(rng.integers(len(d.choices)))]
    return Pipeline(model_index=model_index, values=values)


def encode(p: Pipeline, space: SearchSpace) -> EncodedPipeline:
    """Encode a pipeline: normalized numerics/ordinals in [0,1], one-hot
    categoricals, one-hot model block; inactive dims are zeroed with mask 0.
    """
    validate_pipeline(p, space)
    features = np.zeros(space.encoded_width, dtype=np.float64)
    mask = np.ones(space.encoded_width, dtype=np.float64)
    pos = 0
    for d in space.dims:
        w = d.width
        if d.name not in p.values:
            mask[pos : pos + w] = 0.0
            pos += w
            continue
        v = p.values[d.name]
        if d.kind == NUMERIC:
            f = math.log if d.scale == "log" else float
            features[pos] = (f(v) - f(d.lo)) / (f(d.hi) - f(d.lo))
        elif d.kind == ORDINAL:
            rank = d.choices.index(v)
            features[pos] = rank / (len(d.choices) - 1) if len(d.choices) > 1 else 0.0
        else:
            features[pos + d.choices.index(v)] = 1.0
        pos += w
    features[pos + p.model_index] = 1.0
    return EncodedPipeline(features=features, mask=mask)


# ---------------------------------------------------------------------------
# Observation history


@dataclass(frozen=True)
class Observation:
    pipeline_id: int
    epoch: int
    val_loss: float
    cum_cost: float

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError("epoch must be >= 1")
        if not 0.0 <= self.val_loss <= 1.0:
            raise ValueError(f"val_loss {self.val_loss} outside [0, 1]")
        if self.cum_cost < 0.0:
            raise ValueError("cum_cost must be >= 0")


class History:
    """Append-only observation log with a per-pipeline index.

    Per pipeline, epochs must form an arithmetic progression dt, 2*dt, ...
    (the first appended epoch fixes the stride) and cumulative cost must be
    nondecreasing.  Single-writer; concurrent readers only between writes.
    """

    def __init__(self) -> None:
        self._observations: list[Observation] = []
        self._by_pipeline: dict[int, list[Observation]] = {}

    def __len__(self) -> int:
        return len(self._observations)

    def __iter__(self):
        return iter(self._observations)

    @property
    def observations(self) -> Sequence[Observation]:
        return tuple(self._observations)

    def append(self, obs: Observation) -> None:
        prior = self._by_pipeline.get(obs.pipeline_id)
        if prior:
            stride = prior[0].epoch
            expected = prior[-1].epoch + stride
            if obs.epoch != expected:
                raise HistoryOrderError(
                    f"pipeline {obs.pipeline_id}: epoch {obs.epoch} breaks the"
                    f" progression (expected {expected})"
                )
            if obs.cum_cost < prior[-1].cum_cost:
                raise HistoryOrderError(
                    f"pipeline {obs.pipeline_id}: cum_cost decreased at epoch {obs.epoch}"
                )
        self._observations.append(obs)
        self._by_pipeline.setdefault(obs.pipeline_id, []).append(obs)

    def of_pipeline(self, pipeline_id: int) -> Sequence[Observation]:
        return tuple(self._by_pipeline.get(pipeline_id, ()))

    def max_epoch(self, pipeline_id: int) -> int:
        """Largest observed epoch of the pipeline, 0 if unobserved."""
        prior = self._by_pipeline.get(pipeline_id)
        return prior[-1].epoch if prior else 0

    def cum_cost_at(self, pipeline_id: int, epoch: int) -> float:
        """Observed cumulative cost at exactly ``epoch``; 0 for epoch <= 0 / unseen."""
        if epoch <= 0:
            return 0.0
        for o in self._by_pipeline.get(pipeline_id, ()):
            if o.epoch == epoch:
                return o.cum_cost
        return 0.0


def query_epoch(h: History, pipeline_id: int, dt: int) -> int:
    """Next epoch to evaluate: last observed epoch plus dt (dt if unobserved)."""
    if dt < 1:
        raise ValueError("dt must be >= 1")
    return h.max_epoch(pipeline_id) + dt


def incumbent_loss(h: History, epoch: int) -> float:
    """Best (lowest) loss observed at exactly ``epoch``; if no observation
    exists there, best over all strictly earlier epochs."""
    if len(h) == 0:
        raise EmptyHistoryError("incumbent undefined on empty history")
    at = [o.val_loss for o in h if o.epoch == epoch]
    if at:
        return min(at)
    below = [o.val_loss for o in h if o.epoch < epoch]
    if below:
        return min(below)
    # Degenerate: everything observed above the queried fidelity.
    return min(o.val_loss for o in h)


def best_in_history(h: History) -> tuple[int, int, float]:
    """Globally minimal loss as (pipeline_id, epoch, loss); ties keep the
    earliest appended observation."""
    if len(h) == 0:
        raise EmptyHistoryError("best undefined on empty history")
    best: Observation | None = None
    for o in h:
        if best is None or o.val_loss < best.val_loss:
            best = o
    return best.pipeline_id, best.epoch, best.val_loss


# ---------------------------------------------------------------------------
# Search-space schema file (JSON)

_DIM_FIELDS = {"name", "kind", "lo", "hi", "scale", "choices", "condition"}
_COND_FIELDS = {"parent", "values"}
_MODEL_FIELDS = {"name", "param_count", "upstream_accuracy"}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SpaceValidationError(f"{where}: unknown fields {sorted(unknown)}")


def space_to_dict(space: SearchSpace) -> dict:
    dims = []
    for d in space.dims:
        entry: dict[str, Any] = {"name": d.name, "kind": d.kind}
        if d.kind == NUMERIC:
            entry["lo"] = d.lo
            entry["hi"] = d.hi
            entry["scale"] = d.scale
        else:
            entry["choices"] = list(d.choices)
        if d.condition is not None:
            entry["condition"] = {
                "parent": d.condition.parent,
                "values": list(d.condition.values),
            }
        dims.append(entry)
    hub = [
        {"name": m.name, "param_count": m.param_count, "upstream_accuracy": m.upstream_accuracy}
        for m in space.hub
    ]
    return {"dims": dims, "hub": hub}


def space_from_dict(payload: dict) -> SearchSpace:
    if not isinstance(payload, dict):
        raise SpaceValidationError("space file must hold a JSON object")
    _reject_unknown(payload, {"dims", "hub"}, "space")
    dims = []
    for i, raw in enumerate(payload.get("dims", [])):
        _reject_unknown(raw, _DIM_FIELDS, f"dims[{i}]")
        cond = None
        if raw.get("condition") is not None:
            _reject_unknown(raw["condition"], _COND_FIELDS, f"dims[{i}].condition")
            cond = Condition(
                parent=raw["condition"]["parent"],
                values=tuple(raw["condition"]["values"]),
            )
        dims.append(
            HyperparamDim(
                name=raw["name"],
                kind=raw["kind"],
                lo=raw.get("lo"),
                hi=raw.get("hi"),
                scale=raw.get("scale", "linear"),
                choices=tuple(raw["choices"]) if raw.get("choices") is not None else None,
                condition=cond,
            )
        )
    hub = []
    for i, raw in enumerate(payload.get("hub", [])):
        _reject_unknown(raw, _MODEL_FIELDS, f"hub[{i}]")
        hub.append(
            ModelInfo(
                name=raw["name"],
                param_count=float(raw["param_count"]),
                upstream_accuracy=float(raw["upstream_accuracy"]),
            )
        )
    return SearchSpace(dims=tuple(dims), hub=tuple(hub))


def save_space(space: SearchSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_dict(space), fh, indent=2)
        fh.write("\n")


def load_space(path: str) -> SearchSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_dict(json.load(fh))
