"""Outside-in spans, counters and iteration clocks for graybo's layers.

Nothing here edits the program.  Each layer is measured by replacing a
module or class attribute with a wrapper that records one span per call
(name, start, end, parent span, run id) in memory.  A module-level
function is also replaced in every ``graybo.*`` module that imported it by
name (``optimizer.py`` holds its own ``ei_scores`` and ``kernel_matrix``,
for example), so every call site is seen.  A target that does not exist is
reported as absent instead of failing the run, because later refactors may
rename the private ones.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable


def _resolve(module: str, path: str):
    """(owner, attribute, original) for ``module`` + ``'func'`` or
    ``'Class.method'``; original is None when the target does not exist."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return owner, attr, original if callable(original) else None


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, path: str, make: Callable) -> bool:
        owner, attr, original = _resolve(module, path)
        if original is None:
            return False
        wrapper = make(original)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            targets += [
                (m, attr)
                for name, m in sorted(sys.modules.items())
                if name.startswith("graybo.") and m is not owner and getattr(m, attr, None) is original
            ]
        for obj, name in targets:
            self._undo.append((obj, name, original))
            setattr(obj, name, wrapper)
        return True

    def undo(self) -> None:
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)


class GapClock:
    """Gaps between consecutive calls of one method within a run: the
    per-iteration decision latency when the method is called once per
    iteration (``DatasetView.query`` in a tune run)."""

    def __init__(self) -> None:
        self.gaps_ms: list[float] = []
        self.active = True
        self._last: float | None = None
        self._patches = _Patches()

    def start_run(self) -> None:
        self._last = None

    def install(self, module: str, path: str) -> bool:
        clock = self

        def make(original):
            @functools.wraps(original)
            def ticking(*args, **kwargs):
                if clock.active:
                    now = time.perf_counter()
                    if clock._last is not None:
                        clock.gaps_ms.append((now - clock._last) * 1e3)
                    clock._last = now
                return original(*args, **kwargs)

            return ticking

        return self._patches.replace(module, path, make)

    def uninstall(self) -> None:
        self._patches.undo()


class Tracer:
    """Span recorder; ``install`` wraps every layer in ``LAYERS``.

    Spans live in parallel arrays rather than one object per span, so a
    long traced run adds no work to the garbage collector.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.run_id = ""
        self.last_ei: tuple | None = None
        self.on_root_close: Callable[[], None] | None = None
        self._stack: list[int] = []
        self._patches = _Patches()
        self.clear()

    def clear(self) -> None:
        self.names: list[str] = []
        self.runs: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters.clear()

    def wrap(self, name: str, module: str, path: str, after=None, on_error=None) -> None:
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                stack = tracer._stack
                i = len(tracer.names)
                tracer.names.append(name)
                tracer.runs.append(tracer.run_id)
                tracer.parents.append(stack[-1] if stack else -1)
                tracer.ends.append(0.0)
                stack.append(i)
                tracer.starts.append(time.perf_counter())
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    tracer.ends[i] = time.perf_counter()
                    stack.pop()
                    if on_error is not None:
                        on_error(tracer, exc)
                    tracer._closed()
                    raise
                tracer.ends[i] = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(tracer, original, result, args, kwargs)
                tracer._closed()
                return result

            return traced

        if not self._patches.replace(module, path, make):
            self.absent.add(name)

    def _closed(self) -> None:
        if not self._stack and self.on_root_close is not None:
            self.on_root_close()

    def install(self) -> None:
        for layer in LAYERS:
            self.wrap(*layer)

    def uninstall(self) -> None:
        self._patches.undo()

    def layer_times(self, run_prefix: str = "") -> dict[str, list[float]]:
        """name -> [count, total seconds, self seconds] over the spans whose
        run id starts with ``run_prefix``; self time is the span's duration
        minus that of its direct children."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[str, list[float]] = {}
        for i, name in enumerate(self.names):
            if self.runs[i].startswith(run_prefix):
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += dur[i]
                row[2] += dur[i] - child[i]
        return out

    def dump(self, path: str) -> None:
        """Writes the aggregates and every span as [name, start, end,
        parent index, run id]."""
        spans = list(zip(self.names, self.starts, self.ends, self.parents, self.runs))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "layers": self.layer_times(),
                    "counters": dict(self.counters),
                    "absent": sorted(self.absent),
                    "spans": spans,
                },
                fh,
            )


def merge_layers(parts: list[dict[str, list[float]]]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
    return out


# -- counters read from arguments and return values -------------------------


def _rows(counter: str):
    def after(tracer, original, result, args, kwargs):
        inputs = args[1] if len(args) > 1 else kwargs.get("inputs")
        tracer.counters[counter] += len(inputs)

    return after


def _rollbacks(counter: str):
    def after(tracer, original, result, args, kwargs):
        tracer.counters[counter] += bool(getattr(result, "rolled_back", False))

    return after


def _jitter(tracer, original, result, args, kwargs):
    tracer.counters["surrogate.jitter_escalations"] += result[1] > 0.0


def _rank1_fallback(tracer, exc):
    if type(exc).__name__ == "_NeedsRebuild":
        tracer.counters["optimizer.rank1.fallbacks"] += 1


def _ei_inputs(tracer, original, result, args, kwargs):
    bound = inspect.signature(original).bind(*args, **kwargs)
    a = bound.arguments
    tracer.counters["acquisition.pool_calls"] += 1
    tracer.counters["acquisition.pool_rows"] += len(a["mean"])
    tracer.last_ei = (a.get("predicted_cost"), a.get("observed_cum"), bool(a.get("cost_aware")))


def _winner(tracer, original, result, args, kwargs):
    """Counts cost-aware winners and those whose step-cost denominator was
    at or below the floor, from the inputs of the preceding ``ei_scores``."""
    floor = getattr(importlib.import_module("graybo.costmodel"), "STEP_COST_FLOOR", None)
    if tracer.last_ei is None or floor is None:
        return
    predicted, observed, cost_aware = tracer.last_ei
    tracer.last_ei = None
    if not cost_aware or predicted is None or observed is None:
        return
    pool = list(args[0] if args else kwargs["pool"])
    i = pool.index(result)
    tracer.counters["acquisition.cost_aware_winners"] += 1
    tracer.counters["acquisition.clamped_winners"] += float(predicted[i] - observed[i]) <= floor


def _meta_iters(tracer, original, result, args, kwargs):
    tracer.counters["metalearn.iters_run"] += result.iterations_run


# (span name, module, attribute, after-hook, error-hook)
LAYERS: list[tuple] = [
    ("surrogate.fit", "graybo.surrogate", "DeepKernelGP.fit", _rollbacks("surrogate.fit.rollbacks")),
    ("surrogate.nll_grad", "graybo.surrogate", "DeepKernelGP.nll_with_grads", _rows("surrogate.features.rows")),
    ("surrogate.features", "graybo.surrogate", "DeepKernelGP.features_batch", _rows("surrogate.features.rows")),
    ("surrogate.kernel_matrix", "graybo.surrogate", "kernel_matrix"),
    ("surrogate.chol", "graybo.surrogate", "_chol_with_jitter", _jitter),
    ("neural.softplus", "graybo.neural", "softplus"),
    ("neural.curve_unroll", "graybo.neural", "CurveEncoder.unroll"),
    ("neural.adam_step", "graybo.neural", "Adam.step"),
    ("costmodel.fit", "graybo.costmodel", "CostPredictor.fit", _rollbacks("costmodel.fit.rollbacks")),
    ("costmodel.predict", "graybo.costmodel", "CostPredictor.predict_batch", _rows("costmodel.predict.rows")),
    ("optimizer.tune", "graybo.optimizer", "tune"),
    ("optimizer.cache_rebuild", "graybo.optimizer", "_ScoreCache.__init__"),
    ("optimizer.rank1", "graybo.optimizer", "_ScoreCache.apply_evaluation", None, _rank1_fallback),
    ("acquisition.ei_scores", "graybo.acquisition", "ei_scores", _ei_inputs),
    ("acquisition.argmax", "graybo.acquisition", "argmax_lowest_id", _winner),
    ("metalearn.meta_train", "graybo.metalearn", "meta_train", _meta_iters),
    ("metalearn.cell_batch", "graybo.metalearn", "_DatasetCache.cell_batch"),
    ("benchtab.generate", "graybo.benchtab", "generate"),
    ("benchtab.load", "graybo.benchtab", "load_metadataset"),
    ("core.encode", "graybo.core", "encode"),
    ("evalkit.write_reports", "graybo.evalkit", "write_reports"),
]


def install_child_flush(tracer: Tracer, out_dir: str) -> None:
    """Forked pool workers start with no spans of their parent's and write
    their own after each root span, because they exit without running exit
    handlers."""
    parent_pid = os.getpid()
    flushes = itertools.count(1)

    def flush() -> None:
        pid = os.getpid()
        if pid != parent_pid:
            tracer.dump(os.path.join(out_dir, f"spans_{pid}_{next(flushes)}.json"))
            tracer.clear()

    os.register_at_fork(after_in_child=tracer.clear)
    tracer.on_root_close = flush
