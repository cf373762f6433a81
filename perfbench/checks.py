"""Correctness checks whose failures count in ``failed`` / ``fail_frac``.

Each check returns a list of problems; an empty list means the output is
correct.  They read only the program's outputs, never its internals.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def check_trace(trace, budget: float, max_steps: int | None) -> list[str]:
    """Budget discipline, a non-increasing incumbent that equals the
    running minimum, ``trace.best()`` at the minimum loss, and a run that
    stopped for a reason (budget crossed, step cap, or search exhausted)
    rather than returning a partial trace."""
    steps = trace.steps
    if not steps:
        return ["empty trace"]
    problems = []
    if not trace.final_cum_time <= budget + steps[-1].step_cost:
        problems.append(
            f"budget overshoot: {trace.final_cum_time} > {budget} + {steps[-1].step_cost}"
        )
    running = math.inf
    for k, s in enumerate(steps):
        running = min(running, s.loss)
        if s.incumbent != running:
            problems.append(f"step {k}: incumbent {s.incumbent} != running minimum {running}")
            break
    if trace.best()[2] != min(s.loss for s in steps):
        problems.append("trace.best() is not the minimum loss")
    capped = max_steps is not None and len(steps) >= max_steps
    if not (trace.final_cum_time > budget or capped or trace.exhausted):
        problems.append(f"partial trace: stopped after {len(steps)} steps within budget")
    return problems


def check_meta_train(result) -> list[str]:
    best, initial = result.best_val_nll, result.initial_val_nll
    if not math.isfinite(best):
        return [f"best validation NLL is not finite: {best}"]
    if best > initial:
        return [f"best validation NLL {best} exceeds the initial {initial}"]
    return []


REPORT_FILES = ("results.csv", "ranks.csv", "regret_curves.csv")


def check_report(report_dir: str, n_traces: int) -> list[str]:
    """The three report CSVs exist and results.csv has one row per trace."""
    missing = [f for f in REPORT_FILES if not os.path.isfile(os.path.join(report_dir, f))]
    if missing:
        return [f"missing report files: {missing}"]
    with open(os.path.join(report_dir, "results.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_traces:
        return [f"results.csv has {len(rows)} rows for {n_traces} traces"]
    return []
