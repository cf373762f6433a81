"""Runs ``python -m graybo <args>`` with the benchmark's probes installed.

The grid workload starts each CLI command through this file, so process
start-up and imports are counted as they are for ``python -m graybo``.
Environment:

- ``PERFBENCH_PROBE_DIR``: where the probes write their files.
- ``PERFBENCH_TRACE``: ``1`` also records layer spans (see tracing.py).

Gaps between ``DatasetView.query`` calls inside each ``tune`` run go to
``gaps_<pid>_<n>.json``; spans go to ``spans_<pid>_*.json``, written by the
command's process at exit and by each fork worker after every root span.
"""

from __future__ import annotations

import itertools
import json
import os
import runpy
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402


def main() -> None:
    probe_dir = os.environ["PERFBENCH_PROBE_DIR"]
    import graybo.cli

    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        tracer = tracing.Tracer()
        tracer.install()
        tracing.install_child_flush(tracer, probe_dir)

    clock = tracing.GapClock()
    clock.active = False
    clock.install("graybo.benchtab", "DatasetView.query")
    tune = graybo.cli.tune
    dumps = itertools.count()

    def timed_tune(*args, **kwargs):
        clock.gaps_ms.clear()
        clock.start_run()
        clock.active = True
        try:
            return tune(*args, **kwargs)
        finally:
            clock.active = False
            path = os.path.join(probe_dir, f"gaps_{os.getpid()}_{next(dumps)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(clock.gaps_ms, fh)

    graybo.cli.tune = timed_tune
    sys.argv = ["graybo", *sys.argv[1:]]
    try:
        runpy.run_module("graybo", run_name="__main__", alter_sys=True)
    finally:
        if tracer is not None:
            tracer.dump(os.path.join(probe_dir, f"spans_{os.getpid()}_main.json"))


if __name__ == "__main__":
    main()
