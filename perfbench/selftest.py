"""Self-test of the benchmark on a tiny generator config.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, that a trace corrupted to overshoot its budget is
caught and counted in ``fail_frac``, that a missing layer target is
reported as absent without failing the run, and that a second seed runs
and a repeated seed reproduces its traces.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import graybo.optimizer  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def tiny(name: str, seed: int = SEED, traced: bool = False) -> dict:
    return run.run_benchmark(name, seed, 0.01, traced, scale=workloads.TINY)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def test_every_named_metric_is_emitted_with_its_unit(self) -> None:
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        for name in names:
            for traced, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, traced=traced):
                    res = tiny(name, traced=traced)
                    self.assertTrue(res["summary"]["correct"], res["failures"])
                    self.assertEqual(res["absent"], [])
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = res["summary"]["metrics"]
                    self.assertEqual(set(got), set(want))
                    for metric, value in got.items():
                        self.assertEqual(value["unit"], want[metric])
                        self.assertTrue(math.isfinite(value["value"]), metric)
                        if not traced:
                            self.assertGreater(value["value"], 0.0, metric)

    def test_budget_overshoot_is_counted_as_a_failure(self) -> None:
        real = graybo.optimizer.tune

        def overshooting(*args, **kwargs):
            trace = real(*args, **kwargs)
            last = trace.steps[-1]
            budget = trace.flags["budget_seconds"]
            trace.steps[-1] = dataclasses.replace(last, cum_time=budget + 2.0 * last.step_cost + 1.0)
            return trace

        graybo.optimizer.tune = overshooting
        try:
            res = tiny("tune_long")
        finally:
            graybo.optimizer.tune = real
        self.assertFalse(res["summary"]["correct"])
        # every operation overshoots, and each counts once
        self.assertEqual(res["summary"]["failed"], res["summary"]["attempted"])
        self.assertGreater(res["fail_frac"], 0.0)
        self.assertTrue(any("budget overshoot" in f for f in res["failures"]), res["failures"])

    def test_missing_private_target_is_absent_not_fatal(self) -> None:
        saved = list(tracing.LAYERS)
        tracing.LAYERS[:] = [
            (name, module, "_RenamedCache.apply_evaluation" if name == "optimizer.rank1" else path, *rest)
            for name, module, path, *rest in saved
        ]
        try:
            res = tiny("tune_long", traced=True)
        finally:
            tracing.LAYERS[:] = saved
        self.assertTrue(res["summary"]["correct"], res["failures"])
        self.assertIn("optimizer.rank1.count", res["absent"])
        self.assertNotIn("optimizer.cache_rebuild.count", res["absent"])

    def test_second_seed_runs_and_a_repeated_seed_reproduces(self) -> None:
        first = tiny("tune_qt", SEED)
        second = tiny("tune_qt", SEED + 1)
        again = tiny("tune_qt", SEED)
        for res in (first, second, again):
            self.assertTrue(res["summary"]["correct"], res["failures"])
        self.assertNotEqual(first["digests"], second["digests"])
        self.assertEqual(first["digests"], again["digests"])
        self.assertEqual(first["quality"], again["quality"])


if __name__ == "__main__":
    unittest.main()
