#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts of this repository.

    python3 scripts/bench_pairs.py --parent ../base --change . --workload tune_qt --seeds 1-10

For each seed, ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace X`` runs once in each checkout, one after the other; which side
runs first alternates from pair to pair, so drift in the host's load
falls on both sides alike.  Each checkout writes its own
``.perfbench_out``, so one side's saved digests never overwrite the
other's.  From each run the script reads the result that ``run.py``
saves: its summary, trace ``digests`` and ``fail_frac``.

Per metric it prints the parent's median and interquartile range, the
change's median, their ratio and the change's wins: the pairs in which the
change is better, in the direction ``BENCHMARK.json`` gives for the metric
(lower, when it gives none).  Then each side's ``fail_frac`` and, per
seed, whether the two sides' digests are equal.  Exits 1 if any run is
not ``correct`` or fails to give a result.  It only runs the benchmark;
nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    """``1-10``, ``1,3,5`` or a mix such as ``0-3,12``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def directions(checkout: str) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from the checkout's BENCHMARK.json."""
    try:
        with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the summary, digests and fail fraction of its saved result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "metrics": {}, "digests": {}, "fail_frac": 1.0,
                "error": proc.stderr.strip()[-500:]}
    path = os.path.join(checkout, ".perfbench_out", "results", f"{workload}_s{seed}_t{trace}.json")
    with open(path, encoding="utf-8") as fh:
        saved = json.load(fh)
    return {
        "correct": bool(saved["summary"]["correct"]),
        "metrics": {k: m["value"] for k, m in saved["summary"]["metrics"].items()},
        "digests": saved["digests"],
        "fail_frac": saved["fail_frac"],
    }


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def table(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    names = [k for k in pairs[0][0]["metrics"] if all(k in p["metrics"] and k in c["metrics"] for p, c in pairs)]
    lines = [f"{'metric':<38} {'parent':>12} {'[IQR]':>11} {'change':>12} {'ratio':>8}  wins"]
    for name in names:
        par = [p["metrics"][name] for p, _ in pairs]
        chg = [c["metrics"][name] for _, c in pairs]
        higher = better.get(name, "lower") == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        mp, mc = statistics.median(par), statistics.median(chg)
        ratio = f"{mc / mp:8.3f}" if mp else "     n/a"
        lines.append(f"{name:<38} {mp:12.6g} {iqr(par):11.4g} {mc:12.6g} {ratio}  {wins}/{len(pairs)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout measured as the baseline")
    ap.add_argument("--change", required=True, help="checkout measured against it")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    pairs, runs = [], []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            print(f"seed {seed}: {side} ...", file=sys.stderr, flush=True)
            got[side] = run_once(sides[side], args.workload, seed, args.seconds, args.trace)
        pairs.append((got["parent"], got["change"]))
        runs.append({"seed": seed, **got})

    ok = all(p["correct"] and c["correct"] for p, c in pairs)
    print(f"workload {args.workload}, seeds {args.seeds}, {args.seconds:g} s runs, trace {args.trace}")
    if all(p["metrics"] and c["metrics"] for p, c in pairs):
        print("\n".join(table(pairs, directions(sides["parent"]))))
    for side, k in (("parent", 0), ("change", 1)):
        print(f"fail_frac {side}: " + " ".join(f"{pair[k]['fail_frac']:.3g}" for pair in pairs))
    same = [r["seed"] for r in runs if r["parent"]["digests"] and r["parent"]["digests"] == r["change"]["digests"]]
    print(f"digests equal on {len(same)}/{len(runs)} seeds"
          + "".join(f"; seed {r['seed']} differs" for r in runs if r["seed"] not in same))
    for r in runs:
        for side in ("parent", "change"):
            if not r[side]["correct"]:
                print(f"seed {r['seed']} {side}: not correct {r[side].get('error', '')}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
