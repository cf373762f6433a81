#!/usr/bin/env python3
"""graybo benchmark: one workload, one seed, one fixed measuring time.

    python3 perfbench/run.py --workload tune_qt --seed 0 --seconds 15 --trace 0

Run from the repository root (the program is imported from ``src/``).
Set-up builds the inputs from ``--seed`` several times and reports the
median as ``setup_s``; then the workload's operation repeats for about
``--seconds`` seconds.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` the layers are wrapped from outside
(tracing.py) and it holds the per-layer metrics, including the tracing
overhead measured on a repeat of the first operation run untraced.  Lines
before it are a human-readable report.  Full results go to
``.perfbench_out/results/``.  Exits 2 without a result when the program
is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("tune_qt", "tune_long", "metatrain", "grid")
SETUP_REPS = 7  # set-ups per run; setup_s is their median

# per-layer span metrics: <name>.count, <name>.total_s, <name>.self_s
SPAN_LAYERS = (
    "surrogate.fit", "surrogate.nll_grad", "surrogate.kernel_matrix", "surrogate.chol",
    "neural.softplus", "neural.curve_unroll", "neural.adam_step",
    "costmodel.fit", "optimizer.tune", "optimizer.rank1", "optimizer.cache_rebuild",
    "acquisition.ei_scores", "metalearn.meta_train", "metalearn.cell_batch",
    "benchtab.load", "evalkit.write_reports",
)
CLI_COMMANDS = ("tune", "baseline", "report")
# counters named unlike the spans whose wrappers record them
DERIVED_FROM = {
    "surrogate.jitter_escalations": ("surrogate.chol",),
    "acquisition.pool_size": ("acquisition.ei_scores",),
    "acquisition.clamped_winner_frac": ("acquisition.ei_scores", "acquisition.argmax"),
    "metalearn.iters_run": ("metalearn.meta_train",),
}


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)


def provenance() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas = None
    commit, dirty = None, None
    try:
        top = _git("rev-parse", "--show-toplevel")
        # a checkout that is not itself a repository has no commit, even
        # when it sits inside another repository
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            commit = _git("rev-parse", "HEAD").stdout.strip()
            dirty = bool(_git("status", "--porcelain").stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def _pct(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _val_nll(ops, workload) -> float | None:
    """Best validation NLL of the first meta-train call, or of the set-up's."""
    return ops[0].val_nll if ops[0].val_nll is not None else workload.setup_val_nll


def measure(workload, seconds: float, traced: bool) -> dict:
    """Set-up, warm-up and the measured operations of one run.  Every
    operation runs on the same inputs, so each must reproduce the first
    one's outputs (in a traced run: the untraced reference's)."""
    import tracing

    clock = tracing.GapClock()
    if workload.clock_target is not None:
        clock.install(*workload.clock_target)
    tracer = tracing.Tracer() if traced else None
    reference = None
    try:
        if tracer is not None:
            tracer.install()
        setup_s = []
        for k in range(SETUP_REPS):
            if tracer is not None:
                tracer.run_id = f"setup-{k}"
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        workload.warmup()
        if tracer is not None:
            # one operation to warm up, then one as the untraced reference
            # for the overhead and the byte-identity check
            workload.op(clock)
            reference = workload.op(clock)
            tracer.counters.clear()
            tracer.install()
            workload.traced = True
        ops = []
        started = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.run_id = f"op-{len(ops)}"
            ops.append(workload.op(clock))
            typical = _median([o.wall_s for o in ops])
            if time.perf_counter() - started + typical / 2 >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()
    first = ops[0] if reference is None else reference
    what = "output differs from the first operation's" if reference is None else "traced output differs from the untraced run"
    for op in ops:
        for key, digest in first.digests.items():
            if op.digests.get(key, digest) != digest:
                op.fail(first.digest_units[key], [f"{key}: {what}"])
    return {"setup_s": setup_s, "ops": ops, "reference": reference, "tracer": tracer}


def end_to_end(run: dict, workload_name: str) -> dict:
    """Iteration percentiles are taken per operation, then the median over
    operations, so one operation caught in a burst of host load does not
    set them."""
    ops = run["ops"]
    timed = [o.gaps_ms for o in ops if o.gaps_ms]
    usage = resource.RUSAGE_CHILDREN if workload_name == "grid" else resource.RUSAGE_SELF
    return {
        "setup_s": (_median(run["setup_s"]), "s"),
        "wall_s": (_median([o.wall_s for o in ops]), "s"),
        "steps_per_s": (_median([o.steps / o.wall_s for o in ops if o.wall_s]), "1/s"),
        "iter_ms.p50": (_median([_pct(g, 50) for g in timed]), "ms"),
        "iter_ms.p95": (_median([_pct(g, 95) for g in timed]), "ms"),
        "cpu_s": (_median([o.cpu_s for o in ops]), "s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: dict, workload) -> tuple[dict, list[str]]:
    import tracing

    tracer, ops, reference = run["tracer"], run["ops"], run["reference"]
    setup = tracer.layer_times("setup-")
    probes = [p for o in ops for p in o.probe]
    layers = tracing.merge_layers([tracer.layer_times("op-")] + [p["layers"] for p in probes])
    counters = dict(tracer.counters)
    absent = set(tracer.absent)
    for p in probes:
        absent |= set(p["absent"])
        for k, v in p["counters"].items():
            counters[k] = counters.get(k, 0.0) + v

    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_LAYERS:
        count, total, self_s = layers.get(name, (0, 0.0, 0.0))
        m[f"{name}.count"] = (count, "count")
        m[f"{name}.total_s"] = (total, "s")
        m[f"{name}.self_s"] = (self_s, "s")
    for name in ("surrogate.fit.rollbacks", "costmodel.fit.rollbacks", "surrogate.features.rows",
                 "costmodel.predict.rows", "optimizer.rank1.fallbacks",
                 "surrogate.jitter_escalations", "metalearn.iters_run"):
        m[name] = (counters.get(name, 0.0), "count")
    calls = counters.get("acquisition.pool_calls", 0.0)
    m["acquisition.pool_size"] = (counters.get("acquisition.pool_rows", 0.0) / calls if calls else 0.0, "count")
    winners = counters.get("acquisition.cost_aware_winners", 0.0)
    m["acquisition.clamped_winner_frac"] = (
        counters.get("acquisition.clamped_winners", 0.0) / winners if winners else 0.0, "ratio")
    fracs = [f for o in ops for f in o.budget_fracs]
    m["optimizer.budget_spent_frac"] = (statistics.fmean(fracs) if fracs else 0.0, "ratio")
    n_setup = len(run["setup_s"])
    m["benchtab.generate_s"] = (setup.get("benchtab.generate", (0, 0.0))[1] / n_setup, "s")
    m["core.encode_s"] = (setup.get("core.encode", (0, 0.0))[1] / n_setup, "s")
    commands = [c for o in ops for c in o.commands]
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.wall_s"] = (_median([w for c, w, _ in commands if c == cmd]), "s")
        m[f"cli.{cmd}.cpu_s"] = (_median([u for c, _, u in commands if c == cmd]), "s")
    wall = sum(w for _, w, _ in commands)
    m["cli.cpu_util"] = (sum(u for _, _, u in commands) / wall if wall else 0.0, "ratio")
    m["iter_ms.samples"] = (len([g for o in ops for g in o.gaps_ms]), "count")
    m["regret_auc"] = (_median(ops[0].regret_aucs), "ratio")
    val = _val_nll(ops, workload)
    m["val_nll"] = (val if val is not None else 0.0, "nats")
    overhead = ops[0].wall_s - reference.wall_s
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_frac"] = (overhead / reference.wall_s if reference.wall_s else 0.0, "ratio")

    # layers that exist but did no work on this workload read 0; metrics of
    # layers that could not be wrapped are listed as absent
    missing = {k for k in m for a in absent if k.startswith(a + ".") or k == a + "_s"}
    missing |= {k for k, sources in DERIVED_FROM.items() if absent & set(sources)}
    return m, sorted(missing)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def record_digests(workload: str, seed: int, digests: dict[str, str]) -> dict:
    """Compares trace digests with the previous saved result of the same
    workload and seed, then saves them; information, not a gate."""
    path = os.path.join(OUT, "digests", f"{workload}_s{seed}.json")
    previous = _load_json(path) or {}
    shared = [k for k in digests if k in previous]
    changed = sorted(k for k in shared if previous[k] != digests[k])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**previous, **digests}, fh, indent=1, sort_keys=True)
    return {"compared": len(shared), "changed": changed,
            "match_previous": (not changed) if shared else None}


def run_benchmark(name: str, seed: int, seconds: float, traced: bool, scale=None) -> dict:
    import workloads

    scale = scale or workloads.FULL
    workdir = os.path.join(OUT, "work", f"{name}_s{seed}_t{int(traced)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[name](scale, seed, workdir)
    try:
        run = measure(workload, seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = run["ops"]
    measured = list(ops) + ([run["reference"]] if run["reference"] is not None else [])
    attempted = sum(o.attempted for o in measured)
    failed = sum(o.failed for o in measured)
    if traced:
        metrics, absent = per_layer(run, workload)
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        run["tracer"].dump(os.path.join(OUT, "spans", f"{name}_s{seed}.json"))
    else:
        metrics, absent = end_to_end(run, name), []
    digests = {k: v for o in measured for k, v in o.digests.items()}
    aucs = [a for o in ops for a in o.regret_aucs]
    val = _val_nll(ops, workload)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "summary": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "absent": absent,
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": [f for o in measured for f in o.failures],
        "ops": [{"label": o.label, "wall_s": o.wall_s, "cpu_s": o.cpu_s, "steps": o.steps,
                 "iter_samples": len(o.gaps_ms), "regret_auc": o.regret_aucs,
                 "val_nll": o.val_nll, "commands": o.commands} for o in ops],
        "setup_s": run["setup_s"],
        "quality": {"regret_auc_op0": _median(ops[0].regret_aucs), "regret_auc_median": _median(aucs),
                    "val_nll": val},
        "digests": digests,
        "digest_check": record_digests(name, seed, digests),
        "provenance": provenance(),
    }


def report_lines(res: dict) -> list[str]:
    s = res["summary"]
    lines = [f"graybo benchmark: workload={res['workload']} seed={res['seed']} "
             f"seconds={res['seconds']} trace={res['trace']}"]
    lines.append("provenance: " + json.dumps(res["provenance"], sort_keys=True))
    lines.append(f"setup_s samples: {len(res['setup_s'])}; operations: {len(res['ops'])}; "
                 f"iteration-gap samples: {sum(o['iter_samples'] for o in res['ops'])}")
    for k, m in s["metrics"].items():
        flag = "  (absent)" if k in res["absent"] else ""
        lines.append(f"  {k:<38} {m['value']:.6g} {m['unit']}{flag}")
    lines.append(f"fail_frac: {s['failed']}/{s['attempted']} = {res['fail_frac']:.4g}")
    for f in res["failures"]:
        lines.append(f"  FAILED {f}")
    q = res["quality"]
    lines.append(f"quality: regret_auc={q['regret_auc_op0']!r} (first operation), "
                 f"median over operations={q['regret_auc_median']!r}, val_nll={q['val_nll']!r}")
    d = res["digest_check"]
    lines.append(f"trace digests: {len(res['digests'])} recorded; {d['compared']} compared with the "
                 f"previous saved result; match_previous={d['match_previous']}"
                 + (f"; changed: {d['changed']}" if d["changed"] else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graybo", "__init__.py")):
        print(f"error: no graybo sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    res = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}_s{args.seed}_t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    print("\n".join(report_lines(res)))
    print(json.dumps(res["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
