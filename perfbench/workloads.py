"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in ``setup`` (a
synthetic benchmark table of the acceptance generator shape and, for
``tune_qt``, a meta-checkpoint) and then repeats one operation on the same
inputs, so every operation of a run measures the same work.  Each one
puts the load on a different layer, so a change to one layer shows on one
workload and not on the others:

- ``tune_qt``: the full method (meta-learned init, cost-aware EI) at the
  acceptance tune settings.  GP and cost-net fitting dominate; the only
  workload where the cost model works during search.
- ``tune_long``: the no-meta/no-cost ablation with rare refits and a step
  cap far above 300, so a run holds more than 1000 training rows and the
  incremental score cache (rank-1 updates, rebuilds) dominates.
- ``metatrain``: ``meta_train`` at the acceptance settings; pure network
  gradient work on 64-row batches with the optimizer idle.
- ``grid``: the CLI as ``scripts/run_end_to_end.py`` drives it, as
  ``python -m graybo`` subprocesses (start-up, import, benchmark loading,
  fork workers, baselines and reports), two workers on two cores.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Layer entry points are called through their modules, so the tracer's
# attribute replacements see these calls.
from graybo import benchtab, metalearn, optimizer
from graybo.core import save_space
from graybo.evalkit import trace_auc
from graybo.optimizer import RunTrace, TuneConfig

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ACCEPTANCE_GENERATOR = dict(
    n_clusters=5, n_datasets=20, n_models=8, configs_per_dataset=100,
    n_epochs=50, obs_noise=0.01, cost_base=1.0,
)
BUDGET_TRAININGS = 50.0  # budget = this many median full trainings, as criterion 7
CLI_TIMEOUT_S = 60  # a grid command normally takes under 10 s
GRID_SEEDS = 2  # tune and baseline seeds per grid command


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; ``FULL`` is what the benchmark measures,
    ``TINY`` is for the self-test."""

    generator: dict
    qt_kw: dict
    long_kw: dict
    setup_meta_iters: int
    meta_iters: int
    meta_eval_every: int
    grid_tune_kw: dict
    grid_gp_full_steps: int
    grid_random_steps: int


FULL = Scale(
    generator=ACCEPTANCE_GENERATOR,
    qt_kw=dict(fit_steps=10, fit_window=96, max_steps=300, refit_period=5),
    long_kw=dict(fit_steps=10, fit_window=96, max_steps=1100, refit_period=25),
    setup_meta_iters=100,
    meta_iters=500,
    meta_eval_every=100,
    grid_tune_kw=dict(fit_steps=10, fit_window=96, max_steps=100),
    grid_gp_full_steps=10,
    grid_random_steps=500,
)

TINY = Scale(
    generator=dict(
        n_clusters=2, n_datasets=4, n_models=3, configs_per_dataset=12,
        n_epochs=10, obs_noise=0.01, cost_base=1.0,
    ),
    qt_kw=dict(fit_steps=3, fit_window=16, max_steps=25, refit_period=5),
    long_kw=dict(fit_steps=3, fit_window=16, max_steps=40, refit_period=10),
    setup_meta_iters=10,
    meta_iters=20,
    meta_eval_every=10,
    grid_tune_kw=dict(fit_steps=3, fit_window=16, max_steps=10),
    grid_gp_full_steps=5,
    grid_random_steps=50,
)


@dataclass
class OpResult:
    """One operation: a tune run, a meta_train call, or a CLI grid round.

    ``units`` are what ``attempted`` counts: the run itself, or each CLI
    command of a grid round.  A unit fails once, however many problems it
    has; ``failures`` keeps the messages for the report."""

    label: str
    units: tuple[str, ...]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    steps: int = 0
    failures: list[str] = field(default_factory=list)
    failed_units: set[str] = field(default_factory=set)
    gaps_ms: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    digest_units: dict[str, str] = field(default_factory=dict)
    regret_aucs: list[float] = field(default_factory=list)
    budget_fracs: list[float] = field(default_factory=list)
    val_nll: float | None = None
    commands: list[tuple[str, float, float]] = field(default_factory=list)
    probe: list[dict] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.units)

    @property
    def failed(self) -> int:
        return len(self.failed_units)

    def fail(self, unit: str, problems: list[str]) -> None:
        for p in problems:
            self.failures.append(f"{unit}: {p}")
            self.failed_units.add(unit)

    def add_digest(self, unit: str, key: str, data: bytes | str) -> None:
        self.digests[key] = checks.sha256(data)
        self.digest_units[key] = unit


class Workload:
    name = ""
    # (module, Class.method) called once per iteration; None when the
    # iterations run in subprocesses
    clock_target: tuple[str, str] | None = ("graybo.benchtab", "DatasetView.query")
    # set for the traced operations; only subprocesses need to be told
    traced = False

    def __init__(self, scale: Scale, seed: int, workdir: str) -> None:
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.setup_val_nll: float | None = None

    def setup(self) -> None:
        """Builds the inputs from the seed; timed and repeated."""
        cfg = benchtab.GeneratorConfig(seed=self.seed, **self.scale.generator)
        self.space = benchtab.default_search_space(cfg.n_models)
        md = benchtab.generate(cfg, self.space)
        self.bench = benchtab.TabularBenchmark(md)
        self.folds = metalearn.split_folds(md.dataset_ids, k=4, seed=self.seed, val_fold=1, test_fold=0)
        # the dataset every operation runs on; the seed picks the table
        self.did = self.folds.test_ids[0]

    def budget(self, did: str) -> float:
        return BUDGET_TRAININGS * float(np.median(self.bench.md.datasets[did].final_costs()))

    def warmup(self) -> None:
        """Untimed first call, so lazy imports and allocator growth are
        not charged to the first measured operation."""

    def op(self, clock) -> OpResult:
        raise NotImplementedError


class TuneWorkload(Workload):
    use_meta = False
    use_cost = False

    def tune_kw(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        super().setup()
        self.checkpoint = None

    def _run(self, did: str, run_seed: int, kw: dict):
        budget = self.budget(did)
        cfg = TuneConfig(
            budget_seconds=budget, seed=run_seed, use_meta=self.use_meta,
            use_cost=self.use_cost, **kw,
        )
        return optimizer.tune(self.bench.view(did), self.space, cfg, checkpoint=self.checkpoint), budget

    def warmup(self) -> None:
        self._run(self.did, self.seed, dict(self.tune_kw(), max_steps=10))

    def op(self, clock) -> OpResult:
        did = self.did
        label = f"{did}/s{self.seed}"
        res = OpResult(label=label, units=(label,))
        kw = self.tune_kw()
        n0 = len(clock.gaps_ms)
        clock.start_run()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            trace, budget = self._run(did, self.seed, kw)
        except Exception as exc:  # a failed run is counted, not fatal
            res.fail(label, [f"{type(exc).__name__}: {exc}"])
            return res
        res.wall_s = time.perf_counter() - t0
        res.cpu_s = time.process_time() - cpu0
        res.gaps_ms = clock.gaps_ms[n0:]
        res.steps = len(trace.steps)
        res.fail(label, checks.check_trace(trace, budget, kw["max_steps"]))
        res.add_digest(label, f"{self.name}/{label}", trace.to_json())
        res.regret_aucs.append(trace_auc(trace, self.bench.y_bounds(did), budget))
        res.budget_fracs.append(trace.final_cum_time / budget)
        return res


class TuneQT(TuneWorkload):
    """Full method; the checkpoint is meta-trained in set-up."""

    name = "tune_qt"
    use_meta = True
    use_cost = True

    def tune_kw(self) -> dict:
        return self.scale.qt_kw

    def setup(self) -> None:
        super().setup()
        result = metalearn.meta_train(
            self.bench.md, self.folds, self.space, iters=self.scale.setup_meta_iters,
            eval_every=self.scale.meta_eval_every, seed=self.seed,
        )
        self.checkpoint = result.checkpoint
        self.setup_val_nll = result.best_val_nll


class TuneLong(TuneWorkload):
    name = "tune_long"

    def tune_kw(self) -> dict:
        return self.scale.long_kw


class MetaTrain(Workload):
    name = "metatrain"
    clock_target = ("graybo.surrogate", "DeepKernelGP.nll_with_grads")

    def _run(self, iters: int, seed: int):
        return metalearn.meta_train(
            self.bench.md, self.folds, self.space, iters=iters, lr=1e-4, batch_size=64,
            eval_every=self.scale.meta_eval_every, patience=5, seed=seed,
        )

    def warmup(self) -> None:
        self._run(5, self.seed)

    def op(self, clock) -> OpResult:
        label = f"s{self.seed}"
        res = OpResult(label=label, units=(label,))
        n0 = len(clock.gaps_ms)
        clock.start_run()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            result = self._run(self.scale.meta_iters, self.seed)
        except Exception as exc:
            res.fail(label, [f"{type(exc).__name__}: {exc}"])
            return res
        res.wall_s = time.perf_counter() - t0
        res.cpu_s = time.process_time() - cpu0
        res.gaps_ms = clock.gaps_ms[n0:]
        res.steps = result.iterations_run
        res.fail(label, checks.check_meta_train(result))
        payload = {"checkpoint": result.checkpoint.to_payload(), "val_nll": result.val_nll_history}
        res.add_digest(label, f"{self.name}/{label}", json.dumps(payload, sort_keys=True))
        res.val_nll = result.best_val_nll
        return res


class Grid(Workload):
    """One operation is one round of CLI commands on the held-out dataset,
    as ``scripts/run_end_to_end.py`` issues them per dataset (with that
    dataset's own budget): tune (no-meta, no-cost) and the random and
    gp-full baselines, each over ``GRID_SEEDS`` seeds, then a report.

    The baselines run with ``--jobs 2``: two fork workers, each with
    OpenBLAS's default threads, on two cores.  The tune command runs its
    seeds in turn (``--jobs 1``): with two workers its iteration latency
    flips between runs between ~40 ms and a ~96 ms lockstep, in which each
    worker waits out the other's spinning BLAS threads, so no per-run
    median of it is steady.  100 steps give iterations from ~12 ms (few
    rows) to ~150 ms (100 rows), so the 95th percentile is set by the
    largest fits and not by the occasional stalled small one.

    The sha baseline is left out: ``successive_halving`` never evaluates
    past the last rung below the horizon, so at this budget it can loop
    without evaluating or spending budget (seed 1, d00 never returns).
    """

    METHODS = ("tune", "random", "gp-full")

    name = "grid"
    clock_target = None

    def setup(self) -> None:
        super().setup()
        bench_dir = os.path.join(self.workdir, "bench")
        shutil.rmtree(bench_dir, ignore_errors=True)
        os.makedirs(bench_dir)
        save_space(self.space, os.path.join(bench_dir, "space.json"))
        benchtab.save_metadataset(self.bench.md, self.space, bench_dir)
        self.bench_dir = bench_dir

    def _commands(self, did: str, seeds: list[int], runs: str, report: str) -> list[list[str]]:
        common = ["--bench", self.bench_dir, "--dataset", did,
                  "--budget-seconds", repr(self.budget(did)),
                  "--seed", ",".join(str(s) for s in seeds), "--out", runs]
        kw = self.scale.grid_tune_kw
        tune_cmd = ["tune", *common, "--jobs", "1", "--ablate", "no-meta", "no-cost",
                    "--fit-steps", str(kw["fit_steps"]), "--fit-window", str(kw["fit_window"]),
                    "--max-steps", str(kw["max_steps"])]
        random_cmd = ["baseline", "--method", "random", *common, "--jobs", "2",
                      "--max-steps", str(self.scale.grid_random_steps)]
        gp_full_cmd = ["baseline", "--method", "gp-full", *common, "--jobs", "2",
                       "--fit-steps", str(kw["fit_steps"]),
                       "--max-steps", str(self.scale.grid_gp_full_steps)]
        return [tune_cmd, random_cmd, gp_full_cmd, ["report", "--runs", runs, "--bench", self.bench_dir, "--out", report]]

    def _cli(self, argv: list[str], probe_dir: str) -> tuple[int | str, float, float, str]:
        env = dict(os.environ)
        env["PERFBENCH_PROBE_DIR"] = probe_dir
        env["PERFBENCH_TRACE"] = "1" if self.traced else "0"
        entry = os.path.join(HERE, "cli_entry.py")
        before = os.times()
        t0 = time.perf_counter()
        # own session, so a hung command is killed with its fork workers
        proc = subprocess.Popen(
            [sys.executable, entry, *argv], env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=CLI_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            code, err = "timeout", f"killed after {CLI_TIMEOUT_S} s"
        wall = time.perf_counter() - t0
        after = os.times()
        cpu = (after.children_user - before.children_user) + (after.children_system - before.children_system)
        return code, wall, cpu, err.strip()[-400:]

    def warmup(self) -> None:
        self._cli(["--help"], self.workdir)

    def op(self, clock) -> OpResult:
        did = self.did
        seeds = list(range(self.seed, self.seed + GRID_SEEDS))
        res = OpResult(label=f"{did}/s{seeds[0]}-{seeds[-1]}", units=(*self.METHODS, "report"))
        op_dir = os.path.join(self.workdir, "round")
        shutil.rmtree(op_dir, ignore_errors=True)
        runs, report, probe = (os.path.join(op_dir, d) for d in ("runs", "report", "probe"))
        os.makedirs(probe)
        t0 = time.perf_counter()
        for unit, argv in zip(res.units, self._commands(did, seeds, runs, report)):
            code, wall, cpu, err = self._cli(argv, probe)
            res.commands.append((argv[0], wall, cpu))
            res.cpu_s += cpu
            if code != 0:
                res.fail(unit, [f"exit {code}: {err}"])
        res.wall_s = time.perf_counter() - t0
        self._check_outputs(did, seeds, runs, report, res)
        for path in sorted(glob.glob(os.path.join(probe, "gaps_*.json"))):
            with open(path, encoding="utf-8") as fh:
                res.gaps_ms += json.load(fh)
        for path in sorted(glob.glob(os.path.join(probe, "spans_*.json"))):
            with open(path, encoding="utf-8") as fh:
                res.probe.append(json.load(fh))
        shutil.rmtree(op_dir, ignore_errors=True)
        return res

    def _check_outputs(self, did, seeds, runs, report, res: OpResult) -> None:
        n_traces = 0
        caps = {"tune": self.scale.grid_tune_kw["max_steps"], "random": self.scale.grid_random_steps,
                "gp-full": self.scale.grid_gp_full_steps}
        budget = self.budget(did)
        for method in self.METHODS:
            for seed in seeds:
                path = os.path.join(runs, f"{method}_{did}_s{seed}.json")
                if not os.path.isfile(path):
                    res.fail(method, [f"trace missing for seed {seed}"])
                    continue
                with open(path, "rb") as fh:
                    raw = fh.read()
                n_traces += 1
                res.add_digest(method, f"{self.name}/{method}/{did}/s{seed}", raw)
                trace = RunTrace.from_json(raw.decode("utf-8"))
                res.fail(method, [f"seed {seed}: {p}" for p in checks.check_trace(trace, budget, caps[method])])
                res.steps += len(trace.steps)
                if method == "tune":
                    res.regret_aucs.append(trace_auc(trace, self.bench.y_bounds(did), budget))
                    res.budget_fracs.append(trace.final_cum_time / budget)
        res.fail("report", checks.check_report(report, n_traces))


WORKLOADS = {w.name: w for w in (TuneQT, TuneLong, MetaTrain, Grid)}
