"""Batch command-line surface: gen, pareto, metatrain, tune, baseline, report.

Every subcommand is a pure function of (input files, flags, seed) to output
files.  Exit codes: 0 success, 2 usage, 3 I/O failure, 4 empty input,
5 internal numeric failure.  QT_LOG={error,info,debug} controls stderr
logging.

Each command pays its start-up once: no module imports ``scipy.stats`` at
import time, ``tune`` and ``baseline`` parse the table (and the checkpoint)
once and hand each run its dataset view, which fork workers receive as task
arguments.  Importing graybo keeps glibc from trimming the heap top between
fits (``surrogate.keep_heap_top``), in this process and its fork workers.
Every run's settings are checked before ``--out`` is created, so a rejected
command leaves no output behind.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import benchtab, evalkit, metalearn
from .core import SearchSpace, load_space, save_space, space_from_dict
from .optimizer import RunTrace, TuneConfig, tune
from .surrogate import SingularKernelError

log = logging.getLogger("graybo.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_EMPTY = 4
EXIT_NUMERIC = 5

ABLATIONS = ("no-meta", "no-cost", "full-fidelity")


class UsageError(ValueError):
    pass


def _configure_logging(quiet: bool) -> None:
    level_name = os.environ.get("QT_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.ERROR
    )
    if quiet:
        level = logging.ERROR
    logging.basicConfig(stream=sys.stderr, level=level, force=True)


def _positive(value: int | float, flag: str):
    if value <= 0:
        raise UsageError(f"{flag} must be positive, got {value}")
    return value


def _load_bench(bench_dir: str) -> tuple[benchtab.TabularBenchmark, SearchSpace]:
    space_path = os.path.join(bench_dir, "space.json")
    if not os.path.exists(space_path):
        raise FileNotFoundError(f"{space_path} not found (generate the benchmark first)")
    space = load_space(space_path)
    md = benchtab.load_metadataset(bench_dir, space)
    return benchtab.TabularBenchmark(md), space


def _parse_id_list(raw: str, bench: benchtab.TabularBenchmark) -> list[str]:
    if raw == "all":
        return bench.dataset_ids
    ids = [s for s in raw.split(",") if s]
    if not ids:
        raise UsageError(f"--dataset: no dataset id in {raw!r}")
    for did in ids:
        if did not in bench.dataset_ids:
            raise UsageError(f"--dataset: unknown dataset id {did!r}")
    return ids


def _parse_seed_list(raw: str) -> list[int]:
    try:
        seeds = [int(s) for s in raw.split(",") if s]
    except ValueError as exc:
        raise UsageError(f"--seed: {exc}") from exc
    if not seeds:
        raise UsageError(f"--seed: no seed in {raw!r}")
    return seeds


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    if args.space:
        space = load_space(args.space)
        if args.models > len(space.hub):
            raise UsageError(
                f"--models {args.models} exceeds the {len(space.hub)}-model hub in {args.space}"
            )
        space = SearchSpace(dims=space.dims, hub=space.hub[: args.models])
    else:
        space = benchtab.default_search_space(n_models=args.models)
    _positive(args.datasets, "--datasets")
    _positive(args.clusters, "--clusters")
    _positive(args.configs, "--configs")
    _positive(args.models, "--models")
    if args.noise < 0:
        raise UsageError(f"--noise must be >= 0, got {args.noise}")
    cfg = benchtab.GeneratorConfig(
        n_clusters=args.clusters,
        n_datasets=args.datasets,
        n_models=args.models,
        configs_per_dataset=args.configs,
        n_epochs=args.epochs,
        obs_noise=args.noise,
        cost_base=args.cost_base,
        seed=args.seed,
    )
    md = benchtab.generate(cfg, space)
    os.makedirs(args.out, exist_ok=True)
    save_space(space, os.path.join(args.out, "space.json"))
    benchtab.save_metadataset(md, space, args.out)
    manifest = {
        "command": "gen",
        "space": args.space,
        "clusters": args.clusters,
        "datasets": args.datasets,
        "models": args.models,
        "configs": args.configs,
        "epochs": args.epochs,
        "noise": args.noise,
        "cost_base": args.cost_base,
        "seed": args.seed,
        "out": args.out,
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    log.info("wrote benchmark with %d datasets to %s", args.datasets, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pareto


def cmd_pareto(args) -> int:
    with open(args.models, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "hub" not in payload:
        raise UsageError(f'--models: {args.models} must hold {{"hub": [...]}}')
    models = space_from_dict({"dims": [], "hub": payload["hub"]}).hub
    front = benchtab.pareto_hub(list(models))
    out = {
        "hub": [
            {
                "name": m.name,
                "param_count": m.param_count,
                "upstream_accuracy": m.upstream_accuracy,
            }
            for m in front
        ]
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# metatrain


def cmd_metatrain(args) -> int:
    bench, space = _load_bench(args.bench)
    _positive(args.folds, "--folds")
    if args.iters < 0:
        raise UsageError(f"--iters must be >= 0, got {args.iters}")
    if not 0 <= args.val_fold < args.folds:
        raise UsageError(f"--val-fold must lie in [0, {args.folds})")
    split = metalearn.split_folds(
        bench.dataset_ids,
        k=args.folds,
        seed=args.seed,
        val_fold=args.val_fold,
        test_fold=args.test_fold,
    )
    result = metalearn.meta_train(
        bench.md,
        split,
        space,
        iters=args.iters,
        lr=args.lr,
        batch_size=args.batch,
        eval_every=args.eval_every,
        patience=args.patience,
        seed=args.seed,
        dt=args.dt,
    )
    result.checkpoint.save(args.out)
    log.info(
        "meta-trained %d iters (val NLL %.4f -> %.4f), wrote %s",
        result.iterations_run,
        result.initial_val_nll,
        result.best_val_nll,
        args.out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# tune / baseline grids


def _run_one_tune(view, space, checkpoint, checkpoint_path, cfg: TuneConfig, out_path: str) -> str:
    trace = tune(view, space, cfg, checkpoint=checkpoint, method="tune")
    trace.flags["checkpoint"] = checkpoint_path
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(trace.to_json())
        fh.write("\n")
    return out_path


def _run_one_baseline(view, space, method: str, seed: int, opts: dict, out_path: str) -> str:
    budget = opts["budget_seconds"]
    if method == "random":
        trace = evalkit.random_search(view, space, budget, seed, max_steps=opts["max_steps"])
    elif method == "sha":
        trace = evalkit.successive_halving(
            view, space, budget, eta=opts["eta"], r_min=opts["r_min"], seed=seed
        )
    else:
        trace = evalkit.gp_full(
            view,
            space,
            budget,
            seed,
            fit_steps=opts["fit_steps"],
            lr=opts["lr"],
            max_steps=opts["max_steps"],
        )
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(trace.to_json())
        fh.write("\n")
    return out_path


def _grid_out_paths(out: str, method: str, datasets: list[str], seeds: list[int]) -> dict:
    single = len(datasets) == 1 and len(seeds) == 1
    if single and out.endswith(".json"):
        return {(datasets[0], seeds[0]): out}
    os.makedirs(out, exist_ok=True)
    return {
        (d, s): os.path.join(out, f"{method}_{d}_s{s}.json") for d in datasets for s in seeds
    }


def _run_grid(jobs: int, work: list[tuple], runner) -> None:
    """Run each work item, in turn or on ``jobs`` fork workers; workers get
    the loaded table and checkpoint in their task arguments (pickled), not by
    parsing the files again."""
    if jobs == 1 or len(work) <= 1:
        for item in work:
            runner(*item)
        return
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
        futures = [pool.submit(runner, *item) for item in work]
        for f in futures:
            f.result()


def cmd_tune(args) -> int:
    seeds = _parse_seed_list(args.seed)
    _positive(args.jobs, "--jobs")
    _positive(args.budget_seconds, "--budget-seconds")
    ablate = set(args.ablate or [])
    unknown = ablate - set(ABLATIONS)
    if unknown:
        raise UsageError(f"--ablate: unknown ablations {sorted(unknown)}")
    bench, space = _load_bench(args.bench)
    datasets = _parse_id_list(args.dataset, bench)
    use_meta = args.checkpoint is not None and "no-meta" not in ablate
    cfg_kwargs = dict(
        budget_seconds=args.budget_seconds,
        dt=args.dt,
        use_meta=use_meta,
        use_cost="no-cost" not in ablate,
        full_fidelity="full-fidelity" in ablate,
        fit_steps=args.fit_steps,
        lr=args.lr,
        count_overhead=args.count_overhead,
        fit_window=args.fit_window,
        max_steps=args.max_steps,
        refit_period=args.refit_period,
    )
    cfgs = {s: TuneConfig(seed=s, **cfg_kwargs) for s in seeds}  # checked before --out exists
    checkpoint_path = args.checkpoint if use_meta else None
    checkpoint = metalearn.MetaCheckpoint.load(checkpoint_path) if use_meta else None
    paths = _grid_out_paths(args.out, "tune", datasets, seeds)
    work = [
        (bench.view(d), space, checkpoint, checkpoint_path, cfgs[s], paths[(d, s)])
        for d in datasets
        for s in seeds
    ]
    _run_grid(args.jobs, work, _run_one_tune)
    return EXIT_OK


# the baseline methods and the options each reads, with their effective
# defaults; giving a method an option it does not read is a usage error
BASELINE_DEFAULTS = dict(eta=3, r_min=1, fit_steps=100, lr=1e-4, max_steps=None)
BASELINE_OPTIONS = {
    "random": {"max_steps"},
    "sha": {"eta", "r_min"},
    "gp-full": {"fit_steps", "lr", "max_steps"},
}


def cmd_baseline(args) -> int:
    if args.method not in BASELINE_OPTIONS:
        raise UsageError(f"--method: unknown method {args.method!r}")
    opts = dict(BASELINE_DEFAULTS)
    for name in BASELINE_DEFAULTS:
        value = getattr(args, name)
        if value is None:
            continue
        if name not in BASELINE_OPTIONS[args.method]:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} does not apply to --method {args.method}")
        opts[name] = value
    seeds = _parse_seed_list(args.seed)
    _positive(args.jobs, "--jobs")
    _positive(args.budget_seconds, "--budget-seconds")
    if opts["eta"] < 2:
        raise UsageError(f"--eta must be >= 2, got {opts['eta']}")
    if opts["max_steps"] is not None and opts["max_steps"] < 1:
        raise UsageError(f"--max-steps must be >= 1, got {opts['max_steps']}")
    if args.method == "gp-full":  # checks --fit-steps and --lr before --out exists
        TuneConfig(budget_seconds=args.budget_seconds, fit_steps=opts["fit_steps"], lr=opts["lr"])
    opts["budget_seconds"] = args.budget_seconds
    bench, space = _load_bench(args.bench)
    datasets = _parse_id_list(args.dataset, bench)
    n_epochs = bench.md.n_epochs
    if args.method == "sha" and not 1 <= opts["r_min"] <= n_epochs:
        raise UsageError(f"--r-min must lie in [1, {n_epochs}], got {opts['r_min']}")
    paths = _grid_out_paths(args.out, args.method, datasets, seeds)
    work = [
        (bench.view(d), space, args.method, s, opts, paths[(d, s)])
        for d in datasets
        for s in seeds
    ]
    _run_grid(args.jobs, work, _run_one_baseline)
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    bench, _ = _load_bench(args.bench)
    traces = []
    if os.path.isdir(args.runs):
        for name in sorted(os.listdir(args.runs)):
            if name.endswith(".json"):
                with open(os.path.join(args.runs, name), "r", encoding="utf-8") as fh:
                    traces.append(RunTrace.from_json(fh.read()))
    if not traces:
        print("no results", file=sys.stderr)
        return EXIT_EMPTY
    evalkit.write_reports(traces, bench, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graybo", description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="errors only")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic tabular benchmark")
    p.add_argument("--space", default=None, help="search-space JSON (default: built-in space)")
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--datasets", type=int, default=20)
    p.add_argument("--models", type=int, default=8)
    p.add_argument("--configs", type=int, default=100)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--cost-base", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pareto", help="reduce a model list to its Pareto front")
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("metatrain", help="meta-train the predictors on a benchmark")
    p.add_argument("--bench", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--val-fold", type=int, default=0)
    p.add_argument("--test-fold", type=int, default=None)
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--eval-every", type=int, default=100)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--dt", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metatrain)

    p = sub.add_parser("tune", help="run the cost-aware gray-box optimizer")
    p.add_argument("--bench", required=True)
    p.add_argument("--dataset", required=True, help="dataset id, comma list, or 'all'")
    p.add_argument("--budget-seconds", type=float, required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--ablate", nargs="*", default=[], choices=ABLATIONS)
    p.add_argument("--dt", type=int, default=1)
    p.add_argument("--fit-steps", type=int, default=100,
                   help="Adam steps per GP refit (the cost head is solved in closed form)")
    p.add_argument("--lr", type=float, default=1e-4, help="Adam learning rate of the GP fit")
    p.add_argument("--fit-window", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--refit-period", type=int, default=1)
    p.add_argument("--count-overhead", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", default="0", help="seed or comma list")
    p.add_argument("--out", required=True, help="trace file (single run) or directory")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("baseline", help="run a baseline optimizer")
    p.add_argument("--method", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--budget-seconds", type=float, required=True)
    p.add_argument("--eta", type=int, default=None, help="sha only (default 3)")
    p.add_argument("--r-min", type=int, default=None, help="sha only (default 1)")
    p.add_argument("--fit-steps", type=int, default=None, help="gp-full only (default 100)")
    p.add_argument("--lr", type=float, default=None, help="gp-full only (default 1e-4)")
    p.add_argument("--max-steps", type=int, default=None, help="random and gp-full only")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", default="0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("report", help="aggregate run traces into CSV reports")
    p.add_argument("--runs", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _configure_logging(args.quiet)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except benchtab.BenchmarkQueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SingularKernelError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (benchtab.MetaDatasetFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
