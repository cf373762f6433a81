import ctypes
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import types

import pytest

from graybo import benchtab, surrogate
from graybo.cli import main
from graybo.core import load_space, save_space
from graybo.metalearn import MetaCheckpoint
from graybo.optimizer import RunTrace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _gen_args(out, datasets=4, configs=6, epochs=6, models=3, seed=1, clusters=2):
    return [
        "gen",
        "--clusters",
        str(clusters),
        "--datasets",
        str(datasets),
        "--models",
        str(models),
        "--configs",
        str(configs),
        "--epochs",
        str(epochs),
        "--seed",
        str(seed),
        "--out",
        str(out),
    ]


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    assert main(_gen_args(out)) == 0
    return out


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic_hashes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_gen_args(a)) == 0
    assert main(_gen_args(b)) == 0
    for name in ("metadataset.jsonl", "metafeatures.jsonl", "space.json"):
        assert _sha(a / name) == _sha(b / name)


def test_gen_rejects_zero_datasets(tmp_path, capsys):
    code = main(_gen_args(tmp_path / "x", datasets=0))
    assert code == 2
    assert "--datasets" in capsys.readouterr().err


def test_gen_manifest_echoes_flags(bench_dir):
    manifest = json.load(open(bench_dir / "manifest.json"))
    assert manifest["datasets"] == 4
    assert manifest["configs"] == 6
    assert manifest["epochs"] == 6
    assert manifest["models"] == 3
    assert manifest["seed"] == 1
    assert manifest["clusters"] == 2
    assert manifest["out"] == str(bench_dir)


def test_gen_with_space_file(tmp_path, small_space):
    space_path = tmp_path / "space.json"
    save_space(small_space, space_path)
    out = tmp_path / "bench"
    args = _gen_args(out, models=3) + ["--space", str(space_path)]
    assert main(args) == 0
    written = load_space(out / "space.json")
    assert written == small_space


def test_gen_models_exceeding_hub_is_usage_error(tmp_path, small_space, capsys):
    space_path = tmp_path / "space.json"
    save_space(small_space, space_path)
    args = _gen_args(tmp_path / "bench", models=5) + ["--space", str(space_path)]
    assert main(args) == 2
    assert "--models" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pareto


def test_pareto_round_trip(tmp_path):
    models = {
        "hub": [
            {"name": "beit_large", "param_count": 305.67, "upstream_accuracy": 90.691},
            {"name": "dla_tiny", "param_count": 1.07, "upstream_accuracy": 73.632},
            {"name": "dominated", "param_count": 400.0, "upstream_accuracy": 80.0},
        ]
    }
    src = tmp_path / "models.json"
    src.write_text(json.dumps(models))
    out = tmp_path / "front.json"
    assert main(["pareto", "--models", str(src), "--out", str(out)]) == 0
    front = json.load(open(out))
    assert {m["name"] for m in front["hub"]} == {"beit_large", "dla_tiny"}


def test_pareto_bad_input_shape(tmp_path, capsys):
    src = tmp_path / "models.json"
    src.write_text(json.dumps({"models": []}))
    assert main(["pareto", "--models", str(src), "--out", str(tmp_path / "o.json")]) == 2


def test_pareto_missing_file_is_io_error(tmp_path):
    code = main(["pareto", "--models", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json")])
    assert code == 3


# ---------------------------------------------------------------------------
# metatrain


def test_metatrain_zero_iters_and_round_trip(bench_dir, tmp_path):
    out = tmp_path / "ck.json"
    args = [
        "metatrain",
        "--bench",
        str(bench_dir),
        "--folds",
        "4",
        "--iters",
        "0",
        "--seed",
        "3",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    ck = MetaCheckpoint.load(out)
    again = tmp_path / "ck2.json"
    ck.save(again)
    assert open(out, "rb").read() == open(again, "rb").read()


def test_metatrain_deterministic(bench_dir, tmp_path):
    outs = []
    for run in range(2):
        out = tmp_path / f"ck{run}.json"
        args = [
            "metatrain",
            "--bench",
            str(bench_dir),
            "--folds",
            "4",
            "--iters",
            "10",
            "--eval-every",
            "5",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
        assert main(args) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "flag, named",
    [
        (["--val-fold", "7"], "--val-fold"),
        (["--eval-every", "0"], "eval_every (--eval-every)"),
        (["--batch", "0"], "batch_size (--batch)"),
        (["--dt", "0"], "dt (--dt)"),
        (["--lr", "nan"], "lr (--lr)"),
        (["--lr", "0"], "lr (--lr)"),
        (["--lr", "inf"], "lr (--lr)"),
    ],
    ids=["val-fold-7", "eval-every-0", "batch-0", "dt-0", "lr-nan", "lr-0", "lr-inf"],
)
def test_metatrain_bad_val_fold(bench_dir, tmp_path, capsys, flag, named):
    args = [
        "metatrain",
        "--bench",
        str(bench_dir),
        "--folds",
        "4",
        "--iters",
        "3",
        "--out",
        str(tmp_path / "x.json"),
        *flag,
    ]
    assert main(args) == 2
    assert f"error: {named}" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_metatrain_divergence_is_a_numeric_failure(bench_dir, tmp_path, capsys):
    out = tmp_path / "x.json"
    args = ["metatrain", "--bench", str(bench_dir), "--folds", "4", "--iters", "5", "--lr", "1e300"]
    assert main([*args, "--out", str(out)]) == 5
    assert "numeric failure: non-finite gradient in" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# tune


def _tune_args(bench_dir, out, dataset="d00", seed="0", extra=()):
    return [
        "tune",
        "--bench",
        str(bench_dir),
        "--dataset",
        dataset,
        "--budget-seconds",
        "60",
        "--fit-steps",
        "4",
        "--seed",
        seed,
        "--out",
        str(out),
        *extra,
    ]


def test_tune_writes_valid_trace(bench_dir, tmp_path):
    out = tmp_path / "trace.json"
    assert main(_tune_args(bench_dir, out)) == 0
    trace = RunTrace.from_json(open(out).read())
    assert trace.method == "tune"
    assert trace.dataset == "d00"
    assert len(trace.steps) >= 1
    payload = json.loads(open(out).read())
    assert list(payload) == [
        "method",
        "dataset",
        "seed",
        "flags",
        "steps",
        "overhead_seconds",
        "exhausted",
    ]


def test_tune_unknown_dataset(bench_dir, tmp_path, capsys):
    code = main(_tune_args(bench_dir, tmp_path / "x.json", dataset="d99"))
    assert code == 2
    assert "--dataset" in capsys.readouterr().err


def test_tune_deterministic(bench_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(_tune_args(bench_dir, a)) == 0
    assert main(_tune_args(bench_dir, b)) == 0
    assert open(a).read() == open(b).read()


def test_tune_ablate_no_meta_ignores_checkpoint(bench_dir, tmp_path):
    ck = tmp_path / "ck.json"
    assert (
        main(
            [
                "metatrain",
                "--bench",
                str(bench_dir),
                "--folds",
                "4",
                "--iters",
                "0",
                "--out",
                str(ck),
            ]
        )
        == 0
    )
    out = tmp_path / "trace.json"
    args = _tune_args(
        bench_dir, out, extra=["--checkpoint", str(ck), "--ablate", "no-meta", "no-cost"]
    )
    assert main(args) == 0
    trace = json.load(open(out))
    assert trace["flags"]["use_meta"] is False
    assert trace["flags"]["use_cost"] is False
    assert trace["flags"]["checkpoint"] is None


def test_tune_with_checkpoint_enables_meta(bench_dir, tmp_path):
    ck = tmp_path / "ck.json"
    main(
        [
            "metatrain",
            "--bench",
            str(bench_dir),
            "--folds",
            "4",
            "--iters",
            "0",
            "--out",
            str(ck),
        ]
    )
    out = tmp_path / "trace.json"
    assert main(_tune_args(bench_dir, out, extra=["--checkpoint", str(ck)])) == 0
    trace = json.load(open(out))
    assert trace["flags"]["use_meta"] is True


def test_tune_refit_period_reaches_trace_flags(bench_dir, tmp_path):
    out = tmp_path / "trace.json"
    assert main(_tune_args(bench_dir, out, extra=["--refit-period", "5"])) == 0
    assert json.load(open(out))["flags"]["refit_period"] == 5
    default = tmp_path / "default.json"
    assert main(_tune_args(bench_dir, default)) == 0
    assert json.load(open(default))["flags"]["refit_period"] == 1
    assert main(_tune_args(bench_dir, tmp_path / "bad.json", extra=["--refit-period", "0"])) == 2


@pytest.mark.parametrize(
    "flag",
    [["--fit-steps", "-3"], ["--fit-window", "0"], ["--dt", "7"]],
    ids=["fit-steps", "fit-window", "dt-past-the-6-epoch-curves"],
)
def test_tune_rejects_negative_fit_steps_and_empty_fit_window(bench_dir, tmp_path, flag):
    out = tmp_path / "bad.json"
    assert main(_tune_args(bench_dir, out, extra=flag)) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "case, named",
    [("missing-block", "cost.head.b"), ("kernel-nan", "kernel.log_nv"), ("kernel-key", "log_nv")],
)
def test_tune_rejects_a_malformed_checkpoint_before_creating_out(bench_dir, tmp_path, capsys, case, named):
    ck = tmp_path / "ck.json"
    assert main(["metatrain", "--bench", str(bench_dir), "--folds", "4", "--iters", "0",
                 "--out", str(ck)]) == 0
    payload = json.load(open(ck))
    if case == "missing-block":
        payload["blocks"] = [b for b in payload["blocks"] if b["name"] != "cost.head.b"]
    elif case == "kernel-nan":
        payload["kernel"]["log_nv"] = float("nan")
    else:
        del payload["kernel"]["log_nv"]
    ck.write_text(json.dumps(payload))
    out = tmp_path / "runs"
    for jobs in ("1", "2"):
        args = _tune_args(bench_dir, out, seed="0,1", extra=["--checkpoint", str(ck), "--jobs", jobs])
        assert main(args) == 2
        assert not out.exists()
        assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--lr", "nan"], ["--max-steps", "0"]], ids=["lr-nan", "max-steps-0"]
)
def test_tune_rejects_nan_lr_and_zero_max_steps(bench_dir, tmp_path, flag):
    out = tmp_path / "bad.json"
    assert main(_tune_args(bench_dir, out, extra=flag)) == 2
    assert not out.exists()


def test_tune_grid_rejects_bad_settings_before_creating_out(bench_dir, tmp_path):
    out = tmp_path / "runs"
    args = _tune_args(bench_dir, out, seed="1,2", extra=["--fit-steps", "-3"])
    assert main(args) == 2
    assert not out.exists()


def test_tune_grid_writes_one_file_per_run(bench_dir, tmp_path):
    out = tmp_path / "runs"
    args = _tune_args(bench_dir, out, dataset="d00,d01", seed="0,1")
    assert main(args) == 0
    names = sorted(os.listdir(out))
    assert names == [
        "tune_d00_s0.json",
        "tune_d00_s1.json",
        "tune_d01_s0.json",
        "tune_d01_s1.json",
    ]


def test_tune_bad_ablation_flag(bench_dir, tmp_path):
    args = _tune_args(bench_dir, tmp_path / "x.json", extra=["--ablate", "nonsense"])
    assert main(args) == 2


# ---------------------------------------------------------------------------
# baseline


def _baseline_args(bench_dir, out, method="random", extra=()):
    return [
        "baseline",
        "--method",
        method,
        "--bench",
        str(bench_dir),
        "--dataset",
        "d00",
        "--budget-seconds",
        "60",
        "--seed",
        "0",
        "--out",
        str(out),
        *extra,
    ]


def test_baseline_unknown_method(bench_dir, tmp_path, capsys):
    code = main(_baseline_args(bench_dir, tmp_path / "x.json", method="annealing"))
    assert code == 2
    assert "--method" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["random", "gp-full"])
def test_baseline_rejects_zero_max_steps(bench_dir, tmp_path, method):
    out = tmp_path / "bad.json"
    assert main(_baseline_args(bench_dir, out, method=method, extra=["--max-steps", "0"])) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "method, flag, value",
    [("random", "--max-steps", "0"), ("gp-full", "--fit-steps", "-3"), ("sha", "--r-min", "0"),
     ("sha", "--r-min", "7")],
    ids=["random-max-steps-0", "gp-full-fit-steps-negative", "sha-r-min-0", "sha-r-min-past-horizon"],
)
def test_baseline_grid_rejects_bad_settings_before_creating_out(bench_dir, tmp_path, method, flag, value):
    out = tmp_path / "runs"
    args = _baseline_args(bench_dir, out, method=method, extra=[flag, value])
    args[args.index("--seed") + 1] = "1,2"
    assert main(args) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "method, flag, value",
    [
        ("sha", "--max-steps", "3"),
        ("sha", "--fit-steps", "3"),
        ("sha", "--lr", "1e-3"),
        ("random", "--eta", "2"),
        ("random", "--r-min", "1"),
        ("random", "--fit-steps", "3"),
        ("random", "--lr", "1e-3"),
        ("gp-full", "--eta", "2"),
        ("gp-full", "--r-min", "1"),
    ],
)
def test_baseline_rejects_flags_its_method_ignores(bench_dir, tmp_path, capsys, method, flag, value):
    out = tmp_path / "bad.json"
    assert main(_baseline_args(bench_dir, out, method=method, extra=[flag, value])) == 2
    assert not out.exists()
    assert f"{flag} does not apply to --method {method}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "method, extra",
    [
        ("random", ["--max-steps", "50", "--jobs", "2"]),
        ("gp-full", ["--fit-steps", "3", "--max-steps", "3", "--jobs", "2"]),
        ("sha", ["--eta", "2", "--r-min", "2"]),
    ],
)
def test_baseline_accepts_the_flags_its_method_reads(bench_dir, tmp_path, method, extra):
    # random and gp-full: the baseline commands of perfbench's grid workload
    runs = tmp_path / "runs"
    args = _baseline_args(bench_dir, runs, method=method, extra=extra)
    args[args.index("--seed") + 1] = "0,1"
    assert main(args) == 0
    assert sorted(os.listdir(runs)) == [f"{method}_d00_s0.json", f"{method}_d00_s1.json"]


def test_baseline_random_deterministic(bench_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(_baseline_args(bench_dir, a)) == 0
    assert main(_baseline_args(bench_dir, b)) == 0
    assert open(a).read() == open(b).read()


def test_baseline_sha_honors_eta(bench_dir, tmp_path):
    out = tmp_path / "sha.json"
    args = _baseline_args(bench_dir, out, method="sha", extra=["--eta", "2"])
    assert main(args) == 0
    trace = json.load(open(out))
    assert trace["flags"]["eta"] == 2
    # rung sizes follow eta=2: 4 configs at rung 1, 2 at rung 2, 1 at rung 4
    first_rung = [s for s in trace["steps"][:4]]
    assert len({s["pipeline"] for s in first_rung}) == 4


def test_baseline_gp_full(bench_dir, tmp_path):
    out = tmp_path / "gp.json"
    args = _baseline_args(bench_dir, out, method="gp-full", extra=["--fit-steps", "3"])
    assert main(args) == 0
    trace = json.load(open(out))
    assert all(s["epoch"] == 6 for s in trace["steps"])


# ---------------------------------------------------------------------------
# tune and baseline: inputs that would run nothing, one load per command


@pytest.mark.parametrize("command", ["tune", "baseline"])
@pytest.mark.parametrize(
    "flag, value",
    [("--seed", ","), ("--dataset", ","), ("--jobs", "0"), ("--jobs", "-2")],
    ids=["seed-empty", "dataset-empty", "jobs-0", "jobs-negative"],
)
def test_grid_commands_reject_inputs_that_run_nothing(bench_dir, tmp_path, capsys, command, flag, value):
    out = tmp_path / "runs"
    make = _tune_args if command == "tune" else _baseline_args
    args = make(bench_dir, out)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    assert main(args) == 2
    assert not out.exists()
    assert flag in capsys.readouterr().err


@pytest.fixture()
def tiny_bench_dir(tiny_bench, small_space, tmp_path):
    out = tmp_path / "tiny"
    out.mkdir()
    save_space(small_space, out / "space.json")
    benchtab.save_metadataset(tiny_bench.md, small_space, out)
    return out


@pytest.mark.parametrize("command", ["tune", "baseline"])
def test_grid_commands_load_the_table_once(tiny_bench, tiny_bench_dir, tmp_path, monkeypatch, command):
    calls = []
    load = benchtab.load_metadataset

    def counting_load(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(benchtab, "load_metadataset", counting_load)
    make = _tune_args if command == "tune" else _baseline_args
    args = make(tiny_bench_dir, tmp_path / "runs")
    args[args.index("--dataset") + 1] = tiny_bench.dataset_ids[0]
    args[args.index("--seed") + 1] = "1,2"
    assert main(args) == 0
    assert len(os.listdir(tmp_path / "runs")) == 2
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["tune", "baseline"])
def test_fork_workers_write_the_traces_a_single_process_writes(bench_dir, tmp_path, command):
    if command == "tune":
        ck = tmp_path / "ck.json"
        assert main(["metatrain", "--bench", str(bench_dir), "--folds", "4", "--iters", "3",
                     "--out", str(ck)]) == 0
        extra = ["--checkpoint", str(ck)]  # the checkpoint reaches workers pickled too
    else:
        extra = ["--max-steps", "30"]
    make = _tune_args if command == "tune" else _baseline_args
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"runs{jobs}"
        args = make(bench_dir, outs[jobs], extra=[*extra, "--jobs", jobs])
        args[args.index("--dataset") + 1] = "d00,d01"
        args[args.index("--seed") + 1] = "0,1"
        assert main(args) == 0
    names = sorted(os.listdir(outs["1"]))
    assert len(names) == 4 and names == sorted(os.listdir(outs["2"]))
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


class _FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_keep_heap_top_sets_glibc_top_pad():
    mallopt = _FakeMallopt()
    surrogate.keep_heap_top(types.SimpleNamespace(mallopt=mallopt))
    assert mallopt.calls == [(-2, 64 << 20)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def test_keep_heap_top_without_mallopt_does_nothing():
    surrogate.keep_heap_top(object())  # a C library without the symbol


def test_import_keeps_the_heap_top_once():
    """``import graybo`` sets the pad once, before any CLI call; importing
    the CLI afterwards does not set it again."""
    script = textwrap.dedent(
        """
        import ctypes

        calls = []
        real_cdll = ctypes.CDLL


        class Libc:
            def __init__(self, lib):
                self.lib = lib

            def __getattr__(self, name):
                if name != "mallopt":
                    return getattr(self.lib, name)

                def mallopt(param, value):
                    calls.append((param, value))
                    return 1

                return mallopt


        def spy(name, *args, **kwargs):
            lib = real_cdll(name, *args, **kwargs)
            return Libc(lib) if name is None else lib


        ctypes.CDLL = spy
        import graybo
        import graybo.cli
        print(calls)
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([(-2, 64 << 20)])


# ---------------------------------------------------------------------------
# report


def test_report_empty_runs_dir(bench_dir, tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    code = main(
        ["report", "--runs", str(runs), "--bench", str(bench_dir), "--out", str(tmp_path / "rep")]
    )
    assert code == 4
    assert "no results" in capsys.readouterr().err


def test_report_end_to_end(bench_dir, tmp_path):
    runs = tmp_path / "runs"
    assert main(_tune_args(bench_dir, runs, dataset="d00,d01", seed="0")) == 0
    for method in ("random", "sha"):
        args = [
            "baseline",
            "--method",
            method,
            "--bench",
            str(bench_dir),
            "--dataset",
            "d00,d01",
            "--budget-seconds",
            "60",
            "--seed",
            "0",
            "--out",
            str(runs),
        ]
        assert main(args) == 0
    rep = tmp_path / "rep"
    assert main(["report", "--runs", str(runs), "--bench", str(bench_dir), "--out", str(rep)]) == 0
    lines = open(rep / "ranks.csv").read().splitlines()
    means = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(means) == 3
    assert sum(means) / len(means) == pytest.approx((len(means) + 1) / 2)
    # rerun is byte-identical
    rep2 = tmp_path / "rep2"
    assert main(["report", "--runs", str(runs), "--bench", str(bench_dir), "--out", str(rep2)]) == 0
    for name in ("results.csv", "ranks.csv", "regret_curves.csv"):
        assert open(rep / name).read() == open(rep2 / name).read()


# ---------------------------------------------------------------------------
# process-level smoke


def test_module_entrypoint_smoke(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "graybo", "--help"],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "report" in proc.stdout


def test_usage_error_exit_code():
    assert main(["gen"]) == 2  # missing required --out
