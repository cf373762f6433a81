"""Source hygiene and process set-up: every module in ``src/graybo`` uses
each name it imports, none imports ``scipy.stats`` (~0.5–0.9 s of every
command's start-up) when it is imported, commands that never solve or
score leave ``scipy.linalg`` and ``scipy.special`` unloaded and forking
commands that solve load them before forking, ``import graybo`` keeps the heap
top, so meta-training does not fault its pages back in every iteration,
``PredictorInputs`` is built in ``surrogate.Encodings.inputs`` only,
``RunTrace`` in ``optimizer._RunState.trace`` only, ``ParamVector`` in the
two predictors' constructors only, and the checkpoint format in
``metalearn`` only."""

import ast
import ctypes
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "graybo"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= set(ast.literal_eval(node.value))  # re-exported names
    assert sorted(imported - used) == [], f"{path.name} imports names it never uses"


def _import_time_nodes(tree):
    """Import statements that run when the module is imported: everything
    outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_scipy_stats(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "scipy.stats" or a.name.startswith("scipy.stats.") for a in node.names)
    module = node.module or ""
    if module == "scipy":
        return any(a.name == "stats" for a in node.names)
    return module == "scipy.stats" or module.startswith("scipy.stats.")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_stats_import_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [ast.unparse(n) for n in _import_time_nodes(tree) if _is_scipy_stats(n)]
    assert found == [], f"{path.name} imports scipy.stats at import time; import it in the function"


def test_cli_start_up_and_report_leave_scipy_stats_unloaded(tmp_path):
    script = textwrap.dedent(
        """
        import os, sys
        from graybo.cli import main

        out = sys.argv[1]
        bench, runs = os.path.join(out, "bench"), os.path.join(out, "runs")
        assert main(["gen", "--clusters", "2", "--datasets", "2", "--models", "2",
                     "--configs", "4", "--epochs", "3", "--out", bench]) == 0
        assert main(["baseline", "--method", "random", "--bench", bench, "--dataset", "all",
                     "--budget-seconds", "60", "--seed", "0", "--out", runs]) == 0
        assert main(["report", "--runs", runs, "--bench", bench,
                     "--out", os.path.join(out, "report")]) == 0
        unloaded = ("scipy.stats", "scipy.linalg", "scipy.special")
        print(sorted(m for m in sys.modules if m.startswith(unloaded)))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_forking_commands_load_scipy_before_forking_only_when_they_solve(tmp_path):
    # the random baseline never solves, so its workers need neither LAPACK nor
    # erfc; the gp-full baseline's workers inherit both from the parent, which
    # solves nothing itself
    script = textwrap.dedent(
        """
        import os, sys
        from graybo.cli import main

        out = sys.argv[1]
        bench = os.path.join(out, "bench")
        assert main(["gen", "--clusters", "2", "--datasets", "2", "--models", "2",
                     "--configs", "4", "--epochs", "3", "--out", bench]) == 0
        for method, extra in (("random", []), ("gp-full", ["--fit-steps", "1", "--max-steps", "2"])):
            assert main(["baseline", "--method", method, "--bench", bench, "--dataset", "all",
                         "--budget-seconds", "60", "--seed", "0,1", "--jobs", "2",
                         "--out", os.path.join(out, method)] + extra) == 0
            print(method, "scipy.linalg.lapack" in sys.modules, "scipy.special" in sys.modules)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["random", "False", "False", "gp-full", "True", "True"]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_meta_train_after_import_does_not_refault_the_heap():
    """A warm ``meta_train`` call re-faults freed heap pages on every
    iteration unless the heap top is kept: 20 iterations at batch 64 took
    ~25k minor faults without the pad, and none with it."""
    script = textwrap.dedent(
        """
        import resource
        import graybo
        from graybo import benchtab, metalearn

        space = benchtab.default_search_space(n_models=8)
        cfg = benchtab.GeneratorConfig(n_clusters=2, n_datasets=2, n_models=8,
                                       configs_per_dataset=100, n_epochs=50, seed=0)
        md = benchtab.generate(cfg, space)
        split = metalearn.split_folds(list(md.datasets), k=2, seed=0)

        def faults():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            metalearn.meta_train(md, split, space, iters=20, batch_size=64, eval_every=10)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults()
        print(faults())
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 3000


def _calls_by_function(tree, callee: str):
    """Qualified names of the functions (``Class.method`` for methods) whose
    bodies call ``callee`` by name or attribute; "<module>" for calls at
    module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == callee:
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return found


def test_predictor_inputs_are_gathered_in_one_function():
    # every predictor input row comes from surrogate.Encodings.inputs, so the
    # training, candidate, meta-train and zero-shot rows follow one
    # visibility rule; likewise every trace is built from a run-state's rows
    # in _RunState.trace.  Each predictor builds its one ParamVector: a
    # second vector over the same blocks would re-home them and leave the
    # first, and any Adam holding it, stale.  Another builder fails here
    sole_builders = {
        "PredictorInputs": {"surrogate.Encodings.inputs"},
        "RunTrace": {"optimizer._RunState.trace"},
        "ParamVector": {"surrogate.DeepKernelGP.__init__", "costmodel.CostPredictor.__init__"},
    }
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    for callee, builders in sole_builders.items():
        sites = {f"{stem}.{fn}" for stem, tree in trees.items() for fn in _calls_by_function(tree, callee)}
        assert sites == builders, callee


def test_checkpoint_format_lives_in_metalearn():
    # one module writes and reads the checkpoint: another that spells its
    # format tags or imports base64 holds a second copy of the format
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in ("qtck-1", "qtmeta-1"):
                found.add((path.name, node.value))
            elif isinstance(node, ast.alias) and node.name == "base64" or (
                isinstance(node, ast.ImportFrom) and node.module == "base64"
            ):
                found.add((path.name, "base64"))
    assert {module for module, _ in found} == {"metalearn.py"}, sorted(found)
    assert {name for _, name in found} == {"qtck-1", "qtmeta-1", "base64"}
