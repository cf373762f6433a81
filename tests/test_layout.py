"""Source hygiene: every module in ``src/graybo`` uses each name it imports,
and none imports ``scipy.stats`` (~0.5–0.9 s of every command's start-up) when
it is imported."""

import ast
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
        print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
