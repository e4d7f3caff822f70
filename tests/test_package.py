"""Package surface: every exported and imported name resolves, including
the names the benchmark's traced replay patches and calls."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sqrtwiener

MODULES = ["sqrtwiener"] + [
    f"sqrtwiener.{m.name}" for m in pkgutil.iter_modules(sqrtwiener.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_and_imported_name_resolves(name):
    module = importlib.import_module(name)
    for exported in getattr(module, "__all__", ()):
        assert hasattr(module, exported), f"{name}.__all__ names missing {exported!r}"
    # names taken from sibling modules, read from the source so that a name
    # bound some other way cannot hide a stale import
    package = name if name == "sqrtwiener" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(open(module.__file__).read())):
        if isinstance(node, ast.ImportFrom) and node.level:
            source = importlib.import_module(
                "." * node.level + (node.module or ""), package
            )
            for alias in node.names:
                assert hasattr(source, alias.name), (
                    f"{name} imports {alias.name!r}, which {source.__name__} lacks"
                )


@pytest.mark.parametrize("name", MODULES)
def test_no_module_starts_worker_processes(name):
    # draws run in the calling process: a worker pool never beat serial
    # drawing in the benchmark, so another draw path must come with a
    # benchmark that shows it winning
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module)
    pools = {m for m in imported if m.partition(".")[0] in ("concurrent", "multiprocessing")}
    assert not pools, f"{name} imports {sorted(pools)}"


REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{REPLAY.name} no longer assigns {name}")


def test_benchmark_replay_names_resolve():
    # read as source, not imported: the replay patches (module, name) pairs
    # of the package, so a renamed layer must fail here rather than only in
    # a traced benchmark run
    tree = ast.parse(REPLAY.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sqrtwiener"):
            source = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(source, alias.name), f"{node.module} lacks {alias.name!r}"
                if isinstance(getattr(source, alias.name), types.ModuleType):
                    modules[alias.asname or alias.name] = getattr(source, alias.name)

    layers = _assigned(tree, "CLI_LAYERS").elts
    assert layers
    for entry in layers:
        module, attr = entry.elts[0].id, entry.elts[1].value
        assert hasattr(modules[module], attr), f"CLI_LAYERS names missing {module}.{attr}"

    # every module.attr the replay reads, the FUNCTIONS targets among them
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                assert hasattr(modules[node.value.id], node.attr), (
                    f"{REPLAY.name} reads missing {node.value.id}.{node.attr}"
                )

    # the replay calls each FUNCTIONS target again with the keywords it adds
    # to the traced arguments (dict(args, workers=1))
    extra = {
        kw.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
        for kw in node.keywords
    }
    functions = _assigned(tree, "FUNCTIONS").values
    assert functions
    for target in functions:
        fn = getattr(modules[target.value.id], target.attr)
        assert extra <= set(inspect.signature(fn).parameters), (
            f"{target.value.id}.{target.attr} does not accept {sorted(extra)}"
        )

    # the per-path replay calls phi_half(w) and step(dw, dt, params, phi), step
    # being either square-root step: a parameter added without a default must
    # fail here rather than only in a traced benchmark run
    calls = {
        node.func.id: node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("phi_half", "step")
    }
    assert set(calls) == {"phi_half", "step"}
    targets = {"phi_half": [sqrtwiener.phi_half],
               "step": [sqrtwiener.sqrt_step_drifted, sqrtwiener.sqrt_step_scalar]}
    shapes = {"phi_half": 1, "step": 4}
    for name, call in calls.items():
        assert len(call.args) == shapes[name] and not call.keywords, ast.unparse(call)
        for fn in targets[name]:
            inspect.signature(fn).bind(*call.args)  # raises TypeError on a mismatch


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the Gaussian fits use scipy.optimize, and they import it themselves
    src = str(Path(sqrtwiener.__file__).resolve().parents[1])
    code = "import sys, sqrtwiener.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.strip() == "False"
