"""Package surface: every exported and imported name resolves, including
the names the benchmark's traced replay patches and calls."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import sqrtwiener
import sqrtwiener.cli

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


@pytest.mark.parametrize("name", [m for m in MODULES if m != "sqrtwiener.paths"])
def test_only_paths_runs_work_on_threads(name):
    # paths.Helper is the one way to hand work to another thread: any other
    # module that wants one uses it
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert "queue" not in {a.name for a in node.names}, f"{name} imports queue"
        elif isinstance(node, ast.ImportFrom) and not node.level:
            assert node.module != "queue", f"{name} imports from queue"
            if node.module == "threading":
                assert "Thread" not in {a.name for a in node.names}, f"{name} imports Thread"
        elif isinstance(node, ast.Attribute) and node.attr == "Thread":
            assert not (isinstance(node.value, ast.Name) and node.value.id == "threading"), (
                f"{name} uses threading.Thread"
            )


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

    # the CSV replay calls process.ensemble_to_csv(ensemble, path, max_paths,
    # header_lines) positionally and reports process.csv_rows from its return
    # value (tests/test_process.py checks that value against the file)
    csv_calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "ensemble_to_csv"
    ]
    assert len(csv_calls) == 1
    call = csv_calls[0]
    bound = inspect.signature(sqrtwiener.process.ensemble_to_csv).bind(
        *call.args, **{kw.arg: kw.value for kw in call.keywords}
    )
    assert list(bound.arguments) == ["ensemble", "path", "max_paths", "header_lines"], (
        ast.unparse(call)
    )


@pytest.mark.parametrize("command", ["table1", "kernels", "simulate"])
def test_the_replay_layers_run_on_the_thread_that_calls_main(tmp_path, monkeypatch, command):
    # the replay's tracer keeps one stack of open spans: every function it
    # spans must run on the thread that called main, whatever helper threads
    # the subcommand starts
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for entry in _assigned(ast.parse(REPLAY.read_text()), "CLI_LAYERS").elts:
        module = importlib.import_module(f"sqrtwiener.{entry.elts[0].id}")
        name = entry.elts[1].value
        original = getattr(module, name)
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("sqrtwiener") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, recording(name, original))

    out = tmp_path / "out"
    assert sqrtwiener.cli.main([command, "--paths", "40", "--steps", "16", "--output", str(out)]) == 0
    names = [name for name, _ in calls]
    assert names.count("ensemble_digest") == (2 if command == "table1" else 1)
    assert {ident for _, ident in calls} == {threading.get_ident()}, calls


def test_fp_evolve_keeps_the_parameters_the_replay_reads():
    # the replay notes args["n_steps"] of each traced fp_evolve call, bound
    # by name: a renamed parameter must fail here rather than only in a
    # traced benchmark run, and a parameter added after it needs a default
    assert 'args["n_steps"]' in REPLAY.read_text()
    params = list(inspect.signature(sqrtwiener.kernels.fp_evolve).parameters.values())
    assert [q.name for q in params[:4]] == ["initial", "p", "dt", "n_steps"]
    assert params[3].default is inspect.Parameter.empty
    for q in params[4:]:
        assert q.default is not inspect.Parameter.empty, f"fp_evolve's {q.name} has no default"


SCIPY_MODULES = ("scipy.linalg", "scipy.special", "scipy.optimize")


def _scipy_modules_loaded(argv: list[str]) -> set[str]:
    """Which of SCIPY_MODULES a fresh process has loaded after importing the
    CLI and, given argv, running it (the last line of its stdout)."""
    src = str(Path(sqrtwiener.__file__).resolve().parents[1])
    code = (
        "import sys, sqrtwiener.cli\n"
        "if sys.argv[1:]:\n"
        "    assert sqrtwiener.cli.main(sys.argv[1:]) == 0\n"
        f"print(*[m for m in {SCIPY_MODULES!r} if m in sys.modules])"
    )
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                            text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    return set(result.stdout.splitlines()[-1].split())


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the Gaussian fits use scipy.optimize, only the draws scipy.special
    # and only the Crank-Nicolson solves scipy.linalg; each imports its own
    assert _scipy_modules_loaded([]) == set()


@pytest.mark.parametrize("argv, unloaded", [
    (["simulate", "--paths", "3", "--steps", "4"], {"scipy.linalg", "scipy.optimize"}),
    (["table1", "--paths", "3", "--steps", "4"], {"scipy.linalg", "scipy.optimize"}),
    (["fpsolve", "--grid-points", "256"], {"scipy.special", "scipy.optimize"}),
], ids=["simulate", "table1", "fpsolve"])
def test_subcommand_leaves_the_scipy_modules_it_never_calls_unloaded(tmp_path, argv, unloaded):
    loaded = _scipy_modules_loaded([*argv, "--output", str(tmp_path / "out")])
    assert loaded == set(SCIPY_MODULES) - unloaded
