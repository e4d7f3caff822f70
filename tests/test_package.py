"""Package surface: every exported and imported name resolves."""

import ast
import importlib
import pkgutil

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
