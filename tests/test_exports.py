import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jcentropy

MODULES = ["jcentropy"] + [
    f"jcentropy.{info.name}" for info in pkgutil.iter_modules(jcentropy.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"


def test_package_imports_resolve_to_their_modules():
    tree = ast.parse(Path(jcentropy.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"jcentropy.{module}")
        assert getattr(jcentropy, name) is getattr(source, name), f"jcentropy.{name}"
