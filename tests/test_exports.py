"""The public surface: each submodule's __all__ and the package's re-exports."""

import ast
import importlib
from pathlib import Path

import pytest

import qbmlab

PACKAGE = Path(qbmlab.__file__).parent
SUBMODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_name_in_all_exists(name):
    # a stale entry makes `from qbmlab.<name> import *` raise AttributeError
    module = importlib.import_module(f"qbmlab.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_imports_only_names_in_all():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        public = importlib.import_module(f"qbmlab.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in public] == [], node.module


def _unused_imports(path: Path) -> list:
    """Names a module imports and never reads; __future__ imports and a package's re-exports aside."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if path.name == "__init__.py" and node.level == 1:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert _unused_imports(path) == []
