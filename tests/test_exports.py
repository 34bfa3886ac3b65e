"""The package's exports: every name __init__ takes from a module is public there."""

import ast
import importlib
from pathlib import Path

import dipolariton


def _exports() -> list[tuple[str, str]]:
    """(module, name) of each name that dipolariton/__init__.py imports from a submodule."""
    tree = ast.parse(Path(dipolariton.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


def test_every_package_export_is_in_its_module_all():
    exports = _exports()
    assert len(exports) > 50
    missing = [f"{module}.{name}" for module, name in exports
               if name not in importlib.import_module(f"dipolariton.{module}").__all__]
    assert missing == []
