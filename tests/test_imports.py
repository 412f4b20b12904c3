"""Every import in the package modules is used."""

import ast
import pathlib

import pytest

import ctmcgap

MODULES = sorted(p for p in pathlib.Path(ctmcgap.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "import os\nfrom math import pi, tau\nprint(tau)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "pi")]
