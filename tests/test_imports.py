"""Every import in the package modules is used, and so is every private
top-level name."""

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


def _private_definitions(source):
    """Top-level private functions, classes and constants, by name."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.update((name, node.lineno) for name in targets
                     if name.startswith("_") and not name.startswith("__"))
    return names


def _references(source):
    """Names a module reads, as a bare name, an attribute or an import."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _dead_private_names(sources):
    """(module, line, name) of each private top-level name no module reads."""
    used = set().union(*(_references(s) for s in sources.values()))
    return sorted((module, line, name)
                  for module, source in sources.items()
                  for name, line in _private_definitions(source).items()
                  if name not in used)


def test_no_dead_private_names():
    package = pathlib.Path(ctmcgap.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(package.glob("*.py"))}
    assert _dead_private_names(sources) == []


def test_dead_private_name_is_caught():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE: int = 4\n"
                 "def _used():\n    return _LIMIT\n"
                 "def _dead():\n    pass\n"
                 "class _Helper:\n    pass\n"),
        "b.py": "from .a import _used\nimport a\na._Helper()\n",
    }
    assert _dead_private_names(sources) == [("a.py", 2, "_SPARE"),
                                            ("a.py", 5, "_dead")]
