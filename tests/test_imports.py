"""Every import in the package modules is used, and so is every private
top-level name; every public name resolves, on first use, to its module's
object and has its row in the README; no module imports SciPy, and the
paths that build matrices run with SciPy blocked; the size and cost rules
live in `generator` alone, so that the eigensolvers of `_symeig` import
nothing of the package but its errors; no module names ``numpy.random``,
the SplitMix64 constants live in `_symeig` alone, and no command loads
``numpy.random``, nor ``fractions`` past the exact Clopper-Pearson range;
and the report writer `_report` imports only ``csv``,
``io`` and ``json``, so that importing the CLI loads neither
``dataclasses``, ``numbers`` nor NumPy."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import ctmcgap
from conftest import ring_with_chords, write_model

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


def _nodes_with_home(source):
    """``(node, home)`` for every node of a module but its function and
    class definitions; `home` is the dotted name of the functions and
    classes around the node, "" at the top level."""
    def visit(node, home):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, f"{home}.{child.name}".lstrip("."))
                continue
            yield child, home
            yield from visit(child, home)

    return list(visit(ast.parse(source), ""))


def _scipy_anywhere(source):
    """``(line, home)`` of every import of SciPy in a module, function
    bodies included, `home` as `_nodes_with_home` gives it."""
    found = []
    for node, home in _nodes_with_home(source):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append((node.lineno, home))
    return sorted(found)


# every module of the package, with no exception
@pytest.mark.parametrize("name", sorted(
    p.stem for p in pathlib.Path(ctmcgap.__file__).parent.glob("*.py")))
def test_verify_modules_import_no_scipy_at_all(name):
    path = pathlib.Path(ctmcgap.__file__).parent / f"{name}.py"
    assert _scipy_anywhere(path.read_text(encoding="utf-8")) == []


def test_symmetrized_forms_and_dense_gap_run_with_scipy_blocked():
    # with sys.modules["scipy"] = None any import of SciPy raises
    src = os.path.dirname(os.path.dirname(ctmcgap.__file__))
    code = ("import sys\nsys.modules['scipy'] = None\n"
            "from ctmcgap import (additive_symmetrization, build_three_state,"
            " spectral_gap, symmetrized_form)\n"
            "Q, pi = build_three_state(), [1 / 3, 1 / 9, 5 / 9]\n"
            "S, sq = symmetrized_form(Q, pi)\n"
            "print(type(S).__module__, S.nnz, type(sq).__module__,"
            " additive_symmetrization(Q, pi).nnz,"
            " spectral_gap(Q, method='dense').method)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ctmcgap.generator", "9", "numpy", "9",
                                  "dense"]


def test_scipy_anywhere_is_caught():
    source = ("import numpy\ndef f():\n    from scipy.special import x\n"
              "    import scipy.stats as st\n"
              "class A:\n    def g(self):\n        if True:\n"
              "            import scipy.sparse\n"
              "import scipy\n")
    assert _scipy_anywhere(source) == [(3, "f"), (4, "f"), (8, "A.g"),
                                       (9, "")]


def _law_records_and_routes(source):
    """``(home, what)``, `home` as `_nodes_with_home` gives it, for each
    import of ``_check_stationary``, each assignment to a ``_checked_law``
    attribute, and each call of ``deflated_extremal`` that names its
    route with ``method=``."""
    found = []
    for node, home in _nodes_with_home(source):
        if isinstance(node, ast.ImportFrom):
            found += [(home, alias.name) for alias in node.names
                      if alias.name == "_check_stationary"]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found += [(home, "_checked_law") for target in targets
                      for t in ast.walk(target)
                      if getattr(t, "attr", None) == "_checked_law"]
        elif isinstance(node, ast.Call) and "deflated_extremal" in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None)):
            found += [(home, "method=") for k in node.keywords
                      if k.arg == "method"]
    return sorted(found)


def test_a_law_is_checked_and_recorded_in_generator_alone():
    # _stationary_law checks a law and records it; the eigensolver takes
    # its route from its operand and budget, so no caller names one
    found = {p.stem: _law_records_and_routes(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert found.pop("generator") == [("GeneratorMatrix._init",
                                       "_checked_law"),
                                      ("_stationary_law", "_checked_law")]
    assert not any(found.values()), found


def test_law_records_and_routes_are_caught():
    source = ("from .generator import _check_stationary as check\n"
              "class C:\n    def f(self, Q, R):\n"
              "        Q._checked_law, n = None, 0\n"
              "        R._checked_law: object = None\n"
              "def g(A, v):\n"
              "    return _symeig.deflated_extremal(A, v, True, method='x')\n"
              "deflated_extremal(A, v, True, budget=0)\n")
    assert _law_records_and_routes(source) == [
        ("", "_check_stationary"), ("C.f", "_checked_law"),
        ("C.f", "_checked_law"), ("g", "method=")]


def test_only_the_cli_imports_gc():
    # the process entry alone turns the cyclic collector off; library
    # callers, and `main` in-process, keep it
    users = []
    for path in pathlib.Path(ctmcgap.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            if "gc" in names:
                users.append(path.name)
    assert users == ["cli.py"]


def _package_imports(source):
    """The package modules a module imports, by full dotted name, whether
    relatively or by name (``from .errors import E``: ctmcgap.errors)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("ctmcgap." if node.level else "") + (node.module or "")
            module = module.rstrip(".")
            names = ([f"{module}.{alias.name}" for alias in node.names]
                     if module == "ctmcgap" else [module])
        else:
            continue
        found.update(name for name in names
                     if name.split(".")[0] == "ctmcgap")
    return found


def test_symeig_imports_only_the_errors_of_the_package():
    path = pathlib.Path(ctmcgap.__file__).parent / "_symeig.py"
    assert _package_imports(path.read_text(encoding="utf-8")) \
        == {"ctmcgap.errors"}


def test_package_import_is_caught():
    source = ("import numpy\nfrom .errors import E\nfrom . import spectral\n"
              "import ctmcgap.bounds\nfrom ctmcgap import skeleton\n"
              "from ctmcgap.generator import DENSE_SOLVE_CUTOFF\n")
    assert _package_imports(source) == {
        "ctmcgap.errors", "ctmcgap.spectral", "ctmcgap.bounds",
        "ctmcgap.skeleton", "ctmcgap.generator"}


def _size_rules(sources):
    """(module, name) of each size rule defined anywhere: a name assigned
    whose name holds CUTOFF, or a function whose name holds "cost"."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and "cost" in node.name:
                found.add((module, node.name))
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            found.update((module, t.id) for t in targets
                         if isinstance(t, ast.Name) and "CUTOFF" in t.id)
    return sorted(found)


def test_size_rules_are_defined_in_generator_alone():
    # the dense cap and the one cost rule that budgets both hand-offs
    package = pathlib.Path(ctmcgap.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(package.glob("*.py"))}
    assert _size_rules(sources) == [("generator.py", "DENSE_SOLVE_CUTOFF"),
                                    ("generator.py", "_dense_cost_in_steps")]


def test_stray_size_constant_is_caught():
    sources = {"generator.py": "DENSE_SOLVE_CUTOFF = 4096\n",
               "_symeig.py": ("from .generator import DENSE_SOLVE_CUTOFF\n"
                              "class A:\n    DENSE_CUTOFF: int = 500\n"
                              "    def _lanczos_cost(self):\n"
                              "        return 1\n")}
    assert _size_rules(sources) == [("_symeig.py", "DENSE_CUTOFF"),
                                    ("_symeig.py", "_lanczos_cost"),
                                    ("generator.py", "DENSE_SOLVE_CUTOFF")]


_SPLITMIX64_CONSTANTS = {0x9E3779B97F4A7C15: "golden gamma",
                         0xBF58476D1CE4E5B9: "first multiplier",
                         0x94D049BB133111EB: "second multiplier"}


def _random_sources(sources):
    """(module, what) for each use of ``numpy.random`` (named through
    ``np`` or ``numpy``, or imported) and each SplitMix64 constant."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and node.attr == "random" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy"):
                found.add((module, "numpy.random"))
            elif isinstance(node, ast.Import) and any(
                    a.name.startswith("numpy.random") for a in node.names):
                found.add((module, "numpy.random"))
            elif isinstance(node, ast.ImportFrom) and (
                    (node.module or "").startswith("numpy.random")
                    or node.module == "numpy"
                    and any(a.name == "random" for a in node.names)):
                found.add((module, "numpy.random"))
            elif isinstance(node, ast.Constant) \
                    and type(node.value) is int \
                    and node.value in _SPLITMIX64_CONSTANTS:
                found.add((module, _SPLITMIX64_CONSTANTS[node.value]))
    return sorted(found)


def test_random_numbers_come_from_the_one_splitmix64():
    package = pathlib.Path(ctmcgap.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(package.glob("*.py"))}
    assert _random_sources(sources) == [
        ("_symeig.py", name) for name in sorted(
            _SPLITMIX64_CONSTANTS.values())]


def test_random_sources_are_caught():
    sources = {"a.py": "import numpy as np\nx = np.random.Philox(0)\n",
               "b.py": "from numpy.random import Generator\n",
               "c.py": "import numpy.random\n",
               "d.py": "from numpy import random\n",
               "e.py": "def f():\n    return 0x9E3779B97F4A7C15 * 2\n",
               "f.py": "import numpy as np\nx = np.uint64(0)\n"}
    assert _random_sources(sources) == [
        ("a.py", "numpy.random"), ("b.py", "numpy.random"),
        ("c.py", "numpy.random"), ("d.py", "numpy.random"),
        ("e.py", "golden gamma")]


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


def test_public_names_are_their_modules_objects():
    for name in ctmcgap.__all__:
        obj = getattr(ctmcgap, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("ctmcgap.")
        assert getattr(home, name) is obj
        # the import hook itself, not only the value it cached
        assert ctmcgap.__getattr__(name) is obj
        namespace = {}
        exec(f"from ctmcgap import {name}", namespace)
        assert namespace[name] is obj


def test_dir_lists_the_public_names():
    listed = dir(ctmcgap)
    assert "__all__" in listed and set(ctmcgap.__all__) <= set(listed)


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        ctmcgap.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from ctmcgap import no_such_name", {})
    namespace = {}
    exec("from ctmcgap import _symeig", namespace)
    assert namespace["_symeig"] is sys.modules["ctmcgap._symeig"]


def test_a_public_name_loads_its_module_on_first_access():
    src = os.path.dirname(os.path.dirname(ctmcgap.__file__))
    probe = ("('spectral_gap' in vars(ctmcgap), "
             "'ctmcgap.spectral' in sys.modules)")
    code = (f"import sys, ctmcgap; before = {probe}; ctmcgap.spectral_gap; "
            f"print(before + {probe})")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "(False, False, True, True)"


def _loaded_after(argv, modules):
    """Which of `modules` are in ``sys.modules`` after ``main(argv)``
    returns 0 in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(ctmcgap.__file__))
    code = ("import sys\nfrom ctmcgap.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"print([m for m in {modules!r} if m in sys.modules], "
            "file=sys.stderr)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return run.stderr.strip()


def test_no_command_loads_numpy_random(tmp_path):
    # start vectors and walks alike hash SplitMix64 counters in NumPy
    # array arithmetic.  The chain is past the cost rule's floor: Lanczos
    # and the pi iteration both run
    A = ring_with_chords(300, False, 1)
    pi = ctmcgap.stationary_distribution(ctmcgap.GeneratorMatrix(A))
    assert pi.solver == "iteration"
    assert ctmcgap.spectral_gap(ctmcgap.GeneratorMatrix(A),
                                pi).method == "lanczos"
    model = write_model(tmp_path / "ring.json", A)
    for argv in (["gap", "--model", model],
                 ["skeleton", "--model", model],
                 ["sweep", "--bd", "2", "1", "inf", "--sizes", "50,100"],
                 ["verify", "--example", "three-state", "--reps", "10"]):
        assert _loaded_after(argv, ["numpy.random"]) == "[]", argv


def test_verify_past_the_exact_range_loads_no_fractions_or_decimal():
    # up to 300 replications the Clopper-Pearson limits are settled in
    # rational arithmetic, which loads fractions and with it decimal
    argv = ["verify", "--bd", "2", "1", "30", "--t", "5", "--eps", "0.1",
            "--reps", "400"]
    assert _loaded_after(argv, ["fractions", "decimal"]) == "[]"
    assert _loaded_after(argv[:-1] + ["300"], ["fractions", "decimal"]) \
        == "['fractions', 'decimal']"


def _all_imports(source):
    """Top-level names of every module a source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found.add("." * node.level + (node.module or "").split(".")[0])
    return found


def test_report_imports_only_csv_io_and_json():
    # it reads __dataclass_fields__ and tests numbers by duck typing
    path = pathlib.Path(ctmcgap.__file__).parent / "_report.py"
    assert _all_imports(path.read_text(encoding="utf-8")) \
        == {"csv", "io", "json"}


def test_all_imports_is_caught():
    source = ("from __future__ import annotations\nimport csv, os.path\n"
              "def f():\n    from numbers import Real\n"
              "from .errors import E\n")
    assert _all_imports(source) == {"csv", "os", "numbers", ".errors"}


def test_cli_import_loads_no_dataclasses_numbers_or_numpy():
    src = os.path.dirname(os.path.dirname(ctmcgap.__file__))
    code = ("import sys, ctmcgap.cli\nprint([m for m in ('dataclasses', "
            "'numbers', 'numpy') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.strip() == "[]"


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _public_name_rows(text):
    """``(listed, removed)``: the names of the rows of the README's "Public
    names" table, and the names its "Removed:" line gives."""
    section = text.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    removed = section.split("\nRemoved:", 1)[1].split(".", 1)[0]
    return listed, re.findall(r"`(\w+)`", removed)


def test_readme_has_one_row_per_public_name():
    listed, removed = _public_name_rows(README.read_text(encoding="utf-8"))
    assert sorted(listed) == ctmcgap.__all__
    assert removed and not set(removed) & set(dir(ctmcgap))


def test_missing_public_name_row_is_caught():
    text = ("Intro.\n\n## Public names\n\n| Name | Computes |\n"
            "| ---- | ---- |\n| `spectral_gap` | the gap |\n\n"
            "Removed: `old_name`. Text.\n"
            "\n## Next\n| `not_listed` | x |\n")
    assert _public_name_rows(text) == (["spectral_gap"], ["old_name"])
