"""Every name a module imports is used in that module, and every name the
benchmark harness reaches into exists.

No linter is a test dependency, so this is a small ``ast`` check over the
package modules (``__init__`` re-exports by design), the scripts and the
tests.
"""

import ast
import glob
import importlib
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
MODULES = sorted(
    [p for p in glob.glob(os.path.join(ROOT, "src", "klshell", "*.py"))
     if os.path.basename(p) != "__init__.py"]
    + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
    + glob.glob(os.path.join(ROOT, "tests", "*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as f:
        assert unused_imports(f.read()) == []


def test_check_catches_an_unused_import():
    source = ("import io\nfrom itertools import islice\n"
              "from .cases import solve_case  # noqa: F401\n"
              "from .nurbs import find_spans, insert_knots\n"
              "x = find_spans\n")
    assert unused_imports(source) == ["insert_knots (line 4)", "io (line 1)",
                                      "islice (line 2)", "solve_case (line 3)"]


def traced_names():
    """(module, attr) of every ``Target`` in perfbench/tracer.py, read from
    its source, and the ``klshell.cli`` names the harness self-test calls."""
    with open(os.path.join(ROOT, "perfbench", "tracer.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    targets = [tuple(arg.value for arg in node.args[1:3]) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "Target"]
    return targets + [("klshell.cli", "make_case"), ("klshell.cli", "solve_case")]


def test_harness_targets_are_read():
    assert len(traced_names()) >= 15


@pytest.mark.parametrize("module,attr", traced_names(),
                         ids=[f"{m}.{a}" for m, a in traced_names()])
def test_traced_name_resolves(module, attr):
    """A missing name would only print "not traced" during a traced run."""
    assert hasattr(importlib.import_module(module), attr)
