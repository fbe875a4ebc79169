"""Every name a module imports is used in that module, every function,
class and method of the package is named by the package or the scripts,
and every name the benchmark harness reaches into exists.

No linter is a test dependency, so these are small ``ast`` checks over the
package modules (``__init__`` re-exports by design), the scripts and the
tests.
"""

import ast
import collections
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


def names_in(tree) -> collections.Counter:
    """How often each name is read in an ``ast`` subtree: as a name, as an
    attribute, or imported from a module."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def attribute_reads(tree) -> collections.Counter:
    """How often each name is read as an attribute, ``x.name``, in an
    ``ast`` subtree."""
    return collections.Counter(node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)
                               and isinstance(node.ctx, ast.Load))


def definitions(tree):
    """The top-level functions and classes of a module, with ``names_in``,
    and the methods and properties of its classes, dunders left out, with
    ``attribute_reads``: the count that reaches them."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, names_in
        if isinstance(node, ast.ClassDef):
            yield from ((item, attribute_reads) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def unreached(sources: dict, defining, reached=()) -> list[str]:
    """Definitions in the ``defining`` labels of ``sources`` (label -> text)
    that no source reaches outside the definition itself, nor ``reached``
    lists.  A function or class is reached by any use of its name; a method
    or property only by an attribute read, so that a local variable of the
    same name does not reach it."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    total = {count: sum(map(count, trees.values()), collections.Counter())
             for count in (names_in, attribute_reads)}
    return [f"{label}: {node.name} (line {node.lineno})" for label in defining
            for node, count in definitions(trees[label])
            if node.name not in reached and total[count][node.name] == count(node)[node.name]]


def test_check_catches_an_unreached_definition():
    sources = {"m": ("def used():\n    return 1\n\n"
                     "def alone(n):\n    return alone(n - 1)\n\n"
                     "class C:\n    def __init__(self):\n        pass\n\n"
                     "    @property\n    def p(self):\n        return used()\n\n"
                     "    def q(self):\n        return self.p\n\n"
                     "    def n(self):\n        return 0\n\n"
                     "class D:\n    pass\n\nclass E:\n    pass\n"),
               "init": "from .m import D\n"}
    assert unreached(sources, ["m"], reached={"E"}) == [
        "m: alone (line 4)", "m: C (line 7)", "m: q (line 15)", "m: n (line 18)"]


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


def test_every_definition_is_reached():
    """Nothing in the package lives only for the tests: each function, class
    and method is named by the package (``__init__`` re-exports count) or a
    script, or is a name the benchmark harness traces."""
    paths = (glob.glob(os.path.join(ROOT, "src", "klshell", "*.py"))
             + glob.glob(os.path.join(ROOT, "scripts", "*.py")))
    sources = {}
    for path in sorted(paths):
        with open(path, encoding="utf-8") as f:
            sources[os.path.relpath(path, ROOT)] = f.read()
    defining = [label for label in sources if label.startswith("src")
                and not label.endswith("__init__.py")]
    assert unreached(sources, defining, {attr for _, attr in traced_names()}) == []
