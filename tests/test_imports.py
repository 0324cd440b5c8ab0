"""Dead-name guards for the library modules, with the stdlib ast only.

A module-level import in src/skagree/*.py (the package __init__ re-exports,
so it is left out) must be referenced somewhere in its module.  An import on
a line marked ``# noqa: F401`` is kept on purpose and skipped.  A top-level
private name (leading ``_``) must be referenced somewhere in the package
besides the statement that defines it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "skagree"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of each module-level import that nothing references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "from os import path, sep  # noqa: F401\n"
              "from .channels import (\n"
              "    ChannelError,\n"
              "    _input_probs,\n"
              ")\n"
              "x = np.zeros(1)\n"
              "def f() -> ChannelError:\n"
              "    pass\n")
    assert unused_imports(source) == [(2, "math"), (7, "_input_probs")]


def unreferenced_private_names(sources: dict):
    """(module, line, name) of each top-level private name (leading ``_``)
    that no statement of any module references, other than the statement
    that defines it.  ``sources`` maps a module name to its source."""
    refs = []  # (module, index of the top-level statement, referenced names)
    defined = []  # (module, index, line, name)
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            names = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
                elif isinstance(n, ast.alias):
                    names.add(n.name)
            refs.append((module, i, names))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                targets = []
            defined += [(module, i, node.lineno, name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
    return sorted((module, line, name) for module, i, line, name in defined
                  if not any(name in names for m, j, names in refs
                             if (m, j) != (module, i)))


def test_every_private_name_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_private_guard_flags_an_orphan_and_follows_references():
    sources = {
        "a": ("_TOL = 1e-9\n"
              "_ORPHAN = 2\n"
              "def _recursive(x):\n"
              "    return _recursive(x - 1) if x else _TOL\n"
              "def _imported():\n"
              "    pass\n"
              "class _ByAttribute:\n"
              "    pass\n"),
        "b": ("from . import a\n"
              "from .a import _imported\n"
              "def f():\n"
              "    return a._ByAttribute()\n"),
    }
    assert unreferenced_private_names(sources) == [("a", 2, "_ORPHAN"),
                                                   ("a", 3, "_recursive")]
