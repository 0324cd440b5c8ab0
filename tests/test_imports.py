"""Unused-import guard for the library modules, with the stdlib ast only.

A module-level import in src/skagree/*.py (the package __init__ re-exports,
so it is left out) must be referenced somewhere in its module.  An import on
a line marked ``# noqa: F401`` is kept on purpose and skipped.
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
