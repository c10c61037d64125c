"""Every name a src/bvp8 module imports is used in that module, and every export resolves.

The check parses each module with the standard library's ast: a name bound
by an import statement must appear as a name somewhere in the module, a use
inside an attribute chain (np.linalg) or a string annotation included.
__init__.py is exempt, since its imports are the package's re-exports; each
name in its __all__ must be an attribute of the package instead.
"""

import ast
from pathlib import Path

import pytest

import bvp8

SRC = Path(__file__).resolve().parent.parent / "src" / "bvp8"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names that source imports and never reads, with the line of each import."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A string annotation such as "BoundaryConditions" names a class.
            if node.value.isidentifier():
                used.add(node.value)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_module_is_checked():
    assert {"basis.py", "expression.py", "solver.py", "problems.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_unused_names_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from .basis import START_DEGREE, MAX_ORDER\n"
        "def f(x) -> 'Path':\n"
        "    from pathlib import Path\n"
        "    return np.linalg.norm(x) + MAX_ORDER + len(sys.argv)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "START_DEGREE")]


def test_public_names_resolve():
    # from bvp8 import * fails on a stale export of a deleted name.
    assert [name for name in bvp8.__all__ if not hasattr(bvp8, name)] == []
    namespace = {}
    exec("from bvp8 import *", namespace)
    assert set(bvp8.__all__) <= set(namespace)
