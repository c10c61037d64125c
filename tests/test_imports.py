"""Every name a src/bvp8 module imports is used in that module, every module imports only what
the package declares, and every export resolves.

The check parses each module with the standard library's ast: a name bound
by an import statement must appear as a name somewhere in the module, a use
inside an attribute chain (np.linalg) or a string annotation included.
__init__.py is exempt, since its imports are the package's re-exports; each
name in its __all__ must be an attribute of the package instead.  Every
module, __init__.py too, imports only the standard library
(sys.stdlib_module_names), numpy, the one declared dependency, and bvp8 itself:
a package installed alongside but not declared would pass every test here and
fail for a user who does not have it.
"""

import ast
import sys
from pathlib import Path

import pytest

import bvp8

SRC = Path(__file__).resolve().parent.parent / "src" / "bvp8"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")

#: The top-level modules src/bvp8 may import: the standard library, numpy and bvp8.
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "bvp8"}


def imports(tree) -> list:
    """(line, module, name) of each name an import in tree binds: module is the top-level
    module it reads, None for a relative import, which reads the package itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                found.append((node.lineno, top, alias.asname or top))
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            found += [(node.lineno, top, alias.asname or alias.name) for alias in node.names]
    return found


def unused_imports(source: str) -> list:
    """The names that source imports and never reads, with the line of each import."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for line, module, name in imports(tree):
        if module != "__future__":
            imported.setdefault(name, line)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A string annotation such as "BoundaryConditions" names a class.
            if node.value.isidentifier():
                used.add(node.value)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def undeclared_imports(source: str) -> list:
    """The (line, module) of each import in source from outside ALLOWED."""
    return sorted({(line, module) for line, module, _ in imports(ast.parse(source))
                   if module is not None and module not in ALLOWED})


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


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_module_imports_only_the_standard_library_numpy_and_itself(module):
    assert undeclared_imports((SRC / module).read_text()) == []


def test_undeclared_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path, scipy.linalg as sla\n"
        "import numpy as np\n"
        "from mpmath import mp\n"
        "from . import basis\n"
        "from .basis import MAX_ORDER\n"
        "from bvp8.errors import Bvp8Error\n"
        "def f():\n"
        "    import pandas\n"
    )
    assert undeclared_imports(source) == [(2, "scipy"), (4, "mpmath"), (9, "pandas")]


def test_public_names_resolve():
    # from bvp8 import * fails on a stale export of a deleted name.
    assert [name for name in bvp8.__all__ if not hasattr(bvp8, name)] == []
    namespace = {}
    exec("from bvp8 import *", namespace)
    assert set(bvp8.__all__) <= set(namespace)
