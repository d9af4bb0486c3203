"""No module in src/ or tests/ imports a name it never uses.

A stdlib-only stand-in for a linter: every name an import binds must be
read again somewhere in the module, as a plain name, the root of an
attribute chain, or an entry of ``__all__``.  Package ``__init__`` files
are exempt, since their imports are the package's public surface.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` and never read, in line order."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((name for name in bound if name not in read), key=bound.get)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import gcd, prod\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "x = np.zeros(prod([2]))\n"
    )
    assert unused_imports(source) == ["itertools", "os", "gcd"]
