"""No module of the package or of its tests imports a name it never uses.

The scan reads each module's top-level ``import`` statements and counts a
name as used when it appears anywhere in the module as a bare name (the
base of an attribute chain included) or as a string in ``__all__``.
``from __future__`` imports and the package ``__init__.py``, whose imports
are its re-exports, are skipped.  ``bench/`` is left out: it is the
benchmark, changed only with it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path.relative_to(ROOT)
    for path in [*(ROOT / "src" / "carlesonlab").glob("*.py"),
                 *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by a top-level import of ``source`` and never used."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names
                         if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
    return sorted(bound - used)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nimport numpy as np\n"
              "from math import gcd, log2 as lg\n"
              "__all__ = ['gcd']\n"
              "def f():\n    return np.pi + os.path.sep.count('/')\n")
    assert unused_imports(source) == ["json", "lg"]


@pytest.mark.parametrize("path", MODULES, ids=str)
def test_no_unused_import(path):
    assert unused_imports((ROOT / path).read_text()) == []
