"""The package imports nothing beyond what it declares.

``pyproject.toml`` declares NumPy as the only runtime dependency.  Every
module under ``src/repro`` is parsed with :mod:`ast` and each absolute
import must name the standard library, NumPy, or ``repro`` itself, so the
declared list cannot drift from the code again.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import repro

ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "repro"}


def _imported_roots(path: Path) -> set[str]:
    roots: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_numpy_and_itself():
    package = Path(repro.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 50
    stray = {
        str(path.relative_to(package)): sorted(_imported_roots(path) - ALLOWED)
        for path in modules
    }
    assert {k: v for k, v in stray.items() if v} == {}
