"""The runtime is stdlib-only: the package imports nothing else."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gradedcover").glob("*.py"))


def imported_modules(text: str) -> list[str]:
    """Absolute module names of every import statement in the source text."""
    names = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_import_scan_sees_every_kind_of_import():
    text = "import numpy.linalg as la\nfrom sympy import cancel\nfrom . import algebra\n"
    text += "def f():\n    import hypothesis\n"
    assert imported_modules(text) == ["numpy.linalg", "sympy", "hypothesis"]


def test_runtime_imports_only_the_standard_library():
    assert len(SOURCES) > 1
    for path in SOURCES:
        for name in imported_modules(path.read_text()):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "gradedcover", (path.name, name)
