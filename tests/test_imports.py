"""Every name a module imports is read somewhere in that module.

The package's `__init__.py` re-exports names it never reads, and
`from __future__ import annotations` binds nothing, so both are exempt.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "dressed_modes").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


def unread_imports(source: str) -> list[str]:
    """Names bound by an import statement in `source` and never loaded."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_imports(path):
    assert unread_imports(path.read_text()) == []


def test_checker_sees_unread_and_read_names():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from json import dumps as to_text, loads\n"
        "def f():\n"
        "    from sys import argv\n"
        "    return math.pi, loads\n"
    )
    assert unread_imports(source) == ["line 2: os", "line 3: to_text", "line 5: argv"]
