"""Every name a module imports is read somewhere in that module, and the
package imports nothing beyond the standard library, itself and the
dependencies pyproject.toml declares.

The package's `__init__.py` re-exports names it never reads, and
`from __future__ import annotations` binds nothing, so both are exempt
from the first check.
"""
import ast
import re
import sys
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


def undeclared_imports(source: str, allowed: set[str]) -> list[str]:
    """Top-level modules an absolute import in `source` names outside `allowed`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - allowed)


def test_package_imports_only_declared_dependencies():
    """Installed but undeclared packages (scipy, mpmath, sympy) must not
    creep into src/: each top-level import is stdlib, the package, or a
    [project] dependency."""
    tomllib = pytest.importorskip("tomllib")    # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].replace("-", "_") for dep in project["dependencies"]}
    allowed = set(sys.stdlib_module_names) | {"dressed_modes"} | declared
    for path in sorted((ROOT / "src" / "dressed_modes").glob("*.py")):
        assert undeclared_imports(path.read_text(), allowed) == [], path.name


def test_dependency_checker_sees_absolute_imports_only():
    source = (
        "import math, numpy.linalg\n"
        "from scipy.integrate import simpson\n"
        "from .params import GHZ\n"
        "def f():\n"
        "    import mpmath\n"
    )
    assert undeclared_imports(source, {"math", "numpy"}) == ["mpmath", "scipy"]
