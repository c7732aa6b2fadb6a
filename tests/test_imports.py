"""Every name a module imports is read somewhere in that module, the
package imports nothing beyond the standard library, itself and the
dependencies pyproject.toml declares, and the package namespace serves
each name it re-exports from the submodule that defines it.

`from __future__ import annotations` binds nothing, so it is exempt from
the first check.
"""
import ast
import re
import sys
from importlib import import_module
from pathlib import Path

import pytest

import dressed_modes

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    list((ROOT / "src" / "dressed_modes").glob("*.py")) + list((ROOT / "tests").glob("*.py")),
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


# Every name the package re-exports, by the submodule that defines it.
REEXPORTS = {
    "errors": [
        "ConfigError", "LabelingError", "PoleCollisionError", "PoleProximityError",
        "SolverError",
    ],
    "params": [
        "GHZ", "HBAR", "DeviceParams", "TransmonSpec", "config_snapshot",
        "lambda_to_omega", "load_config", "omega_to_lambda",
    ],
    "resonator": [
        "ShortedLine", "default_lam_max", "dirichlet_poles", "line_log_deriv",
        "line_log_deriv_dlam", "quarterwave_zeros",
    ],
    "boundary": [
        "BoundaryPole", "FullSusceptanceBoundary", "RationalBoundary",
        "charge_from_coupling", "coupling_from_charge", "pole_amplitudes",
        "pole_strength_from_charge", "pole_strength_from_coupling", "resolved_coupling",
        "sum_boundaries", "transmon_boundary",
    ],
    "spectrum": [
        "CrossingSweep", "DressedSpectrum", "EigenvalueRecord", "PolePoint", "pole_margin",
        "pole_margins", "qubit_frequency_sweep", "solve_spectrum", "vacuum_rabi_gap",
    ],
    "dispersive": [
        "DispersiveResult", "counter_rotating_shift", "critical_photon_number",
        "dispersive_report", "dispersive_shift", "dispersive_shift_exact",
        "perturbative_mode_shift", "pulled_frequencies", "regime_flags",
    ],
    "jc": [
        "JCModel", "build_hamiltonian", "diagonalize", "dispersive_shift_numeric",
        "dressed_energies", "dressed_pair", "jc_branch_sweep",
    ],
    "multimode": [
        "DivergenceReport", "MultimodeModel", "dispersive_partial_sum",
        "divergence_report", "lamb_shift_partial_sum",
    ],
    "multiqubit": [
        "AdditivityReport", "ParityReport", "TwoQubitDispersiveModel", "additivity_report",
        "dispersive_hamiltonian", "joint_parity", "parity_hamiltonian", "parity_operator",
        "parity_report", "qnd_residual", "single_qubit_commutators", "state_frequencies",
        "two_qubit_model",
    ],
    "wedge": [
        "WedgeGeometry", "azimuthal_wavenumber", "derivative_wall_values",
        "laplacian_eigenvalue", "orthogonality_error", "sine_mode_overlap",
    ],
}
REEXPORTED = [(module, name) for module, names in REEXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", REEXPORTED, ids=lambda x: x)
def test_package_serves_each_name_from_its_defining_module(module, name):
    assert getattr(dressed_modes, name) is getattr(import_module(f"dressed_modes.{module}"), name)
    assert name in dir(dressed_modes)
    assert name in dressed_modes.__all__


def test_package_namespace_lists_exactly_the_reexports():
    names = [name for _, name in REEXPORTED]
    assert sorted(dressed_modes.__all__) == sorted(names)
    star = {}
    exec("from dressed_modes import *", star)
    assert set(star) - {"__builtins__"} == set(names)


@pytest.mark.parametrize("module", sorted(REEXPORTS))
def test_package_serves_each_defining_submodule(module, monkeypatch):
    # importing a submodule binds it on the package; unbinding it sends the
    # lookup to the package's __getattr__, as before anything imports it
    monkeypatch.delattr(dressed_modes, module)
    assert getattr(dressed_modes, module) is import_module(f"dressed_modes.{module}")
    assert module in dir(dressed_modes)


def test_package_refuses_an_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        dressed_modes.no_such_name
