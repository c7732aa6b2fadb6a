"""Dressed-mode spectra of a transmon-terminated transmission-line resonator.

The resonator is a shorted line whose open end is loaded by a qubit-state-
dependent boundary function; dressed modes are the roots of
log_deriv(lam) = F(lam). The package solves that problem exactly and checks
the standard circuit-QED consequences (vacuum Rabi splitting, dispersive
shifts, multimode divergences, two-qubit parity readout) against closed
forms and a directly diagonalized ladder model.

A module loads only what its module body runs. Importing the package
loads none of its submodules: each name in _EXPORTS, and each submodule
that defines one, is served from that submodule, which loads on the first
lookup. `cli` and
`acceptance` import the solver layers (boundary, spectrum, dispersive, jc,
multiqubit) inside the handler or criterion that calls them. Two
exceptions: `cli` imports multimode and wedge at module level, because its
COMMANDS table reads them at import; `acceptance` binds resonator's names
at module level, because the benchmark tracer counts the kernel calls
made through those bindings.
"""
from importlib import import_module

__version__ = "0.1.0"

# Every re-exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", (
            "ConfigError", "LabelingError", "PoleCollisionError", "PoleProximityError",
            "SolverError",
        )),
        ("params", (
            "GHZ", "HBAR", "DeviceParams", "TransmonSpec", "config_snapshot",
            "lambda_to_omega", "load_config", "omega_to_lambda",
        )),
        ("resonator", (
            "ShortedLine", "default_lam_max", "dirichlet_poles", "line_log_deriv",
            "line_log_deriv_dlam", "quarterwave_zeros",
        )),
        ("boundary", (
            "BoundaryPole", "FullSusceptanceBoundary", "RationalBoundary",
            "charge_from_coupling", "coupling_from_charge", "pole_amplitudes",
            "pole_strength_from_charge", "pole_strength_from_coupling",
            "resolved_coupling", "sum_boundaries", "transmon_boundary",
        )),
        ("spectrum", (
            "CrossingSweep", "DressedSpectrum", "EigenvalueRecord", "PolePoint",
            "pole_margin", "pole_margins", "qubit_frequency_sweep", "solve_spectrum",
            "vacuum_rabi_gap",
        )),
        ("dispersive", (
            "DispersiveResult", "counter_rotating_shift", "critical_photon_number",
            "dispersive_report", "dispersive_shift", "dispersive_shift_exact",
            "perturbative_mode_shift", "pulled_frequencies", "regime_flags",
        )),
        ("jc", (
            "JCModel", "build_hamiltonian", "diagonalize", "dispersive_shift_numeric",
            "dressed_energies", "dressed_pair", "jc_branch_sweep",
        )),
        ("multimode", (
            "DivergenceReport", "MultimodeModel", "dispersive_partial_sum",
            "divergence_report", "lamb_shift_partial_sum",
        )),
        ("multiqubit", (
            "AdditivityReport", "ParityReport", "TwoQubitDispersiveModel",
            "additivity_report", "dispersive_hamiltonian", "joint_parity",
            "parity_hamiltonian", "parity_operator", "parity_report", "qnd_residual",
            "single_qubit_commutators", "state_frequencies", "two_qubit_model",
        )),
        ("wedge", (
            "WedgeGeometry", "azimuthal_wavenumber", "derivative_wall_values",
            "laplacian_eigenvalue", "orthogonality_error", "sine_mode_overlap",
        )),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # Looked up afresh on every access, never stored in this namespace, so
    # a wrapper set on the defining module is seen here and leaves with it.
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():
        # a submodule: importing it binds it here, as any import of it does
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_EXPORTS.values()))
