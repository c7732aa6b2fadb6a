"""Dressed-mode spectra of a transmon-terminated transmission-line resonator.

The resonator is a shorted line whose open end is loaded by a qubit-state-
dependent boundary function; dressed modes are the roots of
log_deriv(lam) = F(lam). The package solves that problem exactly and checks
the standard circuit-QED consequences (vacuum Rabi splitting, dispersive
shifts, multimode divergences, two-qubit parity readout) against closed
forms and a directly diagonalized ladder model.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    LabelingError,
    PoleCollisionError,
    PoleProximityError,
    SolverError,
)
from .params import (
    GHZ,
    HBAR,
    DeviceParams,
    TransmonSpec,
    config_snapshot,
    lambda_to_omega,
    load_config,
    omega_to_lambda,
)
from .resonator import (
    ShortedLine,
    default_lam_max,
    dirichlet_poles,
    line_log_deriv,
    line_log_deriv_dlam,
    quarterwave_zeros,
)
from .boundary import (
    BoundaryPole,
    FullSusceptanceBoundary,
    RationalBoundary,
    charge_from_coupling,
    coupling_from_charge,
    pole_amplitudes,
    pole_strength_from_charge,
    pole_strength_from_coupling,
    resolved_coupling,
    sum_boundaries,
    transmon_boundary,
)
from .spectrum import (
    CrossingSweep,
    DressedSpectrum,
    EigenvalueRecord,
    PolePoint,
    pole_margin,
    pole_margins,
    qubit_frequency_sweep,
    solve_spectrum,
    vacuum_rabi_gap,
)
from .dispersive import (
    DispersiveResult,
    counter_rotating_shift,
    critical_photon_number,
    dispersive_report,
    dispersive_shift,
    dispersive_shift_exact,
    perturbative_mode_shift,
    pulled_frequencies,
    regime_flags,
)
from .jc import (
    JCModel,
    build_hamiltonian,
    diagonalize,
    dispersive_shift_numeric,
    dressed_energies,
    dressed_pair,
    jc_branch_sweep,
)
from .multimode import (
    DivergenceReport,
    MultimodeModel,
    dispersive_partial_sum,
    divergence_report,
    lamb_shift_partial_sum,
)
from .multiqubit import (
    AdditivityReport,
    ParityReport,
    TwoQubitDispersiveModel,
    additivity_report,
    dispersive_hamiltonian,
    joint_parity,
    parity_hamiltonian,
    parity_operator,
    parity_report,
    qnd_residual,
    single_qubit_commutators,
    state_frequencies,
    two_qubit_model,
)
from .wedge import (
    WedgeGeometry,
    azimuthal_wavenumber,
    derivative_wall_values,
    laplacian_eigenvalue,
    orthogonality_error,
    sine_mode_overlap,
)
