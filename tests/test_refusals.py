"""Refusals of bad input across the package, and the two solver raises that
no physical input reaches: a refinement that runs out of steps and a
record list that is not strictly increasing."""
import re
from dataclasses import replace

import pytest

from dressed_modes import (
    GHZ,
    DeviceParams,
    FullSusceptanceBoundary,
    MultimodeModel,
    RationalBoundary,
    SolverError,
    TransmonSpec,
    charge_from_coupling,
    coupling_from_charge,
    dirichlet_poles,
    lambda_to_omega,
    line_log_deriv,
    line_log_deriv_dlam,
    omega_to_lambda,
    pole_strength_from_charge,
    pole_strength_from_coupling,
    quarterwave_zeros,
    solve_spectrum,
    transmon_boundary,
)
from dressed_modes import spectrum

DEV = DeviceParams(length=3e-3, phase_velocity=1.2e8, impedance=50.0)
QUBIT = TransmonSpec(state="g", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ, coupling=0.1 * GHZ)
ELL, V = DEV.inductance_per_length, DEV.phase_velocity
MODEL = MultimodeModel(omega_1=10.0 * GHZ, g_1=0.1 * GHZ, omega_q=9.0 * GHZ, alpha=-0.25 * GHZ)
TERMS = ((1e-9, 9 * GHZ),)


REFUSALS = {
    "strength-negative-g": (lambda: pole_strength_from_coupling(-1.0, GHZ, 3e-3, V),
                            "coupling must be nonnegative"),
    "strength-zero-omega": (lambda: pole_strength_from_coupling(1.0, 0.0, 3e-3, V),
                            "transition frequency must be nonzero"),
    "coupling-negative-charge": (lambda: coupling_from_charge(-1e-19, GHZ, DEV),
                                 "charge element must be nonnegative"),
    "coupling-zero-omega": (lambda: coupling_from_charge(1e-19, 0.0, DEV),
                            "reference frequency must be positive"),
    "charge-negative-g": (lambda: charge_from_coupling(-1.0, GHZ, DEV),
                          "coupling must be nonnegative"),
    "charge-zero-omega": (lambda: charge_from_coupling(1.0, 0.0, DEV),
                          "reference frequency must be positive"),
    "charge-strength-negative-charge": (lambda: pole_strength_from_charge(-1e-19, GHZ, V, 50.0),
                                        "charge element must be nonnegative"),
    "charge-strength-zero-omega": (lambda: pole_strength_from_charge(1e-19, 0.0, V, 50.0),
                                   "frequency must be positive"),
    "full-negative-cj": (lambda: FullSusceptanceBoundary(-1e-15, TERMS, ELL, V),
                         "junction capacitance must be nonnegative"),
    "full-zero-ell": (lambda: FullSusceptanceBoundary(0.0, TERMS, 0.0, V),
                      "line constants must be positive"),
    "full-zero-v": (lambda: FullSusceptanceBoundary(0.0, TERMS, ELL, 0.0),
                    "line constants must be positive"),
    "full-zero-omega": (lambda: FullSusceptanceBoundary(0.0, ((1e-9, 0.0),), ELL, V),
                        "transition frequencies must be positive"),
    "full-labels": (lambda: FullSusceptanceBoundary(0.0, TERMS, ELL, V, ("ge", "ef")),
                    "labels must match terms"),
    "full-from-rational-lam-ref": (
        lambda: FullSusceptanceBoundary.from_rational(transmon_boundary(QUBIT, DEV), ELL, V, 0.0),
        "reference eigenvalue must be positive"),
    "log-deriv-length": (lambda: line_log_deriv(1e6, 0.0), "length must be positive"),
    "log-deriv-dlam-length": (lambda: line_log_deriv_dlam(1e6, -3e-3), "length must be positive"),
    "dirichlet-count": (lambda: dirichlet_poles(3e-3, -1), "count must be nonnegative"),
    "quarterwave-count": (lambda: quarterwave_zeros(3e-3, -1), "count must be nonnegative"),
    "omega-to-lambda-v": (lambda: omega_to_lambda(GHZ, 0.0), "phase velocity must be positive"),
    "lambda-to-omega-lam": (lambda: lambda_to_omega(-1.0, V),
                            "spectral parameter must be nonnegative"),
    "lambda-to-omega-v": (lambda: lambda_to_omega(1e6, -V), "phase velocity must be positive"),
    "multimode-negative-g": (lambda: replace(MODEL, g_1=-1.0), "coupling must be nonnegative"),
    "multimode-zero-omega-q": (lambda: replace(MODEL, omega_q=0.0), "qubit frequency must be positive"),
    "multimode-bare-frequency-index": (lambda: MODEL.bare_frequency(0), "mode index starts at 1"),
    "multimode-mode-coupling-index": (lambda: MODEL.mode_coupling(0), "mode index starts at 1"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_input_check_refuses(case):
    build, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_refinement_out_of_steps_raises(monkeypatch):
    """With one step allowed, the first root's refinement stops short of it."""
    monkeypatch.setattr(spectrum, "REFINE_MAX_STEPS", 1)
    with pytest.raises(SolverError, match="^root refinement did not converge in "):
        solve_spectrum(DEV.length, transmon_boundary(QUBIT, DEV))


def test_records_not_strictly_increasing_raise(monkeypatch):
    """A refiner that returns one record for every bracket is refused."""
    record = spectrum.EigenvalueRecord(1e6, (0.0, 2e6), 0.0, 1)
    monkeypatch.setattr(spectrum, "_refine", lambda *args: record)
    with pytest.raises(SolverError, match="^eigenvalues not strictly increasing$"):
        solve_spectrum(DEV.length, RationalBoundary())
