import math
import random
from dataclasses import replace

import pytest

from dressed_modes import (
    GHZ,
    BoundaryPole,
    DeviceParams,
    RationalBoundary,
    TransmonSpec,
    counter_rotating_shift,
    critical_photon_number,
    dispersive_report,
    dispersive_shift,
    dispersive_shift_exact,
    omega_to_lambda,
    perturbative_mode_shift,
    pole_strength_from_coupling,
    resolved_coupling,
    charge_from_coupling,
)
from dressed_modes.acceptance import SUBSPACES
from input_space import DETUNING_MAGNITUDE

DISPERSIVE = SUBSPACES["dispersive"]

DEV = DeviceParams(length=3e-3, phase_velocity=1.2e8, impedance=50.0)
QUBIT = TransmonSpec(state="g", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ, coupling=0.1 * GHZ)


def test_closed_form_reference_point():
    # g = 0.1, Delta = -1, alpha = -0.25 (GHz) gives exactly -2 MHz
    chi = dispersive_shift(0.1 * GHZ, -1.0 * GHZ, -0.25 * GHZ)
    assert chi == pytest.approx(-0.002 * GHZ, rel=1e-12)


def test_closed_form_two_level_limit():
    g, delta = 0.1 * GHZ, -1.0 * GHZ
    huge_alpha = -1e6 * GHZ
    assert dispersive_shift(g, delta, huge_alpha) == pytest.approx(
        g * g / delta, rel=1e-5
    )


def test_closed_form_vanishes_for_linear_ancilla():
    assert dispersive_shift(0.1 * GHZ, -1.0 * GHZ, 0.0) == 0.0


def test_closed_form_rejects_zero_detuning():
    with pytest.raises(ValueError):
        dispersive_shift(0.1 * GHZ, 0.0, -0.25 * GHZ)
    with pytest.raises(ValueError):
        dispersive_shift(0.1 * GHZ, 0.25 * GHZ, -0.25 * GHZ)


def test_closed_form_plus_counter_rotating_term_is_the_perturbative_chi():
    """The boundary model's first-order chi: dispersive_shift plus
    counter_rotating_shift equals dispersive_report's chi_perturbative to
    rounding, on seeded dispersive draws on either side of the mode."""
    rng = random.Random(4)
    omega_r = DEV.fundamental_frequency
    for _ in range(20):
        delta = rng.choice((-1.0, 1.0)) * rng.uniform(*DETUNING_MAGNITUDE) * GHZ
        alpha = rng.uniform(*DISPERSIVE["alpha"]) * GHZ
        g = rng.uniform(*DISPERSIVE["coupling_ratio"]) * abs(delta)
        spec = replace(QUBIT, frequency=omega_r + delta, anharmonicity=alpha, coupling=g)
        closed = dispersive_shift(g, delta, alpha) + counter_rotating_shift(
            g, spec.frequency + omega_r, alpha
        )
        assert closed == pytest.approx(dispersive_report(DEV, spec).chi_perturbative, rel=1e-13)


def test_counter_rotating_term_fades_as_the_mode_frequency_grows():
    """At fixed g, Delta and alpha the term falls off as 1/Sigma^2 against
    dispersive_shift: about 100-fold for each decade of omega_r."""
    g, delta, alpha = 0.1 * GHZ, -1.0 * GHZ, -0.25 * GHZ
    chi = dispersive_shift(g, delta, alpha)
    ratios = [
        abs(counter_rotating_shift(g, 2.0 * omega_r + delta, alpha) / chi)
        for omega_r in (10.0 * GHZ, 100.0 * GHZ, 1e3 * GHZ, 1e4 * GHZ)
    ]
    assert ratios[0] > 1e-3
    for wide, narrow in zip(ratios, ratios[1:]):
        assert 80.0 < wide / narrow < 120.0
    assert ratios[-1] < 1e-8


def test_critical_photon_number():
    assert critical_photon_number(0.1 * GHZ, -1.0 * GHZ) == pytest.approx(25.0, rel=1e-12)
    assert critical_photon_number(0.0, -1.0 * GHZ) == math.inf


def test_perturbative_shift_reproduces_closed_form_exactly():
    """Pole locations chosen so the first-order sum telescopes to chi.

    With poles displaced from the reference mode by 2 omega_r Delta / v^2
    and strengths evaluated at omega_r, the perturbative e/g half-difference
    collapses algebraically to g^2 alpha / (Delta (Delta + alpha)).
    """
    v = DEV.phase_velocity
    omega_r = DEV.fundamental_frequency
    lam_r = omega_to_lambda(omega_r, v)
    g = 0.08 * GHZ
    delta = -1.3 * GHZ
    alpha = -0.21 * GHZ
    d_ge = pole_strength_from_coupling(g, omega_r, DEV.length, v)
    d_ef = pole_strength_from_coupling(math.sqrt(2.0) * g, omega_r, DEV.length, v)
    lam_ge = lam_r + 2.0 * omega_r * delta / v**2
    lam_ef = lam_r + 2.0 * omega_r * (delta + alpha) / v**2
    b_g = RationalBoundary(beta=0.0, gamma=0.0, poles=(BoundaryPole(lam_ge, d_ge, "ge"),))
    b_e = RationalBoundary(
        beta=0.0,
        gamma=0.0,
        poles=(BoundaryPole(lam_ge, -d_ge, "eg"), BoundaryPole(lam_ef, d_ef, "ef")),
    )
    chi_pert = 0.5 * (
        perturbative_mode_shift(b_e, DEV) - perturbative_mode_shift(b_g, DEV)
    )
    assert chi_pert == pytest.approx(dispersive_shift(g, delta, alpha), rel=1e-10)


def test_perturbative_shift_sign_matches_repulsion():
    # qubit above the mode pushes it down, and vice versa
    from dressed_modes import transmon_boundary

    b_above = transmon_boundary(replace(QUBIT, frequency=11.0 * GHZ), DEV)
    b_below = transmon_boundary(QUBIT, DEV)
    assert perturbative_mode_shift(b_above, DEV) < 0.0
    assert perturbative_mode_shift(b_below, DEV) > 0.0


def test_exact_solve_agrees_with_closed_form():
    chi_cf = dispersive_shift(QUBIT.coupling, QUBIT.frequency - DEV.fundamental_frequency, QUBIT.anharmonicity)
    chi_sl, pull_g, pull_e = dispersive_shift_exact(DEV, QUBIT, levels=3)
    assert chi_sl == pytest.approx(chi_cf, rel=0.05)
    # both pulls are upward here (qubit and its ef ladder sit below the mode)
    assert pull_g > 0.0 and pull_e > 0.0
    assert 0.5 * (pull_e - pull_g) == chi_sl


def test_exact_solve_with_the_qubit_just_below_the_mode():
    """Qubit in e 50 MHz below the mode, g = 1 MHz: the qubit-like root
    4e-6 and the pulled mode 1e-2 relative above the emission pole share
    the grid cell next to it. Missing both made chi come out ~1e4 times
    the closed form."""
    spec = replace(QUBIT, frequency=DEV.fundamental_frequency - 0.05 * GHZ, coupling=1e-3 * GHZ)
    chi_cf = dispersive_shift(spec.coupling, spec.frequency - DEV.fundamental_frequency, spec.anharmonicity)
    chi_sl, _, _ = dispersive_shift_exact(DEV, spec, levels=3)
    assert chi_sl == pytest.approx(chi_cf, rel=1e-3)


def test_report_fields_consistent():
    rep = dispersive_report(DEV, QUBIT)
    assert rep.detuning == pytest.approx(-1.0 * GHZ, rel=1e-12)
    assert rep.coupling == QUBIT.coupling
    assert rep.n_crit == pytest.approx(25.0, rel=1e-12)
    assert rep.dispersive and not rep.straddling
    assert rep.chi == pytest.approx(-0.002 * GHZ, rel=1e-12)
    assert rep.chi_exact == pytest.approx(rep.chi, rel=0.05)
    assert rep.chi_perturbative == pytest.approx(rep.chi, rel=0.02)


def test_report_straddling_flag():
    # mode between the g-e and e-f transitions: Delta > 0 > Delta + alpha
    spec = replace(QUBIT, frequency=10.1 * GHZ)
    rep = dispersive_report(DEV, spec)
    assert rep.straddling


def test_report_guards_resonance():
    spec = replace(QUBIT, frequency=DEV.fundamental_frequency * (1.0 + 1e-8))
    with pytest.raises(ValueError):
        dispersive_report(DEV, spec)
    # e-f ladder degenerate with the mode
    spec = replace(QUBIT, frequency=(10.25 - 1e-8) * GHZ)
    with pytest.raises(ValueError):
        dispersive_report(DEV, spec)


def test_resolved_coupling_roundtrip():
    q = charge_from_coupling(QUBIT.coupling, DEV.fundamental_frequency, DEV)
    spec = TransmonSpec(
        state="g", frequency=QUBIT.frequency, anharmonicity=QUBIT.anharmonicity,
        charge_element=q,
    )
    assert resolved_coupling(spec, DEV) == pytest.approx(QUBIT.coupling, rel=1e-12)
    assert resolved_coupling(QUBIT, DEV) == QUBIT.coupling
