import math
from dataclasses import replace

import numpy as np
import pytest

from dressed_modes import (
    GHZ,
    BoundaryPole,
    DeviceParams,
    FullSusceptanceBoundary,
    PoleProximityError,
    RationalBoundary,
    TransmonSpec,
    charge_from_coupling,
    coupling_from_charge,
    omega_to_lambda,
    pole_amplitudes,
    pole_strength_from_charge,
    pole_strength_from_coupling,
    sum_boundaries,
    transmon_boundary,
)

DEV = DeviceParams(length=3e-3, phase_velocity=1.2e8, impedance=50.0)
QUBIT = TransmonSpec(state="g", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ, coupling=0.1 * GHZ)


def test_strength_formula_consistency_triangle():
    """coupling->strength and charge->strength agree through the charge map."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        length = float(rng.uniform(1e-3, 1e-2))
        v = float(rng.uniform(0.5e8, 2e8))
        z0 = float(rng.uniform(20.0, 120.0))
        dev = DeviceParams(length=length, phase_velocity=v, impedance=z0)
        omega = float(rng.uniform(1.0, 20.0)) * GHZ
        charge = float(rng.uniform(0.1, 10.0)) * 1e-19
        g = coupling_from_charge(charge, omega, dev)
        via_coupling = pole_strength_from_coupling(g, omega, length, v)
        via_charge = pole_strength_from_charge(charge, omega, v, z0)
        assert via_coupling == pytest.approx(via_charge, rel=1e-10)
        # and the charge map inverts
        assert charge_from_coupling(g, omega, dev) == pytest.approx(charge, rel=1e-10)


def test_strength_sign_follows_transition_sign():
    s = pole_strength_from_coupling(0.1 * GHZ, 9 * GHZ, 3e-3, 1.2e8)
    assert s > 0.0
    assert pole_strength_from_coupling(0.1 * GHZ, -9 * GHZ, 3e-3, 1.2e8) == -s


def test_rational_boundary_rises_into_pole_from_left():
    """Positive-strength term is a rising branch: F -> +inf as lam -> pole-."""
    lam_q = omega_to_lambda(9 * GHZ, DEV.phase_velocity)
    b = RationalBoundary(beta=0.0, gamma=0.0, poles=(BoundaryPole(lam_q, 1e5, "ge"),))
    below_far = b.value(lam_q * 0.5)
    below_near = b.value(lam_q * (1.0 - 1e-6))
    above_near = b.value(lam_q * (1.0 + 1e-6))
    assert 0.0 < below_far < below_near
    assert above_near < 0.0
    # derivative of the pole term is positive on both sides
    assert b.derivative(lam_q * 0.5) > 0.0
    assert b.derivative(lam_q * 1.5) > 0.0


def test_affine_part_signs():
    b = RationalBoundary(beta=2.0, gamma=3.0, poles=())
    assert b.value(10.0) == pytest.approx(-2.0 * 10.0 - 3.0, rel=1e-15)
    assert b.derivative(10.0) == pytest.approx(-2.0, rel=1e-15)


def test_value_against_finite_difference():
    lam_q = omega_to_lambda(9 * GHZ, DEV.phase_velocity)
    b = RationalBoundary(
        beta=1.7, gamma=0.4, poles=(BoundaryPole(lam_q, 3.3e4, "ge"),)
    )
    for lam in (lam_q * 0.3, lam_q * 0.9, lam_q * 1.4):
        h = lam * 1e-7
        fd = (b.value(lam + h) - b.value(lam - h)) / (2 * h)
        assert b.derivative(lam) == pytest.approx(fd, rel=1e-5)


def test_zero_strength_poles_dropped():
    b = RationalBoundary(beta=0.0, gamma=0.0, poles=(BoundaryPole(1e6, 0.0, "ge"),))
    assert b.poles == ()
    assert b.all_positive_residues


def test_coincident_poles_rejected():
    with pytest.raises(ValueError):
        RationalBoundary(
            beta=0.0,
            gamma=0.0,
            poles=(BoundaryPole(1e6, 1.0, "a"), BoundaryPole(1e6 * (1 + 1e-12), 1.0, "b")),
        )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs, field", [
    ({"gamma": NAN}, "gamma"),
    ({"gamma": -INF}, "gamma"),
    ({"beta": NAN}, "beta"),
    ({"beta": INF}, "beta"),
    ({"poles": (BoundaryPole(1e6, NAN),)}, "pole strength"),
    ({"poles": (BoundaryPole(1e6, INF),)}, "pole strength"),
    ({"poles": (BoundaryPole(NAN, 1.0),)}, "pole location"),
    ({"poles": (BoundaryPole(INF, 1.0),)}, "pole location"),
    ({"poles": (BoundaryPole(NAN, 0.0),)}, "pole location"),  # before zero strengths drop
])
def test_rational_form_rejects_non_finite_inputs(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        RationalBoundary(**kwargs)


def test_non_finite_inputs_rejected_through_full_form_and_sum():
    ell, v = DEV.inductance_per_length, DEV.phase_velocity
    with pytest.raises(ValueError, match="^beta must be finite"):
        FullSusceptanceBoundary(NAN, ((1e-9, 9 * GHZ),), ell, v)
    big = RationalBoundary(beta=1e308, poles=(BoundaryPole(1e6, 1e308),))
    with pytest.raises(ValueError, match="^beta must be finite"):
        sum_boundaries(big, big)      # the sums overflow to inf
    with pytest.raises(ValueError, match="^pole strength must be finite"):
        sum_boundaries(big, replace(big, beta=0.0))


def test_guard_near_pole():
    for b in (
        RationalBoundary(beta=0.0, gamma=0.0, poles=(BoundaryPole(1e6, 1.0, "ge"),)),
        # the same pole in the susceptance shape: lam_k = (1e3 / 1)^2, residue -A lam_k = 1
        FullSusceptanceBoundary(0.0, ((-1e-6, 1e3),), 1.0, 1.0, ("ge",)).rational,
    ):
        with pytest.raises(PoleProximityError):
            b.value(1e6 * (1.0 + 1e-11))
        # outside the guard it evaluates
        assert math.isfinite(b.value(1e6 * (1.0 + 1e-8)))


def test_transmon_boundary_ground_state():
    b = transmon_boundary(QUBIT, DEV)
    assert len(b.poles) == 1
    pole = b.poles[0]
    assert pole.label == "ge"
    assert pole.location == pytest.approx(
        omega_to_lambda(QUBIT.frequency, DEV.phase_velocity), rel=1e-15
    )
    assert pole.strength > 0.0
    assert b.all_positive_residues
    assert b.beta == 0.0 and b.gamma == 0.0


def test_transmon_boundary_excited_state_levels():
    two = transmon_boundary(replace(QUBIT, state="e"), DEV, levels=2)
    assert len(two.poles) == 1
    assert two.poles[0].strength < 0.0
    assert not two.all_positive_residues

    three = transmon_boundary(replace(QUBIT, state="e"), DEV, levels=3)
    assert len(three.poles) == 2
    by_label = {p.label: p for p in three.poles}
    assert by_label["eg"].strength < 0.0 < by_label["ef"].strength
    # sqrt(2) g ladder step: strength ratio is 2 (omega_ef/omega_q)^2
    expected = 2.0 * (QUBIT.ef_frequency / QUBIT.frequency) ** 2
    assert -by_label["ef"].strength / by_label["eg"].strength == pytest.approx(
        expected, rel=1e-12
    )


def test_excited_three_level_boundary_needs_a_positive_ef_frequency():
    """omega_q + alpha <= 0 leaves no e-f absorption pole to place; the
    two-level boundary, which has none, still builds."""
    for omega_q in (0.2 * GHZ, 0.25 * GHZ):
        spec = replace(QUBIT, state="e", frequency=omega_q)
        with pytest.raises(ValueError, match="^e-f transition frequency must stay positive$"):
            transmon_boundary(spec, DEV, levels=3)
        assert len(transmon_boundary(spec, DEV, levels=2).poles) == 1


def test_zero_coupling_gives_poleless_boundary():
    b = transmon_boundary(replace(QUBIT, coupling=0.0), DEV)
    assert b.poles == ()


def test_junction_capacitance_sets_beta():
    spec = replace(QUBIT, junction_capacitance=5e-15)
    b = transmon_boundary(spec, DEV)
    assert b.beta == pytest.approx(5e-15 / DEV.capacitance_per_length, rel=1e-15)


def test_sum_boundaries_merges_coincident_poles():
    b1 = transmon_boundary(QUBIT, DEV)
    b2 = transmon_boundary(replace(QUBIT, coupling=0.05 * GHZ), DEV)
    merged = sum_boundaries(b1, b2)
    assert len(merged.poles) == 1
    assert merged.poles[0].strength == pytest.approx(
        b1.poles[0].strength + b2.poles[0].strength, rel=1e-15
    )

    b3 = transmon_boundary(replace(QUBIT, frequency=8 * GHZ), DEV)
    both = sum_boundaries(b1, b3)
    assert len(both.poles) == 2
    locations = [p.location for p in both.poles]
    assert locations == sorted(locations)


def susceptance_value(full: FullSusceptanceBoundary, lam: float) -> float:
    """F in the full form's own susceptance shape, term by term:
    -ell v^2 lam C_J - sum_k ell v^2 A_k lam / (omega_k^2 - v^2 lam)."""
    v2 = full.phase_velocity ** 2
    lv2 = full.inductance_per_length * v2
    acc = -lv2 * lam * full.junction_capacitance
    for amp, omega in full.terms:
        acc -= lv2 * amp * lam / (omega * omega - v2 * lam)
    return acc


def test_full_form_matches_rational_at_reference():
    lam_ref = omega_to_lambda(DEV.fundamental_frequency, DEV.phase_velocity)
    b = transmon_boundary(QUBIT, DEV)
    full = FullSusceptanceBoundary.from_rational(
        b, DEV.inductance_per_length, DEV.phase_velocity, lam_ref
    ).rational
    assert full.value(lam_ref) == pytest.approx(b.value(lam_ref), rel=1e-10)
    # pole locations survive the form change
    assert [p.location for p in full.poles] == pytest.approx(
        [p.location for p in b.poles], rel=1e-12
    )
    # away from the calibration point the two forms drift apart slowly
    lam_off = lam_ref * 1.02
    rel = abs(full.value(lam_off) - b.value(lam_off)) / abs(b.value(lam_off))
    assert 0.0 < rel < 0.05


def test_full_form_derivative_consistent():
    """The rational form's derivative is the slope of the susceptance shape."""
    lam_ref = omega_to_lambda(DEV.fundamental_frequency, DEV.phase_velocity)
    b = transmon_boundary(QUBIT, DEV)
    full = FullSusceptanceBoundary.from_rational(
        b, DEV.inductance_per_length, DEV.phase_velocity, lam_ref
    )
    lam = lam_ref * 1.01
    h = lam * 1e-7
    fd = (susceptance_value(full, lam + h) - susceptance_value(full, lam - h)) / (2 * h)
    assert full.rational.derivative(lam) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("state, levels, c_j", [("g", 2, None), ("e", 2, 5e-15), ("e", 3, None)])
def test_full_form_is_exactly_its_rational_form(state, levels, c_j):
    """lam / (lam_k - lam) = lam_k / (lam_k - lam) - 1: the rational form,
    the solver's only view of the full form, reproduces the susceptance
    shape everywhere, also with an emission pole (gamma < 0)."""
    lam_ref = omega_to_lambda(DEV.fundamental_frequency, DEV.phase_velocity)
    spec = replace(QUBIT, state=state, junction_capacitance=c_j)
    full = FullSusceptanceBoundary.from_rational(
        transmon_boundary(spec, DEV, levels), DEV.inductance_per_length,
        DEV.phase_velocity, lam_ref,
    )
    assert (full.rational.gamma < 0.0) == (state == "e" and levels == 2)
    for x in (0.1, 0.5, 0.95, 1.0, 1.3, 2.7, 4.4):
        lam = x * lam_ref
        assert full.rational.value(lam) == pytest.approx(susceptance_value(full, lam), rel=1e-12)


def test_rational_form_takes_gamma_of_either_sign():
    for gamma in (-1.0, 0.0, 1.0):
        b = RationalBoundary(gamma=gamma)
        assert b.value(2.0) == -gamma and b.derivative(2.0) == 0.0


def test_full_form_builds_its_rational_form_once():
    """The full form is read through one RationalBoundary, built at
    construction from the susceptance terms, with gamma < 0 here."""
    ell, v = DEV.inductance_per_length, DEV.phase_velocity
    terms = ((2e-9, 9 * GHZ), (0.0, 11 * GHZ), (-1e-9, 8 * GHZ))
    full = FullSusceptanceBoundary(1e-15, terms, ell, v, ("ge", "off", "ef"))
    rational = full.rational
    assert isinstance(rational, RationalBoundary) and full.rational is rational
    assert rational.beta == ell * v ** 2 * 1e-15
    assert rational.gamma == -ell * (2e-9 + 0.0 - 1e-9) < 0.0
    # a zero-amplitude term is no pole, and the rest are sorted with their labels
    assert [(p.label, p.location, p.strength) for p in rational.poles] == [
        (label, (w / v) ** 2, -ell * amp * (w / v) ** 2)
        for amp, w, label in ((-1e-9, 8 * GHZ, "ef"), (2e-9, 9 * GHZ, "ge"))
    ]
    assert not rational.all_positive_residues
    assert math.isfinite(rational.value((11 * GHZ / v) ** 2))
    # value and derivative only delegate, guard included, which names the pole
    for x in (0.5, 1.5):
        lam = x * (9 * GHZ / v) ** 2
        assert full.value(lam) == rational.value(lam)
        assert full.derivative(lam) == rational.derivative(lam)
    with pytest.raises(PoleProximityError, match="pole ef") as exc:
        full.derivative((8 * GHZ / v) ** 2 * (1.0 + 1e-11))
    assert exc.value.nearest == "ef"
    # no second view of F: the solver takes the rational form itself
    for name in ("beta", "gamma", "poles", "all_positive_residues", "_guard"):
        assert not hasattr(full, name), name


def test_full_form_rejects_gamma():
    b = RationalBoundary(beta=0.0, gamma=1.0, poles=())
    with pytest.raises(ValueError):
        FullSusceptanceBoundary.from_rational(b, 1e-7, 1.2e8, 1e6)


def test_pole_amplitudes_shape_and_divergence():
    b = transmon_boundary(QUBIT, DEV)
    lam_q = b.poles[0].location
    amps_near = pole_amplitudes(b, lam_q * (1 + 1e-6), 1.0)
    amps_far = pole_amplitudes(b, lam_q * 1.5, 1.0)
    assert len(amps_near) == len(amps_far) == 1
    assert abs(amps_near[0]) > abs(amps_far[0])
    assert pole_amplitudes(b, lam_q * 1.5, 0.0) == (0.0,)
