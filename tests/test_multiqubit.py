import inspect
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressed_modes import (
    GHZ,
    DeviceParams,
    SolverError,
    TransmonSpec,
    TwoQubitDispersiveModel,
    additivity_report,
    dispersive_hamiltonian,
    joint_parity,
    parity_hamiltonian,
    parity_operator,
    parity_report,
    pulled_frequencies,
    qnd_residual,
    single_qubit_commutators,
    state_frequencies,
    two_qubit_model,
)
from dressed_modes import dispersive
from dressed_modes.acceptance import check_two_qubit_structure
from dressed_modes.cli import main
from dressed_modes.dispersive import dispersive_report
from dressed_modes.multiqubit import STATES, _model_from_pulls

MHZ = GHZ / 1000.0

DEV = DeviceParams(length=3e-3, phase_velocity=1.2e8, impedance=50.0)
Q1 = TransmonSpec(state="g", frequency=9.0 * GHZ, anharmonicity=-0.25 * GHZ, coupling=0.1 * GHZ)
Q2 = TransmonSpec(state="g", frequency=8.6 * GHZ, anharmonicity=-0.22 * GHZ, coupling=0.12 * GHZ)

SAMPLE_CFG = str(Path(__file__).resolve().parent.parent / "sample_device.cfg")

chi_values = st.floats(min_value=-5.0 * MHZ, max_value=5.0 * MHZ)


def test_joint_parity():
    assert joint_parity("gg") == 1.0
    assert joint_parity("ee") == 1.0
    assert joint_parity("ge") == -1.0
    assert joint_parity("eg") == -1.0


def test_state_map_matched_shifts():
    chi = -2.0 * MHZ
    m = TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=chi, chi_2=chi)
    f = state_frequencies(m)
    # the two odd states collapse onto the bare line exactly
    assert f["ge"] == f["eg"] == m.center
    assert f["gg"] == m.center - 2.0 * chi
    assert f["ee"] == m.center + 2.0 * chi


def test_state_map_single_active_qubit():
    chi = 1.5 * MHZ
    m = TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=chi, chi_2=0.0)
    f = state_frequencies(m)
    assert f["gg"] == f["ge"] == m.center - chi
    assert f["eg"] == f["ee"] == m.center + chi


@settings(max_examples=50, deadline=None)
@given(chi_1=chi_values, chi_2=chi_values)
def test_state_map_swap_covariance(chi_1, chi_2):
    a = state_frequencies(TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=chi_1, chi_2=chi_2))
    b = state_frequencies(TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=chi_2, chi_2=chi_1))
    assert a["gg"] == b["gg"]
    assert a["ee"] == b["ee"]
    assert a["ge"] == b["eg"]
    assert a["eg"] == b["ge"]


def test_parity_gaps_closed_form():
    chi_1, chi_2 = -2.0 * MHZ, -0.7 * MHZ
    rep = parity_report(TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=chi_1, chi_2=chi_2))
    assert rep.odd_gap == 2.0 * abs(chi_1 - chi_2)
    assert rep.even_gap == 2.0 * abs(chi_1 + chi_2)
    assert not rep.odd_protected and not rep.even_protected
    # gaps agree with the frequency map itself
    assert rep.odd_gap == pytest.approx(
        abs(rep.frequencies["ge"] - rep.frequencies["eg"]), rel=1e-9
    )
    assert rep.even_gap == pytest.approx(
        abs(rep.frequencies["gg"] - rep.frequencies["ee"]), rel=1e-9
    )


def test_matched_qubits_protect_odd_sector():
    chi = -2.0 * MHZ
    rep = parity_report(TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=chi, chi_2=chi))
    assert rep.odd_gap == 0.0
    assert rep.odd_protected
    assert rep.even_gap == 4.0 * abs(chi)
    assert not rep.even_protected


def test_mirrored_qubits_protect_even_sector():
    chi = 1.3 * MHZ
    rep = parity_report(TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=chi, chi_2=-chi))
    assert rep.even_gap == 0.0
    assert rep.even_protected
    assert rep.odd_gap == 4.0 * abs(chi)
    assert not rep.odd_protected


@settings(max_examples=50, deadline=None)
@given(chi_1=chi_values, chi_2=chi_values)
def test_protection_iff_gap_closes(chi_1, chi_2):
    rep = parity_report(TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=chi_1, chi_2=chi_2))
    assert rep.odd_protected == (chi_1 == chi_2)
    assert rep.even_protected == (chi_1 == -chi_2)


def test_dispersive_hamiltonian_diagonal_and_parity_safe():
    m = TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=-2.0 * MHZ, chi_2=1.0 * MHZ)
    n_max = 3
    h = dispersive_hamiltonian(m, n_max)
    assert h.shape == (4 * (n_max + 1),) * 2
    assert np.all(h == np.diag(np.diag(h)))
    f = state_frequencies(m)
    # block for joint state s holds n * omega(s) on the photon ladder
    assert h[0, 0] == 0.0
    assert h[1, 1] == f["gg"]
    assert h[2, 2] == 2.0 * f["gg"]
    comm, _ = qnd_residual(m, n_max)
    assert comm == 0.0


def test_parity_hamiltonian_spectrum():
    center, chi_p = 10.0 * GHZ, -1.0 * MHZ
    m = TwoQubitDispersiveModel(center=center, chi_1=0.0, chi_2=0.0)
    h = parity_hamiltonian(m, chi_p, n_max=1)
    vals = np.sort(np.diag(h))
    want = np.sort([0.0, 0.0, 0.0, 0.0, center + chi_p, center + chi_p,
                    center - chi_p, center - chi_p])
    assert np.array_equal(vals, want)


def test_two_qubit_model_holds_only_what_the_solves_decide():
    """chi_p is a design input of parity_hamiltonian, not a model field."""
    assert [f.name for f in fields(TwoQubitDispersiveModel)] == ["center", "chi_1", "chi_2"]
    m = TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=1.0 * MHZ, chi_2=-3.0 * MHZ)
    # the single-qubit shifts do not enter the engineered Hamiltonian
    assert np.array_equal(
        parity_hamiltonian(m, 0.5 * MHZ, n_max=2),
        parity_hamiltonian(replace(m, chi_1=0.0, chi_2=0.0), 0.5 * MHZ, n_max=2),
    )


def test_parity_operator_shape():
    p = parity_operator(n_max=2)
    assert np.array_equal(p @ p, np.eye(12))
    assert set(np.diag(p)) == {1.0, -1.0}


@pytest.mark.parametrize("n_max", [0, -1, -3])
def test_photon_register_needs_a_photon_state(n_max):
    """parity_operator and single_qubit_commutators take the same register
    rule as both Hamiltonians; parity_operator used to return a 4x4 matrix
    at n_max = 0 and a 0x0 one below."""
    m = TwoQubitDispersiveModel(center=10.0 * GHZ, chi_1=1.0 * MHZ, chi_2=1.0 * MHZ)
    for build in (
        parity_operator,
        lambda n: dispersive_hamiltonian(m, n),
        lambda n: parity_hamiltonian(m, 0.5 * MHZ, n),
        lambda n: single_qubit_commutators(1.0 * MHZ, n),
    ):
        with pytest.raises(ValueError, match="^need at least one photon state$"):
            build(n_max)


def test_single_qubit_commutator_algebra():
    chi = 2.0 * MHZ
    n_max = 5
    norms = single_qubit_commutators(chi, n_max)
    assert norms["with_sz"] == 0.0
    assert norms["sx_identity_residual"] == 0.0
    assert norms["with_sx"] == 2.0 * chi * n_max
    # zero coupling leaves nothing to commute
    quiet = single_qubit_commutators(0.0, n_max)
    assert all(v == 0.0 for v in quiet.values())


def test_two_qubit_model_from_exact_solves():
    m = two_qubit_model(DEV, Q1, Q2)
    # both qubits below the mode push it up, leaving positive pulls and
    # negative chi on each
    assert m.chi_1 < 0.0 and m.chi_2 < 0.0
    assert m.center > DEV.fundamental_frequency
    # chi_1 matches a direct single-qubit dispersive estimate to a few percent
    from dressed_modes import dispersive_shift

    chi_cf = dispersive_shift(Q1.coupling, Q1.frequency - DEV.fundamental_frequency, Q1.anharmonicity)
    assert m.chi_1 == pytest.approx(chi_cf, rel=0.05)


def test_identical_qubits_give_bitwise_equal_chis():
    m = two_qubit_model(DEV, Q1, Q1)
    assert m.chi_1 == m.chi_2
    assert parity_report(m).odd_protected


def test_equal_specs_share_a_solve_bit_for_bit():
    """One shared pair of solves gives the model two separate pairs give."""
    apart = (pulled_frequencies(DEV, (Q1,)), pulled_frequencies(DEV, (Q1,)))
    assert repr(two_qubit_model(DEV, Q1, Q1)) == repr(
        _model_from_pulls(DEV.fundamental_frequency, apart)
    )


# Solves per call. The last three make up a readout benchmark operation:
# 2 + 4 + 8 = 14 solves, of 8 distinct boundaries.
SOLVE_COUNTS = {
    "two-qubit criterion": (check_two_qubit_structure, 8),
    "two_qubit_model, equal specs": (lambda: two_qubit_model(DEV, Q1, Q1), 2),
    "parity without q2 flags": (lambda: main(["parity", "--config", SAMPLE_CFG]), 2),
    "dispersive_report": (lambda: dispersive_report(DEV, Q1), 2),
    "two_qubit_model, distinct specs": (lambda: two_qubit_model(DEV, Q1, Q2), 4),
    "additivity_report": (lambda: additivity_report(DEV, Q1, Q2), 8),
}


@pytest.mark.parametrize("call, solves", SOLVE_COUNTS.values(), ids=SOLVE_COUNTS)
def test_solve_counts(call, solves, monkeypatch):
    made = []
    solve = dispersive.solve_spectrum

    def counting(*args, **kwargs):
        made.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dispersive, "solve_spectrum", counting)
    call()
    assert len(made) == solves


@pytest.mark.parametrize("specs", [()], ids=["no-qubits"])
def test_pulled_frequencies_validates_joint_label(specs):
    """With no qubit there is no joint state to solve; every other label is
    built by pulled_frequencies itself."""
    with pytest.raises(ValueError, match="at least one qubit"):
        pulled_frequencies(DEV, specs)


def test_pulled_frequencies_solves_every_joint_state():
    assert tuple(pulled_frequencies(DEV, (Q1,))) == ("g", "e")
    assert tuple(pulled_frequencies(DEV, (Q1, Q2))) == STATES
    assert "joints" not in inspect.signature(pulled_frequencies).parameters


def test_pulled_frequencies_builds_each_qubit_boundary_once(monkeypatch):
    """Two qubits have four joint states but four single-qubit boundaries:
    each is built once, when a joint state first needs it, and the joint
    states sum the same objects."""
    expected = pulled_frequencies(DEV, (Q1, Q2))
    built, summed = {}, []
    make, add = dispersive._boundary_in, dispersive.sum_boundaries

    def making(state, spec, dev, levels):
        b = built[spec.frequency, state] = make(state, spec, dev, levels)
        return b

    def adding(b1, b2):
        summed.append((b1, b2))
        return add(b1, b2)

    monkeypatch.setattr(dispersive, "_boundary_in", making)
    monkeypatch.setattr(dispersive, "sum_boundaries", adding)
    assert pulled_frequencies(DEV, (Q1, Q2)) == expected
    q1, q2 = Q1.frequency, Q2.frequency
    assert list(built) == [(q1, "g"), (q2, "g"), (q2, "e"), (q1, "e")]
    assert len(summed) == len(STATES)
    for (b1, b2), (s1, s2) in zip(summed, STATES):
        assert b1 is built[q1, s1] and b2 is built[q2, s2]


# The merge probe: at 10.5 GHz this coupling puts a root of the e-state
# solve where no root count can be certified.
PROBE_QUBIT = TransmonSpec(
    state="g", frequency=10.5 * GHZ, anharmonicity=-0.25 * GHZ,
    coupling=0.24563744061900487 * GHZ,
)


def test_pulled_frequencies_error_names_its_joint_state():
    with pytest.raises(SolverError, match=r"^no certified root count on .* in joint state 'e'$"):
        pulled_frequencies(DEV, (PROBE_QUBIT,), levels=2)


def test_state_map_labels_match_the_joint_solves():
    # both qubits below the mode: chi < 0 on each, and gg is the highest line
    predicted = state_frequencies(two_qubit_model(DEV, Q1, Q2))
    exact = pulled_frequencies(DEV, (Q1, Q2))
    for joint in STATES:
        nearest = min(STATES, key=lambda other: abs(predicted[joint] - exact[other]))
        assert nearest == joint


def test_additivity_report_additive_is_the_state_map():
    rep = additivity_report(DEV, Q1, Q2)
    assert rep.additive == state_frequencies(two_qubit_model(DEV, Q1, Q2))


def test_additivity_report_exact_is_the_joint_solve():
    rep = additivity_report(DEV, Q1, Q2)
    assert rep.exact == pulled_frequencies(DEV, (Q1, Q2))


def test_additivity_of_exact_joint_solves():
    rep = additivity_report(DEV, Q1, Q2)
    assert set(rep.exact) == set(STATES)
    # the additive picture holds to second order in chi over detuning
    scale = abs(rep.exact["ee"] - rep.exact["gg"])
    assert rep.max_abs_deviation < 0.05 * scale
    assert abs(rep.cross_term) <= rep.max_abs_deviation
    # exact parity gaps stay near the additive prediction
    m = two_qubit_model(DEV, Q1, Q2)
    pred = parity_report(m)
    assert rep.odd_gap_exact == pytest.approx(pred.odd_gap, rel=0.05)
    assert rep.even_gap_exact == pytest.approx(pred.even_gap, rel=0.05)
