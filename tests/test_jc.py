"""Reference-model checks.

The cavity-plus-ancilla matrix model is the independent oracle used by the
acceptance tests, so it gets its own closed-form verification here: the
single-excitation block must reproduce the textbook two-level eigenvalues,
and the dispersive shift extracted from labeled energies must match the
exact expression obtained by diagonalizing the first two excitation blocks
by hand.
"""

import math

import numpy as np
import pytest

from dressed_modes import (
    GHZ,
    JCModel,
    LabelingError,
    build_hamiltonian,
    diagonalize,
    dispersive_shift_numeric,
    dressed_energies,
    dressed_pair,
    jc_branch_sweep,
)

W_R = 10.0 * GHZ
W_Q = 9.0 * GHZ
G = 0.1 * GHZ


def test_dressed_pair_matches_matrix_block():
    h = np.array([[W_R, G], [G, W_Q]])
    vals = np.sort(np.linalg.eigvalsh(h))
    lo, hi = dressed_pair(W_R, W_Q, G)
    assert lo == pytest.approx(vals[0], rel=1e-14)
    assert hi == pytest.approx(vals[1], rel=1e-14)
    assert hi - lo >= abs(2.0 * G)


def test_ground_energy_is_zero():
    model = JCModel(omega_r=W_R, omega_q=W_Q, g=G, n_max=6)
    energies = dressed_energies(model)
    assert energies[(0, 0)] == pytest.approx(0.0, abs=1e-6 * W_R)


def test_single_excitation_energies():
    model = JCModel(omega_r=W_R, omega_q=W_Q, g=G, n_max=8)
    energies = dressed_energies(model)
    lo, hi = dressed_pair(W_R, W_Q, G)
    # qubit sits below the cavity, so the e-like state is the lower branch
    assert energies[(1, 0)] == pytest.approx(lo, rel=1e-12)
    assert energies[(0, 1)] == pytest.approx(hi, rel=1e-12)


def test_hamiltonian_conserves_excitation_number():
    model = JCModel(omega_r=W_R, omega_q=W_Q, g=G, levels=3, alpha=-0.25 * GHZ, n_max=4)
    h = build_hamiltonian(model)
    nph = model.n_max + 1
    for j in range(model.levels):
        for n in range(nph):
            for jp in range(model.levels):
                for np_ in range(nph):
                    if j + n != jp + np_:
                        assert h[j * nph + n, jp * nph + np_] == 0.0


def test_two_level_shift_matches_hand_diagonalization():
    delta = W_Q - W_R
    r1 = math.sqrt(delta * delta / 4.0 + G * G)
    r2 = math.sqrt(delta * delta / 4.0 + 2.0 * G * G)
    # E(e,1)-E(e,0) - (E(g,1)-E(g,0)) with adiabatic branch assignment, delta < 0
    chi_hand = 0.5 * ((W_R - r2 + r1) - (W_R + delta / 2.0 + r1))
    model = JCModel(omega_r=W_R, omega_q=W_Q, g=G, n_max=12)
    assert dispersive_shift_numeric(model) == pytest.approx(chi_hand, rel=1e-10)
    # and the leading-order expansion is g^2/Delta
    assert chi_hand == pytest.approx(G * G / delta, rel=0.05)


def test_shift_converged_in_cutoff():
    lo = dispersive_shift_numeric(JCModel(omega_r=W_R, omega_q=W_Q, g=G, n_max=5))
    hi = dispersive_shift_numeric(JCModel(omega_r=W_R, omega_q=W_Q, g=G, n_max=12))
    assert lo == pytest.approx(hi, rel=1e-9)


def test_three_level_shift_tracks_closed_form():
    alpha = -0.25 * GHZ
    delta = W_Q - W_R
    model = JCModel(omega_r=W_R, omega_q=W_Q, g=G, alpha=alpha, levels=3, n_max=10)
    chi_cf = G * G * alpha / (delta * (delta + alpha))
    assert dispersive_shift_numeric(model) == pytest.approx(chi_cf, rel=0.05)


def test_diagonalize_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_labeling_fails_under_strong_mixing():
    # resonant three-level ladder with alpha = 0: bare states hybridize
    # three ways and no dressed state keeps majority character
    model = JCModel(omega_r=W_R, omega_q=W_R, g=0.3 * W_R, alpha=0.0, levels=3, n_max=6)
    with pytest.raises(LabelingError):
        dressed_energies(model)


def test_branch_sweep_brackets_and_self_comparison():
    grid = np.linspace(8.0 * GHZ, 12.0 * GHZ, 21)
    sweep = jc_branch_sweep(W_R, grid, G)
    assert np.all(sweep.upper > sweep.lower)
    assert np.min(sweep.gap) == pytest.approx(2.0 * G, rel=1e-9)


def test_branch_sweep_reads_an_iterator_grid_once():
    """A one-pass iterator gives the sweep of the same grid as a list."""
    grid = [8.0 * GHZ, 10.0 * GHZ, 12.0 * GHZ]
    assert jc_branch_sweep(W_R, (w for w in grid), G) == jc_branch_sweep(W_R, grid, G)


def test_model_validation():
    with pytest.raises(ValueError):
        JCModel(omega_r=-W_R, omega_q=W_Q, g=G)
    with pytest.raises(ValueError):
        JCModel(omega_r=W_R, omega_q=W_Q, g=G, levels=4)
    with pytest.raises(ValueError):
        JCModel(omega_r=W_R, omega_q=W_Q, g=G, n_max=0)
