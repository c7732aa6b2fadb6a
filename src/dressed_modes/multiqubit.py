"""Two transmons on one line: joint readout map and parity structure.

Each qubit pulls the shared mode by its own dispersive shift. To leading
order the pulls add, so the four joint states split into an even manifold
{gg, ee} separated by 2|chi_1 + chi_2| and an odd manifold {ge, eg}
separated by 2|chi_1 - chi_2|. Matched shifts leave the odd pair
unresolved by the readout, which is what makes a parity measurement
possible. The additive picture is checked against exact solves with both
boundary terms summed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersive import pulled_frequencies
from .params import DeviceParams, TransmonSpec

STATES = ("gg", "ge", "eg", "ee")
# readout map sign convention: a qubit in g enters with s = +1
SIGMA = {"g": 1.0, "e": -1.0}


def joint_parity(joint: str) -> float:
    return SIGMA[joint[0]] * SIGMA[joint[1]]


@dataclass(frozen=True)
class TwoQubitDispersiveModel:
    center: float   # mode frequency with both qubits' mean pulls absorbed
    chi_1: float
    chi_2: float
    chi_p: float | None = None   # engineered parity-only shift, if any


def state_frequencies(model: TwoQubitDispersiveModel) -> dict[str, float]:
    """Readout frequencies omega(s1 s2) = center + chi_1 s1 + chi_2 s2.

    s is +1 for a qubit in g and -1 in e. This orientation is the mirror
    image of the convention behind chi itself (where the excited state
    pulls by +chi); gaps, manifolds and parity structure do not depend on
    the choice.
    """
    out = {}
    for joint in STATES:
        s1, s2 = SIGMA[joint[0]], SIGMA[joint[1]]
        # qubit contribution grouped first: matched shifts cancel exactly
        out[joint] = model.center + (model.chi_1 * s1 + model.chi_2 * s2)
    return out


@dataclass(frozen=True)
class ParityReport:
    frequencies: dict[str, float]
    odd_gap: float          # |omega(ge) - omega(eg)| = 2 |chi_1 - chi_2|
    even_gap: float         # |omega(gg) - omega(ee)| = 2 |chi_1 + chi_2|
    odd_protected: bool     # ge/eg coherence dephasing-free: gap exactly zero
    even_protected: bool


def parity_report(model: TwoQubitDispersiveModel) -> ParityReport:
    """Manifold gaps and which coherences the readout leaves untouched.

    Protection is an exact degeneracy statement, so the flags test for a
    gap of exactly zero. Matched shifts produced by identical inputs give
    bitwise-equal chi values and do flag as protected.
    """
    freqs = state_frequencies(model)
    # gaps from the shifts themselves, not frequency differences, so the
    # matched case comes out exactly 0 / exactly 4 chi in floating point
    odd = 2.0 * abs(model.chi_1 - model.chi_2)
    even = 2.0 * abs(model.chi_1 + model.chi_2)
    return ParityReport(
        frequencies=freqs,
        odd_gap=odd,
        even_gap=even,
        odd_protected=odd == 0.0,
        even_protected=even == 0.0,
    )


def dispersive_hamiltonian(model: TwoQubitDispersiveModel, n_max: int) -> np.ndarray:
    """Diagonal readout Hamiltonian on {gg, ge, eg, ee} x {0..n_max} photons.

    Entry for (joint state, n) is n * omega(s1 s2). Qubit self-energies are
    left out; only the state-dependent mode frequency matters here.
    """
    if n_max < 1:
        raise ValueError("need at least one photon state")
    freqs = state_frequencies(model)
    diag = []
    for joint in STATES:
        for n in range(n_max + 1):
            diag.append(n * freqs[joint])
    return np.diag(diag)


def parity_hamiltonian(model: TwoQubitDispersiveModel, n_max: int) -> np.ndarray:
    """Engineered parity-only variant: entries n * (center + chi_p * parity).

    Linear single-qubit terms are absent by construction, so even states sit
    together at n (center + chi_p) and odd states at n (center - chi_p).
    """
    if model.chi_p is None:
        raise ValueError("model carries no engineered parity shift")
    if n_max < 1:
        raise ValueError("need at least one photon state")
    diag = []
    for joint in STATES:
        omega = model.center + model.chi_p * joint_parity(joint)
        for n in range(n_max + 1):
            diag.append(n * omega)
    return np.diag(diag)


def parity_operator(n_max: int) -> np.ndarray:
    """sigma_z sigma_z stretched over the photon register, diagonal +-1."""
    diag = []
    for joint in STATES:
        diag.extend([joint_parity(joint)] * (n_max + 1))
    return np.diag(diag)


def qnd_residual(model: TwoQubitDispersiveModel, n_max: int) -> tuple[float, float]:
    """(commutator norm, Hamiltonian norm) for [H_disp, P (x) I].

    Both matrices are diagonal, so the commutator vanishes identically; the
    norms are returned so callers can quote the relative residual.
    """
    h = dispersive_hamiltonian(model, n_max)
    p = parity_operator(n_max)
    comm = h @ p - p @ h
    return float(np.max(np.abs(comm))), float(np.max(np.abs(h)))


_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def single_qubit_commutators(chi: float, n_max: int) -> dict[str, float]:
    """Max-entry norms of the commutators of H_int = chi sz (x) n.

    Every matrix element is chi times a small integer, so the zeros are
    exact in floating point, not merely small:
      with_sz            [H_int, sz (x) 1] = 0
      with_sx            [H_int, sx (x) 1], equals 2 |chi| n_max for chi != 0
      sx_identity_residual   [H_int, sx (x) 1] - 2i chi (sy (x) n) = 0
    """
    if n_max < 1:
        raise ValueError("need at least one photon state")
    nhat = np.diag(np.arange(n_max + 1, dtype=float)).astype(complex)
    iph = np.eye(n_max + 1, dtype=complex)
    h_int = chi * np.kron(_SZ, nhat)

    def comm(a, b):
        return a @ b - b @ a

    def peak(m):
        return float(np.max(np.abs(m)))

    with_sx = comm(h_int, np.kron(_SX, iph))
    return {
        "with_sz": peak(comm(h_int, np.kron(_SZ, iph))),
        "with_sx": peak(with_sx),
        "sx_identity_residual": peak(with_sx - 2.0j * chi * np.kron(_SY, nhat)),
    }


def two_qubit_model(
    dev: DeviceParams,
    spec_1: TransmonSpec,
    spec_2: TransmonSpec,
    levels: int = 3,
) -> TwoQubitDispersiveModel:
    """Additive model from two independent single-qubit exact solves.

    Identical specs produce bitwise-identical chi values, which is what the
    exact-degeneracy parity flags rely on.
    """
    omega_bare = dev.fundamental_frequency
    center = omega_bare
    chis = []
    for spec in (spec_1, spec_2):
        pulled = pulled_frequencies(dev, (spec,), ("g", "e"), levels)
        chis.append(0.5 * (pulled["e"] - pulled["g"]))
        center += 0.5 * (pulled["e"] + pulled["g"]) - omega_bare
    return TwoQubitDispersiveModel(center=center, chi_1=chis[0], chi_2=chis[1])


def joint_state_frequency(
    dev: DeviceParams,
    spec_1: TransmonSpec,
    spec_2: TransmonSpec,
    joint: str,
    levels: int = 3,
) -> float:
    """Dressed mode frequency with the qubits held in the given joint state.

    Both boundary terms are summed before solving, so nothing here assumes
    additivity of the pulls.
    """
    if joint not in STATES:
        raise ValueError(f"joint state must be one of {STATES}")
    return pulled_frequencies(dev, (spec_1, spec_2), (joint,), levels)[joint]


@dataclass(frozen=True)
class AdditivityReport:
    exact: dict[str, float]
    additive: dict[str, float]
    max_abs_deviation: float
    cross_term: float        # (gg - ge - eg + ee)/4 from the exact solves
    odd_gap_exact: float
    even_gap_exact: float


def additivity_report(
    dev: DeviceParams,
    spec_1: TransmonSpec,
    spec_2: TransmonSpec,
    levels: int = 3,
) -> AdditivityReport:
    """Exact joint solves against the sum of individual pulls.

    The additive prediction is omega_bare + pull_1(s1) + pull_2(s2) with
    each pull taken from a single-qubit solve. The cross term vanishes
    identically in any additive model, so its exact-solve value measures
    the qubit-qubit piece directly.
    """
    omega_bare = dev.fundamental_frequency
    pulls = [
        pulled_frequencies(dev, (spec,), ("g", "e"), levels)
        for spec in (spec_1, spec_2)
    ]
    exact = {}
    additive = {}
    for joint in STATES:
        exact[joint] = joint_state_frequency(dev, spec_1, spec_2, joint, levels)
        additive[joint] = pulls[0][joint[0]] + pulls[1][joint[1]] - omega_bare
    deviation = max(abs(exact[s] - additive[s]) for s in STATES)
    cross = 0.25 * (exact["gg"] - exact["ge"] - exact["eg"] + exact["ee"])
    return AdditivityReport(
        exact=exact,
        additive=additive,
        max_abs_deviation=deviation,
        cross_term=cross,
        odd_gap_exact=abs(exact["ge"] - exact["eg"]),
        even_gap_exact=abs(exact["gg"] - exact["ee"]),
    )
