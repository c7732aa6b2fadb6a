"""Two transmons on one line: joint readout map and parity structure.

Each qubit pulls the shared mode by its own dispersive shift
chi = (omega_e - omega_g) / 2: a qubit in e pulls the mode by +chi from its
mean, one in g by -chi. To leading order the pulls add, so the four joint
states split into an even manifold {gg, ee} separated by 2|chi_1 + chi_2|
and an odd manifold {ge, eg} separated by 2|chi_1 - chi_2|. Matched shifts
leave the odd pair unresolved by the readout, which is what makes a parity
measurement possible. `state_frequencies` is the one additive map; it is
checked against exact solves with both boundary terms summed.

Solves: `two_qubit_model` solves each qubit in g and in e (4 solves), or
once for both when the two specs are equal (2 solves), and
`additivity_report` adds the 4 joint solves. Both are thin wrappers over
builders that take pulls already solved (`_model_from_pulls`,
`_additivity_from`), so a caller holding the single-qubit and joint pulls,
as the acceptance gate does, builds every report from 8 solves.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dispersive import pulled_frequencies
from .params import DeviceParams, TransmonSpec

STATES = ("gg", "ge", "eg", "ee")
# readout map sign convention: a qubit in g enters with s = +1
SIGMA = {"g": 1.0, "e": -1.0}


def joint_parity(joint: str) -> float:
    return SIGMA[joint[0]] * SIGMA[joint[1]]


@dataclass(frozen=True)
class TwoQubitDispersiveModel:
    """What the solves decide; an engineered chi_p is parity_hamiltonian's input."""

    center: float   # mode frequency with both qubits' mean pulls absorbed
    chi_1: float
    chi_2: float


def state_frequencies(model: TwoQubitDispersiveModel) -> dict[str, float]:
    """Readout frequencies omega(s1 s2) = center - (chi_1 s1 + chi_2 s2).

    s is +1 for a qubit in g and -1 in e, so a qubit in e pulls the mode by
    +chi, the sign of chi itself. With both qubits below the mode (chi < 0
    on each) gg is the highest line.
    """
    out = {}
    for joint in STATES:
        s1, s2 = SIGMA[joint[0]], SIGMA[joint[1]]
        # qubit contribution grouped first: matched shifts cancel exactly
        out[joint] = model.center - (model.chi_1 * s1 + model.chi_2 * s2)
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


def _photons(n_max: int) -> range:
    """Photon numbers 0..n_max of the readout register, n_max >= 1."""
    if n_max < 1:
        raise ValueError("need at least one photon state")
    return range(n_max + 1)


def _photon_ladder(freqs: dict[str, float], n_max: int) -> np.ndarray:
    """Diagonal n * freqs[joint] on {gg, ge, eg, ee} x {0..n_max} photons."""
    import numpy as np

    photons = _photons(n_max)
    return np.diag([n * freqs[joint] for joint in STATES for n in photons])


def dispersive_hamiltonian(model: TwoQubitDispersiveModel, n_max: int) -> np.ndarray:
    """Diagonal readout Hamiltonian on {gg, ge, eg, ee} x {0..n_max} photons.

    Entry for (joint state, n) is n * omega(s1 s2). Qubit self-energies are
    left out; only the state-dependent mode frequency matters here.
    """
    return _photon_ladder(state_frequencies(model), n_max)


def parity_hamiltonian(model: TwoQubitDispersiveModel, chi_p: float, n_max: int) -> np.ndarray:
    """Engineered parity-only variant: entries n * (center + chi_p * parity).

    chi_p is a design input, not a solve result: linear single-qubit terms
    are suppressed by construction, so only model.center is read. Even
    states sit together at n (center + chi_p), odd ones at n (center - chi_p).
    """
    freqs = {joint: model.center + chi_p * joint_parity(joint) for joint in STATES}
    return _photon_ladder(freqs, n_max)


def parity_operator(n_max: int) -> np.ndarray:
    """sigma_z sigma_z stretched over the photon register, diagonal +-1."""
    import numpy as np

    photons = _photons(n_max)
    return np.diag(np.repeat([joint_parity(joint) for joint in STATES], len(photons)))


def qnd_residual(model: TwoQubitDispersiveModel, n_max: int) -> tuple[float, float]:
    """(commutator norm, Hamiltonian norm) for [H_disp, P (x) I].

    Both matrices are diagonal, so the commutator vanishes identically; the
    norms are returned so callers can quote the relative residual.
    """
    import numpy as np

    h = dispersive_hamiltonian(model, n_max)
    p = parity_operator(n_max)
    comm = h @ p - p @ h
    return float(np.max(np.abs(comm))), float(np.max(np.abs(h)))


def single_qubit_commutators(chi: float, n_max: int) -> dict[str, float]:
    """Max-entry norms of the commutators of H_int = chi sz (x) n.

    Every matrix element is chi times a small integer, so the zeros are
    exact in floating point, not merely small:
      with_sz            [H_int, sz (x) 1] = 0
      with_sx            [H_int, sx (x) 1], equals 2 |chi| n_max for chi != 0
      sx_identity_residual   [H_int, sx (x) 1] - 2i chi (sy (x) n) = 0
    """
    import numpy as np

    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    photons = _photons(n_max)
    nhat = np.diag(np.array(photons, dtype=float)).astype(complex)
    iph = np.eye(len(photons), dtype=complex)
    h_int = chi * np.kron(sz, nhat)

    def comm(a, b):
        return a @ b - b @ a

    def peak(m):
        return float(np.max(np.abs(m)))

    with_sx = comm(h_int, np.kron(sx, iph))
    return {
        "with_sz": peak(comm(h_int, np.kron(sz, iph))),
        "with_sx": peak(with_sx),
        "sx_identity_residual": peak(with_sx - 2.0j * chi * np.kron(sy, nhat)),
    }


def _model_from_pulls(omega_bare: float, pulls) -> TwoQubitDispersiveModel:
    """Additive model from each qubit's pulls, as `pulled_frequencies`
    returns them for that qubit alone (keys "g" and "e")."""
    center = omega_bare
    chis = []
    for pulled in pulls:
        chis.append(0.5 * (pulled["e"] - pulled["g"]))
        center += 0.5 * (pulled["e"] + pulled["g"]) - omega_bare
    return TwoQubitDispersiveModel(center=center, chi_1=chis[0], chi_2=chis[1])


def two_qubit_model(
    dev: DeviceParams,
    spec_1: TransmonSpec,
    spec_2: TransmonSpec,
    levels: int = 3,
) -> TwoQubitDispersiveModel:
    """Additive model from two independent single-qubit exact solves.

    Each qubit is solved in g and in e. Equal specs share one pair of
    solves, so matched qubits give bitwise-equal chi values by
    construction, which is what the exact-degeneracy parity flags rely on.
    """
    pulled_1 = pulled_frequencies(dev, (spec_1,), levels)
    pulled_2 = pulled_1 if spec_2 == spec_1 else pulled_frequencies(dev, (spec_2,), levels)
    return _model_from_pulls(dev.fundamental_frequency, (pulled_1, pulled_2))


@dataclass(frozen=True)
class AdditivityReport:
    exact: dict[str, float]
    additive: dict[str, float]
    max_abs_deviation: float
    cross_term: float        # (gg - ge - eg + ee)/4 from the exact solves
    odd_gap_exact: float
    even_gap_exact: float


def _additivity_from(additive: dict[str, float], exact: dict[str, float]) -> AdditivityReport:
    """Compare the additive map with the exact joint pulls, both keyed by STATES."""
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


def additivity_report(
    dev: DeviceParams,
    spec_1: TransmonSpec,
    spec_2: TransmonSpec,
    levels: int = 3,
) -> AdditivityReport:
    """Exact joint solves against the additive readout map.

    The additive prediction is `state_frequencies` of `two_qubit_model`,
    built from single-qubit solves: 4 of them for distinct specs (2 for
    equal ones), then 4 joint solves. The cross term vanishes identically
    in any additive model, so its exact-solve value measures the
    qubit-qubit piece directly.
    """
    additive = state_frequencies(two_qubit_model(dev, spec_1, spec_2, levels))
    return _additivity_from(additive, pulled_frequencies(dev, (spec_1, spec_2), levels))
