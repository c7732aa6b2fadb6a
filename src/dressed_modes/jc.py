"""Truncated Jaynes-Cummings ladder, diagonalized directly.

Independent cross-check for the boundary-value solver: a single resonator
mode with frequency omega_r coupled to a two- or three-level transmon under
the rotating-wave approximation. Excitation number is conserved, the ground
state energy is exactly zero, so eigenvalues double as transition
frequencies from the ground state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import LabelingError
from .params import _check_finite
from .spectrum import CrossingSweep

SYMMETRY_TOL = 1e-12
OVERLAP_FLOOR = 0.5   # squared overlap below this breaks adiabatic labeling


@dataclass(frozen=True)
class JCModel:
    omega_r: float
    omega_q: float
    g: float
    alpha: float = 0.0
    levels: int = 2
    n_max: int = 10

    def __post_init__(self):
        for f in fields(self):
            _check_finite(f.name, getattr(self, f.name))
        if self.levels not in (2, 3):
            raise ValueError("levels must be 2 or 3")
        if self.n_max < 1:
            raise ValueError("need at least one photon state")
        if self.omega_r <= 0.0 or self.omega_q <= 0.0:
            raise ValueError("frequencies must be positive")

    @property
    def dim(self) -> int:
        return self.levels * (self.n_max + 1)


def dressed_pair(omega_r: float, omega_q: float, g: float) -> tuple[float, float]:
    """Single-excitation doublet, omega_r + Delta/2 -+ sqrt(Delta^2/4 + g^2)."""
    delta = omega_q - omega_r
    root = math.sqrt(0.25 * delta * delta + g * g)
    center = omega_r + 0.5 * delta
    return center - root, center + root


def build_hamiltonian(model: JCModel) -> np.ndarray:
    import numpy as np

    nph = model.n_max + 1
    h = np.zeros((model.dim, model.dim))
    bare = [0.0, model.omega_q, 2.0 * model.omega_q + model.alpha][: model.levels]
    ladder = [model.g, math.sqrt(2.0) * model.g][: model.levels - 1]
    for j in range(model.levels):
        for n in range(nph):
            i = j * nph + n
            h[i, i] = n * model.omega_r + bare[j]
            if j + 1 < model.levels and n >= 1:
                k = (j + 1) * nph + (n - 1)
                h[i, k] = h[k, i] = ladder[j] * math.sqrt(n)
    return h


def diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    scale = max(float(np.linalg.norm(h)), 1.0)
    if float(np.linalg.norm(h - h.T)) > SYMMETRY_TOL * scale:
        raise ValueError("hamiltonian lost symmetry")
    return np.linalg.eigh(h)


def dressed_energies(model: JCModel) -> dict[tuple[int, int], float]:
    """Eigenenergies keyed by the bare state each eigenvector tracks.

    Each bare basis state claims the eigenvector with which it overlaps
    most. Raises LabelingError if the best squared overlap drops below
    OVERLAP_FLOOR or two bare states claim the same eigenvector, both of
    which happen once the coupling stops being a dressing correction.
    Every state is labeled in one pass over the overlap matrix; the error
    names the first failing state in ladder order.
    """
    import numpy as np

    vals, vecs = diagonalize(build_hamiltonian(model))
    weights = vecs ** 2
    best = weights.argmax(axis=1)
    overlap = weights.max(axis=1)
    if overlap.min() < OVERLAP_FLOOR or np.bincount(best).max() > 1:
        _refuse_labels(model, best, overlap)
    nph = model.n_max + 1
    states = [(j, n) for j in range(model.levels) for n in range(nph)]
    return dict(zip(states, vals[best].tolist()))


def _refuse_labels(model: JCModel, best, overlap) -> None:
    """Raise the LabelingError of the first bare state, in ladder order,
    whose claim fails."""
    taken: dict[int, tuple[int, int]] = {}
    nph = model.n_max + 1
    for j in range(model.levels):
        for n in range(nph):
            i = j * nph + n
            k = int(best[i])
            if overlap[i] < OVERLAP_FLOOR:
                raise LabelingError(
                    f"bare state (j={j}, n={n}) has no dominant eigenvector "
                    f"(best overlap^2 = {overlap[i]:.3f})"
                )
            if k in taken:
                raise LabelingError(
                    f"eigenvector {k} claimed by both {taken[k]} and (j={j}, n={n})"
                )
            taken[k] = (j, n)


def dispersive_shift_numeric(model: JCModel) -> float:
    """Half the e/g difference of the dressed cavity frequency."""
    energy = dressed_energies(model)
    omega_for_g = energy[(0, 1)] - energy[(0, 0)]
    omega_for_e = energy[(1, 1)] - energy[(1, 0)]
    return 0.5 * (omega_for_e - omega_for_g)


def jc_branch_sweep(omega_r: float, omega_q_values, g: float) -> CrossingSweep:
    """Single-excitation branches across the crossing, closed form per point."""
    grid = tuple(omega_q_values)
    lower = []
    upper = []
    for wq in grid:
        lo, hi = dressed_pair(omega_r, wq, g)
        lower.append(lo)
        upper.append(hi)
    return CrossingSweep(
        qubit_frequency=grid,
        lower=tuple(lower),
        upper=tuple(upper),
    )
