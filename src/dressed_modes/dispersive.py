"""Dispersive-regime quantities.

Three routes to the qubit-state-dependent pull of a resonator mode:
the closed form chi = g^2 alpha / (Delta (Delta + alpha)), the first-order
perturbative shift evaluated from the boundary function at the bare mode,
and the exact half-difference of paired boundary-value solves with the
qubit prepared in g and in e.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

from .boundary import _tuned_transmon, resolved_coupling, sum_boundaries
from .errors import SolverError
from .params import DeviceParams, TransmonSpec, omega_to_lambda, lambda_to_omega
from .spectrum import solve_spectrum

RESONANCE_GUARD_REL = 1e-6   # reject detunings smaller than this, relative
DISPERSIVE_RATIO = 0.3       # |g / Delta| below this counts as dispersive


def dispersive_shift(g: float, delta: float, alpha: float) -> float:
    """Half the e/g splitting of the mode, g^2 alpha / (Delta (Delta + alpha)).

    delta is the qubit-mode detuning omega_q - omega_ref and alpha the
    (negative) anharmonicity. Vanishes with alpha: for a linear ancilla the
    absorption and emission pulls cancel exactly.
    """
    if delta == 0.0 or delta + alpha == 0.0:
        raise ValueError("dispersive shift undefined at zero detuning")
    return g * g * alpha / (delta * (delta + alpha))


def counter_rotating_shift(g: float, sigma: float, alpha: float) -> float:
    """The boundary model's first-order chi beyond the rotating wave,
    -g^2 alpha / (Sigma (Sigma + alpha)), with Sigma = omega_q + omega_ref:
    the closed form at the sum frequency, negated.

    Partial fractions of the qubit's pole term delta/(lam_q - lam) split the
    model's first-order chi into dispersive_shift(g, Delta, alpha) and this
    term; their sum is what dispersive_report's chi_perturbative evaluates.
    It falls off as 1/Sigma^2, so it fades against dispersive_shift as the
    mode frequency grows.
    """
    return -dispersive_shift(g, sigma, alpha)


def regime_flags(g: float, delta: float, alpha: float) -> dict[str, bool]:
    """|g / Delta| < DISPERSIVE_RATIO, and the mode between the g-e and e-f lines."""
    return {
        "dispersive": abs(g) < DISPERSIVE_RATIO * abs(delta),
        "straddling": delta * (delta + alpha) <= 0.0,
    }


def critical_photon_number(g: float, delta: float) -> float:
    """Photon number Delta^2 / (4 g^2) where the dispersive expansion fails."""
    if g == 0.0:
        return math.inf
    return delta * delta / (4.0 * g * g)


def perturbative_mode_shift(b, dev: DeviceParams) -> float:
    """First-order pull of the fundamental from the boundary function.

    delta_omega = -(v^2 / (omega_ref L)) F(lam_ref), with omega_ref the bare
    fundamental. Valid while the pull is small against the mode spacing and
    omega_ref is not near a pole of F.
    """
    omega_ref = dev.fundamental_frequency
    v = dev.phase_velocity
    lam_ref = omega_to_lambda(omega_ref, v)
    return -(v * v / (omega_ref * dev.length)) * b.value(lam_ref)


def _guard_detuning(delta: float, alpha: float, omega_ref: float):
    if abs(delta) < RESONANCE_GUARD_REL * omega_ref:
        raise ValueError("qubit degenerate with the mode; dispersive quantities undefined")
    if abs(delta + alpha) < RESONANCE_GUARD_REL * omega_ref:
        raise ValueError("e-f transition degenerate with the mode; dispersive quantities undefined")


def pulled_frequencies(dev: DeviceParams, specs, levels: int = 3) -> dict[str, float]:
    """Dressed frequency nearest the bare fundamental, per joint state.

    Every joint state is solved, keyed by one "g" or "e" per qubit in
    `specs`: ("g", "e") for one qubit, ("gg", "ge", "eg", "ee") for two.
    The qubits' boundary terms are summed and the full boundary-value
    problem is solved once per joint state, refining only the root nearest
    the fundamental (solve_spectrum's nearest_only): one refiner run, unless
    the other root's bracket reaches as close. That root is the solve's
    one record, and a solve that finds no root is a SolverError. Each
    qubit's boundary in g and in e is built before the first solve, from
    one _tuned_transmon set-up per qubit, and each joint state sums those
    same objects. A solve error keeps its type and names its joint state.
    """
    if not specs:
        raise ValueError("pulled_frequencies needs at least one qubit")
    v = dev.phase_velocity
    lam_ref = omega_to_lambda(dev.fundamental_frequency, v)
    qubits = []     # per qubit: state -> that qubit's boundary
    for spec in specs:
        boundary = _tuned_transmon(spec, dev, levels)
        qubits.append({state: boundary(spec.frequency, state) for state in "ge"})
    pulled = {}
    for joint in map("".join, product("ge", repeat=len(specs))):
        bnd = reduce(sum_boundaries, (q[state] for q, state in zip(qubits, joint)))
        try:
            sp = solve_spectrum(dev.length, bnd, near=lam_ref, nearest_only=True)
            if not sp.records:
                raise SolverError("spectrum is empty")
            pulled[joint] = lambda_to_omega(sp.records[0].lam, v)
        except SolverError as exc:
            raise type(exc)(f"{exc} in joint state {joint!r}") from None
    return pulled


def dispersive_shift_exact(
    dev: DeviceParams, spec: TransmonSpec, levels: int = 3
) -> tuple[float, float, float]:
    """(chi, ground pull, excited pull) from paired exact solves.

    Solves the full boundary-value problem twice, qubit in g then in e, and
    reads off the dressed frequency nearest the bare fundamental each time.
    chi is half the difference, the pulls are quoted against the bare mode.
    """
    omega_ref = dev.fundamental_frequency
    pulled = pulled_frequencies(dev, (spec,), levels)
    chi = 0.5 * (pulled["e"] - pulled["g"])
    return chi, pulled["g"] - omega_ref, pulled["e"] - omega_ref


@dataclass(frozen=True)
class DispersiveResult:
    chi: float               # closed form
    chi_exact: float         # paired solves, half-difference
    chi_perturbative: float  # first-order pole sum at the bare mode
    detuning: float
    anharmonicity: float
    coupling: float
    n_crit: float
    dispersive: bool         # |g / Delta| < DISPERSIVE_RATIO
    straddling: bool         # mode between the g-e and e-f transitions


def dispersive_report(dev: DeviceParams, spec: TransmonSpec, levels: int = 3) -> DispersiveResult:
    """chi three ways, with the regime flags: the closed form, the
    half-difference of paired exact solves, and half the difference of the
    first-order shifts of the qubit's e and g boundaries, built from one
    _tuned_transmon set-up."""
    omega_ref = dev.fundamental_frequency
    g = resolved_coupling(spec, dev)
    delta = spec.frequency - omega_ref
    alpha = spec.anharmonicity
    _guard_detuning(delta, alpha, omega_ref)
    chi = dispersive_shift(g, delta, alpha)
    chi_exact, _, _ = dispersive_shift_exact(dev, spec, levels=levels)
    boundary = _tuned_transmon(spec, dev, levels)
    chi_pert = 0.5 * (
        perturbative_mode_shift(boundary(spec.frequency, "e"), dev)
        - perturbative_mode_shift(boundary(spec.frequency, "g"), dev)
    )
    return DispersiveResult(
        chi=chi,
        chi_exact=chi_exact,
        chi_perturbative=chi_pert,
        detuning=delta,
        anharmonicity=alpha,
        coupling=g,
        n_crit=critical_photon_number(g, delta),
        **regime_flags(g, delta, alpha),
    )
