"""State-dependent boundary response of the transmon port.

Linear response of the junction around an occupied transmon state |n> turns
the boundary condition into phi'(L)/phi(L) = F(lam) with a rational

    F(lam) = -beta*lam - gamma + sum_k delta_k / (lam_k - lam)

beta = C_J/c is the capacitive loading, gamma is a constant offset (zero
for the transmon boundary; the full-susceptance form, read as a rational
form, has gamma = -ell sum_k A_k), and each pole sits at a transition
lam_k = (omega_nm / v)^2 with strength delta_k > 0 for absorption
(omega_nm > 0) and delta_k < 0 for emission. With every strength positive
each pole term rises monotonically to +inf as lam -> lam_k from below, which
is what pins exactly one dressed eigenvalue to every inter-pole interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import PoleProximityError
from .params import HBAR, DeviceParams, TransmonSpec, omega_to_lambda

# Relative guard around boundary poles, and the pole-distinctness floor.
POLE_GUARD_REL = 1e-9


def pole_strength_from_coupling(g: float, omega_signed: float, length: float, v: float) -> float:
    """Residue of one transition pole: sign(omega) * 2 L g^2 omega^2 / v^4.

    `omega_signed` is the transition frequency, positive for absorption from
    the occupied state, negative for emission into it.
    """
    if g < 0.0:
        raise ValueError("coupling must be nonnegative")
    if omega_signed == 0.0:
        raise ValueError("transition frequency must be nonzero")
    mag = 2.0 * length * g * g * omega_signed * omega_signed / v ** 4
    return math.copysign(mag, omega_signed)


def coupling_from_charge(charge: float, omega_r: float, dev: DeviceParams) -> float:
    """Vacuum Rabi rate g = |Q| sqrt(omega_r / (2 hbar c L))."""
    if charge < 0.0:
        raise ValueError("charge element must be nonnegative")
    if omega_r <= 0.0:
        raise ValueError("reference frequency must be positive")
    return charge * math.sqrt(omega_r / (2.0 * HBAR * dev.total_capacitance))


def resolved_coupling(spec: TransmonSpec, dev: DeviceParams) -> float:
    """The g a charge entry implies at the fundamental, or the stated g."""
    if spec.coupling is not None:
        return spec.coupling
    return coupling_from_charge(spec.charge_element, dev.fundamental_frequency, dev)


def charge_from_coupling(g: float, omega_r: float, dev: DeviceParams) -> float:
    """Inverse of coupling_from_charge."""
    if g < 0.0:
        raise ValueError("coupling must be nonnegative")
    if omega_r <= 0.0:
        raise ValueError("reference frequency must be positive")
    return g * math.sqrt(2.0 * HBAR * dev.total_capacitance / omega_r)


def pole_strength_from_charge(charge: float, omega_r: float, v: float, impedance: float) -> float:
    """Absorption residue written in terms of the charge matrix element.

    Composing the coupling definition with the residue formula gives
    delta = omega_r^3 |Q|^2 Z0 / (hbar v^3); this matches
    pole_strength_from_coupling(coupling_from_charge(...)) identically.
    """
    if charge < 0.0:
        raise ValueError("charge element must be nonnegative")
    if omega_r <= 0.0:
        raise ValueError("frequency must be positive")
    return omega_r ** 3 * charge * charge * impedance / (HBAR * v ** 3)


@dataclass(frozen=True)
class BoundaryPole:
    location: float   # lam_k = (omega_nm / v)^2, 1/m^2
    strength: float   # signed residue, 1/m^3
    label: str = ""


def _validate_poles(poles: tuple[BoundaryPole, ...]):
    for p in poles:
        if p.location <= 0.0:
            raise ValueError("pole locations must be positive")
    ordered = sorted(poles, key=lambda p: p.location)
    for a, b in zip(ordered, ordered[1:]):
        if b.location - a.location < POLE_GUARD_REL * b.location:
            raise ValueError(
                f"pole locations {a.location} and {b.location} closer than "
                f"{POLE_GUARD_REL} relative"
            )


@dataclass(frozen=True)
class RationalBoundary:
    """F(lam) = -beta*lam - gamma + sum_k delta_k / (lam_k - lam)."""

    beta: float = 0.0
    gamma: float = 0.0
    poles: tuple[BoundaryPole, ...] = ()

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        kept = tuple(p for p in self.poles if p.strength != 0.0)
        _validate_poles(kept)
        object.__setattr__(self, "poles", tuple(sorted(kept, key=lambda p: p.location)))

    @property
    def all_positive_residues(self) -> bool:
        return all(p.strength > 0.0 for p in self.poles)

    def _guard(self, lam: float):
        for p in self.poles:
            if abs(lam - p.location) < POLE_GUARD_REL * p.location:
                raise PoleProximityError(
                    f"evaluation within {POLE_GUARD_REL} relative of pole "
                    f"{p.label or p.location}",
                    nearest=p.label,
                    location=p.location,
                )

    def value(self, lam: float) -> float:
        self._guard(lam)
        acc = -self.beta * lam - self.gamma
        for p in self.poles:
            acc += p.strength / (p.location - lam)
        return acc

    def derivative(self, lam: float) -> float:
        self._guard(lam)
        acc = -self.beta
        for p in self.poles:
            acc += p.strength / (p.location - lam) ** 2
        return acc


@dataclass(frozen=True)
class FullSusceptanceBoundary:
    """Exact linear-response form, poles kept in the susceptance shape.

    F(lam) = -ell v^2 lam C_J - sum_k ell v^2 A_k lam / (omega_k^2 - v^2 lam).

    Since lam / (lam_k - lam) = lam_k / (lam_k - lam) - 1, this is exactly
    the rational form with beta = ell v^2 C_J, gamma = -ell sum_k A_k and
    residues -ell A_k lam_k, the properties the solver reads. Amplitudes are
    usually calibrated against a RationalBoundary at a reference eigenvalue
    (see from_rational).
    """

    junction_capacitance: float
    terms: tuple[tuple[float, float], ...]   # (amplitude A_k, omega_k)
    inductance_per_length: float
    phase_velocity: float
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.junction_capacitance < 0.0:
            raise ValueError("junction capacitance must be nonnegative")
        if self.inductance_per_length <= 0.0 or self.phase_velocity <= 0.0:
            raise ValueError("line constants must be positive")
        for _, omega in self.terms:
            if omega <= 0.0:
                raise ValueError("transition frequencies must be positive")
        if self.labels and len(self.labels) != len(self.terms):
            raise ValueError("labels must match terms")
        _validate_poles(self.poles)

    @classmethod
    def from_rational(cls, b: RationalBoundary, ell: float, v: float, lam_ref: float):
        """Calibrate amplitudes so both forms agree exactly at lam_ref.

        Matching -ell A_k lam_ref / (lam_k - lam) to delta_k / (lam_k - lam)
        gives A_k = -delta_k / (ell lam_ref). The affine part maps through
        C_J = beta / (ell v^2); a gamma term has no susceptance counterpart.
        """
        if b.gamma != 0.0:
            raise ValueError("gamma term has no susceptance representation")
        if lam_ref <= 0.0:
            raise ValueError("reference eigenvalue must be positive")
        c_j = b.beta / (ell * v * v)
        terms = tuple(
            (-p.strength / (ell * lam_ref), v * math.sqrt(p.location)) for p in b.poles
        )
        return cls(
            junction_capacitance=c_j,
            terms=terms,
            inductance_per_length=ell,
            phase_velocity=v,
            labels=tuple(p.label for p in b.poles),
        )

    @property
    def beta(self) -> float:
        """Slope ell v^2 C_J of the equivalent rational form."""
        return self.inductance_per_length * self.phase_velocity ** 2 * self.junction_capacitance

    @property
    def gamma(self) -> float:
        """Constant -ell sum_k A_k of the equivalent rational form, either sign."""
        return -self.inductance_per_length * sum(amp for amp, _ in self.terms)

    @property
    def poles(self) -> tuple[BoundaryPole, ...]:
        out = []
        for i, (amp, omega) in enumerate(self.terms):
            loc = (omega / self.phase_velocity) ** 2
            label = self.labels[i] if self.labels else ""
            out.append(
                BoundaryPole(loc, -self.inductance_per_length * amp * loc, label)
            )
        return tuple(sorted(out, key=lambda p: p.location))

    @property
    def all_positive_residues(self) -> bool:
        return all(p.strength > 0.0 for p in self.poles)

    def _guard(self, lam: float):
        v2 = self.phase_velocity ** 2
        for _, omega in self.terms:
            if abs(v2 * lam - omega * omega) < POLE_GUARD_REL * omega * omega:
                raise PoleProximityError(
                    f"evaluation within {POLE_GUARD_REL} relative of pole at "
                    f"omega={omega}",
                    location=(omega / self.phase_velocity) ** 2,
                )

    def value(self, lam: float) -> float:
        self._guard(lam)
        v2 = self.phase_velocity ** 2
        lv2 = self.inductance_per_length * v2
        acc = -lv2 * lam * self.junction_capacitance
        for amp, omega in self.terms:
            acc -= lv2 * amp * lam / (omega * omega - v2 * lam)
        return acc

    def derivative(self, lam: float) -> float:
        self._guard(lam)
        v2 = self.phase_velocity ** 2
        lv2 = self.inductance_per_length * v2
        acc = -lv2 * self.junction_capacitance
        for amp, omega in self.terms:
            w2 = omega * omega
            acc -= lv2 * amp * w2 / (w2 - v2 * lam) ** 2
        return acc


def transmon_boundary(spec: TransmonSpec, dev: DeviceParams, levels: int = 2) -> RationalBoundary:
    """Boundary function for the occupied transmon state.

    Ground state: one absorption pole at the g-e transition. Excited state:
    an emission pole at g-e, plus (levels=3) an absorption pole at e-f with
    coupling sqrt(2) g at frequency omega_q + alpha. Strengths follow the
    transition-frequency residue formula, so the e-f strength is close to,
    but not exactly, twice the g-e one.
    """
    if levels not in (2, 3):
        raise ValueError("levels must be 2 or 3")
    L, v = dev.length, dev.phase_velocity
    g = resolved_coupling(spec, dev)
    lam_q = omega_to_lambda(spec.frequency, v)
    delta_ge = pole_strength_from_coupling(g, spec.frequency, L, v)
    if spec.state == "g":
        poles = (BoundaryPole(lam_q, delta_ge, "ge"),)
    else:
        poles = (BoundaryPole(lam_q, -delta_ge, "eg"),)
        if levels == 3:
            omega_ef = spec.ef_frequency
            if omega_ef <= 0.0:
                raise ValueError("e-f transition frequency must stay positive")
            lam_ef = omega_to_lambda(omega_ef, v)
            delta_ef = pole_strength_from_coupling(math.sqrt(2.0) * g, omega_ef, L, v)
            poles += (BoundaryPole(lam_ef, delta_ef, "ef"),)
    beta = 0.0
    if spec.junction_capacitance is not None:
        beta = spec.junction_capacitance / dev.capacitance_per_length
    return RationalBoundary(beta=beta, gamma=0.0, poles=poles)


def sum_boundaries(b1: RationalBoundary, b2: RationalBoundary) -> RationalBoundary:
    """Combined response of two transmons on the same port: F1 + F2.

    Coincident poles (within the distinctness floor) merge by adding
    strengths.
    """
    merged: list[BoundaryPole] = list(b1.poles)
    for p in b2.poles:
        for i, q in enumerate(merged):
            if abs(p.location - q.location) < POLE_GUARD_REL * q.location:
                merged[i] = replace(q, strength=q.strength + p.strength)
                break
        else:
            merged.append(p)
    return RationalBoundary(
        beta=b1.beta + b2.beta,
        gamma=b1.gamma + b2.gamma,
        poles=tuple(merged),
    )


def pole_amplitudes(b: RationalBoundary, lam: float, phi_end: float) -> tuple[float, ...]:
    """Transmon-side components sqrt(|delta_k|) phi(L) / (lam - lam_k).

    These complete a dressed eigenvector: the line part is the sine mode, and
    each pole contributes one amplitude that diverges as the eigenvalue
    approaches the transition.
    """
    b._guard(lam)
    return tuple(
        math.sqrt(abs(p.strength)) * phi_end / (lam - p.location) for p in b.poles
    )
