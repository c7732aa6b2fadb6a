"""State-dependent boundary response of the transmon port.

Linear response of the junction around an occupied transmon state |n> turns
the boundary condition into phi'(L)/phi(L) = F(lam) with a rational

    F(lam) = s*lam - gamma + sum_k delta_k / (lam_k - lam),   s = -beta

beta = C_J/c is the capacitive loading and s = RationalBoundary.affine_slope
is F's affine slope. beta's sign is written there alone: _rational, the one
expression of F and F', through which RationalBoundary and the solver in
spectrum.py both evaluate F, and the solver's slope bounds read s, never
beta.
The sign is disputed: Foster's reactance theorem (Bell Syst. Tech. J. 3,
259, 1924) has the F of a lossless port rise with lam, s = +beta, and a
fix is that one line. gamma is a constant offset of either sign (zero for
the transmon boundary; the full-susceptance form, read as a rational form,
has gamma = -ell sum_k A_k), and each pole sits at a transition
lam_k = (omega_nm / v)^2 with strength delta_k > 0 for absorption
(omega_nm > 0) and delta_k < 0 for emission. With every strength positive
each pole term rises monotonically to +inf as lam -> lam_k from below,
which is what pins exactly one dressed eigenvalue to every inter-pole
interval.

A pole location must be at least sqrt(sys.float_info.min)/POLE_GUARD_REL,
about 1.49e-145 1/m^2: below it (lam_k - lam)^2 in F' underflows to zero
just outside the pole guard, so RationalBoundary refuses such a location.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from .errors import PoleProximityError
from .params import HBAR, DeviceParams, TransmonSpec, _check_qubit_frequency, omega_to_lambda

# Relative guard around boundary poles, and the pole-distinctness floor.
POLE_GUARD_REL = 1e-9
# the least pole location whose squared guard distance is a normal float
_LOCATION_FLOOR = math.sqrt(sys.float_info.min) / POLE_GUARD_REL
_location = attrgetter("location")


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


class BoundaryPole(NamedTuple):
    location: float   # lam_k = (omega_nm / v)^2, 1/m^2
    strength: float   # signed residue, 1/m^3
    label: str = ""


@dataclass(frozen=True)
class RationalBoundary:
    """F(lam) = s*lam - gamma + sum_k delta_k / (lam_k - lam), with the
    affine slope s = affine_slope = -beta."""

    beta: float = 0.0
    gamma: float = 0.0
    poles: tuple[BoundaryPole, ...] = ()

    def __post_init__(self):
        # a NaN passes every comparison below and an inf breaks the solve
        isfinite = math.isfinite
        if not isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        kept = []
        for p in self.poles:
            if not isfinite(p.location):
                raise ValueError(f"pole location must be finite, got {p.location}")
            if not isfinite(p.strength):
                raise ValueError(f"pole strength must be finite, got {p.strength}")
            if p.strength != 0.0:
                kept.append(p)
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        for p in kept:
            if p.location <= 0.0:
                raise ValueError("pole locations must be positive")
            if p.location < _LOCATION_FLOOR:
                raise ValueError(
                    f"pole location {p.location} below the floor {_LOCATION_FLOOR:.3e} "
                    "(sqrt(sys.float_info.min)/POLE_GUARD_REL)"
                )
        if len(kept) > 1:    # a single pole needs no sort and has no neighbour
            kept.sort(key=_location)
            for a, b in zip(kept, kept[1:]):
                if b.location - a.location < POLE_GUARD_REL * b.location:
                    raise ValueError(
                        f"pole locations {a.location} and {b.location} closer than "
                        f"{POLE_GUARD_REL} relative"
                    )
        object.__setattr__(self, "poles", tuple(kept))

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

    @property
    def affine_slope(self) -> float:
        """s in F = s*lam - gamma + ...: the one place beta's sign is set."""
        return -self.beta

    def value(self, lam: float) -> float:
        self._guard(lam)
        return _rational(self.poles, self.affine_slope, self.gamma, lam)[0]

    def derivative(self, lam: float) -> float:
        self._guard(lam)
        return _rational(self.poles, self.affine_slope, self.gamma, lam)[1]


def _rational(poles, slope: float, gamma: float, lam: float) -> tuple[float, float]:
    """(F(lam), F'(lam)) of F = slope*lam - gamma + sum_k delta_k/(lam_k - lam)
    over `poles`, unguarded: the one expression of F and F'. value,
    derivative and the solver (spectrum._cleared_secular, over the poles
    that do not bound its interval, and spectrum._line_zero_step) call it."""
    f, fp = slope * lam - gamma, slope
    for p in poles:
        loc, s = p.location, p.strength
        f += s / (loc - lam)
        fp += s / ((loc - lam) * (loc - lam))
    return f, fp


@dataclass(frozen=True)
class FullSusceptanceBoundary:
    """Exact linear-response form, given in the susceptance shape

    F(lam) = s lam - sum_k ell v^2 A_k lam / (omega_k^2 - v^2 lam),
    s = -ell v^2 C_J

    and read only through `rational`, built once at construction. Since
    lam / (lam_k - lam) = lam_k / (lam_k - lam) - 1, F is exactly the
    RationalBoundary with beta = ell v^2 C_J (its affine_slope is s),
    gamma = -ell sum_k A_k (of either sign) and residues -ell A_k lam_k; a
    zero-amplitude term is no pole; solve_spectrum takes `rational`.
    Amplitudes are usually calibrated against a RationalBoundary at a
    reference eigenvalue (see from_rational).
    """

    junction_capacitance: float
    terms: tuple[tuple[float, float], ...]   # (amplitude A_k, omega_k)
    inductance_per_length: float
    phase_velocity: float
    labels: tuple[str, ...] = ()
    rational: RationalBoundary = field(init=False, repr=False, compare=False)

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
        ell, v = self.inductance_per_length, self.phase_velocity
        poles = []
        for (amp, omega), label in zip(self.terms, self.labels or ("",) * len(self.terms)):
            loc = (omega / v) ** 2
            poles.append(BoundaryPole(loc, -ell * amp * loc, label))
        object.__setattr__(self, "rational", RationalBoundary(
            beta=ell * v ** 2 * self.junction_capacitance,
            gamma=-ell * sum(amp for amp, _ in self.terms),
            poles=tuple(poles),
        ))

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

    # bench/tracing.py patches these two by name; nothing in the package calls them
    def value(self, lam: float) -> float:
        return self.rational.value(lam)

    def derivative(self, lam: float) -> float:
        return self.rational.derivative(lam)


def transmon_boundary(spec: TransmonSpec, dev: DeviceParams, levels: int = 2) -> RationalBoundary:
    """Boundary function for the occupied transmon state.

    Ground state: one absorption pole at the g-e transition. Excited state:
    an emission pole at g-e, plus (levels=3) an absorption pole at e-f with
    coupling sqrt(2) g at frequency omega_q + alpha. Strengths follow the
    transition-frequency residue formula, so the e-f strength is close to,
    but not exactly, twice the g-e one.
    """
    return _tuned_transmon(spec, dev, levels)(spec.frequency, spec.state)


def _tuned_transmon(spec: TransmonSpec, dev: DeviceParams, levels: int):
    """boundary(omega_q, state): transmon_boundary of spec with its qubit
    tuned to omega_q and in `state` ("g" or "e"), all else fixed. What
    depends on neither (the coupling, the line, beta) is worked out once:
    a sweep builds per grid point only the poles that move, and a readout
    builds a qubit's g and e boundaries from one set-up. A call checks
    omega_q as TransmonSpec checks a frequency, then levels, so it raises
    what transmon_boundary would for that frequency and state.
    """
    L, v, alpha = dev.length, dev.phase_velocity, spec.anharmonicity
    g = resolved_coupling(spec, dev)
    beta = 0.0
    if spec.junction_capacitance is not None:
        beta = spec.junction_capacitance / dev.capacitance_per_length

    def boundary(omega_q, state: str) -> RationalBoundary:
        _check_qubit_frequency(omega_q)
        if levels not in (2, 3):
            raise ValueError("levels must be 2 or 3")
        lam_q = omega_to_lambda(omega_q, v)
        delta_ge = pole_strength_from_coupling(g, omega_q, L, v)
        if state != "e":
            poles = (BoundaryPole(lam_q, delta_ge, "ge"),)
        else:
            poles = (BoundaryPole(lam_q, -delta_ge, "eg"),)
            if levels == 3:
                omega_ef = omega_q + alpha    # TransmonSpec.ef_frequency
                if omega_ef <= 0.0:
                    raise ValueError("e-f transition frequency must stay positive")
                lam_ef = omega_to_lambda(omega_ef, v)
                delta_ef = pole_strength_from_coupling(math.sqrt(2.0) * g, omega_ef, L, v)
                poles += (BoundaryPole(lam_ef, delta_ef, "ef"),)
        return RationalBoundary(beta, 0.0, poles)

    return boundary


def sum_boundaries(b1: RationalBoundary, b2: RationalBoundary) -> RationalBoundary:
    """Combined response of two transmons on the same port: F1 + F2.

    Coincident poles (within the distinctness floor) merge by adding
    strengths.
    """
    merged: list[BoundaryPole] = list(b1.poles)
    for p in b2.poles:
        for i, q in enumerate(merged):
            if abs(p.location - q.location) < POLE_GUARD_REL * q.location:
                merged[i] = q._replace(strength=q.strength + p.strength)
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
