"""Log-derivative of the shorted line's mode function at the open end.

With phi(x) = sin(sqrt(lam) x) on (0, L), the ratio phi'(L)/phi(L) equals
sqrt(lam) * cot(sqrt(lam) L). Eigenvalues of the dressed problem are the
solutions of log_deriv(lam) = boundary.value(lam). The ratio has poles at
the Dirichlet values (k pi / L)^2 and zeros at the quarter-wave values
((2k-1) pi / (2L))^2, and is strictly decreasing between poles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PoleProximityError

# Absolute guard in xi = sqrt(lam)*L around the poles xi = k*pi.
XI_POLE_GUARD = 1e-9

# Below this xi the closed form for the derivative cancels catastrophically;
# switch to the Taylor series of xi*cot(xi).
_XI_SERIES = 1e-2


def _xi_checked(lam: float, length: float) -> float:
    if lam < 0.0:
        raise ValueError("spectral parameter must be nonnegative")
    xi = math.sqrt(lam) * length
    k = round(xi / math.pi)
    if k >= 1 and abs(xi - k * math.pi) < XI_POLE_GUARD:
        raise PoleProximityError(
            f"evaluation within {XI_POLE_GUARD} of Dirichlet pole k={k}",
            nearest=k,
            location=(k * math.pi / length) ** 2,
        )
    return xi


def line_log_deriv(lam: float, length: float) -> float:
    """phi'(L)/phi(L) = sqrt(lam) cot(sqrt(lam) L), extended to 1/L at lam = 0."""
    if length <= 0.0:
        raise ValueError("length must be positive")
    # _xi_checked's guard, inline on this hot path; the call only raises
    if lam < 0.0:
        _xi_checked(lam, length)
    xi = math.sqrt(lam) * length
    k = round(xi / math.pi)
    if k >= 1 and abs(xi - k * math.pi) < XI_POLE_GUARD:
        _xi_checked(lam, length)
    if xi == 0.0:
        return 1.0 / length
    return (xi * math.cos(xi) / math.sin(xi)) / length


def line_log_deriv_dlam(lam: float, length: float) -> float:
    """d/dlam of line_log_deriv: cot(xi)/(2 sqrt(lam)) - (L/2) csc(xi)^2.

    Equals exactly -L/2 at the quarter-wave zeros and -L/3 at lam = 0.
    """
    if length <= 0.0:
        raise ValueError("length must be positive")
    xi = _xi_checked(lam, length)
    if xi < _XI_SERIES:
        # series of d/dlam [(xi cot xi)/L] with xi^2 = lam L^2
        l3 = length ** 3
        return -length / 3.0 - 2.0 * lam * l3 / 45.0 - 2.0 * lam ** 2 * l3 * length ** 2 / 315.0
    s = math.sin(xi)
    cot = math.cos(xi) / s
    return cot / (2.0 * math.sqrt(lam)) - (length / 2.0) / (s * s)


def dirichlet_poles(length: float, count: int) -> list[float]:
    """First `count` poles (k pi / L)^2, k = 1..count."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [(k * math.pi / length) ** 2 for k in range(1, count + 1)]


def quarterwave_zeros(length: float, count: int) -> list[float]:
    """First `count` zeros ((2k-1) pi / (2L))^2, k = 1..count."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [((2 * k - 1) * math.pi / (2.0 * length)) ** 2 for k in range(1, count + 1)]


def default_lam_max(length: float) -> float:
    """Truncation just below the sixth Dirichlet pole."""
    return (6.0 * math.pi / length) ** 2 * (1.0 - 1e-6)


@dataclass(frozen=True)
class ShortedLine:
    """Line of length L, shorted at x=0, with the transmon port at x=L.

    The solver takes the length itself; this class is kept only because
    bench/tracing.py counts kernel calls by patching log_deriv and
    dlog_deriv here by name."""

    length: float

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("length must be positive")

    def log_deriv(self, lam: float) -> float:
        return line_log_deriv(lam, self.length)

    def dlog_deriv(self, lam: float) -> float:
        return line_log_deriv_dlam(lam, self.length)
