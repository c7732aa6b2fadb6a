"""Dirichlet modes of a wedge of opening angle Phi.

The sine modes sin(n*pi*phi/Phi) diagonalize the Laplacian on (0, Phi) with
walls held at zero. Acting with the bare first-derivative operator maps them
onto cosines, which are nonzero at both walls, so -i d/dphi does not preserve
the Dirichlet domain; only its square does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OVERLAP_PANELS = 10_000   # Simpson panels of sine_mode_overlap


@dataclass(frozen=True)
class WedgeGeometry:
    """Opening angle of the wedge, 0 < angle <= 2*pi."""

    angle: float

    def __post_init__(self):
        if not 0.0 < self.angle <= 2.0 * math.pi:
            raise ValueError("angle must lie in (0, 2*pi]")


def _check_index(n: int):
    if not isinstance(n, int) or n < 1:
        raise ValueError("mode index must be an integer >= 1")


def azimuthal_wavenumber(n: int, geom: WedgeGeometry) -> float:
    """Quantized wavenumber mu_n = n*pi/Phi of the n-th sine mode."""
    _check_index(n)
    return n * math.pi / geom.angle


def laplacian_eigenvalue(n: int, geom: WedgeGeometry) -> float:
    """Eigenvalue -mu_n^2 of d^2/dphi^2 on the n-th mode."""
    return -azimuthal_wavenumber(n, geom) ** 2


def derivative_wall_values(n: int, geom: WedgeGeometry) -> tuple[float, float]:
    """Wall values (phi=0, phi=Phi) of the derivative image cos(mu_n*phi).

    Both magnitudes are 1, showing the image leaves the Dirichlet domain.
    """
    _check_index(n)
    return math.cos(0.0), math.cos(n * math.pi)


def sine_mode_overlap(n: int, m: int, geom: WedgeGeometry) -> float:
    """Quadrature of sin(mu_n phi) sin(mu_m phi) over (0, Phi).

    Composite Simpson on OVERLAP_PANELS panels; equals (Phi/2) delta_nm exactly.
    Each panel is weighted by its own two grid steps h0, h1 (equal up to the
    rounding of the grid), (h0 + h1)/6 * (y0 (2 - h1/h0) + y1 (h0 + h1)^2/(h0 h1)
    + y2 (2 - h0/h1)), which is 1, 4, 1 times h/3 when they are equal.
    """
    _check_index(n)
    _check_index(m)
    phi = np.linspace(0.0, geom.angle, 2 * OVERLAP_PANELS + 1)
    y = np.sin(azimuthal_wavenumber(n, geom) * phi) * np.sin(
        azimuthal_wavenumber(m, geom) * phi
    )
    h = np.diff(phi)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    ratio = h0 / h1
    weighted = hsum / 6.0 * (
        y[:-2:2] * (2.0 - 1.0 / ratio)
        + y[1::2] * (hsum * (hsum / (h0 * h1)))
        + y[2::2] * (2.0 - ratio)
    )
    return float(np.sum(weighted))


def orthogonality_error(geom: WedgeGeometry, modes: int) -> float:
    """Largest |overlap(n, m) - (Phi/2) delta_nm| over 1 <= n, m <= modes."""
    worst = 0.0
    for n in range(1, modes + 1):
        for m in range(1, modes + 1):
            ref = geom.angle / 2.0 if n == m else 0.0
            worst = max(worst, abs(sine_mode_overlap(n, m, geom) - ref))
    return worst
