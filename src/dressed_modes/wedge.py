"""Dirichlet modes of a wedge of opening angle Phi.

The sine modes sin(n*pi*phi/Phi) diagonalize the Laplacian on (0, Phi) with
walls held at zero. Acting with the bare first-derivative operator maps them
onto cosines, which are nonzero at both walls, so -i d/dphi does not preserve
the Dirichlet domain; only its square does. The modes' orthogonality is
checked by the textbook composite Simpson rule on a uniform grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def _simpson_rule(geom: WedgeGeometry):
    """The grid of the overlaps' composite Simpson rule on OVERLAP_PANELS
    panels and its weights h/3 (1, 4, 2, ..., 2, 4, 1), h = Phi/(2 panels)."""
    import numpy as np

    phi = np.linspace(0.0, geom.angle, 2 * OVERLAP_PANELS + 1)
    weights = np.full(phi.size, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    h = geom.angle / (2 * OVERLAP_PANELS)
    weights *= h / 3.0
    return phi, weights


def _overlap(sin_n, sin_m, weights) -> float:
    """The rule's sum of sin_n * sin_m, the modes sampled on its grid; the
    product comes first, so the sum is the same float with n and m swapped."""
    return float((sin_n * sin_m * weights).sum())


def sine_mode_overlap(n: int, m: int, geom: WedgeGeometry) -> float:
    """Composite Simpson quadrature, on OVERLAP_PANELS panels, of
    sin(mu_n phi) sin(mu_m phi) over (0, Phi), whose integral is
    (Phi/2) delta_nm."""
    import numpy as np

    _check_index(n)
    _check_index(m)
    phi, weights = _simpson_rule(geom)
    return _overlap(
        np.sin(azimuthal_wavenumber(n, geom) * phi),
        np.sin(azimuthal_wavenumber(m, geom) * phi),
        weights,
    )


def orthogonality_error(geom: WedgeGeometry, modes: int) -> float:
    """Largest |overlap(n, m) - (Phi/2) delta_nm| over 1 <= n, m <= modes.

    The rule and each mode's sine are set up once and each unordered pair is
    summed once, one pair at a time; every overlap equals
    sine_mode_overlap's bit for bit."""
    import numpy as np

    phi, weights = _simpson_rule(geom)
    sines = [np.sin(azimuthal_wavenumber(n, geom) * phi) for n in range(1, modes + 1)]
    del phi
    worst = 0.0
    for i, sin_n in enumerate(sines):
        worst = max(worst, abs(_overlap(sin_n, sin_n, weights) - geom.angle / 2.0))
        for sin_m in sines[i + 1:]:
            worst = max(worst, abs(_overlap(sin_n, sin_m, weights)))
    return worst
