import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressed_modes import (
    WedgeGeometry,
    azimuthal_wavenumber,
    derivative_wall_values,
    laplacian_eigenvalue,
    orthogonality_error,
    sine_mode_overlap,
)
from dressed_modes.wedge import OVERLAP_PANELS


def test_wavenumbers_exact():
    geom = WedgeGeometry(angle=1.3)
    for n in range(1, 8):
        assert azimuthal_wavenumber(n, geom) == n * math.pi / 1.3


def test_laplacian_eigenvalue_is_minus_mu_squared():
    geom = WedgeGeometry(angle=math.pi / 2)
    for n in range(1, 6):
        mu = azimuthal_wavenumber(n, geom)
        assert laplacian_eigenvalue(n, geom) == -(mu**2)
        assert laplacian_eigenvalue(n, geom) < 0.0


def test_derivative_image_alive_at_both_walls():
    geom = WedgeGeometry(angle=2.1)
    for n in range(1, 7):
        at_zero, at_angle = derivative_wall_values(n, geom)
        assert at_zero == 1.0
        assert abs(at_angle) == 1.0
        # cos(n*pi) alternates with mode parity
        assert at_angle == (1.0 if n % 2 == 0 else -1.0)


def test_orthogonality_against_quadrature():
    geom = WedgeGeometry(angle=1.3)
    for n in range(1, 6):
        for m in range(1, 6):
            got = sine_mode_overlap(n, m, geom)
            want = geom.angle / 2.0 if n == m else 0.0
            assert got == pytest.approx(want, abs=1e-9)


def test_overlap_symmetric_in_indices():
    geom = WedgeGeometry(angle=0.7)
    assert sine_mode_overlap(2, 5, geom) == sine_mode_overlap(5, 2, geom)


def test_full_circle_angle_allowed():
    geom = WedgeGeometry(angle=2.0 * math.pi)
    assert sine_mode_overlap(1, 1, geom) == pytest.approx(math.pi, abs=1e-9)


def test_geometry_validation():
    with pytest.raises(ValueError):
        WedgeGeometry(angle=0.0)
    with pytest.raises(ValueError):
        WedgeGeometry(angle=-1.0)
    with pytest.raises(ValueError):
        WedgeGeometry(angle=2.0 * math.pi + 0.1)


def test_index_validation():
    geom = WedgeGeometry(angle=1.0)
    with pytest.raises(ValueError):
        azimuthal_wavenumber(0, geom)
    with pytest.raises(ValueError):
        derivative_wall_values(-1, geom)


@settings(max_examples=20, deadline=None)
@given(
    angle=st.floats(min_value=0.2, max_value=2.0 * math.pi),
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=6),
)
def test_overlap_property(angle, n, m):
    geom = WedgeGeometry(angle=angle)
    want = angle / 2.0 if n == m else 0.0
    assert sine_mode_overlap(n, m, geom) == pytest.approx(want, abs=1e-8)


def _per_pair_overlap(n, m, geom):
    """Reference: the textbook composite Simpson rule, h/3 (1, 4, 2, ..., 2,
    4, 1), its grid, weights and both sines built afresh for one pair."""
    import numpy as np

    phi = np.linspace(0.0, geom.angle, 2 * OVERLAP_PANELS + 1)
    y = np.sin(azimuthal_wavenumber(n, geom) * phi) * np.sin(
        azimuthal_wavenumber(m, geom) * phi
    )
    h = geom.angle / (2 * OVERLAP_PANELS)
    weights = np.array([1.0] + [4.0, 2.0] * (OVERLAP_PANELS - 1) + [4.0, 1.0]) * (h / 3.0)
    return float(np.sum(y * weights))


@pytest.mark.parametrize("angle", [1e-3, 0.37, 1.3, 2.0, math.pi, 4.4, 5.9, 2.0 * math.pi])
def test_shared_setup_is_the_per_pair_quadrature_bit_for_bit(angle):
    geom = WedgeGeometry(angle=angle)
    modes = 7
    reference = {
        (n, m): _per_pair_overlap(n, m, geom)
        for n in range(1, modes + 1) for m in range(1, modes + 1)
    }
    for (n, m), want in reference.items():
        assert sine_mode_overlap(n, m, geom) == want
    for count in range(1, modes + 1):
        want = max(
            abs(reference[n, m] - (angle / 2.0 if n == m else 0.0))
            for n in range(1, count + 1) for m in range(1, count + 1)
        )
        assert orthogonality_error(geom, count) == want
