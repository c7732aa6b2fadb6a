import math

import numpy as np
import pytest

from dressed_modes import (
    PoleProximityError,
    ShortedLine,
    default_lam_max,
    dirichlet_poles,
    line_log_deriv,
    line_log_deriv_dlam,
    quarterwave_zeros,
)

L = 3e-3


def test_value_at_zero_lambda():
    assert line_log_deriv(0.0, L) == pytest.approx(1.0 / L, rel=1e-15)


def test_pole_and_zero_locations():
    poles = dirichlet_poles(L, 4)
    zeros = quarterwave_zeros(L, 4)
    for k, p in enumerate(poles, start=1):
        assert p == pytest.approx((k * math.pi / L) ** 2, rel=1e-15)
    for k, z in enumerate(zeros, start=1):
        assert z == pytest.approx(((2 * k - 1) * math.pi / (2 * L)) ** 2, rel=1e-15)
    # zeros interlace poles
    assert zeros[0] < poles[0] < zeros[1] < poles[1]


def test_function_vanishes_at_quarterwave_zeros():
    for z in quarterwave_zeros(L, 6):
        assert abs(line_log_deriv(z, L)) < 1e-9 / L


def test_derivative_at_zeros_is_minus_half_length():
    """The slope at every bare mode is exactly -L/2."""
    for z in quarterwave_zeros(L, 6):
        d = line_log_deriv_dlam(z, L)
        assert abs(d + L / 2.0) <= 1e-12 * (L / 2.0)


def test_derivative_at_origin():
    assert line_log_deriv_dlam(0.0, L) == pytest.approx(-L / 3.0, rel=1e-12)


def test_series_branch_matches_direct_formula():
    # crossover is at xi = 1e-2; both branches must agree on either side
    for xi in (0.00999, 0.01001, 0.005, 0.02):
        lam = (xi / L) ** 2
        direct = (
            math.cos(xi) / math.sin(xi) / (2.0 * math.sqrt(lam))
            - (L / 2.0) / math.sin(xi) ** 2
        )
        assert line_log_deriv_dlam(lam, L) == pytest.approx(direct, rel=1e-6)


def test_derivative_against_finite_differences():
    rng = np.random.default_rng(11)
    poles = dirichlet_poles(L, 7)
    lam_hi = default_lam_max(L) * 0.97
    checked = 0
    while checked < 300:
        lam = float(rng.uniform(1e3, lam_hi))
        if any(abs(lam - p) < 1e-3 * p for p in poles):
            continue
        checked += 1
        h = 3e-7 * lam
        fd = (line_log_deriv(lam + h, L) - line_log_deriv(lam - h, L)) / (2 * h)
        exact = line_log_deriv_dlam(lam, L)
        assert fd == pytest.approx(exact, rel=1e-6)


def test_derivative_is_negative_everywhere_between_poles():
    rng = np.random.default_rng(5)
    poles = dirichlet_poles(L, 7)
    for _ in range(200):
        lam = float(rng.uniform(10.0, default_lam_max(L)))
        if any(abs(lam - p) < 1e-6 * p for p in poles):
            continue
        assert line_log_deriv_dlam(lam, L) < 0.0


def test_pole_proximity_raises():
    p1 = dirichlet_poles(L, 1)[0]
    with pytest.raises(PoleProximityError) as info:
        line_log_deriv(p1, L)
    assert info.value.nearest == 1
    assert info.value.location == pytest.approx(p1)
    with pytest.raises(PoleProximityError):
        line_log_deriv_dlam(p1 * (1.0 + 1e-12), L)


def test_large_values_flanking_a_pole():
    # strictly decreasing on each interval: falls to -inf into a pole,
    # re-enters at +inf above it
    p2 = dirichlet_poles(L, 2)[1]
    below = line_log_deriv(p2 * (1.0 - 1e-7), L)
    above = line_log_deriv(p2 * (1.0 + 1e-7), L)
    assert below < -1e5 / L
    assert above > 1e5 / L


def test_negative_lambda_rejected():
    with pytest.raises(ValueError):
        line_log_deriv(-1.0, L)


def test_shorted_line_keeps_only_its_length_and_the_traced_kernel():
    """What bench/tracing.py patches by name, and the length check; the
    solver's helpers are free functions of the length."""
    line = ShortedLine(L)
    assert line.log_deriv(1e5) == line_log_deriv(1e5, L)
    assert line.dlog_deriv(1e5) == line_log_deriv_dlam(1e5, L)
    assert not hasattr(line, "poles") and not hasattr(line, "default_lam_max")
    for bad in (0.0, -L):
        with pytest.raises(ValueError, match="length must be positive"):
            ShortedLine(bad)


def test_default_lam_max_clears_sixth_pole():
    lam_max = default_lam_max(L)
    assert lam_max < (6 * math.pi / L) ** 2
    # still above the sixth quarter-wave zero
    assert lam_max > quarterwave_zeros(L, 6)[-1]
