"""spectrum._slope_bounds against the expressions it was written from.

The solver's slope bound was made cheaper without changing a float: every
(lower, upper) it returns, and so every cell, bracket and count of
isolation, must be bit-identical to the plain form kept here as the
oracle.
"""
import math
import random

import pytest

from dressed_modes import BoundaryPole, RationalBoundary, solve_spectrum, spectrum
from test_solver_pin import _boundary_draw
from test_spectrum import LENGTH, _emission_above_absorption, _oracle_roots

MIXED_DRAWS = 40


def _oracle_slope_bounds(length, b):
    """The slope bound as first written, with builtins max/min and the
    poles' attributes read on every cell."""
    beta, poles = b.beta, b.poles
    emission = [(p.location, -p.strength) for p in poles if p.strength < 0.0]
    slack = beta - length / 3.0
    sqrt, sin, inf, pi = math.sqrt, math.sin, math.inf, math.pi

    def bounds(x0, x1, lobe):
        upper = slack
        for loc, w in emission:
            d = max(loc - x1, x0 - loc)
            upper = upper + w / (d * d) if d else inf
        if upper < 0.0:
            return -inf, upper
        xi0, xi1 = sqrt(x0) * length, sqrt(x1) * length
        s0, s1 = sin(xi0) ** 2, sin(xi1) ** 2
        s_max = 1.0 if xi0 <= (lobe + 0.5) * pi <= xi1 else max(s0, s1)
        g_hi = min(-1.0 / 3.0, (0.5 * sin(2.0 * xi0) - xi0) / (2.0 * xi1 * s_max))
        g_lo = (0.5 * sin(2.0 * xi1) - xi1) / (2.0 * xi0 * min(s0, s1)) if xi0 else -inf
        if lobe == 0:
            g_lo = max(g_lo, -xi1 * xi1 / (3.0 * s1))
        lower, upper = beta + length * g_lo, beta + length * g_hi
        for p in poles:
            loc, s = p.location, p.strength
            near, far = max(loc - x1, x0 - loc), max(loc - x0, x1 - loc)
            t_near = -s / (near * near) if near else -math.copysign(inf, s)
            t_far = -s / (far * far)
            lower += min(t_near, t_far)
            upper += max(t_near, t_far)
        return lower, upper

    return bounds


def _mixed_boundaries():
    """Seeded draws of the solver pin's boundary space with residues of
    both signs."""
    rng = random.Random(20261019)
    found = []
    while len(found) < MIXED_DRAWS:
        bnd = _boundary_draw(rng)
        if bnd is not None and not bnd.all_positive_residues:
            found.append(bnd)
    return found


def _solve_cells(bnd, monkeypatch):
    """Every (x0, x1, lobe) a full solve of bnd asks the slope bound about."""
    cells, make = [], spectrum._slope_bounds

    def recording(length, b):
        bounds = make(length, b)

        def recorded(x0, x1, lobe):
            cells.append((x0, x1, lobe))
            return bounds(x0, x1, lobe)

        return recorded

    monkeypatch.setattr(spectrum, "_slope_bounds", recording)
    solve_spectrum(LENGTH, bnd)
    monkeypatch.undo()
    return cells


def test_slope_bounds_are_bit_identical_to_the_plain_form(monkeypatch):
    """Over the cells of full solves of seeded mixed-sign boundaries, the
    solver's bound returns the oracle's (lower, upper) bit for bit. The
    cells that reach the sharp bound include ones with an end on a pole
    (d = 0), ones in lobe 0, and ones straddling (lobe + 1/2) pi."""
    length = LENGTH
    seen = {"pole end": 0, "lobe 0": 0, "straddling": 0}
    total = 0
    for bnd in _mixed_boundaries():
        fast, plain = spectrum._slope_bounds(LENGTH, bnd), _oracle_slope_bounds(LENGTH, bnd)
        locations = {p.location for p in bnd.poles}
        for x0, x1, lobe in _solve_cells(bnd, monkeypatch):
            expected = plain(x0, x1, lobe)
            assert [x.hex() for x in fast(x0, x1, lobe)] == [x.hex() for x in expected]
            total += 1
            if expected[0] == -math.inf and expected[1] < 0.0:
                continue    # settled by the cheap bound
            seen["pole end"] += x0 in locations or x1 in locations
            seen["lobe 0"] += lobe == 0
            xi0, xi1 = math.sqrt(x0) * length, math.sqrt(x1) * length
            seen["straddling"] += xi0 <= (lobe + 0.5) * math.pi <= xi1
    assert total > 1000
    assert all(n > 0 for n in seen.values()), seen


@pytest.mark.parametrize("strength", [1.0, -1.0])
def test_slope_bounds_at_a_pole_end_match_the_plain_form(strength):
    """A cell with an end on an absorption or an emission pole: the pole's
    term is -/+inf there, on the same side as in the plain form."""
    lam_1 = (math.pi / (2.0 * LENGTH)) ** 2
    pole = BoundaryPole(2.0 * lam_1, strength * lam_1 / LENGTH)
    bnd = RationalBoundary(beta=LENGTH / 3.0, gamma=10.0, poles=(pole,))
    fast, plain = spectrum._slope_bounds(LENGTH, bnd), _oracle_slope_bounds(LENGTH, bnd)
    for x0, x1 in ((1.5 * lam_1, 2.0 * lam_1), (2.0 * lam_1, 2.5 * lam_1)):
        got = fast(x0, x1, 0)
        assert [x.hex() for x in got] == [x.hex() for x in plain(x0, x1, 0)]
        assert math.inf in map(abs, got)


def test_interval_above_an_emission_pole_settles_in_few_cells(monkeypatch):
    """A cell with the emission pole at one end is cut at the pole's reach,
    beyond which the cheap bound settles the far part in one call. Halved
    toward the pole instead, the interval above it took 19 slope-bound
    calls; the counts still match the dense-scan oracle's."""
    bnd = _emission_above_absorption()
    cells = _solve_cells(bnd, monkeypatch)
    sp = solve_spectrum(LENGTH, bnd)
    emission = next(p.location for p in bnd.poles if p.strength < 0.0)
    a, z = next(iv for iv in sp.intervals if iv[0] == emission)
    assert sum(a <= x0 and x1 <= z for x0, x1, _ in cells) <= 6
    roots = _oracle_roots(
        LENGTH, bnd.beta, bnd.gamma, [(p.location, p.strength) for p in bnd.poles], sp.lam_max
    )
    assert sp.counts == tuple(sum(x0 < r <= x1 for r in roots) for x0, x1 in sp.intervals)
