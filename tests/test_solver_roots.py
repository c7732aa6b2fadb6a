"""Roots of the solver pin's draws, held to their true roots.

The bit pin (test_solver_pin.py) holds every bit of what the solver
returns on its draws, but a change meant to alter results rewrites it.
This module bounds the root values that such a rewrite cannot move: each
checked record lies within its refiner's stopping width and its rounding
floor of its root at 50 digits, found by oracle.mp_root from the record's
isolation bracket and never from the solver's root, so the bound stays
true whatever the refiner.

The bound is |lam - lam*| <= 4 eps lam* + oracle.rounding_floor(lam*). The
first term is the refiner's stop on a sign bracket at most 2 tol = 4 eps |x|
wide, the second how far the rounding of H moves a float root.
"""
import sys

import mpmath

import test_solver_pin
from dressed_modes import SolverError, spectrum
from oracle import mp_root, rounding_floor

# The pin's boundary draws held to their true roots: the first TRUTH_DRAWS
# that solve, and three with a root where c*H is flat to its rounding error
# over more floats than the refiner's stop is wide. Their rounding floor
# there is 11 to 137 eps lam*, against the stop's 4 eps lam*.
TRUTH_DRAWS = 30
FLAT_DRAWS = (137, 206, 295)


def _off_true_root(length, b, record) -> float:
    """|lam - lam*| of a record over its bound; at most 1 holds it."""
    eps = sys.float_info.epsilon
    exact = mp_root(length, b, record.bracket)
    bound = 4 * eps * exact + rounding_floor(length, b, float(exact))
    return float(abs(record.lam - exact) / bound)


def test_roots_lie_within_their_stopping_width_and_rounding_floor_of_the_true_root():
    """Every record of the full solves of the TRUTH_DRAWS and FLAT_DRAWS
    boundary draws, 236 roots. Over all 300 draws (2117 roots) the
    furthest root lies 4.02 eps lam* (7 ulps) from its true root, at
    boundary[137], whose rounding floor there is 137 eps lam*; the largest
    error over its bound is 0.47."""
    length = test_solver_pin.LENGTH
    taken, checked = [], 0
    with mpmath.workdps(50):
        for i, (b, _) in enumerate(test_solver_pin._pin_boundaries()):
            if b is None or (len(taken) >= TRUTH_DRAWS and i not in FLAT_DRAWS):
                continue
            try:
                sp = spectrum.solve_spectrum(length, b)
            except SolverError:
                continue
            taken.append(i)
            for record in sp.records:
                assert _off_true_root(length, b, record) <= 1.0, (i, record)
                checked += 1
    assert taken[-len(FLAT_DRAWS):] == list(FLAT_DRAWS)
    assert len(taken) == TRUTH_DRAWS + len(FLAT_DRAWS)
    assert checked == 236


def _sweep_solves(monkeypatch):
    """(name, [(length, boundary, spectrum), ...]) of each of the pin's
    sweeps, every solve_spectrum call it made, up to the error that ends
    it, if any."""
    solves, solve = [], spectrum.solve_spectrum

    def spied(length, b, **kwargs):
        sp = solve(length, b, **kwargs)
        solves.append((length, b, sp))
        return sp

    monkeypatch.setattr(spectrum, "solve_spectrum", spied)
    for name, thunk in test_solver_pin._cases():
        if name.startswith("sweep["):
            solves.clear()
            try:
                thunk()
            except SolverError:
                pass
            yield name, list(solves)


def test_sweep_roots_lie_within_their_stopping_width_and_rounding_floor_of_the_true_root(monkeypatch):
    """Every record of the first, middle and last solve each of the pin's
    20 sweeps made, 113 roots: the transmon boundaries, which the boundary
    draws above do not reach. The largest error over its bound is 0.36."""
    names, checked = 0, 0
    with mpmath.workdps(50):
        for name, solves in _sweep_solves(monkeypatch):
            names += 1
            for k in sorted({0, len(solves) // 2, len(solves) - 1}):
                length, b, sp = solves[k]
                for record in sp.records:
                    assert _off_true_root(length, b, record) <= 1.0, (name, k, record)
                    checked += 1
    assert names == 20
    assert checked == 113
