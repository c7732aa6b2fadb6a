"""solve_spectrum's nearest-root rule (nearest_only) against its pair rule.

Drawn from the boundary space of the solver pin, with a seeded `near`: the
nearest-root solve must return the pair solve's nearest record bit for bit,
never evaluate c*H more often, and refuse a pair read.
"""
import random

import pytest

from dressed_modes import default_lam_max, solve_spectrum, spectrum
from test_solver_pin import _boundary_draw
from test_spectrum import DEV, LENGTH, _bits

DRAWS = 300


def _counted(monkeypatch):
    """A counter of spectrum.line_log_deriv calls, reset by the caller."""
    calls, log_deriv = [0], spectrum.line_log_deriv

    def counted(lam, length):
        calls[0] += 1
        return log_deriv(lam, length)

    monkeypatch.setattr(spectrum, "line_log_deriv", counted)
    return calls


def _draws():
    rng = random.Random(20261020)
    lam_max = default_lam_max(LENGTH)
    for _ in range(DRAWS):
        bnd = _boundary_draw(rng)
        near = rng.uniform(0.0, 1.0) * lam_max
        if bnd is not None:
            yield bnd, near


def test_nearest_root_solve_keeps_the_pair_solves_nearest_record(monkeypatch):
    """Bit for bit the record nearest_eigenvalue reads from the pair solve,
    at no more c*H evaluations, and a pair read of it raises."""
    calls = _counted(monkeypatch)
    skipped = refined = 0
    for bnd, near in _draws():
        calls[0] = 0
        pair = solve_spectrum(LENGTH, bnd, near=near)
        pair_calls, calls[0] = calls[0], 0
        nearest = solve_spectrum(LENGTH, bnd, near=near, nearest_only=True)
        assert calls[0] <= pair_calls
        skipped += calls[0] < pair_calls
        refined += len(pair.records) == 2 and calls[0] == pair_calls
        for field in ("partition", "counts", "lam_max", "near"):
            assert getattr(nearest, field) == getattr(pair, field)
        # the record nearest_eigenvalue reads: the lower of two as near
        expected = min(pair.records, key=lambda r: abs(r.lam - near), default=None)
        assert [_bits(r) for r in nearest.records] == ([_bits(expected)] if expected else [])
        if pair.records:
            assert nearest.nearest_eigenvalue(near) == pair.nearest_eigenvalue(near)
        with pytest.raises(ValueError, match="read for a pair"):
            spectrum._fundamental_pair(nearest, near, DEV.phase_velocity)
    # both branches: the neighbour's bracket lies farther than root k, or not
    assert skipped and refined


def test_nearest_only_needs_near():
    bnd = next(_draws())[0]
    with pytest.raises(ValueError, match="nearest_only needs near"):
        solve_spectrum(LENGTH, bnd, nearest_only=True)
