"""solve_spectrum's nearest-root rule (nearest_only) against its pair rule.

Drawn from the boundary space of the solver pin, with a seeded `near` in
(0, lam_max]: the nearest-root solve must return the pair solve's nearest
record bit for bit and never evaluate c*H more often, and a read of either
partial spectrum must give the full solve's answer or raise.
"""
import math
import random

import pytest

from dressed_modes import (
    SolverError, default_lam_max, pole_margins, solve_spectrum, spectrum, transmon_boundary,
)
from test_solver_pin import _boundary_draw
from test_spectrum import DEV, LENGTH, QUBIT, _bits, _outcome

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
    """(boundary, near, lam) with near and lam in (0, lam_max]."""
    rng = random.Random(20261020)
    lam_max = default_lam_max(LENGTH)
    for _ in range(DRAWS):
        bnd = _boundary_draw(rng)
        near, lam = ((1.0 - rng.random()) * lam_max for _ in range(2))
        if bnd is not None:
            yield bnd, near, lam


def test_nearest_root_solve_keeps_the_pair_solves_nearest_record(monkeypatch):
    """Bit for bit the pair solve's record nearest near, the lower on a
    tie, at no more c*H evaluations; one record whenever there is a root."""
    calls = _counted(monkeypatch)
    skipped = refined = 0
    for bnd, near, _ in _draws():
        calls[0] = 0
        pair = solve_spectrum(LENGTH, bnd, near=near)
        pair_calls, calls[0] = calls[0], 0
        nearest = solve_spectrum(LENGTH, bnd, near=near, nearest_only=True)
        assert calls[0] <= pair_calls
        skipped += calls[0] < pair_calls
        refined += len(pair.records) == 2 and calls[0] == pair_calls
        for field in ("partition", "counts", "lam_max"):
            assert getattr(nearest, field) == getattr(pair, field)
        assert len(nearest.records) == min(1, sum(nearest.counts))
        expected = min(pair.records, key=lambda r: abs(r.lam - near), default=None)
        assert [_bits(r) for r in nearest.records] == ([_bits(expected)] if expected else [])
    # both branches: the neighbour's bracket lies farther than root k, or not
    assert skipped and refined


def test_partial_spectra_read_as_the_full_solve_or_raise():
    """_fundamental_pair on a pair or nearest-only spectrum, read at near,
    at a random lam and at every root and bracket end of the full solve,
    gives the full spectrum's outcome or raises SolverError; pole_margins
    refuses every spectrum that holds fewer records than its counts."""
    v = DEV.phase_velocity
    matched = raised = refused = 0
    for bnd, near, lam in _draws():
        try:
            full = solve_spectrum(LENGTH, bnd)
        except SolverError:
            continue
        reads = {near, lam}
        for r in full.records:
            reads.update((r.lam, *r.bracket))
        for part in (
            solve_spectrum(LENGTH, bnd, near=near),
            solve_spectrum(LENGTH, bnd, near=near, nearest_only=True),
        ):
            for x in reads:
                got = _outcome(spectrum._fundamental_pair, part, x, v)
                if got is SolverError:
                    raised += 1
                else:
                    assert got == _outcome(spectrum._fundamental_pair, full, x, v), (near, x)
                    matched += 1
            if len(part.records) < sum(part.counts):
                with pytest.raises(ValueError, match="every root"):
                    pole_margins(part)
                refused += 1
            else:
                assert pole_margins(part) == pole_margins(full)
    assert matched and raised and refused


def test_nearest_only_needs_near():
    bnd = next(_draws())[0]
    with pytest.raises(ValueError, match="nearest_only needs near"):
        solve_spectrum(LENGTH, bnd, nearest_only=True)


@pytest.mark.parametrize("nearest_only", [False, True])
def test_nan_near_is_refused(nearest_only):
    """Every comparison with NaN is false, so a NaN near would pick the top
    root as if it were near; the solve refuses it in either mode."""
    bnd = transmon_boundary(QUBIT, DEV)
    with pytest.raises(ValueError, match="near must not be NaN"):
        solve_spectrum(LENGTH, bnd, near=math.nan, nearest_only=nearest_only)


@pytest.mark.parametrize("nearest_only", [False, True])
@pytest.mark.parametrize("near, top", [(math.inf, True), (-math.inf, False), (-1.0, False)])
def test_near_beyond_the_domain_reads_its_end_root(near, top, nearest_only):
    """A near above every root reads the top root alone, one below every
    root (-inf or negative) the bottom root alone, bit for bit the full
    solve's."""
    bnd = transmon_boundary(QUBIT, DEV)
    full = solve_spectrum(LENGTH, bnd)
    part = solve_spectrum(LENGTH, bnd, near=near, nearest_only=nearest_only)
    assert [_bits(r) for r in part.records] == [_bits(full.records[-1 if top else 0])]
