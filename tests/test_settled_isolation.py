"""A solve with no emission pole and -s < L/3 (s the boundary's affine slope,
-beta) settles every interval between two poles without _isolate
(spectrum.solve_spectrum): the cheap slope bound -L/3 - s < 0 proves H
falling there, and the level-repulsion theorem signs the interval's ends +
at its lower pole and - at its upper one, so it holds one root, bracketed
by its poles. These tests hold that solve-wide path to what _isolate
returns on each interval, bit for bit, and check that every other solve
still sends every interval through _isolate."""
import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings

from dressed_modes import BoundaryPole, RationalBoundary, SolverError, solve_spectrum, transmon_boundary
from dressed_modes import spectrum
from input_space import ABSORPTION, BETA_EDGE, LAM_1, THIRD, UNIT, boundary
from test_spectrum import DEV, LENGTH, QUBIT, _partition_ends

def _observed(bnd, mp, isolated, refined, near=None, refining=True):
    """A solve of bnd, recording each _isolate call's arguments and result
    in isolated and each _refine call's arguments in refined. Without
    refining a bracket (x0, x1) is recorded as a root at x0, so a solve
    reports what isolation found even where refinement would raise (two
    roots rounding onto one tiny pole)."""
    isolate, refine = spectrum._isolate, spectrum._refine

    def recording_isolate(*args):
        out = isolate(*args)
        isolated.append((args, out))
        return out

    def recording_refine(*args):
        refined.append(args)
        if not refining:
            return spectrum.EigenvalueRecord(args[4], (args[4], args[5]), 0.0, 0)
        return refine(*args)

    mp.setattr(spectrum, "_isolate", recording_isolate)
    mp.setattr(spectrum, "_refine", recording_refine)
    return solve_spectrum(LENGTH, bnd, near=near)


def _intervals(bnd):
    """(lo, hi, lobe) of every interval of bnd's partition, in order."""
    ends, lobe = _partition_ends(LENGTH, bnd), 0
    for lo, hi in zip([None, *ends], [*ends, None]):
        if lo is not None and lo.point.kind == "dirichlet":
            lobe += 1
        yield lo, hi, lobe


def _bits(brackets):
    return [tuple(x.hex() for x in br) for br in brackets]


@settings(max_examples=150, deadline=None)
@given(**ABSORPTION)
@example(locations=[0.7], strengths=[5e-324] * 3, beta=BETA_EDGE * THIRD, gamma=0.0)
@example(locations=[0.7, 150.0], strengths=[UNIT] * 3, beta=0.0, gamma=0.0)
@example(locations=[0.7, 3.0], strengths=[UNIT, 1e-300, UNIT], beta=math.nextafter(THIRD, math.inf), gamma=0.0)
@example(locations=[1.0], strengths=[5e-324, UNIT, UNIT], beta=0.0, gamma=0.0)
@example(locations=[1.0], strengths=[5e-324, UNIT, UNIT], beta=2.0 * THIRD, gamma=0.0)
# inside the sixth Dirichlet pole's collision band but above lam_max, where
# solve_spectrum checks no collision, so the rule must not refuse it
@example(locations=[144.0 * (1.0 + 5e-7)], strengths=[UNIT] * 3, beta=0.0, gamma=0.0)
def test_settled_intervals_are_what_isolate_finds(locations, strengths, beta, gamma):
    """Interval by interval, the count and the brackets (x0, x1, c*H(x0),
    c*H(x1)) of a full solve equal those _isolate finds there, bit for bit,
    and a solve that raises raises the first interval's SolverError.
    _isolate runs on the two edge intervals alone where -s < L/3, every
    interval between them then holding the one bracket spanning it, and on
    every interval where beta >= L/3."""
    bnd = boundary(locations, strengths, beta, gamma)
    assume(bnd is not None)
    on, (bounds, slack) = spectrum._cleared_secular(LENGTH, bnd), spectrum._slope_bounds(LENGTH, bnd)
    lam_max = spectrum._line_partition(LENGTH)[0]
    settled = slack < 0.0
    assert settled == (beta < THIRD)
    expected = []     # (lo, hi, its brackets or the message of the SolverError it raises)
    for lo, hi, lobe in _intervals(bnd):
        try:
            expected.append((lo, hi, spectrum._isolate(on, lo, hi, lam_max, bounds, slack, lobe, LENGTH)[1]))
        except SolverError as exc:
            expected.append((lo, hi, str(exc)))
    isolated, refined = [], []
    failure = next((found for _, _, found in expected if isinstance(found, str)), None)
    with pytest.MonkeyPatch.context() as mp:
        if failure is not None:
            with pytest.raises(SolverError) as exc:
                _observed(bnd, mp, isolated, refined, refining=False)
            assert str(exc.value) == failure
            assert not settled      # a settled solve's edge intervals cannot raise
            return
        sp = _observed(bnd, mp, isolated, refined, refining=False)
    assert sp.counts == tuple(len(found) for _, _, found in expected)
    for lo, hi, found in expected:
        interior = lo is not None and hi is not None
        carried = [args[4:8] for args in refined if args[1] == lo and args[2] == hi]
        assert _bits(carried) == _bits(found), (lo, hi)
        calls = [args for args, _ in isolated if args[1] == lo and args[2] == hi]
        assert len(calls) == (0 if settled and interior else 1)
        if settled and interior:
            assert _bits(found) == _bits([(lo.location, hi.location, 1.0, -1.0)])
    assert len(isolated) == (2 if settled else len(expected))


def _emission_above_lam_max():
    """A ground-state pole in the first lobe and an emission pole above
    lam_max, where it bounds no interval but still lifts the slope bound."""
    return RationalBoundary(poles=(BoundaryPole(0.7 * LAM_1, UNIT), BoundaryPole(200.0 * LAM_1, -UNIT)))


@pytest.mark.parametrize("near", [None, LAM_1])
@pytest.mark.parametrize("build, settled", [
    (lambda: transmon_boundary(QUBIT, DEV), True),
    (lambda: transmon_boundary(replace(QUBIT, state="e"), DEV, levels=3), False),
    (lambda: transmon_boundary(replace(QUBIT, state="e"), DEV, levels=2), False),
    (_emission_above_lam_max, False),
    (lambda: RationalBoundary(beta=THIRD, poles=(BoundaryPole(0.7 * LAM_1, UNIT),)), False),
    (lambda: RationalBoundary(beta=math.nextafter(THIRD, math.inf), poles=(BoundaryPole(0.7 * LAM_1, UNIT),)), False),
    (lambda: RationalBoundary(beta=math.nextafter(THIRD, 0.0), poles=(BoundaryPole(0.7 * LAM_1, UNIT),)), True),
], ids=["g", "e-levels-3", "e-levels-2", "emission-above-lam-max", "beta-L/3", "beta-above-L/3", "beta-below-L/3"])
def test_only_a_settled_solve_skips_isolate(build, settled, near):
    """A boundary with an emission pole anywhere, or with beta >= L/3
    (slack = -s - L/3 >= 0), calls _isolate on every interval, near or
    not; an all-absorption one with beta < L/3 on the two edge intervals
    alone."""
    isolated = []
    with pytest.MonkeyPatch.context() as mp:
        sp = _observed(build(), mp, isolated, [], near)
    assert len(isolated) == (2 if settled else len(sp.counts))
    assert [args[1:3] for args, _ in isolated] == [
        (lo, hi) for lo, hi, _ in _intervals(build()) if not settled or lo is None or hi is None
    ]
