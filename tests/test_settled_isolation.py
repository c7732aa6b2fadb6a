"""A solve with no emission pole and -s < L/3 (s the boundary's affine slope,
-beta) settles every interval without _isolate and builds no slope bound
(spectrum.solve_spectrum): the cheap slope bound -L/3 - s < 0 proves H
falling on the whole domain, and the level-repulsion theorem signs an
interval's ends + at its lower pole and - at its upper one. So an interval
between two poles holds one root, bracketed by its poles, and an edge
interval holds one iff c*H at lam = 0 is > 0, resp. at lam_max is <= 0,
the one evaluation _isolate makes there. These tests hold that solve-wide
path to what _isolate returns on each interval, bit for bit, and check
that every other solve still sends every interval through _isolate."""
import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dressed_modes import BoundaryPole, RationalBoundary, SolverError, solve_spectrum, transmon_boundary
from dressed_modes import spectrum
from dressed_modes.resonator import line_log_deriv
from input_space import ABSORPTION, BETA_EDGE, LAM_1, THIRD, UNIT, boundary
from test_spectrum import DEV, LENGTH, QUBIT, _partition_ends

LAM_MAX = spectrum._line_partition(LENGTH)[0]


def _observed(bnd, mp, isolated, refined, bounded, near=None, refining=True):
    """A solve of bnd, recording each _isolate call's arguments and result
    in isolated, each _refine call's arguments in refined and each
    _slope_bounds call's in bounded. Without refining a bracket (x0, x1) is
    recorded as a root at x0, so a solve reports what isolation found even
    where refinement would raise (two roots rounding onto one tiny pole)."""
    isolate, refine, slope_bounds = spectrum._isolate, spectrum._refine, spectrum._slope_bounds

    def recording_bounds(*args):
        bounded.append(args)
        return slope_bounds(*args)

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
    mp.setattr(spectrum, "_slope_bounds", recording_bounds)
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
@given(**ABSORPTION, edges=st.none())
@example(locations=[0.7], strengths=[5e-324] * 3, beta=BETA_EDGE * THIRD, gamma=0.0, edges=(1, 1))
@example(locations=[0.7, 150.0], strengths=[UNIT] * 3, beta=0.0, gamma=0.0, edges=(0, 1))
@example(locations=[0.7, 3.0], strengths=[UNIT, 1e-300, UNIT], beta=math.nextafter(THIRD, math.inf),
         gamma=0.0, edges=(0, 1))
@example(locations=[1.0], strengths=[5e-324, UNIT, UNIT], beta=0.0, gamma=0.0, edges=(1, 1))
@example(locations=[1.0], strengths=[5e-324, UNIT, UNIT], beta=2.0 * THIRD, gamma=0.0, edges=None)
# inside the sixth Dirichlet pole's collision band but above lam_max, where
# solve_spectrum checks no collision, so the rule must not refuse it
@example(locations=[144.0 * (1.0 + 5e-7)], strengths=[UNIT] * 3, beta=0.0, gamma=0.0, edges=(1, 1))
# gamma below -1/L: H(0) = 1/L + gamma - sum_k delta_k/lam_k < 0, no root below the first pole
@example(locations=[0.7], strengths=[5e-324] * 3, beta=0.0, gamma=-2.0 / LENGTH, edges=(0, 1))
# an absorption pole just below lam_max: H(lam_max) > 0, no root above it
@example(locations=[LAM_MAX / LAM_1 * (1.0 - 1e-10)], strengths=[UNIT] * 3, beta=0.0, gamma=0.0,
         edges=(1, 0))
@example(locations=[LAM_MAX / LAM_1 * (1.0 - 1e-10)], strengths=[UNIT] * 3, beta=0.0,
         gamma=-2.0 / LENGTH, edges=(0, 0))
# c*H exactly 0 at lam = 0, which lies outside the domain, and at lam_max,
# which is a root
@example(locations=[0.7], strengths=[5e-324] * 3, beta=0.0, gamma=-1.0 / LENGTH, edges=(0, 1))
@example(locations=[0.7], strengths=[5e-324] * 3, beta=0.0, gamma=-line_log_deriv(LAM_MAX, LENGTH),
         edges=(1, 1))
def test_settled_intervals_are_what_isolate_finds(locations, strengths, beta, gamma, edges):
    """Interval by interval, the count and the brackets (x0, x1, c*H(x0),
    c*H(x1)) of a full solve equal those _isolate finds there, bit for bit,
    and a solve that raises raises the first interval's SolverError. Where
    -s < L/3 the solve calls neither _isolate nor _slope_bounds; where
    beta >= L/3 it builds the bounds once and isolates every interval. An
    explicit example's edges are the counts it targets on the two edge
    intervals."""
    bnd = boundary(locations, strengths, beta, gamma)
    assume(bnd is not None)
    on, bounds, slack = (spectrum._cleared_secular(LENGTH, bnd), spectrum._slope_bounds(LENGTH, bnd),
                         spectrum._slack(LENGTH, bnd))
    lam_max = spectrum._line_partition(LENGTH)[0]
    settled = slack < 0.0
    assert settled == (beta < THIRD)
    expected = []     # (lo, hi, its brackets or the message of the SolverError it raises)
    for lo, hi, lobe in _intervals(bnd):
        try:
            expected.append((lo, hi, spectrum._isolate(on, lo, hi, lam_max, bounds, slack, lobe, LENGTH)[1]))
        except SolverError as exc:
            expected.append((lo, hi, str(exc)))
    isolated, refined, bounded = [], [], []
    failure = next((found for _, _, found in expected if isinstance(found, str)), None)
    with pytest.MonkeyPatch.context() as mp:
        if failure is not None:
            with pytest.raises(SolverError) as exc:
                _observed(bnd, mp, isolated, refined, bounded, refining=False)
            assert str(exc.value) == failure
            assert not settled      # a settled solve cannot raise in isolation
            assert edges is None
            return
        sp = _observed(bnd, mp, isolated, refined, bounded, refining=False)
    assert sp.counts == tuple(len(found) for _, _, found in expected)
    if edges is not None:
        assert (sp.counts[0], sp.counts[-1]) == edges
    for lo, hi, found in expected:
        carried = [args[4:8] for args in refined if args[1] == lo and args[2] == hi]
        assert _bits(carried) == _bits(found), (lo, hi)
        calls = [args for args, _ in isolated if args[1] == lo and args[2] == hi]
        assert len(calls) == (0 if settled else 1)
        if settled and lo is not None and hi is not None:
            assert _bits(found) == _bits([(lo.location, hi.location, 1.0, -1.0)])
    assert len(isolated) == (0 if settled else len(expected))
    assert len(bounded) == (0 if settled else 1)


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
    (slack = -s - L/3 >= 0), builds the slope bounds once and calls
    _isolate on every interval, near or not; an all-absorption one with
    beta < L/3 calls neither _isolate nor _slope_bounds."""
    isolated, bounded = [], []
    with pytest.MonkeyPatch.context() as mp:
        _observed(build(), mp, isolated, [], bounded, near)
    assert len(bounded) == (0 if settled else 1)
    assert [args[1:3] for args, _ in isolated] == (
        [] if settled else [(lo, hi) for lo, hi, _ in _intervals(build())]
    )
