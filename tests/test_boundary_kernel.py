"""F in one expression, and beta's sign in one place.

boundary._rational is the one expression of F(lam) = s*lam - gamma +
sum_k delta_k/(lam_k - lam) and F', and RationalBoundary.affine_slope, s,
the one place beta's sign is set. The first test shifts the kernel by a
constant k and checks that the whole solver follows it, solving as the
boundary with gamma - k does: a copy of F's loop anywhere in the solver
would not move with the kernel. The second checks that the solver's
cleared function hands the kernel exactly the poles that do not bound its
interval. The third flips the one sign site to Foster's sign, s = +beta,
and checks that the whole solver follows it.
"""
import math
from dataclasses import replace
from itertools import islice

import pytest

from dressed_modes import RationalBoundary, boundary, solve_spectrum, spectrum, transmon_boundary
from test_solver_pin import _bits_or_error, _cases, _pin_boundaries
from test_spectrum import DEV, LENGTH, QUBIT

FOSTER_LENGTH = 3e-3
# the kernel's shift, in 1/m, and the draws it is checked over
SHIFTS = (-150.0, 90.0)
SHIFT_DRAWS = 60


def _shift_boundaries():
    """The standard qubit in g and in e (levels 3, an emission pole), and
    the solver pin's first random boundaries."""
    yield transmon_boundary(QUBIT, DEV)
    yield transmon_boundary(replace(QUBIT, state="e"), DEV, levels=3)
    for bnd, _ in islice(_pin_boundaries(), SHIFT_DRAWS):
        if bnd is not None:
            yield bnd


def _roots(b):
    """(counts, eigenvalues) of a full solve of b."""
    sp = solve_spectrum(LENGTH, b)
    return sp.counts, sp.eigenvalues


@pytest.mark.parametrize("shift", SHIFTS)
def test_solver_evaluates_f_through_the_kernel(monkeypatch, shift):
    kernel = boundary._rational

    def shifted(poles, slope, gamma, lam):
        f, fp = kernel(poles, slope, gamma, lam)
        return f + shift, fp

    for b in _shift_boundaries():
        counts, want = _roots(replace(b, gamma=b.gamma - shift))
        with monkeypatch.context() as patch:
            patch.setattr(spectrum, "_rational", shifted)
            patch.setattr(boundary, "_rational", shifted)
            got = _roots(b)
        assert got[0] == counts, b
        assert got[1] == pytest.approx(want, rel=1e-12), b
        assert got[1] != _roots(b)[1], b    # the shift moves the roots


def test_cleared_function_leaves_out_exactly_the_bounding_poles(monkeypatch):
    """Over the solver pin's draws, every evaluation of a cleared function
    calls the kernel once, over b's poles less those bounding its interval,
    in b's order."""
    kernel, cleared_secular = spectrum._rational, spectrum._cleared_secular
    interval, seen = [], []    # interval: (b, lo, hi) of the evaluation in hand
    evaluations = [0]

    def recording_kernel(poles, slope, gamma, lam):
        if interval:
            seen.append((*interval[-1], tuple(poles)))
        return kernel(poles, slope, gamma, lam)

    def recording_secular(length, b):
        on = cleared_secular(length, b)

        def recording_on(lo, hi, lobe):
            cleared = on(lo, hi, lobe)

            def recording(lam):
                evaluations[0] += 1
                interval.append((b, lo, hi))
                try:
                    return cleared(lam)
                finally:
                    interval.pop()

            return recording

        return recording_on

    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "_rational", recording_kernel)
        patch.setattr(spectrum, "_cleared_secular", recording_secular)
        for _, thunk in _cases():
            _bits_or_error(thunk)    # a draw that raises still counts its evaluations
    assert len(seen) == evaluations[0] > 20000
    left_out = 0
    for b, lo, hi, poles in seen:
        bounding = {end.location for end in (lo, hi)
                    if end is not None and end.point.kind == "boundary"}
        assert poles == tuple(p for p in b.poles if p.location not in bounding), (b, lo, hi)
        left_out += len(poles) < len(b.poles)
    assert left_out > 1000


def _cot_roots(length: float, beta: float, count: int) -> list[float]:
    """lam = k^2 of the first `count` roots of cot(kL) = +beta k, one in
    each lobe (n pi/L, (n + 1/2) pi/L), by bisection in k on
    cos(kL) - beta k sin(kL)."""
    def h(k):
        return math.cos(k * length) - beta * k * math.sin(k * length)

    roots = []
    for n in range(count):
        lo, hi = n * math.pi / length, (n + 0.5) * math.pi / length
        h_lo = h(lo)
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if (h(mid) > 0.0) == (h_lo > 0.0):
                lo = mid
            else:
                hi = mid
        roots.append(lo * lo)
    return roots


@pytest.mark.parametrize("beta", [3e-5, 0.5 * FOSTER_LENGTH])
def test_flipping_the_one_sign_site_flips_the_whole_solver(monkeypatch, beta):
    # Foster's sign, s = +beta; the capacitive-loading fix makes this the code
    monkeypatch.setattr(RationalBoundary, "affine_slope", property(lambda self: self.beta))
    b = RationalBoundary(beta=beta)
    sp = solve_spectrum(FOSTER_LENGTH, b)
    assert sp.counts == (1,) * 6 and len(sp.records) == 6
    expected = _cot_roots(FOSTER_LENGTH, beta, 6)
    for lam, want in zip(sp.eigenvalues, expected):
        assert lam == pytest.approx(want, rel=1e-14)
    assert b.value(expected[0]) == beta * expected[0]
