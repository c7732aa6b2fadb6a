"""F in one expression, and beta's sign in one place.

boundary._rational is the one expression of F(lam) = s*lam - gamma +
sum_k delta_k/(lam_k - lam) and F', and RationalBoundary.affine_slope, s,
the one place beta's sign is set. The solver's cleared function keeps an
inline copy of the loop on its hot path; the first test holds that copy to
the kernel bit for bit at every point the solver evaluates over the solver
pin's draws. The second flips the one site to Foster's sign, s = +beta, and
checks that the whole solver follows it.
"""
import math

import pytest

from dressed_modes import RationalBoundary, solve_spectrum, spectrum
from dressed_modes.boundary import _rational
from test_solver_pin import _bits_or_error, _cases

FOSTER_LENGTH = 3e-3


def _evaluated_points(monkeypatch):
    """(length, b, lo, hi, lobe, lam) of every evaluation of a cleared
    function over the solver pin's draws, in order."""
    points = []
    cleared_secular = spectrum._cleared_secular

    def recording_secular(length, b):
        on = cleared_secular(length, b)

        def recording_on(lo, hi, lobe):
            cleared = on(lo, hi, lobe)

            def recording(lam, slope=False):
                points.append((length, b, lo, hi, lobe, lam))
                return cleared(lam, slope)

            return recording

        return recording_on

    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "_cleared_secular", recording_secular)
        for _, thunk in _cases():
            _bits_or_error(thunk)    # a draw that raises still counts its evaluations
    return points


def test_cleared_function_computes_f_as_the_kernel_does(monkeypatch):
    points = _evaluated_points(monkeypatch)
    assert len(points) > 20000
    # the F part is read off a cleared function with no bounding pole, whose
    # c*F is 1.0 * (1.0 * F - 1.0 * 0.0 + 1.0 * 0.0), i.e. F + 0.0; its c*G
    # is not read, so the line is stubbed out of it (a Dirichlet pole end
    # would trip the line's guard)
    monkeypatch.setattr(spectrum, "line_log_deriv", lambda lam, length: 0.0)
    open_on, closures = {}, {}
    for length, b, lo, hi, lobe, lam in points:
        bounding = {end.location for end in (lo, hi)
                    if end is not None and end.point.kind == "boundary"}
        rest = tuple(p for p in b.poles if p.location not in bounding)
        f, fp = _rational(rest, b.affine_slope, b.gamma, lam)

        key = (id(b), lo, hi, lobe)
        if key not in closures:
            closures[key] = spectrum._cleared_secular(length, b)(lo, hi, lobe)
        assert closures[key](lam, True)[3].hex() == fp.hex(), (lam, b)

        key = (id(b), rest)
        if key not in open_on:
            bare = RationalBoundary(beta=b.beta, gamma=b.gamma, poles=rest)
            open_on[key] = spectrum._cleared_secular(length, bare)(None, None, 0)
        _, f_part, c, fp_open = open_on[key](lam, True)
        assert c == 1.0
        assert f_part.hex() == (f + 0.0).hex(), (lam, b)
        assert fp_open.hex() == fp.hex(), (lam, b)


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
