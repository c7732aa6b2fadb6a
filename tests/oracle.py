"""The tests' outside oracle: the secular function H = G - F, written once.

G(lam) = sqrt(lam) cot(sqrt(lam) L) is the shorted line's log-derivative,
with its limit G(0) = 1/L, and F(lam) = s lam - gamma + sum_k delta_k /
(lam_k - lam) is a boundary's, read only through b.affine_slope, b.gamma
and b.poles, as solve_spectrum reads a boundary: beta's sign is the
boundary's own and is not restated here. `secular` evaluates H in Python
floats, in numpy arrays (float64 or longdouble) and in mpmath at the
working precision; the root finders below share only this equation with
the solver.
"""
import math
import sys

import numpy as np

from dressed_modes.resonator import line_log_deriv_dlam

# an isolation bracket's ends are moved this far inside, relative, off a pole
POLE_END_SHRINK = "1e-12"


def _line(lam, length):
    """G(lam) in lam's own arithmetic, 1/L at lam = 0."""
    if isinstance(lam, (int, float)):
        if lam == 0:
            return 1.0 / length
        xi = math.sqrt(lam) * length
        return math.sqrt(lam) * math.cos(xi) / math.sin(xi)
    if isinstance(lam, (np.ndarray, np.generic)):
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.sqrt(lam) * length
            g = np.sqrt(lam) * np.cos(xi) / np.sin(xi)
        return np.where(lam == 0, 1 / np.asarray(length, g.dtype), g)
    import mpmath

    if lam == 0:
        return 1 / mpmath.mpf(length)
    k = mpmath.sqrt(lam)
    return k * mpmath.cot(k * length)


def secular(length, b):
    """H(lam) = G(lam) - (s lam - gamma) - each delta_k / (lam_k - lam) in
    b's pole order, for boundary b on a line of length `length`."""
    s, gamma = b.affine_slope, b.gamma
    poles = [(p.location, p.strength) for p in b.poles]

    def h(lam):
        val = _line(lam, length) - (s * lam - gamma)
        for loc, d in poles:
            val = val - d / (loc - lam)
        return val

    return h


def rounding_floor(length, b, lam):
    """How far the rounding of H moves a float root at lam: 8 ulps of the
    sum of H's terms' sizes, over |H'(lam)|."""
    s = b.affine_slope
    terms = [_line(lam, length), s * lam, b.gamma]
    terms += [p.strength / (p.location - lam) for p in b.poles]
    slope = line_log_deriv_dlam(lam, length) - s - sum(
        p.strength / (p.location - lam) ** 2 for p in b.poles
    )
    return 8.0 * sys.float_info.epsilon * sum(abs(t) for t in terms) / abs(slope)


def oracle_roots(length, b, lam_max, points_per_interval=100_000):
    """Independent root finder: dense uniform scan plus plain bisection.

    Shares only the defining equation with the solver; no clamps, no
    adaptivity, no Newton. Each scan stops (b - a) 1e-9 short of a pole,
    but not of lam = 0.
    """
    h = secular(length, b)
    singular = sorted(
        [(k * math.pi / length) ** 2 for k in range(1, 12)
         if (k * math.pi / length) ** 2 < lam_max]
        + [p.location for p in b.poles if p.location < lam_max]
    )
    edges = [0.0] + singular + [lam_max]
    roots = []
    for a, z in zip(edges, edges[1:]):
        eps = (z - a) * 1e-9
        # lam = 0 is not a pole: start there, at the smallest positive float
        grid = np.linspace(a + eps if a else math.ulp(0.0), z - eps, points_per_interval)
        vals = h(grid)
        # an exact zero on the grid is no sign change by itself: H(0) can vanish
        grid, vals = grid[vals != 0.0], vals[vals != 0.0]
        sign_flip = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        for idx in sign_flip:
            lo, hi = float(grid[idx]), float(grid[idx + 1])
            flo = h(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if not (lo < mid < hi):
                    break
                fmid = h(mid)
                if (fmid < 0.0) == (flo < 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return roots


def mp_root(length, b, bracket):
    """The root of H in `bracket` at mpmath's working precision (50 digits
    where it is called), by mpmath's bracketing Anderson-Bjorck solver
    started at the bracket's ends, each moved POLE_END_SHRINK inside, off
    the pole it may sit on; an end at lam = 0 stays there."""
    import mpmath

    h, mpf = secular(length, b), mpmath.mpf
    shrink = mpf(POLE_END_SHRINK)
    lo, hi = mpf(bracket[0]) * (1 + shrink), mpf(bracket[1]) * (1 - shrink)
    assert (h(lo) > 0) != (h(hi) > 0), bracket
    root = mpmath.findroot(h, (lo, hi), solver="anderson", verify=False, maxsteps=50)
    assert lo < root < hi
    assert (h(root * (1 - mpf("1e-45"))) > 0) != (h(root * (1 + mpf("1e-45"))) > 0)
    return root
