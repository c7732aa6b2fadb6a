"""Dressed-mode spectra of the terminated line.

Eigenvalues are the roots of H(lam) = G(lam) - F(lam) on (0, lam_max], with
G the log-derivative of a line of length L and F the rational boundary
function; lam_max is default_lam_max(L), just below the sixth Dirichlet pole.
The domain is partitioned at every pole of either side, and every interval is
solved the same way, through its cleared function c*H: c > 0 inside the
interval and vanishes at its bounding poles (sin(xi)/xi for a Dirichlet
pole, |lam_k - lam|/lam_k for a boundary pole), so c*H is finite on the
closed interval, poles included, and a root next to a pole is an ordinary
root. Nothing is clamped off the poles.

Root count. Every interval goes through one routine, _isolate, which halves
cells until a bound on H' = G' + beta - sum_k delta_k/(lam_k - lam)^2
settles each: H monotone on a cell gives one root iff c*H changes sign
across it, |H| kept off zero gives none, and a cell that reaches float
resolution unsettled raises SolverError, so no root is lost silently. The
cheap bound comes first: G' <= -L/3 and absorption terms (delta_k > 0) only
lower H', so beta - L/3 + sum over emission poles (delta_k < 0) of
|delta_k|/d_min^2 < 0 proves a cell decreasing. With every residue positive
and beta < L/3 (a ground-state transmon) that settles each interval whole:
one root between two poles, and one in an edge interval iff
H(0) = 1/L - F(0) > 0, resp. H(lam_max) <= 0. The sharper bound of
_slope_bounds serves the rest.

Refinement. Isolation runs on every interval, so the counts, the
interlacing flags and every SolverError of isolation describe the whole
spectrum. Brent's method on c*H then refines the brackets a caller reads,
each root checked by the residual test: all of them by default, or, given
`near`, the largest root <= near and the smallest >= near, at most two
Brent runs, or with nearest_only the root nearest `near` alone, one Brent
run unless the other bracket reaches closer to near than that root. A
root's record does not depend on which others are refined.

Cost. Every workload runs through this module, so its hot path is kept
lean, within three rules. Every float, count and error a solve produces
stays bit-identical: a cheaper form must keep each expression and its order
(tests/test_solver_pin.py pins a seeded set of solves). c*H calls
line_log_deriv, looked up in this module, once per evaluation outside the
line's pole guard, so the evaluation count stays the measure of work;
isolation evaluates each cell end once and keeps its parts for the residual
tests. No memo outlives one line: only the line's part of the partition
(lam_max and the Dirichlet markers) is kept, for one length at a time.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import attrgetter

from .boundary import resolved_coupling, transmon_boundary
from .errors import PoleCollisionError, SolverError
from .params import GHZ, DeviceParams, TransmonSpec, lambda_to_omega, omega_to_lambda
from .resonator import XI_POLE_GUARD, default_lam_max, dirichlet_poles, line_log_deriv

RESIDUAL_REL = 1e-8          # threshold on |c*H| over max(|G|, |F|, 1/L)
BRENT_MAX_STEPS = 200        # safety cap; 3000 random ground-state devices need <= 23
DIRICHLET_COLLISION_REL = 1e-6
_TWO_EPS = 2.0 * sys.float_info.epsilon    # Brent's bracket floor, per |b|
_location = attrgetter("location")


@dataclass(frozen=True)
class PolePoint:
    location: float
    kind: str      # "dirichlet" or "boundary"


@dataclass(frozen=True)
class EigenvalueRecord:
    lam: float
    bracket: tuple[float, float]
    residual: float
    iterations: int


@dataclass(frozen=True)
class DressedSpectrum:
    """Roots of one solve. partition (the poles, sorted) and counts (one
    per interval between them) always cover the whole domain, and so do
    intervals and interlacing, read off them. records holds every root when
    near is None, else only the roots next to near (solve_spectrum), and
    then only questions about near itself can be answered from it. A solve
    with nearest_only returns a _NearestRoot, whose one record answers
    nearest_eigenvalue(near) but not the pair around near."""

    records: tuple[EigenvalueRecord, ...]
    partition: tuple[PolePoint, ...]
    counts: tuple[int, ...]
    lam_max: float
    near: float | None = None

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        edges = [0.0, *map(_location, self.partition), self.lam_max]
        return tuple(zip(edges, edges[1:]))

    @property
    def interlacing(self) -> tuple[bool | None, ...]:
        """One root on each pole-bounded interval; None on the two edge intervals."""
        last = len(self.counts) - 1
        return tuple(n == 1 if 0 < i < last else None for i, n in enumerate(self.counts))

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(r.lam for r in self.records)

    def frequencies(self, v: float) -> tuple[float, ...]:
        return tuple(lambda_to_omega(r.lam, v) for r in self.records)

    def _check_reads(self, lam: float, pair: bool = False):
        """ValueError unless the records answer questions about lam, the
        pair of roots around it too if `pair`: a partial spectrum holds
        only the roots next to near."""
        if self.near is not None and lam != self.near:
            raise ValueError(f"spectrum refined near lam={self.near} read at lam={lam}")

    def nearest_eigenvalue(self, lam: float) -> float:
        self._check_reads(lam)
        if not self.records:
            raise SolverError("spectrum is empty")
        return min(self.records, key=lambda r: abs(r.lam - lam)).lam


class _NearestRoot(DressedSpectrum):
    """A spectrum refined at the root nearest `near` only
    (solve_spectrum(..., nearest_only=True)): the pair around near is not
    in its records, so reading it is a ValueError."""

    def _check_reads(self, lam: float, pair: bool = False):
        if pair:
            raise ValueError(
                f"spectrum refined at its nearest root to lam={self.near} read for a pair"
            )
        super()._check_reads(lam)


def _brent(f, a: float, b: float, fa: float, fb: float):
    """Root of f in [a, b], given f(a) and f(b) of opposite signs or f(b) == 0.

    Brent's zeroin: inverse quadratic or secant steps, falling back to
    bisection whenever they would not shrink the bracket fast enough, down
    to a bracket of a few ulps. Returns the root and the evaluations spent.
    """
    fabs, fmin, copysign = abs, min, math.copysign    # locals: ~15 steps a root
    c, fc = a, fa
    d = e = b - a
    for evals in range(BRENT_MAX_STEPS):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if fabs(fc) < fabs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = _TWO_EPS * fabs(b)
        m = 0.5 * (c - b)
        if fabs(m) <= tol or fb == 0.0:
            return b, evals
        if fabs(e) < tol or fabs(fa) <= fabs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < fmin(3.0 * m * q - fabs(tol * q), fabs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if fabs(d) > tol else copysign(tol, m)
        fb = f(b)
    raise SolverError(f"Brent refinement did not converge in [{a}, {b}]")


def _cleared_secular(length: float, b, lo, hi, lobe: int):
    """c*H on one interval, with c > 0 inside it and zero at its poles.

    lo and hi are the bounding PolePoints, None at 0 and lam_max, and
    xi = sqrt(lam) L stays in the lobe (lobe pi, (lobe+1) pi). c carries
    sin(xi)/xi, signed positive on that lobe, when a Dirichlet pole bounds
    the interval, and |lam_k - lam|/lam_k for each bounding boundary pole,
    so c*H is finite and continuous on the closed interval. Returns
    cleared(lam), which is c*H, or (c*G, c*F, c) with parts=True.
    """
    sign = -1.0 if lobe % 2 else 1.0
    a = lo.location if lo is not None and lo.kind == "boundary" else None
    z = hi.location if hi is not None and hi.kind == "boundary" else None
    # a bound that is no boundary pole is a Dirichlet pole
    clear_xi = (lo is not None and a is None) or (hi is not None and z is None)
    # the line's own pole guard (resonator._xi_checked) around xi = k pi, k >= 1
    guard = XI_POLE_GUARD
    xi_lo = lobe * math.pi if lobe else -math.inf
    xi_hi = (lobe + 1) * math.pi
    # cleared bounding pole terms: c * delta_k/(lam_k - lam) = -/+ (c/e_k) delta_k/lam_k
    rest, r_lo, r_hi = [], 0.0, 0.0
    for p in b.poles:
        if p.location == a:
            r_lo = p.strength / a
        elif p.location == z:
            r_hi = p.strength / z
        else:
            rest.append((p.location, p.strength))
    beta, gamma = b.beta, b.gamma
    log_deriv, sqrt, sin, cos, fabs = line_log_deriv, math.sqrt, math.sin, math.cos, abs

    def cleared(lam, parts=False):
        e_lo = (lam - a) / a if a else 1.0
        e_hi = (z - lam) / z if z else 1.0
        e = e_lo * e_hi
        d = 1.0
        if clear_xi:
            xi = sqrt(lam) * length
            d = sign * sin(xi) / xi if xi else 1.0
            if fabs(xi - xi_hi) < guard or fabs(xi - xi_lo) < guard:
                # inside the line's own pole guard: sin(xi)/xi * G = cos(xi)/L
                g_side = sign * cos(xi) / length * e
            else:
                g_side = d * log_deriv(lam, length) * e
        else:
            g_side = log_deriv(lam, length) * e
        f = -beta * lam - gamma
        for loc, s in rest:
            f += s / (loc - lam)
        f_side = d * (e * f - e_hi * r_lo + e_lo * r_hi)
        if parts:
            return g_side, f_side, d * e
        return g_side - f_side

    return cleared


def _slope_bounds(length: float, b):
    """bounds(x0, x1, lobe) -> (lower, upper) of H' over the cell [x0, x1],
    which holds no pole inside and stays in the lobe [lobe pi, (lobe+1) pi]
    of xi = sqrt(lam) L. What does not depend on the cell is set up once.
    `c if c > a else a` is max(a, c) and `c if c < a else a` is min(a, c),
    operand for operand, without the call."""
    beta, inf = b.beta, math.inf
    emission = [(p.location, -p.strength) for p in b.poles if p.strength < 0.0]
    # per pole: -delta_k, and -delta_k / d^2 at d = 0
    terms = [(p.location, -p.strength, -math.copysign(inf, p.strength)) for p in b.poles]
    # G' <= -L/3, and absorption terms (delta_k > 0) only lower H'
    slack = beta - length / 3.0
    sqrt, sin, pi = math.sqrt, math.sin, math.pi

    def bounds(x0, x1, lobe):
        upper = slack
        for loc, w in emission:
            d, d0 = loc - x1, x0 - loc
            if d0 > d:
                d = d0
            upper = upper + w / (d * d) if d else inf
        if upper < 0.0:
            return -inf, upper
        # G'/L = N(xi) / (2 xi sin^2 xi) with N = sin(2 xi)/2 - xi, which is
        # negative and falling for xi > 0; sin^2 is unimodal on the lobe
        xi0, xi1 = sqrt(x0) * length, sqrt(x1) * length
        s0, s1 = sin(xi0) ** 2, sin(xi1) ** 2
        s_max = 1.0 if xi0 <= (lobe + 0.5) * pi <= xi1 else s1 if s1 > s0 else s0
        s_min = s1 if s1 < s0 else s0
        g_hi = (0.5 * sin(2.0 * xi0) - xi0) / (2.0 * xi1 * s_max)
        if not g_hi < -1.0 / 3.0:
            g_hi = -1.0 / 3.0
        g_lo = (0.5 * sin(2.0 * xi1) - xi1) / (2.0 * xi0 * s_min) if xi0 else -inf
        if lobe == 0:
            # sin x >= x - x^3/6 gives G'/L >= -xi^2 / (3 sin^2 xi), falling
            # on (0, pi) and finite at xi = 0, where the bound above is not
            g_0 = -xi1 * xi1 / (3.0 * s1)
            if g_0 > g_lo:
                g_lo = g_0
        lower, upper = beta + length * g_lo, beta + length * g_hi
        for loc, ns, t_pole in terms:
            # -delta_k / d^2 at the pole's nearest and farthest distance
            near, d0 = loc - x1, x0 - loc
            if d0 > near:
                near = d0
            far, d1 = loc - x0, x1 - loc
            if d1 > far:
                far = d1
            t_near = ns / (near * near) if near else t_pole
            t_far = ns / (far * far)
            lower += t_far if t_far < t_near else t_near
            upper += t_far if t_far > t_near else t_near
        return lower, upper

    return bounds


def _raw(parts, length):
    """H at an interior cell end, from its parts (c*G, c*F, c), and the
    residual test's tolerance there."""
    g_side, f_side, c = parts
    return (g_side - f_side) / c, RESIDUAL_REL * max(abs(g_side), abs(f_side), c / length) / c


def _isolate(ch, lo, hi, lam_max: float, bounds, lobe: int, length: float):
    """Brackets (x0, x1, c*H(x0), c*H(x1)) of every root in (a, z], the
    interval between the PolePoints lo and hi (None at 0 and at lam_max).

    Cells are settled left to right. One proven monotone owns a root at its
    right end, where c*H may vanish exactly, not at its left: that belongs
    to the cell before, and lam = 0 lies outside the domain. Where a falling
    cell meets a rising one the sign of H alone decides between two roots
    and none, so there, and all over a cell settled as holding none, |H|
    must exceed the residual test's tolerance. H is taken at interior ends
    only: sin(k pi) is not 0 in floats, so (c*H)/c has no sign at a pole.
    Each cell carries its ends' parts (c*G, c*F, c), so no end is evaluated
    twice.
    """
    a = lo.location if lo is not None else 0.0
    z = hi.location if hi is not None else lam_max
    brackets, last = [], 0.0    # last: +1/-1 if the cell settled before rose/fell, else 0
    cells = [(a, z, ch(a, parts=True), ch(z, parts=True))]
    while cells:
        x0, x1, p0, p1 = cells.pop()
        c0, c1 = p0[0] - p0[1], p1[0] - p1[1]
        lower, upper = bounds(x0, x1, lobe)
        if upper < 0.0 or lower > 0.0:
            rising = 1.0 if lower > 0.0 else -1.0
            # taken in the rising direction, the end signs must not fall;
            # where they do, rounding has swamped c*H on the cell
            u0, u1 = rising * c0, rising * c1
            if u0 >= 0.0 >= u1:
                raise SolverError(f"end signs contradict the slope bound on [{x0}, {x1}]")
            if last == -rising:
                h0, tol = _raw(p0, length)
                if abs(h0) <= tol:
                    raise SolverError(f"H turns within {tol:.3e} of zero at lam={x0}")
            if u0 < 0.0 <= u1:
                brackets.append((x0, x1, c0, c1))
            last = rising
            continue
        if (lo is None or x0 != a) and (hi is None or x1 != z):
            (h0, t0), (h1, t1) = _raw(p0, length), _raw(p1, length)
            # |H'| <= s keeps |H| >= (|h0 + h1| - s (x1 - x0)) / 2 if h0, h1 share a sign
            if h0 * h1 > 0.0 and abs(h0 + h1) - max(upper, -lower) * (x1 - x0) > 2.0 * max(t0, t1):
                last = 0.0
                continue
        mid = 0.5 * (x0 + x1)
        if not x0 < mid < x1:
            raise SolverError(f"no certified root count on [{x0}, {x1}]")
        pm = ch(mid, parts=True)
        cells += [(mid, x1, pm, p1), (x0, mid, p0, pm)]
    return brackets


def _refine(ch, a: float, z: float, fa: float, fz: float, length: float) -> EigenvalueRecord:
    """Brent's root of c*H on the bracket [a, z], checked by the residual test."""
    root, iters = _brent(ch, a, z, fa, fz)
    # |c*H| against the scale of the raw sides, max(|G|, |F|, 1/L): next
    # to a pole the raw |H| at the float nearest the root can exceed it.
    # A root closer to its pole than one ulp rounds onto it (c = 0);
    # Brent's bracket already pins it to rounding.
    g_side, f_side, c = ch(root, parts=True)
    residual = abs(g_side - f_side)
    scale = max(abs(g_side), abs(f_side), c / length) / c if c else math.inf
    if residual > RESIDUAL_REL * scale:
        raise SolverError(
            f"root at lam={root} cleared residual {residual:.3e} exceeds "
            f"{RESIDUAL_REL} of scale {scale:.3e}"
        )
    return EigenvalueRecord(root, (a, z), residual, iters)


def _refine_near(
    brackets, near: float, length: float, nearest_only: bool = False
) -> list[EigenvalueRecord]:
    """Records of the largest root <= near and the smallest >= near, or
    with nearest_only of the one nearest near (the lower on a tie).

    brackets run left to right, (c*H, x0, x1, c*H(x0), c*H(x1)) each, and a
    bracket's root lies in [x0, x1]. Bracket k, the first whose right end
    reaches near (else the last), holds one of the two: every root before
    it lies below near and every root after it above. The other is root
    k-1 or k+1, on the side of near that root k leaves open, if any. With
    nearest_only it is refined only if its bracket reaches as close to
    near as root k.
    """
    if not brackets:
        return []
    k = next((i for i, br in enumerate(brackets) if br[2] >= near), len(brackets) - 1)
    root = _refine(*brackets[k], length)
    j = k + 1 if root.lam < near else k - 1 if root.lam > near else k
    if j == k or not 0 <= j < len(brackets):
        return [root]
    if nearest_only:
        _, x0, x1, _, _ = brackets[j]
        if (near - x1 if j < k else x0 - near) > abs(root.lam - near):
            return [root]
    other = _refine(*brackets[j], length)
    pair = [other, root] if j < k else [root, other]
    if nearest_only:
        return [min(pair, key=lambda r: abs(r.lam - near))]
    return pair


@lru_cache(maxsize=1)
def _line_partition(length: float):
    """(lam_max, Dirichlet poles below it, their PolePoints): the part of a
    solve's partition that depends on the line alone. One entry, so a run of
    solves on one line builds it once and the next line replaces it."""
    try:
        lam_max = default_lam_max(length) if length > 0.0 else 0.0
    except OverflowError:    # (6 pi / L)^2 beyond the float range
        lam_max = math.inf
    if not 0.0 < lam_max < math.inf:
        raise ValueError(f"line length {length!r} must be positive with a finite lam_max > 0")
    dirichlet = tuple(dirichlet_poles(length, 5))
    markers = tuple(PolePoint(p, "dirichlet") for p in dirichlet)
    return lam_max, dirichlet, markers


def solve_spectrum(
    length: float, b, near: float | None = None, nearest_only: bool = False
) -> DressedSpectrum:
    """Dressed eigenvalues on (0, lam_max]: all of them, or with `near` the
    largest one <= near and the smallest >= near, or with `near` and
    nearest_only the one nearest near, the lower of two as near as each
    other (what nearest_eigenvalue(near) reads).

    The domain is fixed: lam_max is default_lam_max(length), just below the
    sixth Dirichlet pole, so every solve cuts it at the same five line
    poles and holds the first six quarter-wave modes, dressed.

    The line is its `length` alone, and `b` is a RationalBoundary, read
    through its poles, beta and gamma only. Every interval is solved on its
    cleared function c*H, its root count certified by a slope bound (module
    docstring), whatever `near` is; `near` and nearest_only only select the
    roots Brent's method refines, and each refined root is bit-identical to
    the full solve's. A nearest_only solve refines the other root next to
    near only when its bracket reaches as close to near as the first root,
    and its spectrum refuses a pair read (_NearestRoot). Raises ValueError
    for nearest_only without near and for a length that is not positive or
    gives no positive finite lam_max, PoleCollisionError when a boundary
    pole sits within 1e-6 relative of a Dirichlet pole, and SolverError
    when a boundary pole sits exactly at lam_max, when no count can be
    certified (two roots too close to tell apart, or H turning within the
    residual tolerance of zero) or a refined root's cleared residual is too
    large.
    """
    if nearest_only and near is None:
        raise ValueError("nearest_only needs near")
    lam_max, dirichlet, line_markers = _line_partition(length)
    markers = list(line_markers)
    for p in b.poles:
        if p.location == lam_max:
            # not a marker, so c*H would divide by lam_k - lam = 0 at the end
            raise SolverError(
                f"boundary pole {p.label or p.location} sits exactly at lam_max={lam_max}"
            )
        if p.location > lam_max:
            continue
        for d in dirichlet:
            if abs(p.location - d) < DIRICHLET_COLLISION_REL * d:
                raise PoleCollisionError(
                    f"boundary pole {p.label or p.location} within "
                    f"{DIRICHLET_COLLISION_REL} relative of Dirichlet pole at {d}"
                )
        markers.append(PolePoint(p.location, "boundary"))
    markers.sort(key=_location)

    bounds = _slope_bounds(length, b)
    ends = [None, *markers, None]
    brackets, counts = [], []
    lobe = 0
    for lo, hi in zip(ends, ends[1:]):
        if lo is not None and lo.kind == "dirichlet":
            lobe += 1
        ch = _cleared_secular(length, b, lo, hi, lobe)
        found = _isolate(ch, lo, hi, lam_max, bounds, lobe, length)
        for br in found:
            brackets.append((ch, *br))
        counts.append(len(found))

    if near is None:
        records = [_refine(*br, length) for br in brackets]
    else:
        records = _refine_near(brackets, near, length, nearest_only)
    for r1, r2 in zip(records, records[1:]):
        if not r1.lam < r2.lam:
            raise SolverError("eigenvalues not strictly increasing")

    return (_NearestRoot if nearest_only else DressedSpectrum)(
        records=tuple(records),
        partition=tuple(markers),
        counts=tuple(counts),
        lam_max=lam_max,
        near=near,
    )


def pole_margins(spectrum: DressedSpectrum) -> tuple[float, ...]:
    """Each root's smallest relative distance to a boundary pole, () when
    no boundary pole lies in the domain. Reads every root, so a spectrum
    solved with `near` is a ValueError."""
    if spectrum.near is not None:
        raise ValueError("pole_margin reads every root; solve without near")
    bpoles = [m.location for m in spectrum.partition if m.kind == "boundary"]
    if not bpoles:
        return ()
    return tuple(min(abs(r.lam - p) / p for p in bpoles) for r in spectrum.records)


def pole_margin(spectrum: DressedSpectrum) -> float:
    """Minimum relative distance from any eigenvalue to any boundary pole,
    inf without either (pole_margins)."""
    return min(pole_margins(spectrum), default=math.inf)


def _fundamental_pair(sp: DressedSpectrum, lam_ref: float, v: float) -> tuple[float, float]:
    """The dressed frequencies of the roots nearest lam_ref, the bare
    fundamental, one at or below it and one at or above; SolverError when
    either is missing."""
    sp._check_reads(lam_ref, pair=True)
    lower = max((x for x in sp.eigenvalues if x <= lam_ref), default=None)
    upper = min((x for x in sp.eigenvalues if x >= lam_ref), default=None)
    if lower is None or upper is None:
        raise SolverError("no dressed pair brackets the fundamental")
    return lambda_to_omega(lower, v), lambda_to_omega(upper, v)


@dataclass(frozen=True)
class CrossingSweep:
    """Branches of the avoided crossing as the qubit tunes through the mode."""

    qubit_frequency: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.qubit_frequency) == len(self.lower) == len(self.upper)):
            raise ValueError("branch arrays must share a grid")
        for wq, lo, hi in zip(self.qubit_frequency, self.lower, self.upper):
            if not hi - lo > 0.0:
                raise ValueError(f"branch gap must stay positive at omega_q={wq / GHZ:.12g} GHz")

    @property
    def gap(self) -> tuple[float, ...]:
        return tuple(u - l for l, u in zip(self.lower, self.upper))


def qubit_frequency_sweep(
    dev: DeviceParams,
    spec: TransmonSpec,
    omega_q_values,
    levels: int = 2,
) -> CrossingSweep:
    """Dressed branches bracketing the fundamental as omega_q is tuned.

    Poles and residues move with omega_q; the coupling is held fixed. At each
    grid point the two dressed frequencies nearest the bare fundamental (one
    at or below, one at or above) are recorded; only those two roots are
    refined. A ValueError at zero coupling, before any solve: there is no
    crossing to follow.
    """
    if resolved_coupling(spec, dev) == 0.0:
        raise ValueError(
            "zero coupling: at g = 0 the qubit adds no pole, "
            "so there is no avoided crossing to follow"
        )
    grid = tuple(omega_q_values)
    v = dev.phase_velocity
    lam_ref = omega_to_lambda(dev.fundamental_frequency, v)

    def solve_one(omega_q):
        bnd = transmon_boundary(replace(spec, frequency=omega_q), dev, levels)
        try:
            sp = solve_spectrum(dev.length, bnd, near=lam_ref)
            return _fundamental_pair(sp, lam_ref, v)
        except SolverError as exc:
            raise type(exc)(f"{exc} at omega_q={omega_q / GHZ:.12g} GHz") from None

    pairs = [solve_one(w) for w in grid]
    return CrossingSweep(
        qubit_frequency=grid,
        lower=tuple(p[0] for p in pairs),
        upper=tuple(p[1] for p in pairs),
    )


@dataclass(frozen=True)
class RabiSplitting:
    measured: float    # gap between the dressed pair at resonance
    predicted: float   # (v^2/omega_q) sqrt(2 delta / L); identically 2g
    margin: float      # relative eigenvalue-pole margin at resonance


def vacuum_rabi_gap(dev: DeviceParams, spec: TransmonSpec) -> RabiSplitting:
    """Vacuum Rabi splitting with the qubit tuned to the fundamental.

    The qubit is tuned there and put in g whatever spec says. With zero
    coupling the pole term vanishes and the crossing is degenerate: both
    branches coincide with the fundamental and the gap and margin are zero.
    """
    omega_ref = dev.fundamental_frequency
    bnd = transmon_boundary(replace(spec, frequency=omega_ref, state="g"), dev, levels=2)
    if not bnd.poles:
        return RabiSplitting(measured=0.0, predicted=0.0, margin=0.0)
    delta = bnd.poles[0].strength
    v = dev.phase_velocity
    predicted = (v * v / omega_ref) * math.sqrt(2.0 * delta / dev.length)
    sp = solve_spectrum(dev.length, bnd)
    lower, upper = _fundamental_pair(sp, omega_to_lambda(omega_ref, v), v)
    return RabiSplitting(
        measured=upper - lower,
        predicted=predicted,
        margin=pole_margin(sp),
    )
