"""Dressed-mode spectra of the terminated line.

Eigenvalues are the roots of H(lam) = G(lam) - F(lam) on (0, lam_max], with
G the line's log-derivative and F the rational boundary function; lam_max is
fixed at ShortedLine.default_lam_max(), just below the sixth Dirichlet pole.
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
Brent runs. A root's record does not depend on which others are refined.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .boundary import transmon_boundary
from .errors import PoleCollisionError, SolverError
from .params import DeviceParams, TransmonSpec, lambda_to_omega, omega_to_lambda
from .resonator import XI_POLE_GUARD, ShortedLine, line_log_deriv

RESIDUAL_REL = 1e-8          # threshold on |c*H| over max(|G|, |F|, 1/L)
BRENT_MAX_STEPS = 200        # safety cap; 3000 random ground-state devices need <= 23
DIRICHLET_COLLISION_REL = 1e-6


@dataclass(frozen=True)
class PolePoint:
    location: float
    kind: str      # "dirichlet" or "boundary"
    label: str


@dataclass(frozen=True)
class EigenvalueRecord:
    lam: float
    bracket: tuple[float, float]
    residual: float
    iterations: int


@dataclass(frozen=True)
class DressedSpectrum:
    """Roots of one solve. partition, intervals, counts and interlacing
    always cover the whole domain. records holds every root when near is
    None, else only the roots next to near (solve_spectrum), and then only
    questions about near itself can be answered from it."""

    records: tuple[EigenvalueRecord, ...]
    partition: tuple[PolePoint, ...]
    intervals: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    interlacing: tuple[bool | None, ...]   # None on the two edge intervals
    lam_max: float
    near: float | None = None

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(r.lam for r in self.records)

    def frequencies(self, v: float) -> tuple[float, ...]:
        return tuple(lambda_to_omega(r.lam, v) for r in self.records)

    def _check_reads(self, lam: float):
        """ValueError unless the records answer questions about lam: a
        partial spectrum holds only the roots next to near."""
        if self.near is not None and lam != self.near:
            raise ValueError(f"spectrum refined near lam={self.near} read at lam={lam}")

    def nearest_eigenvalue(self, lam: float) -> float:
        self._check_reads(lam)
        if not self.records:
            raise SolverError("spectrum is empty")
        return min(self.records, key=lambda r: abs(r.lam - lam)).lam


def _brent(f, a: float, b: float, fa: float, fb: float):
    """Root of f in [a, b], given f(a) and f(b) of opposite signs or f(b) == 0.

    Brent's zeroin: inverse quadratic or secant steps, falling back to
    bisection whenever they would not shrink the bracket fast enough, down
    to a bracket of a few ulps. Returns the root and the evaluations spent.
    """
    c, fc = a, fa
    d = e = b - a
    for evals in range(BRENT_MAX_STEPS):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * sys.float_info.epsilon * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, evals
        if abs(e) < tol or abs(fa) <= abs(fb):
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
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    raise SolverError(f"Brent refinement did not converge in [{a}, {b}]")


def _cleared_secular(line: ShortedLine, b, lo, hi, lobe: int):
    """c*H on one interval, with c > 0 inside it and zero at its poles.

    lo and hi are the bounding PolePoints, None at 0 and lam_max, and
    xi = sqrt(lam) L stays in the lobe (lobe pi, (lobe+1) pi). c carries
    sin(xi)/xi, signed positive on that lobe, when a Dirichlet pole bounds
    the interval, and |lam_k - lam|/lam_k for each bounding boundary pole,
    so c*H is finite and continuous on the closed interval. Returns
    cleared(lam), which is c*H, or (c*G, c*F, c) with parts=True.
    """
    length = line.length
    sign = -1.0 if lobe % 2 else 1.0
    clear_xi = any(m is not None and m.kind == "dirichlet" for m in (lo, hi))
    # the line's own pole guard (resonator._xi_checked) around xi = k pi, k >= 1
    xi_lo = lobe * math.pi if lobe else -math.inf
    xi_hi = (lobe + 1) * math.pi
    a = lo.location if lo is not None and lo.kind == "boundary" else None
    z = hi.location if hi is not None and hi.kind == "boundary" else None
    poles = b.poles
    rest = [(p.location, p.strength) for p in poles if p.location not in (a, z)]
    # cleared bounding pole terms: c * delta_k/(lam_k - lam) = -/+ (c/e_k) delta_k/lam_k
    r_lo = next((p.strength / a for p in poles if p.location == a), 0.0)
    r_hi = next((p.strength / z for p in poles if p.location == z), 0.0)
    beta, gamma = b.beta, b.gamma
    log_deriv, sqrt, sin, cos = line_log_deriv, math.sqrt, math.sin, math.cos

    def cleared(lam, parts=False):
        e_lo = (lam - a) / a if a else 1.0
        e_hi = (z - lam) / z if z else 1.0
        e = e_lo * e_hi
        d = 1.0
        if clear_xi:
            xi = sqrt(lam) * length
            d = sign * sin(xi) / xi if xi else 1.0
            if abs(xi - xi_hi) < XI_POLE_GUARD or abs(xi - xi_lo) < XI_POLE_GUARD:
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


def _slope_bounds(line: ShortedLine, b):
    """bounds(x0, x1, lobe) -> (lower, upper) of H' over the cell [x0, x1],
    which holds no pole inside and stays in the lobe [lobe pi, (lobe+1) pi]
    of xi = sqrt(lam) L. What does not depend on the cell is set up once."""
    length, beta, poles = line.length, b.beta, b.poles
    emission = [(p.location, -p.strength) for p in poles if p.strength < 0.0]
    # G' <= -L/3, and absorption terms (delta_k > 0) only lower H'
    slack = beta - length / 3.0
    sqrt, sin, inf, pi = math.sqrt, math.sin, math.inf, math.pi

    def bounds(x0, x1, lobe):
        upper = slack
        for loc, w in emission:
            d = max(loc - x1, x0 - loc)
            upper = upper + w / (d * d) if d else inf
        if upper < 0.0:
            return -inf, upper
        # G'/L = N(xi) / (2 xi sin^2 xi) with N = sin(2 xi)/2 - xi, which is
        # negative and falling for xi > 0; sin^2 is unimodal on the lobe
        xi0, xi1 = sqrt(x0) * length, sqrt(x1) * length
        s0, s1 = sin(xi0) ** 2, sin(xi1) ** 2
        s_max = 1.0 if xi0 <= (lobe + 0.5) * pi <= xi1 else max(s0, s1)
        g_hi = min(-1.0 / 3.0, (0.5 * sin(2.0 * xi0) - xi0) / (2.0 * xi1 * s_max))
        g_lo = (0.5 * sin(2.0 * xi1) - xi1) / (2.0 * xi0 * min(s0, s1)) if xi0 else -inf
        if lobe == 0:
            # sin x >= x - x^3/6 gives G'/L >= -xi^2 / (3 sin^2 xi), falling
            # on (0, pi) and finite at xi = 0, where the bound above is not
            g_lo = max(g_lo, -xi1 * xi1 / (3.0 * s1))
        lower, upper = beta + length * g_lo, beta + length * g_hi
        for p in poles:
            # -delta_k / d^2 at the pole's nearest and farthest distance
            loc, s = p.location, p.strength
            near, far = max(loc - x1, x0 - loc), max(loc - x0, x1 - loc)
            t_near = -s / (near * near) if near else -math.copysign(inf, s)
            t_far = -s / (far * far)
            lower += min(t_near, t_far)
            upper += max(t_near, t_far)
        return lower, upper

    return bounds


def _raw(ch, x, length):
    """H at an interior x and the residual test's tolerance there."""
    g_side, f_side, c = ch(x, parts=True)
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
    """
    a = lo.location if lo is not None else 0.0
    z = hi.location if hi is not None else lam_max
    brackets, last = [], 0.0    # last: +1/-1 if the cell settled before rose/fell, else 0
    cells = [(a, z, ch(a), ch(z))]
    while cells:
        x0, x1, c0, c1 = cells.pop()
        lower, upper = bounds(x0, x1, lobe)
        if upper < 0.0 or lower > 0.0:
            rising = 1.0 if lower > 0.0 else -1.0
            # taken in the rising direction, the end signs must not fall;
            # where they do, rounding has swamped c*H on the cell
            u0, u1 = rising * c0, rising * c1
            if u0 >= 0.0 >= u1:
                raise SolverError(f"end signs contradict the slope bound on [{x0}, {x1}]")
            if last == -rising:
                h0, tol = _raw(ch, x0, length)
                if abs(h0) <= tol:
                    raise SolverError(f"H turns within {tol:.3e} of zero at lam={x0}")
            if u0 < 0.0 <= u1:
                brackets.append((x0, x1, c0, c1))
            last = rising
            continue
        if (lo is None or x0 != a) and (hi is None or x1 != z):
            (h0, t0), (h1, t1) = _raw(ch, x0, length), _raw(ch, x1, length)
            # |H'| <= s keeps |H| >= (|h0 + h1| - s (x1 - x0)) / 2 if h0, h1 share a sign
            if h0 * h1 > 0.0 and abs(h0 + h1) - max(upper, -lower) * (x1 - x0) > 2.0 * max(t0, t1):
                last = 0.0
                continue
        mid = 0.5 * (x0 + x1)
        if not x0 < mid < x1:
            raise SolverError(f"no certified root count on [{x0}, {x1}]")
        cm = ch(mid)
        cells += [(mid, x1, cm, c1), (x0, mid, c0, cm)]
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


def _refine_near(brackets, near: float, length: float) -> list[EigenvalueRecord]:
    """Records of the largest root <= near and the smallest >= near.

    brackets run left to right, (c*H, x0, x1, c*H(x0), c*H(x1)) each, and a
    bracket's root lies in [x0, x1]. Bracket k, the first whose right end
    reaches near (else the last), holds one of the two: every root before
    it lies below near and every root after it above. The other is root
    k-1 or k+1, on the side of near that root k leaves open, if any.
    """
    if not brackets:
        return []
    k = next((i for i, br in enumerate(brackets) if br[2] >= near), len(brackets) - 1)
    root = _refine(*brackets[k], length)
    j = k + 1 if root.lam < near else k - 1 if root.lam > near else k
    if j == k or not 0 <= j < len(brackets):
        return [root]
    other = _refine(*brackets[j], length)
    return [other, root] if j < k else [root, other]


def solve_spectrum(line: ShortedLine, b, near: float | None = None) -> DressedSpectrum:
    """Dressed eigenvalues on (0, lam_max]: all of them, or with `near` the
    largest one <= near and the smallest >= near.

    The domain is fixed: lam_max is line.default_lam_max(), just below the
    sixth Dirichlet pole, so every solve cuts it at the same five line
    poles and holds the first six quarter-wave modes, dressed.

    `b` is read through its rational form only: poles, beta and gamma
    (RationalBoundary or FullSusceptanceBoundary). Every interval is solved
    on its cleared function c*H, its root count certified by a slope bound
    (module docstring), whatever `near` is; `near` only selects the roots
    Brent's method refines, and each refined root is bit-identical to the
    full solve's. Raises PoleCollisionError when a boundary pole sits within
    1e-6 relative of a Dirichlet pole, and SolverError when a boundary pole
    sits exactly at lam_max, when no count can be certified (two roots too
    close to tell apart, or H turning within the residual tolerance of
    zero) or a refined root's cleared residual is too large.
    """
    length = line.length
    lam_max = line.default_lam_max()
    count = int(math.sqrt(lam_max) * length / math.pi) + 1
    dirichlet = [p for p in line.poles(count) if p < lam_max]
    markers = [PolePoint(p, "dirichlet", f"k={k}") for k, p in enumerate(dirichlet, 1)]
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
        markers.append(PolePoint(p.location, "boundary", p.label))
    markers.sort(key=lambda m: m.location)

    bounds = _slope_bounds(line, b)
    ends = [None, *markers, None]
    brackets, counts, flags = [], [], []
    lobe = 0
    for lo, hi in zip(ends, ends[1:]):
        if lo is not None and lo.kind == "dirichlet":
            lobe += 1
        ch = _cleared_secular(line, b, lo, hi, lobe)
        found = _isolate(ch, lo, hi, lam_max, bounds, lobe, length)
        brackets += [(ch, *br) for br in found]
        counts.append(len(found))
        flags.append(len(found) == 1 if lo is not None and hi is not None else None)

    if near is None:
        records = [_refine(*br, length) for br in brackets]
    else:
        records = _refine_near(brackets, near, length)
    for r1, r2 in zip(records, records[1:]):
        if not r1.lam < r2.lam:
            raise SolverError("eigenvalues not strictly increasing")

    edges = [0.0] + [m.location for m in markers] + [lam_max]
    return DressedSpectrum(
        records=tuple(records),
        partition=tuple(markers),
        intervals=tuple(zip(edges, edges[1:])),
        counts=tuple(counts),
        interlacing=tuple(flags),
        lam_max=lam_max,
        near=near,
    )


def pole_margin(spectrum: DressedSpectrum) -> float:
    """Minimum relative distance from any eigenvalue to any boundary pole.
    Reads every root, so a spectrum solved with `near` is a ValueError."""
    if spectrum.near is not None:
        raise ValueError("pole_margin reads every root; solve without near")
    bpoles = [m.location for m in spectrum.partition if m.kind == "boundary"]
    if not bpoles or not spectrum.records:
        return math.inf
    return min(
        abs(r.lam - p) / p for r in spectrum.records for p in bpoles
    )


def _fundamental_pair(sp: DressedSpectrum, lam_ref: float, v: float) -> tuple[float, float]:
    """The dressed frequencies of the roots nearest lam_ref, the bare
    fundamental, one at or below it and one at or above; SolverError when
    either is missing."""
    sp._check_reads(lam_ref)
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
        for lo, hi in zip(self.lower, self.upper):
            if not hi - lo > 0.0:
                raise ValueError("branch gap must stay positive")

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
    refined.
    """
    line = ShortedLine(dev.length)
    v = dev.phase_velocity
    lam_ref = omega_to_lambda(dev.fundamental_frequency, v)

    def solve_one(omega_q):
        bnd = transmon_boundary(replace(spec, frequency=omega_q), dev, levels)
        sp = solve_spectrum(line, bnd, near=lam_ref)
        try:
            return _fundamental_pair(sp, lam_ref, v)
        except SolverError as exc:
            raise SolverError(f"{exc} at omega_q={omega_q}") from None

    pairs = [solve_one(w) for w in omega_q_values]
    return CrossingSweep(
        qubit_frequency=tuple(omega_q_values),
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

    The ground-state boundary is used regardless of spec.state. With zero
    coupling the pole term vanishes and the crossing is degenerate: both
    branches coincide with the fundamental and the gap and margin are zero.
    """
    omega_ref = dev.fundamental_frequency
    if abs(spec.frequency - omega_ref) > 1e-9 * omega_ref:
        raise ValueError("qubit must be tuned to the fundamental frequency")
    bnd = transmon_boundary(replace(spec, state="g"), dev, levels=2)
    if not bnd.poles:
        return RabiSplitting(measured=0.0, predicted=0.0, margin=0.0)
    delta = bnd.poles[0].strength
    v = dev.phase_velocity
    predicted = (v * v / spec.frequency) * math.sqrt(2.0 * delta / dev.length)
    sp = solve_spectrum(ShortedLine(dev.length), bnd)
    lower, upper = _fundamental_pair(sp, omega_to_lambda(omega_ref, v), v)
    return RabiSplitting(
        measured=upper - lower,
        predicted=predicted,
        margin=pole_margin(sp),
    )
