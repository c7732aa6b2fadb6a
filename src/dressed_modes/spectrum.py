"""Dressed-mode spectra of the terminated line.

Eigenvalues are the roots of H(lam) = log_deriv(lam) - F(lam) on (0, lam_max].
The domain is partitioned at every pole of either side.

Certified path: a RationalBoundary with every residue positive and
beta < L/3. There log_deriv' <= -L/3 everywhere, so
H' = log_deriv' + beta - sum_k delta_k / (lam_k - lam)^2 <= -L/3 + beta < 0:
H falls from +inf just right of each pole to -inf just left of the next. The
count of every interval follows from the signs at its ends, with no scan:
one root in each pole-bounded interval, and one in an edge interval iff
H(0) = 1/L - F(0) > 0, resp. H(lam_max) <= 0. Each root is refined by
Brent's method on the interval's cleared function c*H, where c > 0 vanishes
at the bounding poles (sin(xi)/xi for a Dirichlet pole, |lam_k - lam|/lam_k
for a boundary pole), so a root next to a pole is an ordinary root. The
residual test takes |c*H| against the raw scale max(|G|, |F|, 1/L): next to
a pole the raw |H| at the float nearest the root can exceed RESIDUAL_REL of
that scale, while c*H there is exact to rounding.

Scan path: mixed-sign residues (occupied excited state), beta >= L/3, and
FullSusceptanceBoundary. Each subinterval, clamped CLAMP_REL away from its
poles, is scanned on an adaptive grid for sign changes; every bracket is
refined by bisection and polished with a few safeguarded Newton steps using
analytic derivatives. Intervals may hold zero or several roots and all of
them are reported.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .boundary import RationalBoundary, transmon_boundary
from .errors import InterlacingError, PoleCollisionError, SolverError
from .params import DeviceParams, TransmonSpec, lambda_to_omega
from .resonator import XI_POLE_GUARD, ShortedLine

BRACKET_REL = 1e-13          # bisection stops at this relative bracket width
RESIDUAL_REL = 1e-8          # threshold on |H| (certified: |c*H|) over max(|G|, |F|, 1/L)
CLAMP_REL = 1e-8             # scan path: evaluation offset from pole endpoints
GRID_INITIAL = 64
GRID_MAX = 4096
NEWTON_STEPS = 5
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
    records: tuple[EigenvalueRecord, ...]
    partition: tuple[PolePoint, ...]
    intervals: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    interlacing: tuple[bool | None, ...]   # None on the two edge intervals
    lam_max: float

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(r.lam for r in self.records)

    def frequencies(self, v: float) -> tuple[float, ...]:
        return tuple(lambda_to_omega(r.lam, v) for r in self.records)

    def nearest_eigenvalue(self, lam: float) -> float:
        if not self.records:
            raise SolverError("spectrum is empty")
        return min(self.records, key=lambda r: abs(r.lam - lam)).lam


def _scan_brackets(h, lo: float, hi: float, n: int):
    """Sign changes of h on an n-point uniform grid over [lo, hi]."""
    step = (hi - lo) / (n - 1)
    brackets = []
    x_prev = lo
    v_prev = h(lo)
    for i in range(1, n):
        x = hi if i == n - 1 else lo + i * step
        v = h(x)
        if v_prev == 0.0:
            brackets.append((x_prev, x_prev, 0.0, 0.0))
        elif v == 0.0:
            pass  # picked up as the next leading edge
        elif (v_prev < 0.0) != (v < 0.0):
            brackets.append((x_prev, x, v_prev, v))
        x_prev, v_prev = x, v
    if v_prev == 0.0:
        brackets.append((x_prev, x_prev, 0.0, 0.0))
    return brackets


def _refine(h, dh, a: float, b: float, ha: float, hb: float):
    """Bisection to BRACKET_REL width, then safeguarded Newton polish."""
    iters = 0
    if a == b:
        return a, iters
    while (b - a) > BRACKET_REL * max(abs(a), abs(b)):
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            break
        hm = h(mid)
        iters += 1
        if hm == 0.0:
            return mid, iters
        if (hm < 0.0) == (ha < 0.0):
            a, ha = mid, hm
        else:
            b, hb = mid, hm
    x = 0.5 * (a + b)
    hx = h(x)
    for _ in range(NEWTON_STEPS):
        if hx == 0.0:
            break
        d = dh(x)
        if d == 0.0:
            break
        x_next = x - hx / d
        if not (a <= x_next <= b):
            break
        h_next = h(x_next)
        iters += 1
        if abs(h_next) < abs(hx):
            x, hx = x_next, h_next
        else:
            break
    return x, iters


def _brent(f, a: float, b: float, fa: float, fb: float):
    """Root of f in [a, b], given f(a) and f(b) of opposite signs.

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


def _cleared_secular(line: ShortedLine, b: RationalBoundary, lo, hi, lobe: int):
    """c*H on one interval, with c > 0 inside it and zero at its poles.

    lo and hi are the bounding PolePoints, None at 0 and lam_max, and
    xi = sqrt(lam) L stays in the lobe (lobe pi, (lobe+1) pi). c carries
    sin(xi)/xi, signed positive on that lobe, when a Dirichlet pole bounds
    the interval, and |lam_k - lam|/lam_k for each bounding boundary pole,
    so c*H is finite and continuous on the closed interval. Returns
    lam -> (c*G, c*F, c).
    """
    length = line.length
    sign = -1.0 if lobe % 2 else 1.0
    clear_xi = any(m is not None and m.kind == "dirichlet" for m in (lo, hi))
    a = lo.location if lo is not None and lo.kind == "boundary" else None
    z = hi.location if hi is not None and hi.kind == "boundary" else None
    rest = [(p.location, p.strength) for p in b.poles if p.location not in (a, z)]
    # cleared bounding pole terms: c * delta_k/(lam_k - lam) = -/+ (c/e_k) delta_k/lam_k
    r_lo = next((p.strength / a for p in b.poles if p.location == a), 0.0)
    r_hi = next((p.strength / z for p in b.poles if p.location == z), 0.0)
    beta, gamma = b.beta, b.gamma

    def cleared(lam):
        e_lo = (lam - a) / a if a is not None else 1.0
        e_hi = (z - lam) / z if z is not None else 1.0
        e = e_lo * e_hi
        d = 1.0
        if clear_xi:
            xi = math.sqrt(lam) * length
            d = sign * math.sin(xi) / xi if xi else 1.0
            k = round(xi / math.pi)
            if k >= 1 and abs(xi - k * math.pi) < XI_POLE_GUARD:
                # inside the line's own pole guard: sin(xi)/xi * G = cos(xi)/L
                g_side = sign * math.cos(xi) / length * e
            else:
                g_side = d * line.log_deriv(lam) * e
        else:
            g_side = line.log_deriv(lam) * e
        f = -beta * lam - gamma
        for loc, s in rest:
            f += s / (loc - lam)
        return g_side, d * (e * f - e_hi * r_lo + e_lo * r_hi), d * e

    return cleared


def _certified_intervals(line: ShortedLine, b: RationalBoundary, markers, lam_max: float):
    """Roots per interval, counted by monotonicity of H (module docstring)."""
    length = line.length
    bounds = [None, *markers, None]
    records, counts, flags = [], [], []
    lobe = 0
    for lo, hi in zip(bounds, bounds[1:]):
        if lo is not None and lo.kind == "dirichlet":
            lobe += 1
        lo_edge = lo.location if lo is not None else 0.0
        hi_edge = hi.location if hi is not None else lam_max
        cleared = _cleared_secular(line, b, lo, hi, lobe)

        def ch(lam):
            g_side, f_side, _ = cleared(lam)
            return g_side - f_side

        ca, cb = ch(lo_edge), ch(hi_edge)
        # H is +inf just right of a pole and -inf just left of one
        if (lo is not None and not ca > 0.0) or (hi is not None and not cb < 0.0):
            raise InterlacingError(
                "cleared secular function has the wrong sign at a pole",
                interval=(lo_edge, hi_edge),
                count=None,
            )
        pole_bounded = lo is not None and hi is not None
        flags.append(True if pole_bounded else None)
        if not (ca > 0.0 and cb <= 0.0):
            counts.append(0)
            continue
        root, iters = _brent(ch, lo_edge, hi_edge, ca, cb)
        # |c*H| against the scale of the raw sides, max(|G|, |F|, 1/L): next
        # to a pole the raw |H| at the float nearest the root can exceed it
        g_side, f_side, c = cleared(root)
        residual = abs(g_side - f_side)
        scale = max(abs(g_side), abs(f_side), c / length) / c
        if residual > RESIDUAL_REL * scale:
            raise SolverError(
                f"root at lam={root} cleared residual {residual:.3e} exceeds "
                f"{RESIDUAL_REL} of scale {scale:.3e}"
            )
        records.append(EigenvalueRecord(root, (lo_edge, hi_edge), residual, iters))
        counts.append(1)
    return records, counts, flags


def _scanned_intervals(line: ShortedLine, b, markers, lam_max: float):
    """Roots per interval from a sign-change scan clamped off the poles."""
    length = line.length

    def h(lam):
        return line.log_deriv(lam) - b.value(lam)

    def dh(lam):
        return line.dlog_deriv(lam) - b.derivative(lam)

    demand = b.all_positive_residues
    edges = [0.0] + [m.location for m in markers] + [lam_max]
    records: list[EigenvalueRecord] = []
    counts: list[int] = []
    flags: list[bool | None] = []

    for i in range(len(edges) - 1):
        lo_edge, hi_edge = edges[i], edges[i + 1]
        lo_is_pole = 0 < i
        hi_is_pole = i + 1 < len(edges) - 1
        lo = lo_edge + CLAMP_REL * lo_edge if lo_is_pole else lo_edge
        hi = hi_edge - CLAMP_REL * hi_edge if hi_is_pole else hi_edge
        pole_bounded = lo_is_pole and hi_is_pole
        if hi <= lo:
            if demand and pole_bounded:
                raise InterlacingError(
                    "interval too narrow to resolve",
                    interval=(lo_edge, hi_edge),
                    count=0,
                )
            counts.append(0)
            flags.append(None if not pole_bounded else False)
            continue

        n = GRID_INITIAL
        brackets = _scan_brackets(h, lo, hi, n)
        if demand and pole_bounded:
            while len(brackets) == 0 and n < GRID_MAX:
                n *= 2
                brackets = _scan_brackets(h, lo, hi, n)
            if len(brackets) != 1:
                raise InterlacingError(
                    f"expected one eigenvalue, found {len(brackets)}",
                    interval=(lo_edge, hi_edge),
                    count=len(brackets),
                )
        else:
            while n < GRID_MAX:
                n2 = n * 2
                finer = _scan_brackets(h, lo, hi, n2)
                if len(finer) == len(brackets):
                    break
                n, brackets = n2, finer

        found = 0
        for (ba, bb, ha, hb) in brackets:
            root, iters = _refine(h, dh, ba, bb, ha, hb)
            gval = line.log_deriv(root)
            fval = b.value(root)
            residual = abs(gval - fval)
            scale = max(abs(gval), abs(fval), 1.0 / length)
            if residual > RESIDUAL_REL * scale:
                raise SolverError(
                    f"root at lam={root} residual {residual:.3e} exceeds "
                    f"{RESIDUAL_REL} of scale {scale:.3e}"
                )
            records.append(EigenvalueRecord(root, (ba, bb), residual, iters))
            found += 1
        counts.append(found)
        flags.append(found == 1 if pole_bounded else None)
    return records, counts, flags


def solve_spectrum(line: ShortedLine, b, lam_max: float | None = None) -> DressedSpectrum:
    """All dressed eigenvalues on (0, lam_max].

    `b` is any boundary object exposing poles / value / derivative /
    all_positive_residues (RationalBoundary or FullSusceptanceBoundary).
    A RationalBoundary with all residues positive and beta < L/3 takes the
    certified path, everything else the scan (module docstring). Raises
    PoleCollisionError when a boundary pole sits within 1e-6 relative of a
    Dirichlet pole, InterlacingError when the positive-residue count
    guarantee fails, SolverError when a refined root's residual is too
    large; on the certified path the residual is that of the cleared
    function.
    """
    length = line.length
    if lam_max is None:
        lam_max = line.default_lam_max()
    if lam_max <= 0.0:
        raise ValueError("lam_max must be positive")

    markers: list[PolePoint] = []
    k = 1
    while True:
        p = (k * math.pi / length) ** 2
        if p >= lam_max:
            break
        markers.append(PolePoint(p, "dirichlet", f"k={k}"))
        k += 1
    dirichlet = [m.location for m in markers]
    for p in b.poles:
        if p.location >= lam_max:
            continue
        for d in dirichlet:
            if abs(p.location - d) < DIRICHLET_COLLISION_REL * d:
                raise PoleCollisionError(
                    f"boundary pole {p.label or p.location} within "
                    f"{DIRICHLET_COLLISION_REL} relative of Dirichlet pole at {d}"
                )
        markers.append(PolePoint(p.location, "boundary", p.label))
    markers.sort(key=lambda m: m.location)

    certified = (
        isinstance(b, RationalBoundary)
        and b.all_positive_residues
        and b.beta < length / 3.0
    )
    solve = _certified_intervals if certified else _scanned_intervals
    records, counts, flags = solve(line, b, markers, lam_max)

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
    )


def pole_margin(spectrum: DressedSpectrum) -> float:
    """Minimum relative distance from any eigenvalue to any boundary pole."""
    bpoles = [m.location for m in spectrum.partition if m.kind == "boundary"]
    if not bpoles or not spectrum.records:
        return math.inf
    return min(
        abs(r.lam - p) / p for r in spectrum.records for p in bpoles
    )


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
    lam_max: float | None = None,
) -> CrossingSweep:
    """Dressed branches bracketing the fundamental as omega_q is tuned.

    Poles and residues move with omega_q; the coupling is held fixed. At each
    grid point the two dressed frequencies nearest the bare fundamental (one
    at or below, one at or above) are recorded.
    """
    line = ShortedLine(dev.length)
    omega_ref = dev.fundamental_frequency
    v = dev.phase_velocity

    def solve_one(omega_q):
        s = replace(spec, frequency=omega_q)
        bnd = transmon_boundary(s, dev, levels)
        sp = solve_spectrum(line, bnd, lam_max)
        freqs = sp.frequencies(v)
        lower = max((f for f in freqs if f <= omega_ref), default=None)
        upper = min((f for f in freqs if f >= omega_ref), default=None)
        if lower is None or upper is None:
            raise SolverError(
                f"no dressed pair brackets the fundamental at omega_q={omega_q}"
            )
        return lower, upper

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


def vacuum_rabi_gap(
    dev: DeviceParams,
    spec: TransmonSpec,
    lam_max: float | None = None,
) -> RabiSplitting:
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
    line = ShortedLine(dev.length)
    sp = solve_spectrum(line, bnd, lam_max)
    freqs = sp.frequencies(v)
    lower = max((f for f in freqs if f <= omega_ref), default=None)
    upper = min((f for f in freqs if f >= omega_ref), default=None)
    if lower is None or upper is None:
        raise SolverError("no dressed pair brackets the fundamental")
    return RabiSplitting(
        measured=upper - lower,
        predicted=predicted,
        margin=pole_margin(sp),
    )
