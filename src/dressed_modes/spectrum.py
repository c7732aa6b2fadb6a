"""Dressed-mode spectra of the terminated line.

Eigenvalues are the roots of H(lam) = G(lam) - F(lam) on (0, lam_max], with
G the line's log-derivative and F the rational boundary function. The
domain is partitioned at every pole of either side, and every interval is
solved the same way, through its cleared function c*H: c > 0 inside the
interval and vanishes at its bounding poles (sin(xi)/xi for a Dirichlet
pole, |lam_k - lam|/lam_k for a boundary pole), so c*H is finite on the
closed interval, poles included, and a root next to a pole is an ordinary
root. Nothing is clamped off the poles.

Root count. With every residue positive and beta < L/3, G' <= -L/3 gives
H' = G' + beta - sum_k delta_k / (lam_k - lam)^2 <= -L/3 + beta < 0: H falls
from +inf just right of each pole to -inf just left of the next, so the
signs of c*H at the two ends give the count with no scan: one root in each
pole-bounded interval, and one in an edge interval iff H(0) = 1/L - F(0) > 0,
resp. H(lam_max) <= 0. Otherwise (mixed-sign residues of an occupied
excited state, or beta >= L/3) c*H is scanned for sign changes on a uniform
grid over the closed interval, doubled from GRID_INITIAL up to GRID_MAX,
plus a geometric ladder of points toward each emission pole (delta_k < 0),
where H can turn back and two roots can share one grid cell. Such an
interval may hold zero or several roots and all of them are reported,
except that a pole-bounded interval with positive residues must hold
exactly one. A scanned count is not a certificate.

Each bracket is refined by Brent's method on c*H. The residual test takes
|c*H| against the raw scale max(|G|, |F|, 1/L): next to a pole the raw |H|
at the float nearest the root can exceed RESIDUAL_REL of that scale, while
c*H there is exact to rounding.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .boundary import transmon_boundary
from .errors import InterlacingError, PoleCollisionError, SolverError
from .params import DeviceParams, TransmonSpec, lambda_to_omega
from .resonator import XI_POLE_GUARD, ShortedLine, line_log_deriv

RESIDUAL_REL = 1e-8          # threshold on |c*H| over max(|G|, |F|, 1/L)
GRID_INITIAL = 64
GRID_MAX = 4096
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


def _grid(lo: float, hi: float, n: int, ladder_lo: bool, ladder_hi: bool) -> list[float]:
    """n uniform points over [lo, hi], plus, toward each flagged end, the
    points step/2, step/4, ... away from it, down to the last distinct float."""
    step = (hi - lo) / (n - 1)
    xs = [lo + i * step for i in range(n - 1)] + [hi]
    ladder = set()
    for end, toward, flagged in ((lo, 1.0, ladder_lo), (hi, -1.0, ladder_hi)):
        d = 0.5 * step
        while flagged and end + toward * d != end:
            ladder.add(end + toward * d)
            d *= 0.5
    return sorted(ladder.union(xs)) if ladder else xs


def _scan_brackets(h, xs):
    """Sign changes of h over the increasing points xs."""
    brackets = []
    x_prev = xs[0]
    v_prev = h(x_prev)
    for x in xs[1:]:
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


def _brent(f, a: float, b: float, fa: float, fb: float):
    """Root of f in [a, b], given f(a) and f(b) of opposite signs (or a == b
    with f(a) == 0, a grid point that is itself a root).

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


def _solve_intervals(line: ShortedLine, b, markers, lam_max: float):
    """Roots per interval of the cleared secular function (module docstring)."""
    length = line.length
    positive = b.all_positive_residues
    monotone = positive and b.beta < length / 3.0
    emission = {p.location for p in b.poles if p.strength < 0.0}
    bounds = [None, *markers, None]
    records, counts, flags = [], [], []
    lobe = 0
    for lo, hi in zip(bounds, bounds[1:]):
        if lo is not None and lo.kind == "dirichlet":
            lobe += 1
        lo_edge = lo.location if lo is not None else 0.0
        hi_edge = hi.location if hi is not None else lam_max
        pole_bounded = lo is not None and hi is not None
        ch = _cleared_secular(line, b, lo, hi, lobe)
        if monotone:
            ca, cb = ch(lo_edge), ch(hi_edge)
            # H is +inf just right of a pole and -inf just left of one
            if (lo is not None and not ca > 0.0) or (hi is not None and not cb < 0.0):
                raise InterlacingError(
                    "cleared secular function has the wrong sign at a pole",
                    interval=(lo_edge, hi_edge),
                    count=None,
                )
            brackets = [(lo_edge, hi_edge, ca, cb)] if ca > 0.0 and cb <= 0.0 else []
        else:
            # H' = G' + beta - sum_k delta_k / (lam_k - lam)^2 turns positive,
            # with beta < L/3, only near an emission pole (delta_k < 0), where
            # a pair of roots fits inside one grid cell: the grid adds a
            # geometric ladder of points toward each such pole
            ladder = (lo_edge in emission, hi_edge in emission)

            def scan(n):
                return _scan_brackets(ch, _grid(lo_edge, hi_edge, n, *ladder))

            n = GRID_INITIAL
            brackets = scan(n)
            if positive and pole_bounded:
                while not brackets and n < GRID_MAX:
                    n *= 2
                    brackets = scan(n)
                if len(brackets) != 1:
                    raise InterlacingError(
                        f"expected one eigenvalue, found {len(brackets)}",
                        interval=(lo_edge, hi_edge),
                        count=len(brackets),
                    )
            else:
                while n < GRID_MAX:
                    finer = scan(2 * n)
                    if len(finer) == len(brackets):
                        break
                    n, brackets = 2 * n, finer

        for a, z, fa, fz in brackets:
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
            records.append(EigenvalueRecord(root, (a, z), residual, iters))
        counts.append(len(brackets))
        flags.append(len(brackets) == 1 if pole_bounded else None)
    return records, counts, flags


def solve_spectrum(line: ShortedLine, b, lam_max: float | None = None) -> DressedSpectrum:
    """All dressed eigenvalues on (0, lam_max].

    `b` is read through its rational form only: poles, beta, gamma and
    all_positive_residues (RationalBoundary or FullSusceptanceBoundary).
    Every interval is solved on its cleared function c*H; the root count
    comes from monotonicity when every residue is positive and
    beta < L/3, and from a grid scan otherwise (module docstring). Raises
    PoleCollisionError when a boundary pole sits within 1e-6 relative of a
    Dirichlet pole, InterlacingError when the positive-residue count
    guarantee fails, SolverError when a root's cleared residual is too
    large.
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

    records, counts, flags = _solve_intervals(line, b, markers, lam_max)

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


def _fundamental_pair(sp: DressedSpectrum, dev: DeviceParams) -> tuple[float, float]:
    """The dressed frequencies nearest the bare fundamental, one at or below
    it and one at or above; SolverError when either is missing."""
    omega_ref = dev.fundamental_frequency
    freqs = sp.frequencies(dev.phase_velocity)
    lower = max((f for f in freqs if f <= omega_ref), default=None)
    upper = min((f for f in freqs if f >= omega_ref), default=None)
    if lower is None or upper is None:
        raise SolverError("no dressed pair brackets the fundamental")
    return lower, upper


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

    def solve_one(omega_q):
        bnd = transmon_boundary(replace(spec, frequency=omega_q), dev, levels)
        sp = solve_spectrum(line, bnd, lam_max)
        try:
            return _fundamental_pair(sp, dev)
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
    sp = solve_spectrum(ShortedLine(dev.length), bnd, lam_max)
    lower, upper = _fundamental_pair(sp, dev)
    return RabiSplitting(
        measured=upper - lower,
        predicted=predicted,
        margin=pole_margin(sp),
    )
