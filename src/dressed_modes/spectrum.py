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

Root count. One routine, _isolate, certifies an interval's count: it splits
cells until a bound on H' = G' - s - sum_k delta_k/(lam_k - lam)^2 settles
each, s = b.affine_slope being F's affine slope (-beta; boundary.py sets its
sign, and nothing here writes it again): H monotone on a cell gives one
root iff c*H changes sign across it, |H| kept off zero gives none, and a
cell that reaches float resolution unsettled raises SolverError, so no root
is lost silently. The cheap bound comes first: G' <= -L/3 and absorption
terms (delta_k > 0) only lower H', so -L/3 - s + sum over emission poles
(delta_k < 0) of |delta_k|/d_min^2 < 0 proves a cell decreasing. A cell
end at a bounding pole is signed, not evaluated: near the pole
H ~ w/(lam - p), with the weight w = 2 lam_n/L > 0 of a Dirichlet pole or
delta_k of a boundary pole, so by the level-repulsion theorem c*H is + just
above a Dirichlet or absorption pole and - just below it, flipped for an
emission pole (_pole_end). Only lam = 0, lam_max and the cuts are
evaluated. With every residue positive and -s < L/3 (a ground-state
transmon) the cheap bound proves H falling on the whole domain, so
solve_spectrum makes that test once (_slack) and reads every count off
the partition without _isolate or a slope bound: one root between two
poles, bracket (lower pole, upper pole, +1, -1), and one in an edge
interval iff c*H(0) > 0, resp. c*H(lam_max) <= 0, from the one evaluation
_isolate makes there. These are _isolate's results, as its first bound is
-L/3 - s < 0 and its pole ends are signed + and -. Every interval of a
solve with an emission pole (anywhere: its term enters every cell's bound)
or with -s >= L/3 goes through _isolate. The sharper bound of
_slope_bounds serves the rest. A cell is halved, except where an emission
pole bounding the interval is one of its ends and -s < L/3: there it is
cut 1.05 sqrt(|delta_k|/(L/3 + s)) from the pole (_pole_cut), past which
the pole's term in the cheap bound is under the line's least fall, so the
far part settles in one call rather than after a halving per factor of
two toward the pole.

Refinement. Every interval is counted, so the counts, the interlacing
flags and every SolverError of isolation describe the whole spectrum.
_refine then refines the brackets a caller reads, each root
checked by the residual test: all of them by default, or, given `near`,
the largest root <= near and the smallest >= near, at most two runs, or
with nearest_only the root nearest `near` alone, one run unless the other
bracket reaches closer to near than that root. Its step knows the poles:
H is the term of the nearer bounding pole, kept exact, plus a rest taken
linear from H and H' (Bunch, Nielsen & Sorensen 1978; Li 1993), safeguarded
by bisection inside the sign bracket as Brent's method is. It starts one
Newton step of H past the line's zero in the lobe, mu, where G = 0 and
G' = -L/2, so the step mu - F(mu)/(L/2 + F'(mu)) is exact in G, needs F
alone and calls no line (_line_zero_step). Residual test included, it
spends 3.9 evaluations a root on the sweep benchmark's brackets and 3.3 on
the gate's. The residual test weighs |c*H| against RESIDUAL_REL of the raw
sides' scale max(|G|, |F|, 1/L) times max(c, 1), as c outgrows 1 far above
a small bounding pole. The records are the answer: a
root's record does not depend on which others are refined, and a near
solve's records are consecutive roots of the full solve, so a read of the
pair around some lam either finds the full solve's pair or misses one side
and raises. A reader that needs every root checks that there are
sum(counts) records (pole_margins).

Cost. Every workload runs through this module, so its hot path is kept
lean, within three rules. Every float, count and error a solve produces
stays bit-identical: a cheaper form must keep each expression and its order
(tests/test_solver_pin.py pins a seeded set of solves). Every evaluation
of c*H a solve makes calls line_log_deriv, looked up in this module, once,
so the line's call count is the measure of work: the pole ends, where c*G
is exactly 0 at a boundary pole and taken inside the line's pole guard at
a Dirichlet pole, are signed rather than evaluated, and refinement takes
H' from the same call, through G' = G/(2 lam) - (L/2)(1 + G^2/lam). Two
rare evaluations skip the line: an iterate inside its pole guard, and the
pole end of a bracket that collapses onto it, whose value the refiner then
reads. Isolation evaluates each interior cell end once and keeps its parts
for the residual tests, and refinement tests the parts of the iterate it
returns. No memo outlives one line: only the line's part of the partition
(lam_max and the Dirichlet poles' ends) is kept, for one length at a time.
F and F' come from boundary._rational in every evaluation, so F's pole sum
is written once. Within those rules the fixed cost around the evaluations
is kept small too: the records are NamedTuples, built without a per-field
setattr; what a solve knows about a pole, its weight w in H ~ w/(lam - p)
and the part of w in F, is worked out once, in the partition's ends (_End),
and an interval reads its bounding poles from its two ends alone; what
does not depend on the interval (the slope bound's terms) is set up once
per solve not settled whole; an interval's cleared function is set up
only when it is first evaluated or refinement takes one of its brackets,
so a near solve of a ground-state transmon sets up three of its seven; a
solve settled whole (no emission pole, -s < L/3) evaluates c*H on its two
edge intervals alone before refinement; a boundary pole is checked for a
collision against the Dirichlet poles up to the first one above it, as
every later one lies farther off than its tolerance; an interval bounded
by no boundary pole reads every pole term without filtering; and a sweep
works out the boundary's parts that do not move with omega_q once,
building per grid point only the poles, through the same builder as
transmon_boundary.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from .boundary import _rational, _tuned_transmon, pole_strength_from_coupling, resolved_coupling
from .errors import PoleCollisionError, SolverError
from .params import GHZ, DeviceParams, TransmonSpec, lambda_to_omega, omega_to_lambda
from .resonator import XI_POLE_GUARD, default_lam_max, dirichlet_poles, line_log_deriv

RESIDUAL_REL = 1e-8          # threshold on |c*H| over max(|G|, |F|, 1/L) max(c, 1)
REFINE_MAX_STEPS = 200       # safety cap; 3000 random ground-state devices need <= 6
DIRICHLET_COLLISION_REL = 1e-6
EMISSION_REACH = 1.05        # _pole_cut's cut, in units of an emission pole's reach
POLE_CUT_SHARE = 0.9         # _pole_cut's largest cut, as a share of the cell
_TWO_EPS = 2.0 * sys.float_info.epsilon    # the refiner's bracket floor, per |x|
_location = attrgetter("location")


class PolePoint(NamedTuple):
    location: float
    kind: str      # "dirichlet" or "boundary"


class _End(NamedTuple):
    """A pole of the partition: H ~ weight/(lam - location) near it, and
    f_weight is the part of the weight in F. A Dirichlet pole weighs
    2 lam_n/L, as xi cot xi = 1 - 2 sum xi^2/(n^2 pi^2 - xi^2), none of it
    in F; a boundary pole weighs its delta_k, all of it in F."""

    location: float
    weight: float
    f_weight: float
    point: PolePoint


class EigenvalueRecord(NamedTuple):
    lam: float
    bracket: tuple[float, float]    # the bracket isolation gave the root
    residual: float                 # |c*H| at lam
    iterations: int                 # evaluations of c*H the refiner spent on it


class DressedSpectrum(NamedTuple):
    """Roots of one solve. partition (the poles, sorted) and counts (one
    per interval between them) always cover the whole domain, and so do
    intervals and interlacing, read off them. records holds the roots the
    solve refined, in increasing order: all sum(counts) of them by default,
    else the one or two next to `near` (solve_spectrum)."""

    records: tuple[EigenvalueRecord, ...]
    partition: tuple[PolePoint, ...]
    counts: tuple[int, ...]
    lam_max: float

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


def _cleared_secular(length: float, b):
    """on(lo, hi, lobe) -> c*H on one interval, with c > 0 inside it and
    zero at its poles. What does not depend on the interval (the line, b's
    poles, its affine slope and gamma) is set up once per solve.

    lo and hi are the interval's ends (_End), None at 0 and lam_max, and
    xi = sqrt(lam) L stays in the lobe (lobe pi, (lobe+1) pi). c carries
    sin(xi)/xi, signed positive on that lobe, when a Dirichlet pole bounds
    the interval, and |lam_k - lam|/lam_k for each bounding boundary pole,
    so c*H is finite and continuous on the closed interval. At a bounding
    boundary pole c = 0 and c*G = 0 exactly, so the line is not evaluated
    there; c*F keeps the pole's own term, and sin(xi)/xi with it. on()
    returns cleared(lam), the parts (c*G, c*F, c, F'), every evaluation in
    that one shape. F and F' come from boundary._rational over b's poles
    less the bounding ones, whose terms c*F adds cleared and F' leaves out.
    """
    poles, affine, gamma = b.poles, b.affine_slope, b.gamma
    # the line's own pole guard (resonator._xi_checked) around xi = k pi, k >= 1
    guard, pi, inf = XI_POLE_GUARD, math.pi, math.inf
    log_deriv, rational = line_log_deriv, _rational
    sqrt, sin, cos, fabs = math.sqrt, math.sin, math.cos, abs

    def on(lo, hi, lobe):
        sign = -1.0 if lobe % 2 else 1.0
        a = lo.location if lo is not None and lo.point.kind == "boundary" else None
        z = hi.location if hi is not None and hi.point.kind == "boundary" else None
        # a bound that is no boundary pole is a Dirichlet pole
        clear_xi = (lo is not None and a is None) or (hi is not None and z is None)
        xi_lo = lobe * pi if lobe else -inf
        xi_hi = (lobe + 1) * pi
        # cleared bounding pole terms: c * delta_k/(lam_k - lam) = -/+ (c/e_k) delta_k/lam_k
        r_lo = lo.f_weight / a if a else 0.0
        r_hi = hi.f_weight / z if z else 0.0
        rest = poles if a is None and z is None else [
            p for p in poles if p.location != a and p.location != z
        ]

        def cleared(lam):
            e_lo = (lam - a) / a if a else 1.0
            e_hi = (z - lam) / z if z else 1.0
            e = e_lo * e_hi
            d = 1.0
            if clear_xi:
                xi = sqrt(lam) * length
                d = sign * sin(xi) / xi if xi else 1.0
                if not e:
                    # on a bounding boundary pole, where e, and so c*G, is 0
                    g_side = 0.0
                elif fabs(xi - xi_hi) < guard or fabs(xi - xi_lo) < guard:
                    # inside the line's own pole guard: sin(xi)/xi * G = cos(xi)/L
                    g_side = sign * cos(xi) / length * e
                else:
                    g_side = d * log_deriv(lam, length) * e
            else:
                g_side = log_deriv(lam, length) * e if e else 0.0
            f, fp = rational(rest, affine, gamma, lam)
            return g_side, d * (e * f - e_hi * r_lo + e_lo * r_hi), d * e, fp

        return cleared

    return on


def _line_zero_step(b, mu: float, half_length: float):
    """Where _refine first evaluates a bracket around mu, the line's zero in
    a lobe, where G = 0 and G' = -L/2: one Newton step of H = G - F from
    there, mu - F(mu)/(L/2 + F'(mu)), exact in G, so the boundary alone
    places a line-like root and the line is not called. F and F' are b's
    whole rational form (boundary._rational). None where L/2 + F' <= 0, as
    H' = -L/2 - F' is then not negative and the step points nowhere."""
    f, fp = _rational(b.poles, b.affine_slope, b.gamma, mu)
    den = half_length + fp
    return mu - f / den if den > 0.0 else None


def _slack(length: float, b) -> float:
    """-L/3 - s (s = b.affine_slope), H's slope bound with no emission pole."""
    return -b.affine_slope - length / 3.0


def _slope_bounds(length: float, b):
    """bounds(x0, x1, lobe) -> (lower, upper) of H' over the cell [x0, x1],
    which holds no pole inside and stays in the lobe [lobe pi, (lobe+1) pi]
    of xi = sqrt(lam) L: the cheap bound, _slack() plus each emission
    pole's |delta_k|/d_min^2, as (-inf, it) where that is negative, else
    the sharp one. H' = G' - s - sum_k delta_k/(lam_k - lam)^2,
    s = b.affine_slope. What does not depend on the cell is set up once.
    `c if c > a else a` is max(a, c) and `c if c < a else a` is min(a, c),
    operand for operand, without the call."""
    # H's affine slope, -s (a negation, so exact)
    h_slope, inf, slack = -b.affine_slope, math.inf, _slack(length, b)
    # emission poles: -delta_k; every pole: -delta_k, and -delta_k / d^2 at d = 0
    emission, terms = [], []
    for p in b.poles:
        if p.strength < 0.0:
            emission.append((p.location, -p.strength))
        terms.append((p.location, -p.strength, -math.copysign(inf, p.strength)))
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
        lower, upper = h_slope + length * g_lo, h_slope + length * g_hi
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


def _pole_cut(x0, x1, lo, hi, slack, mid):
    """Where _isolate splits the cell [x0, x1] of the interval between the
    ends lo and hi: mid, unless an emission pole, an end whose F-weight
    delta_k is negative, is a cell end and slack < 0. Then the cut lies
    r = EMISSION_REACH sqrt(delta_k/slack) from that pole, with
    slack = -L/3 - s the cheap slope bound's own term (_slack, s the
    boundary's affine slope): beyond r the pole's term |delta_k|/d^2
    stays under the line's least fall -slack, so unless another emission
    pole adds to it the cheap bound settles the far part in one call, and
    only a cell about r wide is left to split. The cut is taken when r is
    under POLE_CUT_SHARE of the cell, so the far part keeps a tenth of it
    or more, and the midpoint otherwise."""
    below = lo is not None and x0 == lo.location and lo.f_weight < 0.0
    above = hi is not None and x1 == hi.location and hi.f_weight < 0.0
    if not (below or above) or not slack < 0.0:
        return mid
    r = EMISSION_REACH * math.sqrt((lo if below else hi).f_weight / slack)
    cut = x0 + r if below else x1 - r
    return cut if r < POLE_CUT_SHARE * (x1 - x0) and x0 < cut < x1 else mid


def _raw(parts, length):
    """H at an interior cell end, from its parts (c*G, c*F, c, F'), and the
    residual test's tolerance there."""
    g_side, f_side, c, _ = parts
    return (g_side - f_side) / c, RESIDUAL_REL * max(abs(g_side), abs(f_side), c / length) / c


_SIGN_PLUS, _SIGN_MINUS = (1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0)


def _pole_end(w: float, upper: bool):
    """The parts (c*G, c*F, c, F') _isolate carries for an end of its interval
    at a bounding pole, in place of an evaluation: the limit sign of c*H
    there, as c*G, with c = 0. Near the pole H ~ w/(lam - p), with w the
    end's weight, 2 lam_n/L > 0 for a Dirichlet pole or delta_k for a
    boundary pole (the level-repulsion theorem), so c*H tends to the sign
    of w at the interval's lower end and to its opposite at the upper end.
    A Dirichlet weight that underflows to 0.0 keeps its + sign."""
    return _SIGN_PLUS if (w >= 0.0) != upper else _SIGN_MINUS


def _isolate(on, lo, hi, lam_max: float, bounds, slack: float, lobe: int, length: float):
    """(ch, brackets): brackets (x0, x1, c*H(x0), c*H(x1)) of every root in
    (a, z], the interval between the ends lo and hi (_End; None at 0 and at
    lam_max), and ch = on(lo, hi, lobe), its cleared function, or None if
    isolation evaluated nothing on the interval. bounds comes from
    _slope_bounds and slack from _slack.

    Cells are settled left to right. One proven monotone owns a root at its
    right end, where c*H may vanish exactly, not at its left: that belongs
    to the cell before, and lam = 0 lies outside the domain. Where a falling
    cell meets a rising one the sign of H alone decides between two roots
    and none, so there, and all over a cell settled as holding none, |H|
    must exceed the residual test's tolerance. H is taken at interior ends
    only: sin(k pi) is not 0 in floats, so (c*H)/c has no sign at a pole.
    A bounding pole's end is signed by its weight, not evaluated
    (_pole_end), and a bracket ending there carries that sign, 1.0 or -1.0,
    as its c*H. Only lam = 0, lam_max and the cuts are evaluated, and each
    calls the line. A cell left unsettled is split at its midpoint, or where
    an emission pole bounding the interval is one of its ends, at that
    pole's reach (_pole_cut). ch is built when the first evaluation needs
    it. Each cell carries its ends' parts (c*G, c*F, c, F'), so no end is
    evaluated twice. The cell in hand is held in locals and only the right
    parts still to settle are stacked, so one settled whole stacks nothing.
    """
    a = lo.location if lo is not None else 0.0
    z = hi.location if hi is not None else lam_max
    brackets, last = [], 0.0    # last: +1/-1 if the cell settled before rose/fell, else 0
    pending = []                # right parts still to settle, the next one last
    ch = on(lo, hi, lobe) if lo is None or hi is None else None
    x0, x1 = a, z
    p0 = ch(a) if lo is None else _pole_end(lo.weight, False)
    p1 = ch(z) if hi is None else _pole_end(hi.weight, True)
    while True:
        lower, upper = bounds(x0, x1, lobe)
        if upper < 0.0 or lower > 0.0:
            c0, c1 = p0[0] - p0[1], p1[0] - p1[1]
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
        else:
            empty = False
            if (lo is None or x0 != a) and (hi is None or x1 != z):
                (h0, t0), (h1, t1) = _raw(p0, length), _raw(p1, length)
                # |H'| <= s keeps |H| >= (|h0 + h1| - s (x1 - x0)) / 2 if h0, h1 share a sign
                empty = h0 * h1 > 0.0 and (
                    abs(h0 + h1) - max(upper, -lower) * (x1 - x0) > 2.0 * max(t0, t1)
                )
            if not empty:
                if ch is None:
                    ch = on(lo, hi, lobe)
                mid = 0.5 * (x0 + x1)
                if x0 == a or x1 == z:
                    mid = _pole_cut(x0, x1, lo, hi, slack, mid)
                if not x0 < mid < x1:
                    raise SolverError(f"no certified root count on [{x0}, {x1}]")
                pm = ch(mid)
                pending.append((mid, x1, pm, p1))
                x1, p1 = mid, pm
                continue
            last = 0.0
        if not pending:
            return ch, brackets
        x0, x1, p0, p1 = pending.pop()


def _refine(ch, lo, hi, lobe: int, a: float, z: float, fa: float, fz: float,
            length: float, b) -> EigenvalueRecord:
    """The root of c*H on the bracket [a, z], where fa = c*H(a) and
    fz = c*H(z) differ in sign or fz == 0, checked by the residual test. ch,
    lo, hi and lobe are its interval's, as _isolate's, and b is its solve's
    boundary. At an end on a bounding pole fa or fz is the sign isolation
    gave it (_pole_end).

    A secular step that knows the poles (Bunch, Nielsen & Sorensen 1978;
    Li 1993): near a point x, H is the term w/(lam - p) of the nearer of the
    interval's bounding poles, from its end, plus a rest taken linear from
    H(x) and H'(x), so the step t from x solves the quadratic
    (H' + w/u^2) t^2 + (H + H' u) t + H u = 0, u = x - p. One evaluation of
    c*H gives both: H = (c*G - c*F)/c, and with G = c*G/c,
    G' = G/(2 lam) - (L/2)(1 + G^2/lam), so H' = G' - F', with F' from
    the parts for the other poles and wf/(x - p)^2 for each bounding pole,
    wf its end's F-weight. lam = 0 is no pole, and the line's next pole
    stands in for lam_max. Where the line's own zero in the lobe,
    mu = ((lobe + 1/2) pi / L)^2, lies strictly inside the bracket, the
    first point is one Newton step of H from mu, read from b's F alone
    (_line_zero_step), if that lies more than tol inside the bracket's
    ends. Else it is mu itself where mu falls in the bracket, else the root
    of the two bounding poles' terms alone where both weigh positive and it
    falls there, each kept tol from the bracket's ends as a step is, else
    the bracket's midpoint. No first point is an evaluation of c*H.

    Safeguarded as Brent's method is. The step is taken from the bracket end
    evaluated here with the smaller |c*H|, or else from the other one; a
    step that leaves the bracket, or fails to halve the step taken two
    iterations before, gives way to a bisection, and one under
    tol = 2 eps |x| becomes a step of tol toward the bracket's other end.
    The bracket stops the search, not the step: once it is at most 2 tol
    wide, its end with the smaller |c*H| is the root; a pole end that still
    carries a sign alone is evaluated there first, without the line, whose
    part at a pole is 0 or taken inside its pole guard. The record's
    iterations counts the refiner's steps, each one evaluation of c*H.
    """
    fabs, sqrt, copysign, pi, half_length = abs, math.sqrt, math.copysign, math.pi, 0.5 * length
    bracket, steps = (a, z), 0
    x, parts, pa, pz = z, None, None, None     # pa, pz: parts of the ends evaluated here
    if fz != 0.0:
        d = e = z - a           # the last step and the one before it
        x = a + 0.5 * d
        p_lo, w_lo, wf_lo, _ = lo if lo is not None else (-math.inf, 0.0, 0.0, None)
        if hi is not None:
            p_hi, w_hi, wf_hi, _ = hi
        else:
            p_hi = ((lobe + 1) * pi / length) ** 2
            w_hi, wf_hi = 2.0 * p_hi / length, 0.0
        # the line's zero in the lobe, where G = 0 and the boundary alone decides
        guess = ((lobe + 0.5) * pi / length) ** 2
        inside = a < guess < z
        if not inside and w_lo > 0.0 and w_hi > 0.0:
            guess = (w_lo * p_hi + w_hi * p_lo) / (w_lo + w_hi)
        tol = _TWO_EPS * guess
        if a <= guess <= z and a + tol < z - tol:
            x = min(max(guess, a + tol), z - tol)
            if inside:
                # one Newton step of H from the line's zero, read from F alone
                x0 = _line_zero_step(b, guess, half_length)
                if x0 is not None and a + tol < x0 < z - tol:
                    x = x0
        for steps in range(1, REFINE_MAX_STEPS + 1):
            parts = ch(x)
            fx = parts[0] - parts[1]
            if fx == 0.0:
                break
            if (fx > 0.0) == (fa > 0.0):
                a, fa, pa = x, fx, parts
            else:
                z, fz, pz = x, fx, parts
            tol = _TWO_EPS * fabs(x)
            if z - a <= 2.0 * tol:
                # an end left from isolation at a pole holds its sign alone
                if pa is None and a == p_lo:
                    pa = ch(a)
                    fa = pa[0] - pa[1]
                if pz is None and z == p_hi:
                    pz = ch(z)
                    fz = pz[0] - pz[1]
                x, parts = (a, pa) if fabs(fa) < fabs(fz) else (z, pz)
                break
            # the step from the evaluated end with the smaller |c*H|, else from
            # the other, else a bisection
            if pz is None or pa is not None and fabs(fa) < fabs(fz):
                bases = (pa, a, z), (pz, z, a)
            else:
                bases = (pz, z, a), (pa, a, z)
            for parts, x, other in bases:
                if parts is None:
                    continue
                g_side, f_side, c, fp = parts
                try:
                    h, g = (g_side - f_side) / c, g_side / c
                    dh = (g / (2.0 * x) - half_length * (1.0 + g * g / x) - fp
                          - wf_lo / ((x - p_lo) * (x - p_lo)) - wf_hi / ((x - p_hi) * (x - p_hi)))
                    u, w = (x - p_lo, w_lo) if x - p_lo < p_hi - x else (x - p_hi, w_hi)
                    qa, qb, qc = dh + w / (u * u), h + dh * u, h * u
                    disc = qb * qb - 4.0 * qa * qc
                    if disc < 0.0:
                        continue
                    # the smaller root, or else the larger, inside the bracket
                    q = -0.5 * (qb + copysign(sqrt(disc), qb))
                    t = qc / q
                    if not (fabs(t) <= tol or a < x + t < z):
                        t = q / qa
                        if not a < x + t < z:
                            continue
                except ZeroDivisionError:
                    continue
                if fabs(t) < 0.5 * fabs(e):
                    break
            else:
                parts, x, other = bases[0]
                t = 0.5 * (other - x)
            if fabs(t) <= tol:
                t = copysign(tol, other - x)
            e, d = d, t
            x += t
        else:
            raise SolverError(f"root refinement did not converge in [{a}, {z}]")
    if parts is None:
        parts = ch(x)
    # |c*H| against the scale of the raw sides, max(|G|, |F|, 1/L), times
    # max(c, 1), tested as two comparisons, the second only where the first
    # fails: next to a pole the raw |H| at the float nearest the root can
    # exceed the scale, and far above a small bounding pole c, which carries
    # (lam - lam_k)/lam_k, exceeds 1 and would tighten the test by itself.
    # A root closer to its pole than one ulp rounds onto it (c = 0); the
    # bracket already pins it to rounding.
    g_side, f_side, c, _ = parts
    residual = abs(g_side - f_side)
    scale = max(abs(g_side), abs(f_side), c / length) / c if c else math.inf
    tol = RESIDUAL_REL * scale
    if residual > tol and residual > tol * c:
        raise SolverError(
            f"root at lam={x} cleared residual {residual:.3e} exceeds "
            f"{RESIDUAL_REL} of scale {scale * max(c, 1.0):.3e}"
        )
    return EigenvalueRecord(x, bracket, residual, steps)


def _refine_near(brackets, near: float, refine, nearest_only: bool = False) -> list[EigenvalueRecord]:
    """Records of the largest root <= near and the smallest >= near, or
    with nearest_only of the one nearest near (the lower on a tie).

    brackets run left to right, (interval, x0, x1, c*H(x0), c*H(x1)) each,
    a bracket's root lies in [x0, x1], and refine(*bracket) is its record.
    Bracket k, the first whose right end reaches near (else the last),
    holds one of the two: every root before it lies below near and every
    root after it above. The other is root k-1 or k+1, on the side of near
    that root k leaves open, if any. With nearest_only it is refined only if
    its bracket reaches as close to near as root k.
    """
    if not brackets:
        return []
    k = len(brackets) - 1
    for i, br in enumerate(brackets):
        if br[2] >= near:
            k = i
            break
    root = refine(*brackets[k])
    j = k + 1 if root.lam < near else k - 1 if root.lam > near else k
    if j == k or not 0 <= j < len(brackets):
        return [root]
    if nearest_only:
        _, x0, x1, _, _ = brackets[j]
        if (near - x1 if j < k else x0 - near) > abs(root.lam - near):
            return [root]
    other = refine(*brackets[j])
    pair = [other, root] if j < k else [root, other]
    if nearest_only:
        return [min(pair, key=lambda r: abs(r.lam - near))]
    return pair


@lru_cache(maxsize=1)
def _line_partition(length: float):
    """(lam_max, (Dirichlet pole, its collision tolerance) below lam_max,
    their ends): the part of a solve's partition that depends on the line
    alone. One entry, so a run of solves on one line builds it once and the
    next line replaces it."""
    try:
        lam_max = default_lam_max(length) if length > 0.0 else 0.0
    except OverflowError:    # (6 pi / L)^2 beyond the float range
        lam_max = math.inf
    if not 0.0 < lam_max < math.inf:
        raise ValueError(f"line length {length!r} must be positive with a finite lam_max > 0")
    dirichlet = dirichlet_poles(length, 5)
    guards = tuple((d, DIRICHLET_COLLISION_REL * d) for d in dirichlet)
    ends = tuple(_End(d, 2.0 * d / length, 0.0, PolePoint(d, "dirichlet")) for d in dirichlet)
    return lam_max, guards, ends


def solve_spectrum(
    length: float, b, near: float | None = None, nearest_only: bool = False
) -> DressedSpectrum:
    """Dressed eigenvalues on (0, lam_max]: all of them, or with `near` the
    largest one <= near and the smallest >= near, or with `near` and
    nearest_only the one nearest near, the lower of two as near as each
    other.

    The domain is fixed: lam_max is default_lam_max(length), just below the
    sixth Dirichlet pole, so every solve cuts it at the same five line
    poles and holds the first six quarter-wave modes, dressed.

    The line is its `length` alone, and `b` is a RationalBoundary, read
    through its poles, affine_slope and gamma only. Every interval is solved on its
    cleared function c*H, its root count certified by a slope bound (module
    docstring), whatever `near` is. Where b has no emission pole and
    -s < L/3 (s = b.affine_slope) that bound proves H falling on the whole
    domain, so no interval goes through _isolate: each holds one root iff
    c*H falls through zero across it, its pole ends signed + below and -
    above (level repulsion), what _isolate would return there; any other b
    sends every interval through _isolate. `near` and nearest_only only select the
    roots _refine refines, and each refined root is bit-identical to the
    full solve's. A nearest_only solve refines the other root next to
    near only when its bracket reaches as close to near as the first root.
    The records are the whole answer. Raises ValueError for nearest_only
    without near, for a NaN near and for a length that is not positive or
    gives no positive finite lam_max, PoleCollisionError when a boundary
    pole sits within 1e-6 relative of a Dirichlet pole, and SolverError
    when a boundary pole sits exactly at lam_max, when no count can be
    certified (two roots too close to tell apart, or H turning within the
    residual tolerance of zero) or a refined root's cleared residual is too
    large.
    """
    if nearest_only and near is None:
        raise ValueError("nearest_only needs near")
    if near is not None and math.isnan(near):
        # every comparison with NaN is false, so the top root would be read
        raise ValueError("near must not be NaN")
    lam_max, guards, line_ends = _line_partition(length)
    ends = list(line_ends)
    absorbing = True
    for p in b.poles:
        loc, strength = p.location, p.strength
        if strength < 0.0:
            absorbing = False
        if loc == lam_max:
            # not a marker, so c*H would divide by lam_k - lam = 0 at the end
            raise SolverError(
                f"boundary pole {p.label or loc} sits exactly at lam_max={lam_max}"
            )
        if loc > lam_max:
            continue
        for d, tol in guards:
            if abs(loc - d) < tol:
                raise PoleCollisionError(
                    f"boundary pole {p.label or loc} within "
                    f"{DIRICHLET_COLLISION_REL} relative of Dirichlet pole at {d}"
                )
            if d > loc:
                # every later Dirichlet pole lies above loc by more than its
                # tolerance: d_(n+1) - d_n >= 0.36 d_(n+1) for n < 5
                break
        ends.append(_End(loc, strength, strength, PolePoint(loc, "boundary")))
    ends.sort(key=_location)

    cleared_on, slack = _cleared_secular(length, b), _slack(length, b)
    # no emission pole and -s < L/3: H falls on the whole domain (Root count)
    settled = absorbing and slack < 0.0
    bounds = None if settled else _slope_bounds(length, b)
    brackets, counts = [], []
    lobe, lo = 0, None
    for hi in (*ends, None):
        if lo is not None and lo.point.kind == "dirichlet":
            lobe += 1
        if not settled:
            ch, found = _isolate(cleared_on, lo, hi, lam_max, bounds, slack, lobe, length)
        else:
            ch = None if lo is not None and hi is not None else cleared_on(lo, hi, lobe)
            x0, p0 = (0.0, ch(0.0)) if lo is None else (lo.location, _SIGN_PLUS)
            x1, p1 = (lam_max, ch(lam_max)) if hi is None else (hi.location, _SIGN_MINUS)
            c0, c1 = p0[0] - p0[1], p1[0] - p1[1]
            found = [(x0, x1, c0, c1)] if c0 > 0.0 >= c1 else []
        for br in found:
            brackets.append(((ch, lo, hi, lobe), *br))
        counts.append(len(found))
        lo = hi

    def refine(interval, x0, x1, f0, f1):
        # an interval isolation evaluated nothing on holds one bracket at most
        ch, lo, hi, lobe = interval
        return _refine(ch or cleared_on(lo, hi, lobe), lo, hi, lobe, x0, x1, f0, f1, length, b)

    if near is None:
        records = [refine(*br) for br in brackets]
    else:
        records = _refine_near(brackets, near, refine, nearest_only)
    for r1, r2 in zip(records, records[1:]):
        if not r1.lam < r2.lam:
            raise SolverError("eigenvalues not strictly increasing")

    # from a list: tuple() of a generator resizes what it builds, which
    # fragments the heap enough to raise a readout run's peak RSS by ~0.6 MB
    partition = tuple([end.point for end in ends])
    return DressedSpectrum(tuple(records), partition, tuple(counts), lam_max)


def pole_margins(spectrum: DressedSpectrum) -> tuple[float, ...]:
    """Each root's smallest relative distance to a boundary pole, () when
    no boundary pole lies in the domain. Reads every root, so a spectrum
    with fewer records than its counts (most solves with `near`) is a
    ValueError."""
    if len(spectrum.records) != sum(spectrum.counts):
        raise ValueError("pole_margin reads every root; solve without near")
    bpoles = [m.location for m in spectrum.partition if m.kind == "boundary"]
    if not bpoles:
        return ()
    return tuple(min(abs(r.lam - p) / p for p in bpoles) for r in spectrum.records)


def pole_margin(spectrum: DressedSpectrum) -> float:
    """Minimum relative distance from any eigenvalue to any boundary pole,
    inf without either (pole_margins)."""
    return min(pole_margins(spectrum), default=math.inf)


def _fundamental_pair(sp: DressedSpectrum, lam_ref: float, v: float,
                      straddle: float | None = None) -> tuple[float, float]:
    """The dressed frequencies of the roots nearest lam_ref, the bare
    fundamental, one at or below it and one at or above; SolverError when
    either is missing. Given straddle, the pole of a ground-state qubit in
    the fundamental's lobe, the doublet lies on either side of that pole,
    so two distinct roots that do not are the wrong pair (at tiny g the
    mode-like root can round to the other side of lam_ref) and raise
    SolverError too; a degenerate pair is left to CrossingSweep's gap
    check. The frequencies are v sqrt(lam), lambda_to_omega's expression,
    without its checks: a root is positive and v is a device's phase
    velocity, which DeviceParams holds positive."""
    lower = upper = None
    for r in sp.records:    # strictly increasing: the last at or below, the first at or above
        lam = r.lam
        if lam <= lam_ref:
            lower = lam
        if lam >= lam_ref:
            upper = lam
            break
    if lower is None or upper is None:
        raise SolverError("no dressed pair brackets the fundamental")
    if straddle is not None and lower != upper and not lower <= straddle <= upper:
        raise SolverError("the dressed pair around the fundamental misses the qubit's pole")
    return v * math.sqrt(lower), v * math.sqrt(upper)


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
    refined. A ground-state qubit below the first Dirichlet pole (omega_q
    below twice the fundamental) puts its pole between the two, and a grid
    point whose pair misses it raises SolverError (_fundamental_pair). A
    ValueError at zero coupling, before any solve: there is no crossing to
    follow.
    """
    if resolved_coupling(spec, dev) == 0.0:
        raise ValueError(
            "zero coupling: at g = 0 the qubit adds no pole, "
            "so there is no avoided crossing to follow"
        )
    grid = tuple(omega_q_values)
    v, length = dev.phase_velocity, dev.length
    lam_ref = omega_to_lambda(dev.fundamental_frequency, v)
    boundary_at = _tuned_transmon(spec, dev, levels)
    ground, lobe_top = spec.state == "g", 2.0 * dev.fundamental_frequency

    def solve_one(omega_q):
        bnd = boundary_at(omega_q)
        # a ground-state qubit in the fundamental's lobe has its one pole there
        straddle = None
        if ground and omega_q < lobe_top and bnd.poles:
            straddle = bnd.poles[0].location
        try:
            sp = solve_spectrum(length, bnd, near=lam_ref)
            return _fundamental_pair(sp, lam_ref, v, straddle)
        except SolverError as exc:
            raise type(exc)(f"{exc} at omega_q={omega_q / GHZ:.12g} GHz") from None

    pairs = [solve_one(w) for w in grid]
    return CrossingSweep(
        qubit_frequency=grid,
        lower=tuple(p[0] for p in pairs),
        upper=tuple(p[1] for p in pairs),
    )


def vacuum_rabi_gap(dev: DeviceParams, spec: TransmonSpec) -> float:
    """Vacuum Rabi splitting: the gap of the dressed pair with the qubit
    tuned to the fundamental, read as a one-point qubit_frequency_sweep.

    The qubit is tuned there and put in g whatever spec says. Where its
    pole strength is zero (zero coupling, or a strength that underflows)
    the boundary has no pole and the crossing is degenerate: both branches
    coincide with the fundamental and the gap is 0.0.
    """
    omega_ref = dev.fundamental_frequency
    g = resolved_coupling(spec, dev)
    if pole_strength_from_coupling(g, omega_ref, dev.length, dev.phase_velocity) == 0.0:
        return 0.0
    return qubit_frequency_sweep(dev, replace(spec, state="g"), (omega_ref,), levels=2).gap[0]
