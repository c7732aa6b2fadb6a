import inspect
import json
import math
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dressed_modes import (
    GHZ,
    BoundaryPole,
    CrossingSweep,
    DeviceParams,
    DressedSpectrum,
    FullSusceptanceBoundary,
    PoleCollisionError,
    PolePoint,
    RationalBoundary,
    SolverError,
    ShortedLine,
    TransmonSpec,
    default_lam_max,
    dirichlet_poles,
    load_config,
    omega_to_lambda,
    pole_margin,
    pole_margins,
    pole_strength_from_coupling,
    quarterwave_zeros,
    qubit_frequency_sweep,
    solve_spectrum,
    transmon_boundary,
    vacuum_rabi_gap,
)
import dressed_modes
from dressed_modes import acceptance, cli, dispersive, spectrum
from dressed_modes.resonator import line_log_deriv_dlam
from dressed_modes.spectrum import DIRICHLET_COLLISION_REL
from input_space import RANDOM_BOUNDARY, random_boundary

DEV = DeviceParams(length=3e-3, phase_velocity=1.2e8, impedance=50.0)
QUBIT = TransmonSpec(state="g", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ, coupling=0.1 * GHZ)
LENGTH = DEV.length


def _oracle_h(length, beta, gamma, poles):
    """The raw secular function G - F, written out independently of the solver."""

    def h(lam):
        xi = math.sqrt(lam) * length
        val = math.sqrt(lam) * math.cos(xi) / math.sin(xi)
        val += beta * lam + gamma
        for loc, s in poles:
            val -= s / (loc - lam)
        return val

    return h


def _oracle_roots(length, beta, gamma, poles, lam_max, points_per_interval=100_000):
    """Independent root finder: dense uniform scan plus plain bisection.

    Shares only the defining equation with the solver; no clamps, no
    adaptivity, no Newton. poles is a list of (location, strength). Each
    scan stops (b - a) 1e-9 short of a pole, but not of lam = 0.
    """
    h = _oracle_h(length, beta, gamma, poles)

    def h_vec(lam):
        xi = np.sqrt(lam) * length
        val = np.sqrt(lam) * np.cos(xi) / np.sin(xi)
        val = val + beta * lam + gamma
        for loc, s in poles:
            val = val - s / (loc - lam)
        return val

    singular = sorted(
        [(k * math.pi / length) ** 2 for k in range(1, 12)
         if (k * math.pi / length) ** 2 < lam_max]
        + [loc for loc, _ in poles if loc < lam_max]
    )
    edges = [0.0] + singular + [lam_max]
    roots = []
    for a, b in zip(edges, edges[1:]):
        eps = (b - a) * 1e-9
        # lam = 0 is not a pole: start there, at the smallest positive float
        grid = np.linspace(a + eps if a else math.ulp(0.0), b - eps, points_per_interval)
        vals = h_vec(grid)
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


def test_open_circuit_recovers_quarter_wave_modes():
    sp = solve_spectrum(LENGTH, RationalBoundary(beta=0.0, gamma=0.0, poles=()))
    expected = quarterwave_zeros(DEV.length, 6)
    assert len(sp.eigenvalues) == 6
    for lam, ref in zip(sp.eigenvalues, expected):
        assert lam == pytest.approx(ref, rel=1e-10)


def test_ground_state_spectrum_matches_dense_scan_oracle():
    bnd = transmon_boundary(QUBIT, DEV)
    sp = solve_spectrum(LENGTH, bnd)
    oracle = _oracle_roots(
        DEV.length, bnd.beta, bnd.gamma,
        [(p.location, p.strength) for p in bnd.poles],
        sp.lam_max,
    )
    assert len(sp.eigenvalues) == len(oracle)
    for lam, ref in zip(sp.eigenvalues, oracle):
        assert lam == pytest.approx(ref, rel=1e-10)


def test_affine_boundary_matches_dense_scan_oracle():
    bnd = RationalBoundary(beta=3e-4, gamma=120.0, poles=())
    sp = solve_spectrum(LENGTH, bnd)
    oracle = _oracle_roots(DEV.length, bnd.beta, bnd.gamma, [], sp.lam_max)
    assert len(sp.eigenvalues) == len(oracle)
    for lam, ref in zip(sp.eigenvalues, oracle):
        assert lam == pytest.approx(ref, rel=1e-10)


def test_excited_state_spectrum_matches_dense_scan_oracle():
    """Mixed-sign residues: no interlacing guarantee, still every root found."""
    bnd = transmon_boundary(replace(QUBIT, state="e"), DEV, levels=3)
    assert not bnd.all_positive_residues
    sp = solve_spectrum(LENGTH, bnd)
    oracle = _oracle_roots(
        DEV.length, bnd.beta, bnd.gamma,
        [(p.location, p.strength) for p in bnd.poles],
        sp.lam_max,
    )
    assert len(sp.eigenvalues) == len(oracle)
    for lam, ref in zip(sp.eigenvalues, oracle):
        assert lam == pytest.approx(ref, rel=1e-10)


def test_interlacing_bookkeeping():
    bnd = transmon_boundary(QUBIT, DEV)
    sp = solve_spectrum(LENGTH, bnd)
    assert len(sp.intervals) == len(sp.counts) == len(sp.interlacing)
    assert sum(sp.counts) == len(sp.records)
    # pole-bounded intervals carry booleans, the two edges carry None
    assert sp.interlacing[0] is None
    assert sp.interlacing[-1] is None
    assert all(flag for flag in sp.interlacing[1:-1])
    kinds = {m.kind for m in sp.partition}
    assert kinds == {"dirichlet", "boundary"}


def test_eigenvalues_strictly_increasing_with_small_residuals():
    bnd = transmon_boundary(QUBIT, DEV)
    sp = solve_spectrum(LENGTH, bnd)
    lams = sp.eigenvalues
    assert all(a < b for a, b in zip(lams, lams[1:]))
    for rec in sp.records:
        assert rec.bracket[0] <= rec.lam <= rec.bracket[1]
        assert rec.residual < 1e-6 / DEV.length


def test_collision_precondition():
    # second Dirichlet pole sits at 2 * fundamental * 2 = 40 GHz; first at 20
    spec = replace(QUBIT, frequency=20.0 * GHZ * (1.0 + 1e-8))
    bnd = transmon_boundary(spec, DEV)
    with pytest.raises(PoleCollisionError):
        solve_spectrum(LENGTH, bnd)


@pytest.mark.parametrize("rel", [-9.9e-7, 9.9e-7, -1.01e-6, 1.01e-6])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_collision_guard_of_each_dirichlet_pole(k, rel):
    """A boundary pole within 1e-6 relative of any of the five Dirichlet
    poles, below or above it, collides with that pole and names it; just
    outside the guard it solves. The guard is checked up to the first
    Dirichlet pole above the boundary pole, which a pole just below d_k
    reaches at d_k."""
    d = dirichlet_poles(LENGTH, 5)[k - 1]
    bnd = RationalBoundary(poles=(BoundaryPole(d * (1.0 + rel), d / LENGTH),))
    if abs(rel) < DIRICHLET_COLLISION_REL:
        with pytest.raises(PoleCollisionError, match=f"of Dirichlet pole at {d}$"):
            solve_spectrum(LENGTH, bnd)
    else:
        assert len(solve_spectrum(LENGTH, bnd).counts) == 7


def test_boundary_pole_exactly_at_lam_max_is_a_solver_error():
    lam_max = default_lam_max(LENGTH)
    bnd = RationalBoundary(poles=(BoundaryPole(lam_max, 1e3),))
    with pytest.raises(SolverError, match="lam_max"):
        solve_spectrum(LENGTH, bnd)
    # a hair to either side, the pole is an ordinary marker or out of range
    for rel in (1.0 - 1e-12, 1.0 + 1e-12):
        bnd = RationalBoundary(poles=(BoundaryPole(lam_max * rel, 1e3),))
        assert solve_spectrum(LENGTH, bnd).records


@pytest.mark.parametrize("scale, last_count", [(1.0, 1), (1.0 + 1e-12, 0), (1.0 - 1e-12, 1)])
def test_root_exactly_at_lam_max(scale, last_count):
    """gamma = -G(lam_max) with no pole and beta = 0 puts c*H at lam_max at
    exactly 0: the edge interval's end is its root, taken as it stands
    with no refiner step. A hair off, the root leaves the domain or moves
    inside it and is refined as any other."""
    lam_max = default_lam_max(LENGTH)
    gamma = -dressed_modes.line_log_deriv(lam_max, LENGTH) * scale
    sp = solve_spectrum(LENGTH, RationalBoundary(beta=0.0, gamma=gamma))
    assert sp.counts == (1, 1, 1, 1, 1, last_count)
    last = sp.records[-1]
    if scale == 1.0:
        assert (last.lam, last.residual, last.iterations) == (lam_max, 0.0, 0)
    else:
        assert last.lam < lam_max and last.iterations > 0


@pytest.mark.parametrize("length", [0.0, -1e-3, math.nan, math.inf, 1e300, 1e-200])
def test_length_without_a_finite_positive_lam_max_is_a_value_error(length):
    """Not positive, or so long (short) that (6 pi / L)^2 underflows to 0
    (overflows): refused before any interval is solved."""
    with pytest.raises(ValueError, match="line length"):
        solve_spectrum(length, RationalBoundary())
    with pytest.raises(ValueError, match="line length"):
        solve_spectrum(length, transmon_boundary(QUBIT, DEV), near=1.0, nearest_only=True)


def test_solver_takes_the_length_not_a_line_object():
    """The first argument is the line's length; no second path accepts a
    ShortedLine in its place."""
    assert list(inspect.signature(solve_spectrum).parameters)[:2] == ["length", "b"]
    with pytest.raises(TypeError):
        solve_spectrum(ShortedLine(LENGTH), RationalBoundary())


def test_every_solve_covers_the_one_fixed_domain():
    sp = solve_spectrum(LENGTH, transmon_boundary(QUBIT, DEV))
    assert sp.lam_max == sp.intervals[-1][1] == default_lam_max(LENGTH)
    # the domain and the other single-value settings are constants, not options
    fixed = {"lam_max", "omega_ref", "panels", "n_configs", "n_draws"}
    for mod in (dressed_modes, acceptance):
        for name in dir(mod):
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and not name.startswith("_"):
                assert not fixed & set(inspect.signature(fn).parameters), name


def test_margin_scales_with_coupling_squared():
    margins = {}
    for g in (0.05 * GHZ, 0.1 * GHZ):
        sp = solve_spectrum(LENGTH, transmon_boundary(replace(QUBIT, coupling=g), DEV))
        margins[g] = pole_margin(sp)
    ratio = margins[0.1 * GHZ] / margins[0.05 * GHZ]
    assert ratio == pytest.approx(4.0, rel=0.1)


def test_pole_margin_infinite_without_boundary_poles():
    sp = solve_spectrum(LENGTH, RationalBoundary(beta=0.0, gamma=0.0, poles=()))
    assert pole_margin(sp) == math.inf


def test_pole_margins_per_root():
    sp = solve_spectrum(LENGTH, transmon_boundary(replace(QUBIT, state="e"), DEV, levels=3))
    margins = pole_margins(sp)
    bpoles = [p.location for p in sp.partition if p.kind == "boundary"]
    assert len(bpoles) == 2
    assert margins == tuple(min(abs(lam - p) / p for p in bpoles) for lam in sp.eigenvalues)
    assert pole_margin(sp) == min(margins)
    assert pole_margins(solve_spectrum(LENGTH, RationalBoundary())) == ()
    lam_ref = omega_to_lambda(DEV.fundamental_frequency, DEV.phase_velocity)
    with pytest.raises(ValueError, match="every root"):
        pole_margins(solve_spectrum(LENGTH, transmon_boundary(QUBIT, DEV), near=lam_ref))


def test_result_stores_only_what_the_solve_decides():
    """The roots, the partition, the counts and the domain end; the
    intervals and the interlacing flags are read off the partition and the
    counts, and which roots were refined off the records. The result and
    its records are immutable."""
    assert list(DressedSpectrum._fields) == ["records", "partition", "counts", "lam_max"]
    assert list(PolePoint._fields) == ["location", "kind"]
    sp = solve_spectrum(LENGTH, transmon_boundary(replace(QUBIT, state="e"), DEV, levels=3))
    lam_ref = omega_to_lambda(DEV.fundamental_frequency, DEV.phase_velocity)
    nearest = solve_spectrum(LENGTH, transmon_boundary(QUBIT, DEV), near=lam_ref, nearest_only=True)
    assert len(sp.records) == sum(sp.counts)
    assert len(nearest.records) == 1 < sum(nearest.counts)
    for record, name in (
        (sp, "records"), (nearest, "lam_max"), (nearest, "extra"),
        (sp.records[0], "lam"), (sp.partition[0], "kind"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    edges = [0.0, *(p.location for p in sp.partition), sp.lam_max]
    assert sp.intervals == tuple(zip(edges, edges[1:]))
    assert sp.counts == (1, 0, 2, 1, 1, 1, 1, 1)
    assert sp.interlacing == (None, False, False, True, True, True, True, None)


def test_sweep_error_names_its_grid_point_and_keeps_its_type():
    """A solve that fails inside a sweep, on a pole collision or on an
    uncertifiable count, raises its own error type with omega_q appended
    in GHz."""
    omega_q = 2.0 * DEV.fundamental_frequency
    with pytest.raises(PoleCollisionError, match="at omega_q=20 GHz$"):
        qubit_frequency_sweep(DEV, QUBIT, [omega_q])
    spec = replace(QUBIT, state="e", coupling=_merge_coupling() * (1.0 + 1e-9) * GHZ)
    match = "no certified root count .* at omega_q=10.5 GHz$"
    with pytest.raises(SolverError, match=match) as exc:
        qubit_frequency_sweep(DEV, spec, [10.5 * GHZ], levels=2)
    assert type(exc.value) is SolverError


SAMPLE_CFG = Path(__file__).resolve().parent.parent / "sample_device.cfg"


@pytest.mark.parametrize("omega_q_ghz", [9.5, 10.5])
def test_tiny_coupling_sweep_reads_the_doublet_or_refuses(omega_q_ghz):
    """sample_device.cfg with the qubit at omega_q and 200 log-spaced g in
    1e-9..1e-5 GHz: each one-point sweep reads a pair inside (5, 20) GHz or
    raises naming its grid point. At g ~ 2e-8 GHz the mode-like root can
    round an ulp below the bare fundamental, and the at-or-below,
    at-or-above read then skips the qubit-like root for the next line mode
    at 30 GHz; the ground-state qubit's pole, which the doublet straddles,
    refuses that pair."""
    dev, spec = load_config(SAMPLE_CFG)
    refused = 0
    for i in range(200):
        g = 10.0 ** (-9.0 + 4.0 * i / 199)
        one = replace(spec, frequency=omega_q_ghz * GHZ, coupling=g * GHZ)
        try:
            sweep = qubit_frequency_sweep(dev, one, [one.frequency])
        except (SolverError, ValueError) as exc:
            assert str(exc).endswith(f" at omega_q={omega_q_ghz:g} GHz"), g
            refused += 1
            continue
        assert 5.0 * GHZ < sweep.lower[0] < sweep.upper[0] < 20.0 * GHZ, g
    assert 0 < refused < 100


def test_far_detuned_sweep_point_reads_the_next_mode():
    """Above the first Dirichlet pole (25 GHz on sample_device.cfg) the
    qubit adds no pole between the pair, which is the mode-like root and
    the qubit-like root above it, as before the straddle check."""
    dev, spec = load_config(SAMPLE_CFG)
    sweep = qubit_frequency_sweep(dev, spec, [25.0 * GHZ])
    assert (sweep.lower[0].hex(), sweep.upper[0].hex()) == (
        "0x1.d405b602ab74ep+35", "0x1.2490b38b27c83p+37",
    )


def _mp_roots(length, bnd, lam_max):
    """Independent oracle: every root of the raw H = G - F on (0, lam_max),
    each to 45 digits by plain bisection of H in 60-digit mpmath. Brackets
    come from a float scan of each interval between singular points, on a
    uniform grid and a geometric one toward both ends; points within 1e-12
    relative of a Dirichlet pole, where float sin(xi) has no sign, are left
    out. Shares only the defining equation with the solver."""
    mpmath = pytest.importorskip("mpmath")
    poles = [(p.location, p.strength) for p in bnd.poles]
    dirichlet = [(k * math.pi / length) ** 2 for k in range(1, 12)
                 if (k * math.pi / length) ** 2 < lam_max]
    t = np.concatenate([np.logspace(-300.0, 0.0, 601), np.linspace(0.0, 1.0, 1001)])
    roots = []
    with mpmath.workdps(60):
        mpf = mpmath.mpf
        beta, gamma, mp_poles = mpf(bnd.beta), mpf(bnd.gamma), [(mpf(a), mpf(s)) for a, s in poles]

        def h(lam):
            k = mpmath.sqrt(lam)
            val = k * mpmath.cot(k * length) + beta * lam + gamma
            for loc, s in mp_poles:
                val -= s / (loc - lam)
            return val

        edges = [0.0, *sorted(dirichlet + [loc for loc, _ in poles if loc < lam_max]), lam_max]
        for a, b in zip(edges, edges[1:]):
            pts = np.unique(np.concatenate([a + (b - a) * t, b - (b - a) * t]))
            pts = pts[(pts > a) & (pts < b)]
            for d in dirichlet:
                pts = pts[np.abs(pts - d) > 1e-12 * d]
            xi = np.sqrt(pts) * length
            vals = np.sqrt(pts) * np.cos(xi) / np.sin(xi) + bnd.beta * pts + bnd.gamma
            for loc, s in poles:
                vals = vals - s / (loc - pts)
            for i in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
                lo, hi = mpf(float(pts[i])), mpf(float(pts[i + 1]))
                h_lo = h(lo)
                assert (h_lo > 0) != (h(hi) > 0), "float scan and mpmath disagree on a sign"
                while hi - lo > mpf("1e-45") * hi:
                    mid = (lo + hi) / 2
                    h_mid = h(mid)
                    if (h_mid > 0) == (h_lo > 0):
                        lo, h_lo = mid, h_mid
                    else:
                        hi = mid
                roots.append((lo + hi) / 2)
    return roots


@pytest.mark.parametrize("state", ["g", "e"])
@pytest.mark.parametrize("omega_q_ghz", [1e-3, 1e-4, 1e-6, 1e-10, 1e-20, 1e-40])
def test_roots_far_above_a_tiny_qubit_pole_match_mpmath(omega_q_ghz, state):
    """sample_device.cfg with the qubit far below the line: c carries
    (lam - lam_q)/lam_q >> 1 at every root above the qubit's pole, which the
    residual test's tolerance follows (max(c, 1)) instead of refusing the
    fundamental. Every root lies within 3 ulps of the mpmath oracle."""
    dev, spec = load_config(SAMPLE_CFG)
    bnd = transmon_boundary(replace(spec, frequency=omega_q_ghz * GHZ, state=state), dev)
    sp = solve_spectrum(dev.length, bnd)
    oracle = _mp_roots(dev.length, bnd, sp.lam_max)
    assert len(sp.eigenvalues) == len(oracle) == 7
    for lam, ref in zip(sp.eigenvalues, oracle):
        assert abs(lam - ref) <= 3 * math.ulp(lam), (lam, ref)


@pytest.mark.parametrize("bad, message", [
    (0.0, "qubit frequency must be positive"),
    (-1.0, "qubit frequency must be positive"),
    (math.nan, "frequency must be a finite number"),
    (math.inf, "frequency must be a finite number"),
])
def test_sweep_refuses_a_bad_grid_value_at_its_point(bad, message, monkeypatch):
    """A grid value the spec would refuse as its frequency raises the
    spec's own ValueError, with no grid point appended, once the points
    before it have solved."""
    with pytest.raises(ValueError) as spec_error:
        replace(QUBIT, frequency=bad)
    assert str(spec_error.value) == message
    solves, solve = [], spectrum.solve_spectrum

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectrum, "solve_spectrum", counted)
    grid = [9.9 * GHZ, 10.1 * GHZ, bad, 10.2 * GHZ]
    with pytest.raises(ValueError) as sweep_error:
        qubit_frequency_sweep(DEV, QUBIT, grid)
    assert type(sweep_error.value) is ValueError
    assert str(sweep_error.value) == message
    assert len(solves) == 2


def test_sweep_refuses_zero_coupling_before_solving(monkeypatch):
    """g = 0, stated or implied by a zero charge element, with or without a
    junction capacitance: no qubit pole, so no crossing and no solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved at zero coupling")

    monkeypatch.setattr(spectrum, "solve_spectrum", no_solve)
    grid = [9.5 * GHZ, 10.0 * GHZ]
    for spec in (
        replace(QUBIT, coupling=0.0),
        replace(QUBIT, coupling=None, charge_element=0.0),
        replace(QUBIT, coupling=0.0, junction_capacitance=5e-15),
    ):
        with pytest.raises(ValueError, match="^zero coupling: .* no avoided crossing to follow$"):
            qubit_frequency_sweep(DEV, spec, grid)


def test_crossing_sweep_rejects_closed_gap():
    with pytest.raises(ValueError):
        CrossingSweep(qubit_frequency=(1.0,), lower=(5.0,), upper=(5.0,))
    with pytest.raises(ValueError):
        CrossingSweep(qubit_frequency=(1.0, 2.0), lower=(5.0,), upper=(6.0,))


def test_sweep_brackets_reference_and_stays_open():
    omega_r = DEV.fundamental_frequency
    grid = [omega_r * x for x in (0.98, 0.99, 1.0, 1.01, 1.02)]
    sweep = qubit_frequency_sweep(DEV, QUBIT, grid)
    for lo, hi, gap in zip(sweep.lower, sweep.upper, sweep.gap):
        assert lo <= omega_r <= hi
        assert gap > 0.0
    # gap is smallest at resonance
    assert min(sweep.gap) == sweep.gap[2]


def test_sweep_reads_an_iterator_grid_once():
    """A one-pass iterator gives the sweep of the same grid as a list."""
    omega_r = DEV.fundamental_frequency
    grid = [omega_r * x for x in (0.99, 1.0, 1.01)]
    assert qubit_frequency_sweep(DEV, QUBIT, (w for w in grid)) == qubit_frequency_sweep(
        DEV, QUBIT, grid
    )


def test_vacuum_rabi_gap_reference_values():
    omega_r = DEV.fundamental_frequency
    spec = replace(QUBIT, frequency=omega_r)
    assert vacuum_rabi_gap(DEV, spec) == pytest.approx(2 * spec.coupling, rel=1e-3)


def test_vacuum_rabi_gap_zero_coupling_degenerates():
    """At zero coupling, and where the pole strength underflows to 0, the
    boundary has no pole and the doublet is degenerate."""
    omega_r = DEV.fundamental_frequency
    for coupling in (0.0, 1e-157):
        assert pole_strength_from_coupling(coupling, omega_r, LENGTH, DEV.phase_velocity) == 0.0
        assert vacuum_rabi_gap(DEV, replace(QUBIT, frequency=omega_r, coupling=coupling)) == 0.0


def test_vacuum_rabi_gap_below_float_resolution_is_refused():
    """A pole too weak to split the doublet in floats is refused as the
    sweep refuses it, not read as the no-pole 0.0."""
    with pytest.raises(ValueError, match="^branch gap must stay positive at omega_q=10 GHz$"):
        vacuum_rabi_gap(DEV, replace(QUBIT, coupling=1e-5))


@pytest.mark.parametrize("spec", [
    replace(QUBIT, coupling=0.01 * DEV.fundamental_frequency),
    replace(QUBIT, coupling=0.15 * DEV.fundamental_frequency),
    replace(QUBIT, state="e", frequency=7.0 * GHZ),
], ids=["g-0.01", "g-0.15", "e-off-resonance"])
def test_vacuum_rabi_gap_is_a_one_point_crossing_sweep(spec):
    """The gap is the ground-state sweep's gap at the fundamental, bit for bit."""
    omega_ref = DEV.fundamental_frequency
    sweep = qubit_frequency_sweep(DEV, replace(spec, state="g"), [omega_ref], levels=2)
    assert vacuum_rabi_gap(DEV, spec) == sweep.gap[0]


def test_vacuum_rabi_gap_tunes_the_qubit_itself():
    """An off-resonance spec in e gives the resonant spec's bits: the gap
    tunes the qubit to the fundamental and puts it in g."""
    tuned = vacuum_rabi_gap(DEV, replace(QUBIT, frequency=DEV.fundamental_frequency))
    assert QUBIT.frequency != DEV.fundamental_frequency
    assert vacuum_rabi_gap(DEV, QUBIT) == tuned
    assert vacuum_rabi_gap(DEV, replace(QUBIT, state="e", frequency=7.0 * GHZ)) == tuned


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_ground_configs_interlace(data):
    """Settled ground-state devices, drawn by the gate's own generator from
    hypothesis' floats: a qubit solve_spectrum refuses is drawn again, by
    the one rule acceptance._refused, so every example is solved."""
    uniform = lambda lo, hi: data.draw(st.floats(lo, hi))
    dev, spec = acceptance._draw(uniform, acceptance.SUBSPACES["settled ground state"])[:2]
    sp = solve_spectrum(dev.length, transmon_boundary(spec, dev))
    assert all(flag is None or flag for flag in sp.interlacing)
    assert pole_margin(sp) > 0.0


def _root_tolerance(length, bnd, lam):
    """How closely floats pin a root: 1e-10 relative, or, where H is flat,
    the rounding of H (8 ulps of the sum of its terms' sizes) over its slope."""
    xi = math.sqrt(lam) * length
    terms = [math.sqrt(lam) * math.cos(xi) / math.sin(xi), bnd.beta * lam, bnd.gamma]
    terms += [p.strength / (p.location - lam) for p in bnd.poles]
    slope = line_log_deriv_dlam(lam, length) + bnd.beta - sum(
        p.strength / (p.location - lam) ** 2 for p in bnd.poles
    )
    noise = 8.0 * sys.float_info.epsilon * sum(abs(t) for t in terms)
    return max(1e-10 * lam, noise / abs(slope))


def _assert_matches_oracle(sp, bnd, length):
    """Same roots as _oracle_roots, each to within _root_tolerance. A root
    whose tolerance reaches down to lam = 0 cannot be told from lam = 0,
    which lies outside the domain, so it is left out on both sides."""
    oracle = _oracle_roots(
        length, bnd.beta, bnd.gamma,
        [(p.location, p.strength) for p in bnd.poles],
        sp.lam_max,
    )
    tol = {lam: _root_tolerance(length, bnd, lam) for lam in (*sp.eigenvalues, *oracle)}
    found = [lam for lam in sp.eigenvalues if lam > tol[lam]]
    oracle = [lam for lam in oracle if lam > tol[lam]]
    assert len(found) == len(oracle)
    for lam, ref in zip(found, oracle):
        assert lam == pytest.approx(ref, abs=tol[ref], rel=0.0)


# Certified path: all residues positive and beta < L/3.


@pytest.mark.parametrize("g_ghz", [1e-4, 1e-5])
def test_weak_coupling_keeps_the_root_next_to_the_qubit_pole(g_ghz):
    """The qubit-like root sits within 1e-8 relative of its pole; it is
    counted in the edge interval (0, lam_q), not lost."""
    bnd = transmon_boundary(replace(QUBIT, coupling=g_ghz * GHZ), DEV)
    sp = solve_spectrum(LENGTH, bnd)
    assert len(sp.eigenvalues) == 7
    assert sp.counts == (1,) * 7
    lam_q = bnd.poles[0].location
    assert 0.0 < (lam_q - sp.eigenvalues[0]) / lam_q < 1e-8


def _assert_raw_sign_changes(sp, bnd):
    """Each root is a sign change of the raw secular function across
    lam (1 +- 1e-12): the check for roots too close to a pole for
    _oracle_roots, which stops (b - a) 1e-9 short of each pole."""
    h = _oracle_h(DEV.length, bnd.beta, bnd.gamma, [(p.location, p.strength) for p in bnd.poles])
    for lam in sp.eigenvalues:
        assert (h(lam * (1.0 - 1e-12)) > 0.0) != (h(lam * (1.0 + 1e-12)) > 0.0)


@pytest.mark.parametrize("g_ghz", [1e-4, 1e-5])
@pytest.mark.parametrize(
    "levels, counts",
    [(2, (0, 2, 1, 1, 1, 1, 1)), (3, (1, 0, 2, 1, 1, 1, 1, 1))],
)
def test_weak_coupling_excited_state_keeps_the_roots_next_to_its_poles(g_ghz, levels, counts):
    """Mixed-sign residues: the excited-state roots 2.2e-9 (g = 1e-4 GHz)
    and 2.2e-11 (1e-5 GHz) relative from a transmon pole are ordinary roots
    of the cleared function, so none is lost."""
    bnd = transmon_boundary(replace(QUBIT, state="e", coupling=g_ghz * GHZ), DEV, levels=levels)
    sp = solve_spectrum(LENGTH, bnd)
    assert len(sp.eigenvalues) == len(counts)
    assert sp.counts == counts
    _assert_raw_sign_changes(sp, bnd)


@pytest.mark.parametrize("state, counts", [("g", (1,) * 7), ("e", (0, 2, 1, 1, 1, 1, 1))])
def test_root_within_an_ulp_of_its_pole(state, counts):
    """At g = 1e-8 GHz the qubit-like root lies closer to its pole than one
    ulp, so it rounds onto the pole, where the clearing factor is zero."""
    bnd = transmon_boundary(replace(QUBIT, state=state, coupling=1e-8 * GHZ), DEV)
    sp = solve_spectrum(LENGTH, bnd)
    assert sp.counts == counts
    lam_q = bnd.poles[0].location
    assert min(abs(lam - lam_q) for lam in sp.eigenvalues) <= math.ulp(lam_q)


def test_excited_state_root_pair_next_to_the_emission_pole():
    """Qubit in e 0.1% above the third mode: between the second Dirichlet
    pole and the emission pole sit the pulled mode, 2e-3 relative below
    the pole, and the qubit-like root, 8e-9 below it. Both fall inside the
    grid cell next to the pole, where only the ladder of points toward the
    pole tells them apart."""
    spec = replace(QUBIT, state="e", frequency=50.05 * GHZ, coupling=1e-4 * GHZ)
    bnd = transmon_boundary(spec, DEV)
    sp = solve_spectrum(LENGTH, bnd)
    assert sp.counts == (1, 1, 2, 0, 1, 1, 1)
    _assert_raw_sign_changes(sp, bnd)


def test_solver_reads_only_the_rational_form(monkeypatch):
    """poles, affine_slope and gamma, for residues of either sign and a
    gamma term (the full form's rational form); no value or derivative of
    either side."""

    def forbidden(*args):
        raise AssertionError("solver evaluated a boundary or line method")

    for cls, name in (
        (RationalBoundary, "value"), (RationalBoundary, "derivative"),
        (ShortedLine, "dlog_deriv"),
    ):
        monkeypatch.setattr(cls, name, forbidden)
    lam_ref = omega_to_lambda(DEV.fundamental_frequency, DEV.phase_velocity)
    for bnd in (
        transmon_boundary(QUBIT, DEV),
        transmon_boundary(replace(QUBIT, state="e"), DEV, levels=3),
        replace(transmon_boundary(QUBIT, DEV), beta=DEV.length / 2.0),
    ):
        full = FullSusceptanceBoundary.from_rational(
            replace(bnd, beta=0.0), DEV.inductance_per_length, DEV.phase_velocity, lam_ref
        ).rational
        assert full.gamma != 0.0
        assert solve_spectrum(LENGTH, bnd).records
        assert solve_spectrum(LENGTH, full).records


@pytest.mark.parametrize("r", [1.1e-6, 2e-6, 3e-6, 5e-6, -1.1e-6, -2e-6, -3e-6, -5e-6])
def test_qubit_pole_just_outside_the_collision_guard_solves(r):
    """omega_q = 2 omega_1 (1 + r) puts the qubit pole 2|r| relative from
    the first Dirichlet pole: outside the 1e-6 guard, so it must solve."""
    spec = replace(QUBIT, frequency=2.0 * DEV.fundamental_frequency * (1.0 + r))
    bnd = transmon_boundary(spec, DEV)
    sp = solve_spectrum(LENGTH, bnd)
    assert all(sp.interlacing[1:-1])
    assert sp.counts == (1,) * 7
    _assert_matches_oracle(sp, bnd, DEV.length)


def test_random_draw_with_root_2e_9_from_the_qubit_pole():
    """Draw 62 of the interlacing criterion at seed 5 (and of repulsion at
    seed 4): omega_q / omega_1 = 4.0001201, so the root between the second
    Dirichlet pole and the qubit pole sits 2e-9 relative from the latter,
    where the raw |H| at the nearest float exceeds RESIDUAL_REL of its scale."""
    dev = DeviceParams(length=0.0024069442671339715, phase_velocity=154394278.84217966, impedance=50.0)
    spec = TransmonSpec(
        state="g", frequency=403049212963.4439, anharmonicity=-0.25 * GHZ,
        coupling=374460292.0206963,
    )
    bnd = transmon_boundary(spec, dev)
    sp = solve_spectrum(dev.length, bnd)
    assert all(sp.interlacing[1:-1])
    assert sp.counts == (1,) * 7
    assert 0.0 < pole_margin(sp) < 1e-8
    _assert_matches_oracle(sp, bnd, dev.length)


def test_line_slope_bound_behind_the_certificate():
    """G'(lam) <= -L/3 on a dense grid over six lobes, poles excluded.

    G'/L depends on xi = sqrt(lam) L alone, so one length covers them all.
    """
    length = DEV.length
    xi = np.linspace(1e-6, 6.0 * math.pi, 100_001)
    xi = xi[np.abs(xi / math.pi - np.round(xi / math.pi)) > 1e-6]
    worst = max(line_log_deriv_dlam(float(x / length) ** 2, length) for x in xi)
    assert worst <= -length / 3.0


def _v_shaped(shift):
    """A synthetic cleared function H(x) = |x - 1| + shift on [0, 2], with
    c = 1 and L = 1, and a slope bound that proves [0, 1] falling and
    [1, 2] rising but settles no cell across x = 1."""

    def ch(x):
        return abs(x - 1.0) + shift, 0.0, 1.0, 0.0

    def bounds(x0, x1, lobe):
        return (-1.0, -1.0) if x1 <= 1.0 else (1.0, 1.0) if x0 >= 1.0 else (-1.0, 1.0)

    return ch, bounds


@pytest.mark.parametrize("shift", [1e-9, -1e-9, -1e-3])
def test_isolate_turn_needs_h_off_zero(shift):
    """Where a falling cell meets a rising one, H at the junction decides
    between two roots and none, so |H| there must exceed the residual
    tolerance (RESIDUAL_REL = 1e-8 here): inside it the sign is noise and
    isolation raises, outside it each cell holds one root."""
    ch, bounds = _v_shaped(shift)
    if abs(shift) <= spectrum.RESIDUAL_REL:
        with pytest.raises(SolverError, match="H turns within"):
            spectrum._isolate(lambda lo, hi, lobe: ch, None, None, 2.0, bounds, 0.0, 0, 1.0)
    else:
        _, brackets = spectrum._isolate(
            lambda lo, hi, lobe: ch, None, None, 2.0, bounds, 0.0, 0, 1.0
        )
        assert [br[:2] for br in brackets] == [(0.0, 1.0), (1.0, 2.0)]


def test_refine_refuses_a_sign_change_without_a_zero():
    """A step H = -1 below x = 0.5 and +1 from it on changes sign on [0, 1]
    but has no zero (c = 1, L = 1, F' = 0, bounded by lam = 0 and lam_max):
    the refiner closes on the step and the residual test refuses it instead
    of returning a record. The line's zero lies outside the bracket, so
    the Newton start of a pole-free boundary is not taken."""

    def ch(x):
        return -1.0 if x < 0.5 else 1.0, 0.0, 1.0, 0.0

    with pytest.raises(SolverError, match="cleared residual 1.000e[+]00 exceeds"):
        spectrum._refine(ch, None, None, 0, 0.0, 1.0, -1.0, 1.0, 1.0, RationalBoundary())


def _line_zero(lobe):
    """mu = ((lobe + 1/2) pi / L)^2, the line's zero in a lobe, as _refine
    takes it."""
    return ((lobe + 0.5) * math.pi / LENGTH) ** 2


# Each case's roots from the refiner that first evaluated the line's zero
# itself (the parent of the Newton start), as float.hex and refiner
# evaluations: where the start falls back, its path is that refiner's.
START_FALLBACKS = {
    "pole on the line's zero": (
        RationalBoundary(poles=(BoundaryPole(_line_zero(1), 1e3),)), _line_zero(1),
        [("0x1.2d18c48f57a0cp+21", 4), ("0x1.2d4bcc81093eep+21", 4)],
    ),
    "beta = L/2": (
        RationalBoundary(beta=0.5 * LENGTH), None,
        [("0x1.47fa2887dc741p+19", 5), ("0x1.e1b1b8cea5f03p+21", 4),
         ("0x1.1faf73c409b2cp+23", 4), ("0x1.04f687889bb39p+24", 4),
         ("0x1.9b8e51a549998p+24", 4), ("0x1.29cf0c79d3991p+25", 4)],
    ),
    "beta = 0.6 L": (
        RationalBoundary(beta=0.6 * LENGTH, gamma=-0.6 * LENGTH * _line_zero(1)), None,
        [("0x1.964eee6ee87f9p+20", 6), ("0x1.2d3248cd5b957p+21", 2),
         ("0x1.7cf9096e19b0ep+21", 6), ("0x1.1df484e68dcf6p+23", 3),
         ("0x1.05239826a4916p+24", 4), ("0x1.9c1d2cbe0361bp+24", 4),
         ("0x1.2a2e85784c587p+25", 4)],
    ),
    "step leaves its bracket": (
        RationalBoundary(poles=(
            BoundaryPole(_line_zero(0) * (1.0 - 1e-4), 1.0),
            BoundaryPole(_line_zero(0) * (1.0 + 1e-3), 1e3),
        )), _line_zero(0),
        [("0x1.0bb4244db5e30p+18", 4), ("0x1.0cac26b1ecab0p+18", 5)],
    ),
}


@pytest.mark.parametrize("case", sorted(START_FALLBACKS))
def test_newton_start_falls_back_to_the_line_zero(case):
    """Where the Newton step from the line's zero cannot be taken, the
    refiner starts where it did before the step, and each root keeps that
    refiner's bits and evaluation count: a boundary pole exactly on the
    zero, which is then a bracket end and not inside it; beta >= L/2 with
    no poles, where L/2 + F' = L/2 - beta <= 0 (exactly 0 at L/2, no
    ZeroDivisionError); and a step that lands below the bracket the zero
    lies in."""
    bnd, near, expected = START_FALLBACKS[case]
    sp = solve_spectrum(LENGTH, bnd, near=near)

    def step(mu):
        return spectrum._line_zero_step(bnd, mu, 0.5 * LENGTH)

    assert [(r.lam.hex(), r.iterations) for r in sp.records] == expected
    if case == "pole on the line's zero":
        assert sp.records[0].bracket[1] == near == sp.records[1].bracket[0]
    elif case == "step leaves its bracket":
        a, z = sp.records[0].bracket
        assert a < near < z and step(near) < a
    else:
        assert all(step(_line_zero(lobe)) is None for lobe in range(6))
        lobes_inside = [lobe for lobe in range(6) for r in sp.records
                        if r.bracket[0] < _line_zero(lobe) < r.bracket[1]]
        assert lobes_inside == ([1] if case == "beta = 0.6 L" else [])


def _emission_above_absorption():
    """Standard device, qubit in e at levels 3, 1 GHz above the fundamental,
    g = 50 MHz: the e-f absorption pole just below the g-e emission pole,
    both in the first lobe, beta = 0."""
    spec = replace(
        QUBIT, state="e", frequency=DEV.fundamental_frequency + 1.0 * GHZ,
        coupling=0.05 * GHZ,
    )
    return transmon_boundary(spec, DEV, levels=3)


def _partition_ends(length, bnd):
    """The ends (spectrum._End) solve_spectrum partitions the domain at,
    built here from the line's poles and bnd's, so a solve that raises is
    covered too."""
    lam_max, _, line_ends = spectrum._line_partition(length)
    ends = [*line_ends, *(
        spectrum._End(p.location, p.strength, p.strength, PolePoint(p.location, "boundary"))
        for p in bnd.poles if p.location < lam_max
    )]
    return sorted(ends, key=lambda end: end.location)


def test_cleared_at_a_boundary_pole_skips_the_line(monkeypatch):
    """At a bounding boundary pole e = 0, so c = 0 and c*G = 0 exactly, and
    cleared returns them without calling line_log_deriv. Its c*H is the
    bounding pole's cleared term alone, +/- d e_other delta_k/lam_k (+ at
    the interval's lower end), which is what the full formula
    d G e - d (e f - e_hi r_lo + e_lo r_hi) gives there, bit for bit: d is
    sin(xi)/xi, signed positive on the lobe, when a Dirichlet pole bounds
    the interval, and e_other the other bounding boundary pole's factor."""
    bnd = _emission_above_absorption()
    ends = _partition_ends(LENGTH, bnd)
    assert tuple(end.point for end in ends) == solve_spectrum(LENGTH, bnd).partition
    strengths = {p.location: p.strength for p in bnd.poles}
    calls, log_deriv = [], spectrum.line_log_deriv

    def counted(lam, length):
        calls.append(lam)
        return log_deriv(lam, length)

    monkeypatch.setattr(spectrum, "line_log_deriv", counted)
    on = spectrum._cleared_secular(LENGTH, bnd)
    checked, lobe, lo = 0, 0, None
    for hi in (*ends, None):
        if lo is not None and lo.point.kind == "dirichlet":
            lobe += 1
        ch = on(lo, hi, lobe)
        for end, other, sign in ((lo, hi, 1.0), (hi, lo, -1.0)):
            if end is None or end.point.kind != "boundary":
                continue
            lam = end.location
            d = e_other = 1.0
            if other is not None and other.point.kind == "dirichlet":
                xi = math.sqrt(lam) * LENGTH
                d = (-1.0 if lobe % 2 else 1.0) * math.sin(xi) / xi
            elif other is not None:
                e_other = abs(other.location - lam) / other.location
            g_side, f_side, c, _ = ch(lam)
            assert (g_side, c) == (0.0, 0.0)
            assert g_side - f_side == sign * (d * (e_other * (strengths[lam] / lam)))
            checked += 1
        lo = hi
    assert checked == 4
    assert calls == []


@pytest.mark.parametrize(
    "strengths, slack, cut",
    [
        ((-1.0, 0.0), -1.0, 1.05),          # at the emission pole's reach above it
        ((0.0, -1.0), -1.0, 8.95),          # ... and below it
        ((-1.0, -1.0), -1.0, 1.05),         # the lower pole first
        ((-1.0, 0.0), 0.0, 5.0),            # beta >= L/3: no reach, halve
        ((1.0, 0.0), -1.0, 5.0),            # an absorption pole: halve
        ((-100.0, 0.0), -1.0, 5.0),         # reach over 9/10 of the cell: halve
        ((-1e-40, 0.0), -1.0, 5.0),         # a cut below float resolution: halve
    ],
)
def test_pole_cut_splits_at_an_emission_pole_reach(strengths, slack, cut):
    """_pole_cut on a cell 10 wide that spans its interval: the cut lies
    1.05 sqrt(delta_k/slack) from an emission pole bounding it, else at the
    midpoint. strengths are the ends' F-weights: delta_k for a boundary
    pole and 0.0 for a Dirichlet pole."""
    base = 1e6
    lo, hi = (
        spectrum._End(x, wf or 2.0 * x, wf, PolePoint(x, "boundary" if wf else "dirichlet"))
        for x, wf in zip((base, base + 10.0), strengths)
    )
    got = spectrum._pole_cut(base, base + 10.0, lo, hi, slack, base + 5.0)
    assert got == pytest.approx(base + cut, abs=1e-9)


def test_refine_near_without_brackets_is_empty():
    assert spectrum._refine_near([], 1.0, 1.0) == []


def test_empty_spectrum_has_no_nearest_eigenvalue(monkeypatch):
    """A pull reads its solve's one record; a solve that found no root
    raises, naming the joint state."""
    empty = DressedSpectrum(records=(), partition=(), counts=(0,), lam_max=1.0)
    monkeypatch.setattr(dispersive, "solve_spectrum", lambda *args, **kwargs: empty)
    with pytest.raises(SolverError, match="^spectrum is empty in joint state 'g'$"):
        dispersive.pulled_frequencies(DEV, (QUBIT,))


def _check_pole_end_signs(length, bnd):
    """Evaluate c*H at each end of each interval that is a bounding pole and
    assert it is nonzero with the sign _isolate assigns there in place of
    the evaluation (_pole_end). The partition is built here
    (_partition_ends), so a solve that raises is checked too. Returns the
    number of ends checked."""
    ends = _partition_ends(length, bnd)
    on = spectrum._cleared_secular(length, bnd)
    checked, lobe = 0, 0
    for lo, hi in zip([None, *ends], [*ends, None]):
        if lo is not None and lo.point.kind == "dirichlet":
            lobe += 1
        ch = on(lo, hi, lobe)
        for end, upper in ((lo, False), (hi, True)):
            if end is None:
                continue
            g_side, f_side, _, _ = ch(end.location)
            signed = spectrum._pole_end(end.weight, upper)
            assert g_side - f_side != 0.0
            assert (g_side - f_side > 0.0) == (signed[0] - signed[1] > 0.0), (lo, hi, upper)
            checked += 1
    return checked


@settings(max_examples=60, deadline=None)
@given(**RANDOM_BOUNDARY)
def test_pole_ends_have_the_sign_isolation_assigns(locations, strengths, beta_frac, gamma):
    """The level-repulsion theorem signs c*H at a bounding pole by the
    pole's weight, so isolation reads that sign without evaluating c*H:
    + at a Dirichlet pole or absorption pole below the interval, - at one
    above it, flipped for an emission pole. Over RANDOM_BOUNDARY every pole
    end, both ends of all five Dirichlet poles included, evaluates to that
    sign."""
    bnd = random_boundary(locations, strengths, beta_frac, gamma)
    assume(bnd is not None)
    assert _check_pole_end_signs(LENGTH, bnd) >= 10


def test_pole_ends_of_the_pin_draws_have_the_sign_isolation_assigns():
    """The same over the solver pin's random boundaries and the standard
    qubit in g and in e at levels 2 and 3."""
    from test_solver_pin import BOUNDARY_DRAWS, _pin_boundaries

    ends = 0
    for bnd, _ in _pin_boundaries():
        if bnd is not None:
            ends += _check_pole_end_signs(LENGTH, bnd)
    for state, levels in product("ge", (2, 3)):
        ends += _check_pole_end_signs(
            LENGTH, transmon_boundary(replace(QUBIT, state=state), DEV, levels)
        )
    assert ends > 10 * BOUNDARY_DRAWS


@pytest.mark.parametrize("strength", [1e-320, 5e-324])
def test_pole_too_weak_for_a_float_keeps_every_root(strength):
    """An absorption pole so weak that c*H at it, d e delta_k/lam_k,
    underflows to 0. Isolation signs the pole's ends by delta_k, not by
    that 0, so the interval above the pole keeps its root, the bare
    fundamental, and every pole-bounded interval holds one: an evaluated
    0 there would sign nothing, and a falling cell from it holds no root."""
    lam_1 = (math.pi / (2.0 * LENGTH)) ** 2
    loc = 0.7 * lam_1
    bnd = RationalBoundary(poles=(BoundaryPole(loc, strength),))
    lo, hi = _partition_ends(LENGTH, bnd)[:2]
    assert (lo.location, hi.point.kind) == (loc, "dirichlet")
    g_side, f_side, _, _ = spectrum._cleared_secular(LENGTH, bnd)(lo, hi, 0)(loc)
    assert g_side - f_side == 0.0
    sp = solve_spectrum(LENGTH, bnd)
    assert sp.counts == (1,) * 7
    assert sp.records[1].lam == pytest.approx(lam_1, rel=1e-12)


@pytest.mark.parametrize("case", ["sweep point", "e-state pull", "full solve"])
def test_every_cleared_evaluation_calls_the_line(monkeypatch, case):
    """Isolation signs the bounding poles' ends instead of evaluating c*H
    there, so every evaluation a solve keeps calls line_log_deriv: a
    ground-state sweep point (the pair around the fundamental), an e-state
    levels-3 nearest_only pull and a full solve make exactly as many c*H
    evaluations as line calls. An interval's cleared function is set up
    only when the solve evaluates on it or a bracket of it is refined: the
    two edge intervals, where lam = 0 and lam_max are evaluated, the two
    next to each emission pole, which no slope bound settles whole, and one
    per refined root, at most."""
    n = {"evals": 0, "setups": 0, "line": 0}
    cleared_secular, log_deriv = spectrum._cleared_secular, spectrum.line_log_deriv

    def counted_line(lam, length):
        n["line"] += 1
        return log_deriv(lam, length)

    def counted_secular(length, b):
        on = cleared_secular(length, b)

        def counted_on(lo, hi, lobe):
            n["setups"] += 1
            ch = on(lo, hi, lobe)

            def counted(lam):
                n["evals"] += 1
                return ch(lam)

            return counted

        return counted_on

    monkeypatch.setattr(spectrum, "line_log_deriv", counted_line)
    monkeypatch.setattr(spectrum, "_cleared_secular", counted_secular)
    lam_ref = omega_to_lambda(DEV.fundamental_frequency, DEV.phase_velocity)
    excited = transmon_boundary(replace(QUBIT, state="e"), DEV, levels=3)
    if case == "sweep point":
        sp = solve_spectrum(LENGTH, transmon_boundary(QUBIT, DEV), near=lam_ref)
    elif case == "e-state pull":
        sp = solve_spectrum(LENGTH, excited, near=lam_ref, nearest_only=True)
    else:
        sp = solve_spectrum(LENGTH, excited)
    emission = sum(p.strength < 0.0 for p in excited.poles) if case != "sweep point" else 0
    assert n["evals"] == n["line"] > 0
    assert n["setups"] <= 2 + 2 * emission + len(sp.records)


@settings(max_examples=20, deadline=None)
@given(**RANDOM_BOUNDARY)
# the root at lam ~ 4.9e-5 lies below the first point of an oracle that
# stopped short of lam = 0 as if it were a pole
@example(locations=[1.0], strengths=[1.0] * 3, beta_frac=1 - 1e-9, gamma=5.960464477539063e-08)
# H(0) = 1/L - F(0) vanishes exactly, so the sign the floats give it decides
# a root at lam ~ 1e-11, which cannot be told from lam = 0
@example(locations=[1.0], strengths=[1.0] * 3, beta_frac=1 - 1e-9, gamma=0.0)
# H(0) = 0 exactly and H rises from it: the oracle counted that zero as a root
@example(locations=[2.0], strengths=[2.0, 1.0, 1.0], beta_frac=2.0, gamma=0.0)
# two distinct floats closer than RationalBoundary allows: skipped, not an error
@example(locations=[0.05, 0.05000000000000001], strengths=[1.0] * 3, beta_frac=0.5, gamma=0.0)
def test_certified_roots_match_oracle(locations, strengths, beta_frac, gamma):
    """RANDOM_BOUNDARY draws. With every residue positive and beta < L/3
    each interval is settled whole, and every pole-bounded one holds one root.
    """
    bnd = random_boundary(locations, strengths, beta_frac, gamma)
    assume(bnd is not None)
    sp = solve_spectrum(LENGTH, bnd)
    if bnd.all_positive_residues and beta_frac < 1.0:
        assert all(sp.interlacing[1:-1])
        assert all(r.bracket in sp.intervals for r in sp.records)
    _assert_matches_oracle(sp, bnd, DEV.length)


# The most evaluations of c*H the refiner may spend on one root: the worst
# case measured over the solver pin (10), the three benchmark workloads at
# seed 3 (7) and 80 000 further draws of RANDOM_BOUNDARY (16; the last two
# examples below). Brent's method took up to 32 on the sweep workload, its
# residual evaluation included.
REFINE_STEP_BOUND = 16


@settings(max_examples=40, deadline=None)
@given(**RANDOM_BOUNDARY)
# a root next to where c*H is flat to its rounding error. A refiner that
# steps only from its last point and, as Brent's method does, sets both
# remembered steps to a bisection's cannot step back there from a
# bisection's midpoint, which is the whole remaining way: 55 and 47
# evaluations
@example([0.48378588150757995, 0.7401408476556507, 4.996974132853754],
         [-0.9994132397093689, 1.6452383024910122, -0.3192470629764228], 1.2668649417158948,
         -500.0)
@example([1.0047295999822456, 3.6242308610126495], [-2.0, -2.0, 0.2962414034917173],
         1.0794615512019148, 500.0)
# the worst measured: 16 evaluations for a root at lam ~ 216, where c*H is
# flat to its rounding error over several floats, and 15 for one between a
# Dirichlet pole and two boundary poles 0.2% apart
@example([1.081436711070884, 1.2211928489750175, 1.2507718222129038],
         [1.4814914973911786, -0.001, 0.4947098072079786], 1.0 - 1e-9, 255.29423757793313)
@example([5.5, 3.229198957034918, 5.4904794958405905],
         [1.6556511136776115, -1.3046990196536317, 0.0038670969528367682], 1.9980519276856876,
         500.0)
def test_refinement_steps_per_root_are_bounded(locations, strengths, beta_frac, gamma):
    """RANDOM_BOUNDARY draws: g-like and e-like boundaries, emission poles,
    beta up to twice its cheap-bound guard L/3. No root's refinement takes
    more than REFINE_STEP_BOUND evaluations."""
    bnd = random_boundary(locations, strengths, beta_frac, gamma)
    assume(bnd is not None)
    sp = solve_spectrum(LENGTH, bnd)
    assert sp.records
    assert max(r.iterations for r in sp.records) <= REFINE_STEP_BOUND


def _bits(record):
    """An EigenvalueRecord as exact bit patterns."""
    return (*(x.hex() for x in (record.lam, *record.bracket, record.residual)), record.iterations)


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (SolverError, ValueError) as exc:
        return type(exc)


ONE_POLE = dict(locations=[1.0], gamma=0.0, frac=1.0)


@settings(max_examples=40, deadline=None)
@given(
    **RANDOM_BOUNDARY,
    frac=st.floats(0.0, 1.0, exclude_min=True),
    pick=st.one_of(
        st.none(), st.tuples(st.sampled_from(("left", "right", "root")), st.integers(0, 50))
    ),
)
# near at lam_max, and at a bracket end or a root of a ground-state-like
# boundary and of one with only emission poles
@example(**ONE_POLE, strengths=[1.0] * 3, beta_frac=0.5, pick=None)
@example(**ONE_POLE, strengths=[1.0] * 3, beta_frac=0.5, pick=("left", 0))
@example(**ONE_POLE, strengths=[-1.0] * 3, beta_frac=1.5, pick=("root", 2))
@example(**ONE_POLE, strengths=[-1.0] * 3, beta_frac=1.5, pick=("right", 2))
def test_near_solve_is_a_subset_of_the_full_solve(
    locations, strengths, beta_frac, gamma, frac, pick
):
    """near anywhere in (0, lam_max], or exactly at a bracket end or a root
    of the full solve: the same certified counts, and bit for bit the full
    solve's records of the largest root <= near and the smallest >= near."""
    bnd = random_boundary(locations, strengths, beta_frac, gamma)
    assume(bnd is not None)
    full = solve_spectrum(LENGTH, bnd)
    near = frac * full.lam_max
    if pick is not None and full.records:
        where, i = pick
        rec = full.records[i % len(full.records)]
        near = {"left": rec.bracket[0], "right": rec.bracket[1], "root": rec.lam}[where]
        near = max(near, math.ulp(0.0))
    part = solve_spectrum(LENGTH, bnd, near=near)
    for field in ("counts", "interlacing", "partition", "intervals", "lam_max"):
        assert getattr(part, field) == getattr(full, field)
    assert len(full.records) == sum(full.counts)
    below = [r for r in full.records if r.lam <= near][-1:]
    above = [r for r in full.records if r.lam >= near][:1]
    expected = list(dict.fromkeys(_bits(r) for r in below + above))
    assert [_bits(r) for r in part.records] == expected
    assert len(part.records) <= 2
    v = DEV.phase_velocity
    assert _outcome(spectrum._fundamental_pair, part, near, v) == _outcome(
        spectrum._fundamental_pair, full, near, v
    )

    def nearest(sp):
        """The record nearest near, the lower on a tie."""
        return min(sp.records, key=lambda r: abs(r.lam - near), default=None)

    assert nearest(part) == nearest(full)


def test_partial_spectrum_answers_only_at_near():
    """At near a pair solve's records give the full solve's answer; read
    for a pair away from near they miss a side and raise, and a read of
    every root is refused."""
    bnd = transmon_boundary(QUBIT, DEV)
    v = DEV.phase_velocity
    lam_ref = omega_to_lambda(DEV.fundamental_frequency, v)
    full = solve_spectrum(LENGTH, bnd)
    part = solve_spectrum(LENGTH, bnd, near=lam_ref)
    assert len(part.records) == 2 < len(full.records) == sum(full.counts)
    pair = spectrum._fundamental_pair(part, lam_ref, v)
    assert pair == spectrum._fundamental_pair(full, lam_ref, v)
    for lam in (0.5 * lam_ref, 2.0 * lam_ref):
        with pytest.raises(SolverError, match="no dressed pair"):
            spectrum._fundamental_pair(part, lam, v)
    with pytest.raises(ValueError, match="every root"):
        pole_margin(part)


@pytest.mark.parametrize("beta_frac", [0.5, 1.0, 1.5])
def test_beta_around_l_over_3_matches_oracle(beta_frac):
    """Below L/3 the slope bound settles each interval whole, so every
    bracket is its interval; at and above it cells may be split."""
    bnd = replace(transmon_boundary(QUBIT, DEV), beta=beta_frac * DEV.length / 3.0)
    sp = solve_spectrum(LENGTH, bnd)
    if beta_frac < 1.0:
        assert all(r.bracket in sp.intervals for r in sp.records)
    _assert_matches_oracle(sp, bnd, DEV.length)


def _excited(coupling_ghz):
    """Standard device, qubit in e at 10.5 GHz, levels 2: one emission
    pole, just above the fundamental."""
    spec = replace(QUBIT, state="e", frequency=10.5 * GHZ, coupling=coupling_ghz * GHZ)
    return transmon_boundary(spec, DEV, levels=2)


def test_excited_state_root_pair_far_below_the_emission_pole():
    """g = 0.2456 GHz: the pulled mode and the qubit-like root sit 4.5% and
    4.7% below the emission pole, 1.7e-3 relative apart, where the grid
    scan saw neither (it returned counts (0, 0, 1, 1, 1, 1, 1))."""
    bnd = _excited(0.2456)
    sp = solve_spectrum(LENGTH, bnd)
    assert sp.counts == (2, 0, 1, 1, 1, 1, 1)
    _assert_matches_oracle(sp, bnd, DEV.length)


def _extended_h(bnd):
    """The raw secular function in numpy's extended precision, which takes
    the rounding noise of float64 (~1e-13 here) off the oracle's signs."""

    def h(lam):
        lam = np.asarray(lam, dtype=np.longdouble)
        xi = np.sqrt(lam) * DEV.length
        val = np.sqrt(lam) * np.cos(xi) / np.sin(xi) + bnd.beta * lam + bnd.gamma
        for p in bnd.poles:
            val = val - p.strength / (p.location - lam)
        return val

    return h


def _pair_minimum(bnd):
    """(lam, H) at the minimum of H between the fundamental's pair of
    roots, by golden section on the half of (0, lam_q) next to the pole."""
    h = _extended_h(bnd)
    lam_q = bnd.poles[0].location
    a, z = 0.5 * lam_q, lam_q * (1.0 - 1e-9)
    r = (math.sqrt(5.0) - 1.0) / 2.0
    while True:
        c, d = z - r * (z - a), a + r * (z - a)
        if not a < c < d < z:
            break
        if h(c) < h(d):
            z = d
        else:
            a = c
    x = 0.5 * (a + z)
    return x, float(h(x))


def _dense_counts(bnd, lam_max, around):
    """Sign changes of the extended-precision H per interval: 20001
    uniform points, 2000 log-spaced ones toward each end, and 1500 on each
    side of `around`, down to 1e-16 relative."""
    h = _extended_h(bnd)
    singular = sorted(
        dirichlet_poles(LENGTH, 5) + [p.location for p in bnd.poles if p.location < lam_max]
    )
    edges = [0.0] + [x for x in singular if x < lam_max] + [lam_max]
    rel = np.logspace(-12, -1, 2000)
    near = around * np.logspace(-16, -1, 1500)
    counts = []
    for a, b in zip(edges, edges[1:]):
        x = np.concatenate(
            [np.linspace(a, b, 20001), a + (b - a) * rel, b - (b - a) * rel,
             around - near, around + near]
        )
        x = np.unique(x[(x > a) & (x < b)])
        if b == lam_max:
            x = np.append(x, b)
        signs = np.sign(h(x))
        signs = signs[signs != 0]
        counts.append(int(np.count_nonzero(np.diff(signs))))
    return tuple(counts)


def _merge_coupling():
    """g*, where the root pair below the emission pole of _excited merges
    and vanishes (H's minimum there touches zero), bisected to a float."""
    lo, hi = 0.2456, 0.5        # two roots at lo, none at hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if _pair_minimum(_excited(mid))[1] < 0.0:
            lo = mid
        else:
            hi = mid


def test_merge_probe_never_returns_a_wrong_count():
    """At g*(1 +- 10^-k), k = 1..16, every solve either raises SolverError
    or returns the counts of a dense sign-change scan: none is wrong
    silently."""
    g_star = _merge_coupling()
    assert g_star == pytest.approx(0.2456, rel=1e-3)
    lam_max = default_lam_max(LENGTH)
    for side, pair in ((1.0, 0), (-1.0, 2)):
        for k in range(1, 17):
            bnd = _excited(g_star * (1.0 + side * 10.0 ** -k))
            try:
                counts = solve_spectrum(LENGTH, bnd).counts
            except SolverError:
                assert k > 3, "a pair this far from merging must be resolved"
                continue
            assert counts == _dense_counts(bnd, lam_max, _pair_minimum(bnd)[0]), (side, k)
            if k <= 3:
                assert counts[0] == pair


def test_merge_probe_fails_whatever_near_is():
    """At g*(1 +- 1e-9) the pair below the emission pole, at lam ~ 2.9e5,
    cannot be certified: a solve near lam_max or mid-domain, far from that
    pair, raises SolverError as the full solve does."""
    g_star = _merge_coupling()
    lam_max = default_lam_max(LENGTH)
    for side in (1.0, -1.0):
        bnd = _excited(g_star * (1.0 + side * 1e-9))
        for near in (None, 0.5 * lam_max, lam_max):
            with pytest.raises(SolverError, match="no certified root count"):
                solve_spectrum(LENGTH, bnd, near=near)


@pytest.fixture
def refine_spy(monkeypatch):
    """Every solve_spectrum call made through the package, as (spectrum,
    refiner runs it made)."""
    runs, solves = [0], []
    refine, solve = spectrum._refine, spectrum.solve_spectrum

    def counted_refine(*args):
        runs[0] += 1
        return refine(*args)

    def spied_solve(*args, **kwargs):
        before = runs[0]
        sp = solve(*args, **kwargs)
        solves.append((sp, runs[0] - before))
        return sp

    monkeypatch.setattr(spectrum, "_refine", counted_refine)
    # cli and acceptance import solve_spectrum from spectrum at call time
    for module in (spectrum, dispersive):
        monkeypatch.setattr(module, "solve_spectrum", spied_solve)
    return solves


@pytest.mark.parametrize("state, levels", [("g", 2), ("e", 3)])
def test_sweep_and_pulls_refine_at_most_twice_per_solve(refine_spy, state, levels):
    """Sweep solves refine the pair around the fundamental, at most two
    refiner runs; pulls refine only the root they read, one run each."""
    spec = replace(QUBIT, state=state)
    grid = [DEV.fundamental_frequency * x for x in (0.6, 0.8, 1.2, 1.4)]
    qubit_frequency_sweep(DEV, spec, grid, levels=levels)
    dispersive.pulled_frequencies(DEV, (QUBIT,), levels=levels)
    assert len(refine_spy) == len(grid) + 2
    for i, (sp, runs) in enumerate(refine_spy):
        if i < len(grid):
            assert runs == len(sp.records) <= 2 < sum(sp.counts)
        else:
            assert runs == len(sp.records) == 1 < sum(sp.counts)


def _assert_every_bracket_refined(solves):
    assert solves
    for sp, runs in solves:
        assert runs == len(sp.records) == sum(sp.counts)


def test_spectrum_cli_refines_every_bracket(refine_spy, tmp_path):
    cfg = str(Path(__file__).resolve().parent.parent / "sample_device.cfg")
    out = str(tmp_path / "spectrum.json")
    argv = ["spectrum", "--config", cfg, "--state", "e", "--levels", "3", "--out", out]
    assert cli.main(argv) == 0
    _assert_every_bracket_refined(refine_spy)
    with open(out) as fh:
        payload = json.load(fh)
    assert len(payload["brackets"]) == sum(refine_spy[0][0].counts)


def test_interlacing_criterion_refines_every_bracket(refine_spy, capsys):
    assert cli.main(["validate", "--only", "interlacing"]) == 0
    assert len(refine_spy) == 1000
    _assert_every_bracket_refined(refine_spy)
