import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dressed_modes import (
    GHZ,
    BoundaryPole,
    CrossingSweep,
    DeviceParams,
    FullSusceptanceBoundary,
    PoleCollisionError,
    RationalBoundary,
    ShortedLine,
    TransmonSpec,
    omega_to_lambda,
    pole_margin,
    quarterwave_zeros,
    qubit_frequency_sweep,
    solve_spectrum,
    transmon_boundary,
    vacuum_rabi_gap,
)
from dressed_modes import spectrum
from dressed_modes.resonator import line_log_deriv_dlam
from dressed_modes.spectrum import DIRICHLET_COLLISION_REL

DEV = DeviceParams(length=3e-3, phase_velocity=1.2e8, impedance=50.0)
QUBIT = TransmonSpec(state="g", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ, coupling=0.1 * GHZ)
LINE = ShortedLine(DEV.length)


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
    adaptivity, no Newton. poles is a list of (location, strength).
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
        grid = np.linspace(a + eps, b - eps, points_per_interval)
        vals = h_vec(grid)
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
    sp = solve_spectrum(LINE, RationalBoundary(beta=0.0, gamma=0.0, poles=()))
    expected = quarterwave_zeros(DEV.length, 6)
    assert len(sp.eigenvalues) == 6
    for lam, ref in zip(sp.eigenvalues, expected):
        assert lam == pytest.approx(ref, rel=1e-10)


def test_ground_state_spectrum_matches_dense_scan_oracle():
    bnd = transmon_boundary(QUBIT, DEV)
    sp = solve_spectrum(LINE, bnd)
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
    sp = solve_spectrum(LINE, bnd)
    oracle = _oracle_roots(DEV.length, bnd.beta, bnd.gamma, [], sp.lam_max)
    assert len(sp.eigenvalues) == len(oracle)
    for lam, ref in zip(sp.eigenvalues, oracle):
        assert lam == pytest.approx(ref, rel=1e-10)


def test_excited_state_spectrum_matches_dense_scan_oracle():
    """Mixed-sign residues: no interlacing guarantee, still every root found."""
    bnd = transmon_boundary(replace(QUBIT, state="e"), DEV, levels=3)
    assert not bnd.all_positive_residues
    sp = solve_spectrum(LINE, bnd)
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
    sp = solve_spectrum(LINE, bnd)
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
    sp = solve_spectrum(LINE, bnd)
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
        solve_spectrum(LINE, bnd)


def test_margin_scales_with_coupling_squared():
    margins = {}
    for g in (0.05 * GHZ, 0.1 * GHZ):
        sp = solve_spectrum(LINE, transmon_boundary(replace(QUBIT, coupling=g), DEV))
        margins[g] = pole_margin(sp)
    ratio = margins[0.1 * GHZ] / margins[0.05 * GHZ]
    assert ratio == pytest.approx(4.0, rel=0.1)


def test_pole_margin_infinite_without_boundary_poles():
    sp = solve_spectrum(LINE, RationalBoundary(beta=0.0, gamma=0.0, poles=()))
    assert pole_margin(sp) == math.inf


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


def test_vacuum_rabi_gap_reference_values():
    omega_r = DEV.fundamental_frequency
    spec = replace(QUBIT, frequency=omega_r)
    out = vacuum_rabi_gap(DEV, spec)
    assert out.predicted == pytest.approx(2 * spec.coupling, rel=1e-12)
    assert out.measured == pytest.approx(out.predicted, rel=1e-3)
    assert out.margin > 0.0


def test_vacuum_rabi_gap_zero_coupling_degenerates():
    omega_r = DEV.fundamental_frequency
    spec = replace(QUBIT, frequency=omega_r, coupling=0.0)
    out = vacuum_rabi_gap(DEV, spec)
    assert out.measured == out.predicted == out.margin == 0.0


def test_vacuum_rabi_gap_requires_resonance():
    with pytest.raises(ValueError):
        vacuum_rabi_gap(DEV, QUBIT)


@settings(max_examples=25, deadline=None)
@given(
    length=st.floats(2e-3, 8e-3),
    v=st.floats(0.8e8, 1.6e8),
    ratio=st.floats(0.1, 5.8),
    g_ghz=st.floats(0.01, 0.2),
)
def test_random_ground_configs_interlace(length, v, ratio, g_ghz):
    dev = DeviceParams(length=length, phase_velocity=v, impedance=50.0)
    omega_q = ratio * dev.fundamental_frequency
    lam_q = omega_to_lambda(omega_q, v)
    # skip exactly the draws solve_spectrum rejects with PoleCollisionError
    if any(abs(lam_q - d) < DIRICHLET_COLLISION_REL * d for d in ShortedLine(length).poles(3)):
        return
    spec = TransmonSpec(
        state="g", frequency=omega_q, anharmonicity=-0.25 * GHZ, coupling=g_ghz * GHZ
    )
    sp = solve_spectrum(ShortedLine(length), transmon_boundary(spec, dev))
    assert all(flag is None or flag for flag in sp.interlacing)
    assert pole_margin(sp) > 0.0


def _assert_matches_oracle(sp, bnd, length):
    oracle = _oracle_roots(
        length, bnd.beta, bnd.gamma,
        [(p.location, p.strength) for p in bnd.poles],
        sp.lam_max,
    )
    assert len(sp.eigenvalues) == len(oracle)
    for lam, ref in zip(sp.eigenvalues, oracle):
        assert lam == pytest.approx(ref, rel=1e-10)


# Certified path: all residues positive and beta < L/3.


@pytest.mark.parametrize("g_ghz", [1e-4, 1e-5])
def test_weak_coupling_keeps_the_root_next_to_the_qubit_pole(g_ghz):
    """The qubit-like root sits within 1e-8 relative of its pole; it is
    counted in the edge interval (0, lam_q), not lost."""
    bnd = transmon_boundary(replace(QUBIT, coupling=g_ghz * GHZ), DEV)
    sp = solve_spectrum(LINE, bnd)
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
    sp = solve_spectrum(LINE, bnd)
    assert len(sp.eigenvalues) == len(counts)
    assert sp.counts == counts
    _assert_raw_sign_changes(sp, bnd)


@pytest.mark.parametrize("state, counts", [("g", (1,) * 7), ("e", (0, 2, 1, 1, 1, 1, 1))])
def test_root_within_an_ulp_of_its_pole(state, counts):
    """At g = 1e-8 GHz the qubit-like root lies closer to its pole than one
    ulp, so it rounds onto the pole, where the clearing factor is zero."""
    bnd = transmon_boundary(replace(QUBIT, state=state, coupling=1e-8 * GHZ), DEV)
    sp = solve_spectrum(LINE, bnd)
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
    sp = solve_spectrum(LINE, bnd)
    assert sp.counts == (1, 1, 2, 0, 1, 1, 1)
    _assert_raw_sign_changes(sp, bnd)


def test_solver_reads_only_the_rational_form(monkeypatch):
    """poles, beta, gamma and all_positive_residues, on every path and for
    both boundary classes; no value or derivative of either side."""

    def forbidden(*args):
        raise AssertionError("solver evaluated a boundary or line method")

    for cls, name in (
        (RationalBoundary, "value"), (RationalBoundary, "derivative"),
        (FullSusceptanceBoundary, "value"), (FullSusceptanceBoundary, "derivative"),
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
        )
        assert solve_spectrum(LINE, bnd).records
        assert solve_spectrum(LINE, full).records


@pytest.mark.parametrize("r", [1.1e-6, 2e-6, 3e-6, 5e-6, -1.1e-6, -2e-6, -3e-6, -5e-6])
def test_qubit_pole_just_outside_the_collision_guard_solves(r):
    """omega_q = 2 omega_1 (1 + r) puts the qubit pole 2|r| relative from
    the first Dirichlet pole: outside the 1e-6 guard, so it must solve."""
    spec = replace(QUBIT, frequency=2.0 * DEV.fundamental_frequency * (1.0 + r))
    bnd = transmon_boundary(spec, DEV)
    sp = solve_spectrum(LINE, bnd)
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
    sp = solve_spectrum(ShortedLine(dev.length), bnd)
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


@settings(max_examples=20, deadline=None)
@given(
    locations=st.lists(st.floats(0.05, 5.5), min_size=1, max_size=3, unique=True),
    strengths=st.lists(st.floats(1e-3, 2.0), min_size=3, max_size=3),
    beta_frac=st.one_of(st.floats(0.0, 0.999), st.just(1.0 - 1e-9)),
    gamma=st.floats(0.0, 500.0),
)
def test_certified_roots_match_oracle(locations, strengths, beta_frac, gamma):
    """Random positive-residue boundaries, beta up to just below L/3.

    Locations are in units of the fundamental eigenvalue, strengths in
    units of lam_1 / L.
    """
    length = DEV.length
    lam_1 = (math.pi / (2.0 * length)) ** 2
    locs = [x * lam_1 for x in locations]
    if any(abs(p - d) < DIRICHLET_COLLISION_REL * d for p in locs for d in LINE.poles(6)):
        return
    poles = tuple(
        BoundaryPole(loc, s * lam_1 / length) for loc, s in zip(locs, strengths)
    )
    bnd = RationalBoundary(beta=beta_frac * length / 3.0, gamma=gamma, poles=poles)
    sp = solve_spectrum(LINE, bnd)
    assert all(sp.interlacing[1:-1])
    assert all(r.bracket in sp.intervals for r in sp.records)
    _assert_matches_oracle(sp, bnd, length)


@pytest.mark.parametrize("beta_frac", [0.5, 1.0, 1.5])
def test_beta_at_or_above_l_over_3_takes_the_scan(monkeypatch, beta_frac):
    scans = []
    scan = spectrum._scan_brackets

    def spy(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(spectrum, "_scan_brackets", spy)
    bnd = replace(transmon_boundary(QUBIT, DEV), beta=beta_frac * DEV.length / 3.0)
    sp = solve_spectrum(LINE, bnd)
    assert (len(scans) > 0) == (beta_frac >= 1.0)
    _assert_matches_oracle(sp, bnd, DEV.length)
