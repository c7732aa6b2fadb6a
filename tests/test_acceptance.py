"""Acceptance gate.

One test per stated criterion; run with -s to see the detail lines, or use
the `dressed-modes validate` subcommand for the same report. The regression
tests at the bottom freeze measured values from a known-good build so quiet
numerical drift shows up as a hard failure instead of eroding the margins.
"""

import builtins
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dressed_modes import (
    GHZ,
    DeviceParams,
    FullSusceptanceBoundary,
    PoleCollisionError,
    SolverError,
    TransmonSpec,
    additivity_report,
    default_lam_max,
    dirichlet_poles,
    omega_to_lambda,
    solve_spectrum,
    transmon_boundary,
    vacuum_rabi_gap,
)
from dressed_modes import acceptance, dispersive, spectrum
from dressed_modes.acceptance import (
    ALL_CHECKS,
    SPACE,
    SUBSPACES,
    TRIANGLE_DRAWS,
    UNIFORM_BLOCK,
    _draw,
    _uniform_draws,
    STANDARD_DEVICE,
    STANDARD_QUBIT,
    check_approximation_audit,
    check_dispersive_triangle,
    check_interlacing,
    run_all,
)

NAMES = [name for name, _ in ALL_CHECKS]


@pytest.mark.parametrize("name", NAMES)
def test_criterion(name, gate_results):
    result = gate_results[NAMES.index(name)]
    tag = "PASS" if result.passed else "FAIL"
    print(f"[{tag}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_run_all_covers_every_criterion(gate_results):
    assert len(gate_results) == len(NAMES) == 11
    assert all(r.passed for r in gate_results)
    with pytest.raises(ValueError):
        run_all(only="not-a-criterion")


@pytest.mark.parametrize("seed", [2, 9, 15])
def test_chi_triangle_passes_where_the_rwa_closed_form_failed(seed):
    """validate --seed 2, 9 and 15 (the criterion draws with seed + 2)
    failed at 1.024, 1.003 and 1.022 of tolerance while the closed form
    left out the boundary model's counter-rotating term."""
    result = check_dispersive_triangle(seed + 2)
    assert result.passed, result.detail


def test_interlacing_criterion_fails_on_a_raised_or_non_interlacing_solve(monkeypatch):
    """Of three draws, the first solve raises and the second reports two
    roots on a pole-bounded interval: both count as failures, and the
    detail names the first."""
    monkeypatch.setattr(acceptance, "INTERLACING_CONFIGS", 3)
    solve, calls = spectrum.solve_spectrum, []

    def faulty(length, b):
        calls.append(b)
        if len(calls) == 1:
            raise SolverError("no certified root count")
        sp = solve(length, b)
        if len(calls) == 2:
            return sp._replace(counts=(sp.counts[0], 2, *sp.counts[2:]))
        return sp

    monkeypatch.setattr(spectrum, "solve_spectrum", faulty)
    result = check_interlacing(0)
    assert not result.passed
    assert result.detail == (
        "2/3 configurations solved, 2 interlacing failures; "
        "first at draw 0: raised SolverError: no certified root count"
    )


def test_interlacing_detail_names_the_interval_whose_count_is_not_1(monkeypatch):
    """The third draw's solve reports no root on its second pole-bounded
    interval, the first failure of the run."""
    monkeypatch.setattr(acceptance, "INTERLACING_CONFIGS", 4)
    solve, calls = spectrum.solve_spectrum, []

    def emptied(length, b):
        calls.append(b)
        sp = solve(length, b)
        return sp._replace(counts=(*sp.counts[:2], 0, *sp.counts[3:])) if len(calls) == 3 else sp

    monkeypatch.setattr(spectrum, "solve_spectrum", emptied)
    result = check_interlacing(0)
    assert not result.passed
    assert result.detail == (
        "4/4 configurations solved, 1 interlacing failures; first at draw 2: interval 2 holds 0 roots"
    )


def test_chi_triangle_fails_on_a_doubled_exact_chi(monkeypatch):
    monkeypatch.setattr(acceptance, "TRIANGLE_DRAWS", 2)
    exact = dispersive.dispersive_shift_exact

    def doubled(*args, **kwargs):
        chi, pull_g, pull_e = exact(*args, **kwargs)
        return 2.0 * chi, pull_g, pull_e

    monkeypatch.setattr(dispersive, "dispersive_shift_exact", doubled)
    result = check_dispersive_triangle(2)
    assert not result.passed
    draws, worst = result.detail.split(" draws, worst pairwise error at ")
    assert draws == "2"
    assert float(worst.removesuffix(" of tolerance")) > 1.0


def test_boundary_forms_fail_on_a_mode_count_mismatch(monkeypatch):
    """The full-susceptance solve, the second, loses its roots."""
    solve, calls = spectrum.solve_spectrum, []

    def second_empty(length, b):
        calls.append(b)
        sp = solve(length, b)
        return sp._replace(records=()) if len(calls) == 2 else sp

    monkeypatch.setattr(spectrum, "solve_spectrum", second_empty)
    result = check_approximation_audit()
    assert not result.passed
    assert result.detail == "mode count mismatch near the fundamental: 1 vs 0"


def _scalar_uniform(seed):
    """Reference: one scalar rng.uniform(lo, hi) call per number, as the
    criteria drew before they read their numbers in blocks."""
    rng = np.random.default_rng(seed)
    return lambda lo, hi: float(rng.uniform(lo, hi))


def _reference_ground_config(uniform):
    """Reference: the settled ground-state draw as it was before it read the
    solver's guards, with its own first three Dirichlet poles and bands."""
    length = uniform(2e-3, 8e-3)
    v = uniform(0.8e8, 1.6e8)
    dev = DeviceParams(length=length, phase_velocity=v, impedance=50.0)
    dirichlet = dirichlet_poles(length, 3)
    while True:
        omega_q = uniform(0.1, 5.8) * dev.fundamental_frequency
        lam_q = omega_to_lambda(omega_q, v)
        if any(abs(lam_q - d) < 1e-6 * d for d in dirichlet):
            continue
        break
    g = uniform(0.01, 0.2) * GHZ
    spec = TransmonSpec(state="g", frequency=omega_q, anharmonicity=-0.25 * GHZ, coupling=g)
    return dev, spec


# every (lo, hi) a random criterion draws from
CRITERION_RANGES = (
    (1e3, default_lam_max(STANDARD_DEVICE.length) * 0.98),
    (2e-3, 8e-3), (0.8e8, 1.6e8), (0.1, 5.8), (0.01, 0.2),
    (-2.0, -0.4), (-0.3, -0.1), (0.02, 0.1),
)


@pytest.mark.parametrize("seed", range(10))
def test_block_draws_are_rng_uniform_bit_for_bit(seed):
    draws = 12_000
    assert draws > 40 * UNIFORM_BLOCK
    ranges = [CRITERION_RANGES[i % len(CRITERION_RANGES)] for i in range(draws)]
    blocks, scalar = _uniform_draws(seed), _scalar_uniform(seed)
    assert [blocks(lo, hi) for lo, hi in ranges] == [scalar(lo, hi) for lo, hi in ranges]


@pytest.mark.parametrize("seed", range(10))
def test_ground_configs_from_block_draws_are_the_scalar_draws_devices(seed):
    blocks, scalar = _uniform_draws(seed), _scalar_uniform(seed)
    for _ in range(1200):
        dev, spec = _draw(blocks, SUBSPACES["settled ground state"])[:2]
        assert (dev, spec) == _reference_ground_config(scalar)


@pytest.mark.parametrize(
    "offset, redrawn",
    [(0.0, True), (0.9e-6, True), (-0.9e-6, True), (1.1e-6, False), (-1.1e-6, False)],
)
def test_ground_config_redraws_what_the_solver_rejects_with_one_number(offset, redrawn):
    """A qubit drawn inside the first Dirichlet pole's collision band, which
    solve_spectrum rejects, is redrawn with exactly one more number before
    g; one drawn just outside it is kept."""
    # lam_q = (1 + offset) (pi / L)^2, the first Dirichlet pole, at omega_q = 2 omega_1 sqrt(1 + offset)
    u_q = (2.0 * math.sqrt(1.0 + offset) - 0.1) / 5.7
    units = iter([0.5, 0.5, u_q, 0.3, 0.7])
    taken = []

    def uniform(lo, hi):
        taken.append((lo, hi))
        return lo + (hi - lo) * next(units)

    dev, spec = _draw(uniform, SUBSPACES["settled ground state"])[:2]
    qubit_draws = [(0.1, 5.8)] * (2 if redrawn else 1)
    assert taken == [(2e-3, 8e-3), (0.8e8, 1.6e8), *qubit_draws, (0.01, 0.2)]
    first = replace(spec, frequency=(0.1 + 5.7 * u_q) * dev.fundamental_frequency)
    if redrawn:
        assert spec.frequency == (0.1 + 5.7 * 0.3) * dev.fundamental_frequency
        assert spec.coupling == (0.01 + 0.19 * 0.7) * GHZ
        with pytest.raises(PoleCollisionError):
            solve_spectrum(dev.length, transmon_boundary(first, dev))
    else:
        assert spec == first
        assert spec.coupling == (0.01 + 0.19 * 0.3) * GHZ
        solve_spectrum(dev.length, transmon_boundary(first, dev))


def _reference_triangle_draw(uniform):
    """Reference: check_dispersive_triangle's draw as it was written inline
    before it drew the dispersive sub-space: (spec, delta)."""
    omega_r = STANDARD_DEVICE.fundamental_frequency
    delta = uniform(-2.0, -0.4) * GHZ
    alpha = uniform(-0.3, -0.1) * GHZ
    g = uniform(0.02, 0.1) * abs(delta)
    spec = TransmonSpec(state="g", frequency=omega_r + delta, anharmonicity=alpha, coupling=g)
    return spec, delta


@pytest.mark.parametrize("seed", range(10))
def test_triangle_draws_are_the_inline_draws(seed):
    """The chi triangle's draws of the dispersive sub-space are, bit for
    bit, the draws its inline expressions made from one scalar
    rng.uniform call per number."""
    blocks, scalar = _uniform_draws(seed), _scalar_uniform(seed)
    for _ in range(TRIANGLE_DRAWS):
        dev, spec, delta = _draw(blocks, SUBSPACES["dispersive"])
        assert (dev, spec, delta) == (STANDARD_DEVICE, *_reference_triangle_draw(scalar))


def test_draws_after_the_first_run_no_import_statement(monkeypatch):
    """The first draw reads the solver's guards (_solver_guards); the 200
    after it, over the full space and each sub-space, call __import__ not
    once. The counter does see the guards' own imports."""
    uniform = random.Random(1).uniform
    _draw(uniform, SPACE)
    imported, real_import = [], builtins.__import__

    def counted(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counted)
    spaces = [SPACE, *SUBSPACES.values()]
    for i in range(200):
        _draw(uniform, spaces[i % len(spaces)])
    assert imported == []
    acceptance._solver_guards.__wrapped__()
    assert imported == ["boundary", "spectrum"]


def test_the_gate_and_one_draw_load_only_the_guards_layers():
    """In a fresh interpreter, importing the gate and drawing once loads
    boundary and spectrum, whose guards the draw reads, and no other
    solver layer (dispersive, jc, multiqubit) and no numpy."""
    probe = (
        "import random, sys\n"
        "import dressed_modes.acceptance as gate\n"
        "gate._draw(random.Random(1).uniform, gate.SPACE)\n"
        "print((sorted(m for m in sys.modules if m.partition('.')[0] == 'dressed_modes'),"
        " 'numpy' in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, check=True, env={**os.environ, "PYTHONPATH": src})
    layers = ["acceptance", "boundary", "errors", "multimode", "params", "resonator", "spectrum", "wedge"]
    assert proc.stdout.strip() == str((["dressed_modes", *(f"dressed_modes.{m}" for m in layers)], False))


def test_interlacing_draws_refine_from_the_newton_start(monkeypatch):
    """The first 200 draws of check_interlacing at seed 3, each solved in
    full, call the line 4936 times, 24.68 per solve. Refining each root
    from the line's zero itself, before the Newton step from it, took 6153
    (30.77 per solve); the step makes no line call of its own."""
    calls, log_deriv = [0], spectrum.line_log_deriv

    def counted(lam, length):
        calls[0] += 1
        return log_deriv(lam, length)

    monkeypatch.setattr(spectrum, "line_log_deriv", counted)
    uniform = _uniform_draws(3)
    for _ in range(200):
        dev, spec = _draw(uniform, SUBSPACES["settled ground state"])[:2]
        solve_spectrum(dev.length, transmon_boundary(spec, dev))
    assert calls[0] == 4936


# Frozen measurements. Bands are generous (15-25%) because the quantities
# are physical margins, not tolerances; a band violation means the solver
# or the boundary construction changed behavior, not that physics drifted.


def _rabi_rel_diff(ratio):
    wr = STANDARD_DEVICE.fundamental_frequency
    g = ratio * wr
    gap = vacuum_rabi_gap(STANDARD_DEVICE, replace(STANDARD_QUBIT, coupling=g))
    return abs(gap - 2.0 * g) / (2.0 * g)


def test_regression_rabi_deviation_weak_coupling():
    # was 7.4517e-05 when frozen
    assert 6.3e-5 < _rabi_rel_diff(0.01) < 8.6e-5


def test_regression_rabi_deviation_strong_coupling():
    # was 1.7618e-02 when frozen
    assert 1.5e-2 < _rabi_rel_diff(0.15) < 2.0e-2


# gap/2g = 1 + C2 r^2 + C4 r^4 + C6 r^6 + C8 r^8 + ..., r = g/omega_1
# (test_rabi_splitting_follows_the_residue_series)
RABI_C2 = 37 / 32 - math.pi ** 2 / 24
RABI_C4 = 10087 / 2048 - 275 * math.pi ** 2 / 768 + 11 * math.pi ** 4 / 5760
RABI_C6 = (1871133 / 65536 - 49161 * math.pi ** 2 / 16384 + 3577 * math.pi ** 4 / 61440
           - 17 * math.pi ** 6 / 322560)
RABI_C8 = (1600905163 / 8388608 - 13675805 * math.pi ** 2 / 524288
           + 1178837 * math.pi ** 4 / 1310720 - 1781 * math.pi ** 6 / 294912
           - 281 * math.pi ** 8 / 154828800)


@pytest.mark.parametrize("r", [1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.15])
def test_rabi_splitting_follows_the_residue_series(r):
    """The exact splitting of a levels-2 ground-state qubit at the
    fundamental, on STANDARD_DEVICE, against the series of the paper's
    residue delta = 2 L g^2 omega_q^2 / v^4: |gap/2g - 1 - C2 r^2 - C4 r^4|
    <= C6 r^6 + 2 C8 r^8 + 4 eps/r.

    The series. The c_k depend on neither L nor v; take L = 1, so
    omega_1 = v pi/2, the pole sits at mu_1 = (pi/2)^2 and
    delta = 2 g^2 omega_1^2 / v^4 = r^2 pi^4 / 8. With sqrt(lam) = pi/2 + e,
    G = sqrt(lam) cot sqrt(lam) = -sqrt(lam) tan e and
    lam - mu_1 = e (pi + e), so H = G - delta/(mu_1 - lam) = 0 reads
    e^2 phi(e) = r^2 pi^4 / 8, phi(e) = (pi + e)(pi/2 + e) tan(e)/e,
    phi(0) = pi^2/2: e sqrt(phi(e)/phi(0)) = +-t, t = pi r/2. Lagrange
    inversion gives the root e(t) = sum_n t^n/n [e^(n-1)] (phi(0)/phi(e))^(n/2),
    the branches lie at +-t, the gap is v (e(t) - e(-t)) and 2g = pi r v,
    so gap/2g = 2 odd(e)(t) / (pi r): c_(n-1) = 2^(1-n) pi^(n-1) [t^n] e
    for odd n. In exact rational arithmetic in pi this gives C2 ... C8
    above and c_10 = 54.909; the leading term e = t is the 2g matching.

    The bound. Through c_10 the c_k grow by under 3.7 an order
    (C6/C4 = 2.89, C8/C6 = 3.33, c_10/C8 = 3.62); at that ratio onward the
    terms past r^6 sum to under 2 C8 r^8 wherever 3.7 r^2 <= 1/2,
    r <= 0.37. Each branch's lam is refined to a few ulp, so its
    omega = v sqrt(lam) is good to about 2 eps omega_1, and the gap,
    2 r omega_1, to about 2 eps/r relative: the floor is twice that. A
    residue off by 1e-9 relative moves gap/2g by 5e-10, past the bound at
    r <= 1e-2."""
    g = r * STANDARD_DEVICE.fundamental_frequency
    gap = vacuum_rabi_gap(STANDARD_DEVICE, replace(STANDARD_QUBIT, coupling=g))
    residual = gap / (2.0 * g) - 1.0 - RABI_C2 * r ** 2 - RABI_C4 * r ** 4
    eps = math.ulp(1.0)
    assert abs(residual) <= RABI_C6 * r ** 6 + 2.0 * RABI_C8 * r ** 8 + 4.0 * eps / r, residual


def test_regression_boundary_form_disagreement():
    # was 1.4141e-06 when frozen
    dev = STANDARD_DEVICE
    v = dev.phase_velocity
    wr = dev.fundamental_frequency
    b_rat = transmon_boundary(STANDARD_QUBIT, dev)
    b_full = FullSusceptanceBoundary.from_rational(
        b_rat, dev.inductance_per_length, v, omega_to_lambda(wr, v)
    )
    near_rat = [f for f in solve_spectrum(dev.length, b_rat).frequencies(v) if abs(f - wr) <= 0.05 * wr]
    near_full = [f for f in solve_spectrum(dev.length, b_full.rational).frequencies(v) if abs(f - wr) <= 0.05 * wr]
    assert len(near_rat) == len(near_full) == 1
    worst = max(abs(a - b) / abs(a) for a, b in zip(near_rat, near_full))
    assert 1.2e-6 < worst < 1.7e-6


def test_regression_additivity_deviation():
    # was 1.3454e-04 GHz when frozen
    q2 = TransmonSpec(
        state="g", frequency=8.6 * GHZ, anharmonicity=-0.22 * GHZ, coupling=0.12 * GHZ
    )
    rep = additivity_report(STANDARD_DEVICE, STANDARD_QUBIT, q2)
    assert 1.0e-4 < rep.max_abs_deviation / GHZ < 1.7e-4
