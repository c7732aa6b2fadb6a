"""Release gate: every advertised property checked at desk scale.

Each check returns a CriterionResult; run_all executes the lot in order.
The CLI validate subcommand and the acceptance test module both call into
this file so there is exactly one implementation of the gate.

Measured discrepancies (Rabi gap, boundary-form disagreement) are reported
in the detail strings so they can be frozen as regression values.

Importing this module loads only what its module body runs: each
criterion imports the solver layers it calls (boundary, spectrum,
dispersive, jc, multiqubit) once per call, never once per draw, so
importing the gate solves nothing and loads none of them. The exception
is resonator: check_derivative_identity calls line_log_deriv through this
module's own binding, and the benchmark tracer counts kernel calls by
rebinding that name here, which a call-time import from resonator would
bypass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, combinations

from .multimode import MultimodeModel, divergence_report
from .params import GHZ, DeviceParams, TransmonSpec, omega_to_lambda
# bound here, not at call time: check_derivative_identity calls the line
# through these names, and so do the kernel counters bench/tracing.py sets
from .resonator import (
    default_lam_max, dirichlet_poles, line_log_deriv, line_log_deriv_dlam, quarterwave_zeros,
)
from .wedge import (
    WedgeGeometry,
    azimuthal_wavenumber,
    derivative_wall_values,
    orthogonality_error,
)

# reference device: 3 mm line, v = 1.2e8 m/s, 50 ohm => 10 GHz fundamental
STANDARD_DEVICE = DeviceParams(length=3e-3, phase_velocity=1.2e8, impedance=50.0)
STANDARD_QUBIT = TransmonSpec(
    state="g",
    frequency=9.0 * GHZ,
    anharmonicity=-0.25 * GHZ,
    coupling=0.1 * GHZ,
)

# additivity of two-qubit pulls holds to the pulls' product over the mode
# scale; the softer chi^2-over-detuning bound below has ~6x headroom on
# the measured deviation at reference parameters (1.35e-4 GHz)
ADDITIVITY_CONST = 50.0
INTERLACING_CONFIGS = 1000    # random ground-state devices of the interlacing criterion
TRIANGLE_DRAWS = 50           # random dispersive devices of the chi triangle
UNIFORM_BLOCK = 256           # numbers a random criterion reads from its generator at once


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail=""):
    return CriterionResult(name=name, passed=bool(passed), detail=detail)


def _uniform_draws(seed: int):
    """uniform(lo, hi): call for call, the numbers rng.uniform(lo, hi) gives
    for rng = np.random.default_rng(seed), bit for bit. Each u is read from
    rng.random in blocks of UNIFORM_BLOCK, and uniform returns
    lo + (hi - lo) * u, numpy's own expression for a uniform draw, without
    a scalar numpy call per number."""
    import numpy as np

    rng = np.random.default_rng(seed)
    units = chain.from_iterable(iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None))
    return lambda lo, hi: lo + (hi - lo) * next(units)


def _lobe_root(lobe: int, target: float) -> float:
    """xi in (lobe pi, (lobe + 1) pi) where xi cot xi = target, by plain
    bisection: xi cot xi falls from 1 (lobe 0) or +inf to -inf across it."""
    lo, hi = lobe * math.pi, (lobe + 1) * math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if mid / math.tan(mid) > target:
            lo = mid
        else:
            hi = mid


def check_open_circuit() -> CriterionResult:
    """First five eigenvalues with no termination = bare quarter-wave values,
    and with a constant gamma = 1/L, where refinement starts off each root,
    = a bisection of xi cot xi = -gamma L in each lobe."""
    from .boundary import RationalBoundary
    from .spectrum import solve_spectrum

    length = STANDARD_DEVICE.length
    sp = solve_spectrum(length, RationalBoundary(beta=0.0, gamma=0.0, poles=()))
    expected = quarterwave_zeros(length, 5)
    worst = 0.0
    for lam, ref in zip(sp.eigenvalues[:5], expected):
        worst = max(worst, abs(lam - ref) / ref)
    gamma = 1.0 / length
    shifted = solve_spectrum(length, RationalBoundary(beta=0.0, gamma=gamma, poles=()))
    worst_gamma = 0.0
    for lobe, lam in enumerate(shifted.eigenvalues[:5]):
        ref = (_lobe_root(lobe, -gamma * length) / length) ** 2
        worst_gamma = max(worst_gamma, abs(lam - ref) / ref)
    return _result(
        "open-circuit reduction",
        len(sp.eigenvalues) >= 5 and len(shifted.eigenvalues) >= 5
        and max(worst, worst_gamma) <= 1e-10,
        f"worst relative error {worst:.3e} over first 5 modes; gamma = 1/L: "
        f"{worst_gamma:.3e} against bisection of xi cot xi = -gamma L (tol 1e-10)",
    )


def check_derivative_identity(seed: int) -> CriterionResult:
    """dG/dlam equals -L/2 at the quarter-wave zeros, and matches finite
    differences at random off-pole points."""
    length = STANDARD_DEVICE.length
    worst_zero = max(
        abs(line_log_deriv_dlam(z, length) + length / 2.0) / (length / 2.0)
        for z in quarterwave_zeros(length, 5)
    )

    uniform = _uniform_draws(seed)
    lam_hi = default_lam_max(length) * 0.98
    poles = dirichlet_poles(length, 6)
    worst_fd = 0.0
    # truncation-limited: relative error ~ h_rel^2 / (6 d^2) near the
    # rejection band d = 1e-3, so this step keeps ~10x margin on 1e-6
    h_rel = 3e-7
    n = 0
    while n < 1000:
        lam = uniform(1e3, lam_hi)
        if any(abs(lam - p) < 1e-3 * p for p in poles):
            continue
        n += 1
        h = h_rel * lam
        fd = (line_log_deriv(lam + h, length) - line_log_deriv(lam - h, length)) / (2.0 * h)
        exact = line_log_deriv_dlam(lam, length)
        worst_fd = max(worst_fd, abs(fd - exact) / abs(exact))
    passed = worst_zero <= 1e-12 and worst_fd <= 1e-6
    return _result(
        "derivative identity",
        passed,
        f"zeros: worst {worst_zero:.3e} (tol 1e-12); "
        f"finite differences: worst {worst_fd:.3e} over 1000 points (tol 1e-6)",
    )


def _random_ground_config(uniform, line_partition):
    """A solvable ground-state draw from a _uniform_draws stream: geometry,
    qubit, boundary. `line_partition` is spectrum._line_partition, passed in
    by the criterion so that a draw runs no import statement."""
    length = uniform(2e-3, 8e-3)
    v = uniform(0.8e8, 1.6e8)
    dev = DeviceParams(length=length, phase_velocity=v, impedance=50.0)
    _, guards, _ = line_partition(length)
    while True:
        omega_q = uniform(0.1, 5.8) * dev.fundamental_frequency
        # redraw exactly what solve_spectrum rejects with PoleCollisionError,
        # by its own (Dirichlet pole, tolerance) guards
        lam_q = omega_to_lambda(omega_q, v)
        if not any(abs(lam_q - d) < tol for d, tol in guards):
            break
    g = uniform(0.01, 0.2) * GHZ
    spec = TransmonSpec(
        state="g", frequency=omega_q, anharmonicity=-0.25 * GHZ, coupling=g
    )
    return dev, spec


def check_interlacing(seed: int) -> CriterionResult:
    """Random ground-state draws: one eigenvalue per pole-bounded interval."""
    from .boundary import transmon_boundary
    from .spectrum import _line_partition, solve_spectrum

    uniform = _uniform_draws(seed)
    failures = 0
    solved = 0
    for _ in range(INTERLACING_CONFIGS):
        dev, spec = _random_ground_config(uniform, _line_partition)
        bnd = transmon_boundary(spec, dev)
        try:
            sp = solve_spectrum(dev.length, bnd)
        except Exception:
            failures += 1
            continue
        solved += 1
        if not all(flag is None or flag for flag in sp.interlacing):
            failures += 1
    return _result(
        "interlacing",
        failures == 0,
        f"{solved}/{INTERLACING_CONFIGS} configurations solved, {failures} interlacing failures",
    )


def check_level_repulsion(seed: int) -> CriterionResult:
    """Eigenvalues never land on poles; the crossing gap never closes."""
    import numpy as np

    from .boundary import transmon_boundary
    from .spectrum import _line_partition, pole_margin, qubit_frequency_sweep, solve_spectrum

    uniform = _uniform_draws(seed)
    min_margin = math.inf
    for _ in range(200):
        dev, spec = _random_ground_config(uniform, _line_partition)
        sp = solve_spectrum(dev.length, transmon_boundary(spec, dev))
        min_margin = min(min_margin, pole_margin(sp))

    omega_r = STANDARD_DEVICE.fundamental_frequency
    grid = np.linspace(0.9 * omega_r, 1.1 * omega_r, 41)
    sweep = qubit_frequency_sweep(STANDARD_DEVICE, STANDARD_QUBIT, [float(w) for w in grid])
    min_gap = min(sweep.gap)
    passed = min_margin > 0.0 and min_gap > 0.0
    return _result(
        "level repulsion",
        passed,
        f"min eigenvalue-pole relative margin {min_margin:.3e}; "
        f"min crossing gap {min_gap / GHZ:.6f} GHz over 41 points",
    )


def check_vacuum_rabi() -> CriterionResult:
    """Resonant splitting equals 2g, tighter the weaker the coupling."""
    from .spectrum import vacuum_rabi_gap

    omega_r = STANDARD_DEVICE.fundamental_frequency
    details = []
    passed = True
    for ratio, tol in ((0.01, 0.005), (0.15, 0.05)):
        g = ratio * omega_r
        gap = vacuum_rabi_gap(STANDARD_DEVICE, replace(STANDARD_QUBIT, coupling=g))
        rel = abs(gap - 2.0 * g) / (2.0 * g)
        passed = passed and rel <= tol
        details.append(f"g/omega_r={ratio}: |gap-2g|/2g = {rel:.6e} (tol {tol})")
    return _result("vacuum Rabi matching", passed, "; ".join(details))


def check_dispersive_triangle(seed: int) -> CriterionResult:
    """Closed form, exact solve, and ladder-diagonalization chi agree. The
    closed form carries the boundary model's counter-rotating term, which
    the exact solve has and the JC ladder, in the rotating wave, has not."""
    from .dispersive import counter_rotating_shift, dispersive_shift, dispersive_shift_exact
    from .jc import JCModel, dispersive_shift_numeric

    uniform = _uniform_draws(seed)
    dev = STANDARD_DEVICE
    omega_r = dev.fundamental_frequency
    worst = 0.0
    failures = 0
    for _ in range(TRIANGLE_DRAWS):
        delta = uniform(-2.0, -0.4) * GHZ
        alpha = uniform(-0.3, -0.1) * GHZ
        g = uniform(0.02, 0.1) * abs(delta)
        spec = TransmonSpec(
            state="g", frequency=omega_r + delta, anharmonicity=alpha, coupling=g
        )
        chi_cf = dispersive_shift(g, delta, alpha) + counter_rotating_shift(
            g, spec.frequency + omega_r, alpha
        )
        chi_sl, _, _ = dispersive_shift_exact(dev, spec, levels=3)
        chi_jc = dispersive_shift_numeric(
            JCModel(
                omega_r=omega_r,
                omega_q=omega_r + delta,
                g=g,
                alpha=alpha,
                levels=3,
                n_max=10,
            )
        )
        tol = max(0.02, 5.0 * (g / delta) ** 2)
        for a, b in combinations((chi_cf, chi_sl, chi_jc), 2):
            rel = abs(a - b) / max(abs(a), abs(b))
            worst = max(worst, rel / tol)
            if rel > tol:
                failures += 1
    return _result(
        "dispersive-shift triangle",
        failures == 0,
        f"{TRIANGLE_DRAWS} draws, worst pairwise error at {worst:.3f} of tolerance",
    )


def check_multimode_divergences() -> CriterionResult:
    """Lamb sum grows linearly in the cutoff, chi sum logarithmically."""
    model = MultimodeModel(
        omega_1=STANDARD_DEVICE.fundamental_frequency,
        g_1=0.1 * GHZ,
        omega_q=9.0 * GHZ,
        alpha=-0.25 * GHZ,
    )
    rep = divergence_report(model)
    passed = rep.lamb_r_squared > 0.999 and rep.chi_increment_spread <= 0.10
    return _result(
        "multimode divergences",
        passed,
        f"Lamb linear fit R^2 = {rep.lamb_r_squared:.6f} (need > 0.999); "
        f"chi doubling-increment spread {rep.chi_increment_spread:.3f} (need <= 0.10)",
    )


def check_two_qubit_structure() -> CriterionResult:
    """Matched shifts degenerate the odd manifold; pulls add; QND holds."""
    from .dispersive import pulled_frequencies
    from .multiqubit import (
        _additivity_from,
        _model_from_pulls,
        parity_report,
        qnd_residual,
        state_frequencies,
    )

    dev = STANDARD_DEVICE
    q1 = STANDARD_QUBIT
    q2 = TransmonSpec(
        state="g", frequency=8.6 * GHZ, anharmonicity=-0.22 * GHZ, coupling=0.12 * GHZ
    )

    # each qubit solved once in g and e, then the four joint states: every
    # report below is built from these 8 solves
    omega_r = dev.fundamental_frequency
    pulled_1 = pulled_frequencies(dev, (q1,), 3)
    pulled_2 = pulled_frequencies(dev, (q2,), 3)
    matched = _model_from_pulls(omega_r, (pulled_1, pulled_1))
    rep = parity_report(matched)
    chi = matched.chi_1
    # both equalities are bitwise, not approximate
    exact_gaps = rep.odd_gap == 0.0 and rep.even_gap == abs(4.0 * chi)

    comm_norm, h_norm = qnd_residual(replace(matched, chi_2=0.7 * matched.chi_2), 10)
    qnd = comm_norm <= 1e-14 * h_norm

    add = _additivity_from(
        state_frequencies(_model_from_pulls(omega_r, (pulled_1, pulled_2))),
        pulled_frequencies(dev, (q1, q2), 3),
    )
    scale = (abs(matched.chi_1) + abs(matched.chi_2)) ** 2
    dmin = min(
        abs(q1.frequency - omega_r),
        abs(q1.ef_frequency - omega_r),
        abs(q2.frequency - omega_r),
        abs(q2.ef_frequency - omega_r),
    )
    tol = ADDITIVITY_CONST * scale / dmin
    additive_ok = add.max_abs_deviation <= tol
    passed = exact_gaps and qnd and additive_ok
    return _result(
        "two-qubit structure",
        passed,
        f"matched: odd gap {rep.odd_gap}, even gap = 4|chi|: {rep.even_gap == abs(4.0 * chi)}; "
        f"QND commutator {comm_norm:.1e} vs 1e-14*|H| = {1e-14 * h_norm:.1e}; "
        f"additivity deviation {add.max_abs_deviation / GHZ:.3e} GHz (tol {tol / GHZ:.3e})",
    )


def check_commutator_algebra() -> CriterionResult:
    """QND algebra of the readout interaction at 5 photons."""
    from .multiqubit import single_qubit_commutators

    norms = single_qubit_commutators(chi=2.0 * math.pi * 3e6, n_max=5)
    passed = norms["with_sz"] == 0.0 and norms["sx_identity_residual"] == 0.0
    return _result(
        "commutator algebra",
        passed,
        f"[H_int, sz] = {norms['with_sz']}, sx identity residual = "
        f"{norms['sx_identity_residual']}, [H_int, sx] = {norms['with_sx']:.3e}",
    )


def check_approximation_audit() -> CriterionResult:
    """Pole-form and full-susceptance boundaries agree near the fundamental."""
    from .boundary import FullSusceptanceBoundary, transmon_boundary
    from .spectrum import solve_spectrum

    dev = STANDARD_DEVICE
    v = dev.phase_velocity
    omega_r = dev.fundamental_frequency
    lam_ref = omega_to_lambda(omega_r, v)
    b_rat = transmon_boundary(STANDARD_QUBIT, dev)
    b_full = FullSusceptanceBoundary.from_rational(
        b_rat, dev.inductance_per_length, v, lam_ref
    )
    freqs_rat = solve_spectrum(dev.length, b_rat).frequencies(v)
    freqs_full = solve_spectrum(dev.length, b_full.rational).frequencies(v)
    window_rat = [f for f in freqs_rat if abs(f - omega_r) <= 0.05 * omega_r]
    window_full = [f for f in freqs_full if abs(f - omega_r) <= 0.05 * omega_r]
    if len(window_rat) != len(window_full) or not window_rat:
        return _result(
            "approximation audit",
            False,
            f"mode count mismatch near the fundamental: "
            f"{len(window_rat)} vs {len(window_full)}",
        )
    worst = max(
        abs(a - b) / abs(a) for a, b in zip(sorted(window_rat), sorted(window_full))
    )
    return _result(
        "approximation audit",
        worst <= 0.01,
        f"{len(window_rat)} dressed mode(s) within 5% of the fundamental; "
        f"worst relative disagreement {worst:.3e} (tol 1e-2)",
    )


def check_wedge() -> CriterionResult:
    """Wavenumber quantization, mode orthogonality, wall derivative value."""
    geom = WedgeGeometry(angle=1.3)
    exact_mu = all(
        azimuthal_wavenumber(n, geom) == n * math.pi / geom.angle for n in range(1, 8)
    )
    worst_overlap = orthogonality_error(geom, 4)
    wall0, _ = derivative_wall_values(3, geom)
    passed = exact_mu and worst_overlap <= 1e-9 and wall0 == 1.0
    return _result(
        "wedge",
        passed,
        f"mu_n exact: {exact_mu}; worst overlap error {worst_overlap:.3e} "
        f"(tol 1e-9); angular-derivative value at the wall = {wall0}",
    )


ALL_CHECKS = (
    ("open-circuit", lambda seed: check_open_circuit()),
    ("derivative", lambda seed: check_derivative_identity(seed)),
    ("interlacing", lambda seed: check_interlacing(seed)),
    ("repulsion", lambda seed: check_level_repulsion(seed + 1)),
    ("rabi", lambda seed: check_vacuum_rabi()),
    ("chi-triangle", lambda seed: check_dispersive_triangle(seed + 2)),
    ("multimode", lambda seed: check_multimode_divergences()),
    ("two-qubit", lambda seed: check_two_qubit_structure()),
    ("commutators", lambda seed: check_commutator_algebra()),
    ("boundary-forms", lambda seed: check_approximation_audit()),
    ("wedge", lambda seed: check_wedge()),
)


def run_all(only: str | None = None, seed: int = 0) -> list[CriterionResult]:
    results = []
    for key, fn in ALL_CHECKS:
        if only is not None and only != key:
            continue
        results.append(fn(seed))
    if only is not None and not results:
        raise ValueError(f"no criterion named {only!r}")
    return results
