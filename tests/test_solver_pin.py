"""Bit pin of the solver on a fixed seeded set of solves.

Each draw's outcome is stored as a short sha256 of its exact bits (every
record's floats and refiner evaluation count, the counts and the
interlacing flags), or of its exception's type and message, together with
the number of `spectrum.line_log_deriv` calls the draw made, the number
of slope-bound calls (`spectrum._slope_bounds`) its isolation made, and the
number of cleared functions it set up (calls of the `on` that
`spectrum._cleared_secular` returns). The evaluation count misses the cost
of isolation's cells, so the second count shows it: a solve with no
emission pole and -s < L/3 settles every interval without a slope bound
(`solve_spectrum`), so there it counts none. The third count shows that
an interval's cleared function is set up only when it is first used. A
change meant to keep results must leave every entry of `solver_pin.json`
as it is, and a failure names the columns that moved. A change meant to
alter them rewrites the file, from the root of a checkout:

    PYTHONPATH=src python tests/test_solver_pin.py > tests/solver_pin.json

A rewritten pin holds whatever the solver then returns. What bounds it is
the truth check of test_solver_roots.py: the roots of 33 of its boundary
draws and of the first, middle and last solve of each of its sweeps lie
within their stopping width and rounding floor of their 50-digit roots,
which no rewrite moves.
"""
import hashlib
import json
import math
import random
import sys
from pathlib import Path

from dressed_modes import (
    GHZ,
    BoundaryPole,
    DeviceParams,
    RationalBoundary,
    SolverError,
    TransmonSpec,
    charge_from_coupling,
    default_lam_max,
    dirichlet_poles,
    qubit_frequency_sweep,
    solve_spectrum,
)
from dressed_modes import spectrum
from dressed_modes.acceptance import SPACE
from input_space import BETA_EDGE, MIXED_LOCATIONS, PIN_GAMMA, PIN_JUNCTION, POLES, STRENGTHS, random_boundary
from test_spectrum import LENGTH, _bits, _excited

PIN = Path(__file__).with_name("solver_pin.json")
PIN_SEED = 20261018
BOUNDARY_DRAWS = 300
# test_spectrum._merge_coupling(): the root pair of _excited merges here
MERGE_COUPLING_GHZ = 0.2456374403733215
SWEEP_DEVICES = 4
SWEEP_POINTS = 21
# sweeps of the spec branches the draws above leave out, drawn after them
BRANCH_SWEEP_DEVICES = 3
# an entry's columns, in order
COLUMNS = ("digest", "log_deriv calls", "slope-bound calls", "set-ups")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _bits_or_error(fn):
    """fn()'s exact bits, or its exception's type and message."""
    try:
        return fn()
    except (SolverError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _spectrum_bits(sp):
    return [_bits(r) for r in sp.records], sp.counts, sp.interlacing


def _sweep_bits(sweep):
    return [x.hex() for x in sweep.lower], [x.hex() for x in sweep.upper]


def _boundary_draw(rng):
    """One draw from the space of input_space.RANDOM_BOUNDARY, gamma in
    PIN_GAMMA: 1-3 poles, residues of either sign, beta up to 2L/3 or
    exactly BETA_EDGE L/3."""
    locations = [rng.uniform(*MIXED_LOCATIONS) for _ in range(rng.randint(*POLES))]
    strengths = [rng.choice((-1.0, 1.0)) * rng.uniform(*STRENGTHS) for _ in range(POLES[1])]
    beta_frac = BETA_EDGE if rng.random() < 0.2 else rng.uniform(*SPACE["beta"])
    return random_boundary(locations, strengths, beta_frac, rng.uniform(*PIN_GAMMA))


def _pin_boundaries(rng=None):
    """(boundary, near) of each of the pin's BOUNDARY_DRAWS random draws, in
    order: a _boundary_draw, None where it is refused, then near in
    [0, lam_max). rng is the pin's, random.Random(PIN_SEED) when not given."""
    rng = random.Random(PIN_SEED) if rng is None else rng
    lam_max = default_lam_max(LENGTH)
    for _ in range(BOUNDARY_DRAWS):
        bnd = _boundary_draw(rng)
        yield bnd, rng.uniform(0.0, 1.0) * lam_max


def _sweep_device(rng):
    """(device, alpha, g, grid) of one pinned sweep: 21 points over
    +-5% of the fundamental, g log-uniform over SPACE's coupling axis."""
    dev = DeviceParams(
        length=rng.uniform(*SPACE["length"]), phase_velocity=rng.uniform(*SPACE["velocity"]),
        impedance=50.0,
    )
    w1 = dev.fundamental_frequency
    alpha = rng.uniform(*SPACE["alpha"]) * GHZ
    g = math.exp(rng.uniform(*map(math.log, SPACE["coupling"]))) * GHZ
    grid = [w1 * (0.95 + 0.1 * k / (SWEEP_POINTS - 1)) for k in range(SWEEP_POINTS)]
    return dev, alpha, g, grid


def _error_boundaries():
    """Boundaries every solve of which raises, one per kind of error."""
    lam_max = default_lam_max(LENGTH)
    d2 = dirichlet_poles(LENGTH, 2)[1]
    yield "merge+1e-9", _excited(MERGE_COUPLING_GHZ * (1.0 + 1e-9))
    yield "merge-1e-9", _excited(MERGE_COUPLING_GHZ * (1.0 - 1e-9))
    yield "pole at lam_max", RationalBoundary(poles=(BoundaryPole(lam_max, 1e3),))
    yield "pole on k=2", RationalBoundary(poles=(BoundaryPole(d2 * (1.0 + 1e-7), 1e3),))


def _cases():
    """(name, thunk) of every pinned draw, in a fixed order."""
    rng = random.Random(PIN_SEED)
    for label, bnd in _error_boundaries():
        for near in (None, 0.5 * default_lam_max(LENGTH)):
            yield f"{label} near={near}", lambda b=bnd, x=near: _spectrum_bits(
                solve_spectrum(LENGTH, b, near=x)
            )
    for i, (bnd, near) in enumerate(_pin_boundaries(rng)):
        if bnd is None:
            continue
        yield f"boundary[{i}] full", lambda b=bnd: _spectrum_bits(solve_spectrum(LENGTH, b))
        yield f"boundary[{i}] near", lambda b=bnd, x=near: _spectrum_bits(
            solve_spectrum(LENGTH, b, near=x)
        )
    for i in range(SWEEP_DEVICES):
        dev, alpha, g, grid = _sweep_device(rng)
        for state, levels in (("g", 2), ("e", 3)):
            spec = TransmonSpec(state=state, frequency=dev.fundamental_frequency,
                                anharmonicity=alpha, coupling=g)
            yield f"sweep[{i}] {state} levels={levels}", lambda d=dev, s=spec, w=grid, n=levels: (
                _sweep_bits(qubit_frequency_sweep(d, s, w, levels=n))
            )
    # a charge element in place of g, a junction capacitance, and e at levels 2
    for i in range(SWEEP_DEVICES, SWEEP_DEVICES + BRANCH_SWEEP_DEVICES):
        dev, alpha, g, grid = _sweep_device(rng)
        charge = charge_from_coupling(g, dev.fundamental_frequency, dev)
        c_j = rng.uniform(*PIN_JUNCTION)
        for label, state, levels, kw in (
            ("charge", "g", 2, {"charge_element": charge}),
            ("cj", "g", 2, {"coupling": g, "junction_capacitance": c_j}),
            ("coupling", "e", 2, {"coupling": g}),
            ("charge cj", "e", 3, {"charge_element": charge, "junction_capacitance": c_j}),
        ):
            spec = TransmonSpec(state=state, frequency=dev.fundamental_frequency,
                                anharmonicity=alpha, **kw)
            yield f"sweep[{i}] {state} levels={levels} {label}", (
                lambda d=dev, s=spec, w=grid, n=levels: (
                    _sweep_bits(qubit_frequency_sweep(d, s, w, levels=n))
                )
            )


def observe():
    """{name: [digest, line_log_deriv calls, slope-bound calls, set-ups]}
    of every pinned draw."""
    calls = [0, 0, 0]
    log_deriv, slope_bounds = spectrum.line_log_deriv, spectrum._slope_bounds
    cleared_secular = spectrum._cleared_secular

    def counted(lam, length):
        calls[0] += 1
        return log_deriv(lam, length)

    def counted_bounds(length, b):
        bounds = slope_bounds(length, b)

        def counted_cell(x0, x1, lobe):
            calls[1] += 1
            return bounds(x0, x1, lobe)

        return counted_cell

    def counted_secular(length, b):
        on = cleared_secular(length, b)

        def counted_on(lo, hi, lobe):
            calls[2] += 1
            return on(lo, hi, lobe)

        return counted_on

    spectrum.line_log_deriv, spectrum._slope_bounds = counted, counted_bounds
    spectrum._cleared_secular = counted_secular
    try:
        out = {}
        for name, thunk in _cases():
            calls[:] = 0, 0, 0
            out[name] = [_digest(_bits_or_error(thunk)), *calls]
        return out
    finally:
        spectrum.line_log_deriv, spectrum._slope_bounds = log_deriv, slope_bounds
        spectrum._cleared_secular = cleared_secular


def test_solver_bits_and_evaluation_counts_are_pinned():
    expected = json.loads(PIN.read_text())
    seen = observe()
    assert list(seen) == list(expected), "the set of pinned draws changed"
    for name, pinned in expected.items():
        moved = [col for col, got, want in zip(COLUMNS, seen[name], pinned) if got != want]
        assert not moved, f"{name}: {', '.join(moved)} moved, {pinned} -> {seen[name]}"


if __name__ == "__main__":
    lines = (f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in observe().items())
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
