"""Bit pin of the solver on a fixed seeded set of solves.

Each draw's outcome is stored as a short sha256 of its exact bits (every
record's floats and refiner evaluation count, the counts and the
interlacing flags), or of its exception's type and message, together with
the number of `spectrum.line_log_deriv` calls the draw made. A change meant
to keep results must leave every entry of `solver_pin.json` as it is. A
change meant to alter them rewrites the file, from the root of a checkout:

    PYTHONPATH=src python tests/test_solver_pin.py > tests/solver_pin.json
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
from test_spectrum import LENGTH, _bits, _excited, _random_boundary

PIN = Path(__file__).with_name("solver_pin.json")
BOUNDARY_DRAWS = 300
# test_spectrum._merge_coupling(): the root pair of _excited merges here
MERGE_COUPLING_GHZ = 0.2456374403733215
SWEEP_DEVICES = 4
SWEEP_POINTS = 21
# sweeps of the spec branches the draws above leave out, drawn after them
BRANCH_SWEEP_DEVICES = 3


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
    """One draw from the space of test_spectrum.RANDOM_BOUNDARY: 1-3 poles,
    residues of either sign, beta up to 2L/3 or exactly (1 - 1e-9) L/3."""
    locations = [rng.uniform(0.05, 5.5) for _ in range(rng.randint(1, 3))]
    strengths = [rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 2.0) for _ in range(3)]
    beta_frac = 1.0 - 1e-9 if rng.random() < 0.2 else rng.uniform(0.0, 2.0)
    return _random_boundary(locations, strengths, beta_frac, rng.uniform(0.0, 500.0))


def _sweep_device(rng):
    """(device, alpha, g, grid) of one pinned sweep: 21 points over
    +-5% of the fundamental."""
    dev = DeviceParams(
        length=rng.uniform(2e-3, 8e-3), phase_velocity=rng.uniform(0.8e8, 1.6e8),
        impedance=50.0,
    )
    w1 = dev.fundamental_frequency
    alpha = rng.uniform(-0.3, -0.1) * GHZ
    g = math.exp(rng.uniform(math.log(1e-4), math.log(0.2))) * GHZ
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
    rng = random.Random(20261018)
    lam_max = default_lam_max(LENGTH)
    for label, bnd in _error_boundaries():
        for near in (None, 0.5 * lam_max):
            yield f"{label} near={near}", lambda b=bnd, x=near: _spectrum_bits(
                solve_spectrum(LENGTH, b, near=x)
            )
    for i in range(BOUNDARY_DRAWS):
        bnd = _boundary_draw(rng)
        near = rng.uniform(0.0, 1.0) * lam_max
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
        c_j = rng.uniform(1e-15, 2e-14)
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
    """{name: [digest, line_log_deriv calls]} of every pinned draw."""
    calls = [0]
    log_deriv = spectrum.line_log_deriv

    def counted(lam, length):
        calls[0] += 1
        return log_deriv(lam, length)

    spectrum.line_log_deriv = counted
    try:
        out = {}
        for name, thunk in _cases():
            calls[0] = 0
            out[name] = [_digest(_bits_or_error(thunk)), calls[0]]
        return out
    finally:
        spectrum.line_log_deriv = log_deriv


def test_solver_bits_and_evaluation_counts_are_pinned():
    expected = json.loads(PIN.read_text())
    seen = observe()
    assert list(seen) == list(expected), "the set of pinned draws changed"
    for name, pinned in expected.items():
        assert seen[name] == pinned, f"{name}: [digest, log_deriv calls] moved"


if __name__ == "__main__":
    lines = (f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in observe().items())
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
