"""The valid input space reaches the solver's guards.

Draws from the full space (acceptance.SPACE and CHOICES, input_space's
raw-boundary axes) placed within a factor 1 + EDGE_REACH of a guard's edge
land on both sides of it: the one the solver accepts and the one it
refuses. Each refused draw raises the error type of the guard it hit, and
the one admissibility rule, acceptance._refused, refuses exactly the
boundaries solve_spectrum or RationalBoundary refuses.
"""
import random
from dataclasses import replace

import pytest

from dressed_modes import (
    GHZ,
    BoundaryPole,
    PoleCollisionError,
    RationalBoundary,
    SolverError,
    charge_from_coupling,
    dirichlet_poles,
    dispersive_report,
    lambda_to_omega,
    omega_to_lambda,
    solve_spectrum,
    sum_boundaries,
    transmon_boundary,
)
from dressed_modes import spectrum
from dressed_modes.acceptance import CHOICES, SPACE, STANDARD_DEVICE, SUBSPACES, _draw, _refused
from dressed_modes.boundary import POLE_GUARD_REL, _LOCATION_FLOOR, _tuned_transmon
from dressed_modes.dispersive import RESONANCE_GUARD_REL
from dressed_modes.spectrum import DIRICHLET_COLLISION_REL
from input_space import GAMMA, LAM_1, LENGTH, LOCATIONS, MIXED_LOCATIONS, PIN_GAMMA, UNIT

EDGE_REACH = 1e-3
DRAWS = 60


def _factor(rng):
    """A factor within 1 + EDGE_REACH of 1, on either side."""
    return rng.uniform(1.0 / (1.0 + EDGE_REACH), 1.0 + EDGE_REACH)


def _raised(fn):
    """The exception fn() raises, or None."""
    try:
        fn()
    except (SolverError, ValueError) as exc:
        return exc
    return None


def _outcome(fn):
    """repr(fn()), exact in every float, or the type and message of the
    error it raises."""
    try:
        return repr(fn())
    except (SolverError, ValueError) as exc:
        return type(exc), str(exc)


def _inside(span, outer):
    lo, hi = outer
    return all(lo <= x <= hi for x in (span if type(span) is tuple else (span,)))


def test_every_sub_space_lies_in_the_full_space():
    for sub in SUBSPACES.values():
        assert all(_inside(span, SPACE[axis]) for axis, span in sub.items() if axis in SPACE)
    assert _inside(MIXED_LOCATIONS, LOCATIONS)
    assert _inside(PIN_GAMMA, GAMMA)


def test_qubits_at_the_dirichlet_guards():
    """Full-space transmons, one or two, in either state, at either level
    count, g given as g or as a charge element, with the qubit moved to
    within a factor 1 + EDGE_REACH of a Dirichlet pole's collision edge.
    Below lam_max the inner side raises PoleCollisionError and the outer
    solves; at the sixth pole, above lam_max, both sides solve."""
    rng = random.Random(17)
    reached = set()
    for _ in range(DRAWS):
        dev, spec, _ = _draw(rng.uniform, SPACE)
        n, f = rng.randint(1, 6), _factor(rng)
        d = dirichlet_poles(dev.length, 6)[n - 1]
        lam = d * (1.0 + rng.choice((-1.0, 1.0)) * DIRICHLET_COLLISION_REL * f)
        spec = replace(spec, state=rng.choice(CHOICES["state"]),
                       frequency=lambda_to_omega(lam, dev.phase_velocity))
        if rng.choice(CHOICES["coupling"]) == "charge_element":
            charge = charge_from_coupling(spec.coupling, dev.fundamental_frequency, dev)
            spec = replace(spec, coupling=None, charge_element=charge)
        bnd = transmon_boundary(spec, dev, rng.choice(CHOICES["levels"]))
        if rng.choice(CHOICES["qubits"]) == 2:
            line = {**SPACE, "length": dev.length, "velocity": dev.phase_velocity}
            bnd = sum_boundaries(bnd, transmon_boundary(_draw(rng.uniform, line)[1], dev))
        lam_q = omega_to_lambda(spec.frequency, dev.phase_velocity)
        qubit_refused = _refused(dev.length, [lam_q])
        assert qubit_refused == (f < 1.0 and n < 6)
        refused = _refused(dev.length, [p.location for p in bnd.poles])
        raised = _raised(lambda: solve_spectrum(dev.length, bnd))
        assert type(raised) is (PoleCollisionError if refused else type(None)), raised
        reached.add((n < 6, qubit_refused))
    assert reached == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("guard, error, message", [
    ("floor", ValueError, "below the floor"),
    ("spacing", ValueError, "closer than"),
    ("lam_max", SolverError, "exactly at lam_max"),
])
def test_raw_poles_at_the_guards(guard, error, message):
    """Raw boundary poles within a factor 1 + EDGE_REACH of the location
    floor, of another pole's distinctness guard, or of lam_max, where only
    a pole exactly at lam_max is refused: each refusal the rule predicts is
    the guard's own error, and every other draw solves."""
    rng = random.Random(guard)
    lam_max = spectrum._line_partition(LENGTH)[0]
    reached = set()
    for _ in range(DRAWS):
        f = _factor(rng)
        if guard == "floor":
            locations = [_LOCATION_FLOOR * f]
        elif guard == "spacing":
            p = rng.uniform(*LOCATIONS) * LAM_1
            locations = [p, p / (1.0 - POLE_GUARD_REL * f)]     # q - p = POLE_GUARD_REL f q
        else:
            locations = [lam_max * (f if rng.random() < 0.5 else 1.0)]
        refused = _refused(LENGTH, locations)
        raised = _raised(lambda: solve_spectrum(
            LENGTH, RationalBoundary(poles=tuple(BoundaryPole(x, UNIT) for x in locations))
        ))
        if refused:
            assert type(raised) is error and message in str(raised), raised
        else:
            assert raised is None, raised
        reached.add(refused)
    assert reached == {True, False}


def test_detunings_at_the_resonance_guard():
    """Dispersive draws with the qubit, or its e-f transition, within a
    factor 1 + EDGE_REACH of the mode's resonance guard: the inner side
    raises _guard_detuning's ValueError, and the outer is reported."""
    rng = random.Random(5)
    edge = RESONANCE_GUARD_REL * STANDARD_DEVICE.fundamental_frequency / GHZ
    reached = set()
    for _ in range(DRAWS // 3):
        f, alpha, on_ef = _factor(rng), rng.uniform(*SPACE["alpha"]), rng.random() < 0.5
        detuning = rng.choice((-1.0, 1.0)) * edge * f - (alpha if on_ef else 0.0)
        sub = {**SUBSPACES["dispersive"], "detuning": detuning, "alpha": alpha}
        dev, spec, _ = _draw(rng.uniform, sub)
        raised = _raised(lambda: dispersive_report(dev, spec))
        if f < 1.0:
            assert type(raised) is ValueError and "degenerate with the mode" in str(raised), raised
        else:
            assert raised is None, raised
        reached.add(f < 1.0)
    assert reached == {True, False}


def test_junction_capacitance_at_the_slope_bound_edge():
    """Full-space ground-state transmons with beta = C_J/c within a factor
    1 + EDGE_REACH of L/3, where the cheap slope bound's slack turns: below
    it the solve is settled whole, above it every interval is isolated, and
    both solve."""
    rng = random.Random(3)
    reached = set()
    for _ in range(DRAWS):
        f = _factor(rng)
        dev, spec, _ = _draw(rng.uniform, {**SPACE, "beta": f})
        bnd = transmon_boundary(spec, dev)
        settled = spectrum._slack(dev.length, bnd) < 0.0
        assert settled == (f < 1.0)
        assert solve_spectrum(dev.length, bnd).records
        reached.add(settled)
    assert reached == {True, False}


# The long, slow line where a ratio-0.1 qubit at alpha = -0.3 GHz has its
# e-f transition below zero: omega_1 = 2.5 GHz, omega_q + alpha = -0.05 GHz.
EF_EDGE = {**SPACE, "length": 8e-3, "velocity": 0.8e8, "ratio": 0.1, "alpha": -0.3}


def test_an_explicit_state_builds_the_spec_routes_boundary():
    """_tuned_transmon's builder, given a state, returns the boundary
    transmon_boundary builds for the spec in that state, bit for bit:
    full-space transmons in either state, at either level count, g given
    as g or as a charge element, with and without C_J, and each built in
    g and in e. At levels 3 a qubit in e whose omega_q + alpha is not
    positive is refused by both routes with the same ValueError; _refused
    does not read that edge, and the EF_EDGE draws reach it."""
    rng = random.Random(29)
    no_cj = {axis: span for axis, span in SPACE.items() if axis != "beta"}
    edge_no_cj = {axis: span for axis, span in EF_EDGE.items() if axis != "beta"}
    reached = set()
    for space in [SPACE, no_cj] * (DRAWS // 2) + [EF_EDGE, edge_no_cj] * 4:
        dev, spec, _ = _draw(rng.uniform, space)
        spec = replace(spec, state=rng.choice(CHOICES["state"]))
        if rng.choice(CHOICES["coupling"]) == "charge_element":
            charge = charge_from_coupling(spec.coupling, dev.fundamental_frequency, dev)
            spec = replace(spec, coupling=None, charge_element=charge)
        levels = rng.choice(CHOICES["levels"])
        boundary = _tuned_transmon(spec, dev, levels)
        for state in CHOICES["state"]:
            explicit = _outcome(lambda: boundary(spec.frequency, state))
            assert explicit == _outcome(
                lambda: transmon_boundary(replace(spec, state=state), dev, levels))
            edge = state == "e" and levels == 3
            raised = explicit == (ValueError, "e-f transition frequency must stay positive")
            assert raised == (edge and spec.frequency + spec.anharmonicity <= 0.0), explicit
            if edge:
                reached.add(raised)
    assert reached == {True, False}
