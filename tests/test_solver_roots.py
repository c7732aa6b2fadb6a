"""Roots of the solver pin's draws, held against the refiner before them.

`solver_roots.json` holds, for every draw of test_solver_pin.py, what the
solver returned when its roots were refined by Brent's method (commit
cac4968): every solve_spectrum call the draw made, as its roots in repr
floats, its counts and its interlacing flags, and the draw's exception
type and message, if any. The pole-aware refiner must land each root
within MAX_ULPS of the frozen one, with the same counts, flags and errors.
The file was written by running this module as a script in a checkout of
cac4968, from its root, and is not to be rewritten by a later refiner:

    PYTHONPATH=src python tests/test_solver_roots.py > tests/solver_roots.json
"""
import json
import struct
import sys
from pathlib import Path

import test_solver_pin
from dressed_modes import SolverError, spectrum

ROOTS = Path(__file__).with_name("solver_roots.json")
# Both refiners stop on a sign bracket at most 2 tol = 4 eps |x| wide, 4 to 8
# ulps, and return its end with the smaller |c*H|. Of the 3404 roots, 3397
# lie within 3 ulps of Brent's and 3 at 4; where c*H is flat to its
# rounding error over several floats the two can pick ends further apart,
# and 4 roots lie 5 and 6 ulps away (boundary[137], [196], [206], [295]).
MAX_ULPS = 6


def _ulps(x: float, y: float) -> int:
    """Floats between two nonnegative floats, one end counted."""
    bits = struct.Struct("<q")
    return abs(bits.unpack(struct.pack("<d", x))[0] - bits.unpack(struct.pack("<d", y))[0])


def observe():
    """{name: {"solves": [[roots, counts, interlacing], ...], "error": ...}}
    of every draw of test_solver_pin, roots as repr floats."""
    solves, solve = [], spectrum.solve_spectrum

    def spied(*args, **kwargs):
        sp = solve(*args, **kwargs)
        solves.append([[repr(x) for x in sp.eigenvalues], list(sp.counts), list(sp.interlacing)])
        return sp

    # sweeps look solve_spectrum up in spectrum, the pin's draws in their own module
    modules = (spectrum, test_solver_pin)
    for module in modules:
        module.solve_spectrum = spied
    try:
        out = {}
        for name, thunk in test_solver_pin._cases():
            solves.clear()
            try:
                thunk()
                error = None
            except (SolverError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            out[name] = {"solves": list(solves), "error": error}
        return out
    finally:
        for module in modules:
            module.solve_spectrum = solve


def test_roots_stay_within_a_few_ulps_of_the_brent_refiner():
    expected = json.loads(ROOTS.read_text())
    seen = observe()
    assert list(seen) == list(expected), "the set of pinned draws changed"
    for name, frozen in expected.items():
        got = seen[name]
        assert got["error"] == frozen["error"], name
        assert len(got["solves"]) == len(frozen["solves"]), name
        for solve, solve0 in zip(got["solves"], frozen["solves"]):
            (roots, counts, flags), (roots0, counts0, flags0) = solve, solve0
            assert (counts, flags) == (counts0, flags0), name
            assert len(roots) == len(roots0), name
            for x, x0 in zip(roots, roots0):
                assert _ulps(float(x), float(x0)) <= MAX_ULPS, (name, x, x0)


def test_ulps_counts_floats_between():
    one = 1.0
    assert _ulps(one, one) == 0
    assert _ulps(one, one + sys.float_info.epsilon) == 1
    assert _ulps(one - sys.float_info.epsilon / 2.0, one + sys.float_info.epsilon) == 2


if __name__ == "__main__":
    lines = (f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in observe().items())
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
