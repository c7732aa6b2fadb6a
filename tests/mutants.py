"""Named mutants of the solver, each run against the suite on a copy.

Each entry of MUTANTS is a fault with a name: the file it lives in, the
exact text it replaces, which must occur there once, its replacement, and
the checks expected to catch it. A check is a test id as pytest prints it,
or a prefix of one (every parametrization of a test), or "validate" for
the release gate. For each mutant the script copies the repository to a
temporary directory, applies the substitution, runs the tier-1 suite and
`dressed-modes validate --seed 0` there, and records what failed. A first
run with no mutant is the control: a mutant's JSON entry lists the tests
that failed, whether the gate failed and whether its stdout moved from the
control's, and which expected checks missed it.

Not a test module: pytest collects test_*.py only. Run from the root of a
checkout, a mutant taking 15-60 s; the JSON goes to stdout:

    python tests/mutants.py [--only NAME ...] > census.json
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECTRUM = "src/dressed_modes/spectrum.py"
PIN = "tests/test_solver_pin.py::test_solver_bits_and_evaluation_counts_are_pinned"
TRUTH = "tests/test_solver_roots.py::test_roots_lie_within_their_stopping_width_and_rounding_floor_of_the_true_root"
SWEEP_TRUTH = "tests/test_solver_roots.py::test_sweep_roots_lie_within_their_stopping_width_and_rounding_floor_of_the_true_root"
TINY_POLE = "tests/test_spectrum.py::test_roots_far_above_a_tiny_qubit_pole_match_mpmath"
RETURNED_ROOT = "    return EigenvalueRecord(x, bracket, residual, steps)\n"


def _shifted_root(ulps_of_one: int) -> str:
    """_refine's return with x moved up by ulps_of_one eps, relative."""
    return RETURNED_ROOT.replace("(x,", f"(x * (1.0 + {ulps_of_one} * 2.0 ** -52),")


# name: (file, old text, new text, checks expected to fail)
MUTANTS = {
    "beta-flip": (
        "src/dressed_modes/boundary.py", "        return -self.beta\n", "        return self.beta\n", (
            "tests/test_boundary.py::test_affine_part_signs",
            "tests/test_boundary.py::test_full_form_is_exactly_its_rational_form[e-2-5e-15]",
            "tests/test_cli.py::test_junction_capacitance_key_still_runs",
            "tests/test_input_space.py::test_junction_capacitance_at_the_slope_bound_edge",
            "tests/test_known_defects.py::test_bare_line_roots_follow_cot_kl_equals_plus_beta_k",
            "tests/test_settled_isolation.py::test_settled_intervals_are_what_isolate_finds",
            "tests/test_settled_isolation.py::test_only_a_settled_solve_skips_isolate",
            "tests/test_slope_bounds.py::test_slope_bounds_are_bit_identical_to_the_plain_form",
            PIN,
            "tests/test_spectrum.py::test_newton_start_falls_back_to_the_line_zero",
            # every root holds its bound; the number of roots checked moves
            TRUTH, SWEEP_TRUTH,
        ),
    ),
    # a solve with an emission pole taken as settled: counts go wrong
    "M1": (
        SPECTRUM, "    settled = absorbing and slack < 0.0\n", "    settled = slack < 0.0\n",
        (PIN, TRUTH, SWEEP_TRUTH),
    ),
    # inside the refiner's 4 eps stopping width, so within the truth checks' bound
    "refine+2eps": (SPECTRUM, RETURNED_ROOT, _shifted_root(2), (PIN, TINY_POLE)),
    "refine+4eps": (SPECTRUM, RETURNED_ROOT, _shifted_root(4), (PIN, TRUTH, SWEEP_TRUTH)),
    "refine+8eps": (SPECTRUM, RETURNED_ROOT, _shifted_root(8), (PIN, TRUTH, SWEEP_TRUTH)),
    "solver-error-message": (
        SPECTRUM, 'SolverError("no dressed pair brackets the fundamental")',
        'SolverError("no dressed pair straddles the fundamental")', (PIN,),
    ),
}
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")


def _mutate(copy: Path, mutant) -> None:
    path, old, new, _ = mutant
    text = (copy / path).read_text()
    found = text.count(old)
    if found != 1:
        raise SystemExit(f"{path}: the mutant's old text occurs {found} times, not once:\n{old}")
    (copy / path).write_text(text.replace(old, new))


def _run(copy: Path) -> dict:
    """The failed test ids and the gate's exit code and stdout, on `copy`."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    lines = tests.stdout.splitlines()
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines
              if line.startswith(("FAILED ", "ERROR "))]
    gate = subprocess.run(
        [sys.executable, "-m", "dressed_modes.cli", "validate", "--seed", "0"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    return {"failed": failed, "summary": lines[-1] if lines else "",
            "validate_exit": gate.returncode, "validate_stdout": gate.stdout}


def census(names) -> dict:
    """{"control": run, name: run with its expected checks and misses}."""
    out = {}
    for name in ["control", *names]:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "repo"
            shutil.copytree(ROOT, copy, ignore=IGNORED)
            if name != "control":
                _mutate(copy, MUTANTS[name])
            run = _run(copy)
        if name != "control":
            expected = MUTANTS[name][3]
            caught = run["failed"] + (["validate"] if run["validate_exit"] else [])
            run["expected"] = list(expected)
            run["missed"] = [c for c in expected if not any(f.startswith(c) for f in caught)]
            run["validate_stdout_moved"] = run["validate_stdout"] != out["control"]["validate_stdout"]
            del run["validate_stdout"]
        out[name] = run
        print(f"{name}: {len(run['failed'])} failed, validate exit {run['validate_exit']}",
              file=sys.stderr)
    del out["control"]["validate_stdout"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", choices=sorted(MUTANTS), default=None,
                        help="run this mutant only; repeat for more")
    args = parser.parse_args(argv)
    json.dump(census(args.only or list(MUTANTS)), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
