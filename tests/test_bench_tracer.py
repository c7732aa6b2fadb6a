"""The benchmark tracer (bench/tracing.py) still finds what it patches.

The tracer wraps package functions and class methods by name, so a rename
in the package breaks `bench/run.py --trace 1` with a KeyError. This runs a
small slice of each workload under an installed tracer, checks that the
counters it reports saw calls, that each traced solve counts the roots
its slice refines, and that uninstalling puts every original back.

The tracer finds each module it patches in sys.modules, so it also needs
every one of them loaded by what a benchmark process imports. This
process has loaded the whole package by then, so a fresh interpreter
checks that.
"""
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import dressed_modes.cli as cli
from dressed_modes import dispersive, jc, multiqubit, spectrum
from dressed_modes.acceptance import STANDARD_DEVICE, STANDARD_QUBIT
from dressed_modes.params import GHZ

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import tracing


def test_tracer_counts_every_layer_and_uninstalls():
    tracer = tracing.Tracer()
    tracer.install()
    patches = list(tracer._patches)

    def roots_since(start):
        """The roots_per_solve entries of the solves traced since `start`:
        bench/tracing.py counts a solve's records."""
        return [entry[1] for entry in tracer.solves[start:]]

    # every spectrum the boundary-forms criterion solves, through the tracer
    traced_solve, full = spectrum.solve_spectrum, []

    def kept(*args, **kwargs):
        full.append(traced_solve(*args, **kwargs))
        return full[-1]

    try:
        omega_1 = STANDARD_DEVICE.fundamental_frequency
        # a sweep point and the Rabi gap refine the pair around the fundamental
        spectrum.qubit_frequency_sweep(
            STANDARD_DEVICE, STANDARD_QUBIT, [0.9 * omega_1, 1.1 * omega_1]
        )
        assert roots_since(0) == [2, 2]
        # bench/tracing.py reads this function's calls by name
        spectrum.vacuum_rabi_gap(STANDARD_DEVICE, STANDARD_QUBIT)
        assert roots_since(2) == [2]
        # a pull refines the one root nearest the fundamental
        dispersive.dispersive_report(STANDARD_DEVICE, STANDARD_QUBIT)
        assert roots_since(3) == [1, 1]
        # bench/tracing.py reads this function's calls by name; dispersive_report
        # solves from the boundaries it built and does not call it
        dispersive.dispersive_shift_exact(STANDARD_DEVICE, STANDARD_QUBIT)
        assert roots_since(5) == [1, 1]
        # the readout workload's JC ladder, read by name as jc.diagonalize
        jc.dispersive_shift_numeric(jc.JCModel(
            omega_r=omega_1, omega_q=STANDARD_QUBIT.frequency, g=STANDARD_QUBIT.coupling,
            alpha=STANDARD_QUBIT.anharmonicity, levels=3, n_max=10,
        ))
        q2 = replace(STANDARD_QUBIT, frequency=STANDARD_QUBIT.frequency - 0.4 * GHZ)
        multiqubit.additivity_report(STANDARD_DEVICE, STANDARD_QUBIT, q2)
        pulls = roots_since(7)
        assert pulls and set(pulls) == {1}
        # the boundary-forms criterion solves a FullSusceptanceBoundary's
        # rational form, refining every root of each full solve
        start = len(tracer.solves)
        spectrum.solve_spectrum = kept
        try:
            assert cli.main(["validate", "--only", "boundary-forms"]) == 0
        finally:
            spectrum.solve_spectrum = traced_solve
        assert len(full) == 2
        assert roots_since(start) == [sum(sp.counts) for sp in full]
    finally:
        tracer.uninstall()
    figures = tracer.metrics(())
    for name in (
        "resonator.log_deriv.calls",
        "spectrum.solve_spectrum.calls",
        "spectrum.vacuum_rabi_gap.calls",
        "dispersive.dispersive_shift_exact.calls",
        "jc.diagonalize.calls",
        "multiqubit.time_s",
        "cli.main.calls",
    ):
        assert figures[name] > 0, name
    # the CLI runs the wrapped handler, looked up when its parser is built
    assert "cli.cmd_validate" in {span[3] for span in tracer.spans}
    assert patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)


# A fresh interpreter with what a sweep or readout benchmark process has
# imported before it installs the tracer: the workloads and the tracer.
# While installed, it reads every name the package serves, as a traced
# caller may; after uninstall, no module or patched class holds a wrapper.
FRESH_TRACER_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import dressed_modes, tracing, workloads
tracer = tracing.Tracer()
tracer.install()
patched = [owner for owner, _, _ in tracer._patches]
wrappers = [vars(owner)[attr] for owner, attr, _ in tracer._patches]
served = [getattr(dressed_modes, name) for name in dressed_modes.__all__]
tracer.uninstall()
namespaces = [mod for name, mod in sys.modules.items() if name.partition(".")[0] == "dressed_modes"]
left = [
    f"{owner.__name__}.{attr}"
    for owner in namespaces + patched
    for attr in dir(owner)
    if any(getattr(owner, attr) is w for w in wrappers)
]
print(len(wrappers) > 0, any(any(v is w for w in wrappers) for v in served), sorted(set(left)))
"""


def test_tracer_installs_and_uninstalls_in_a_fresh_benchmark_process():
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_TRACER_PROBE, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True True []"
