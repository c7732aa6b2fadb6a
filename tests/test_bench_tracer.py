"""The benchmark tracer (bench/tracing.py) still finds what it patches.

The tracer wraps package functions and class methods by name, so a rename
in the package breaks `bench/run.py --trace 1` with a KeyError. This runs a
small slice of each workload under an installed tracer, checks that the
counters it reports saw calls, and that uninstalling puts every original
back.
"""
import sys
from dataclasses import replace
from pathlib import Path

import dressed_modes.cli as cli
from dressed_modes import dispersive, multiqubit, spectrum
from dressed_modes.acceptance import STANDARD_DEVICE, STANDARD_QUBIT
from dressed_modes.params import GHZ

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing


def test_tracer_counts_every_layer_and_uninstalls():
    tracer = tracing.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        omega_1 = STANDARD_DEVICE.fundamental_frequency
        spectrum.qubit_frequency_sweep(
            STANDARD_DEVICE, STANDARD_QUBIT, [0.9 * omega_1, 1.1 * omega_1]
        )
        # bench/tracing.py reads this function's calls by name
        spectrum.vacuum_rabi_gap(STANDARD_DEVICE, STANDARD_QUBIT)
        dispersive.dispersive_report(STANDARD_DEVICE, STANDARD_QUBIT)
        q2 = replace(STANDARD_QUBIT, frequency=STANDARD_QUBIT.frequency - 0.4 * GHZ)
        multiqubit.additivity_report(STANDARD_DEVICE, STANDARD_QUBIT, q2)
        # the boundary-forms criterion solves a FullSusceptanceBoundary's rational form
        assert cli.main(["validate", "--only", "boundary-forms"]) == 0
    finally:
        tracer.uninstall()
    figures = tracer.metrics(())
    for name in (
        "resonator.log_deriv.calls",
        "spectrum.solve_spectrum.calls",
        "spectrum.vacuum_rabi_gap.calls",
        "dispersive.dispersive_shift_exact.calls",
        "multiqubit.time_s",
        "cli.main.calls",
    ):
        assert figures[name] > 0, name
    # the CLI runs the wrapped handler, looked up when its parser is built
    assert "cli.cmd_validate" in {span[3] for span in tracer.spans}
    assert patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
