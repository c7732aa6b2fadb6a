"""The benchmark's oracles hold on a slice of its workloads.

`bench/workloads.py` checks each operation against independent oracles.
The sweep oracle holds each grid point's gap to the Jaynes-Cummings
doublet, so running a few sweeps here makes a change to the solver's hot
path fail tier-1, not only the benchmark. The readout oracle rebuilds the
two-qubit readout map from `multiqubit.SIGMA` and chi's own sign
convention, so running a few of its operations here makes a change to that
map fail tier-1 too. The gate's `two-qubit` criterion runs through the CLI
as the benchmark runs it.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads

SWEEP_OPS = 5
READOUT_OPS = 8


def test_sweep_oracles_hold_on_the_first_devices():
    for op in workloads.sweep_batch(3).ops[:SWEEP_OPS]:
        op.run()


def test_readout_oracles_hold_on_the_first_devices():
    for op in workloads.readout_batch(3).ops[:READOUT_OPS]:
        op.run()


def test_gate_two_qubit_criterion_passes():
    (op,) = [op for op in workloads.gate_batch(3).ops if op.label == "gate[two-qubit]"]
    op.run()
