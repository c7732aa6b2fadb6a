"""Benchmark of the dressed-modes solver and its physics checks.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the inputs and oracles):

  sweep    qubit_frequency_sweep over 101 points around the fundamental of
           seeded random devices: the H kernel and the bracketed solver.
  readout  dispersive_report, the JC ladder, two_qubit_model, parity_report
           and additivity_report on a seeded device with two random qubits.
  gate     `validate --only KEY --seed SEED` for each of the 11 criteria.

All run closed loop with one client in one process: each operation starts
when the previous one has returned. BLAS is pinned to one thread and
DRESSED_MODES_THREADS must be unset, so the program runs its serial
defaults. A run repeats one seeded pass of operations for --seconds.

Times are scaled to a reference speed. On a shared host the speed of the
core drifts over tens of seconds with other tenants' load: the same pass
of identical work took from 1x to 1.9x its best time. So a fixed
pure-Python calibration kernel (`probe`, about 2 ms) runs before and after
every operation, and each measured time t is reported as
t * REFERENCE_PROBE_S / p, with p the mean of the two probe times around
it. REFERENCE_PROBE_S is the probe's best time on the host the baselines
come from (2-core x86-64, Python 3.11), so on that host, unloaded, scaled
and raw times agree. On the sweep workload this took the run-to-run
spread of the median latency (interquartile range over seeds, as a share
of the median) from 35% to 3%. The raw times and the scale factors of
every operation go to the result file.

--trace 0 prints the end-to-end metrics, scaled times as above:

  setup_s      median over fresh interpreters, one at a time, that import
               dressed_modes, dressed_modes.cli and dressed_modes.acceptance
               and load the workload's device file
  wall_s       one pass: the sum of its operations' latencies
  op_p50_ms    median over the pass's operations of their latency, which
               is the median of that operation's repeats
  op_tail_ms   latency at the highest whole percentile with at least 10
               operations beyond it (the percentile and the count go to the
               result file); gate has only 11 operations, whose costs differ
               by three orders of magnitude, so there it is the slowest one
  ok_frac      operations that returned and passed their oracle, divided by
               operations attempted (1 - failed_frac; never 0 on a working
               build, so it can carry a relative bound)
  peak_rss_mb  ru_maxrss of the benchmark process

--trace 1 runs the pass twice untraced and twice with the wrappers of
tracing.py installed, and prints the per-layer metrics of the first traced
pass (raw times), the import breakdown of a fresh interpreter
(`python -X importtime`), and the tracing overhead: the traced minus the
untraced pass time, scaled as above. Counts from the two traced passes
must agree exactly.

`correct` in the printed result means the harness checked every operation
and its own invariants held: the set of failing operations was the same in
every pass, and in a traced run every count repeated exactly. Operations
that raised or missed their oracle are reported in `failed`; their labels
and errors go to the result file. `attempted` and `failed` count each of
the pass's seeded operations once, not once per repeat, so they do not
depend on how many passes fit in --seconds.

Each run writes bench/out/<workload>-seed<seed>-trace<t>.json with the
machine record, and a traced run also writes the spans next to it.
"""
from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
UNTRACED_PASSES = 2
TRACED_PASSES = 2
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60
PROBE_ITERATIONS = 8000
REFERENCE_PROBE_S = 1.9e-3

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import dressed_modes, dressed_modes.cli, dressed_modes.acceptance
t0 = time.perf_counter()
dressed_modes.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""

WORKLOADS = ("sweep", "readout", "gate")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _probe_term(x: float) -> float:
    return x * math.cos(x) / math.sin(x)


def probe() -> float:
    """Seconds one fixed run of the calibration kernel takes right now."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(1, PROBE_ITERATIONS):
        acc += _probe_term(1e-3 * i) - math.sqrt(i) / (i + 1.0)
    return perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two probes to the reference speed."""
    return 2.0 * REFERENCE_PROBE_S / (before + after)


def _child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, env=dict(os.environ),
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed:\n{proc.stderr.strip()}")
    return proc


def time_setup(cfg: Path) -> tuple[float, float]:
    """(raw seconds of one fresh set-up interpreter, its speed scale)."""
    before = probe()
    t0 = perf_counter()
    _child(["-c", SETUP_CODE, str(SRC), str(cfg)])
    raw = perf_counter() - t0
    return raw, speed_scale(before, probe())


IMPORT_GROUPS = (
    "dressed_modes", "dressed_modes.errors", "dressed_modes.params",
    "dressed_modes.resonator", "dressed_modes.boundary", "dressed_modes.spectrum",
    "dressed_modes.dispersive", "dressed_modes.jc", "dressed_modes.multimode",
    "dressed_modes.multiqubit", "dressed_modes.wedge", "dressed_modes.acceptance",
    "dressed_modes.cli", "numpy", "scipy", "other",
)


def _import_group(module: str) -> str:
    """The group a module's self import time counts toward."""
    if module in IMPORT_GROUPS:
        return module
    top = module.split(".", 1)[0]
    return top if top in ("numpy", "scipy") else "other"


def import_breakdown(cfg: Path) -> dict[str, float]:
    """Self import time per module group, median of fresh interpreters."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_RUNS):
        proc = _child(["-X", "importtime", "-c", SETUP_CODE, str(SRC), str(cfg)])
        spent = dict.fromkeys(IMPORT_GROUPS, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            spent[_import_group(name.strip())] += int(self_us) * 1e-6
        spent["total"] = sum(spent.values())
        spent["params.load_config"] = float(proc.stdout.strip().splitlines()[-1])
        for key, value in spent.items():
            samples.setdefault(key, []).append(value)
    out = {}
    for key, values in samples.items():
        name = key if key == "params.load_config" else f"import.{key}"
        out[f"{name}_s"] = statistics.median(values)
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "threads": threading.active_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "DRESSED_MODES_THREADS": os.environ.get("DRESSED_MODES_THREADS"),
        "reference_probe_s": REFERENCE_PROBE_S,
    }


class Pass(NamedTuple):
    raw: list[float]         # seconds per operation
    scale: list[float]       # factor to the reference speed per operation
    failures: dict[int, str]


def run_pass(ops, tracer=None) -> Pass:
    """One closed-loop pass over the operations."""
    raw, scale, failures = [], [], {}
    before = probe()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            op.run()
        except Exception as exc:  # counted as a failed operation, run goes on
            failures[i] = f"{type(exc).__name__}: {exc}"
        raw.append(perf_counter() - t0)
        after = probe()
        scale.append(speed_scale(before, after))
        before = after
    return Pass(raw, scale, failures)


def latencies(passes) -> list[float]:
    """Each operation's scaled latency, median over the passes."""
    return [
        statistics.median(p.raw[i] * p.scale[i] for p in passes)
        for i in range(len(passes[0].raw))
    ]


def tail(samples):
    """(percentile, value): highest whole percentile with TAIL_BEYOND samples above."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100, xs[-1]
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return pct, xs[max(0, math.ceil(pct * n / 100) - 1)]


def failed_ops(passes) -> dict[int, str]:
    """Operations that failed in any pass, with the first error seen."""
    failures: dict[int, str] = {}
    for p in passes:
        for i, err in p.failures.items():
            failures.setdefault(i, err)
    return dict(sorted(failures.items()))


def _consistent(passes) -> bool:
    return all(p.failures.keys() == passes[0].failures.keys() for p in passes)


def measure(workload, batch, seconds, cfg):
    setup = [time_setup(cfg) for _ in range(SETUP_RUNS)]
    ops = batch.ops
    try:  # untimed warm-up of the first operation
        ops[0].run()
    except Exception:
        pass
    passes = []
    t_start = perf_counter()
    # a pass starts only if one more pass of the last one's length still
    # fits in --seconds, so a run ends on time whatever the pass length
    last = 0.0
    while not passes or perf_counter() - t_start + last <= seconds:
        t_pass = perf_counter()
        passes.append(run_pass(ops))
        last = perf_counter() - t_pass
    lat = latencies(passes)
    if workload == "gate":
        pct, tail_value = 100, max(lat)
    else:
        pct, tail_value = tail(lat)
    # Each seeded operation counts once, however many passes fit in the
    # run: the passes repeat identical work, and _consistent demands that
    # every pass fail the same operations. So attempted and failed are set
    # by the seed alone and two runs of one seed report the same counts.
    failures = failed_ops(passes)
    attempted = len(ops)
    failed = len(failures)
    metrics = {
        "setup_s": (statistics.median(raw * scale for raw, scale in setup), "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "passes": len(passes),
        "op_raw_s": [p.raw for p in passes],
        "op_scale": [p.scale for p in passes],
        "setup_raw_s": [raw for raw, _ in setup],
        "setup_scale": [scale for _, scale in setup],
        "op_tail": {"percentile": pct, "samples": len(lat)},
        "failed_ops": {ops[i].label: err for i, err in failures.items()},
    }
    return metrics, attempted, failed, _consistent(passes), details


COUNT_SUFFIXES = (".calls", ".solves", "h_evals_per_solve", "h_evals_per_root",
                  "roots_per_solve", "failed_frac")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or ".errors." in name


def measure_traced(batch, cfg, spans_path):
    import tracing
    from workloads import GATE_KEYS

    layer = import_breakdown(cfg)
    ops = batch.ops
    untraced = [run_pass(ops) for _ in range(UNTRACED_PASSES)]
    traced = []
    for _ in range(TRACED_PASSES):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_pass = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        figures = tracer.metrics(GATE_KEYS)
        figures["failed_frac"] = len(traced_pass.failures) / len(ops)
        traced.append((traced_pass, figures, tracer))
    _, figures, tracer = traced[0]
    failures = failed_ops(untraced + [t[0] for t in traced])
    mismatched = sorted(
        name for name, value in figures.items()
        if is_count(name) and any(t[1][name] != value for t in traced[1:])
    )
    untraced_wall = sum(latencies(untraced))
    traced_wall = sum(latencies([t[0] for t in traced]))
    layer.update(figures)
    layer["trace.untraced_wall_s"] = untraced_wall
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    with open(spans_path, "w", encoding="utf-8") as fh:
        for record in tracer.span_records():
            fh.write(json.dumps(record) + "\n")
    metrics = {name: (value, _unit(name)) for name, value in sorted(layer.items())}
    details = {
        "count_mismatches": mismatched,
        "failed_ops": {ops[i].label: err for i, err in failures.items()},
        "spans": spans_path.name,
        "layer_errors": {f"{k[0]}.{k[1]}": v for k, v in tracer.layer_errors.items()},
    }
    consistent = not mismatched and _consistent(untraced + [t[0] for t in traced])
    return metrics, len(ops), len(failures), consistent, details


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("failed_frac"):
        return "frac"
    if name.endswith(("h_evals_per_solve", "h_evals_per_root", "roots_per_solve")):
        return "ratio"
    return "count"


def _number(value):
    return value if isinstance(value, int) else float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if "DRESSED_MODES_THREADS" in os.environ:
        raise BenchError("DRESSED_MODES_THREADS is set; the benchmark measures the serial default")
    if not (SRC / "dressed_modes" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'dressed_modes'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dressed_modes

    if Path(dressed_modes.__file__).resolve().parent != SRC / "dressed_modes":
        raise BenchError(f"imported dressed_modes from {dressed_modes.__file__}, not {SRC}")
    from workloads import BATCHES

    batch = BATCHES[args.workload](args.seed)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    cfg = OUT / f"{run_id}.device.cfg"
    cfg.write_text(batch.device_cfg, encoding="utf-8")

    if args.trace:
        metrics, attempted, failed, consistent, details = measure_traced(
            batch, cfg, OUT / f"{run_id}.spans.jsonl"
        )
    else:
        metrics, attempted, failed, consistent, details = measure(
            args.workload, batch, args.seconds, cfg
        )

    result = {
        "correct": consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _number(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "details": details,
        **result,
    }
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:44s} {value:.6g} {unit}")
    if "op_tail" in details:
        tail_info = details["op_tail"]
        print(f"{args.workload:8s} op_tail_ms is p{tail_info['percentile']} "
              f"of {tail_info['samples']} operations")
    for label, err in details["failed_ops"].items():
        print(f"{args.workload:8s} failed: {label}: {err}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
