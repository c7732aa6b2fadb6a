"""Per-layer tracing installed from outside the package.

Two kinds of wrapper are installed on the ``dressed_modes`` modules:

* Spans, on every public function of the solve-level and higher layers
  (``spectrum``, ``dispersive``, ``jc``, ``multiqubit``, ``multimode``,
  ``wedge``, ``acceptance``, ``cli``) and on each acceptance criterion.
  A span records its name, parent, operation, start, end and self time
  (duration minus the time of its child spans and of the kernel calls made
  directly inside it).
* Aggregated counters, on the ``H`` kernel: ``ShortedLine.log_deriv`` and
  ``dlog_deriv``, the free functions behind them when called from outside
  ``resonator``, and ``value`` / ``derivative`` of both boundary classes.
  These run about a million times per pass, so they keep a call count and
  a total time each instead of a span per call.

A function imported by name (``from .spectrum import solve_spectrum``) is
a separate binding in the importing module, so each wrapper is installed on
every ``dressed_modes`` module namespace that holds the original object.
``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter

SPAN_LAYERS = (
    "spectrum", "dispersive", "jc", "multiqubit", "multimode", "wedge",
    "acceptance", "cli",
)
# (layer, class name, method) -> counter name
KERNEL_METHODS = (
    ("resonator", "ShortedLine", "log_deriv", "resonator.log_deriv"),
    ("resonator", "ShortedLine", "dlog_deriv", "resonator.dlog_deriv"),
    ("boundary", "RationalBoundary", "value", "boundary.value"),
    ("boundary", "RationalBoundary", "derivative", "boundary.derivative"),
    ("boundary", "FullSusceptanceBoundary", "value", "boundary.value"),
    ("boundary", "FullSusceptanceBoundary", "derivative", "boundary.derivative"),
)
# free kernel functions; inside resonator they back the methods above
KERNEL_FUNCTIONS = (
    ("resonator", "line_log_deriv", "resonator.log_deriv"),
    ("resonator", "line_log_deriv_dlam", "resonator.dlog_deriv"),
)
KERNEL_NAMES = ("resonator.log_deriv", "resonator.dlog_deriv", "boundary.value", "boundary.derivative")
ERROR_TYPES = ("InterlacingError", "SolverError", "PoleCollisionError", "PoleProximityError", "ValueError")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []            # (id, parent, op, name, start, end, self_s)
        self.kernel = {name: [0, 0.0] for name in KERNEL_NAMES}
        self.layer_errors = Counter()
        self.solves = []           # (h_evals, roots, all_positive, seconds)
        self.op = None
        self._stack = []           # [span id, layer, child seconds]
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, layer):
        tracer = self
        is_solve = name == "spectrum.solve_spectrum"
        log_deriv = self.kernel["resonator.log_deriv"]

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [len(tracer.spans) + len(stack), layer, 0.0]
            stack.append(frame)
            evals0 = log_deriv[0]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if parent is None or parent[1] != layer:
                    tracer.layer_errors[(layer, type(exc).__name__)] += 1
                raise
            else:
                if is_solve:
                    b = args[1] if len(args) > 1 else kwargs["b"]
                    tracer.solves.append((
                        log_deriv[0] - evals0, len(result.records),
                        b.all_positive_residues, perf_counter() - t0,
                    ))
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((
                    frame[0], parent[0] if parent else None, tracer.op, name,
                    t0, t1, (t1 - t0) - frame[2],
                ))
                if parent is not None:
                    parent[2] += t1 - t0

        return wrapped

    def _counted(self, fn, name):
        cell = self.kernel[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                cell[0] += 1
                cell[1] += dt
                if stack:
                    stack[-1][2] += dt

        return wrapped

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper, skip=()):
        """Point every dressed_modes namespace holding `original` at `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if modname != "dressed_modes" and not modname.startswith("dressed_modes."):
                continue
            if modname in skip:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        import dressed_modes.acceptance as acceptance

        for layer in SPAN_LAYERS:
            mod = sys.modules[f"dressed_modes.{layer}"]
            for attr, value in list(vars(mod).items()):
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    self._rebind(value, self._span(value, f"{layer}.{attr}", layer))
        checks = tuple(
            (key, self._span(fn, f"acceptance.{key}", "acceptance"))
            for key, fn in acceptance.ALL_CHECKS
        )
        self._set(acceptance, "ALL_CHECKS", checks)

        for layer, cls_name, method, name in KERNEL_METHODS:
            cls = getattr(sys.modules[f"dressed_modes.{layer}"], cls_name)
            self._set(cls, method, self._counted(cls.__dict__[method], name))
        for layer, attr, name in KERNEL_FUNCTIONS:
            mod = sys.modules[f"dressed_modes.{layer}"]
            self._rebind(getattr(mod, attr), self._counted(getattr(mod, attr), name),
                         skip=(mod.__name__,))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self, criteria) -> dict[str, float]:
        """Per-layer figures of the pass; counts are exact, times in seconds.

        `criteria` are the acceptance keys, each reported as
        ``acceptance.<key>_s``.
        """
        out = {}
        for name, (calls, _) in self.kernel.items():
            out[f"{name}.calls"] = calls
        for layer in ("resonator", "boundary"):
            out[f"{layer}.time_s"] = sum(
                s for n, (_, s) in self.kernel.items() if n.startswith(layer + ".")
            )

        total = Counter()      # span name -> seconds, outermost call only
        selfs = Counter()
        calls = Counter()
        layer_time = Counter()
        by_id = {span[0]: span[3] for span in self.spans}
        for sid, parent, _, name, t0, t1, self_s in self.spans:
            calls[name] += 1
            selfs[name] += self_s
            pname = by_id.get(parent)
            if pname != name:
                total[name] += t1 - t0
            layer = name.split(".", 1)[0]
            if pname is None or pname.split(".", 1)[0] != layer:
                layer_time[layer] += t1 - t0

        solves = self.solves
        h_evals = sum(s[0] for s in solves)
        roots = sum(s[1] for s in solves)
        out["spectrum.solve_spectrum.calls"] = calls["spectrum.solve_spectrum"]
        out["spectrum.h_evals_per_solve"] = h_evals / len(solves) if solves else 0.0
        out["spectrum.h_evals_per_root"] = h_evals / roots if roots else 0.0
        out["spectrum.roots_per_solve"] = roots / len(solves) if solves else 0.0
        for kind, positive in (("positive", True), ("mixed", False)):
            part = [s for s in solves if s[2] == positive]
            out[f"spectrum.{kind}.solves"] = len(part)
            out[f"spectrum.{kind}.h_evals_per_solve"] = (
                sum(s[0] for s in part) / len(part) if part else 0.0
            )
        out["spectrum.solve_spectrum.self_s"] = selfs["spectrum.solve_spectrum"]
        out["spectrum.solve_spectrum.p50_us"] = (
            statistics.median(s[3] for s in solves) * 1e6 if solves else 0.0
        )
        out["spectrum.qubit_frequency_sweep.self_s"] = selfs["spectrum.qubit_frequency_sweep"]
        out["spectrum.vacuum_rabi_gap.calls"] = calls["spectrum.vacuum_rabi_gap"]
        spectrum_errors = {
            etype: n for (layer, etype), n in self.layer_errors.items() if layer == "spectrum"
        }
        for etype in ERROR_TYPES:
            out[f"spectrum.errors.{etype}"] = spectrum_errors.pop(etype, 0)
        out["spectrum.errors.other"] = sum(spectrum_errors.values())

        out["dispersive.dispersive_shift_exact.calls"] = calls["dispersive.dispersive_shift_exact"]
        out["dispersive.dispersive_shift_exact.time_s"] = total["dispersive.dispersive_shift_exact"]
        out["dispersive.dispersive_report.self_s"] = selfs["dispersive.dispersive_report"]
        out["multiqubit.two_qubit_model.self_s"] = selfs["multiqubit.two_qubit_model"]
        out["multiqubit.additivity_report.self_s"] = selfs["multiqubit.additivity_report"]
        out["multiqubit.joint_state_frequency.calls"] = calls["multiqubit.joint_state_frequency"]
        out["jc.diagonalize.calls"] = calls["jc.diagonalize"]
        out["jc.diagonalize.time_s"] = total["jc.diagonalize"]
        out["jc.dressed_energies.self_s"] = selfs["jc.dressed_energies"]
        out["multimode.divergence_report.time_s"] = total["multimode.divergence_report"]
        out["cli.main.calls"] = calls["cli.main"]
        out["cli.main.self_s"] = selfs["cli.main"]
        for key in criteria:
            out[f"acceptance.{key}_s"] = total[f"acceptance.{key}"]
        for layer in SPAN_LAYERS:
            out[f"{layer}.time_s"] = layer_time[layer]
        return out

    def span_records(self):
        """Spans as dicts, in the order they ended."""
        return [
            {"id": sid, "parent": parent, "op": op, "name": name,
             "start": t0, "end": t1, "self_s": self_s}
            for sid, parent, op, name, t0, t1, self_s in self.spans
        ]
