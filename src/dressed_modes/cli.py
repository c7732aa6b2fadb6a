"""Command-line front end.

Subcommands: spectrum, sweep, chi, rabi, multimode, parity, wedge,
validate, each defined by one entry of COMMANDS. A call builds the parser
of its own subcommand only. Frequencies are GHz in every file and printout,
rad/s inside.
Every file-producing run drops a <out>.manifest.json sidecar recording the
device snapshot and every option the run parsed, the grid as its endpoints
and count and q2 as its resolved values (its coupling in the form q2
holds it, g or an inherited charge element); rerunning with the same arguments
reproduces every output byte for byte. Exit codes: 0 success, 1 validation
or solver failure, 2 usage error, 3 unreadable or invalid config.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import __version__
from .boundary import resolved_coupling, transmon_boundary
from .dispersive import critical_photon_number, dispersive_shift_exact, regime_flags
from .errors import ConfigError
from .jc import jc_branch_sweep
from .multimode import DEFAULT_SCHEDULE, MultimodeModel, divergence_report
from .multiqubit import (
    parity_report,
    qnd_residual,
    single_qubit_commutators,
    two_qubit_model,
)
from .params import (
    GHZ,
    _check_anharmonicity,
    _check_coupling,
    _check_qubit_frequency,
    config_snapshot,
    load_config,
)
from .spectrum import pole_margins, qubit_frequency_sweep, solve_spectrum
from .wedge import (
    WedgeGeometry,
    azimuthal_wavenumber,
    derivative_wall_values,
    laplacian_eigenvalue,
    orthogonality_error,
)

MHZ = GHZ / 1000.0


def _grid(text: str) -> list[float]:
    """START:STOP:COUNT, endpoints inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be START:STOP:COUNT")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"grid endpoints must be finite: {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    vals = [start + i * step for i in range(count - 1)]
    vals.append(stop)
    return vals


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    return value


def _model_checked(check, unit: float = 1.0):
    """An argparse type: a finite number whose value times `unit` passes the
    model's own `check`; the check's ValueError becomes a usage error with
    its message."""

    def parse(text: str) -> float:
        value = _finite_float(text)
        try:
            check(value * unit)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value

    return parse


def _int_at_least(low: int):
    """An argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}: {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _schedule(text: str) -> list[int]:
    """Comma-separated mode cutoffs, each >= 1, at least two of them distinct."""
    cutoffs = [_positive_int(tok) for tok in text.split(",") if tok.strip()]
    if len(set(cutoffs)) < 2:
        raise argparse.ArgumentTypeError(f"schedule needs at least two distinct cutoffs: {text!r}")
    return cutoffs


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return _fmt(cell)
    return str(cell)


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    # strict JSON: a NaN or an infinity raises instead of writing NaN or Infinity
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _rows_text(args, header: list[str], rows) -> str:
    """Row data as CSV (default) or, with --json, a list of row objects."""
    if args.format == "json":
        return _json_text([dict(zip(header, row)) for row in rows])
    return _csv_text(header, rows)


# The parsed options a manifest does not record by name, and why
_NOT_RECORDED = {
    "command", "func",      # argparse plumbing
    "config",               # recorded as its snapshot
    "state",                # the snapshot carries it as qubit.state
    "out",                  # listed in outputs
    "omega_q_ghz",          # recorded as sweep.omega_q_ghz: [start, stop, count]
    "q2_frequency_ghz", "q2_anharmonicity_ghz", "q2_coupling_ghz",  # as resolved q2.*
}


def _save(args, text: str, snapshot: dict, sidecars=()):
    """Write text to --out, each (suffix, text) sidecar beside it, and the manifest.

    <out>.manifest.json records the subcommand, the output paths, the
    package version and a config: the handler's snapshot of the device (and
    of q2, as its resolved values) plus every option the run parsed that is
    set and not in _NOT_RECORDED, the grid as its endpoints and count.
    """
    files = [(args.out, text)]
    files.extend((args.out + suffix, body) for suffix, body in sidecars)
    config = dict(snapshot)
    config.update((k, v) for k, v in vars(args).items() if v is not None and k not in _NOT_RECORDED)
    grid = getattr(args, "omega_q_ghz", None)
    if grid is not None:
        config["sweep.omega_q_ghz"] = [grid[0], grid[-1], len(grid)]
    manifest = {
        "subcommand": args.command,
        "config": config,
        "outputs": [path for path, _ in files],
        "version": __version__,
    }
    files.append((args.out + ".manifest.json", _json_text(manifest)))
    for path, body in files:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)


def _load(args):
    dev, spec = load_config(args.config)
    if getattr(args, "state", None):
        spec = replace(spec, state=args.state)
    return dev, spec


def cmd_spectrum(args) -> int:
    dev, spec = _load(args)
    bnd = transmon_boundary(spec, dev, levels=args.levels)
    sp = solve_spectrum(dev.length, bnd)
    v = dev.phase_velocity
    payload = {
        "eigenvalues_hz": [f / (2.0 * math.pi) for f in sp.frequencies(v)],
        "brackets": [list(r.bracket) for r in sp.records],
        "margins": list(pole_margins(sp)),
        "boundary": {
            "beta": bnd.beta,
            "gamma": bnd.gamma,
            "poles": [
                {"lambda": p.location, "delta": p.strength, "label": p.label}
                for p in bnd.poles
            ],
        },
    }
    _save(args, _json_text(payload), config_snapshot(dev, spec))
    return 0


def cmd_sweep(args) -> int:
    dev, spec = _load(args)
    omegas = [w * GHZ for w in args.omega_q_ghz]
    sweep = qubit_frequency_sweep(dev, spec, omegas, levels=args.levels)
    rows = [
        (wq / GHZ, lo / GHZ, hi / GHZ, (hi - lo) / GHZ)
        for wq, lo, hi in zip(sweep.qubit_frequency, sweep.lower, sweep.upper)
    ]
    text = _rows_text(args, ["omega_q_ghz", "branch_lo_ghz", "branch_hi_ghz", "gap_ghz"], rows)
    _save(args, text, config_snapshot(dev, spec))
    return 0


def cmd_chi(args) -> int:
    dev, spec = _load(args)
    g = resolved_coupling(spec, dev)
    delta = spec.frequency - dev.fundamental_frequency
    chi, pull_g, pull_e = dispersive_shift_exact(dev, spec, levels=args.levels)
    n_crit = critical_photon_number(g, delta)
    payload = {
        "chi_mhz": chi / MHZ,
        "delta_omega_g_mhz": pull_g / MHZ,
        "delta_omega_e_mhz": pull_e / MHZ,
        "n_crit": n_crit if math.isfinite(n_crit) else None,   # infinite at g = 0
        "flags": regime_flags(g, delta, spec.anharmonicity),
    }
    if args.format == "csv":
        row = dict(payload)
        row.update(row.pop("flags"))    # the flags as the last columns, in order
        text = _csv_text(list(row), [row.values()])
    else:
        text = _json_text(payload)
    print(text, end="")
    if args.out:
        _save(args, text, config_snapshot(dev, spec))
    return 0


def cmd_rabi(args) -> int:
    dev, spec = _load(args)
    omegas = [w * GHZ for w in args.omega_q_ghz]
    jc = sl = None
    if args.method in ("jc", "both"):
        g = resolved_coupling(spec, dev)
        jc = jc_branch_sweep(dev.fundamental_frequency, omegas, g)
    if args.method in ("sl", "both"):
        sl = qubit_frequency_sweep(dev, replace(spec, state="g"), omegas, levels=2)
    diffs = [None] * len(omegas)
    if jc and sl:
        diffs = [(s - j) / GHZ for s, j in zip(sl.gap, jc.gap)]
    rows = []
    for i, wq in enumerate(omegas):
        jc_lo = jc.lower[i] / GHZ if jc else None
        jc_hi = jc.upper[i] / GHZ if jc else None
        sl_lo = sl.lower[i] / GHZ if sl else None
        sl_hi = sl.upper[i] / GHZ if sl else None
        rows.append((wq / GHZ, jc_lo, jc_hi, sl_lo, sl_hi, diffs[i]))
    text = _rows_text(args, ["omega_q_ghz", "jc_lo", "jc_hi", "sl_lo", "sl_hi", "diff"], rows)
    _save(args, text, config_snapshot(dev, spec))
    return 0


def cmd_multimode(args) -> int:
    dev, spec = _load(args)
    model = MultimodeModel(
        omega_1=dev.fundamental_frequency,
        g_1=resolved_coupling(spec, dev),
        omega_q=spec.frequency,
        alpha=spec.anharmonicity,
    )
    rep = divergence_report(model, schedule=args.nmax_schedule)
    rows = [
        (n, lamb / GHZ, chi / GHZ)
        for n, lamb, chi in zip(rep.n_values, rep.lamb_sums, rep.chi_sums)
    ]
    text = _rows_text(args, ["n_max", "lamb_ghz", "chi_ghz"], rows)
    fits = {
        "lamb_slope_ghz_per_mode": rep.lamb_slope / GHZ,
        "lamb_intercept_ghz": rep.lamb_intercept / GHZ,
        "lamb_r_squared": rep.lamb_r_squared,
        "chi_increments_ghz": [x / GHZ for x in rep.chi_increments],
        "chi_increment_spread": rep.chi_increment_spread,
        "chi_increment_asymptote_ghz": rep.chi_increment_asymptote / GHZ,
        "degenerate": rep.degenerate,
    }
    _save(args, text, config_snapshot(dev, spec), sidecars=((".fits.json", _json_text(fits)),))
    return 0


def cmd_parity(args) -> int:
    dev, spec1 = _load(args)
    spec2 = spec1
    if args.q2_frequency_ghz is not None:
        spec2 = replace(spec2, frequency=args.q2_frequency_ghz * GHZ)
    if args.q2_anharmonicity_ghz is not None:
        spec2 = replace(spec2, anharmonicity=args.q2_anharmonicity_ghz * GHZ)
    if args.q2_coupling_ghz is not None:
        spec2 = replace(spec2, coupling=args.q2_coupling_ghz * GHZ, charge_element=None)
    model = two_qubit_model(dev, spec1, spec2, levels=args.levels)
    rep = parity_report(model)
    comm = single_qubit_commutators(model.chi_1, n_max=5)
    qnd_comm, _ = qnd_residual(model, 10)
    protected = []
    if rep.odd_protected:
        protected.append("ge-eg")
    if rep.even_protected:
        protected.append("gg-ee")
    payload = {
        "frequencies_ghz": {k: f / GHZ for k, f in rep.frequencies.items()},
        "odd_gap_mhz": rep.odd_gap / MHZ,
        "even_gap_mhz": rep.even_gap / MHZ,
        "commutator_norms": {
            "hint_sz": comm["with_sz"],
            "hint_sx": comm["with_sx"],
            "sx_identity_residual": comm["sx_identity_residual"],
            "hdisp_parity": qnd_comm,
        },
        "protected": protected,
    }
    if args.chi_p_mhz is not None:
        chi_p = args.chi_p_mhz * MHZ
        payload["engineered"] = {
            "chi_p_mhz": args.chi_p_mhz,
            "even_ghz": (model.center + chi_p) / GHZ,
            "odd_ghz": (model.center - chi_p) / GHZ,
        }
    text = _json_text(payload)
    print(text, end="")
    if args.out:
        _save(args, text, {
            **config_snapshot(dev, spec1),
            "q2.frequency_ghz": spec2.frequency / GHZ,
            "q2.anharmonicity_ghz": spec2.anharmonicity / GHZ,
            # in the form q2 holds it: g / GHZ need not multiply back to a
            # charge element's g, so an inherited charge element is recorded
            **({"q2.coupling_ghz": spec2.coupling / GHZ} if spec2.charge_element is None
               else {"q2.charge_element_C": spec2.charge_element}),
        })
    return 0


def cmd_wedge(args) -> int:
    geom = WedgeGeometry(angle=args.angle_rad)
    n_modes = args.modes
    wall = {str(n): list(derivative_wall_values(n, geom)) for n in range(1, n_modes + 1)}
    payload = {
        "angle_rad": geom.angle,
        "wavenumbers": [azimuthal_wavenumber(n, geom) for n in range(1, n_modes + 1)],
        "laplacian_eigenvalues": [
            laplacian_eigenvalue(n, geom) for n in range(1, n_modes + 1)
        ],
        "orthogonality_max_error": orthogonality_error(geom, n_modes),
        "wall_derivative_values": wall,
    }
    text = _json_text(payload)
    print(text, end="")
    if args.out:
        _save(args, text, {})
    return 0


def cmd_validate(args) -> int:
    # imported here, so that no other subcommand pays for loading the gate
    from .acceptance import ALL_CHECKS, run_all

    keys = [key for key, _ in ALL_CHECKS]
    if args.only is not None and args.only not in keys:
        print(
            f"dressed-modes validate: error: no criterion named {args.only!r}"
            f" (choose from {', '.join(keys)})",
            file=sys.stderr,
        )
        return 2
    results = run_all(only=args.only, seed=args.seed)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        if not res.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def _arg(*flags, **kwargs):
    """A subcommand table entry that adds one argument."""
    return lambda p: p.add_argument(*flags, **kwargs)


def _common(out_default=None):
    def add(p):
        p.add_argument("--config", required=True, help="device config file")
        p.add_argument("--out", default=out_default)

    return add


def _format(default):
    def add(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--json", dest="format", action="store_const", const="json",
            help="emit rows as a JSON array" if default == "csv" else "JSON output (default)",
        )
        group.add_argument(
            "--csv", dest="format", action="store_const", const="csv",
            help="CSV output (default)" if default == "csv" else "emit a one-row CSV",
        )
        p.set_defaults(format=default)

    return add


def _levels(default):
    return _arg("--levels", type=int, choices=(2, 3), default=default)


_STATE = _arg("--state", choices=("g", "e"))
_GRID = _arg(
    "--omega-q-ghz", dest="omega_q_ghz", type=_grid, required=True,
    help="grid START:STOP:COUNT in GHz",
)

# Every subcommand: name -> (help, handler, its arguments in --help order).
# The handler is named, and looked up in this module when a parser is built,
# so a wrapper set on the module attribute (bench/tracing.py) is what runs.
COMMANDS = {
    "spectrum": ("solve one configuration", "cmd_spectrum", (
        _common("spectrum.json"), _STATE, _levels(2),
    )),
    "sweep": ("tune the qubit through the fundamental", "cmd_sweep", (
        _common("sweep.csv"), _format("csv"), _STATE, _levels(2), _GRID,
    )),
    "chi": ("dispersive shift of the fundamental", "cmd_chi", (
        _common(), _format("json"), _levels(3),
    )),
    "rabi": ("avoided-crossing branches, both models", "cmd_rabi", (
        _common("rabi.csv"), _format("csv"),
        _arg("--method", choices=("jc", "sl", "both"), default="both"),
        _GRID,
    )),
    "multimode": ("divergent partial sums over modes", "cmd_multimode", (
        _common("multimode.csv"), _format("csv"),
        # a text default goes through _schedule, so each parse gets its own list
        _arg("--nmax-schedule", dest="nmax_schedule", type=_schedule,
             default=",".join(map(str, DEFAULT_SCHEDULE))),
    )),
    "parity": ("two-qubit readout map and QND checks", "cmd_parity", (
        _common(), _levels(3),
        # q2's values get TransmonSpec's own checks, so a bad one is a usage error
        _arg("--q2-frequency-ghz", type=_model_checked(_check_qubit_frequency, GHZ),
             default=None),
        _arg("--q2-anharmonicity-ghz", type=_model_checked(_check_anharmonicity, GHZ),
             default=None),
        _arg("--q2-coupling-ghz", type=_model_checked(_check_coupling, GHZ), default=None),
        _arg("--chi-p-mhz", type=_finite_float, default=None),
    )),
    "wedge": ("azimuthal modes of a wedge domain", "cmd_wedge", (
        _arg("--angle-rad", type=_model_checked(WedgeGeometry), default=math.pi / 2.0),
        _arg("--modes", type=_positive_int, default=4),
        _arg("--out", default=None),
    )),
    "validate": ("run the acceptance criteria", "cmd_validate", (
        _arg("--only", default=None, help="run a single named criterion"),
        _arg("--seed", type=_int_at_least(0), default=0),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand in COMMANDS, or of `command` alone.

    Both parse that subcommand's arguments to the same Namespace, with the
    same messages. main builds only the parser of the subcommand it runs.
    """
    parser = argparse.ArgumentParser(
        prog="dressed-modes",
        description="Dressed-mode spectra of a transmon-terminated resonator.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    if command is None:
        names = COMMANDS
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        names = [command]
        # The usage line printed with top-level errors names every subcommand.
        # Only here: on the full parser a metavar would also replace "command"
        # in its missing-command and invalid-choice errors.
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}",
        )
    for name in names:
        help_text, handler, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for add in arguments:
            add(p)
        p.set_defaults(func=globals()[handler])
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # help, --version, a missing or unknown command: the full parser answers
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # solver or validation failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
