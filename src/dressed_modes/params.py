"""Device parameter records, unit conversions and config parsing.

All frequencies are angular (rad/s) internally; config files take GHz.
Lengths in meters, capacitances in farads, inductances in henries.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass

from .errors import ConfigError

HBAR = 1.054571817e-34  # J s

GHZ = 2.0 * math.pi * 1e9  # rad/s per GHz


def omega_to_lambda(omega: float, v: float) -> float:
    """Map angular frequency to the spectral parameter lam = (omega/v)^2 [1/m^2]."""
    if v <= 0.0:
        raise ValueError("phase velocity must be positive")
    return (omega / v) ** 2


def lambda_to_omega(lam: float, v: float) -> float:
    """Inverse of omega_to_lambda on the propagating branch (omega >= 0)."""
    if lam < 0.0:
        raise ValueError("spectral parameter must be nonnegative")
    if v <= 0.0:
        raise ValueError("phase velocity must be positive")
    return v * math.sqrt(lam)


def _finite(value) -> bool:
    """A finite number: no nan or inf, and no bool, which Python counts as 0/1."""
    return not isinstance(value, bool) and math.isfinite(value)


def _check_finite(name: str, value) -> None:
    if value is not None and not _finite(value):
        raise ValueError(f"{name} must be a finite number")


def _check_qubit_frequency(omega_q) -> None:
    """TransmonSpec's checks on its `frequency`, with its messages: a finite
    number, and positive. Boundaries built at another omega_q than a spec's
    run them too."""
    _check_finite("frequency", omega_q)
    if omega_q <= 0.0:
        raise ValueError("qubit frequency must be positive")


def _check_anharmonicity(alpha) -> None:
    """TransmonSpec's checks on its `anharmonicity`, with its messages: a
    finite number, and negative."""
    _check_finite("anharmonicity", alpha)
    if alpha >= 0.0:
        raise ValueError("anharmonicity must be negative")


def _check_coupling(g) -> None:
    """TransmonSpec's checks on a given `coupling`, with its messages: a
    finite number, and nonnegative."""
    _check_finite("coupling", g)
    if g < 0.0:
        raise ValueError("coupling must be nonnegative")


@dataclass(frozen=True)
class DeviceParams:
    """Transmission-line resonator: length [m], phase velocity [m/s], impedance [ohm]."""

    length: float
    phase_velocity: float
    impedance: float

    def __post_init__(self):
        for name in ("length", "phase_velocity", "impedance"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def inductance_per_length(self) -> float:
        return self.impedance / self.phase_velocity

    @property
    def capacitance_per_length(self) -> float:
        return 1.0 / (self.impedance * self.phase_velocity)

    @property
    def total_capacitance(self) -> float:
        return self.capacitance_per_length * self.length

    @property
    def fundamental_frequency(self) -> float:
        """Quarter-wave fundamental pi*v/(2L) of the shorted-open line [rad/s]."""
        return math.pi * self.phase_velocity / (2.0 * self.length)


@dataclass(frozen=True)
class TransmonSpec:
    """Transmon terminating the line.

    Exactly one of `coupling` (vacuum Rabi rate g, rad/s) or `charge_element`
    (|Q_ge|, coulombs) must be given; the other is derived where needed.
    """

    state: str
    frequency: float        # omega_q, rad/s
    anharmonicity: float    # alpha, rad/s, negative for a transmon
    coupling: float | None = None
    charge_element: float | None = None
    junction_capacitance: float | None = None

    def __post_init__(self):
        if self.state not in ("g", "e"):
            raise ValueError("state must be 'g' or 'e'")
        for name in ("frequency", "anharmonicity", "coupling", "charge_element",
                     "junction_capacitance"):
            _check_finite(name, getattr(self, name))
        _check_qubit_frequency(self.frequency)
        _check_anharmonicity(self.anharmonicity)
        given = (self.coupling is not None) + (self.charge_element is not None)
        if given != 1:
            raise ValueError(
                "exactly one of coupling or charge_element must be given"
            )
        if self.coupling is not None:
            _check_coupling(self.coupling)
        if self.charge_element is not None and self.charge_element < 0.0:
            raise ValueError("charge_element must be nonnegative")
        if self.junction_capacitance is not None and self.junction_capacitance <= 0.0:
            raise ValueError("junction_capacitance must be positive when given")

    @property
    def ef_frequency(self) -> float:
        """Transition frequency of the e-f ladder step, omega_q + alpha."""
        return self.frequency + self.anharmonicity


# The device-file format: key -> (record, field, unit). A number in the file
# times its unit is the field value; unit None marks the one text key. A key
# is required when its field has no default in DeviceParams / TransmonSpec.
CONFIG_KEYS = {
    "resonator.length_m": ("dev", "length", 1.0),
    "resonator.phase_velocity_m_s": ("dev", "phase_velocity", 1.0),
    "resonator.impedance_ohm": ("dev", "impedance", 1.0),
    "qubit.frequency_ghz": ("spec", "frequency", GHZ),
    "qubit.anharmonicity_ghz": ("spec", "anharmonicity", GHZ),
    "qubit.state": ("spec", "state", None),
    "qubit.coupling_ghz": ("spec", "coupling", GHZ),
    "qubit.charge_element_C": ("spec", "charge_element", 1.0),
    "qubit.cj_f": ("spec", "junction_capacitance", 1.0),
}

_RECORDS = {"dev": DeviceParams, "spec": TransmonSpec}


def _parse_flat_text(text: str) -> dict:
    data, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first:
            raise ConfigError(
                f"line {lineno}: duplicate key {key} (first set on line {first[key]})"
            )
        first[key] = lineno
        data[key] = value.strip()
    return data


def _unique_pairs(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; ConfigError on a
    repeated key, which json.loads would resolve to its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate key {key}")
        data[key] = value
    return data


def _number(key: str, value) -> float:
    if not isinstance(value, bool):     # Python counts a bool as 0/1
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key} must be a number")


def load_config(path) -> tuple[DeviceParams, TransmonSpec]:
    """Parse a device config (flat key=value text, or a flat JSON object).

    Every key must be one of CONFIG_KEYS, set once; any other key, or one
    set twice, is a ConfigError, and so is text that is not UTF-8.
    Returns (DeviceParams, TransmonSpec).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(str(exc)) from exc
    stripped = text.lstrip()
    if stripped.startswith("{") or str(path).endswith(".json"):
        try:
            raw = json.loads(text, object_pairs_hook=_unique_pairs)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("JSON config must be a flat object")
        data = {str(k): v for k, v in raw.items()}
    else:
        data = _parse_flat_text(text)

    unknown = [key for key in data if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown key: {', '.join(unknown)}")
    kwargs = {record: {} for record in _RECORDS}
    for key, (record, name, unit) in CONFIG_KEYS.items():
        if key not in data:
            if _RECORDS[record].__dataclass_fields__[name].default is MISSING:
                raise ConfigError(f"missing key: {key}")
        elif unit is None:
            if not isinstance(data[key], str):
                raise ConfigError(f"{key} must be text")
            kwargs[record][name] = data[key].strip()
        else:
            kwargs[record][name] = _number(key, data[key]) * unit
    try:
        return DeviceParams(**kwargs["dev"]), TransmonSpec(**kwargs["spec"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_snapshot(dev: DeviceParams, spec: TransmonSpec) -> dict:
    """The device-file keys of dev and spec, values in file units.

    Optional fields left unset are omitted, so the snapshot is itself a
    valid config.
    """
    records = {"dev": dev, "spec": spec}
    snap = {}
    for key, (record, name, unit) in CONFIG_KEYS.items():
        value = getattr(records[record], name)
        if value is not None:
            snap[key] = value if unit is None else value / unit
    return snap
