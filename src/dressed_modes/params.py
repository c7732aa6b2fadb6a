"""Device parameter records, unit conversions and config parsing.

All frequencies are angular (rad/s) internally; config files take GHz.
Lengths in meters, capacitances in farads, inductances in henries.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
    junction_inductance: float | None = None

    def __post_init__(self):
        if self.state not in ("g", "e"):
            raise ValueError("state must be 'g' or 'e'")
        for name in ("frequency", "anharmonicity", "coupling", "charge_element",
                     "junction_capacitance", "junction_inductance"):
            value = getattr(self, name)
            if value is not None and not _finite(value):
                raise ValueError(f"{name} must be a finite number")
        if self.frequency <= 0.0:
            raise ValueError("qubit frequency must be positive")
        if self.anharmonicity >= 0.0:
            raise ValueError("anharmonicity must be negative")
        given = (self.coupling is not None) + (self.charge_element is not None)
        if given != 1:
            raise ValueError(
                "exactly one of coupling or charge_element must be given"
            )
        if self.coupling is not None and self.coupling < 0.0:
            raise ValueError("coupling must be nonnegative")
        if self.charge_element is not None and self.charge_element < 0.0:
            raise ValueError("charge_element must be nonnegative")
        for name in ("junction_capacitance", "junction_inductance"):
            val = getattr(self, name)
            if val is not None and val <= 0.0:
                raise ValueError(f"{name} must be positive when given")

    @property
    def ef_frequency(self) -> float:
        """Transition frequency of the e-f ladder step, omega_q + alpha."""
        return self.frequency + self.anharmonicity


_RESONATOR_KEYS = {
    "resonator.length_m": "length",
    "resonator.phase_velocity_m_s": "phase_velocity",
    "resonator.impedance_ohm": "impedance",
}

_QUBIT_FREQ_KEYS = {
    "qubit.frequency_ghz": "frequency",
    "qubit.anharmonicity_ghz": "anharmonicity",
    "qubit.coupling_ghz": "coupling",
}


def _parse_flat_text(text: str) -> dict:
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


def _coerce(value):
    if isinstance(value, bool):
        return value    # not a number, though Python counts it as 0/1
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return value


def load_config(path) -> tuple[DeviceParams, TransmonSpec, dict]:
    """Parse a device config (flat key=value text, or a flat JSON object).

    Returns (DeviceParams, TransmonSpec, options) where options holds any
    keys the loader did not consume, values coerced to float when possible.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{") or str(path).endswith(".json"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("JSON config must be a flat object")
        data = {str(k): v for k, v in raw.items()}
    else:
        data = _parse_flat_text(text)

    def take(key, required=True):
        if key not in data:
            if required:
                raise ConfigError(f"missing key: {key}")
            return None
        return data.pop(key)

    res_kwargs = {}
    for key, field in _RESONATOR_KEYS.items():
        res_kwargs[field] = _coerce(take(key))
        if not isinstance(res_kwargs[field], float):
            raise ConfigError(f"{key} must be a number")

    freq = _coerce(take("qubit.frequency_ghz"))
    alpha = _coerce(take("qubit.anharmonicity_ghz"))
    state = take("qubit.state")
    coupling = _coerce(take("qubit.coupling_ghz", required=False))
    charge = _coerce(take("qubit.charge_element_C", required=False))
    cj = _coerce(take("qubit.cj_f", required=False))
    lj = _coerce(take("qubit.lj_h", required=False))

    for name, val in (
        ("qubit.frequency_ghz", freq), ("qubit.anharmonicity_ghz", alpha),
        ("qubit.coupling_ghz", coupling), ("qubit.charge_element_C", charge),
        ("qubit.cj_f", cj), ("qubit.lj_h", lj),
    ):
        if val is not None and not isinstance(val, float):
            raise ConfigError(f"{name} must be a number")
    if not isinstance(state, str):
        raise ConfigError("qubit.state must be 'g' or 'e'")

    try:
        dev = DeviceParams(**res_kwargs)
        spec = TransmonSpec(
            state=state.strip(),
            frequency=freq * GHZ,
            anharmonicity=alpha * GHZ,
            coupling=None if coupling is None else coupling * GHZ,
            charge_element=charge,
            junction_capacitance=cj,
            junction_inductance=lj,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    options = {k: _coerce(v) for k, v in data.items()}
    return dev, spec, options
