import json
import math

import pytest

from dressed_modes import (
    GHZ,
    ConfigError,
    DeviceParams,
    TransmonSpec,
    config_snapshot,
    lambda_to_omega,
    load_config,
    omega_to_lambda,
)
from dressed_modes.params import _parse_flat_text

DEV = DeviceParams(length=3e-3, phase_velocity=1.2e8, impedance=50.0)


def test_fundamental_is_quarter_wave():
    assert DEV.fundamental_frequency == pytest.approx(math.pi * 1.2e8 / 6e-3)
    assert DEV.fundamental_frequency / GHZ == pytest.approx(10.0)


def test_line_constants_compose():
    # ell * c = 1/v^2 and sqrt(ell/c) = Z0
    ell, c = DEV.inductance_per_length, DEV.capacitance_per_length
    assert ell * c == pytest.approx(1.0 / DEV.phase_velocity**2, rel=1e-14)
    assert math.sqrt(ell / c) == pytest.approx(DEV.impedance, rel=1e-14)
    assert DEV.total_capacitance == pytest.approx(c * DEV.length, rel=1e-15)


def test_lambda_roundtrip():
    omega = 2.0 * math.pi * 7.3e9
    lam = omega_to_lambda(omega, DEV.phase_velocity)
    assert lam == pytest.approx((omega / DEV.phase_velocity) ** 2, rel=1e-15)
    assert lambda_to_omega(lam, DEV.phase_velocity) == pytest.approx(omega, rel=1e-15)


@pytest.mark.parametrize("field", ["length", "phase_velocity", "impedance"])
def test_device_rejects_nonpositive(field):
    for bad in (0.0, math.nan, math.inf, True):
        kwargs = dict(length=3e-3, phase_velocity=1.2e8, impedance=50.0)
        kwargs[field] = bad
        with pytest.raises(ValueError):
            DeviceParams(**kwargs)


def test_spec_validation():
    ok = TransmonSpec(state="g", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ, coupling=0.1 * GHZ)
    assert ok.ef_frequency == pytest.approx(8.75 * GHZ)
    with pytest.raises(ValueError, match="state"):
        TransmonSpec(state="f", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ, coupling=0.1 * GHZ)
    with pytest.raises(ValueError, match="anharmonicity"):
        TransmonSpec(state="g", frequency=9 * GHZ, anharmonicity=0.0, coupling=0.1 * GHZ)
    with pytest.raises(ValueError, match="exactly one"):
        TransmonSpec(state="g", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ)
    with pytest.raises(ValueError, match="exactly one"):
        TransmonSpec(
            state="g",
            frequency=9 * GHZ,
            anharmonicity=-0.25 * GHZ,
            coupling=0.1 * GHZ,
            charge_element=1e-19,
        )
    with pytest.raises(ValueError, match="charge_element must be nonnegative"):
        TransmonSpec(
            state="g", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ, charge_element=-1e-19
        )
    for cj in (0.0, -1e-15):
        with pytest.raises(ValueError, match="junction_capacitance must be positive when given"):
            TransmonSpec(
                state="g", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ, coupling=0.1 * GHZ,
                junction_capacitance=cj,
            )
    for field in (
        "frequency", "anharmonicity", "coupling", "charge_element", "junction_capacitance"
    ):
        for bad in (math.nan, math.inf, -math.inf, True):
            kwargs = dict(
                state="g", frequency=9 * GHZ, anharmonicity=-0.25 * GHZ, coupling=0.1 * GHZ
            )
            if field == "charge_element":
                kwargs["coupling"] = None
            kwargs[field] = bad
            with pytest.raises(ValueError):
                TransmonSpec(**kwargs)


CFG_TEXT = """\
# comment survives
resonator.length_m = 3e-3
resonator.phase_velocity_m_s = 1.2e8
resonator.impedance_ohm = 50.0
qubit.frequency_ghz = 9.0   # trailing comment
qubit.anharmonicity_ghz = -0.25
qubit.state = g
qubit.coupling_ghz = 0.1
"""


def test_load_config_text(tmp_path):
    path = tmp_path / "dev.cfg"
    path.write_text(CFG_TEXT, encoding="utf-8")
    dev, spec = load_config(path)
    assert dev.length == 3e-3
    assert spec.frequency == pytest.approx(9.0 * GHZ, rel=1e-15)
    assert spec.anharmonicity == pytest.approx(-0.25 * GHZ, rel=1e-15)
    assert spec.coupling == pytest.approx(0.1 * GHZ, rel=1e-15)
    assert spec.state == "g"


def test_load_config_json(tmp_path):
    payload = {
        "resonator.length_m": 3e-3,
        "resonator.phase_velocity_m_s": 1.2e8,
        "resonator.impedance_ohm": 50.0,
        "qubit.frequency_ghz": 8.5,
        "qubit.anharmonicity_ghz": -0.2,
        "qubit.state": "e",
        "qubit.charge_element_C": 2.5e-19,
    }
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    dev, spec = load_config(path)
    assert spec.state == "e"
    assert spec.coupling is None
    assert spec.charge_element == 2.5e-19


def test_load_config_missing_key(tmp_path):
    path = tmp_path / "dev.cfg"
    path.write_text("resonator.length_m = 3e-3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="missing key"):
        load_config(path)


def test_load_config_bad_line(tmp_path):
    path = tmp_path / "dev.cfg"
    path.write_text("no equals sign here\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_invalid_values_wrapped(tmp_path):
    path = tmp_path / "dev.cfg"
    path.write_text(CFG_TEXT.replace("-0.25", "0.25"), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("suffix", [".cfg", ".json"])
@pytest.mark.parametrize("extra", ["qubit.cj_F = 5e-15", "qubit.lj_h = 1e-8", "solver.knob = 7"])
def test_load_config_rejects_unknown_keys(tmp_path, suffix, extra):
    text = CFG_TEXT + extra + "\n"
    path = tmp_path / f"dev{suffix}"
    if suffix == ".json":   # the same keys, every value a JSON string
        text = json.dumps(_parse_flat_text(text))
    path.write_text(text, encoding="utf-8")
    key = extra.partition(" =")[0]
    with pytest.raises(ConfigError, match=f"unknown key: {key}$"):
        load_config(path)


def test_load_config_rejects_a_key_set_twice_in_the_flat_format(tmp_path):
    """Both lengths used to load, the last one silently winning."""
    path = tmp_path / "dev.cfg"
    path.write_text(
        CFG_TEXT.replace("resonator.length_m = 3e-3\n", "resonator.length_m = 9e-3\n")
        + "resonator.length_m = 3e-3\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match=r"^line 9: duplicate key resonator.length_m "
                                          r"\(first set on line 2\)$"):
        load_config(path)


def test_load_config_rejects_a_key_set_twice_in_json(tmp_path):
    path = tmp_path / "dev.json"
    text = json.dumps(_parse_flat_text(CFG_TEXT))
    path.write_text(text[:-1] + ', "resonator.length_m": "9e-3"}', encoding="utf-8")
    with pytest.raises(ConfigError, match="^duplicate key resonator.length_m$"):
        load_config(path)


CJ_CFG_TEXT = """\
resonator.length_m = 4.1e-3
resonator.phase_velocity_m_s = 1.17e8
resonator.impedance_ohm = 47.3
qubit.frequency_ghz = 6.3
qubit.anharmonicity_ghz = -0.21
qubit.state = e
qubit.charge_element_C = 2.5e-19
qubit.cj_f = 5e-15
"""


@pytest.mark.parametrize("text", [CFG_TEXT, CJ_CFG_TEXT], ids=["coupling", "charge-cj"])
@pytest.mark.parametrize("suffix", [".cfg", ".json"])
def test_config_snapshot_round_trips(tmp_path, text, suffix):
    path = tmp_path / "dev.cfg"
    path.write_text(text, encoding="utf-8")
    dev, spec = load_config(path)
    snap = config_snapshot(dev, spec)
    again = tmp_path / f"again{suffix}"
    if suffix == ".json":
        again.write_text(json.dumps(snap), encoding="utf-8")
    else:
        again.write_text("".join(f"{k} = {v}\n" for k, v in snap.items()), encoding="utf-8")
    assert load_config(again) == (dev, spec)
