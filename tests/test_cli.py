import json
import math
from pathlib import Path

import pytest

from dressed_modes import __version__, acceptance
from dressed_modes.cli import _grid, main

CFG = """\
resonator.length_m = 3e-3
resonator.phase_velocity_m_s = 1.2e8
resonator.impedance_ohm = 50.0
qubit.frequency_ghz = 9.0
qubit.anharmonicity_ghz = -0.25
qubit.state = g
qubit.coupling_ghz = 0.1
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "device.cfg"
    path.write_text(CFG)
    return str(path)


def read_manifest(out_path):
    with open(out_path + ".manifest.json") as fh:
        return json.load(fh)


def test_spectrum_writes_payload_and_manifest(cfg, tmp_path):
    out = str(tmp_path / "spectrum.json")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    payload = json.loads(Path(out).read_text())
    assert set(payload) == {"eigenvalues_hz", "brackets", "margins", "boundary"}
    bnd = payload["boundary"]
    assert bnd["beta"] == 0.0 and bnd["gamma"] == 0.0
    assert [p["label"] for p in bnd["poles"]] == ["ge"]
    assert bnd["poles"][0]["delta"] > 0.0
    freqs = payload["eigenvalues_hz"]
    # one qubit-like root plus six photon-like modes
    assert len(freqs) == 7
    assert 8.9e9 < freqs[0] < 9.0e9
    # fundamental pulled up from 10 GHz by the qubit sitting below it
    assert 10.0e9 < freqs[1] < 10.01e9
    assert all(lo < hi for lo, hi in payload["brackets"])
    assert all(m > 0.0 for m in payload["margins"])
    manifest = read_manifest(out)
    assert set(manifest) == {"subcommand", "config", "outputs", "seed", "version"}
    assert manifest["subcommand"] == "spectrum"
    assert manifest["version"] == __version__
    assert manifest["outputs"] == [out]
    assert manifest["config"]["resonator.length_m"] == 3e-3


def test_reruns_are_byte_identical(cfg, tmp_path):
    out = str(tmp_path / "sweep.csv")
    args = ["sweep", "--config", cfg, "--out", out, "--omega-q-ghz", "9.5:10.5:7"]
    assert main(args) == 0
    first = Path(out).read_bytes()
    first_manifest = Path(out + ".manifest.json").read_bytes()
    assert main(args) == 0
    assert Path(out).read_bytes() == first
    assert Path(out + ".manifest.json").read_bytes() == first_manifest


def test_sweep_csv_shape(cfg, tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--out", out, "--omega-q-ghz", "9.8:10.2:5"]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "omega_q_ghz,branch_lo_ghz,branch_hi_ghz,gap_ghz"
    assert len(lines) == 6
    gaps = [float(row.split(",")[3]) for row in lines[1:]]
    assert all(g > 0.0 for g in gaps)
    # on resonance the gap bottoms out near 2g = 0.2 GHz
    assert min(gaps) == pytest.approx(0.2, rel=0.05)
    assert gaps.index(min(gaps)) == 2


SAMPLE_CFG = str(Path(__file__).resolve().parent.parent / "sample_device.cfg")

# Reference bytes for the sample device: changes to the root solver or to
# the pull and fundamental-pair helpers must reproduce them exactly.
PINNED_OUTPUTS = {
    "sweep-g": (
        ["sweep", "--omega-q-ghz", "9.5:10.5:5"],
        (
            "omega_q_ghz,branch_lo_ghz,branch_hi_ghz,gap_ghz\n"
            "9.5,9.48072644173,10.0178273215,0.537100879797\n"
            "9.75,9.71477298515,10.0337537073,0.318980722141\n"
            "10,9.8992424466,10.0992573501,0.200014903485\n"
            "10.25,9.96357468742,10.2848983699,0.321323682447\n"
            "10.5,9.97928003872,10.5191664171,0.539886378381\n"
        ),
    ),
    "sweep-e": (
        ["sweep", "--state", "e", "--levels", "3", "--omega-q-ghz", "9.5:10.5:5"],
        (
            "omega_q_ghz,branch_lo_ghz,branch_hi_ghz,gap_ghz\n"
            "9.5,9.5179853752,10.0052160135,0.487230638285\n"
            "9.75,9.99838888886,30.0000698722,20.0016809833\n"
            "10,9.69116210879,30.0000741317,20.3089120229\n"
            "10.25,9.87045828728,30.0000785563,20.1296202691\n"
            "10.5,9.95000608116,10.3243158334,0.374309752277\n"
        ),
    ),
    "rabi": (
        ["rabi", "--omega-q-ghz", "9.5:10.5:5"],
        (
            "omega_q_ghz,jc_lo,jc_hi,sl_lo,sl_hi,diff\n"
            "9.5,9.48074175964,10.0192582404,9.48072644173,10.0178273215,-0.00141560091653\n"
            "9.75,9.71492189406,10.0350781059,9.71477298515,10.0337537073,-0.00117548973109\n"
            "10,9.9,10.1,9.8992424466,10.0992573501,1.49034851374e-05\n"
            "10.25,9.96492189406,10.2850781059,9.96357468742,10.2848983699,0.001167470575\n"
            "10.5,9.98074175964,10.5192582404,9.97928003872,10.5191664171,0.00136989766743\n"
        ),
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_OUTPUTS))
def test_sample_device_csv_bytes_are_pinned(key, tmp_path):
    args, expected = PINNED_OUTPUTS[key]
    out = str(tmp_path / "out.csv")
    assert main([*args, "--config", SAMPLE_CFG, "--out", out]) == 0
    assert Path(out).read_bytes() == expected.encode()


def test_sample_device_chi_csv_bytes_are_pinned(capsys):
    assert main(["chi", "--config", SAMPLE_CFG, "--csv"]) == 0
    assert capsys.readouterr().out == (
        "chi_mhz,delta_omega_g_mhz,delta_omega_e_mhz,n_crit,dispersive,straddling\n"
        "-1.95779123517,8.44403115103,4.52844868069,25,true,false\n"
    )


# Reference manifests of every file-writing subcommand on the sample device,
# with the --out path written as OUT: the config echo and the output list
# must not change when the device-file schema or the writers are reworked.
PINNED_MANIFESTS = {
    "spectrum": (
        ["spectrum", "--config", SAMPLE_CFG, "--state", "e", "--levels", "3"],
        """\
{
  "config": {
    "levels": 3,
    "qubit.anharmonicity_ghz": -0.25,
    "qubit.coupling_ghz": 0.1,
    "qubit.frequency_ghz": 9.0,
    "qubit.state": "e",
    "resonator.impedance_ohm": 50.0,
    "resonator.length_m": 0.003,
    "resonator.phase_velocity_m_s": 120000000.0
  },
  "outputs": [
    "OUT"
  ],
  "seed": 0,
  "subcommand": "spectrum",
  "version": "0.1.0"
}
""",
    ),
    "sweep": (
        ["sweep", "--config", SAMPLE_CFG, "--omega-q-ghz", "9.5:10.5:5", "--json"],
        """\
{
  "config": {
    "format": "json",
    "levels": 2,
    "qubit.anharmonicity_ghz": -0.25,
    "qubit.coupling_ghz": 0.1,
    "qubit.frequency_ghz": 9.0,
    "qubit.state": "g",
    "resonator.impedance_ohm": 50.0,
    "resonator.length_m": 0.003,
    "resonator.phase_velocity_m_s": 120000000.0,
    "sweep.omega_q_ghz": [
      9.5,
      10.5,
      5
    ]
  },
  "outputs": [
    "OUT"
  ],
  "seed": 0,
  "subcommand": "sweep",
  "version": "0.1.0"
}
""",
    ),
    "chi": (
        ["chi", "--config", SAMPLE_CFG, "--csv"],
        """\
{
  "config": {
    "format": "csv",
    "levels": 3,
    "qubit.anharmonicity_ghz": -0.25,
    "qubit.coupling_ghz": 0.1,
    "qubit.frequency_ghz": 9.0,
    "qubit.state": "g",
    "resonator.impedance_ohm": 50.0,
    "resonator.length_m": 0.003,
    "resonator.phase_velocity_m_s": 120000000.0
  },
  "outputs": [
    "OUT"
  ],
  "seed": 0,
  "subcommand": "chi",
  "version": "0.1.0"
}
""",
    ),
    "rabi": (
        ["rabi", "--config", SAMPLE_CFG, "--omega-q-ghz", "9.5:10.5:5", "--method", "jc"],
        """\
{
  "config": {
    "format": "csv",
    "method": "jc",
    "qubit.anharmonicity_ghz": -0.25,
    "qubit.coupling_ghz": 0.1,
    "qubit.frequency_ghz": 9.0,
    "qubit.state": "g",
    "resonator.impedance_ohm": 50.0,
    "resonator.length_m": 0.003,
    "resonator.phase_velocity_m_s": 120000000.0,
    "sweep.omega_q_ghz": [
      9.5,
      10.5,
      5
    ]
  },
  "outputs": [
    "OUT"
  ],
  "seed": 0,
  "subcommand": "rabi",
  "version": "0.1.0"
}
""",
    ),
    "multimode": (
        ["multimode", "--config", SAMPLE_CFG, "--nmax-schedule", "10,20"],
        """\
{
  "config": {
    "format": "csv",
    "nmax_schedule": [
      10,
      20
    ],
    "qubit.anharmonicity_ghz": -0.25,
    "qubit.coupling_ghz": 0.1,
    "qubit.frequency_ghz": 9.0,
    "qubit.state": "g",
    "resonator.impedance_ohm": 50.0,
    "resonator.length_m": 0.003,
    "resonator.phase_velocity_m_s": 120000000.0
  },
  "outputs": [
    "OUT",
    "OUT.fits.json"
  ],
  "seed": 0,
  "subcommand": "multimode",
  "version": "0.1.0"
}
""",
    ),
    "parity": (
        ["parity", "--config", SAMPLE_CFG, "--q2-frequency-ghz", "8.6"],
        """\
{
  "config": {
    "levels": 3,
    "q2.anharmonicity_ghz": -0.25,
    "q2.coupling_ghz": 0.1,
    "q2.frequency_ghz": 8.6,
    "qubit.anharmonicity_ghz": -0.25,
    "qubit.coupling_ghz": 0.1,
    "qubit.frequency_ghz": 9.0,
    "qubit.state": "g",
    "resonator.impedance_ohm": 50.0,
    "resonator.length_m": 0.003,
    "resonator.phase_velocity_m_s": 120000000.0
  },
  "outputs": [
    "OUT"
  ],
  "seed": 0,
  "subcommand": "parity",
  "version": "0.1.0"
}
""",
    ),
    "wedge": (
        ["wedge", "--angle-rad", "1.3", "--modes", "5"],
        """\
{
  "config": {
    "angle_rad": 1.3,
    "modes": 5
  },
  "outputs": [
    "OUT"
  ],
  "seed": 0,
  "subcommand": "wedge",
  "version": "0.1.0"
}
""",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_MANIFESTS))
def test_sample_device_manifest_bytes_are_pinned(key, tmp_path):
    args, expected = PINNED_MANIFESTS[key]
    out = str(tmp_path / "out")
    assert main([*args, "--out", out]) == 0
    text = Path(out + ".manifest.json").read_text(encoding="utf-8")
    assert text.replace(out, "OUT") == expected


def test_sweep_json_format(cfg, tmp_path):
    out = str(tmp_path / "sweep.json")
    args = ["sweep", "--config", cfg, "--out", out, "--omega-q-ghz", "9.9:10.1:3",
            "--json"]
    assert main(args) == 0
    rows = json.loads(Path(out).read_text())
    assert len(rows) == 3
    assert set(rows[0]) == {"omega_q_ghz", "branch_lo_ghz", "branch_hi_ghz", "gap_ghz"}
    manifest = read_manifest(out)
    assert manifest["config"]["format"] == "json"


def test_chi_csv_format(cfg, capsys):
    assert main(["chi", "--config", cfg, "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "chi_mhz,delta_omega_g_mhz,delta_omega_e_mhz,n_crit,dispersive,straddling"
    )
    cells = lines[1].split(",")
    assert float(cells[0]) == pytest.approx(-1.96, rel=0.02)
    assert cells[4] == "true" and cells[5] == "false"


def test_format_flags_mutually_exclusive(cfg):
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--config", cfg, "--csv", "--json"])
    assert exc.value.code == 2


def test_chi_prints_report(cfg, capsys):
    assert main(["chi", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "chi_mhz", "delta_omega_g_mhz", "delta_omega_e_mhz", "n_crit", "flags",
    }
    assert payload["chi_mhz"] == pytest.approx(-1.96, rel=0.02)
    assert payload["n_crit"] == pytest.approx(25.0, rel=1e-6)
    assert payload["flags"] == {"dispersive": True, "straddling": False}


def test_rabi_jc_only_leaves_blank_columns(cfg, tmp_path):
    out = str(tmp_path / "rabi.csv")
    args = ["rabi", "--config", cfg, "--out", out, "--omega-q-ghz", "10:10:1",
            "--method", "jc"]
    assert main(args) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "omega_q_ghz,jc_lo,jc_hi,sl_lo,sl_hi,diff"
    cells = lines[1].split(",")
    assert cells[3] == cells[4] == cells[5] == ""
    assert float(cells[2]) - float(cells[1]) == pytest.approx(0.2, rel=1e-9)


def test_rabi_both_reports_model_difference(cfg, tmp_path):
    out = str(tmp_path / "rabi.csv")
    args = ["rabi", "--config", cfg, "--out", out, "--omega-q-ghz", "10:10:1"]
    assert main(args) == 0
    cells = Path(out).read_text().splitlines()[1].split(",")
    diff = float(cells[5])
    # the two models agree on the splitting to a part in 1e4 here
    assert abs(diff) < 1e-4


def test_multimode_writes_fit_sidecar(cfg, tmp_path):
    out = str(tmp_path / "multimode.csv")
    assert main(["multimode", "--config", cfg, "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "n_max,lamb_ghz,chi_ghz"
    assert len(lines) == 5
    fits = json.loads(Path(out + ".fits.json").read_text())
    assert set(fits) == {
        "lamb_slope_ghz_per_mode", "lamb_intercept_ghz", "lamb_r_squared",
        "chi_increments_ghz", "chi_increment_spread",
        "chi_increment_asymptote_ghz", "degenerate",
    }
    assert fits["lamb_slope_ghz_per_mode"] == pytest.approx(-1e-3, rel=0.01)
    assert fits["lamb_r_squared"] > 0.999
    assert not fits["degenerate"]
    manifest = read_manifest(out)
    assert manifest["outputs"] == [out, out + ".fits.json"]


def test_parity_matched_defaults(cfg, capsys):
    assert main(["parity", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["odd_gap_mhz"] == 0.0
    assert payload["protected"] == ["ge-eg"]
    assert payload["even_gap_mhz"] > 0.0
    norms = payload["commutator_norms"]
    assert norms["hint_sz"] == 0.0
    assert norms["sx_identity_residual"] == 0.0
    assert norms["hint_sx"] > 0.0
    assert norms["hdisp_parity"] == 0.0
    assert "engineered" not in payload


def test_parity_detuned_second_qubit(cfg, capsys):
    args = ["parity", "--config", cfg, "--q2-frequency-ghz", "8.6",
            "--q2-anharmonicity-ghz", "-0.22", "--q2-coupling-ghz", "0.12"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["odd_gap_mhz"] > 0.0
    assert payload["protected"] == []


def test_parity_engineered_block(cfg, capsys):
    assert main(["parity", "--config", cfg, "--chi-p-mhz", "-1.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    eng = payload["engineered"]
    assert eng["chi_p_mhz"] == -1.5
    assert (eng["even_ghz"] - eng["odd_ghz"]) * 1000.0 == pytest.approx(-3.0, rel=1e-9)


def test_wedge_defaults(capsys):
    assert main(["wedge"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["angle_rad"] == pytest.approx(math.pi / 2.0)
    assert payload["wavenumbers"] == pytest.approx([2.0, 4.0, 6.0, 8.0])
    assert payload["orthogonality_max_error"] <= 1e-9
    assert payload["wall_derivative_values"]["1"] == [1.0, -1.0]


# stdout of `validate --seed 0`: the criteria's measured values and margins
VALIDATE_SEED_0 = (
    "[PASS] open-circuit reduction: worst relative error 1.887e-16 over first 5 modes (tol 1e-10)\n"
    "[PASS] derivative identity: zeros: worst 0.000e+00 (tol 1e-12); finite differences: worst 7.836e-08 over 1000 points (tol 1e-6)\n"
    "[PASS] interlacing: 1000/1000 configurations solved, 0 interlacing failures\n"
    "[PASS] level repulsion: min eigenvalue-pole relative margin 6.223e-07; min crossing gap 0.200015 GHz over 41 points\n"
    "[PASS] vacuum Rabi matching: g/omega_r=0.01: |gap-2g|/2g = 7.451743e-05 (tol 0.005); g/omega_r=0.15: |gap-2g|/2g = 1.761752e-02 (tol 0.05)\n"
    "[PASS] dispersive-shift triangle: 50 draws, worst pairwise error at 0.919 of tolerance\n"
    "[PASS] multimode divergences: Lamb linear fit R^2 = 1.000000 (need > 0.999); chi doubling-increment spread 0.003 (need <= 0.10)\n"
    "[PASS] two-qubit structure: matched: odd gap 0.0, even gap = 4|chi|: True; QND commutator 0.0e+00 vs 1e-14*|H| = 6.3e-03; additivity deviation 1.345e-04 GHz (tol 7.666e-04)\n"
    "[PASS] commutator algebra: [H_int, sz] = 0.0, sx identity residual = 0.0, [H_int, sx] = 1.885e+08\n"
    "[PASS] approximation audit: 1 dressed mode(s) within 5% of the fundamental; worst relative disagreement 1.414e-06 (tol 1e-2)\n"
    "[PASS] wedge: mu_n exact: True; worst overlap error 2.776e-16 (tol 1e-9); angular-derivative value at the wall = 1.0\n"
    "11/11 criteria passed\n"
)


def test_validate_seed_0_stdout_is_pinned(gate_results, monkeypatch, capsys):
    """The report is printed from the session's seed-0 gate run, so the gate
    itself runs once per test session."""
    calls = []

    def run_all(only=None, seed=0):
        calls.append((only, seed))
        return gate_results

    monkeypatch.setattr(acceptance, "run_all", run_all)
    assert main(["validate", "--seed", "0"]) == 0
    assert calls == [(None, 0)]
    assert capsys.readouterr().out == VALIDATE_SEED_0


def test_validate_single_criterion(capsys):
    assert main(["validate", "--only", "open-circuit"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] open-circuit" in out
    assert "1/1 criteria passed" in out


def test_validate_unknown_criterion():
    assert main(["validate", "--only", "bogus"]) == 1


def test_missing_config_exits_3(tmp_path):
    assert main(["chi", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_incomplete_config_exits_3(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("resonator.length_m = 3e-3\n")
    assert main(["chi", "--config", str(path)]) == 3


@pytest.mark.parametrize(
    "key, value",
    [
        ("qubit.frequency_ghz", "nan"),
        ("qubit.coupling_ghz", "inf"),
        ("resonator.length_m", "nan"),
    ],
)
def test_non_finite_config_value_exits_3(tmp_path, key, value):
    path = tmp_path / "device.cfg"
    path.write_text(CFG.replace(f"{key} = ", f"{key} = {value} # "))
    assert main(["chi", "--config", str(path)]) == 3


@pytest.mark.parametrize("key", ["resonator.length_m", "qubit.coupling_ghz"])
def test_boolean_json_config_value_exits_3(tmp_path, key):
    data = {}
    for line in CFG.splitlines():
        k, _, v = line.partition(" = ")
        data[k] = v if k == "qubit.state" else float(v)
    data[key] = True
    path = tmp_path / "device.json"
    path.write_text(json.dumps(data))
    assert main(["chi", "--config", str(path)]) == 3


@pytest.mark.parametrize("suffix", [".cfg", ".json"])
@pytest.mark.parametrize("key", ["qubit.cj_F", "qubit.lj_h"])
def test_unknown_config_key_exits_3_and_names_it(tmp_path, capsys, suffix, key):
    path = tmp_path / f"device{suffix}"
    if suffix == ".json":
        data = dict(line.split(" = ") for line in CFG.splitlines())
        path.write_text(json.dumps({**data, key: 5e-15}))
    else:
        path.write_text(CFG + f"{key} = 5e-15\n")
    assert main(["chi", "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"config error: unknown key: {key}\n"


def test_junction_capacitance_key_still_runs(tmp_path, capsys):
    path = tmp_path / "device.cfg"
    path.write_text(CFG + "qubit.cj_f = 5e-15\n")
    assert main(["chi", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["delta_omega_g_mhz"] > 100.0


def test_usage_errors_exit_2(cfg):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    for grid in ("9.8:10.2", "nan:1:3"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--omega-q-ghz", grid])
        assert exc.value.code == 2
    # non-finite numbers and empty mode counts used to exit 0 (writing NaN or
    # Infinity, which is not JSON, or nothing at all) or 1
    bad = [["parity", "--config", cfg, opt, value]
           for opt in ("--chi-p-mhz", "--q2-frequency-ghz", "--q2-anharmonicity-ghz",
                       "--q2-coupling-ghz")
           for value in ("nan", "inf", "-inf")]
    bad += [["wedge", "--angle-rad", value] for value in ("nan", "inf")]
    bad += [["wedge", "--modes", value] for value in ("0", "-3", "2.5")]
    # a schedule needs at least two distinct cutoffs, each >= 1; these used to exit 1
    bad += [["multimode", "--config", cfg, f"--nmax-schedule={value}"]
            for value in ("0,100", "-5,100", "", "100", "100,100")]
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_grid_parsing():
    assert _grid("1:2:3") == [1.0, 1.5, 2.0]
    assert _grid("5:9:1") == [5.0]
    grid = _grid("0:1:11")
    assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 11
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _grid("1:2:0")
    with pytest.raises(argparse.ArgumentTypeError):
        _grid("a:b:c")
    for text in ("nan:1:3", "1:inf:3", "-inf:1:3"):
        with pytest.raises(argparse.ArgumentTypeError):
            _grid(text)
