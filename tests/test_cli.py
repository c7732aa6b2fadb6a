import argparse
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dressed_modes import __version__, acceptance
from dressed_modes.cli import COMMANDS, _NOT_RECORDED, _grid, _json_text, build_parser, main
from dressed_modes.params import CONFIG_KEYS, GHZ

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
    assert set(manifest) == {"subcommand", "config", "outputs", "version"}
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
    "multimode": (
        ["multimode"],
        (
            "n_max,lamb_ghz,chi_ghz\n"
            "100,-0.111294329152,-0.00207198521632\n"
            "200,-0.211607259891,-0.00208070526316\n"
            "400,-0.411919682875,-0.00208939739682\n"
            "800,-0.812231852357,-0.00209807561864\n"
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


# Reference JSON files and printed reports of the sample device. Left out:
# multimode's .fits.json (np.polyfit) and wedge (numpy sums), whose low bits
# depend on the LAPACK and numpy build.
PINNED_JSON_OUTPUTS = {
    "spectrum-g": (
        ["spectrum"],
        """\
{
  "boundary": {
    "beta": 0.0,
    "gamma": 0.0,
    "poles": [
      {
        "delta": 36528.40913775092,
        "label": "ge",
        "lambda": 222066.0990245106
      }
    ]
  },
  "brackets": [
    [
      0.0,
      222066.0990245106
    ],
    [
      222066.0990245106,
      1096622.711232151
    ],
    [
      1096622.711232151,
      4386490.844928604
    ],
    [
      4386490.844928604,
      9869604.401089357
    ],
    [
      9869604.401089357,
      17545963.379714414
    ],
    [
      17545963.379714414,
      27415567.78080377
    ],
    [
      27415567.78080377,
      39478378.12593982
    ]
  ],
  "eigenvalues_hz": [
    8990164475.540096,
    10008444031.151031,
    30000065933.602547,
    50000013393.95344,
    70000004802.418,
    90000002244.66873,
    110000001225.33257
  ],
  "margins": [
    0.002184477811566727,
    0.23665372746521843,
    10.111159950870368,
    29.864214066611403,
    59.49383546096965,
    99.0000049881528,
    148.38271937744648
  ]
}
""",
    ),
    "spectrum-e": (
        ["spectrum", "--state", "e", "--levels", "3"],
        """\
{
  "boundary": {
    "beta": 0.0,
    "gamma": 0.0,
    "poles": [
      {
        "delta": 69054.47715084084,
        "label": "ef",
        "lambda": 209900.4408217789
      },
      {
        "delta": -36528.40913775092,
        "label": "eg",
        "lambda": 222066.0990245106
      }
    ]
  },
  "brackets": [
    [
      0.0,
      209900.4408217789
    ],
    [
      222066.0990245106,
      225239.13270989634
    ],
    [
      228412.16639528208,
      1096622.711232151
    ],
    [
      1096622.711232151,
      4386490.844928604
    ],
    [
      4386490.844928604,
      9869604.401089357
    ],
    [
      9869604.401089357,
      17545963.379714414
    ],
    [
      17545963.379714414,
      27415567.78080377
    ],
    [
      27415567.78080377,
      39478378.12593982
    ]
  ],
  "eigenvalues_hz": [
    8734826623.446438,
    9009308858.52884,
    10004528448.680687,
    30000058037.747368,
    50000011880.043686,
    70000004267.875,
    90000001996.37822,
    110000001090.22055
  ],
  "margins": [
    0.003465193251674353,
    0.0020697050415579257,
    0.23568628988223672,
    10.111154102076672,
    29.864212197586525,
    59.49383453706812,
    99.0000044363961,
    148.38271901047554
  ]
}
""",
    ),
    "sweep": (
        ["sweep", "--omega-q-ghz", "9.5:10.5:5", "--json"],
        """\
[
  {
    "branch_hi_ghz": 10.017827321527093,
    "branch_lo_ghz": 9.480726441730175,
    "gap_ghz": 0.5371008797969178,
    "omega_q_ghz": 9.5
  },
  {
    "branch_hi_ghz": 10.033753707291673,
    "branch_lo_ghz": 9.714772985151125,
    "gap_ghz": 0.3189807221405474,
    "omega_q_ghz": 9.75
  },
  {
    "branch_hi_ghz": 10.099257350086438,
    "branch_lo_ghz": 9.899242446601301,
    "gap_ghz": 0.2000149034851367,
    "omega_q_ghz": 10.0
  },
  {
    "branch_hi_ghz": 10.284898369866877,
    "branch_lo_ghz": 9.963574687420234,
    "gap_ghz": 0.32132368244664367,
    "omega_q_ghz": 10.25
  },
  {
    "branch_hi_ghz": 10.519166417105085,
    "branch_lo_ghz": 9.979280038724202,
    "gap_ghz": 0.539886378380883,
    "omega_q_ghz": 10.5
  }
]
""",
    ),
    "rabi-jc": (
        ["rabi", "--omega-q-ghz", "9.5:10.5:5", "--json", "--method", "jc"],
        """\
[
  {
    "diff": null,
    "jc_hi": 10.019258240356724,
    "jc_lo": 9.480741759643275,
    "omega_q_ghz": 9.5,
    "sl_hi": null,
    "sl_lo": null
  },
  {
    "diff": null,
    "jc_hi": 10.03507810593582,
    "jc_lo": 9.71492189406418,
    "omega_q_ghz": 9.75,
    "sl_hi": null,
    "sl_lo": null
  },
  {
    "diff": null,
    "jc_hi": 10.1,
    "jc_lo": 9.9,
    "omega_q_ghz": 10.0,
    "sl_hi": null,
    "sl_lo": null
  },
  {
    "diff": null,
    "jc_hi": 10.28507810593582,
    "jc_lo": 9.96492189406418,
    "omega_q_ghz": 10.25,
    "sl_hi": null,
    "sl_lo": null
  },
  {
    "diff": null,
    "jc_hi": 10.519258240356725,
    "jc_lo": 9.980741759643275,
    "omega_q_ghz": 10.5,
    "sl_hi": null,
    "sl_lo": null
  }
]
""",
    ),
}

PINNED_STDOUT = {
    "chi": (
        ["chi"],
        """\
{
  "chi_mhz": -1.9577912351717106,
  "delta_omega_e_mhz": 4.528448680687619,
  "delta_omega_g_mhz": 8.44403115103104,
  "flags": {
    "dispersive": true,
    "straddling": false
  },
  "n_crit": 24.999999999999954
}
""",
    ),
    "parity": (
        ["parity"],
        """\
{
  "commutator_norms": {
    "hdisp_parity": 0.0,
    "hint_sx": 123011651.23355865,
    "hint_sz": 0.0,
    "sx_identity_residual": 0.0
  },
  "even_gap_mhz": 7.831164940686842,
  "frequencies_ghz": {
    "ee": 10.009056897361376,
    "eg": 10.012972479831719,
    "ge": 10.012972479831719,
    "gg": 10.016888062302062
  },
  "odd_gap_mhz": 0.0,
  "protected": [
    "ge-eg"
  ]
}
""",
    ),
    "parity-engineered": (
        ["parity", "--q2-frequency-ghz", "8.6", "--chi-p-mhz", "1.5"],
        """\
{
  "commutator_norms": {
    "hdisp_parity": 0.0,
    "hint_sx": 123011651.23355865,
    "hint_sz": 0.0,
    "sx_identity_residual": 0.0
  },
  "engineered": {
    "chi_p_mhz": 1.5,
    "even_ghz": 10.012574275289627,
    "odd_ghz": 10.009574275289626
  },
  "even_gap_mhz": 6.044976003584331,
  "frequencies_ghz": {
    "ee": 10.008051787287833,
    "eg": 10.010181180821075,
    "ge": 10.011967369758178,
    "gg": 10.014096763291418
  },
  "odd_gap_mhz": 1.786188937102511,
  "protected": []
}
""",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_JSON_OUTPUTS))
def test_sample_device_json_bytes_are_pinned(key, tmp_path):
    args, expected = PINNED_JSON_OUTPUTS[key]
    out = str(tmp_path / "out.json")
    assert main([*args, "--config", SAMPLE_CFG, "--out", out]) == 0
    assert Path(out).read_bytes() == expected.encode()


@pytest.mark.parametrize("key", sorted(PINNED_STDOUT))
def test_sample_device_stdout_is_pinned(key, capsys):
    args, expected = PINNED_STDOUT[key]
    assert main([*args, "--config", SAMPLE_CFG]) == 0
    assert capsys.readouterr().out == expected


def test_sweep_error_names_its_grid_point(tmp_path, capsys):
    """omega_q = 20 GHz puts the qubit pole on the line's first Dirichlet
    pole: exit 1, no output, and the message says at which grid point."""
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", SAMPLE_CFG, "--omega-q-ghz", "19:21:5", "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: boundary pole ge within 1e-06 relative of Dirichlet pole")
    assert err.endswith(" at omega_q=20 GHz\n")


@pytest.fixture
def zero_cfg(tmp_path):
    """The sample device with qubit.coupling_ghz = 0."""
    text = Path(SAMPLE_CFG).read_text()
    assert "qubit.coupling_ghz = 0.1\n" in text
    path = tmp_path / "zero.cfg"
    path.write_text(text.replace("qubit.coupling_ghz = 0.1\n", "qubit.coupling_ghz = 0\n"))
    return str(path)


@pytest.mark.parametrize("argv, point", [
    (["sweep"], None),
    (["rabi", "--method", "sl"], None),
    (["rabi", "--method", "jc"], "10"),
    (["rabi", "--method", "both"], "10"),    # the JC branches are built first
])
def test_zero_coupling_gap_error_names_its_grid_point(zero_cfg, tmp_path, capsys, argv, point):
    """At g = 0 the qubit adds no pole, so the solver side refuses the sweep
    before solving any point (point None); the JC branches meet at
    omega_q = omega_r = 10 GHz. Exit 1, no output, and the first bad point."""
    out = tmp_path / "out.csv"
    grid = ["--omega-q-ghz", "9.5:10.5:5"]
    assert main([*argv, "--config", zero_cfg, *grid, "--out", str(out)]) == 1
    assert not out.exists()
    if point is None:
        expected = ("zero coupling: at g = 0 the qubit adds no pole, "
                    "so there is no avoided crossing to follow")
    else:
        expected = f"branch gap must stay positive at omega_q={point} GHz"
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_multimode_overflow_is_a_domain_error(tmp_path, capsys):
    """A coupling whose square leaves the float range, and one whose Lamb
    sums are finite but whose fit residuals overflow when squared (that one
    used to print two numpy overflow warnings and exit 1 with the JSON
    writer's complaint about R^2 = nan): exit 1, no output, and the
    multimode report's own message, with no numpy warning before it (the
    suite turns warnings into errors, which would change the message)."""
    text = Path(SAMPLE_CFG).read_text()
    assert "qubit.coupling_ghz = 0.1\n" in text
    for coupling, message in (("1e190", "term of mode 1 is not finite; sum undefined"),
                              ("1e138", "Lamb fit residuals overflow; R^2 undefined")):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(text.replace("qubit.coupling_ghz = 0.1\n",
                                    f"qubit.coupling_ghz = {coupling}\n"))
        out = tmp_path / "out.csv"
        assert main(["multimode", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["chi", "parity"])
def test_readout_solve_error_names_its_joint_state(tmp_path, capsys, command):
    """The merge probe: at 10.5 GHz this coupling leaves the e-state solve
    an interval whose root count cannot be certified. Exit 1, no output,
    and the message says which joint state failed."""
    text = Path(SAMPLE_CFG).read_text()
    assert "qubit.frequency_ghz = 9.0\n" in text and "qubit.coupling_ghz = 0.1\n" in text
    probe = tmp_path / "probe.cfg"
    probe.write_text(text.replace("qubit.frequency_ghz = 9.0\n", "qubit.frequency_ghz = 10.5\n")
                     .replace("qubit.coupling_ghz = 0.1\n", "qubit.coupling_ghz = 0.24563744061900487\n"))
    out = tmp_path / "out.json"
    assert main([command, "--config", str(probe), "--levels", "2", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: no certified root count on [")
    assert err.endswith("] in joint state 'e'\n")


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--config", "ZERO"],
    ["chi", "--config", "ZERO"],
    ["rabi", "--config", "ZERO", "--method", "jc", "--omega-q-ghz", "9.5:10.5:4", "--json"],
    ["multimode", "--config", "ZERO", "--json"],
    ["parity", "--config", "ZERO"],
    ["wedge"],
])
def test_zero_coupling_outputs_are_strict_json(zero_cfg, tmp_path, capsys, argv):
    """Every file and printout of the JSON-writing subcommands parses with no
    NaN or Infinity. `sweep` and the solver side of `rabi` exit 1 at g = 0
    (test above)."""
    out = str(tmp_path / "out")
    argv = [zero_cfg if arg == "ZERO" else arg for arg in argv]
    assert main([*argv, "--out", out]) == 0
    written = sorted(tmp_path.glob("out*"))
    assert out + ".manifest.json" in map(str, written)
    for path in written:
        _strict_json(path.read_text())
    printed = capsys.readouterr().out
    if printed:
        _strict_json(printed)


def test_zero_coupling_chi_has_no_critical_photon_number(zero_cfg, capsys):
    """n_crit = Delta^2 / 4g^2 is infinite at g = 0: null in JSON, an empty CSV cell."""
    assert main(["chi", "--config", zero_cfg]) == 0
    assert _strict_json(capsys.readouterr().out)["n_crit"] is None
    assert main(["chi", "--config", zero_cfg, "--csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,0,,true,false"


def test_json_writer_rejects_non_finite_numbers():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _json_text({"x": [value]})


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


# Every file-writing subcommand with each option it takes set away from its default
REPLAYED = {
    "spectrum": ["--state", "e", "--levels", "3"],
    "sweep": ["--state", "e", "--levels", "3", "--json", "--omega-q-ghz", "9.5:10.5:2"],
    "chi": ["--csv", "--levels", "2"],
    "rabi": ["--json", "--method", "sl", "--omega-q-ghz", "9.8:10.2:3"],
    "multimode": ["--json", "--nmax-schedule", "10,20,40"],
    "parity": ["--levels", "2", "--q2-frequency-ghz", "8.6", "--q2-anharmonicity-ghz", "-0.22",
               "--q2-coupling-ghz", "0.12", "--chi-p-mhz", "1.5"],
    "wedge": ["--angle-rad", "1.3", "--modes", "5"],
}
# A charge element whose g, divided by GHZ, is one ulp off g when multiplied back
CHARGE_ROUND_TRIP_CFG = CFG.replace(
    "qubit.coupling_ghz = 0.1", "qubit.charge_element_C = 1.857673955040305e-20"
)
REPLAY_CASES = [
    *(pytest.param(name, None, REPLAYED[name], id=name) for name in sorted(REPLAYED)),
    pytest.param("parity", CHARGE_ROUND_TRIP_CFG, [], id="parity-charge-element"),
]


def _subcommand_actions(name):
    """The argparse actions of subcommand `name`, as build_parser(name) defines them."""
    parser = build_parser(name)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]._actions


def _replay_argv(manifest, directory, out):
    """An argv, and a config file in `directory`, rebuilt from a manifest alone."""
    name, config = manifest["subcommand"], manifest["config"]
    device = {k: v for k, v in config.items() if k in CONFIG_KEYS}
    argv = [name, "--out", out]
    if device:
        path = directory / "replay.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in device.items()))
        argv += ["--config", str(path)]
    actions = _subcommand_actions(name)
    for key, value in config.items():
        if key in device:
            continue
        if key == "q2.charge_element_C":
            # q2 inherits the config's charge element when no --q2-coupling-ghz is given
            assert value == config["qubit.charge_element_C"]
            continue
        if key == "sweep.omega_q_ghz":
            start, stop, count = value
            argv += ["--omega-q-ghz", f"{start!r}:{stop!r}:{count}"]
            continue
        dest = key.replace("q2.", "q2_")
        action = next(a for a in actions if a.dest == dest
                      and (a.const is None or a.const == value))
        if action.const is not None:
            argv.append(action.option_strings[0])
        else:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [action.option_strings[0], text]
    return argv


@pytest.mark.parametrize("name, cfg_text, options", REPLAY_CASES)
def test_manifest_alone_replays_every_output(name, cfg_text, options, tmp_path):
    """The README's promise: a manifest records enough to rerun its run. A
    config file and an argv rebuilt from it alone reproduce every output
    byte, and the manifest itself, for every option a subcommand takes and
    for a second qubit that inherits a charge element."""
    device = []
    if cfg_text is not None:
        (tmp_path / "device.cfg").write_text(cfg_text)
        device = ["--config", str(tmp_path / "device.cfg")]
    elif name != "wedge":
        device = ["--config", SAMPLE_CFG]
    out, out2 = str(tmp_path / "first"), str(tmp_path / "again")
    assert main([name, *device, *options, "--out", out]) == 0
    manifest = read_manifest(out)
    assert main(_replay_argv(manifest, tmp_path, out2)) == 0
    for path in manifest["outputs"] + [out + ".manifest.json"]:
        replayed = Path(out2 + path[len(out):]).read_bytes()
        assert replayed.replace(out2.encode(), out.encode()) == Path(path).read_bytes(), path


def test_manifest_exclusions_name_only_parsed_options():
    """What _save leaves out of a manifest is argparse plumbing or the dest
    of an option some subcommand defines: no typo, and no option that is
    gone, can hide there."""
    dests = {a.dest for name in COMMANDS for a in _subcommand_actions(name)}
    assert _NOT_RECORDED <= dests | {"command", "func"}


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


@pytest.fixture
def charge_cfg(tmp_path):
    """CFG with the qubit given by its charge element instead of its g."""
    path = tmp_path / "charge.cfg"
    path.write_text(CFG.replace("qubit.coupling_ghz = 0.1", "qubit.charge_element_C = 1e-19"))
    return str(path)


def test_parity_q2_coupling_replaces_a_charge_element(charge_cfg, capsys):
    assert main(["parity", "--config", charge_cfg, "--q2-coupling-ghz", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # q1 keeps its charge-derived g of ~0.39 GHz, so the shifts differ
    assert payload["odd_gap_mhz"] > 0.0


def test_parity_manifest_records_q2_charge_element(charge_cfg, tmp_path):
    """q2 inherits q1's charge element, and the manifest records it as such:
    its g / GHZ would not always multiply back to the same g."""
    out = str(tmp_path / "parity.json")
    assert main(["parity", "--config", charge_cfg, "--out", out]) == 0
    config = read_manifest(out)["config"]
    assert config["q2.charge_element_C"] == config["qubit.charge_element_C"] == 1e-19
    assert "q2.coupling_ghz" not in config
    out = str(tmp_path / "parity-g.json")
    assert main(["parity", "--config", charge_cfg, "--q2-coupling-ghz", "0.1", "--out", out]) == 0
    config = read_manifest(out)["config"]
    assert config["q2.coupling_ghz"] == 0.1 * GHZ / GHZ
    assert "q2.charge_element_C" not in config


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
    "[PASS] open-circuit reduction: worst relative error 0.000e+00 over first 5 modes; gamma = 1/L: 1.736e-16 against bisection of xi cot xi = -gamma L (tol 1e-10)\n"
    "[PASS] derivative identity: zeros: worst 0.000e+00 (tol 1e-12); finite differences: worst 7.836e-08 over 1000 points (tol 1e-6)\n"
    "[PASS] interlacing: 1000/1000 configurations solved, 0 interlacing failures\n"
    "[PASS] level repulsion: min eigenvalue-pole relative margin 6.223e-07; min crossing gap 0.200015 GHz over 41 points\n"
    "[PASS] vacuum Rabi matching: g/omega_r=0.01: |gap-2g|/2g = 7.451743e-05 (tol 0.005); g/omega_r=0.15: |gap-2g|/2g = 1.761752e-02 (tol 0.05)\n"
    "[PASS] dispersive-shift triangle: 50 draws, worst pairwise error at 0.650 of tolerance\n"
    "[PASS] multimode divergences: Lamb linear fit R^2 = 1.000000 (need > 0.999); chi doubling-increment spread 0.003 (need <= 0.10)\n"
    "[PASS] two-qubit structure: matched: odd gap 0.0, even gap = 4|chi|: True; QND commutator 0.0e+00 vs 1e-14*|H| = 6.3e-03; additivity deviation 1.345e-04 GHz (tol 7.666e-04)\n"
    "[PASS] commutator algebra: [H_int, sz] = 0.0, sx identity residual = 0.0, [H_int, sx] = 1.885e+08\n"
    "[PASS] approximation audit: 1 dressed mode(s) within 5% of the fundamental; worst relative disagreement 1.414e-06 (tol 1e-2)\n"
    "[PASS] wedge: mu_n exact: True; worst overlap error 2.498e-16 (tol 1e-9); angular-derivative value at the wall = 1.0\n"
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


def test_validate_reports_a_failing_criterion(monkeypatch, capsys):
    """A failing criterion prints [FAIL] with its detail, does not count as
    passed, and makes validate exit 1."""
    failing = acceptance.CriterionResult("always fails", False, "measured 1 (tol 0)")
    monkeypatch.setattr(acceptance, "ALL_CHECKS", (("broken", lambda seed: failing),))
    assert main(["validate", "--only", "broken"]) == 1
    assert capsys.readouterr().out == (
        "[FAIL] always fails: measured 1 (tol 0)\n0/1 criteria passed\n"
    )


def test_validate_unknown_criterion(capsys):
    """An unknown --only key is a usage error that lists the valid keys."""
    assert main(["validate", "--only", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "no criterion named 'bogus'" in err
    assert err.endswith(f"(choose from {', '.join(k for k, _ in acceptance.ALL_CHECKS)})\n")


def test_validate_builds_only_its_own_parser(monkeypatch):
    """A subcommand call builds the top-level parser and its own, not all nine."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["validate", "--only", "open-circuit"]) == 0
    assert built == ["dressed-modes", "dressed-modes validate"]


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


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("device.json", "[1, 2]", "JSON config must be a flat object"),
        ("device.json", json.dumps({**dict(line.split(" = ") for line in CFG.splitlines()),
                                    "qubit.state": 1}), "qubit.state must be text"),
        ("device.cfg", CFG.replace("qubit.coupling_ghz = 0.1", "qubit.coupling_ghz = abc"),
         "qubit.coupling_ghz must be a number"),
        ("device.cfg", b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
    ],
)
def test_malformed_config_value_exits_3_and_says_why(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["chi", "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_non_numeric_option_value_exits_2_and_names_it(cfg, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parity", "--config", cfg, "--q2-frequency-ghz", "abc"])
    assert exc.value.code == 2
    assert "argument --q2-frequency-ghz: bad number 'abc'" in capsys.readouterr().err


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
    # values only the model rejects, refused while parsing; these used to exit 1
    bad += [["wedge", "--angle-rad", value] for value in ("0", "7")]
    bad += [["parity", "--config", cfg, opt, value]
            for opt, value in (("--q2-frequency-ghz", "-5"), ("--q2-anharmonicity-ghz", "0.1"),
                               ("--q2-coupling-ghz", "-0.1"))]
    bad += [["wedge", "--modes", value] for value in ("0", "-3", "2.5")]
    # a schedule needs at least two distinct cutoffs, each >= 1; these used to exit 1
    bad += [["multimode", "--config", cfg, f"--nmax-schedule={value}"]
            for value in ("0,100", "-5,100", "", "100", "100,100")]
    # only validate reads a seed; the other subcommands used to echo one into the manifest
    grid = ["--omega-q-ghz", "9:11:3"]
    bad += [[*argv, "--seed", "0"]
            for argv in (["spectrum", "--config", cfg], ["sweep", "--config", cfg, *grid],
                         ["chi", "--config", cfg], ["rabi", "--config", cfg, *grid],
                         ["multimode", "--config", cfg], ["parity", "--config", cfg],
                         ["wedge"])]
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_negative_seed_is_a_usage_error(capsys):
    """validate --seed -1 used to exit 1 with numpy's complaint about it."""
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--only", "rabi", "--seed", "-1"])
    assert exc.value.code == 2
    assert "must be >= 0: '-1'" in capsys.readouterr().err


def test_config_key_set_twice_exits_3(tmp_path, capsys):
    path = tmp_path / "device.cfg"
    path.write_text(CFG.replace("3e-3", "9e-3") + "resonator.length_m = 3e-3\n")
    assert main(["chi", "--config", str(path)]) == 3
    assert "duplicate key resonator.length_m" in capsys.readouterr().err


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
    with pytest.raises(argparse.ArgumentTypeError):
        _grid("1:2:0")
    with pytest.raises(argparse.ArgumentTypeError):
        _grid("a:b:c")
    for text in ("nan:1:3", "1:inf:3", "-inf:1:3"):
        with pytest.raises(argparse.ArgumentTypeError):
            _grid(text)


def test_readme_command_lines_parse():
    """Every dressed-modes line in the README's sh blocks, continuations
    joined, parses: a renamed or removed option cannot stay in the docs."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [
        line.strip() for line in "".join(blocks).replace("\\\n", " ").splitlines()
        if line.strip().startswith("dressed-modes ")
    ]
    assert lines
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            full = parser.parse_args(argv)
            own = build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert own == full, line


# One fresh interpreter: the solver subcommands, then wedge, through cli.main.
# Each entry records numpy's presence and the package modules loaded so far.
STARTUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import dressed_modes, dressed_modes.cli, dressed_modes.acceptance
cfg, out = sys.argv[2], sys.argv[3]
grid = ["--omega-q-ghz", "9.8:10.2:5"]
runs = [
    ["spectrum", "--config", cfg],
    ["sweep", "--config", cfg, *grid],
    ["chi", "--config", cfg],
    ["rabi", "--config", cfg, *grid, "--method", "sl"],
    ["wedge"],
]
def package():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "dressed_modes")
seen = [("import", 0, "numpy" in sys.modules, package())]
for argv in runs:
    code = dressed_modes.cli.main([*argv, "--out", f"{out}/{argv[0]}"])
    seen.append((argv[0], code, "numpy" in sys.modules, package()))
# a submodule no run has loaded is still an attribute of the package
seen.append(("attribute", dressed_modes.multiqubit.__name__, package()))
print(seen)
"""

# What importing the package, its CLI and its gate loads: each module their
# module bodies run, and no solver layer.
SETUP_MODULES = [
    "dressed_modes", "dressed_modes.acceptance", "dressed_modes.cli",
    "dressed_modes.errors", "dressed_modes.multimode", "dressed_modes.params",
    "dressed_modes.resonator", "dressed_modes.wedge",
]


def test_solver_subcommands_start_without_numpy(tmp_path):
    """Importing the package, its CLI and its gate loads no numpy and no
    solver layer, and neither spectrum, sweep, chi nor rabi --method sl
    loads numpy; the first wedge run then loads it, so the deferred imports
    do run. Each subcommand loads the solver layers it calls on its first
    run: spectrum loads boundary and spectrum, chi dispersive, rabi jc.
    A submodule that no run loaded is served as a package attribute."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, src, SAMPLE_CFG, str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    solved = sorted(SETUP_MODULES + ["dressed_modes.boundary", "dressed_modes.spectrum"])
    pulled = sorted(solved + ["dressed_modes.dispersive"])
    laddered = sorted(pulled + ["dressed_modes.jc"])
    assert proc.stdout.splitlines()[-1] == str([
        ("import", 0, False, SETUP_MODULES),
        ("spectrum", 0, False, solved),
        ("sweep", 0, False, solved),
        ("chi", 0, False, pulled),
        ("rabi", 0, False, laddered),
        ("wedge", 0, True, laddered),
        ("attribute", "dressed_modes.multiqubit",
         sorted(laddered + ["dressed_modes.multiqubit"])),
    ])
