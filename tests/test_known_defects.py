"""Known defects, each asserted as it should behave and marked a strict
expected failure with the ROADMAP item that mends it.

A fix turns its test into an XPASS, which fails the suite under strict, so
the fixing change removes the marker and says so in CHANGES.md. Run with
`-rxX` to list each defect and its reason.
"""
from pathlib import Path

import pytest

from dressed_modes import RationalBoundary, solve_spectrum
from dressed_modes.cli import main
from test_boundary_kernel import _cot_roots

SAMPLE_CFG = Path(__file__).resolve().parent.parent / "sample_device.cfg"
# the sample device's line: 3 mm at 1.2e8 m/s, a 10 GHz fundamental
LENGTH = 3e-3
# 5 fF of junction capacitance, C/c in metres
BETA = 3e-5
LOBE_TOP_GHZ = 20.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the capacitive loading has the wrong sign, "
    "F = -beta lam where Foster's reactance theorem gives +beta lam"
))
def test_bare_line_roots_follow_cot_kl_equals_plus_beta_k():
    """A capacitor at the open end pulls every mode down: the closed form
    cot(kL) = +beta k puts the fundamental at 9.901 GHz. The solver puts
    it at 10.101 GHz, the root of cot(kL) = -beta k."""
    sp = solve_spectrum(LENGTH, RationalBoundary(beta=BETA))
    assert sp.eigenvalues[:6] == pytest.approx(_cot_roots(LENGTH, BETA, 6), rel=1e-14)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2, defect C: past the merge, lobe 0 holds no real root, "
    "and chi reports the third harmonic's pull with exit 0"
))
def test_chi_past_the_merge_refuses_and_names_the_nonreal_pair(tmp_path, capsys):
    """The sample device with the qubit in e at 10.5 GHz and g = 0.3 GHz,
    past the merge at g* = 0.2456 GHz. `chi --levels 2` prints chi_mhz
    10075.5 and exits 0; the closed form gives about -180 MHz."""
    cfg = tmp_path / "device.cfg"
    text = SAMPLE_CFG.read_text()
    for old, new in (("frequency_ghz = 9.0", "frequency_ghz = 10.5"),
                     ("state = g", "state = e"), ("coupling_ghz = 0.1", "coupling_ghz = 0.3")):
        if text.count(old) != 1:    # a failure, not the expected one
            pytest.fail(f"sample_device.cfg no longer sets {old!r} once")
        text = text.replace(old, new)
    cfg.write_text(text)
    code = main(["chi", "--config", str(cfg), "--levels", "2"])
    assert code == 1
    assert "nonreal_pairs" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2, defect D: where the excited qubit's pair leaves the "
    "real axis, the sweep reads the third harmonic as its upper branch"
))
def test_excited_sweep_upper_branch_stays_in_lobe_zero_or_refuses(tmp_path, capsys):
    """`sweep --state e --levels 3` on the sample device reads the upper
    branch at 30.00007 GHz at omega_q = 9.75, 10 and 10.25 GHz. A refusal
    names its cause, so that another error is no fix."""
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(SAMPLE_CFG), "--out", str(out),
                 "--state", "e", "--levels", "3", "--omega-q-ghz", "9.5:10.5:5"])
    if code != 0:
        assert code == 1
        assert "nonreal_pairs" in capsys.readouterr().err
        return
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 5
    assert all(float(row[2]) < LOBE_TOP_GHZ for row in rows)
