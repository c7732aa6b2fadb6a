import math

import pytest

from dressed_modes import (
    GHZ,
    MultimodeModel,
    dispersive_partial_sum,
    divergence_report,
    lamb_shift_partial_sum,
)
from dressed_modes.multimode import DEFAULT_SCHEDULE

MODEL = MultimodeModel(omega_1=10.0 * GHZ, g_1=0.1 * GHZ, omega_q=9.0 * GHZ, alpha=-0.25 * GHZ)


def test_odd_harmonic_ladder():
    for n, mult in [(1, 1), (2, 3), (3, 5), (7, 13)]:
        assert MODEL.bare_frequency(n) == mult * MODEL.omega_1
        assert MODEL.mode_coupling(n) == MODEL.g_1 * math.sqrt(mult)


def test_coupling_squared_over_frequency_constant():
    ref = MODEL.g_1**2 / MODEL.omega_1
    for n in range(1, 50):
        ratio = MODEL.mode_coupling(n) ** 2 / MODEL.bare_frequency(n)
        assert ratio == pytest.approx(ref, rel=1e-13)


def test_lamb_sum_small_case_by_hand():
    got = lamb_shift_partial_sum(MODEL, 3)
    want = math.fsum(
        MODEL.mode_coupling(n) ** 2 / (MODEL.omega_q - MODEL.bare_frequency(n))
        for n in (1, 2, 3)
    )
    assert got == want


def test_chi_sum_small_case_by_hand():
    got = dispersive_partial_sum(MODEL, 2)
    want = math.fsum(
        MODEL.mode_coupling(n) ** 2
        * MODEL.alpha
        / (
            (MODEL.omega_q - MODEL.bare_frequency(n))
            * (MODEL.omega_q + MODEL.alpha - MODEL.bare_frequency(n))
        )
        for n in (1, 2)
    )
    assert got == want


def test_lamb_sums_grow_linearly():
    rep = divergence_report(MODEL)
    assert rep.lamb_r_squared > 0.999
    # asymptotic slope is -g_1^2/omega_1 per mode
    assert rep.lamb_slope == pytest.approx(-MODEL.g_1**2 / MODEL.omega_1, rel=0.02)
    # and the sums really do keep growing in magnitude
    assert abs(rep.lamb_sums[-1]) > 5.0 * abs(rep.lamb_sums[0])


def test_chi_increments_approach_log_two_law():
    rep = divergence_report(MODEL)
    assert rep.chi_increment_asymptote == pytest.approx(
        MODEL.g_1**2 * MODEL.alpha / MODEL.omega_1**2 * 0.5 * math.log(2.0), rel=1e-14
    )
    assert len(rep.chi_increments) == 3
    for inc in rep.chi_increments:
        assert inc == pytest.approx(rep.chi_increment_asymptote, rel=0.01)
    assert rep.chi_increment_spread < 0.01


def test_degenerate_model_flagged():
    quiet = MultimodeModel(omega_1=10.0 * GHZ, g_1=0.0, omega_q=9.0 * GHZ, alpha=-0.25 * GHZ)
    rep = divergence_report(quiet)
    assert rep.degenerate
    assert all(x == 0.0 for x in rep.lamb_sums)
    assert all(x == 0.0 for x in rep.chi_sums)
    assert rep.chi_increment_spread == 0.0


def test_resonance_guards():
    # qubit pinned on the second mode at 3*omega_1
    on_mode = MultimodeModel(omega_1=3.0 * GHZ, g_1=0.1 * GHZ, omega_q=9.0 * GHZ, alpha=-0.25 * GHZ)
    with pytest.raises(ValueError):
        lamb_shift_partial_sum(on_mode, 5)
    # e-f ladder resonant instead: lamb sum fine, chi sum rejected
    ef_res = MultimodeModel(
        omega_1=3.0 * GHZ, g_1=0.1 * GHZ, omega_q=9.25 * GHZ, alpha=-0.25 * GHZ
    )
    assert lamb_shift_partial_sum(ef_res, 5) != 0.0
    with pytest.raises(ValueError):
        dispersive_partial_sum(ef_res, 5)


def test_validation():
    with pytest.raises(ValueError):
        MultimodeModel(omega_1=-1.0, g_1=0.1 * GHZ, omega_q=9.0 * GHZ, alpha=-0.25 * GHZ)
    with pytest.raises(ValueError):
        MultimodeModel(omega_1=10.0 * GHZ, g_1=0.1 * GHZ, omega_q=9.0 * GHZ, alpha=0.25 * GHZ)
    with pytest.raises(ValueError):
        lamb_shift_partial_sum(MODEL, 0)
    with pytest.raises(ValueError):
        divergence_report(MODEL, schedule=(100,))


@pytest.mark.parametrize("schedule", [(0, 100), (-5, 100), (100, 200, 0)])
def test_divergence_report_refuses_a_cutoff_below_one(schedule):
    with pytest.raises(ValueError, match="^need at least one mode$"):
        divergence_report(MODEL, schedule)


def test_divergence_report_finds_a_resonance_between_cutoffs():
    # mode 5 sits at 9 omega_1: past the first cutoff, below the second
    on_mode = MultimodeModel(omega_1=1.0 * GHZ, g_1=0.1 * GHZ, omega_q=9.0 * GHZ, alpha=-0.25 * GHZ)
    ef_res = MultimodeModel(
        omega_1=1.0 * GHZ, g_1=0.1 * GHZ, omega_q=9.25 * GHZ, alpha=-0.25 * GHZ
    )
    for model in (on_mode, ef_res):
        assert divergence_report(model, (2, 4)).n_values == (2, 4)
        with pytest.raises(ValueError, match="^transition resonant with mode 5; sum undefined$"):
            divergence_report(model, (2, 10))


@pytest.mark.parametrize(
    "schedule", [DEFAULT_SCHEDULE, (50, 3, 7, 7)], ids=["default", "unsorted-duplicate"]
)
def test_divergence_report_sums_are_the_partial_sums(schedule):
    """Prefixes of one term list give each cutoff's own sum, bit for bit."""
    rep = divergence_report(MODEL, schedule)
    assert rep.n_values == tuple(sorted(set(schedule)))
    for n, lamb, chi in zip(rep.n_values, rep.lamb_sums, rep.chi_sums):
        assert lamb.hex() == lamb_shift_partial_sum(MODEL, n).hex()
        assert chi.hex() == dispersive_partial_sum(MODEL, n).hex()
