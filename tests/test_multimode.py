import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressed_modes import (
    GHZ,
    MultimodeModel,
    dispersive_partial_sum,
    divergence_report,
    lamb_shift_partial_sum,
)
from dressed_modes.multimode import DEFAULT_SCHEDULE, RESONANCE_GUARD_REL

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
    for name in ("omega_1", "g_1", "omega_q", "alpha"):
        for bad in (math.nan, math.inf, -math.inf, True):
            fields = {**vars(MODEL), name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be a finite number$"):
                MultimodeModel(**fields)


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


def test_resonance_precedence_names_the_parent_mode():
    """omega_q sits on mode 7 and its e-f line on mode 6: the Lamb sum sees
    mode 7 only, the chi sum meets mode 6 first, and the report raises at
    the qubit's mode before it looks at the e-f line."""
    model = MultimodeModel(
        omega_1=0.125 * GHZ, g_1=0.01 * GHZ, omega_q=13 * 0.125 * GHZ, alpha=-0.25 * GHZ
    )
    cases = (
        (lamb_shift_partial_sum, 10, 7),
        (dispersive_partial_sum, 10, 6),
        (divergence_report, (2, 10), 7),
    )
    for fn, arg, mode in cases:
        with pytest.raises(ValueError) as err:
            fn(model, arg)
        assert str(err.value) == f"transition resonant with mode {mode}; sum undefined"


# g_1^2 beyond the float range: every term overflows
OVERFLOWING = MultimodeModel(omega_1=1.0, g_1=1e200, omega_q=2.0, alpha=-0.5)


@pytest.mark.parametrize("fn, arg", [
    (lamb_shift_partial_sum, 10), (dispersive_partial_sum, 10), (divergence_report, DEFAULT_SCHEDULE),
])
def test_overflowing_terms_raise_one_domain_error(fn, arg):
    """Finite fields whose terms overflow: fsum used to raise its own
    `-inf + inf in fsum` on the Lamb terms and to return -inf for the chi
    sum. Each entry point names the first mode whose term is not finite;
    a resonance keeps its precedence."""
    with pytest.raises(ValueError, match="^term of mode 1 is not finite; sum undefined$"):
        fn(OVERFLOWING, arg)
    with pytest.raises(ValueError, match="^transition resonant with mode 2; sum undefined$"):
        fn(MultimodeModel(omega_1=1.0, g_1=1e200, omega_q=3.0, alpha=-0.5), arg)


def test_finite_terms_that_sum_past_the_float_range_are_refused():
    """Every Lamb term is finite, the largest 1.06e308, but their sum is
    not: fsum's OverflowError becomes the same kind of domain error. The
    chi sum of the same model is finite and keeps its value."""
    model = MultimodeModel(omega_1=1.0, g_1=1e153, omega_q=160.5, alpha=-0.5)
    message = "^sum of 80 finite terms overflows; sum undefined$"
    with pytest.raises(ValueError, match=message):
        lamb_shift_partial_sum(model, 80)
    with pytest.raises(ValueError, match=message):
        divergence_report(model, (40, 80))
    assert math.isfinite(dispersive_partial_sum(model, 80))


@pytest.mark.parametrize("model", [
    MultimodeModel(omega_1=1e-150, g_1=1e5, omega_q=2.0, alpha=-1.0),      # inf
    MultimodeModel(omega_1=1e200, g_1=1.0, omega_q=1.0, alpha=-0.5),       # omega_1^2 overflows
    MultimodeModel(omega_1=1e-200, g_1=1.0, omega_q=1.0, alpha=-0.5),      # omega_1^2 is 0.0
], ids=["inf", "square-overflows", "square-underflows"])
def test_divergence_report_refuses_an_asymptote_that_is_not_finite(model):
    """The sums are finite, but g_1^2 alpha / omega_1^2 is not a finite
    number: the report raises a ValueError, not OverflowError or
    ZeroDivisionError, and before its fits."""
    assert math.isfinite(lamb_shift_partial_sum(model, 800))
    with pytest.raises(ValueError, match="^chi increment asymptote is not a finite number$"):
        divergence_report(model)


def test_divergence_report_refuses_a_lamb_fit_that_overflows():
    """Every sum and the asymptote are finite, the Lamb sums ~1e298, but the
    fit's squared residuals are not: numpy used to warn twice (`overflow
    encountered in square`) and the report returned R^2 = nan. Now one
    domain error names the Lamb fit, and no warning comes before it."""
    model = MultimodeModel(omega_1=1.0, g_1=1e150, omega_q=1e6, alpha=-0.5)
    assert math.isfinite(lamb_shift_partial_sum(model, max(DEFAULT_SCHEDULE)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^Lamb fit residuals overflow; R\^2 undefined$"):
            divergence_report(model)


def _guarded(model, omega, n):
    omega_n = model.bare_frequency(n)
    delta = omega - omega_n
    if abs(delta) < RESONANCE_GUARD_REL * omega_n:
        raise ValueError(f"transition resonant with mode {n}; sum undefined")
    return delta


def _scalar_lamb_sum(model, n_max):
    """The per-mode Lamb loop, from the public scalar methods."""
    terms = []
    for n in range(1, n_max + 1):
        delta = _guarded(model, model.omega_q, n)
        g = model.mode_coupling(n)
        terms.append(g * g / delta)
    return math.fsum(terms)


def _scalar_chi_sum(model, n_max):
    """The per-mode chi loop; each mode checks omega_q, then the e-f line."""
    terms = []
    for n in range(1, n_max + 1):
        delta = _guarded(model, model.omega_q, n)
        delta_ef = _guarded(model, model.omega_q + model.alpha, n)
        g = model.mode_coupling(n)
        terms.append(g * g * model.alpha / (delta * delta_ef))
    return math.fsum(terms)


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except ValueError as exc:
        return str(exc)


@st.composite
def models_and_cutoffs(draw):
    """Any valid model, frequencies over twelve decades around 1 GHz (far
    outside them the detuning products leave float range), with omega_q
    free, on a mode, on a mode through the e-f line, or at the guard's
    edge."""
    n_max = draw(st.integers(1, 3000))
    omega_1 = draw(st.floats(1e-6, 1e6)) * GHZ
    # an anharmonicity of an even number of mode spacings puts both lines
    # on modes at once, the e-f line on the lower one
    alpha = draw(st.one_of(
        st.floats(-1e6, 0.0).map(lambda x: x * GHZ),
        st.integers(1, n_max).map(lambda j: -2 * j * omega_1),
    ))
    k = 2 * draw(st.integers(1, n_max)) - 1
    omega_q = draw(st.one_of(
        st.floats(1e-6, 1e6).map(lambda x: x * GHZ),
        st.just(k * omega_1),
        st.just(k * omega_1 - alpha),
        st.floats(0.5, 2.0).map(lambda r: k * omega_1 * (1.0 + r * RESONANCE_GUARD_REL)),
        st.floats(0.5, 2.0).map(lambda r: k * omega_1 * (1.0 - r * RESONANCE_GUARD_REL)),
    ))
    g_1 = draw(st.floats(0.0, 1e6)) * GHZ
    return MultimodeModel(omega_1=omega_1, g_1=g_1, omega_q=omega_q, alpha=alpha), n_max


@settings(max_examples=40, deadline=None)
@given(case=models_and_cutoffs())
def test_partial_sums_are_the_scalar_loops_bit_for_bit(case):
    """Each sum equals, by float.hex, the fsum of the per-mode terms built
    from bare_frequency and mode_coupling; a resonance raises the same
    message on both sides."""
    model, n_max = case
    lamb = _outcome(_scalar_lamb_sum, model, n_max)
    chi = _outcome(_scalar_chi_sum, model, n_max)
    assert _outcome(lamb_shift_partial_sum, model, n_max) == lamb
    assert _outcome(dispersive_partial_sum, model, n_max) == chi
    if n_max < 2:
        return
    cutoffs = (n_max // 2, n_max)
    try:
        rep = divergence_report(model, cutoffs)
    except ValueError as exc:
        # the report builds its Lamb terms first
        first = lamb if lamb.startswith("transition") else chi
        assert str(exc) == first
        return
    assert rep.lamb_sums[-1].hex() == lamb and rep.chi_sums[-1].hex() == chi
    assert rep.lamb_sums[0].hex() == _scalar_lamb_sum(model, cutoffs[0]).hex()
    assert rep.chi_sums[0].hex() == _scalar_chi_sum(model, cutoffs[0]).hex()
