"""Multimode sums over the quarter-wave ladder and their divergences.

The shorted line presents modes at omega_n = (2n-1) omega_1 with couplings
growing as g_n = g_1 sqrt(2n-1), so g_n^2/omega_n is the same for every
mode. Consequences: the qubit Lamb-shift sum diverges linearly in the mode
cutoff, and the total dispersive pull diverges logarithmically. Both are
computed as explicit partial sums so the growth law itself can be checked.

One array kernel, _mode_terms, evaluates every mode's Lamb and chi terms
with the scalar expressions of bare_frequency and mode_coupling, in the
same order. Float64 arithmetic and sqrt round as Python floats do, so the
terms, and their fsums, keep the bits of a per-mode loop at a fraction of
its cost. numpy is imported inside the kernel, so importing the package
still loads none. A report over a cutoff schedule builds the terms once, to
its largest cutoff, and takes every partial sum as a prefix of that list.

Finite fields can still overflow a term (g_1^2 past the float range) or a
sum. Every sum is refused then, after the resonance checks, by one
ValueError that names the first mode whose term is not finite, or says
that finite terms sum past the float range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .params import _check_finite

RESONANCE_GUARD_REL = 1e-6
DEFAULT_SCHEDULE = (100, 200, 400, 800)


@dataclass(frozen=True)
class MultimodeModel:
    omega_1: float
    g_1: float
    omega_q: float
    alpha: float

    def __post_init__(self):
        for f in fields(self):
            _check_finite(f.name, getattr(self, f.name))
        if self.omega_1 <= 0.0:
            raise ValueError("fundamental must be positive")
        if self.g_1 < 0.0:
            raise ValueError("coupling must be nonnegative")
        if self.omega_q <= 0.0:
            raise ValueError("qubit frequency must be positive")
        if self.alpha > 0.0:
            raise ValueError("anharmonicity must not be positive")

    def bare_frequency(self, n: int) -> float:
        if n < 1:
            raise ValueError("mode index starts at 1")
        return (2 * n - 1) * self.omega_1

    def mode_coupling(self, n: int) -> float:
        if n < 1:
            raise ValueError("mode index starts at 1")
        return self.g_1 * math.sqrt(2 * n - 1)


def _need_modes(n_max: int) -> None:
    if n_max < 1:
        raise ValueError("need at least one mode")


def _mode_terms(model: MultimodeModel, n_max: int):
    """The Lamb and chi terms of modes n = 1..n_max, in mode order, and the
    masks of modes resonant with omega_q and with the e-f line.

    Each term is the scalar expression of bare_frequency and mode_coupling,
    evaluated elementwise in the same order. Float64 + - * / and sqrt round
    as Python floats do and no ufunc fuses two of them, so every term has
    the scalar's bits. The terms come back as lists of Python floats.
    """
    import numpy as np

    _need_modes(n_max)
    m = np.arange(1, 2 * n_max, 2, dtype=float)  # 2n - 1; no int64 wrap on int fields
    omega_n = m * model.omega_1
    guard = RESONANCE_GUARD_REL * omega_n
    delta = model.omega_q - omega_n
    delta_ef = (model.omega_q + model.alpha) - omega_n
    g_n = model.g_1 * np.sqrt(m)
    # a zero detuning is refused before its term is read; an overflow reads
    # inf, as in Python floats
    with np.errstate(all="ignore"):
        lamb = g_n * g_n / delta
        chi = g_n * g_n * model.alpha / (delta * delta_ef)
    return lamb.tolist(), chi.tolist(), abs(delta) < guard, abs(delta_ef) < guard


def _refuse_resonance(resonant) -> None:
    """Raise at the first mode the mask marks resonant, if any."""
    if resonant.any():
        n = int(resonant.argmax()) + 1
        raise ValueError(f"transition resonant with mode {n}; sum undefined")


def _finite_fsum(terms) -> float:
    """math.fsum of the terms, or a ValueError if it is not a finite number.
    fsum itself raises on +inf and -inf terms or on finite terms that sum
    past the float range, and returns inf or nan for the other non-finite
    terms; the term scan runs on that failure path only."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):
        total = math.nan
    if math.isfinite(total):
        return total
    for n, term in enumerate(terms, 1):
        if not math.isfinite(term):
            raise ValueError(f"term of mode {n} is not finite; sum undefined")
    raise ValueError(f"sum of {len(terms)} finite terms overflows; sum undefined")


def lamb_shift_partial_sum(model: MultimodeModel, n_max: int) -> float:
    """Sum of g_n^2 / (omega_q - omega_n) over the first n_max modes.

    Terms tend to the constant -g_1^2/omega_1, so the partial sums grow
    linearly in n_max; there is no limit to converge to.
    """
    lamb, _, on_q, _ = _mode_terms(model, n_max)
    _refuse_resonance(on_q)
    return _finite_fsum(lamb)


def dispersive_partial_sum(model: MultimodeModel, n_max: int) -> float:
    """Total dispersive pull summed over the first n_max modes.

    Per-mode chi falls off as 1/(2n-1), a harmonic tail, so the partial sums
    grow like (g_1^2 alpha / omega_1^2) * (ln n_max)/2. Raises at the first
    mode resonant with either line.
    """
    _, chi, on_q, on_ef = _mode_terms(model, n_max)
    _refuse_resonance(on_q | on_ef)
    return _finite_fsum(chi)


@dataclass(frozen=True)
class DivergenceReport:
    n_values: tuple[int, ...]
    lamb_sums: tuple[float, ...]
    chi_sums: tuple[float, ...]
    lamb_slope: float
    lamb_intercept: float
    lamb_r_squared: float
    chi_increments: tuple[float, ...]
    chi_increment_spread: float
    chi_increment_asymptote: float
    degenerate: bool


def divergence_report(model: MultimodeModel, schedule=DEFAULT_SCHEDULE) -> DivergenceReport:
    """Partial-sum growth diagnostics over a cutoff schedule.

    Fits the Lamb sums linearly in the cutoff and reports R^2; collects the
    chi increments between consecutive doubled cutoffs, whose common limit
    is (g_1^2 alpha / omega_1^2) (ln 2)/2. With g_1 = 0 every sum is zero
    and the report is flagged degenerate.

    The kernel builds both term lists once, up to the largest cutoff, and
    every partial sum is the fsum of a prefix. fsum rounds the exact sum of
    its terms, so each sum is bit for bit the one lamb_shift_partial_sum or
    dispersive_partial_sum returns at that cutoff. A resonance below the
    largest cutoff raises at the first mode resonant with omega_q, else at
    the first resonant with the e-f line. A sum that is not finite raises
    next, the Lamb sums' first (_finite_fsum), then an asymptote that is
    not a finite number, and then a Lamb fit whose squared residuals
    overflow.
    """
    import numpy as np

    n_values = tuple(sorted(set(int(n) for n in schedule)))
    if len(n_values) < 2:
        raise ValueError("schedule needs at least two cutoffs")
    _need_modes(n_values[0])
    lamb_terms, chi_terms, on_q, on_ef = _mode_terms(model, n_values[-1])
    _refuse_resonance(on_q)
    _refuse_resonance(on_ef)
    lamb = tuple(_finite_fsum(lamb_terms[:n]) for n in n_values)
    chi = tuple(_finite_fsum(chi_terms[:n]) for n in n_values)
    try:
        asymptote = model.g_1 ** 2 * model.alpha / model.omega_1 ** 2 * 0.5 * math.log(2.0)
    except (OverflowError, ZeroDivisionError):    # omega_1^2 past the float range, or 0.0
        asymptote = math.nan
    if not math.isfinite(asymptote):
        raise ValueError("chi increment asymptote is not a finite number")

    with np.errstate(over="ignore"):
        slope, intercept = np.polyfit(n_values, lamb, 1)
        fitted = np.polyval([slope, intercept], n_values)
        ss_res = float(np.sum((np.asarray(lamb) - fitted) ** 2))
        ss_tot = float(np.sum((np.asarray(lamb) - np.mean(lamb)) ** 2))
    if not (math.isfinite(ss_res) and math.isfinite(ss_tot)):
        raise ValueError("Lamb fit residuals overflow; R^2 undefined")
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    increments = []
    by_n = dict(zip(n_values, chi))
    for n in n_values:
        if 2 * n in by_n:
            increments.append(by_n[2 * n] - by_n[n])
    if increments and any(x != 0.0 for x in increments):
        mean = math.fsum(increments) / len(increments)
        spread = max(abs(x - mean) for x in increments) / abs(mean)
    else:
        spread = 0.0

    return DivergenceReport(
        n_values=n_values,
        lamb_sums=lamb,
        chi_sums=chi,
        lamb_slope=float(slope),
        lamb_intercept=float(intercept),
        lamb_r_squared=r_squared,
        chi_increments=tuple(increments),
        chi_increment_spread=spread,
        chi_increment_asymptote=asymptote,
        degenerate=model.g_1 == 0.0,
    )
