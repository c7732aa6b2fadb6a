"""tests/oracle.py's secular function, in each arithmetic it evaluates in."""
import mpmath
import numpy as np
import pytest

from dressed_modes import BoundaryPole, RationalBoundary
from input_space import LAM_1, LENGTH, UNIT
from oracle import secular

# an absorption and an emission pole, a gamma term and beta below L/3
BND = RationalBoundary(beta=LENGTH / 4.0, gamma=-30.0, poles=(
    BoundaryPole(0.7 * LAM_1, UNIT), BoundaryPole(5.2 * LAM_1, -0.5 * UNIT),
))


def test_every_arithmetic_evaluates_the_same_h_with_its_limit_at_zero():
    """Python floats, float64 and longdouble arrays and 50-digit mpmath
    agree to rounding, lam = 0 included, where G takes its limit 1/L and
    H(0) = 1/L + gamma - sum_k delta_k / lam_k."""
    h = secular(LENGTH, BND)
    lams = [0.0, 1e-300, 0.3 * LAM_1, 2.0 * LAM_1, 7.5 * LAM_1]
    at_zero = 1.0 / LENGTH + BND.gamma - sum(p.strength / p.location for p in BND.poles)
    assert h(0.0) == pytest.approx(at_zero, rel=1e-15)
    wide = h(np.array(lams))
    extended = h(np.array(lams, dtype=np.longdouble))
    assert extended.dtype == np.longdouble
    with mpmath.workdps(50):
        exact = [float(h(mpmath.mpf(x))) for x in lams]
    for x, want, w, e in zip(lams, exact, wide, extended):
        assert h(x) == pytest.approx(want, rel=1e-13), x
        assert w == pytest.approx(want, rel=1e-13), x
        assert float(e) == pytest.approx(want, rel=1e-15), x
