"""The tests' random inputs, drawn from one valid input space.

A device and its transmon come from the gate's own table,
dressed_modes.acceptance.SPACE, and its named sub-spaces; this module adds
the axes of a raw boundary on the standard line and its named sub-spaces,
and builds the hypothesis strategies from both. Whether a draw is refused
is decided by one rule, acceptance._refused, which reads the solver's own
guards; the L/3 edge of beta is spectrum._slack's.
"""
import math

from hypothesis import strategies as st

from dressed_modes import BoundaryPole, RationalBoundary, spectrum
from dressed_modes.acceptance import SPACE, STANDARD_DEVICE, SUBSPACES, _refused

LENGTH = STANDARD_DEVICE.length
LAM_1 = (math.pi / (2.0 * LENGTH)) ** 2     # the bare fundamental; lam_max is just under 144 LAM_1
UNIT = LAM_1 / LENGTH                       # a strength of order one
# the beta at which the slack -L/3 - s turns 0
THIRD = -spectrum._slack(LENGTH, RationalBoundary())

# A raw boundary's axes: its number of poles, their locations in units of
# LAM_1 (some above lam_max), their strengths' magnitudes in units of
# LAM_1 / LENGTH, and gamma; beta is SPACE["beta"], in units of L/3.
POLES = (1, 3)
LOCATIONS = (0.05, 200.0)
STRENGTHS = (1e-3, 2.0)
GAMMA = (-500.0, 500.0)
# Named sub-spaces: locations up to just above the first Dirichlet pole
# (4 LAM_1), the seeded pin's gamma, beta just under L/3, test_dispersive's
# |omega_q - omega_1| in GHz either side of the mode, and the pinned sweeps'
# junction capacitance in F.
MIXED_LOCATIONS = (LOCATIONS[0], 5.5)
PIN_GAMMA = (0.0, GAMMA[1])
BETA_EDGE = 1.0 - 1e-9
DETUNING_MAGNITUDE = (-SUBSPACES["dispersive"]["detuning"][1], 3.0)
PIN_JUNCTION = (1e-15, 2e-14)


def boundary(locations, strengths, beta, gamma):
    """Poles at `locations` (units of LAM_1) of the given strengths, as a
    RationalBoundary, or None where RationalBoundary or solve_spectrum
    refuses them."""
    locs = [x * LAM_1 for x in locations]
    if _refused(LENGTH, locs):
        return None
    poles = tuple(BoundaryPole(loc, s) for loc, s in zip(locs, strengths))
    return RationalBoundary(beta=beta, gamma=gamma, poles=poles)


def random_boundary(locations, strengths, beta_frac, gamma):
    """A RANDOM_BOUNDARY draw, strengths in units of LAM_1 / LENGTH and beta
    in units of L/3, as a boundary()."""
    strengths = [s * LAM_1 / LENGTH for s in strengths]
    return boundary(locations, strengths, beta_frac * LENGTH / 3.0, gamma)


# residues of either sign, beta up to 2L/3 or just under L/3, gamma of
# either sign, for random_boundary
RANDOM_BOUNDARY = dict(
    locations=st.lists(st.floats(*MIXED_LOCATIONS), min_size=POLES[0], max_size=POLES[1], unique=True),
    strengths=st.lists(st.one_of(st.floats(*STRENGTHS), st.floats(-STRENGTHS[1], -STRENGTHS[0])),
                       min_size=POLES[1], max_size=POLES[1]),
    beta_frac=st.one_of(st.floats(*SPACE["beta"]), st.just(BETA_EDGE)),
    gamma=st.floats(*GAMMA),
)
# all-absorption boundaries, strengths of order one or tiny down to the least
# subnormal, beta either side of L/3, for boundary()
ABSORPTION = dict(
    locations=st.lists(st.floats(*LOCATIONS), min_size=POLES[0], max_size=POLES[1], unique=True),
    strengths=st.lists(st.one_of(st.floats(*STRENGTHS).map(lambda s: s * UNIT),
                                 st.sampled_from([5e-324, 1e-300, 1e-30])),
                       min_size=POLES[1], max_size=POLES[1]),
    beta=st.one_of(st.floats(*SPACE["beta"]).map(lambda f: f * THIRD),
                   st.sampled_from([BETA_EDGE * THIRD, THIRD, math.nextafter(THIRD, math.inf)])),
    gamma=st.floats(*GAMMA),
)
