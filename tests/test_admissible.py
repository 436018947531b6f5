"""Every admissible (N, p, delta, omega) ends in an accepted solve or a
typed QGroundError, never in an untyped exception or a rejected report."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qground.errors import QGroundError
from qground.params import Params
from qground.shooting import ShootingConfig, solve_ground_state

#: a low resolution keeps the sample cheap; coarse quadrature shows up as
#: typed gate failures, which the property allows
RESOLUTION = 256
#: the cap on p for N = 2, which has no existence bound
P_MAX_PLANE = Fraction(12)


@st.composite
def admissible_params(draw) -> Params:
    """N in 2..8; p an exact rational in one of the intervals that
    1 + 4/N, (N+2)/(N-2) and 3 + 4/N cut (1, existence bound) into, the
    thresholds themselves included; delta in {0} u [1e-3, 10] and omega in
    {0} u [2^-30, 16], both log-uniform."""
    n = draw(st.integers(2, 8))
    q = Params(n, 2, 0.0, 1.0)
    top = q.p_existence_max() if n >= 3 else P_MAX_PLANE
    marks = sorted({Fraction(1), q.p_mass_critical(), q.p_blowup(), top}
                   | ({q.p_critical()} if n >= 3 else set()))
    i = draw(st.integers(1, len(marks) - 1))
    k = draw(st.integers(0 if i > 1 else 1, 63))
    p = marks[i - 1] + Fraction(k, 64) * (marks[i] - marks[i - 1])
    delta = draw(st.just(0.0) | st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e))
    omega = draw(st.just(0.0) | st.floats(-30.0, 4.0).map(lambda e: 2.0 ** e))
    return Params(n, p, delta, omega)


def solve_outcome(params: Params) -> str:
    """"accepted", or the name of the typed error the solve raised."""
    try:
        report = solve_ground_state(params, ShootingConfig(RESOLUTION))
    except QGroundError as exc:
        return type(exc).__name__
    assert report.accepted()
    return "accepted"


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(admissible_params())
def test_admissible_solve_is_accepted_or_typed(params):
    solve_outcome(params)
