"""Hypothesis strategies for coefficients next to a Neumann level pi^2*n."""

import math

from hypothesis import strategies as st

from ndsquare.spectrum import DEFAULT_GUARD, PI2

#: a*k^2 just outside the guard of the level pi^2*25 = (pi*5)^2, by the
#: rounding ``is_resonant`` uses (pi^2*(5*5)), but inside it by the
#: rounding of the diagonal argument (pi^2*5)*5 at mode 0.
GUARD_EDGE_EXAMPLE = 246.74011002823397

# Coefficients just past the guard from a level pi^2*n, where a
# same-side argument sits next to a cot/csc pole.
NEAR_LEVEL = st.builds(
    lambda n, offset: PI2 * n + offset * DEFAULT_GUARD,
    st.sampled_from([1, 2, 4, 5, 8, 13, 25, 40]),
    st.sampled_from([-50.0, -2.0, 2.0, 50.0]),
)


def _near_edge(l: int, m: int, side: float, ulps: int) -> float:
    edge = PI2 * (l * l + m * m) + side * DEFAULT_GUARD
    return edge + ulps * math.ulp(edge)


# Coefficients within 40 ulp of a guard edge of a level pi^2*(l^2+m^2),
# where two roundings of the level can put them on different sides.
GUARD_EDGE = st.builds(
    _near_edge,
    st.integers(min_value=0, max_value=59),
    st.integers(min_value=0, max_value=59),
    st.sampled_from([-1.0, 1.0]),
    st.integers(min_value=-40, max_value=40),
)

# Coefficients 10^-u from a level pi^2*(l^2+m^2) with u in [3, 9]:
# inside the near-level switch of the diagonals, most outside the guard.
_LEVELS = sorted({l * l + m * m for l in range(8) for m in range(8)})
CLOSE_TO_LEVEL = st.builds(
    lambda n, exponent, side: PI2 * n + side * 10.0 ** -exponent,
    st.sampled_from(_LEVELS),
    st.floats(min_value=3.0, max_value=9.0),
    st.sampled_from([-1.0, 1.0]),
)

#: Coefficients of the figure-1 range together with both kinds above.
COEFFICIENT = (
    st.floats(min_value=-60.0, max_value=400.0) | NEAR_LEVEL | GUARD_EDGE
)
