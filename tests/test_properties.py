"""Property tests for the copula inversions the samplers rely on."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from granres.copulas.families import FAMILIES, bisect

UNIT = st.floats(0.01, 0.99)


@st.composite
def family_and_theta(draw):
    name = draw(st.sampled_from(sorted(FAMILIES)))
    lo, hi = FAMILIES[name].theta_bounds
    return name, draw(st.floats(lo, hi))


@settings(max_examples=300, deadline=None)
@given(family_and_theta(), UNIT, UNIT)
def test_hinv_inverts_h(fam_theta, u, v):
    name, theta = fam_theta
    fam = FAMILIES[name]
    p = float(fam.h(u, v, theta))
    # where h is flat to within the inversions' clipping, v is not identified
    assume(1e-6 < p < 1.0 - 1e-6)
    back = float(fam.hinv(u, p, theta))
    assert abs(back - v) < 1e-9


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-5.0, 5.0),
    st.floats(0.1, 10.0),
    st.floats(0.2, 5.0),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20),
)
def test_bisect_hits_interior_targets_and_takes_the_ends_outside(a, b, c, targets):
    lo, hi = 0.25, 3.0

    def f(x):
        return a + b * x**c

    target = np.array(targets)
    x = bisect(f, target, lo, hi)
    below = target <= f(lo)
    above = target >= f(hi)
    assert np.all(x[below] == lo)
    assert np.all(x[above & ~below] == hi)
    inside = ~below & ~above
    assert np.all((x >= lo) & (x <= hi))
    assert np.all(np.abs(f(x[inside]) - target[inside]) <= 1e-9 * (1.0 + b * hi**c))
