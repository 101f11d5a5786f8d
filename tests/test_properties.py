"""Property tests for the copula inversions the samplers rely on and for the
claim data's CSV round trip."""

import io

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from granres import ClaimRecord, PaymentEvent, Portfolio, ingest_csv, write_csv
from granres.claims import CLAIM_TYPES
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


# claim ids may need CSV quoting, but carry no edge whitespace (ingest strips it)
CLAIM_ID = st.text('abz09_-,"', min_size=1, max_size=6)
CENTS = st.integers(-(10**7), 10**7).filter(bool)


@st.composite
def portfolios(draw):
    """Both claim types, paymentless claims, negative and cent amounts, and
    payments listed out of day order."""
    claims = []
    for cid in draw(st.lists(CLAIM_ID, max_size=8, unique=True)):
        acc = draw(st.integers(-2000, 8000))
        rep = acc + draw(st.integers(0, 400))
        pays = draw(st.lists(st.tuples(st.integers(0, 900), CENTS), max_size=4))
        payments = tuple(PaymentEvent(rep + d, c / 100) for d, c in pays)
        claims.append(ClaimRecord(cid, draw(st.sampled_from(CLAIM_TYPES)), acc, rep, payments))
    days = [c.reporting_day for c in claims] + [p.day for c in claims for p in c.payments]
    return Portfolio(claims, max(days, default=0) + draw(st.integers(0, 30)))


@settings(max_examples=200, deadline=None)
@given(portfolios())
def test_csv_round_trip_is_the_identity(portfolio):
    buf = io.StringIO()
    write_csv(portfolio, buf)
    back = ingest_csv(buf.getvalue(), cutoff=portfolio.data_cutoff, diagnostics=io.StringIO())
    assert back == portfolio
    assert back.claims == portfolio.claims
