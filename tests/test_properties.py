"""Property tests for the copula inversions the samplers rely on, for the
nested draw's rows not depending on which rows are solved with them, and for
the claim data's CSV round trip."""

import io

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from granres import ClaimRecord, PaymentEvent, Portfolio, ingest_csv, write_csv
from granres.claims import CLAIM_TYPES
from granres.copulas import CopulaSpec, HacSpec, hac_sample
from granres.copulas.families import FAMILIES, bisect
from granres.copulas.hac import hac_uniforms

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


NESTING = ("clayton", "gumbel", "frank")


@st.composite
def nested_specs(draw):
    """A valid nested copula: outer tau at most either inner tau."""
    outer_tau = draw(st.floats(0.05, 0.3))
    inner = [
        CopulaSpec(name, theta=FAMILIES[name].theta_from_tau(draw(st.floats(outer_tau, 0.7))))
        for name in (draw(st.sampled_from(NESTING)), draw(st.sampled_from(NESTING)))
    ]
    outer = draw(st.sampled_from(NESTING))
    return HacSpec(outer, FAMILIES[outer].theta_from_tau(outer_tau), *inner)


@settings(max_examples=100, deadline=None)
@given(
    nested_specs(),
    st.lists(st.tuples(st.integers(0, 6), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_hac_sample_on_stacked_blocks_equals_each_block_alone(spec, blocks, seed):
    """Stacking blocks of uniforms into one solve changes no row, bit for bit,
    when each block's inner parameters come from its own per-row map."""
    rng = np.random.default_rng(seed)
    uniforms = [hac_uniforms(rng, size) for size, _ in blocks]

    def inner_map(spec_theta, slope):
        return lambda u: spec_theta * (1.0 + slope * u)

    def maps(k):
        theta = (spec.inner_a, spec.inner_b)[k].theta
        return [inner_map(theta, slope) for _, slope in blocks]

    alone = [
        hac_sample(spec, uniforms=u, theta_a_fn=fa, theta_b_fn=fb)
        for u, fa, fb in zip(uniforms, maps(0), maps(1))
    ]
    ends = np.cumsum([size for size, _ in blocks])
    starts = ends - [size for size, _ in blocks]

    def stacked_map(fns):
        return lambda u: np.concatenate([f(u[a:b]) for f, a, b in zip(fns, starts, ends)])

    stacked = hac_sample(
        spec,
        uniforms=np.concatenate(uniforms),
        theta_a_fn=stacked_map(maps(0)),
        theta_b_fn=stacked_map(maps(1)),
    )
    assert stacked.tobytes() == np.concatenate(alone).tobytes()


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
