"""Property tests for the copula inversions the samplers rely on, for the
nested draw's rows not depending on which rows are solved with them, for the
cross-type day matching, the count searches and payment placement against
plain references, for the claim data's CSV round trip and sub-portfolios,
and for the columnar CSV ingest against the row-by-row one."""

import csv
import io

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy import special, stats

from granres import (
    ClaimRecord,
    CountProcess,
    ExponentialDecay,
    PaymentEvent,
    Portfolio,
    ingest_csv_report,
    write_csv,
)
from granres.claims import _COLUMNS, _PAYMENTS, CLAIM_TYPES, censor
from granres.copulas.dynamics import CopulaSpec, TimeVaryingParam
from granres.copulas.families import FAMILIES, bisect
from granres.copulas.hac import HacSpec, hac_sample, hac_uniforms, match_days
from granres.copulas.mixed import conditional_count_quantile, count_quantile
from granres.daycount import DAYS_PER_YEAR
from granres.reserving import _place_payments
from helpers import copula_cdf, ingest_csv_report_loop, nearest_unused_pairs, records_portfolio

UNIT = st.floats(0.01, 0.99)


@st.composite
def family_and_theta(draw, names=tuple(sorted(FAMILIES))):
    name = draw(st.sampled_from(names))
    lo, hi = FAMILIES[name].theta_bounds
    return name, draw(st.floats(lo, hi))


@settings(max_examples=300, deadline=None)
@given(family_and_theta(("clayton", "frank", "gaussian", "gumbel")), UNIT, UNIT)
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
    """A valid nested copula: the outer spec and its two inner copulas, outer
    tau at most either inner tau."""
    outer_tau = draw(st.floats(0.05, 0.3))
    inner = [
        CopulaSpec(name, theta=FAMILIES[name].theta_from_tau(draw(st.floats(outer_tau, 0.7))))
        for name in (draw(st.sampled_from(NESTING)), draw(st.sampled_from(NESTING)))
    ]
    outer = draw(st.sampled_from(NESTING))
    return HacSpec(outer, FAMILIES[outer].theta_from_tau(outer_tau)), inner


@settings(max_examples=100, deadline=None)
@given(
    nested_specs(),
    st.lists(st.tuples(st.integers(0, 6), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_hac_sample_on_stacked_blocks_equals_each_block_alone(nested, blocks, seed):
    """Stacking blocks of uniforms into one solve changes no row, bit for bit,
    when each block's inner parameters come from its own per-row map."""
    spec, inner = nested
    rng = np.random.default_rng(seed)
    uniforms = [hac_uniforms(rng, size) for size, _ in blocks]

    def inner_map(spec_theta, slope):
        return lambda u: spec_theta * (1.0 + slope * u)

    def maps(k):
        theta = inner[k].theta
        return [inner_map(theta, slope) for _, slope in blocks]

    alone = [
        hac_sample(spec, *inner, uniforms=u, theta_a_fn=fa, theta_b_fn=fb)
        for u, fa, fb in zip(uniforms, maps(0), maps(1))
    ]
    ends = np.cumsum([size for size, _ in blocks])
    starts = ends - [size for size, _ in blocks]

    def stacked_map(fns):
        return lambda u: np.concatenate([f(u[a:b]) for f, a, b in zip(fns, starts, ends)])

    stacked = hac_sample(
        spec,
        *inner,
        uniforms=np.concatenate(uniforms),
        theta_a_fn=stacked_map(maps(0)),
        theta_b_fn=stacked_map(maps(1)),
    )
    assert stacked.tobytes() == np.concatenate(alone).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.floats(0.0, 30.0),
    st.floats(0.0, 30.0),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)
def test_match_days_is_the_nearest_unused_greedy(n_days, per_day_a, per_day_b, gap, seed):
    """At 0 to 30 claims per type per day: the brute-force greedy's pairs in
    its order, each claim used at most once, every pair within the gap, and
    the rest masks exactly the unmatched claims."""
    rng = np.random.default_rng(seed)
    days_a = rng.integers(0, n_days, rng.poisson(per_day_a * n_days))
    days_b = rng.integers(0, n_days, rng.poisson(per_day_b * n_days))
    ia, ib, rest_a, rest_b = match_days(days_a, days_b, gap)
    ref_a, ref_b = nearest_unused_pairs(days_a, days_b, gap)
    assert_array_equal(ia, ref_a)
    assert_array_equal(ib, ref_b)
    assert np.unique(ia).size == ia.size and np.unique(ib).size == ib.size
    assert np.all(np.abs(days_a[ia] - days_b[ib]) <= gap)
    assert_array_equal(rest_a, ~np.isin(np.arange(days_a.size), ia))
    assert_array_equal(rest_b, ~np.isin(np.arange(days_b.size), ib))


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
    return records_portfolio(claims, max(days, default=0) + draw(st.integers(0, 30)))


@settings(max_examples=200, deadline=None)
@given(portfolios())
def test_csv_round_trip_is_the_identity(portfolio):
    buf = io.StringIO()
    write_csv(portfolio, buf)
    buf.seek(0)
    back, _ = ingest_csv_report(buf, cutoff=portfolio.data_cutoff, diagnostics=io.StringIO())
    assert back == portfolio
    assert back.claims == portfolio.claims


# small pools, so that claims repeat and rows collide: ids that need quoting
# or stripping, type aliases, padded fields; DIRTY adds a value that breaks
# each rule, including dates that are not YYYY-MM-DD
VALID = (
    ("c1", "c2", " c1 ", "a,b", 'q"x', "x\ny", "x\r\ny"),
    ("bodily_injury", "material_damage", "bodilyinjury", "Material Damage", " BODILY_INJURY "),
    ("2018-01-01", " 2018-01-05 "),
    ("2018-01-05", "2018-02-01"),
    ("2018-02-01", "2019-06-01"),
    ("100.00", "100.0", " 5 ", "1.234", "-25", "-0.5"),
)
DIRTY = (
    ("", " "),
    ("hail", ""),
    ("2018-13-01", "20180101", "2018-W01-1", "", "2018-03-01"),
    ("2017-12-31", "2018-13-01", ""),
    ("2017-12-31", "2018-W01-1", ""),
    ("0", "-0.0", "nan", "inf", "-inf", "1e400", "abc", ""),
)
BLANK = st.lists(st.sampled_from(("", " ", "\t")), max_size=8)


@st.composite
def dirty_csv(draw):
    """CSV text with every kind of row ingest tells apart: blank at any field
    count, the wrong field count, paymentless rows, repeats of earlier rows,
    and rows, new or copied from earlier ones, with one field changed to any
    value, which breaks a rule or makes the claim inconsistent."""
    rows, six = [], []
    # row kinds, weighted: r valid, p paymentless, d a repeat of a recent
    # row, v one field changed, b blank, w the wrong field count
    for kind in draw(st.lists(st.sampled_from("rrppdddvvvvbw"), max_size=24)):
        if kind == "b":
            rows.append(draw(BLANK))
        elif kind == "w":
            field = st.sampled_from(VALID[0] + VALID[2] + DIRTY[2])
            fields = st.lists(field, min_size=1, max_size=8).filter(lambda r: len(r) != 6)
            rows.append(draw(fields))
        elif kind == "d" and rows:
            rows.append(draw(st.sampled_from(rows[-3:])))
        else:
            row = [draw(st.sampled_from(pool)) for pool in VALID]
            if kind == "v":
                if six and draw(st.booleans()):
                    row = list(draw(st.sampled_from(six[-3:])))
                i = draw(st.integers(0, 5))
                row[i] = draw(st.sampled_from(VALID[i] + DIRTY[i]))
            six.append(row[:4] + ["", ""] if kind == "p" else row)
            rows.append(six[-1])
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["claim_id", "claim_type", "accident_date", "reporting_date", "payment_date",
                "amount"])
    w.writerows(rows)
    return buf.getvalue()


def _ingest_outcome(ingest, text, cutoff):
    diag = io.StringIO()
    try:
        portfolio, report = ingest(io.StringIO(text), cutoff=cutoff, diagnostics=diag)
    except ValueError as e:
        return ("raised", str(e)), None, diag.getvalue()
    return portfolio, report, diag.getvalue()


# no cutoff, or one that some dates pass: 2018-01-31 or 2019-03-02
@settings(max_examples=200, deadline=None)
@given(dirty_csv(), st.sampled_from((None, None, 6605, 7000)))
def test_columnar_ingest_matches_the_row_loop(text, cutoff):
    # the same Portfolio, every IngestReport field, and the same diagnostic text
    new = _ingest_outcome(ingest_csv_report, text, cutoff)
    old = _ingest_outcome(ingest_csv_report_loop, text, cutoff)
    assert new[0] == old[0]
    assert new[1] == old[1]
    assert new[2] == old[2]


@settings(max_examples=300, deadline=None)
@given(family_and_theta(), *(st.floats(0.0, 1.0),) * 4)
def test_copula_cdf_gives_every_rectangle_nonnegative_mass(fam_theta, a, b, c, d):
    name, theta = fam_theta

    def cdf(u, v):
        return copula_cdf(name, u, v, theta)

    (u1, u2), (v1, v2) = sorted((a, b)), sorted((c, d))
    mass = cdf(u2, v2) - cdf(u1, v2) - cdf(u2, v1) + cdf(u1, v1)
    assert float(mass) >= -1e-12


class _RecordedIntensity:
    """An intensity that keeps the cumulative values it is asked to invert."""

    REDRAW_BOUNDS = ExponentialDecay.REDRAW_BOUNDS

    def __init__(self, inner):
        self.inner = inner
        self.seen = None

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def cumulative_inv(self, x):
        self.seen = np.array(x)
        return self.inner.cumulative_inv(x)


def _place_reference(intensity, n, u, r, lam_hi, last_day):
    """_place_payments with each claim's uniforms sorted on their own."""
    idx = np.repeat(np.arange(n.size), n)
    ends = np.cumsum(n)
    u = np.concatenate([np.sort(u[e - k : e]) for e, k in zip(ends, n)])
    x = u * lam_hi[idx]
    days = r[idx] + np.ceil(intensity.cumulative_inv(x) * DAYS_PER_YEAR).astype(np.int64)
    return idx, x, np.clip(days, r[idx] + 1, last_day)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=30),
    st.integers(0, 30),
    st.sampled_from([0, 1, 250, 700]),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_place_payments_sorts_each_claims_uniforms(counts, at, big, pool, repeat, seed):
    """Zero counts, one claim with hundreds of payments, and repeated u."""
    n = np.array(counts[:at] + [big] + counts[at:], dtype=np.int64)
    rng = np.random.default_rng(seed)
    total = int(n.sum())
    u = rng.choice(np.array(pool), total) if repeat else rng.random(total)
    a, b = 365, 1095
    r = rng.integers(a + 1, b + 1, n.size)
    inner = ExponentialDecay(2.0, 1.0)
    lam_hi = inner.cumulative((b - r) / DAYS_PER_YEAR)
    recorded = _RecordedIntensity(inner)
    idx, days = _place_payments(recorded, n, r, lam_hi, b, u)
    if total == 0:
        assert idx.size == 0 and days.size == 0
        return
    want_idx, want_x, want_days = _place_reference(inner, n, u, r, lam_hi, b)
    assert_array_equal(idx, want_idx)
    assert recorded.seen.tobytes() == want_x.tobytes()
    assert_array_equal(days, want_days)


# lambda = 800 (1 - exp(-horizon)) runs from 0 at horizon 0 to about 798
WIDE = CountProcess(ExponentialDecay(800.0, 1.0))
HORIZON = st.one_of(st.just(0.0), st.floats(0.0, 0.01), st.floats(0.0, 6.0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(st.floats(0.0, 1.0), st.just(float("nan"))), HORIZON),
        min_size=1,
        max_size=40,
    )
)
def test_count_quantile_equals_the_poisson_ppf(rows):
    u, horizon = (np.array(x) for x in zip(*rows))
    lam = WIDE.intensity.cumulative(horizon)
    clipped = np.clip(u, 1e-300, 1.0 - 1e-16)
    got = count_quantile(u, horizon, WIDE)
    # the smallest n with Q(n) >= u (0 at NaN u), from the cdf over every n
    # up to where it is 1
    ns = np.arange(int(lam.max() + 40.0 * np.sqrt(lam.max()) + 60.0))
    target = np.nan_to_num(clipped, nan=0.0)
    reached = special.pdtr(ns[None, :], lam[:, None]) >= target[:, None]
    assert reached[:, -1].all()
    assert_array_equal(got, np.argmax(reached, axis=1))
    # scipy's quantile is the same n, except within a few ulps of 1, where
    # the rounded cdf is flat over several n and scipy's lands past the first
    ppf = np.nan_to_num(stats.poisson.ppf(clipped, lam), nan=0.0).astype(np.int64)
    away = np.isnan(u) | (clipped <= 1.0 - 1e-12)
    assert_array_equal(got[away], ppf[away])


def _first_count_reaching(u, v, lam, fam, theta):
    """The smallest n with h(u, Q(n)) >= v, from one matrix over every n up
    to where the Poisson cdf is 1."""
    top = float(lam.max())
    ns = np.arange(int(top + 40.0 * np.sqrt(top) + 60.0))
    q = special.pdtr(ns[None, :], lam[:, None])
    assert np.all(q[:, -1] == 1.0)
    ok = fam.h(u[:, None], q, np.broadcast_to(theta, u.shape)[:, None]) >= v[:, None]
    assert ok.any(axis=1).all()
    return np.argmax(ok, axis=1)


COUNT_FAMILIES = ("clayton", "gumbel", "frank", "gaussian")
# v close to 1 settles past the search's first block of counts
NEAR_ONE = st.one_of(st.floats(0.0, 1.0), st.floats(1.0 - 1e-12, 1.0))


@st.composite
def count_copulas(draw):
    """A constant or time-varying copula of a family the count search inverts."""
    name = draw(st.sampled_from(COUNT_FAMILIES))
    fam = FAMILIES[name]
    lo, hi = fam.theta_bounds
    inside = st.floats(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo))
    if not draw(st.booleans()):
        return CopulaSpec(name, theta=draw(inside))
    etas = sorted(float(fam.link(draw(inside))) for _ in range(2))
    dyn = TimeVaryingParam(eta0=etas[1], eta_inf=etas[0], kappa=draw(st.floats(0.0, 3.0)))
    return CopulaSpec(name, dynamics=dyn)


@settings(max_examples=300, deadline=None)
@given(
    count_copulas(),
    st.lists(st.tuples(st.floats(0.0, 1.0), NEAR_ONE, HORIZON), min_size=1, max_size=30),
)
# h(u, Q(n)) is not monotone in n here: the first n is 1029, while a walk
# from the normal guess that stops once h reaches v stops at 1042
@example(CopulaSpec("frank", theta=3.5), [(0.0, 1.0, 5.5)])
def test_conditional_count_quantile_equals_the_full_matrix_search(spec, rows):
    u, v, horizon = (np.array(x) for x in zip(*rows))
    lam = WIDE.intensity.cumulative(horizon)
    want = _first_count_reaching(u, v, lam, FAMILIES[spec.family], spec.theta_at(horizon))
    assert_array_equal(conditional_count_quantile(u, v, horizon, WIDE, spec), want)


def _shuffled_columns(portfolio, rng):
    """The portfolio's columns with the claims and each claim's payments in
    random order, as the Portfolio constructor takes them."""
    order = rng.permutation(len(portfolio))
    counts = np.diff(portfolio.pay_ptr)[order]
    spans = [rng.permutation(np.arange(*portfolio.pay_ptr[i : i + 2])) for i in order]
    pays = np.concatenate([np.zeros(0, dtype=np.int64)] + spans)
    claims = [getattr(portfolio, k)[order] for k in _COLUMNS]
    return claims + [counts, portfolio.pay_days[pays], portfolio.pay_amounts[pays]]


@settings(max_examples=200, deadline=None)
@given(portfolios(), st.integers(0, 2**32 - 1))
def test_select_equals_a_rebuild_from_the_same_columns(portfolio, seed):
    rng = np.random.default_rng(seed)
    # the constructor sorts the claims and the payments that step back
    p = Portfolio(*_shuffled_columns(portfolio, rng), portfolio.data_cutoff)
    keep = rng.random(len(p)) < 0.6
    pay_keep = rng.random(p.pay_days.size) < 0.7
    a = int(rng.integers(-2000, p.data_cutoff + 1))
    cases = [
        (p._select(keep, pay_keep), keep, pay_keep, p.data_cutoff),
        (censor(p, a), p.reporting_days <= a, p.pay_days <= a, a),
        (p.by_type(CLAIM_TYPES[0]), p.type_codes == 0, True, p.data_cutoff),
    ]
    for sub, keep, pay_keep, cutoff in cases:
        pays = keep[p.pay_owner] & pay_keep
        rebuilt = Portfolio(
            *(getattr(p, k)[keep] for k in _COLUMNS),
            np.bincount(p.pay_owner[pays], minlength=len(p))[keep],
            p.pay_days[pays],
            p.pay_amounts[pays],
            cutoff,
        )
        assert sub == rebuilt and sub.data_cutoff == rebuilt.data_cutoff
        assert sub.claims == rebuilt.claims
        for k in _COLUMNS + _PAYMENTS + ("pay_owner",):
            got, want = getattr(sub, k), getattr(rebuilt, k)
            assert got.dtype == want.dtype and not got.flags.writeable
            assert_array_equal(got, want)
