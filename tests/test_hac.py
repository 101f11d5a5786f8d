"""Nested two-level cross-type dependence: validity, sampling, estimation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from granres import (
    ClaimRecord,
    CopulaSpec,
    HacSpec,
    Portfolio,
    WeibullDelayModel,
    default_model,
    hac_sample,
    parse_iso,
    synthesize,
)
from granres.copulas.dynamics import TimeVaryingParam
from granres.copulas.families import GUMBEL
from granres.copulas.hac import (
    MATCH_GAP_DAYS,
    fit_hac_outer,
    hac_cdf,
    hac_from_dict,
    hac_uniforms,
    match_days,
    matched_delay_scores,
)

CLAY2 = CopulaSpec("clayton", theta=2.0)
GUM2 = CopulaSpec("gumbel", theta=2.0)


def test_independence_outer_factorizes():
    spec = HacSpec("independence", None, CLAY2, GUM2)
    u = np.array([0.3, 0.6, 0.2, 0.8])
    prod = float(
        hac_cdf(HacSpec("independence", None, CLAY2, GUM2), u[0], u[1], 1.0, 1.0)
    ) * float(hac_cdf(spec, 1.0, 1.0, u[2], u[3]))
    assert_allclose(float(hac_cdf(spec, *u)), prod, rtol=1e-12)


def test_equal_parameters_collapse_to_exchangeable():
    th = 2.0
    eq = HacSpec("gumbel", th, CopulaSpec("gumbel", theta=th), CopulaSpec("gumbel", theta=th))
    for p in [(0.2, 0.5, 0.7, 0.9), (0.1, 0.1, 0.1, 0.1), (0.9, 0.4, 0.6, 0.3)]:
        direct = GUMBEL.gen_inv(sum(GUMBEL.gen(x, th) for x in p), th)
        assert_allclose(float(hac_cdf(eq, *p)), float(direct), atol=1e-12)


def test_cdf_is_symmetric_within_pairs():
    spec = HacSpec("gumbel", 1.2, CLAY2, GUM2)
    assert_allclose(
        float(hac_cdf(spec, 0.3, 0.7, 0.5, 0.9)),
        float(hac_cdf(spec, 0.7, 0.3, 0.5, 0.9)),
        rtol=1e-12,
    )
    assert_allclose(
        float(hac_cdf(spec, 0.3, 0.7, 0.5, 0.9)),
        float(hac_cdf(spec, 0.3, 0.7, 0.9, 0.5)),
        rtol=1e-12,
    )


def test_sample_pairwise_kendall_taus():
    spec = HacSpec("gumbel", 1.2, CLAY2, GUM2)
    rng = np.random.default_rng(33)
    u = hac_sample(spec, rng, size=4000)
    assert u.shape == (4000, 4)
    assert np.all((u > 0) & (u < 1))
    tau = lambda i, j: stats.kendalltau(u[:, i], u[:, j]).statistic
    assert abs(tau(0, 1) - 0.5) < 0.04  # inner pair A
    assert abs(tau(2, 3) - 0.5) < 0.04  # inner pair B
    for i in (0, 1):
        for j in (2, 3):
            assert abs(tau(i, j) - 1.0 / 6.0) < 0.04  # all cross pairs share the outer


def test_nesting_validity_enforced():
    with pytest.raises(ValueError, match="nesting violated"):
        HacSpec("gumbel", 2.0, CopulaSpec("clayton", theta=1.0), GUM2)
    # time-varying inner is judged by its long-run minimum, tau 1/3 here
    dyn = CopulaSpec(
        "clayton", dynamics=TimeVaryingParam(math.log(2.0), math.log(1.0), 0.5)
    )
    with pytest.raises(ValueError, match="nesting violated"):
        HacSpec("gumbel", 1.6, dyn, GUM2)  # outer tau 0.375 > 1/3
    HacSpec("gumbel", 1.4, dyn, GUM2)  # outer tau 0.286 <= 1/3 is fine
    # an independence outer copula nests any inner pair, negative tau too
    neg = CopulaSpec("frank", theta=-0.1)
    spec = HacSpec("independence", None, neg, CopulaSpec("independence"))
    assert spec.outer_tau() == 0.0 > neg.min_tau()


def test_hac_spec_validation_and_round_trip():
    with pytest.raises(ValueError, match="must be Archimedean"):
        HacSpec("gaussian", 0.5, CLAY2, GUM2)
    with pytest.raises(ValueError, match="takes no parameter"):
        HacSpec("independence", 1.5, CLAY2, GUM2)
    with pytest.raises(ValueError, match="needs a parameter"):
        HacSpec("gumbel", None, CLAY2, GUM2)
    spec = HacSpec("gumbel", 1.2, CLAY2, GUM2)
    assert hac_from_dict(spec.to_dict()) == spec
    indep = HacSpec("independence", None, CLAY2, GUM2)
    assert hac_from_dict(indep.to_dict()) == indep


def test_sample_with_parameter_callbacks():
    spec = HacSpec("gumbel", 1.2, CLAY2, GUM2)
    rng = np.random.default_rng(2)
    seen = []

    def theta_a(u1):
        seen.append(u1.shape)
        return np.full(u1.shape, 2.0)

    u = hac_sample(spec, rng, size=25, theta_a_fn=theta_a, theta_b_fn=lambda u3: 2.0)
    assert u.shape == (25, 4) and np.all((u > 0) & (u < 1))
    assert seen == [(25,)]  # one call with every row's first component


def test_sample_consumes_four_uniforms_per_row():
    spec = HacSpec("gumbel", 1.2, CLAY2, GUM2)
    for m in (0, 1, 7):
        rng = np.random.default_rng(5)
        hac_sample(spec, rng, size=m)
        ref = np.random.default_rng(5)
        ref.uniform(size=4 * m)
        assert rng.random() == ref.random()


def test_sample_reads_given_uniforms_in_place_of_rng():
    spec = HacSpec("gumbel", 1.2, CLAY2, GUM2)
    drawn = hac_sample(spec, np.random.default_rng(5), size=7)
    given = hac_sample(spec, uniforms=hac_uniforms(np.random.default_rng(5), 7))
    assert given.tobytes() == drawn.tobytes()
    for bad in ({}, {"rng": np.random.default_rng(5), "uniforms": np.full((1, 4), 0.5)}):
        with pytest.raises(ValueError, match="exactly one of rng and uniforms"):
            hac_sample(spec, **bad)


@pytest.mark.parametrize("outer", [("gumbel", 1.2), ("independence", None)])
def test_sample_rows_match_one_row_calls(outer):
    spec = HacSpec(*outer, CLAY2, GUM2)
    many = hac_sample(spec, np.random.default_rng(9), size=12)
    rng = np.random.default_rng(9)
    one_by_one = np.vstack([hac_sample(spec, rng, size=1) for _ in range(12)])
    assert_allclose(many, one_by_one, rtol=0, atol=1e-12)


def test_sample_theta_callback_is_per_row():
    # inner A's parameter follows u1: weak dependence below 0.5, strong
    # dependence above; each row must match a one-row draw at its own value
    spec = HacSpec("gumbel", 1.2, CLAY2, GUM2)
    u = hac_sample(
        spec,
        np.random.default_rng(4),
        size=40,
        theta_a_fn=lambda u1: np.where(u1 < 0.5, 0.5, 8.0),
    )
    low = u[:, 0] < 0.5
    assert 0 < low.sum() < low.size
    rng = np.random.default_rng(4)
    for i in range(u.shape[0]):
        th = 0.5 if low[i] else 8.0
        row = hac_sample(spec, rng, size=1, theta_a_fn=lambda u1, th=th: th)
        assert_allclose(row[0], u[i], rtol=0, atol=1e-12)


def test_matched_delay_scores_hand_case():
    dm = WeibullDelayModel(1.0, math.log(10.0), 0.0)
    claims = [
        ClaimRecord("a1", "bodily_injury", 10, 15),
        ClaimRecord("a2", "bodily_injury", 100, 103),
        ClaimRecord("b1", "material_damage", 12, 20),
        ClaimRecord("b2", "material_damage", 300, 301),
    ]
    port = Portfolio(claims, 400)
    sa, sb = matched_delay_scores(port, {"bodily_injury": dm, "material_damage": dm})
    # only the (day 10, day 12) pair is close enough; scores at w + 0.5
    assert_allclose(sa, [1.0 - math.exp(-5.5 / 10.0)], rtol=1e-12)
    assert_allclose(sb, [1.0 - math.exp(-8.5 / 10.0)], rtol=1e-12)

    single = Portfolio([c for c in claims if c.claim_type == "bodily_injury"], 400)
    with pytest.raises(ValueError, match="two claim types"):
        matched_delay_scores(single, {"bodily_injury": dm})


def test_match_days_hand_case():
    days_a = np.array([10, 3, 20, 40, 41])
    days_b = np.array([12, 11, 4, 44, 40, 22, 18])
    ia, ib, rest_a, rest_b = match_days(days_a, days_b, max_gap=2)
    # a is visited in day order 3, 10, 20, 40, 41; day 10 takes the nearer
    # 11 over 12; 20 has 18 and 22 both at exactly the gap bound and takes
    # the earlier; 41 finds its nearest day 40 taken by 40 and 44 beyond
    # the bound, so it stays unmatched
    assert ia.tolist() == [1, 0, 2, 3]
    assert ib.tolist() == [2, 1, 6, 4]
    assert rest_a.tolist() == [False, False, False, False, True]
    assert rest_b.tolist() == [True, False, False, True, False, True, False]
    ia, ib, rest_a, rest_b = match_days(days_a, days_b[:0], max_gap=2)
    assert ia.size == ib.size == 0 and rest_a.all() and rest_b.size == 0


def _loop_matched_pairs(portfolio, max_gap):
    """Claim-object loop reference for the cross-type matching."""
    a = sorted(portfolio.by_type("bodily_injury").claims, key=lambda c: c.accident_day)
    b = sorted(portfolio.by_type("material_damage").claims, key=lambda c: c.accident_day)
    pairs, j, used = [], 0, [False] * len(b)
    for c in a:
        d = c.accident_day
        while j < len(b) and (b[j].accident_day < d - max_gap or used[j]):
            j += 1
        best, best_gap = -1, max_gap + 1
        for k in range(j, min(j + 64, len(b))):
            gap = abs(b[k].accident_day - d)
            if not used[k] and gap < best_gap:
                best, best_gap = k, gap
            if b[k].accident_day > d + max_gap:
                break
        if best >= 0:
            used[best] = True
            pairs.append((c, b[best]))
    return pairs


@pytest.fixture(scope="module")
def matched():
    start, end = parse_iso("2016-01-01"), parse_iso("2018-12-31")
    truth = default_model(3000, start, end)
    return truth, synthesize(truth, start, end, np.random.default_rng(4))


def test_matched_delay_scores_match_the_claim_loop(matched):
    truth, port = matched
    dm = {t: truth.types[t].delay for t in truth.types}
    got = matched_delay_scores(port, dm)
    pairs = _loop_matched_pairs(port, MATCH_GAP_DAYS)
    assert got[0].size == len(pairs) > 100
    for side, x in enumerate(got):
        y = [
            dm[p[side].claim_type].cdf(p[side].accident_day, p[side].delay_days() + 0.5)
            for p in pairs
        ]
        assert x.tobytes() == np.asarray(y, dtype=float).tobytes()


@pytest.mark.parametrize("gap", [0, 3])
def test_match_days_matches_the_claim_loop(matched, gap):
    _, port = matched
    subs = [port.by_type(t) for t in ("bodily_injury", "material_damage")]
    ia, ib, _, _ = match_days(subs[0].accident_days, subs[1].accident_days, gap)
    pairs = _loop_matched_pairs(port, gap)
    assert ia.size > 100
    assert [subs[0].claims[i].claim_id for i in ia] == [a.claim_id for a, _ in pairs]
    assert [subs[1].claims[i].claim_id for i in ib] == [b.claim_id for _, b in pairs]


def test_fit_hac_outer_recovers_tau():
    rng = np.random.default_rng(9)
    a = rng.random(3000)
    b = GUMBEL.hinv(a, rng.random(3000), 1.5)
    fit = fit_hac_outer(a, b, CLAY2, CLAY2, "gumbel")
    assert fit.outer_family == "gumbel"
    assert abs(fit.outer_theta - 1.5) < 0.15


def test_fit_hac_outer_projections_and_errors():
    rng = np.random.default_rng(10)
    x = rng.random(500)
    fit0 = fit_hac_outer(x, 1.0 - x, CLAY2, CLAY2, "gumbel")
    assert fit0.outer_family == "independence"  # negative dependence floors at 0

    rng = np.random.default_rng(11)
    a = rng.random(2000)
    b = GUMBEL.hinv(a, rng.random(2000), 4.0)  # tau 0.75, above the inner cap 0.5
    with pytest.warns(UserWarning, match="nesting boundary"):
        fitc = fit_hac_outer(a, b, CLAY2, CLAY2, "gumbel")
    assert_allclose(fitc.outer_tau(), 0.5, atol=1e-9)

    # a negative-tau inner copula caps the outer at independence
    neg = CopulaSpec("frank", theta=-0.1)
    with pytest.warns(UserWarning, match="outer copula set to independence"):
        fitn = fit_hac_outer(a, b, neg, CLAY2, "gumbel")
    assert fitn.outer_family == "independence" and fitn.inner_a == neg

    with pytest.raises(ValueError, match="at least 20 matched pairs"):
        fit_hac_outer(x[:10], x[:10], CLAY2, CLAY2, "gumbel")
    with pytest.raises(ValueError, match="must be Archimedean"):
        fit_hac_outer(a, b, CLAY2, CLAY2, "gaussian")
