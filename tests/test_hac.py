"""Nested two-level cross-type dependence: validity, sampling, estimation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from granres import (
    ClaimRecord,
    CopulaSpec,
    GranularModel,
    HacSpec,
    WeibullDelayModel,
    default_model,
    hac_sample,
    parse_iso,
    reserving,
    synthesize,
)
from granres.copulas.dynamics import TimeVaryingParam
from granres.copulas.families import CLAYTON, GUMBEL
from granres.copulas.hac import (
    MATCH_GAP_DAYS,
    fit_hac_outer,
    hac_cdf,
    hac_from_dict,
    hac_uniforms,
    match_days,
    matched_delay_scores,
)
from helpers import records_portfolio

CLAY2 = CopulaSpec("clayton", theta=2.0)
GUM2 = CopulaSpec("gumbel", theta=2.0)
INNER = (CLAY2, GUM2)


def _nested_model(hac, *copulas):
    """The archimedean generator with its two type copulas replaced."""
    truth = default_model(1000, parse_iso("2016-01-01"), parse_iso("2017-12-31"), "archimedean")
    names = truth.type_names()[: len(copulas)]
    types = {t: replace(truth.types[t], copula=c) for t, c in zip(names, copulas)}
    return GranularModel(types=types, hac=hac)


def test_independence_outer_factorizes():
    # a Gumbel outer copula at theta 1 (tau 0) is the independence copula
    spec = HacSpec("gumbel", 1.0)
    u = np.array([0.3, 0.6, 0.2, 0.8])
    prod = float(hac_cdf(spec, *INNER, u[0], u[1], 1.0, 1.0)) * float(
        hac_cdf(spec, *INNER, 1.0, 1.0, u[2], u[3])
    )
    assert_allclose(float(hac_cdf(spec, *INNER, *u)), prod, rtol=1e-12)


def test_equal_parameters_collapse_to_exchangeable():
    th = 2.0
    eq = HacSpec("gumbel", th)
    inner = CopulaSpec("gumbel", theta=th)
    for p in [(0.2, 0.5, 0.7, 0.9), (0.1, 0.1, 0.1, 0.1), (0.9, 0.4, 0.6, 0.3)]:
        direct = GUMBEL.gen_inv(sum(GUMBEL.gen(x, th) for x in p), th)
        assert_allclose(float(hac_cdf(eq, inner, inner, *p)), float(direct), atol=1e-12)


def test_cdf_is_symmetric_within_pairs():
    spec = HacSpec("gumbel", 1.2)
    assert_allclose(
        float(hac_cdf(spec, *INNER, 0.3, 0.7, 0.5, 0.9)),
        float(hac_cdf(spec, *INNER, 0.7, 0.3, 0.5, 0.9)),
        rtol=1e-12,
    )
    assert_allclose(
        float(hac_cdf(spec, *INNER, 0.3, 0.7, 0.5, 0.9)),
        float(hac_cdf(spec, *INNER, 0.3, 0.7, 0.9, 0.5)),
        rtol=1e-12,
    )


def test_sample_pairwise_kendall_taus():
    spec = HacSpec("gumbel", 1.2)
    rng = np.random.default_rng(33)
    u = hac_sample(spec, *INNER, hac_uniforms(rng, 4000))
    assert u.shape == (4000, 4)
    assert np.all((u > 0) & (u < 1))
    tau = lambda i, j: stats.kendalltau(u[:, i], u[:, j]).statistic
    assert abs(tau(0, 1) - 0.5) < 0.04  # inner pair A
    assert abs(tau(2, 3) - 0.5) < 0.04  # inner pair B
    for i in (0, 1):
        for j in (2, 3):
            assert abs(tau(i, j) - 1.0 / 6.0) < 0.04  # all cross pairs share the outer


def test_nesting_validity_enforced():
    with pytest.raises(ValueError, match="nesting violated: .* the first inner"):
        _nested_model(HacSpec("gumbel", 2.0), CopulaSpec("clayton", theta=1.0), GUM2)
    with pytest.raises(ValueError, match="nesting violated: .* the second inner"):
        _nested_model(HacSpec("gumbel", 2.0), GUM2, CopulaSpec("clayton", theta=1.0))
    # time-varying inner is judged by its long-run minimum, tau 1/3 here
    dyn = CopulaSpec(
        "clayton", dynamics=TimeVaryingParam(math.log(2.0), math.log(1.0), 0.5)
    )
    with pytest.raises(ValueError, match="nesting violated"):
        _nested_model(HacSpec("gumbel", 1.6), dyn, GUM2)  # outer tau 0.375 > 1/3
    _nested_model(HacSpec("gumbel", 1.4), dyn, GUM2)  # outer tau 0.286 <= 1/3 is fine
    # a nesting joins exactly two claim types
    with pytest.raises(ValueError, match="exactly two claim types"):
        _nested_model(HacSpec("gumbel", 1.2), CLAY2)
    # independent types (no nesting) take any inner pair, negative tau too
    neg = CopulaSpec("frank", theta=-0.1)
    assert _nested_model(None, neg, CopulaSpec("independence")).hac is None


def test_hac_spec_validation_and_round_trip():
    with pytest.raises(ValueError, match="must be Archimedean"):
        HacSpec("gaussian", 0.5)
    # an independent outer copula is no nesting: the model's hac is None
    for theta in (None, 1.5):
        with pytest.raises(ValueError, match="must be Archimedean"):
            HacSpec("independence", theta)
    with pytest.raises(ValueError, match="needs a parameter"):
        HacSpec("gumbel", None)
    spec = HacSpec("gumbel", 1.2)
    assert spec.to_dict() == {"outer_family": "gumbel", "outer_theta": 1.2}
    assert hac_from_dict(spec.to_dict()) == spec


def test_saved_inner_copies_are_ignored():
    """A model.json that still carries inner_a/inner_b in its hac block loads
    to the same model; one with an independence outer does not load."""
    model = default_model(1000, parse_iso("2016-01-01"), parse_iso("2017-12-31"), "archimedean")
    d = model.to_dict()
    copies = {k: d["types"][t]["copula"] for k, t in zip(("inner_a", "inner_b"), d["types"])}
    assert GranularModel.from_dict(dict(d, hac=dict(d["hac"], **copies))) == model
    with pytest.raises(ValueError, match="must be Archimedean"):
        GranularModel.from_dict(dict(d, hac={"outer_family": "independence", **copies}))


def test_inner_family_is_the_type_copula():
    """The paired claims of a nested model draw inner pair A from the first
    type's own copula: u2 solves the Clayton h-function, whatever a Gumbel
    copula of the same parameter would give."""
    model = _nested_model(HacSpec("gumbel", 1.2), CopulaSpec("clayton", theta=1.5), GUM2)
    start, end = parse_iso("2016-01-01"), parse_iso("2017-12-31")
    days = dict.fromkeys(model.type_names(), start)
    draw = reserving._draw_arrivals(model, days, end, np.random.default_rng(3))
    batch = reserving._batch([model], [np.random.default_rng(3)])
    rows = reserving._solve_pairs(batch, [draw], end)[0]
    uniforms = draw[2]
    assert rows.shape[0] > 100
    clayton = np.clip(CLAYTON.hinv(uniforms[:, 0], uniforms[:, 1], 1.5), 1e-9, 1.0 - 1e-9)
    gumbel = np.clip(GUMBEL.hinv(uniforms[:, 0], uniforms[:, 1], 1.5), 1e-9, 1.0 - 1e-9)
    assert rows[:, 1].tobytes() == clayton.tobytes()
    assert not np.allclose(rows[:, 1], gumbel)


def test_sample_with_parameter_callbacks():
    spec = HacSpec("gumbel", 1.2)
    rng = np.random.default_rng(2)
    seen = []

    def theta_a(u1):
        seen.append(u1.shape)
        return np.full(u1.shape, 2.0)

    u = hac_sample(
        spec, *INNER, hac_uniforms(rng, 25), theta_a_fn=theta_a, theta_b_fn=lambda u3: 2.0
    )
    assert u.shape == (25, 4) and np.all((u > 0) & (u < 1))
    assert seen == [(25,)]  # one call with every row's first component


def test_sample_consumes_four_uniforms_per_row():
    spec = HacSpec("gumbel", 1.2)
    for m in (0, 1, 7):
        rng = np.random.default_rng(5)
        hac_sample(spec, *INNER, hac_uniforms(rng, m))
        ref = np.random.default_rng(5)
        ref.uniform(size=4 * m)
        assert rng.random() == ref.random()


def test_sample_solves_each_row_of_given_uniforms():
    # each row solves its own uniforms: the first passes through
    uniforms = hac_uniforms(np.random.default_rng(5), 7)
    for outer in (("gumbel", 1.2), ("frank", 2.0)):
        rows = hac_sample(HacSpec(*outer), *INNER, uniforms)
        assert rows[:, 0].tobytes() == uniforms[:, 0].tobytes()


@pytest.mark.parametrize("outer", [("gumbel", 1.2), ("frank", 2.0)])
def test_sample_rows_match_one_row_calls(outer):
    spec = HacSpec(*outer)
    many = hac_sample(spec, *INNER, hac_uniforms(np.random.default_rng(9), 12))
    rng = np.random.default_rng(9)
    one_by_one = np.vstack([hac_sample(spec, *INNER, hac_uniforms(rng, 1)) for _ in range(12)])
    assert_allclose(many, one_by_one, rtol=0, atol=1e-12)


def test_sample_theta_callback_is_per_row():
    # inner A's parameter follows u1: weak dependence below 0.5, strong
    # dependence above; each row must match a one-row draw at its own value
    spec = HacSpec("gumbel", 1.2)
    u = hac_sample(
        spec,
        *INNER,
        hac_uniforms(np.random.default_rng(4), 40),
        theta_a_fn=lambda u1: np.where(u1 < 0.5, 0.5, 8.0),
    )
    low = u[:, 0] < 0.5
    assert 0 < low.sum() < low.size
    rng = np.random.default_rng(4)
    for i in range(u.shape[0]):
        th = 0.5 if low[i] else 8.0
        row = hac_sample(spec, *INNER, hac_uniforms(rng, 1), theta_a_fn=lambda u1, th=th: th)
        assert_allclose(row[0], u[i], rtol=0, atol=1e-12)


def test_matched_delay_scores_hand_case():
    dm = WeibullDelayModel(1.0, math.log(10.0), 0.0)
    claims = [
        ClaimRecord("a1", "bodily_injury", 10, 15),
        ClaimRecord("a2", "bodily_injury", 100, 103),
        ClaimRecord("b1", "material_damage", 12, 20),
        ClaimRecord("b2", "material_damage", 300, 301),
    ]
    port = records_portfolio(claims, 400)
    sa, sb = matched_delay_scores(
        port.by_type("bodily_injury"), port.by_type("material_damage"), dm, dm
    )
    # only the (day 10, day 12) pair is close enough; scores at w + 0.5
    assert_allclose(sa, [1.0 - math.exp(-5.5 / 10.0)], rtol=1e-12)
    assert_allclose(sb, [1.0 - math.exp(-8.5 / 10.0)], rtol=1e-12)


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
    bi, md = "bodily_injury", "material_damage"
    got = matched_delay_scores(port.by_type(bi), port.by_type(md), dm[bi], dm[md])
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
    # negative dependence floors at 0: independent types, no nesting
    assert fit_hac_outer(x, 1.0 - x, CLAY2, CLAY2, "gumbel") is None

    rng = np.random.default_rng(11)
    a = rng.random(2000)
    b = GUMBEL.hinv(a, rng.random(2000), 4.0)  # tau 0.75, above the inner cap 0.5
    with pytest.warns(UserWarning, match="nesting boundary"):
        fitc = fit_hac_outer(a, b, CLAY2, CLAY2, "gumbel")
    assert_allclose(fitc.outer_tau(), 0.5, atol=1e-9)

    # a negative-tau inner copula caps the outer at independence
    neg = CopulaSpec("frank", theta=-0.1)
    with pytest.warns(UserWarning, match="outer copula set to independence"):
        assert fit_hac_outer(a, b, neg, CLAY2, "gumbel") is None

    with pytest.raises(ValueError, match="at least 20 matched pairs"):
        fit_hac_outer(x[:10], x[:10], CLAY2, CLAY2, "gumbel")
    for outer in ("gaussian", "independence"):
        with pytest.raises(ValueError, match="must be Archimedean"):
            fit_hac_outer(a, b, CLAY2, CLAY2, outer)
