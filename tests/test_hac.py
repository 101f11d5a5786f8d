"""Nested two-level cross-type dependence: validity, sampling, estimation."""

import itertools
import json
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
    Portfolio,
    ValuationWindow,
    WeibullDelayModel,
    default_model,
    fit_model,
    hac_sample,
    parse_iso,
    reserving,
    simulate_reserves,
    synthesize,
)
from granres.copulas.dynamics import TimeVaryingParam
from granres.copulas.families import CLAYTON, FAMILIES, GUMBEL
from granres.copulas.hac import (
    MATCH_GAP_DAYS,
    fit_hac_outer,
    hac_from_dict,
    hac_uniforms,
    match_days,
    matched_delay_scores,
)
from helpers import hac_cdf, nearest_unused_pairs, records_portfolio

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
    # a Gumbel outer copula at theta 1 (tau 0) is the independence copula;
    # HacSpec refuses it, so the oracle takes the family and theta
    outer = ("gumbel", 1.0)
    u = np.array([0.3, 0.6, 0.2, 0.8])
    prod = float(hac_cdf(*outer, *INNER, u[0], u[1], 1.0, 1.0)) * float(
        hac_cdf(*outer, *INNER, 1.0, 1.0, u[2], u[3])
    )
    assert_allclose(float(hac_cdf(*outer, *INNER, *u)), prod, rtol=1e-12)


def test_equal_parameters_collapse_to_exchangeable():
    th = 2.0
    inner = CopulaSpec("gumbel", theta=th)
    for p in [(0.2, 0.5, 0.7, 0.9), (0.1, 0.1, 0.1, 0.1), (0.9, 0.4, 0.6, 0.3)]:
        direct = GUMBEL.gen_inv(sum(GUMBEL.gen(x, th) for x in p), th)
        assert_allclose(float(hac_cdf("gumbel", th, inner, inner, *p)), float(direct), atol=1e-12)


def test_cdf_is_symmetric_within_pairs():
    outer = ("gumbel", 1.2)
    assert_allclose(
        float(hac_cdf(*outer, *INNER, 0.3, 0.7, 0.5, 0.9)),
        float(hac_cdf(*outer, *INNER, 0.7, 0.3, 0.5, 0.9)),
        rtol=1e-12,
    )
    assert_allclose(
        float(hac_cdf(*outer, *INNER, 0.3, 0.7, 0.5, 0.9)),
        float(hac_cdf(*outer, *INNER, 0.3, 0.7, 0.9, 0.5)),
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


@pytest.mark.parametrize("outer", [("gumbel", 1.2), ("clayton", 0.5), ("frank", 1.0)])
@pytest.mark.parametrize("position", [0, 1])
def test_a_gaussian_inner_copula_is_never_nested(outer, position, tmp_path):
    # the Gaussian has no generator; its tau 0.71 clears every outer tau here
    inners = [GUM2, GUM2]
    inners[position] = CopulaSpec("gaussian", theta=0.9)
    message = f"the {('first', 'second')[position]} inner copula is gaussian"
    with pytest.raises(ValueError, match=message):
        _nested_model(HacSpec(*outer), *inners)
    # nor does a saved model with one load
    d = _nested_model(HacSpec(*outer), GUM2, GUM2).to_dict()
    name = sorted(d["types"])[position]
    d["types"][name]["copula"] = inners[position].to_dict()
    (tmp_path / "model.json").write_text(json.dumps(d))
    with pytest.raises(ValueError, match=message):
        GranularModel.load(tmp_path / "model.json")


def test_fit_model_with_a_gaussian_pick_has_independent_types():
    start, end = parse_iso("2016-01-01"), parse_iso("2018-12-31")
    truth = default_model(1500, start, end, dependence="archimedean")
    port = synthesize(truth, start, end, np.random.default_rng(3))
    model, report = fit_model(port, {"copula_family": "gaussian"})
    assert [tm.copula.family for tm in model.types.values()] == ["gaussian", "gaussian"]
    assert model.hac is None
    assert report["hac"]["outer_family"] == "independence"
    nesting = [w for w in report["warnings"] if w["phase"] == "cross-type nesting"]
    assert nesting == [
        {
            "phase": "cross-type nesting",
            "claim_type": None,
            "message": "a gaussian inner copula has no generator and cannot be nested; "
            "outer copula set to independence",
        }
    ]


# inner copulas of tau just above 0: Frank 1.8e-4 (tau 2e-5) and 9.5e-6
# (tau 1.06e-6), Gumbel 1 + 1e-5 (tau 1e-5), and Clayton's bound 1e-4
WEAK_INNERS = [
    CopulaSpec("frank", theta=1.8e-4),
    CopulaSpec("frank", theta=9.5e-6),
    CopulaSpec("gumbel", theta=1.0 + 1e-5),
    CopulaSpec("clayton", theta=1e-4),
]


@pytest.mark.parametrize("outer", ["clayton", "gumbel", "frank"])
@pytest.mark.parametrize("inner", WEAK_INNERS, ids=lambda c: f"{c.family}{c.theta}")
def test_fit_hac_outer_returns_only_nestings_the_rule_admits(outer, inner):
    # positively dependent scores: the estimate projects onto the inner cap
    rng = np.random.default_rng(12)
    a = rng.random(500)
    b = GUMBEL.hinv(a, rng.random(500), 2.0)
    with pytest.warns(UserWarning) as caught:
        spec = fit_hac_outer(a, b, inner, inner, outer)
    if spec is None:
        assert "outer copula set to independence" in str(caught[-1].message)
    else:
        assert _nested_model(spec, inner, inner).hac == spec


def test_fit_hac_outer_below_claytons_bound_is_no_nesting():
    # Clayton's smallest theta, 1e-4, has tau 5e-5: clipping up to it would
    # exceed inner Frank copulas of tau 2e-5, a nesting the rule refuses
    inner = CopulaSpec("frank", theta=1.8e-4)
    with pytest.raises(ValueError, match=r"outer tau 4\.99975\d*e-05 exceeds the first inner "
                       r"copula's minimum tau 1\.99999\d*e-05"):
        _nested_model(HacSpec("clayton", 1e-4), inner, inner)
    rng = np.random.default_rng(12)
    a = rng.random(500)
    b = GUMBEL.hinv(a, rng.random(500), 2.0)
    with pytest.warns(UserWarning) as caught:
        assert fit_hac_outer(a, b, inner, inner, "clayton") is None
    assert [str(w.message) for w in caught] == [
        "outer tau estimate 0.4696 exceeds inner minimum 2e-05; projected onto the nesting "
        "boundary",
        "nesting violated: outer tau 4.999750012e-05 exceeds the first inner copula's minimum "
        "tau 1.999999999e-05; outer copula set to independence",
    ]


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


# outer parameters that are no nesting: below Gumbel's bound, negative and
# zero dependence, and a NaN that every comparison lets through
NOT_NESTINGS = [("gumbel", 0.5), ("clayton", -1.0), ("frank", 0.0), ("gumbel", math.nan)]


@pytest.mark.parametrize("outer", NOT_NESTINGS)
def test_outer_theta_must_be_a_nesting(outer, tmp_path):
    with pytest.raises(ValueError, match="is no nesting"):
        HacSpec(*outer)
    # nor does a saved model with such an outer copula load
    model = default_model(1000, parse_iso("2016-01-01"), parse_iso("2017-12-31"), "archimedean")
    d = model.to_dict()
    d["hac"] = {"outer_family": outer[0], "outer_theta": outer[1]}
    (tmp_path / "model.json").write_text(json.dumps(d))
    with pytest.raises(ValueError, match="is no nesting"):
        GranularModel.load(tmp_path / "model.json")
    # a weak positive dependence is still a nesting: the lower bound, where
    # fit_hac_outer clamps, or for Frank (bounded below by -35) a small theta
    lo = FAMILIES[outer[0]].theta_bounds[0]
    assert HacSpec(outer[0], 1e-3 if outer[0] == "frank" else lo).outer_tau() > 0.0


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
    uniforms = draw[1]
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


@pytest.fixture(scope="module")
def matched():
    start, end = parse_iso("2016-01-01"), parse_iso("2018-12-31")
    truth = default_model(3000, start, end)
    return truth, synthesize(truth, start, end, np.random.default_rng(4))


def test_matched_delay_scores_match_the_claim_loop(matched):
    truth, port = matched
    bi, md = "bodily_injury", "material_damage"
    subs = [port.by_type(t) for t in (bi, md)]
    dm = [truth.types[t].delay for t in (bi, md)]
    got = matched_delay_scores(*subs, *dm)
    pairs = nearest_unused_pairs(subs[0].accident_days, subs[1].accident_days, MATCH_GAP_DAYS)
    assert got[0].size == pairs[0].size > 100
    for x, sub, model, idx in zip(got, subs, dm, pairs):
        acc, rep = sub.accident_days[idx].tolist(), sub.reporting_days[idx].tolist()
        y = [model.cdf(t, r - t + 0.5) for t, r in zip(acc, rep)]
        assert x.tobytes() == np.asarray(y, dtype=float).tobytes()


@pytest.mark.parametrize("gap", [0, 3])
def test_match_days_matches_the_claim_loop(matched, gap):
    _, port = matched
    subs = [port.by_type(t) for t in ("bodily_injury", "material_damage")]
    ia, ib, _, _ = match_days(subs[0].accident_days, subs[1].accident_days, gap)
    ra, rb = nearest_unused_pairs(subs[0].accident_days, subs[1].accident_days, gap)
    assert ia.size > 100
    assert ia.tolist() == ra.tolist() and ib.tolist() == rb.tolist()


@pytest.mark.parametrize("gap", [0, 2, 7])
def test_match_days_takes_the_nearest_unused_day_on_dense_portfolios(gap):
    # 15 and 25 claims per type per day: a scan that stops after a fixed
    # number of entries of b never reaches the nearest days here
    rng = np.random.default_rng(31)
    days_a = rng.integers(6000, 6100, 1500)
    days_b = rng.integers(6000, 6100, 2500)
    ia, ib, _, _ = match_days(days_a, days_b, gap)
    ra, rb = nearest_unused_pairs(days_a, days_b, gap)
    assert ia.tolist() == ra.tolist() and ib.tolist() == rb.tolist()


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


# same-family nestings, each a copula (McNeil 2008): (outer, inner A, inner B)
LAWS = [
    (("gumbel", 1.2), CopulaSpec("gumbel", theta=1.75), CopulaSpec("gumbel", theta=1.4)),
    (("clayton", 0.5), CopulaSpec("clayton", theta=2.0), CopulaSpec("clayton", theta=1.0)),
    (("frank", 2.0), CopulaSpec("frank", theta=5.0), CopulaSpec("frank", theta=3.0)),
]
# two corners and the box item 13 found mass outside the law in
BOXES = [
    ((0.0, 0.3),) * 4,
    ((0.6, 1.0),) * 4,
    ((0.9, 1.0), (0.9, 1.0), (0.0, 0.1), (0.0, 1.0)),
]


@pytest.mark.parametrize("law", LAWS, ids=[law[0][0] for law in LAWS])
def test_nested_sampler_draws_the_nested_law(law):
    """hac_sample's box frequencies match the box masses of the nested cdf,
    within 4 standard errors, on 100k rows."""
    outer, inner_a, inner_b = law
    n = 100_000
    rows = hac_sample(HacSpec(*outer), inner_a, inner_b, hac_uniforms(np.random.default_rng(21), n))
    for box in BOXES:
        # inclusion-exclusion over the 16 corners of the box
        mass = sum(
            (-1) ** (4 - sum(pick))
            * float(hac_cdf(*outer, inner_a, inner_b, *(box[i][pick[i]] for i in range(4))))
            for pick in itertools.product((0, 1), repeat=4)
        )
        inside = np.all([(x > lo) & (x <= hi) for x, (lo, hi) in zip(rows.T, box)], axis=0)
        se = math.sqrt(mass * (1.0 - mass) / n)
        assert abs(inside.mean() - mass) < 4.0 * se, (box, inside.mean(), mass)


def test_nested_draw_solves_u3_deep_in_a_clayton_tail():
    """Near u1 = 1e-6 under inner Clayton 28, psi''(phi(u1) + phi(u2))
    underflows to 0, yet the inner density there is about 1e7. The drawn u3
    still solves its conditional cdf (D_11(s, t) s1 s2 + D_1(s, t) c) / c,
    evaluated here in closed form: D the outer Clayton 1 copula, s, s1, s2
    and c the inner cdf, h-functions and density."""
    th, a = 28.0, 1.0
    p3 = np.array([0.5, 0.9, 0.1])
    uniforms = np.column_stack([[1e-6, 1e-7, 1e-8], np.full(3, 0.5), p3, np.full(3, 0.5)])
    rows = hac_sample(
        HacSpec("clayton", a), CopulaSpec("clayton", theta=th), CopulaSpec("frank", theta=35.0),
        uniforms,
    )
    u1, u2, t = rows[:, 0], rows[:, 1], rows[:, 2]
    big = u1**-th + u2**-th - 1.0
    s = big ** (-1.0 / th)
    s1, s2 = (np.exp(-(th + 1.0) * np.log(x) - (1.0 + 1.0 / th) * np.log(big)) for x in (u1, u2))
    c = (1.0 + th) * np.exp(-(th + 1.0) * np.log(u1 * u2) - (1.0 / th + 2.0) * np.log(big))
    outer = s**-a + t**-a - 1.0
    d1 = s ** (-a - 1.0) * outer ** (-1.0 / a - 1.0)
    d11 = (a + 1.0) * s ** (-a - 2.0) * outer ** (-1.0 / a - 2.0) * (1.0 - t**-a)
    assert_allclose((d11 * s1 * s2 + d1 * c) / c, p3, atol=1e-9)


def test_nesting_leaves_each_type_reserve_unchanged():
    """Each type's IBNR reserve has the same law with and without the outer
    copula: the nested draw's inner margins are the types' own copulas.

    This checks hac_sample's inner margins end to end, through the reserve
    engine; it does not show that the default mixed nesting is a law. The
    portfolio is empty, so the reserve is all IBNR. The control swaps both
    inner copulas for independence, which the same test must see.
    """
    cutoff = parse_iso("2020-12-31")
    nested = default_model(2000, parse_iso("2016-01-01"), cutoff, "archimedean")
    empty = Portfolio([], [], [], [], [], [], [], cutoff)
    window = ValuationWindow.one_year(cutoff)
    indep = CopulaSpec("independence")
    control_model = GranularModel({t: replace(m, copula=indep) for t, m in nested.types.items()})
    ref = simulate_reserves(nested, empty, window, 2000, seed=11)
    flat = simulate_reserves(replace(nested, hac=None), empty, window, 2000, seed=12)
    control = simulate_reserves(control_model, empty, window, 2000, seed=12)
    assert not ref.rbns.any()
    for t in nested.type_names():
        assert stats.ks_2samp(ref.by_type[t], flat.by_type[t]).pvalue > 0.01, t
        assert stats.ks_2samp(ref.by_type[t], control.by_type[t]).pvalue < 1e-6, t
