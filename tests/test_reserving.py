"""Reserve engine: RBNS continuation, IBNR simulation, summaries, backtests."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from granres import (
    ClaimRecord,
    CopulaSpec,
    CountProcess,
    ExponentialDecay,
    GammaSeverity,
    GranularModel,
    OccurrenceModel,
    PaymentEvent,
    PhaseError,
    Poisson,
    Portfolio,
    PowerDecay,
    ReserveDistribution,
    RunOffTriangle,
    TypeModel,
    ValuationWindow,
    WeibullDelayModel,
    backtest,
    censor,
    chain_ladder_reserve,
    default_lookback,
    default_model,
    fit_model,
    ibnr_simulate,
    parse_iso,
    reserve_summary,
    simulate_reserves,
    synthesize,
)
from granres import reserving
from granres.copulas.dynamics import TimeVaryingParam
from granres.copulas.families import FAMILIES
from granres.delays import delay_quantile
from granres.reserving import (
    RecipeError,
    _batch,
    _bucket_means,
    _finish_claims,
    _period_edges,
    _perturb_model,
    _place_payments,
    _prepare_rbns,
    _rbns_means,
    _rbns_scenario,
)
from granres.severity import LogNormalSeverity, OrderARSeverity
from helpers import records_portfolio

WIN = ValuationWindow(6209, 6574)  # 2016-12-31 to 2017-12-31

TM = TypeModel(
    occurrence=OccurrenceModel("poisson", {2016: Poisson(2.0)}),
    delay=WeibullDelayModel(1.5, math.log(30.0), 0.0),
    counts=CountProcess(ExponentialDecay(3.0, 1.2)),
    severity=LogNormalSeverity(3.0, 0.4),
    copula=CopulaSpec("independence"),
)
MODEL = GranularModel(types={"material_damage": TM})

RECIPE = {
    "copula_family": "independence",
    "hac_outer": None,
    "intensity_family": {
        "bodily_injury": "exponential",
        "material_damage": "power",
    },
}


@pytest.fixture(scope="module")
def port1500():
    start, end = parse_iso("2016-01-01"), parse_iso("2019-12-31")
    model = default_model(1500, start, end, dependence="independence")
    return synthesize(model, start, end, np.random.default_rng(42))


def _rbns_portfolio(cutoff=6209):
    claims = [
        ClaimRecord(f"r{i}", "material_damage", 6150, 6160, (PaymentEvent(6180, 50.0),))
        for i in range(30)
    ]
    return records_portfolio(claims, cutoff)


def test_valuation_window():
    with pytest.raises(ValueError, match="b > a"):
        ValuationWindow(100, 100)
    assert ValuationWindow.one_year(100) == ValuationWindow(100, 465)
    # one year on is the same calendar date, whether or not a Feb 29 lies
    # between; a Feb 29 valuation ends on Feb 28
    for a, b in (
        ("2019-12-31", "2020-12-31"),
        ("2019-03-01", "2020-03-01"),
        ("2020-02-28", "2021-02-28"),
        ("2020-02-29", "2021-02-28"),
        ("2023-02-28", "2024-02-28"),
    ):
        window = ValuationWindow.one_year(parse_iso(a))
        assert window == ValuationWindow(parse_iso(a), parse_iso(b))
    assert ValuationWindow.ultimate(0).b_day == 5479


def test_fit_model_rejects_unknown_recipe_keys():
    with pytest.raises(ValueError, match="unknown recipe keys"):
        fit_model(_rbns_portfolio(), {"bogus": 1})
    # the cross-type match gap is fixed, so fit and simulation agree on it
    with pytest.raises(ValueError, match="unknown recipe keys"):
        fit_model(_rbns_portfolio(), {"match_gap_days": 7})


def test_fit_model_checks_the_recipe_before_fitting(monkeypatch):
    """A recipe value that no phase takes fails before phase 1, on a coupled
    portfolio and on one claim type alike, where the nesting phase never
    runs."""
    start, end = parse_iso("2016-01-01"), parse_iso("2018-12-31")
    truth = default_model(1500, start, end, dependence="archimedean")
    port = synthesize(truth, start, end, np.random.default_rng(3))
    fitted = []
    monkeypatch.setattr(reserving, "fit_occurrence", lambda *args: fitted.append(args))
    for p in (port, port.by_type("bodily_injury")):
        with pytest.raises(RecipeError, match="recipe hac_outer must be one of"):
            fit_model(p, {"hac_outer": "independence"})
    bad = {"bodily_injury": "exponential", "material_damage": "weibull"}
    for recipe, message in (
        ({"intensity_family": "weibull"}, "recipe intensity_family must be one of"),
        ({"intensity_family": bad}, "recipe intensity_family .* got 'weibull'"),
        ({"intensity_family": {"bodily_injury": "power"}}, "no entry for claim type"),
        ({"severity_structure": {**bad, "liability": "iid"}}, "unknown claim types"),
        ({"copula_time_varying": 1}, "recipe copula_time_varying must be one of"),
    ):
        with pytest.raises(RecipeError, match=message):
            fit_model(port, recipe)
    assert fitted == []


def test_fit_error_names_the_failing_stage():
    # every claim reported exactly at the cutoff: zero payment exposure
    claims = [
        ClaimRecord(f"c{i}", "material_damage", 5844 + 3 * i, 6209) for i in range(120)
    ]
    port = records_portfolio(claims, 6209)
    with pytest.raises(PhaseError, match=r"phase 3 \(payment counts"):
        fit_model(port, {"copula_family": "independence", "hac_outer": None})


def test_fit_model_selects_each_claim_type_once(monkeypatch):
    start, end = parse_iso("2016-01-01"), parse_iso("2018-12-31")
    truth = default_model(1500, start, end, dependence="archimedean")
    port = synthesize(truth, start, end, np.random.default_rng(3))
    calls = []
    by_type = Portfolio.by_type

    def counted(self, *claim_types):
        calls.append(claim_types)
        return by_type(self, *claim_types)

    monkeypatch.setattr(Portfolio, "by_type", counted)
    _, report = fit_model(port)
    # every phase reads the one selection, the cross-type nesting too
    assert calls == [("bodily_injury",), ("material_damage",)]
    assert report["hac"]["outer_family"] == "gumbel"


def test_nested_model_round_trips(tmp_path):
    """A fitted nested model saves its outer copula alone and loads back equal;
    the inner copulas are the types' own."""
    start, end = parse_iso("2016-01-01"), parse_iso("2018-12-31")
    truth = default_model(1500, start, end, dependence="archimedean")
    port = synthesize(truth, start, end, np.random.default_rng(3))
    model, _ = fit_model(port)
    assert model.hac is not None
    assert set(model.to_dict()["hac"]) == {"outer_family", "outer_theta"}
    assert GranularModel.from_dict(model.to_dict()) == model
    model.save(tmp_path / "model.json")
    assert GranularModel.load(tmp_path / "model.json") == model


def test_ibnr_count_conditional_normalizes_under_coupling():
    """The engine's IBNR stage draws a free claim's count from the copula
    conditional given its delay score u, at its own horizon b - r: P[N <= n |
    u] = h(u, Q(n)). Over the delay scores that report in the window, that
    law sums to one and its mean is the mean count of the claims kept."""
    tm = replace(TM, copula=CopulaSpec("clayton", theta=2.0))
    model = GranularModel(types={"material_damage": tm})
    t = 6200
    u = (np.arange(200_000) + 0.5) / 200_000
    r = t + np.floor(delay_quantile(tm.delay, t, u)).astype(np.int64)
    kept = (WIN.a_day < r) & (r <= WIN.b_day)
    u, horizon = u[kept], (WIN.b_day - r[kept]) / 365.25
    fam, theta = FAMILIES["clayton"], tm.copula.theta_at(horizon)
    n = np.arange(61)[:, None]
    cdf = fam.h(u, tm.counts.count_cdf(horizon, n), theta)
    pmf = np.diff(cdf, axis=0, prepend=0.0)
    assert_allclose(pmf.sum(axis=0), 1.0, atol=1e-12)
    mean = float(np.mean((1.0 - cdf).sum(axis=0)))
    poisson = float(np.mean(tm.counts.intensity.cumulative(horizon)))

    rng = np.random.default_rng(8)
    days = np.full(20_000, t)
    draw = ({"material_damage": (days[:0], days)}, np.empty((0, 4)))
    claims = _finish_claims(_batch([model], [rng]), [draw], [draw[1]], WIN.a_day, WIN.b_day)
    drawn = claims["material_damage"]["n"]
    assert drawn.size > 15_000
    se = drawn.std(ddof=1) / np.sqrt(drawn.size)
    assert abs(drawn.mean() - mean) < 4.0 * se
    # the coupling moves the mean away from the independent Poisson count
    assert abs(mean - poisson) > 10.0 * se


def test_default_lookback():
    # stationary weibull: the high quantile in closed form, plus one day
    q = 30.0 * math.log(1e4) ** (1 / 1.5)
    assert default_lookback(TM.delay, 6209) == int(math.ceil(q)) + 1 == 133


def test_rbns_continues_the_observed_payment_chain():
    # x1 pays 100.0 by a and 7.0 after it: the chain continues from the last
    # payment by a; x2 is reported after a and has no RBNS payments
    claims = [
        ClaimRecord(
            "x1",
            "material_damage",
            6000,
            6050,
            (PaymentEvent(6100, 100.0), PaymentEvent(6300, 7.0)),
        ),
        ClaimRecord("x2", "material_damage", 6150, 6300),
    ]
    halving = OrderARSeverity(LogNormalSeverity(3.0, 0.4), (0.5,), 0.0)
    model = GranularModel(types={"material_damage": replace(TM, severity=halving)})
    dist = simulate_reserves(model, records_portfolio(claims, 6400), WIN, 20, seed=5)
    # the noiseless chain halves from 100.0, so m payments total 100 (1 - 0.5^m)
    m = -np.log2(1.0 - dist.rbns / 100.0)
    assert_allclose(m, np.round(m), atol=1e-9)
    assert np.all(np.round(m) >= 0) and np.any(np.round(m) > 0)


YEAR_RBNS = ValuationWindow(6209, parse_iso("2018-12-31"))  # periods 2017, 2018


def _intensities(model):
    return {t: tm.counts.intensity for t, tm in model.types.items()}


def _rbns_flows(model, port, window, seeds):
    """Each seed's RBNS flows per type, from _rbns_scenario alone."""
    prep = _prepare_rbns(model, port, window)
    edges, _ = _period_edges(window)
    means = _rbns_means(_intensities(model), prep, edges)
    return [
        _rbns_scenario(model, prep, means, edges.size - 1, np.random.default_rng(s))
        for s in seeds
    ]


def test_rbns_chain_takes_its_links_in_bucket_order():
    # the halving chain of test_rbns_continues_the_observed_payment_chain on two
    # periods: 2017 takes the chain's first m1 links, 2018 the next ones
    claims = [
        ClaimRecord(
            "x1",
            "material_damage",
            6000,
            6050,
            (PaymentEvent(6100, 100.0), PaymentEvent(6300, 7.0)),
        ),
        ClaimRecord("x2", "material_damage", 6150, 6300),
    ]
    halving = OrderARSeverity(LogNormalSeverity(3.0, 0.4), (0.5,), 0.0)
    model = GranularModel(types={"material_damage": replace(TM, severity=halving)})
    port = records_portfolio(claims, 6400)
    flows = np.array(
        [f["material_damage"] for f in _rbns_flows(model, port, YEAR_RBNS, range(200))]
    )
    m1 = -np.log2(1.0 - flows[:, 0] / 100.0)
    m = -np.log2(1.0 - flows.sum(axis=1) / 100.0)
    assert_allclose(m1, np.round(m1), atol=1e-9)
    assert_allclose(m, np.round(m), atol=1e-9)
    assert np.all(np.round(m1) <= np.round(m))
    assert np.any((np.round(m1) > 0) & (np.round(m) > np.round(m1)))


class _PoissonTally:
    """A Generator stand-in that forwards every draw and records the total of
    each poisson call, as bench/tracing.py counts RBNS payments."""

    def __init__(self, rng, totals):
        self._rng, self._totals = rng, totals

    def poisson(self, *args, **kwargs):
        m = self._rng.poisson(*args, **kwargs)
        self._totals.append(int(np.sum(m)))
        return m

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("chained", [False, True])
def test_rbns_draws_one_poisson_count_per_type(monkeypatch, chained):
    """One rng.poisson call per type and scenario, its draws summing to the
    type's RBNS payments; an order-AR split draws uniforms, not counts."""
    severity = OrderARSeverity(TM.severity, (0.5,), 2.0) if chained else TM.severity
    tm = replace(TM, severity=severity)
    model = GranularModel(types={"bodily_injury": tm, "material_damage": tm})
    claims = [
        ClaimRecord(f"{t}{i}", t, 6000 + i, 6050 + i, (PaymentEvent(6100 + i, 50.0),))
        for t in model.type_names()
        for i in range(40)
    ]
    port = records_portfolio(claims, 6209)
    prep = _prepare_rbns(model, port, YEAR_RBNS)
    edges, _ = _period_edges(YEAR_RBNS)
    means = _rbns_means(_intensities(model), prep, edges)
    paid = []
    continue_flat = type(severity).continue_flat

    def counted(self, counts, *args):
        paid.append(int(np.sum(counts)))
        return continue_flat(self, counts, *args)

    monkeypatch.setattr(type(severity), "continue_flat", counted)
    for seed in range(5):
        plain = _rbns_scenario(model, prep, means, edges.size - 1, np.random.default_rng(seed))
        totals, paid[:] = [], []
        tally = _PoissonTally(np.random.default_rng(seed), totals)
        tallied = _rbns_scenario(model, prep, means, edges.size - 1, tally)
        for t in model.type_names():
            assert_array_equal(tallied[t], plain[t])  # the stand-in keeps the stream
        assert len(totals) == 2
        assert totals == paid and sum(totals) > 0


def _moment_portfolio(a_day):
    """60 open claims reported over the year to a, on a year's first day, a
    Dec 31 and a leap day among them, with one payment each."""
    days = np.linspace(a_day - 365, a_day, 57).astype(np.int64).tolist()
    days += [parse_iso(d) for d in ("2020-01-01", "2019-12-31", "2020-02-29")]
    claims = [
        ClaimRecord(f"m{i}", "material_damage", r - 20, r, (PaymentEvent(r, 40.0),))
        for i, r in enumerate(days)
    ]
    return records_portfolio(claims, a_day), np.array(days)


@pytest.mark.parametrize("horizon", ["mid_year", "ultimate"])
def test_rbns_period_moments_are_compound_poisson(horizon):
    """Each period's simulated RBNS mean is sum(dLambda) E[X] and its variance
    sum(dLambda) E[X^2], dLambda the claim's payment mass on the period's days
    under the ceiling-day rule, within 4 standard errors."""
    a = parse_iso("2020-07-01")
    if horizon == "mid_year":
        window = ValuationWindow(a, parse_iso("2022-06-30"))
    else:
        window = ValuationWindow.ultimate(a)
    tm = replace(TM, counts=CountProcess(PowerDecay(3.0, 2.5)))
    model = GranularModel(types={"material_damage": tm})
    port, r = _moment_portfolio(a)
    flows = np.array(
        [f["material_damage"] for f in _rbns_flows(model, port, window, range(4000))]
    )
    _, years = _period_edges(window)
    mass = []
    for y in years:
        # a payment on day D has claim time in ((D - 1 - r) / year, (D - r) / year]
        first = max(window.a_day + 1, parse_iso(f"{y}-01-01"))
        last = min(window.b_day, parse_iso(f"{y}-12-31"))
        lam = tm.counts.intensity.cumulative
        mass.append(np.sum(lam((last - r) / 365.25) - lam((first - 1 - r) / 365.25)))
    mass = np.array(mass)
    sev = tm.severity
    ex, ex2 = math.exp(sev.mu + 0.5 * sev.sigma**2), math.exp(2 * sev.mu + 2 * sev.sigma**2)
    n = flows.shape[0]
    assert flows.shape[1] == len(years) == (3 if horizon == "mid_year" else 16)
    z_mean = (flows.mean(axis=0) - mass * ex) / (flows.std(axis=0, ddof=1) / math.sqrt(n))
    dev = flows - flows.mean(axis=0)
    var, m4 = (dev**2).mean(axis=0), (dev**4).mean(axis=0)
    z_var = (flows.var(axis=0, ddof=1) - mass * ex2) / np.sqrt((m4 - var**2) / n)
    assert np.all(np.abs(z_mean) < 4.0), z_mean
    assert np.all(np.abs(z_var) < 4.0), z_var


@pytest.mark.parametrize(
    "report, valuation, beta",
    [
        # reported at a: the first bucket is one day, and a steep intensity
        # makes the first days after reporting weigh
        ("2020-12-30", "2020-12-30", 20.0),
        ("2020-12-31", "2020-12-31", 20.0),  # a Dec 31 report, buckets from Jan 1
        ("2020-01-01", "2020-12-30", 3.0),  # reported on a bucket year's first day
        ("2020-02-29", "2020-12-30", 3.0),  # a leap-day report
    ],
)
def test_rbns_bucket_means_follow_the_placement_days(report, valuation, beta):
    """RBNS and IBNR share one ceiling-day convention: a claim reported on d
    and paid on (0, (b - d) / year] by _place_payments lands in bucket j with
    probability dLambda_{d,j} / Lambda((b - d) / year), dLambda the RBNS
    bucket means."""
    d, a, b = parse_iso(report), parse_iso(valuation), parse_iso("2022-01-01")
    edges, _ = _period_edges(ValuationWindow(a, b))
    counts = CountProcess(PowerDecay(6.0, beta))
    lam_hi = counts.intensity.cumulative(np.array([(b - d) / 365.25]))
    share = _bucket_means(counts.intensity, np.array([d]), edges)[:, 0] / lam_hi
    n = 400_000
    rng = np.random.default_rng(31)
    u = rng.random(n)
    _, days = _place_payments(counts.intensity, np.array([n]), np.array([d]), lam_hi, b, u)
    days = days[days > a]
    seen = np.bincount(np.searchsorted(edges, days, side="right") - 1, minlength=share.size)
    assert share.size >= 2 and np.all(share > 0.0) and days.size > 50_000
    z = (seen / n - share) / np.sqrt(share * (1.0 - share) / n)
    assert np.all(np.abs(z) < 4.5), z


def test_model_rejects_unknown_claim_types():
    with pytest.raises(ValueError, match="unknown claim types \\['liability'\\]"):
        GranularModel(types={"material_damage": TM, "liability": TM})
    bad = {"types": {"liability": MODEL.to_dict()["types"]["material_damage"]}}
    with pytest.raises(ValueError, match="unknown claim types"):
        GranularModel.from_dict(bad)


def test_ibnr_simulate_containment():
    rng = np.random.default_rng(7)
    claims = ibnr_simulate(MODEL, WIN, rng)
    assert len(claims) > 5
    for c in claims:
        assert c.claim_id.startswith("ibnr_material_damage_")
        assert c.accident_day <= WIN.a_day
        assert WIN.a_day < c.reporting_day <= WIN.b_day
        for p in c.payments:
            assert WIN.a_day < p.day <= WIN.b_day
            assert p.amount > 0


def test_reserve_conservation():
    """The blocks, types and periods add up to each scenario's total, for
    one claim type and for two coupled ones valued over two periods."""
    start, end = parse_iso("2016-01-01"), parse_iso("2017-12-31")
    nested = default_model(1000, start, end, dependence="archimedean")
    mid = ValuationWindow.one_year(parse_iso("2016-06-30"))
    history = censor(synthesize(nested, start, end, np.random.default_rng(5)), mid.a_day)
    assert nested.hac is not None
    for model, port, window, years in (
        (MODEL, _rbns_portfolio(), WIN, (2017,)),  # 30 claims, 1.8 payments each
        (nested, history, mid, (2016, 2017)),
    ):
        dist = simulate_reserves(model, port, window, 16, seed=11)
        assert dist.claim_types == tuple(model.type_names()) == tuple(dist.by_type)
        assert_allclose(dist.totals, dist.rbns + dist.ibnr, rtol=1e-12)
        assert_allclose(sum(dist.by_type.values()), dist.totals, rtol=1e-12)
        assert_allclose(dist.by_period.sum(axis=1), dist.totals, rtol=1e-12)
        assert dist.period_years == years
        assert np.all(dist.rbns > 0)


def test_reserve_refuses_claims_of_an_unmodelled_type(port1500):
    """Claims of a type the model has no law for fail the call, named,
    rather than leave the reserve without them."""
    window = ValuationWindow.one_year(parse_iso("2017-12-31"))
    with pytest.raises(ValueError, match="no law for the portfolio's claim types \\['bodily_in"):
        simulate_reserves(MODEL, port1500, window, 4, seed=1)
    dist = simulate_reserves(MODEL, port1500.by_type("material_damage"), window, 4, seed=1)
    assert np.all(dist.rbns > 0)


def test_a_modelled_type_with_no_reported_claims_has_only_ibnr():
    """A modelled claim type with no claims reported by a pays no RBNS, yet
    its IBNR claims are still drawn, coupled to the other type's."""
    start, end = parse_iso("2016-01-01"), parse_iso("2017-12-31")
    nested = default_model(1000, start, end, dependence="archimedean")
    window = ValuationWindow.one_year(parse_iso("2016-06-30"))
    history = censor(synthesize(nested, start, end, np.random.default_rng(5)), window.a_day)
    md_only = history.by_type("material_damage")
    assert md_only.claim_types == ("material_damage",)
    prep = _prepare_rbns(nested, md_only, window)
    assert prep["bodily_injury"].days.size == 0
    children = np.random.SeedSequence(11).spawn(16)
    (flows,) = reserving._scenario_batch(nested, prep, window, False, children)
    rbns_bi, ibnr_bi = flows["bodily_injury"]
    assert rbns_bi.shape == ibnr_bi.shape == (16, 2)
    assert np.all(rbns_bi == 0.0)
    assert np.all(ibnr_bi.sum(axis=1) > 0)
    assert np.all(flows["material_damage"][0].sum(axis=1) > 0)

    dist = simulate_reserves(nested, md_only, window, 16, seed=11)
    assert_array_equal(dist.by_type["bodily_injury"], ibnr_bi.sum(axis=1))
    assert_allclose(sum(dist.by_type.values()), dist.totals, rtol=1e-12)
    assert_allclose(dist.rbns, flows["material_damage"][0].sum(axis=1), rtol=1e-12)


def test_reserve_determinism_across_workers():
    port = _rbns_portfolio()
    d1 = simulate_reserves(MODEL, port, WIN, 16, seed=11)
    d2 = simulate_reserves(MODEL, port, WIN, 16, seed=11)
    d3 = simulate_reserves(MODEL, port, WIN, 16, seed=11, workers=2)
    assert_array_equal(d1.totals, d2.totals)
    assert_array_equal(d1.totals, d3.totals)
    assert_array_equal(d1.by_period, d3.by_period)
    assert not np.array_equal(
        d1.totals, simulate_reserves(MODEL, port, WIN, 16, seed=12).totals
    )
    with pytest.raises(ValueError, match="at least one scenario"):
        simulate_reserves(MODEL, port, WIN, 0, seed=1)
    with pytest.raises(ValueError, match="past the data cutoff"):
        simulate_reserves(MODEL, port, ValuationWindow(9000, 9365), 4, seed=1)


@pytest.mark.parametrize(
    "preset", ["archimedean", "independence", "order_ar", "archimedean_point"]
)
def test_nested_scenarios_repeat_bitwise_for_any_batching(monkeypatch, preset):
    """One nested-copula solve and one pass of each stage-3 transform span a
    batch's scenarios, while each scenario's redrawn delays set its own pairs'
    time-varying inner parameters: 13 scenarios in one batch (1 worker), in
    uneven chunks (2 and 3 workers) or in batches of 4 or 1 draw the same
    reserves. An uncoupled model runs the same batches without the solve, an
    order-AR severity chains each scenario's amounts on its own generator,
    and the point model runs them with no redraw."""
    start, end = parse_iso("2016-01-01"), parse_iso("2017-12-31")
    dependence = "independence" if preset in ("independence", "order_ar") else "archimedean"
    truth = default_model(1000, start, end, dependence=dependence)
    se = {"shape": 0.15, "c0": 0.3, "c1": 0.015}
    types = {}
    for t, tm in truth.types.items():
        copula = tm.copula
        if truth.hac is not None:
            eta = float(FAMILIES[copula.family].link(copula.theta))
            copula = CopulaSpec(copula.family, dynamics=TimeVaryingParam(eta + 1.0, eta, 1.0))
        severity = tm.severity
        if preset == "order_ar":
            severity = OrderARSeverity(replace(severity, se={"mu": 0.2}), (0.6, 0.4), 30.0)
        types[t] = replace(tm, delay=replace(tm.delay, se=se), copula=copula, severity=severity)
    model = GranularModel(types=types, hac=truth.hac)
    # two calendar periods, so each payment's placement decides its period
    window = ValuationWindow.one_year(parse_iso("2016-06-30"))
    port = censor(synthesize(truth, start, end, np.random.default_rng(5)), window.a_day)
    risk = preset != "archimedean_point"
    dists = [
        simulate_reserves(model, port, window, 13, seed=4, workers=w, parameter_risk=risk)
        for w in (1, 2, 3)
    ]
    for batch in (4, 1):
        monkeypatch.setattr(reserving, "_BATCH_SCENARIOS", batch)
        dists.append(simulate_reserves(model, port, window, 13, seed=4, parameter_risk=risk))
    assert np.all(dists[0].ibnr > 0) and np.all(dists[0].by_period > 0)
    for other in dists[1:]:
        assert_array_equal(dists[0].rbns, other.rbns)
        assert_array_equal(dists[0].ibnr, other.ibnr)
        assert_array_equal(dists[0].by_period, other.by_period)
        for t in model.type_names():
            assert_array_equal(dists[0].by_type[t], other.by_type[t])


def test_engine_entry_points_keep_the_tracer_contract(monkeypatch):
    """bench/tracing.py wraps engine internals from outside the program:
    _rbns_scenario runs once per scenario, with five positional arguments,
    the last the scenario's own generator, and _ibnr_draw returns
    {claim_type: {"t", "n", ...}}, one accident day and count per claim."""
    generators, drawn = [], []
    rbns, ibnr = reserving._rbns_scenario, reserving._ibnr_draw

    def rbns_spy(*args, **kwargs):
        assert len(args) == 5 and not kwargs
        generators.append(args[-1])
        return rbns(*args)

    def ibnr_spy(*args, **kwargs):
        out = ibnr(*args, **kwargs)
        drawn.append(out)
        return out

    monkeypatch.setattr(reserving, "_rbns_scenario", rbns_spy)
    monkeypatch.setattr(reserving, "_ibnr_draw", ibnr_spy)
    monkeypatch.setattr(reserving, "_BATCH_SCENARIOS", 4)
    simulate_reserves(MODEL, _rbns_portfolio(), WIN, 6, seed=3)
    children = np.random.SeedSequence(3).spawn(6)
    assert [g.bit_generator.seed_seq.spawn_key for g in generators] == [
        c.spawn_key for c in children
    ]
    assert len(drawn) == 2  # batches of 4 and 2
    for out in drawn:
        assert list(out) == MODEL.type_names()
        for d in out.values():
            assert {"t", "n"} <= set(d) and d["t"].size == d["n"].size
    assert sum(d["t"].size for out in drawn for d in out.values()) > 0


def test_parameter_risk_widens_the_predictive():
    tm = TypeModel(
        occurrence=TM.occurrence,
        delay=TM.delay,
        counts=CountProcess(ExponentialDecay(3.0, 1.2), se={"lam0": 0.0, "beta": 0.0}),
        severity=LogNormalSeverity(3.0, 0.4, se={"mu": 0.6, "sigma": 0.05}),
        copula=CopulaSpec("independence"),
    )
    model = GranularModel(types={"material_damage": tm})
    port = _rbns_portfolio()
    plain = simulate_reserves(model, port, WIN, 40, seed=2)
    risky = simulate_reserves(model, port, WIN, 40, seed=2, parameter_risk=True)
    assert risky.totals.std(ddof=1) > 2 * plain.totals.std(ddof=1)
    again = simulate_reserves(model, port, WIN, 40, seed=2, parameter_risk=True)
    assert_array_equal(risky.totals, again.totals)


def test_reserve_summary_quantiles():
    x = np.arange(1.0, 101.0)
    dist = ReserveDistribution(
        window=WIN,
        claim_types=("material_damage",),
        period_years=(2017,),
        rbns=x,
        ibnr=np.zeros(100),
        by_type={"material_damage": x},
        by_period=x.reshape(100, 1),
        master_seed=7,
    )
    s = reserve_summary(dist)
    assert s["n_scenarios"] == 100 and s["seed"] == 7
    assert s["window"] == {"a_day": 6209, "b_day": 6574}
    assert s["total"]["mean"] == 50.5
    assert s["total"]["q0.5"] == 50.5
    assert s["total"]["q0.75"] == 75.5
    assert s["total"]["q0.95"] == 95.5
    assert s["total"]["q0.995"] == 99.5
    assert s["ibnr"]["mean"] == 0.0
    assert s["expected_cash_flow"] == {"2017": 50.5}
    empty = ReserveDistribution(
        WIN, (), (2017,), np.array([]), np.array([]), {}, np.zeros((0, 1)), 0
    )
    with pytest.raises(ValueError, match="no scenarios"):
        reserve_summary(empty)


def test_mid_year_window_buckets_by_calendar_year():
    port = _rbns_portfolio(cutoff=parse_iso("2020-07-01"))
    win = ValuationWindow(parse_iso("2020-07-01"), parse_iso("2022-06-30"))
    dist = simulate_reserves(MODEL, port, win, 3, seed=1)
    assert dist.period_years == (2020, 2021, 2022)
    assert dist.by_period.shape == (3, 3)
    assert_allclose(dist.by_period.sum(axis=1), dist.totals, rtol=1e-12)


def test_chain_ladder_known_answers():
    tri = RunOffTriangle((2020, 2021), 1, np.array([[100.0, 150.0], [120.0, np.nan]]))
    out = chain_ladder_reserve(tri)
    assert out["factors"] == [1.5]
    assert out["ultimate_by_origin"] == {2020: 150.0, 2021: 180.0}
    assert out["reserve_by_origin"] == {2020: 0.0, 2021: 60.0}
    assert out["total_reserve"] == 60.0
    double = RunOffTriangle((2020, 2021), 1, 2 * np.array([[100.0, 150.0], [120.0, np.nan]]))
    assert chain_ladder_reserve(double)["total_reserve"] == 120.0
    square = RunOffTriangle((2020, 2021), 1, np.array([[100.0, 150.0], [120.0, 130.0]]))
    assert chain_ladder_reserve(square)["total_reserve"] == 0.0
    with pytest.raises(ValueError, match="zero exposure"):
        chain_ladder_reserve(
            RunOffTriangle((2020, 2021), 1, np.array([[0.0, 150.0], [0.0, np.nan]]))
        )
    with pytest.raises(ValueError, match="two origin periods"):
        chain_ladder_reserve(RunOffTriangle((2020,), 1, np.array([[100.0]])))


def test_model_save_load_round_trip(tmp_path, port1500):
    model, _ = fit_model(port1500, RECIPE)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = GranularModel.load(path)
    assert loaded.to_dict() == model.to_dict()
    assert GranularModel.from_dict(model.to_dict()).to_dict() == model.to_dict()
    path2 = tmp_path / "model2.json"
    model.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_fit_warnings_name_their_phase_and_claim_type():
    # one accident year fixes each type's delay trend with the same warning:
    # one entry per type, in the order raised
    start, end = parse_iso("2016-01-01"), parse_iso("2016-12-31")
    portfolio = synthesize(
        default_model(3000, start, end, "independence"), start, end, np.random.default_rng(5)
    )
    _, report = fit_model(portfolio, {"copula_family": "independence", "hac_outer": None})
    message = "single accident year: delay trend c1 not identifiable, fixed to 0"
    assert report["warnings"] == [
        {"phase": "reporting delay", "claim_type": t, "message": message}
        for t in ("bodily_injury", "material_damage")
    ]


def test_model_json_round_trip_keeps_standard_errors(tmp_path, port1500):
    recipe = dict(
        RECIPE,
        severity_family={"bodily_injury": "lognormal", "material_damage": "gamma"},
        severity_structure={"bodily_injury": "order_ar", "material_damage": "iid"},
    )
    model, _ = fit_model(port1500, recipe)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = GranularModel.load(path)
    for ctype, tm in model.types.items():
        back = loaded.types[ctype]
        pairs = [(tm.delay, back.delay), (tm.counts, back.counts), (tm.severity, back.severity)]
        if isinstance(tm.severity, OrderARSeverity):
            pairs.append((tm.severity.base, back.severity.base))
        for fitted, read in pairs:
            assert fitted.se and read.se.keys() == fitted.se.keys()
            assert_array_equal([read.se[k] for k in fitted.se], list(fitted.se.values()))
    # parameter risk draws the same models from the saved file
    draws = [
        json.dumps(_perturb_model(m, np.random.default_rng(8)).to_dict(), sort_keys=True)
        for m in (model, loaded)
    ]
    assert draws[0] == draws[1]
    shifted = _perturb_model(loaded, np.random.default_rng(8)).types["material_damage"]
    assert shifted.severity.shape != model.types["material_damage"].severity.shape


# the clamps of a parameter-risk redraw, (lo, hi) per parameter in draw order
REDRAW_CLAMPS = {
    WeibullDelayModel: {"shape": (0.05, math.inf), "c0": (-math.inf, math.inf),
                        "c1": (-math.inf, 0.0)},
    ExponentialDecay: {"lam0": (1e-6, math.inf), "beta": (1e-6, math.inf)},
    PowerDecay: {"lam0": (1e-6, math.inf), "beta": (1.0 + 1e-6, math.inf)},
    LogNormalSeverity: {"mu": (-math.inf, math.inf), "sigma": (1e-3, math.inf)},
    GammaSeverity: {"shape": (1e-6, math.inf), "scale": (1e-9, math.inf)},
}


def test_parameter_redraws_stay_in_bounds():
    for cls, clamps in REDRAW_CLAMPS.items():
        assert list(cls.REDRAW_BOUNDS.items()) == list(clamps.items())

    def wide(cls):
        return dict.fromkeys(REDRAW_CLAMPS[cls], 1e3)

    delay = WeibullDelayModel(1.5, math.log(30.0), -0.01, se=wide(WeibullDelayModel))
    lognormal = LogNormalSeverity(3.0, 0.4, se=wide(LogNormalSeverity))
    model = GranularModel(types={
        "bodily_injury": replace(
            TM,
            delay=delay,
            counts=CountProcess(ExponentialDecay(3.0, 1.2), se=wide(ExponentialDecay)),
            severity=OrderARSeverity(lognormal, (0.5,), 0.3),
        ),
        "material_damage": replace(
            TM,
            delay=delay,
            counts=CountProcess(PowerDecay(3.0, 2.5), cov=((1e6, 0.0), (0.0, 1e6))),
            severity=GammaSeverity(2.0, 50.0, se=wide(GammaSeverity)),
        ),
    })
    rng = np.random.default_rng(5)
    hits = set()
    for _ in range(100):
        for tm in _perturb_model(model, rng).types.values():
            sev = tm.severity
            for comp in (tm.delay, tm.counts.intensity, getattr(sev, "base", sev)):
                for name, (lo, hi) in REDRAW_CLAMPS[type(comp)].items():
                    x = getattr(comp, name)
                    assert lo <= x <= hi
                    if x in (lo, hi):
                        hits.add((type(comp), name))
    # every finite clamp was reached, so each one is exercised
    assert len(hits) == sum(
        math.isfinite(b) for c in REDRAW_CLAMPS.values() for lohi in c.values() for b in lohi
    )


def test_backtest_window_validation(port1500):
    cut = port1500.data_cutoff
    with pytest.raises(ValueError, match="no holdout"):
        backtest(port1500, RECIPE, a_day=cut, b_day=cut + 10, n_scenarios=2)
    with pytest.raises(ValueError, match="exceeds the data cutoff"):
        backtest(port1500, RECIPE, a_day=6000, b_day=cut + 1, n_scenarios=2)


def test_backtest_holdout_accounting(port1500):
    a, b = parse_iso("2018-12-31"), parse_iso("2019-12-31")
    res = backtest(port1500, RECIPE, a_day=a, b_day=b, n_scenarios=40, seed=3)
    actual = sum(
        p.amount
        for c in port1500.claims
        if c.accident_day <= a
        for p in c.payments
        if a < p.day <= b
    )
    assert res.actual == actual
    totals = res.distribution.totals
    rank = float(np.mean(totals < actual) + 0.5 * np.mean(totals == actual))
    assert res.quantile_of_actual == rank
    assert 0.0 <= res.quantile_of_actual <= 1.0
    assert sorted(res.coverage) == ["0.5", "0.75", "0.95", "0.995"]
    # coverage indicators are monotone in the level
    levels = ["0.5", "0.75", "0.95", "0.995"]
    flags = [res.coverage[k] for k in levels]
    assert flags == sorted(flags)
    assert isinstance(res.in_band_90, bool)
    assert res.fit_report["types"].keys() == {"bodily_injury", "material_damage"}
