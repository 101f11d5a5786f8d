"""Reserve engine: RBNS continuation, IBNR simulation, summaries, backtests."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import simpson

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
from granres.copulas import HacSpec, family
from granres.copulas.dynamics import TimeVaryingParam
from granres.delays import EmpiricalDelayModel, delay_density
from granres.reserving import (
    _perturb_model,
    ibnr_count_conditional,
    reporting_prob_window,
)
from granres.severity import LogNormalSeverity, OrderARSeverity

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
    return Portfolio(claims, cutoff)


def test_valuation_window():
    with pytest.raises(ValueError, match="b > a"):
        ValuationWindow(100, 100)
    assert ValuationWindow.one_year(100) == ValuationWindow(100, 465)
    assert ValuationWindow.ultimate(0).b_day == 5479
    assert_allclose(ValuationWindow(0, 5479).horizon_years, 5479 / 365.25)


def test_fit_model_rejects_unknown_recipe_keys():
    with pytest.raises(ValueError, match="unknown recipe keys"):
        fit_model(_rbns_portfolio(), {"bogus": 1})
    # the cross-type match gap is fixed, so fit and simulation agree on it
    with pytest.raises(ValueError, match="unknown recipe keys"):
        fit_model(_rbns_portfolio(), {"match_gap_days": 7})


def test_fit_error_names_the_failing_stage():
    # every claim reported exactly at the cutoff: zero payment exposure
    claims = [
        ClaimRecord(f"c{i}", "material_damage", 5844 + 3 * i, 6209) for i in range(120)
    ]
    port = Portfolio(claims, 6209)
    with pytest.raises(PhaseError, match=r"phase 3 \(payment counts"):
        fit_model(port, {"copula_family": "independence", "hac_outer": None})


def test_reporting_prob_window_closed_form():
    dm = WeibullDelayModel(1.0, math.log(10.0), 0.0)
    win = ValuationWindow(100, 200)
    got = reporting_prob_window(dm, win, np.array([95, 50]))
    assert_allclose(
        got,
        [math.exp(-0.5) - math.exp(-10.5), math.exp(-5.0) - math.exp(-15.0)],
        rtol=1e-12,
    )


def test_ibnr_count_conditional_independence_identity():
    t, w = 6100, 150.0
    horizon = (WIN.b_day - t - w) / 365.25
    win_prob = float(reporting_prob_window(TM.delay, WIN, t))
    for n in range(5):
        direct = TM.counts.count_pmf(horizon, n) / win_prob
        assert_allclose(ibnr_count_conditional(TM, WIN, t, w, n), direct, rtol=1e-12)
        via_model = ibnr_count_conditional(
            MODEL, WIN, t, w, n, claim_type="material_damage"
        )
        assert_allclose(via_model, direct, rtol=1e-12)


def test_ibnr_count_conditional_normalizes_under_coupling():
    tm = TypeModel(
        TM.occurrence, TM.delay, TM.counts, TM.severity, CopulaSpec("clayton", theta=2.0)
    )
    t = 6100
    w = np.linspace(WIN.a_day - t + 1e-9, WIN.b_day - t, 1201)
    dens = delay_density(tm.delay, t, w)
    total = 0.0
    for n in range(61):
        cond = ibnr_count_conditional(tm, WIN, t, w, n)
        total += simpson(cond * dens, x=w)
    assert_allclose(total, 1.0, atol=1e-6)


def test_ibnr_count_conditional_domain_errors():
    with pytest.raises(ValueError, match="report inside the window"):
        ibnr_count_conditional(TM, WIN, 6100, 10.0, 1)
    emp = EmpiricalDelayModel({2016: np.array([1.0, 2.0, 3.0])})
    tme = TypeModel(TM.occurrence, emp, TM.counts, TM.severity, CopulaSpec("independence"))
    with pytest.raises(ValueError, match="zero reporting probability"):
        ibnr_count_conditional(tme, ValuationWindow(6000, 6100), 5995, 50.0, 1)
    with pytest.raises(TypeError, match="claim_type"):
        ibnr_count_conditional(MODEL, WIN, 6100, 150.0, 1)


def test_default_lookback():
    # stationary weibull: the high quantile in closed form, plus one day
    q = 30.0 * math.log(1e4) ** (1 / 1.5)
    assert default_lookback(TM.delay, 6209) == int(math.ceil(q)) + 1 == 133
    emp = EmpiricalDelayModel({2016: np.array([1.0, 2.0, 3.0])})
    assert default_lookback(emp, 6209) == 4


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
    dist = simulate_reserves(model, Portfolio(claims, 6400), WIN, 20, seed=5)
    # the noiseless chain halves from 100.0, so m payments total 100 (1 - 0.5^m)
    m = -np.log2(1.0 - dist.rbns / 100.0)
    assert_allclose(m, np.round(m), atol=1e-9)
    assert np.all(np.round(m) >= 0) and np.any(np.round(m) > 0)


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
    dist = simulate_reserves(MODEL, _rbns_portfolio(), WIN, 16, seed=11)
    assert_allclose(dist.totals, dist.rbns + dist.ibnr, rtol=1e-12)
    assert_allclose(sum(dist.by_type.values()), dist.totals, rtol=1e-12)
    assert_allclose(dist.by_period.sum(axis=1), dist.totals, rtol=1e-12)
    assert dist.period_years == (2017,)
    assert np.all(dist.rbns > 0)  # 30 open claims with 1.8 expected payments each


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


def test_nested_scenarios_repeat_bitwise_for_any_batching(monkeypatch):
    """One nested-copula solve spans a batch's scenarios, while each scenario's
    redrawn delays set its own pairs' time-varying inner parameters: 13
    scenarios in one batch (1 worker), in uneven chunks (2 and 3 workers) or
    in batches of 4 draw the same reserves."""
    start, end = parse_iso("2016-01-01"), parse_iso("2017-12-31")
    truth = default_model(1000, start, end, dependence="archimedean")
    se = {"shape": 0.15, "c0": 0.3, "c1": 0.015}
    types = {}
    for t, tm in truth.types.items():
        eta = float(family(tm.copula.family).link(tm.copula.theta))
        copula = CopulaSpec(tm.copula.family, dynamics=TimeVaryingParam(eta + 1.0, eta, 1.0))
        types[t] = replace(tm, delay=replace(tm.delay, se=se), copula=copula)
    hac = HacSpec(
        truth.hac.outer_family,
        truth.hac.outer_theta,
        types["bodily_injury"].copula,
        types["material_damage"].copula,
    )
    model = GranularModel(types=types, hac=hac)
    window = ValuationWindow.one_year(parse_iso("2016-12-31"))
    port = censor(synthesize(truth, start, end, np.random.default_rng(5)), window.a_day)
    dists = [
        simulate_reserves(model, port, window, 13, seed=4, workers=w, parameter_risk=True)
        for w in (1, 2, 3)
    ]
    monkeypatch.setattr(reserving, "_BATCH_SCENARIOS", 4)
    dists.append(simulate_reserves(model, port, window, 13, seed=4, parameter_risk=True))
    assert np.all(dists[0].ibnr > 0)
    for other in dists[1:]:
        assert_array_equal(dists[0].rbns, other.rbns)
        assert_array_equal(dists[0].ibnr, other.ibnr)
        assert_array_equal(dists[0].by_period, other.by_period)


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
    assert dist.summary() == s
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
