"""Whole-engine checks: density normalization, derivative identities, copula
axioms, simulate-refit closure, dependence calibration, reserve calibration,
and bitwise run reproducibility. Each test carries its own wall-clock budget.
"""

import json
import math
import time
import warnings

import numpy as np
from scipy import stats
from scipy.integrate import simpson

from granres import (
    ClaimRecord,
    CopulaSpec,
    CountProcess,
    ExponentialDecay,
    GranularModel,
    NegativeBinomial,
    OccurrenceModel,
    Poisson,
    PowerDecay,
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
    synthesize,
)
from granres.cli import main
from granres.copulas.families import CLAYTON, FRANK, GAUSSIAN, GUMBEL
from granres.copulas.mixed import conditional_count_quantile, fit_copula
from granres.delays import delay_quantile, fit_delay
from granres.frequency import ZeroModified, fit_count_mle
from granres.payments import fit_intensity
from granres.severity import (
    LogNormalSeverity,
    OrderARSeverity,
    fit_gamma,
    fit_lognormal,
    fit_order_ar,
    simulate_amounts,
)

from helpers import (
    copula_cdf,
    hac_cdf,
    intensity_rate,
    mixed_density,
    payment_taus,
    records_portfolio,
)

DELAY = WeibullDelayModel(1.5, math.log(30.0), 0.0)
PROC = CountProcess(ExponentialDecay(3.0, 1.2))


def test_joint_delay_count_density_integrates_to_one():
    t0 = time.perf_counter()
    spec = CopulaSpec("clayton", theta=2.0)
    w = np.linspace(0.0, 800.0, 4001)
    total = sum(
        simpson(mixed_density(DELAY, PROC, spec, 0, w, 2.0, n), x=w) for n in range(61)
    )
    assert abs(total - 1.0) < 1e-4
    assert time.perf_counter() - t0 < 10.0


def test_count_cdf_horizon_derivative_matches_finite_differences():
    t0 = time.perf_counter()
    taus = np.linspace(1.2, 3.0, 10)
    # cbrt(eps)-scaled steps; the mean is high enough that |dQ/dtau| stays
    # clear of the subtraction roundoff floor over the whole (tau, n) grid
    steps = 6.7e-6 * np.maximum(1.0, taus)
    for proc in (
        CountProcess(ExponentialDecay(8.0, 1.2)),
        CountProcess(PowerDecay(8.0, 2.5)),
    ):
        for n in range(10):
            # dQ_tau(n)/dtau = -rate(tau) * P[N(tau) = n]
            lam = proc.intensity.cumulative(taus)
            exact = -intensity_rate(proc.intensity, taus) * stats.poisson.pmf(n, lam)
            fd = np.array(
                [
                    (proc.count_cdf(t + h, n) - proc.count_cdf(t - h, n)) / (2.0 * h)
                    for t, h in zip(taus, steps)
                ]
            )
            assert np.max(np.abs(fd - exact) / np.abs(exact)) < 1e-6
    assert time.perf_counter() - t0 < 1.0


def test_pair_copulas_obey_boundary_and_rectangle_axioms():
    # the cdf oracle: generators for the Archimedean families, Owen's T for
    # the Gaussian. Its edges are the oracle's own rule; h's, the cdf's
    # first partials, are checked in test_copulas
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    cases = [
        (CLAYTON, 2.0),
        (GUMBEL, 2.0),
        (FRANK, 5.0),
        (FRANK, -3.0),
        (GAUSSIAN, 0.6),
    ]
    for fam, theta in cases:
        lo_u, hi_u = np.sort(rng.random((2, 10_000)), axis=0)
        lo_v, hi_v = np.sort(rng.random((2, 10_000)), axis=0)
        volume = (
            copula_cdf(fam.name, hi_u, hi_v, theta)
            - copula_cdf(fam.name, lo_u, hi_v, theta)
            - copula_cdf(fam.name, hi_u, lo_v, theta)
            + copula_cdf(fam.name, lo_u, lo_v, theta)
        )
        assert float(volume.min()) >= -1e-12, fam.name
    assert time.perf_counter() - t0 < 5.0


def _refit_poisson(rng):
    fit = fit_count_mle(Poisson(3.0).sample(rng, 8000), "poisson")
    return [(fit.dist.mu, 3.0, fit.se["mu"])]


def _refit_negbin(rng):
    fit = fit_count_mle(NegativeBinomial(2.0, 0.4).sample(rng, 12000), "negbin")
    return [(fit.dist.mean(), 3.0, fit.se["mu"]), (1.0 / fit.dist.r, 0.5, fit.se["alpha"])]


def _refit_zm_poisson(rng):
    truth = ZeroModified(Poisson(2.5), 0.4)
    fit = fit_count_mle(truth.sample(rng, 10000), "zm_poisson")
    return [(fit.dist.p0, 0.4, fit.se["p0"]), (fit.dist.base.mu, 2.5, fit.se["mu"])]


def _refit_weibull_tv(rng):
    truth = WeibullDelayModel(1.5, 3.0, -0.05)
    acc = rng.integers(0, 2192, 6000)
    delays = delay_quantile(truth, acc, rng.random(acc.size))
    claims = [
        ClaimRecord(f"c{i}", "material_damage", int(a), int(a + math.floor(w)))
        for i, (a, w) in enumerate(zip(acc, delays))
    ]
    fit = fit_delay(records_portfolio(claims, max(c.reporting_day for c in claims)))
    return [
        (fit.shape, 1.5, fit.se["shape"]),
        (fit.c0, 3.0, fit.se["c0"]),
        (fit.c1, -0.05, fit.se["c1"]),
    ]


def _refit_intensity(truth, lam0, beta, family):
    def run(rng):
        taus, horizons = payment_taus(truth, rng.uniform(0.5, 6.0, 5000), rng)
        fit, _ = fit_intensity(taus, horizons, family)
        return [
            (fit.intensity.lam0, lam0, fit.se["lam0"]),
            (fit.intensity.beta, beta, fit.se["beta"]),
        ]

    return run


def _refit_lognormal(rng):
    fit = fit_lognormal(rng.lognormal(3.0, 0.4, 6000))
    return [(fit.mu, 3.0, fit.se["mu"]), (fit.sigma, 0.4, fit.se["sigma"])]


def _refit_gamma(rng):
    fit = fit_gamma(rng.gamma(2.0, 3.0, 6000))
    return [(fit.shape, 2.0, fit.se["shape"]), (fit.scale, 3.0, fit.se["scale"])]


def _refit_order_ar(rng):
    truth = OrderARSeverity(LogNormalSeverity(3.0, 0.4), (0.6, 0.4), 2.0)
    counts = rng.integers(1, 6, 3000)
    fit = fit_order_ar(simulate_amounts(truth, counts, rng), counts, "lognormal")
    # the positivity floor truncates innovations, so sigma_eps refits a touch
    # low; the level links and the base distribution are the contract here
    return [
        (fit.alphas[0], 0.6, fit.se["alpha_1"]),
        (fit.alphas[1], 0.4, fit.se["alpha_2"]),
        (fit.base.mu, 3.0, fit.base.se["mu"]),
        (fit.base.sigma, 0.4, fit.base.se["sigma"]),
    ]


def _refit_clayton(rng):
    spec = CopulaSpec("clayton", theta=2.0)
    m = 5000
    t = rng.integers(0, 2000, m)
    horizon = rng.uniform(1.0, 3.0, m)
    u = rng.random(m)
    w = np.floor(delay_quantile(DELAY, t, u)).astype(int)
    n = conditional_count_quantile(u, rng.random(m), horizon, PROC, spec)
    fit = fit_copula((t, w, horizon, n), DELAY, PROC, "clayton")
    return [(fit.spec.theta, 2.0, fit.se["theta"])]


def test_refit_recovers_generating_parameters_within_three_se():
    t0 = time.perf_counter()
    components = {
        "poisson": _refit_poisson,
        "negbin": _refit_negbin,
        "zm_poisson": _refit_zm_poisson,
        "weibull_tv": _refit_weibull_tv,
        "exponential_intensity": _refit_intensity(
            ExponentialDecay(2.0, 1.0), 2.0, 1.0, "exponential"
        ),
        "power_intensity": _refit_intensity(PowerDecay(3.0, 2.2), 3.0, 2.2, "power"),
        "lognormal": _refit_lognormal,
        "gamma": _refit_gamma,
        "order_ar": _refit_order_ar,
        "static_clayton": _refit_clayton,
    }
    shortfalls = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, run in components.items():
            hits = 0
            for seed in range(100):
                rng = np.random.default_rng(50_000 + seed)
                if all(abs(est - truth) <= 3.0 * se for est, truth, se in run(rng)):
                    hits += 1
            if hits < 95:
                shortfalls[name] = hits
    assert not shortfalls, f"components under 95/100 seeds: {shortfalls}"
    assert time.perf_counter() - t0 < 300.0


def test_default_recipe_picks_the_generating_intensity_family():
    # intensity_family "auto" (the default) fits both families and keeps the
    # lower AIC; the archimedean generator pays bodily injury at an
    # exponential and material damage at a power intensity
    t0 = time.perf_counter()
    start, end, a = parse_iso("2016-01-01"), parse_iso("2021-12-31"), parse_iso("2020-12-31")
    truth = default_model(5000, start, end, "archimedean")
    generator = {t: tm.counts.intensity.to_dict()["family"] for t, tm in truth.types.items()}
    assert generator == {"bodily_injury": "exponential", "material_damage": "power"}
    right = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(20):
            portfolio = censor(synthesize(truth, start, end, np.random.default_rng(seed)), a)
            model, report = fit_model(portfolio)
            chosen = {}
            for t, r in report["types"].items():
                aic = r["intensity_aic"]
                assert sorted(aic) == ["exponential", "power"]
                assert aic[r["intensity_family"]] == min(aic.values())
                assert model.types[t].counts.intensity.to_dict()["family"] == r["intensity_family"]
                chosen[t] = r["intensity_family"]
            right += chosen == generator
    assert right >= 19, f"generating families chosen on {right}/20 seeds"
    assert time.perf_counter() - t0 < 120.0


def test_simulated_kendall_tau_matches_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    theta = 2.0
    for fam, closed in ((CLAYTON, theta / (theta + 2.0)), (GUMBEL, 1.0 - 1.0 / theta)):
        u = rng.random(100_000)
        v = fam.hinv(u, rng.random(100_000), theta)
        tau = stats.kendalltau(u, v).statistic
        assert abs(tau - closed) < 0.02, fam.name
    assert time.perf_counter() - t0 < 30.0


def test_ibnr_payment_count_mean_matches_analytic_product_form():
    t0 = time.perf_counter()
    a_day, b_day = parse_iso("2016-12-31"), parse_iso("2017-12-31")
    occurrence = OccurrenceModel("negbin", {2016: NegativeBinomial(1.0, 0.2)})
    tm = TypeModel(
        occurrence=occurrence,
        delay=DELAY,
        counts=PROC,
        severity=LogNormalSeverity(3.0, 0.4),
        copula=CopulaSpec("independence"),
    )
    model = GranularModel(types={"material_damage": tm})
    window = ValuationWindow(a_day, b_day)
    # the accident days ibnr_simulate continues over
    lookback = default_lookback(tm.delay, a_day)
    assert lookback == 133

    # geometric gaps renew at p/(1-p) accidents per day, every day, so the
    # analytic mean payment count factorizes: sum over accident day d and
    # integer delay w of rate * P[delay lands in [w, w+1)] * cumulative
    # payment intensity over the years remaining until b
    rate = 0.2 / 0.8
    expected = 0.0
    for d in range(a_day - lookback, a_day + 1):
        w = np.arange(a_day - d + 1, b_day - d + 1, dtype=float)
        mass = DELAY.cdf(d, w + 1.0) - DELAY.cdf(d, w)
        left = PROC.intensity.cumulative((b_day - d - w) / 365.25)
        expected += rate * float(np.sum(mass * left))
    assert abs(expected - 11.254761801650535) < 1e-9

    rng = np.random.default_rng(777)
    counts = np.empty(10_000)
    for i in range(counts.size):
        claims = ibnr_simulate(model, window, rng)
        counts[i] = sum(len(c.payments) for c in claims)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - expected) <= 3.0 * se
    assert time.perf_counter() - t0 < 120.0


def test_holdout_totals_hit_the_ninety_percent_band_at_nominal_rate():
    t0 = time.perf_counter()
    start, cutoff = parse_iso("2016-01-01"), parse_iso("2021-12-31")
    valuation = parse_iso("2020-12-31")
    recipe = {
        "copula_family": "independence",
        "hac_outer": None,
        "intensity_family": {
            "bodily_injury": "exponential",
            "material_damage": "power",
        },
    }
    hits = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(200):
            rng = np.random.default_rng(rep)
            portfolio = synthesize(
                default_model(5000, start, cutoff, "independence"), start, cutoff, rng
            )
            result = backtest(
                portfolio,
                recipe,
                valuation,
                cutoff,
                n_scenarios=300,
                seed=1000 + rep,
                workers=1,
            )
            hits += result.in_band_90
    assert 170 <= hits <= 190, f"in-band count {hits}/200"
    assert time.perf_counter() - t0 < 1800.0


def test_equal_parameter_hac_matches_exchangeable_archimedean():
    t0 = time.perf_counter()
    theta = 1.5
    inner = CopulaSpec("clayton", theta=theta)
    g = np.linspace(0.05, 0.95, 10)
    u1, u2, u3, u4 = (x.ravel() for x in np.meshgrid(g, g, g, g, indexing="ij"))
    nested = hac_cdf("clayton", theta, inner, inner, u1, u2, u3, u4)
    flat = CLAYTON.gen_inv(
        CLAYTON.gen(u1, theta)
        + CLAYTON.gen(u2, theta)
        + CLAYTON.gen(u3, theta)
        + CLAYTON.gen(u4, theta),
        theta,
    )
    assert np.max(np.abs(nested - flat)) < 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_repeated_reserve_runs_write_identical_summaries(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "n_claims": 500,
        "start": "2017-01-01",
        "end": "2019-12-31",
        "dependence": "archimedean",
    }
    (tmp_path / "synth.json").write_text(json.dumps(cfg))
    rc = main(
        ["synth", "--config", str(tmp_path / "synth.json"), "--seed", "21",
         "--out", str(tmp_path / "s")]
    )
    assert rc == 0
    rc = main(
        ["fit", "--input", str(tmp_path / "s" / "portfolio.csv"),
         "--out", str(tmp_path / "f")]
    )
    assert rc == 0
    (tmp_path / "res.json").write_text(
        json.dumps({"model": str(tmp_path / "f" / "model.json"), "cutoff": "2019-12-31"})
    )

    def run(tag, workers):
        rc = main(
            ["reserve", "--config", str(tmp_path / "res.json"),
             "--input", str(tmp_path / "s" / "portfolio.csv"),
             "--valuation-date", "2019-12-31", "--horizon", "one-year",
             "--scenarios", "200", "--seed", "7", "--workers", str(workers),
             "--out", str(tmp_path / tag)]
        )
        assert rc == 0
        return (tmp_path / tag / "summary.json").read_bytes()

    first = run("r1", workers=2)
    assert run("r2", workers=2) == first
    assert run("r3", workers=1) == first
    assert time.perf_counter() - t0 < 60.0


def test_two_by_two_chain_ladder_reserve_is_exactly_sixty():
    tri = RunOffTriangle((2020, 2021), 1, np.array([[100.0, 150.0], [120.0, np.nan]]))
    assert chain_ladder_reserve(tri)["total_reserve"] == 60.0
