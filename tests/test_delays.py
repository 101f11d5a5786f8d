"""The reporting-delay model: a Weibull with a time-varying scale."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, optimize, stats

from granres import ClaimRecord, WeibullDelayModel, fit_model
from granres.delays import delay_model_from_dict, delay_quantile, delay_score, fit_delay
from granres.frequency import NegativeBinomial, fit_count_mle, fit_occurrence
from helpers import records_portfolio


def test_weibull_cdf_closed_form_and_quantile_roundtrip():
    m = WeibullDelayModel(1.5, math.log(30.0), 0.0)
    assert_allclose(m.cdf(0, 30.0), -math.expm1(-1.0), rtol=1e-14)
    assert m.cdf(0, 0.0) == 0.0
    assert m.cdf(0, -5.0) == 0.0
    w = np.array([0.5, 3.0, 12.0, 80.0, 120.0])
    assert_allclose(m.cdf(0, w), stats.weibull_min.cdf(w, 1.5, scale=30.0), rtol=1e-14)
    assert_allclose(m.quantile(0, m.cdf(0, w)), w, rtol=1e-12)


def test_weibull_scale_trend_and_mean():
    m = WeibullDelayModel(2.0, 1.0, -0.1)
    assert_allclose(m.scale(365.25), math.exp(1.0 - 0.1), rtol=1e-14)
    # the closed-form mean scale(t) * Gamma(1 + 1/shape) is the law's mean:
    # the integral of its survival function
    mean = m.scale(0) * math.gamma(1.0 + 1.0 / m.shape)
    assert_allclose(mean, math.exp(1.0) * math.gamma(1.5), rtol=1e-14)
    survival, _ = integrate.quad(lambda w: 1.0 - m.cdf(0, w), 0.0, np.inf, epsabs=0.0)
    assert_allclose(survival, mean, rtol=1e-10)
    with pytest.raises(ValueError, match="c1 must be <= 0"):
        WeibullDelayModel(1.0, 0.0, 0.2)
    with pytest.raises(ValueError, match="shape must be positive"):
        WeibullDelayModel(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="in \\[0, 1\\)"):
        m.quantile(0, 1.0)
    with pytest.raises(ValueError, match="in \\[0, 1\\)"):
        m.quantile(0, -0.01)


def test_weibull_density_integrates_to_cdf():
    m = WeibullDelayModel(2.0, math.log(20.0), -0.02)
    t = 900
    w = np.linspace(0.0, 200.0, 20_001)
    dens = stats.weibull_min.pdf(w, m.shape, scale=m.scale(t))
    num = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(w)))  # trapezoid rule
    assert_allclose(num, m.cdf(t, 200.0), atol=1e-6)


def test_weibull_fit_recovers_truth_from_day_censored_delays():
    truth = WeibullDelayModel(1.5, 3.0, -0.05)
    rng = np.random.default_rng(31)
    acc = rng.integers(0, 2192, 20_000)
    w = delay_quantile(truth, acc, rng.random(acc.size))
    rep = acc + np.floor(w).astype(int)
    claims = [
        ClaimRecord(f"c{i}", "material_damage", int(a), int(r))
        for i, (a, r) in enumerate(zip(acc, rep))
    ]
    fit = fit_delay(records_portfolio(claims, int(rep.max())))
    assert abs(fit.shape - 1.5) < 3 * fit.se["shape"]
    assert abs(fit.c0 - 3.0) < 3 * fit.se["c0"]
    assert abs(fit.c1 + 0.05) < 3 * fit.se["c1"]


def test_fit_delay_input_validation():
    claims = [ClaimRecord(f"c{i}", "material_damage", i, i + 1) for i in range(99)]
    with pytest.raises(ValueError, match="at least 100"):
        fit_delay(records_portfolio(claims, 200))
    claims = [ClaimRecord(f"c{i}", "material_damage", i, i + 1) for i in range(150)]
    # the Weibull is the only delay law: a model file or recipe naming
    # another is refused
    with pytest.raises(ValueError, match="unknown delay variant 'empirical_cohort'"):
        delay_model_from_dict({"variant": "empirical_cohort", "cohorts": {"2000": [1.0, 2.0]}})
    with pytest.raises(ValueError, match="unknown recipe keys: \\['delay_variant'\\]"):
        fit_model(records_portfolio(claims, 200), {"delay_variant": "weibull_tv"})


def _failed_minimize(fun, x0, **kwargs):
    """An optimizer that stops at its start without converging; the
    objective returns (value, gradient)."""
    x = np.asarray(x0, dtype=float)
    return optimize.OptimizeResult(
        x=x, fun=fun(x)[0], success=False, message="ABNORMAL_TERMINATION_IN_LNSRCH"
    )


def test_fit_delay_raises_when_the_optimizer_fails(monkeypatch):
    rng = np.random.default_rng(4)
    acc = rng.integers(0, 1000, 200)
    claims = [
        ClaimRecord(f"c{i}", "bodily_injury", int(a), int(a) + 5) for i, a in enumerate(acc)
    ]
    monkeypatch.setattr("granres.fitutil.optimize.minimize", _failed_minimize)
    with pytest.raises(ValueError, match="did not converge: ABNORMAL_TERMINATION_IN_LNSRCH"):
        fit_delay(records_portfolio(claims, 1100))


def test_count_fit_warns_when_the_optimizer_fails(monkeypatch):
    # unlike the delay fit, a count fit that did not converge warns and
    # returns; the zero-truncated negative binomial is the count fit that
    # runs the optimizer
    obs = np.random.default_rng(5).negative_binomial(3, 0.5, 200)
    monkeypatch.setattr("granres.fitutil.optimize.minimize", _failed_minimize)
    with pytest.warns(UserWarning) as caught:
        fit = fit_count_mle(obs, "zm_negbin")
    assert [str(w.message) for w in caught] == [
        "zero-truncated negative binomial fit did not converge: ABNORMAL_TERMINATION_IN_LNSRCH"
    ]
    assert isinstance(fit.dist.base, NegativeBinomial)
    assert np.isfinite(fit.loglik)


def test_occurrence_fit_warnings_name_their_year_group(monkeypatch):
    rng = np.random.default_rng(6)
    days = np.cumsum(rng.negative_binomial(3, 0.5, 200)) + 1  # years 2000 and 2001
    claims = [ClaimRecord(f"c{i}", "bodily_injury", int(d), int(d)) for i, d in enumerate(days)]
    monkeypatch.setattr("granres.fitutil.optimize.minimize", _failed_minimize)
    with pytest.warns(UserWarning) as caught:
        fit_occurrence(records_portfolio(claims, int(days[-1]) + 1), "zm_negbin")
    assert [str(w.message) for w in caught] == [
        f"occurrence years ({year},): zero-truncated negative binomial fit did not converge: "
        "ABNORMAL_TERMINATION_IN_LNSRCH"
        for year in (2000, 2001)
    ]


def test_single_accident_year_pins_trend_to_zero():
    rng = np.random.default_rng(3)
    acc = rng.integers(0, 300, 150)  # all in the first calendar year
    rep = acc + rng.integers(0, 40, 150)
    claims = [
        ClaimRecord(f"c{i}", "bodily_injury", int(a), int(r))
        for i, (a, r) in enumerate(zip(acc, rep))
    ]
    with pytest.warns(UserWarning, match="single accident year"):
        fit = fit_delay(records_portfolio(claims, 400))
    assert fit.c1 == 0.0
    assert "c1" not in fit.se


def test_vectorized_helpers_dispatch_per_year():
    # accident days in two years give each claim its own year's values
    wb = WeibullDelayModel(1.5, math.log(30.0), -0.01)
    t = np.array([10, 400])
    w = np.array([5.0, 25.0])
    u = np.array([0.3, 0.7])
    assert_allclose(delay_quantile(wb, t, u), [wb.quantile(10, 0.3), wb.quantile(400, 0.7)],
                    rtol=1e-14)
    assert_allclose(delay_score(wb, t, w), [wb.cdf(10, 5.5), wb.cdf(400, 25.5)], rtol=1e-14)
    assert_allclose(wb.cdf(t, w), [wb.cdf(10, 5.0), wb.cdf(400, 25.0)], rtol=1e-14)


def test_simulate_delay_shapes_and_determinism():
    # a delay is drawn as the quantile at a uniform, one double per claim
    wb = WeibullDelayModel(1.2, math.log(15.0), 0.0)
    a = delay_quantile(wb, 100, np.random.default_rng(5).random())
    b = delay_quantile(wb, 100, np.random.default_rng(5).random())
    assert a.shape == ()
    assert a == b
    arr = delay_quantile(wb, np.full(50, 100), np.random.default_rng(5).random(50))
    assert arr.shape == (50,) and np.all(arr >= 0)
    assert arr[0] == a


def test_delay_dict_round_trips():
    wb = WeibullDelayModel(1.4, 2.0, -0.03, {"shape": 0.1, "c0": 0.2, "c1": 0.01})
    rt = delay_model_from_dict(wb.to_dict())
    assert rt == wb
    with pytest.raises(ValueError, match="unknown delay variant"):
        delay_model_from_dict({"variant": "gamma"})
