"""Reporting-delay models: smooth time-varying Weibull and empirical cohorts."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from granres import ClaimRecord, Portfolio, WeibullDelayModel
from granres.daycount import year_start
from granres.delays import (
    EmpiricalDelayModel,
    delay_cdf,
    delay_density,
    delay_model_from_dict,
    delay_quantile,
    fit_delay,
)


def test_weibull_cdf_closed_form_and_quantile_roundtrip():
    m = WeibullDelayModel(1.5, math.log(30.0), 0.0)
    assert_allclose(m.cdf(0, 30.0), -math.expm1(-1.0), rtol=1e-14)
    assert m.cdf(0, 0.0) == 0.0
    assert m.cdf(0, -5.0) == 0.0
    assert m.density(0, -1.0) == 0.0
    w = np.array([0.5, 3.0, 12.0, 80.0, 120.0])
    assert_allclose(m.quantile(0, m.cdf(0, w)), w, rtol=1e-12)


def test_weibull_scale_trend_and_mean():
    m = WeibullDelayModel(2.0, 1.0, -0.1)
    assert_allclose(m.scale(365.25), math.exp(1.0 - 0.1), rtol=1e-14)
    assert_allclose(m.mean(0), math.exp(1.0) * math.gamma(1.5), rtol=1e-14)
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
    num = np.trapezoid(m.density(t, w), w)
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
    fit = fit_delay(Portfolio(claims, int(rep.max())), "weibull_tv")
    assert abs(fit.shape - 1.5) < 3 * fit.se["shape"]
    assert abs(fit.c0 - 3.0) < 3 * fit.se["c0"]
    assert abs(fit.c1 + 0.05) < 3 * fit.se["c1"]


def test_fit_delay_input_validation():
    claims = [ClaimRecord(f"c{i}", "material_damage", i, i + 1) for i in range(99)]
    with pytest.raises(ValueError, match="at least 100"):
        fit_delay(Portfolio(claims, 200))
    claims = [ClaimRecord(f"c{i}", "material_damage", i, i + 1) for i in range(150)]
    with pytest.raises(ValueError, match="unknown delay variant"):
        fit_delay(Portfolio(claims, 200), "lognormal")


def test_single_accident_year_pins_trend_to_zero():
    rng = np.random.default_rng(3)
    acc = rng.integers(0, 300, 150)  # all in the first calendar year
    rep = acc + rng.integers(0, 40, 150)
    claims = [
        ClaimRecord(f"c{i}", "bodily_injury", int(a), int(r))
        for i, (a, r) in enumerate(zip(acc, rep))
    ]
    with pytest.warns(UserWarning, match="single accident year"):
        fit = fit_delay(Portfolio(claims, 400), "weibull_tv")
    assert fit.c1 == 0.0
    assert "c1" not in fit.se


def test_empirical_cohort_lookup_and_quantiles():
    y1 = year_start(2001)
    m = EmpiricalDelayModel(
        {2000: np.array([1.0, 2.0, 3.0, 4.0]), 2001: np.array([10.0, 20.0])}
    )
    assert m.cdf(5, 2.5) == 0.5
    assert m.quantile(5, 0.5) == 3.0
    assert_array_equal(m.quantile(y1 + 3, np.array([0.0, 0.9])), [10.0, 20.0])
    assert m.mean(y1 + 3) == 15.0
    # years beyond the fitted range clamp to the nearest cohort
    assert m.cdf(year_start(2005) + 10, 15.0) == 0.5
    with pytest.raises(ValueError, match="no density"):
        m.density(5, 1.0)
    with pytest.raises(ValueError, match="at least one cohort"):
        EmpiricalDelayModel({})


def test_empirical_cohort_gap_year_warns_and_borrows():
    m = EmpiricalDelayModel(
        {2000: np.array([1.0, 2.0]), 2002: np.array([5.0, 6.0])}
    )
    with pytest.warns(UserWarning, match="no delay cohort"):
        val = m.mean(year_start(2001) + 7)
    assert val in (1.5, 5.5)


def test_fit_empirical_merges_thin_cohorts():
    rng = np.random.default_rng(12)
    acc0 = rng.integers(0, 360, 100)
    acc1 = year_start(2001) + rng.integers(0, 100, 15)
    acc = np.concatenate([acc0, acc1])
    rep = acc + rng.integers(0, 30, acc.size)
    claims = [
        ClaimRecord(f"c{i}", "material_damage", int(a), int(r))
        for i, (a, r) in enumerate(zip(acc, rep))
    ]
    with pytest.warns(UserWarning, match="merged into previous year"):
        m = fit_delay(Portfolio(claims, int(rep.max())), "empirical_cohort")
    assert sorted(m.cohorts) == [2000, 2001]
    assert m.cohorts[2000].size == 115
    assert_array_equal(m.cohorts[2000], m.cohorts[2001])


def test_fit_empirical_merges_short_tail_into_the_whole_group():
    rng = np.random.default_rng(14)
    acc = np.concatenate(
        [year_start(y) + rng.integers(0, 360, n) for y, n in ((2016, 20), (2017, 90), (2018, 10))]
    )
    rep = acc + rng.integers(0, 30, acc.size)
    claims = [
        ClaimRecord(f"c{i}", "material_damage", int(a), int(r))
        for i, (a, r) in enumerate(zip(acc, rep))
    ]
    with pytest.warns(UserWarning, match="merged"):
        m = fit_delay(Portfolio(claims, int(rep.max())), "empirical_cohort")
    # 2016 merges forward into 2017; the short 2018 tail joins that group
    assert [m.cohorts[y].size for y in (2016, 2017, 2018)] == [120, 120, 120]
    assert_array_equal(m.cohorts[2016], m.cohorts[2018])
    assert_array_equal(np.sort(rep - acc), m.cohorts[2017])


def test_fit_empirical_merges_thin_leading_cohort():
    rng = np.random.default_rng(13)
    acc0 = rng.integers(0, 360, 5)
    acc1 = year_start(2001) + rng.integers(0, 100, 110)
    acc = np.concatenate([acc0, acc1])
    rep = acc + rng.integers(0, 30, acc.size)
    claims = [
        ClaimRecord(f"c{i}", "material_damage", int(a), int(r))
        for i, (a, r) in enumerate(zip(acc, rep))
    ]
    with pytest.warns(UserWarning, match="merged"):
        m = fit_delay(Portfolio(claims, int(rep.max())), "empirical_cohort")
    assert m.cohorts[2000].size == 115
    assert_array_equal(m.cohorts[2000], m.cohorts[2001])


def test_vectorized_helpers_dispatch_per_year():
    wb = WeibullDelayModel(1.5, math.log(30.0), -0.01)
    t = np.array([10, 400])
    w = np.array([5.0, 25.0])
    assert_allclose(delay_cdf(wb, t, w), wb.cdf(t, w), rtol=1e-14)
    assert_allclose(delay_quantile(wb, t, [0.3, 0.7]), wb.quantile(t, [0.3, 0.7]), rtol=1e-14)
    assert_allclose(delay_density(wb, 10, 5.0), wb.density(10, 5.0), rtol=1e-14)

    emp = EmpiricalDelayModel(
        {2000: np.array([1.0, 2.0, 3.0, 4.0]), 2001: np.array([10.0, 20.0])}
    )
    te = np.array([5, year_start(2001) + 3])
    assert_array_equal(delay_cdf(emp, te, np.array([2.5, 15.0])), [0.5, 0.5])
    assert_array_equal(delay_quantile(emp, te, np.array([0.5, 0.0])), [3.0, 10.0])
    with pytest.raises(ValueError, match="no density"):
        delay_density(emp, te, np.array([1.0, 1.0]))


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

    emp = EmpiricalDelayModel({2000: np.array([3.0, 7.0])})
    many = delay_quantile(emp, np.full(200, 10), np.random.default_rng(1).random(200))
    assert many.dtype == float and set(np.unique(many)) == {3.0, 7.0}


def test_delay_dict_round_trips():
    wb = WeibullDelayModel(1.4, 2.0, -0.03, {"shape": 0.1, "c0": 0.2, "c1": 0.01})
    rt = delay_model_from_dict(wb.to_dict())
    assert rt == wb
    emp = EmpiricalDelayModel({2000: np.array([2.0, 5.0, 9.0])})
    rt = delay_model_from_dict(emp.to_dict())
    assert sorted(rt.cohorts) == [2000]
    assert_array_equal(rt.cohorts[2000], emp.cohorts[2000])
    with pytest.raises(ValueError, match="unknown delay variant"):
        delay_model_from_dict({"variant": "gamma"})
