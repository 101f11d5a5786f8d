"""Coupled (reporting delay, payment count) law: density, simulation, fitting."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from granres import (
    ClaimRecord,
    CopulaSpec,
    CountProcess,
    ExponentialDecay,
    PaymentEvent,
    Portfolio,
    WeibullDelayModel,
)
from granres.copulas.families import FAMILIES
from granres.copulas.mixed import (
    conditional_count_quantile,
    copula_pairs,
    fit_copula,
    mixed_density,
    sklar_joint_cdf,
)
from granres.delays import delay_density, delay_quantile

DELAY = WeibullDelayModel(1.5, math.log(30.0), 0.0)
PROC = CountProcess(ExponentialDecay(3.0, 1.2))
CLAY2 = CopulaSpec("clayton", theta=2.0)


def test_joint_cdf_boundaries():
    t, x = 1000, 2.0
    w = np.array([5.0, 40.0, 200.0])
    # count margin saturated: joint cdf collapses to the delay cdf
    assert_allclose(
        sklar_joint_cdf(DELAY, PROC, CLAY2, t, w, x, 200),
        DELAY.cdf(t, w),
        rtol=1e-10,
    )
    assert_allclose(sklar_joint_cdf(DELAY, PROC, CLAY2, t, w, x, -1), 0.0)
    assert_allclose(sklar_joint_cdf(DELAY, PROC, CLAY2, t, 0.0, x, 3), 0.0, atol=1e-12)


def test_mixed_density_nonnegative_and_sums_to_delay_margin():
    t, x = 500, 2.0
    w = np.linspace(0.5, 300.0, 40)
    total = np.zeros_like(w)
    for spec in (CLAY2, CopulaSpec("independence"), CopulaSpec("frank", theta=-4.0)):
        total[:] = 0.0
        for n in range(0, 81):
            f = mixed_density(DELAY, PROC, spec, t, w, x, n)
            assert np.all(f >= 0.0)
            total += f
        assert_allclose(total, delay_density(DELAY, t, w), rtol=1e-9)


def test_conditional_quantile_reduces_to_poisson_under_independence():
    spec = CopulaSpec("independence")
    lam = float(PROC.intensity.cumulative(1.5))
    u = np.repeat(np.array([0.1, 0.5, 0.9]), 5)
    v = np.tile(np.array([0.02, 0.3, 0.62, 0.9, 0.995]), 3)
    got = conditional_count_quantile(u, v, 1.5, PROC, spec)
    want = stats.poisson.ppf(v, lam).astype(np.int64)
    assert_array_equal(got, want)


@pytest.mark.parametrize("proc", [PROC, CountProcess(ExponentialDecay(40.0, 0.5))])
def test_independence_count_quantile_equals_the_cdf_search(proc):
    # the independence path is a Poisson quantile; it must pick exactly the
    # smallest n with Q(n) >= v that a search over the Poisson cdf finds
    rng = np.random.default_rng(23)
    m = 100_000
    u, v, horizon = rng.random(m), rng.random(m), 8.0 * rng.random(m)
    v[:4] = [0.0, 1e-300, 0.5, 1.0 - 2.0**-53]
    horizon[4] = 0.0
    got = conditional_count_quantile(u, v, horizon, proc, CopulaSpec("independence"))
    lam = proc.intensity.cumulative(horizon)
    for lo in range(0, m, 5_000):
        sl = slice(lo, lo + 5_000)
        ns = np.arange(int(lam[sl].max() + 10.0 * np.sqrt(lam[sl].max()) + 21))
        ok = stats.poisson.cdf(ns[None, :], lam[sl, None]) >= v[sl, None]
        assert ok.any(axis=1).all()
        assert_array_equal(got[sl], np.argmax(ok, axis=1))


def test_coupled_simulation_preserves_both_margins():
    # the engine's coupled draw: the delay at a uniform u, then the count
    # quantile conditional on u
    rng = np.random.default_rng(8)
    u = rng.random(20_000)
    w = np.floor(delay_quantile(DELAY, np.full(u.size, 1000), u)).astype(np.int64)
    n = conditional_count_quantile(u, rng.random(u.size), 2.0, PROC, CLAY2)
    lam = float(PROC.intensity.cumulative(2.0))
    z_mean = (n.mean() - lam) / np.sqrt(lam / n.size)
    assert abs(z_mean) < 4.0
    p0 = math.exp(-lam)
    z_p0 = (np.mean(n == 0) - p0) / np.sqrt(p0 * (1 - p0) / n.size)
    assert abs(z_p0) < 4.0
    pw = 1.0 - math.exp(-1.0)  # P[W < 30] with scale 30, shape 1.5
    z_w = (np.mean(w <= 29) - pw) / np.sqrt(pw * (1 - pw) / w.size)
    assert abs(z_w) < 4.0
    # the coupling itself is strong and positive
    assert stats.kendalltau(w, n).statistic > 0.3


def test_simulate_delay_count_scalar_and_vector():
    for size in (1, 7):
        rng = np.random.default_rng(4)
        u = rng.random(size)
        w = np.floor(delay_quantile(DELAY, np.full(size, 1000), u)).astype(np.int64)
        n = conditional_count_quantile(u, rng.random(size), 2.0, PROC, CLAY2)
        assert w.shape == (size,) and n.shape == (size,)
        assert n.dtype == np.int64
        assert np.all(w >= 0) and np.all(n >= 0)
    # a scalar score gives a one-element count array
    assert conditional_count_quantile(0.5, 0.5, 2.0, PROC, CLAY2).shape == (1,)


def test_copula_pairs_hand_case():
    claims = [
        ClaimRecord(
            "c1", "bodily_injury", 100, 110,
            (PaymentEvent(200, 50.0), PaymentEvent(300, 25.0)),
        ),
        ClaimRecord("c2", "bodily_injury", 150, 475),  # reported on the cutoff
        ClaimRecord("c3", "bodily_injury", 200, 220),
    ]
    port = Portfolio(claims, 475)
    t, w, horizon, n = copula_pairs(port)
    assert_array_equal(t, [100, 200])
    assert_array_equal(w, [10, 20])
    assert_allclose(horizon, [(475 - 110) / 365.25, (475 - 220) / 365.25])
    assert_array_equal(n, [2, 0])
    t_b, _, _, _ = copula_pairs(port, claim_type="bodily_injury")
    assert_array_equal(t_b, t)


def _coupled_pairs(spec, seed, m=2000):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, 2000, m)
    horizon = rng.uniform(1.0, 3.0, m)
    u = rng.random(m)
    w = np.floor(delay_quantile(DELAY, t, u)).astype(int)
    n = conditional_count_quantile(u, rng.random(m), horizon, PROC, spec)
    return t, w, horizon, n


def test_fit_copula_recovers_clayton_theta():
    pairs = _coupled_pairs(CLAY2, seed=14)
    fit = fit_copula(pairs, DELAY, PROC, "clayton")
    assert 1.7 < fit.spec.theta < 2.3
    assert abs(fit.spec.theta - 2.0) < 3 * fit.se["theta"]
    assert fit.n_obs == 2000
    assert_allclose(fit.aic, 2.0 - 2.0 * fit.loglik, rtol=1e-13)


def test_fit_copula_auto_selection():
    indep_pairs = _coupled_pairs(CopulaSpec("independence"), seed=15)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit0 = fit_copula(indep_pairs, DELAY, PROC, "auto")
    assert fit0.spec.family == "independence"
    assert set(fit0.aic_table) == {"independence", "clayton", "gumbel", "frank", "gaussian"}
    # Clayton and Gumbel stop on their lower bounds here, but they are not
    # the pick, so their missing standard errors are not reported
    assert [str(w.message) for w in caught] == []

    # a pick at its upper bound keeps its warning
    bound_pairs = _coupled_pairs(CopulaSpec("clayton", theta=28.0), seed=15)
    with pytest.warns(UserWarning, match="standard errors unavailable"):
        fit_bound = fit_copula(bound_pairs, DELAY, PROC, "auto")
    assert fit_bound.spec.family == "clayton"
    assert fit_bound.spec.theta == FAMILIES["clayton"].theta_bounds[1]
    assert np.isnan(fit_bound.se["theta"])

    dep_pairs = _coupled_pairs(CLAY2, seed=14)
    fit1 = fit_copula(dep_pairs, DELAY, PROC, "auto")
    assert fit1.spec.family == "clayton"
    assert fit1.aic == min(fit1.aic_table.values())


def test_time_varying_refit_never_hurts_aic():
    pairs = _coupled_pairs(CLAY2, seed=14)
    base = fit_copula(pairs, DELAY, PROC, "clayton")
    tv = fit_copula(pairs, DELAY, PROC, "clayton", time_varying=True)
    assert tv.spec.family == "clayton"
    assert tv.aic <= base.aic + 1e-9
    if tv.spec.is_time_varying:
        assert "clayton_tv" in tv.aic_table


def test_fit_copula_needs_enough_pairs():
    t = np.arange(10)
    w = np.ones(10, dtype=int)
    horizon = np.ones(10)
    n = np.ones(10, dtype=int)
    with pytest.raises(ValueError, match="at least 20 pairs"):
        fit_copula((t, w, horizon, n), DELAY, PROC, "clayton")
