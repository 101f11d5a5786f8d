"""The engine's count, normal and Kendall kernels against scipy.stats.

The engine calls the scipy.special kernels that scipy.stats wraps, so that
importing granres does not load scipy.stats. Each kernel must return exactly
the floats (and integers) the scipy.stats call returned, so seeded output
stays the same bit for bit; these tests compare them on seeded grids.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import special, stats

from granres import CopulaSpec, CountProcess, ExponentialDecay, NegativeBinomial, Poisson
from granres.copulas.families import FAMILIES, GAUSSIAN, GUMBEL
from granres.copulas.hac import fit_hac_outer, kendall_tau_b
from granres.copulas.mixed import conditional_count_quantile, count_quantile
from granres.frequency import ZeroModified

PROC = CountProcess(ExponentialDecay(6.0, 0.7))


def _horizons(rng, m):
    # horizon 0 gives lambda = 0
    horizon = 8.0 * rng.random(m)
    horizon[:3] = 0.0
    return horizon


def test_count_cdf_matches_poisson_cdf():
    rng = np.random.default_rng(41)
    horizon = _horizons(rng, 2_000)
    n = rng.integers(-1, 60, size=horizon.size)
    n[:6] = [-1, 0, 3, -1, 0, 2]
    n[6:9] = -1
    lam = PROC.intensity.cumulative(horizon)
    want = np.where(n < 0, 0.0, stats.poisson.cdf(np.where(n < 0, -1.0, n), lam))
    got = PROC.count_cdf(horizon, n)
    assert_array_equal(got, want)
    # the grid form the conditional count search uses: a block of n against every lambda
    ns = np.arange(80)
    assert_array_equal(
        PROC.count_cdf(horizon[:, None], ns[None, :]), stats.poisson.cdf(ns[None, :], lam[:, None])
    )


def test_count_quantile_matches_poisson_ppf():
    rng = np.random.default_rng(42)
    m = 50_000
    horizon = _horizons(rng, m)
    u = rng.random(m)
    # the clip edges: below 1e-300, at 1, between 1 - 1e-16 and 1, and nan
    u[3:12] = [0.0, 1e-320, 1e-300, 1.0, 1.0 - 2.0**-53, 1.0 - 1e-16, 0.5, np.nan, 1e-17]
    lam = PROC.intensity.cumulative(horizon)
    ref = stats.poisson.ppf(np.clip(u, 1e-300, 1.0 - 1e-16), np.maximum(lam, 0.0))
    want = np.maximum(np.nan_to_num(ref, nan=0.0), 0.0).astype(np.int64)
    assert_array_equal(count_quantile(u, horizon, PROC), want)
    # lambda = 0 everywhere
    assert_array_equal(count_quantile(u[:20], np.zeros(20), PROC), np.zeros(20, dtype=np.int64))


def test_count_quantile_is_the_smallest_n_where_the_cdf_rounds_to_one():
    # within a few ulps of 1 the rounded Poisson cdf is flat over several n
    # once lambda is a few hundred; scipy's quantile is not the smallest of
    # them there, the walk is
    wide = CountProcess(ExponentialDecay(3000.0, 1.0))
    horizon = np.repeat(np.linspace(0.0, 4.0, 300), 12)
    u = np.tile(1.0 - np.arange(12) * 2.0**-53, 300)
    u[::12] = 1.0 - 1e-16
    lam = wide.intensity.cumulative(horizon)
    clipped = np.clip(u, 1e-300, 1.0 - 1e-16)
    ns = np.arange(int(lam.max() + 40.0 * np.sqrt(lam.max()) + 60.0))
    reached = special.pdtr(ns[None, :], lam[:, None]) >= clipped[:, None]
    assert reached[:, -1].all()
    got = count_quantile(u, horizon, wide)
    assert_array_equal(got, np.argmax(reached, axis=1))
    assert np.any(got < stats.poisson.ppf(clipped, lam))


@pytest.mark.parametrize("family, theta", [("clayton", 2.0), ("frank", -3.0), ("gaussian", 0.5)])
def test_conditional_count_quantile_matches_the_poisson_cdf_search(family, theta):
    spec = CopulaSpec(family, theta=theta)
    rng = np.random.default_rng(43)
    m = 400
    u, v, horizon = rng.random(m), rng.random(m), _horizons(rng, m)
    got = conditional_count_quantile(u, v, horizon, PROC, spec)
    lam = PROC.intensity.cumulative(horizon)
    ns = np.arange(int(lam.max() + 10.0 * np.sqrt(lam.max()) + 21))
    hmat = FAMILIES[family].h(u[:, None], stats.poisson.cdf(ns[None, :], lam[:, None]), theta)
    ok = hmat >= v[:, None]
    assert ok.any(axis=1).all()
    assert_array_equal(got, np.argmax(ok, axis=1))


def _zm_reference(zm, seed, n):
    rng = np.random.default_rng(seed)
    out = np.zeros(n, dtype=np.int64)
    pos = rng.random(n) >= zm.p0
    b0 = float(np.exp(zm.base.logpmf(0)))
    u = b0 + rng.random(int(pos.sum())) * (1.0 - b0)
    if isinstance(zm.base, Poisson):
        out[pos] = stats.poisson.ppf(u, zm.base.mu).astype(np.int64)
    else:
        out[pos] = stats.nbinom.ppf(u, zm.base.r, zm.base.p).astype(np.int64)
    return out


@pytest.mark.parametrize(
    "base",
    [
        Poisson(0.3),
        Poisson(3.0),
        Poisson(40.0),
        NegativeBinomial(2.7, 0.3),
        NegativeBinomial(0.45, 0.08),
        NegativeBinomial(1.0, 0.9),
    ],
)
def test_zero_modified_sample_matches_the_stats_quantile(base):
    zm = ZeroModified(base, 0.35)
    got = zm.sample(np.random.default_rng(44), size=40_000)
    assert_array_equal(got, _zm_reference(zm, 44, 40_000))


def test_normal_kernels_match_norm():
    rng = np.random.default_rng(46)
    edges = [-np.inf, -40.0, -0.0, 0.0, 40.0, np.inf, np.nan]
    x = np.concatenate([rng.normal(scale=3.0, size=5_000), edges])
    assert_array_equal(special.ndtr(x), stats.norm.cdf(x))
    q = np.concatenate([rng.random(5_000), [1e-12, 1.0 - 1e-12, 0.5, 1e-300]])
    assert_array_equal(special.ndtri(q), stats.norm.ppf(q))


def test_gaussian_copula_matches_the_norm_formulas():
    rng = np.random.default_rng(47)
    u, v, rho = rng.random(3_000), rng.random(3_000), 0.6
    u[:3], v[:3] = [0.0, 1.0, 1e-13], [1.0, 0.0, 0.5]
    x = stats.norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    y = stats.norm.ppf(np.clip(v, 1e-12, 1.0 - 1e-12))
    s = np.sqrt(1.0 - rho**2)
    interior = (u > 0) & (u < 1) & (v > 0) & (v < 1)
    assert_array_equal(GAUSSIAN.h(u, v, rho)[interior], stats.norm.cdf((y - rho * x) / s)[interior])


def _tied_scores(rng, n, ties):
    a, b = rng.random(n), rng.random(n)
    b = np.clip(0.6 * a + 0.4 * b, 0.0, 1.0)
    if "x" in ties:
        a = np.round(a * 7) / 7
    if "y" in ties:
        b = np.round(b * 5) / 5
    return a, b


@pytest.mark.parametrize("ties", ["", "x", "y", "xy"])
def test_fit_hac_outer_uses_scipy_tau_b(ties):
    inner = CopulaSpec("clayton", theta=9.0)
    rng = np.random.default_rng(48)
    for n in (20, 21, 64, 333):
        a, b = _tied_scores(rng, n, ties)
        tau = float(stats.kendalltau(a, b).statistic)
        fit = fit_hac_outer(a, b, inner, inner, "gumbel")
        assert 0.0 < tau < inner.min_tau()
        assert fit.outer_theta == float(GUMBEL.theta_from_tau(tau))


@pytest.mark.parametrize("ties", ["", "x", "y", "xy"])
def test_kendall_tau_b_matches_kendalltau(ties):
    rng = np.random.default_rng(49)
    for n in (2, 3, 5, 8, 20, 33, 64, 100, 257, 1000, 4099):
        a, b = _tied_scores(rng, n, ties)
        assert kendall_tau_b(a, b) == stats.kendalltau(a, b).statistic
        assert kendall_tau_b(a, -b) == stats.kendalltau(a, -b).statistic
    # constant input has no tau
    assert np.isnan(kendall_tau_b(np.ones(5), np.arange(5.0)))
