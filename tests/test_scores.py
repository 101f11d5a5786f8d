"""Closed-form scores of the reporting-delay, payment-intensity, delay/count
copula, day-gap count and gamma likelihoods.

Each objective returns (negative log-likelihood, gradient). The value is
checked against the likelihood written from the Weibull survival, the
intensity's rate and cumulative, the copula's h-function bracket, the count
laws' logpmf or the gamma logpdf, and the gradient against central
differences of that value. The standard errors read off the gradient are
checked against a function-difference Hessian.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from granres import (
    CopulaSpec,
    CountProcess,
    ExponentialDecay,
    NegativeBinomial,
    Poisson,
    PowerDecay,
    WeibullDelayModel,
)
from granres.copulas.families import FAMILIES
from granres.copulas.mixed import _bracket_score, _tv_nll_score, conditional_count_quantile
from granres.daycount import years_since_epoch
from granres.delays import _interval_nll_score
from granres.fitutil import standard_errors
from granres.frequency import _gap_stats, _negbin_nll_score
from granres.payments import _intensity_nll_score, fit_intensity
from granres.severity import GammaSeverity, _gamma_nll_score

from helpers import function_difference_hessian, intensity_rate, payment_taus


def _central_difference(f, x, rel=1e-6):
    x = np.asarray(x, dtype=float)
    h = rel * np.maximum(1.0, np.abs(x))
    return np.array([(f(x + e) - f(x - e)) / (2.0 * hi) for hi, e in zip(h, np.diag(h))])


def _day_censored_delays(seed, truth, n=3000, first_day=5844, days=1096):
    """Accident days from first_day (2016-01-01) on, and whole-day delays."""
    rng = np.random.default_rng(seed)
    t_days = rng.integers(first_day, first_day + days, n).astype(float)
    w = np.floor(truth.quantile(t_days, rng.random(n)))
    return t_days, w


def _delay_objective(t_days, w):
    t_years = years_since_epoch(t_days)
    log_w = np.log(w, out=np.full_like(w, -np.inf), where=w > 0)
    return lambda x: _interval_nll_score(x, t_years, log_w, np.log1p(w))


# (truth drawing the delays, parameter point): c1 free, c1 fixed (a single
# accident year's two parameters), a scale under two days where many delays
# are zero days, and a shape so steep that the long delays' masses hit the
# floor
DELAY_CASES = {
    "trend": (WeibullDelayModel(1.3, 3.0, -0.05), [1.1, 3.3, -0.02]),
    "no_trend": (WeibullDelayModel(1.3, 3.0, 0.0), [1.5, 2.8]),
    "zero_days": (WeibullDelayModel(0.9, 0.4, -0.01), [0.8, 0.6, -0.03]),
    "floored": (WeibullDelayModel(1.3, 3.0, -0.05), [25.0, math.log(8.0), -0.01]),
}


@pytest.mark.parametrize("case", sorted(DELAY_CASES))
def test_delay_score_matches_central_differences(case):
    truth, x = DELAY_CASES[case]
    t_days, w = _day_censored_delays(7, truth)
    nll = _delay_objective(t_days, w)
    value, grad = nll(x)
    # the value is the interval likelihood written from the Weibull survival
    # exp(-z), z = (w / scale)^shape: the mass exp(-z_lo) - exp(-z_hi), taken
    # as exp(-z_lo) * (1 - exp(z_lo - z_hi)) so that it keeps its digits where
    # both z are small
    scale = WeibullDelayModel(x[0], x[1], x[2] if len(x) > 2 else 0.0).scale(t_days)
    z_lo, z_hi = (w / scale) ** x[0], ((w + 1.0) / scale) ** x[0]
    mass = np.exp(-z_lo) * -np.expm1(z_lo - z_hi)
    assert_allclose(value, -np.sum(np.log(np.maximum(mass, 1e-300))), rtol=1e-11)
    if case == "zero_days":
        assert np.mean(w == 0) > 0.25
    if case == "floored":
        assert np.sum(mass < 1e-300) > 100
    assert grad.shape == (len(x),) and np.all(np.isfinite(grad))
    fd = _central_difference(lambda y: nll(y)[0], x)
    assert_allclose(grad, fd, rtol=1e-6)


@pytest.mark.parametrize(
    "truth, x",
    [(ExponentialDecay(3.0, 2.0), [2.5, 1.5]), (PowerDecay(3.0, 2.2), [2.5, 2.6])],
    ids=["exponential", "power"],
)
def test_intensity_score_matches_central_differences(truth, x):
    rng = np.random.default_rng(13)
    taus, hz = payment_taus(truth, rng.uniform(0.5, 6.0, 2000), rng)
    power = isinstance(truth, PowerDecay)
    stat = np.sum(np.log1p(taus)) if power else np.sum(taus)
    nll = lambda y: _intensity_nll_score(
        y, taus.size, stat, np.log1p(hz) if power else hz, power
    )
    value, grad = nll(x)
    # the value is sum(log rate(tau)) - sum(Lambda(horizon)), negated
    inten = type(truth)(*x)
    direct = np.sum(np.log(intensity_rate(inten, taus))) - np.sum(inten.cumulative(hz))
    assert_allclose(value, -direct, rtol=1e-11)
    fd = _central_difference(lambda y: nll(y)[0], x)
    assert_allclose(grad, fd, rtol=1e-6)


def test_gradient_standard_errors_match_the_function_difference_path():
    rng = np.random.default_rng(17)
    taus, hz = payment_taus(ExponentialDecay(3.0, 2.0), rng.uniform(0.5, 6.0, 5000), rng)
    fit, _ = fit_intensity(taus, hz, "exponential")
    x = [fit.intensity.lam0, fit.intensity.beta]
    nll = lambda y: _intensity_nll_score(y, taus.size, np.sum(taus), hz, False)
    names = ("lam0", "beta")
    cov_g, se_g = standard_errors(nll, x, names)
    cov_f = np.linalg.inv(function_difference_hessian(lambda y: nll(y)[0], x))
    assert se_g == fit.se
    assert_allclose(cov_g, cov_f, rtol=1e-5)
    assert_allclose([se_g[n] for n in names], np.sqrt(np.diag(cov_f)), rtol=1e-6)


def _negbin_gaps(truncated):
    """2,000 gaps drawn from NegativeBinomial(2, 0.4), mu 3 and alpha 0.5;
    truncated keeps the positive ones."""
    obs = NegativeBinomial(2.0, 0.4).sample(np.random.default_rng(19), 2000)
    return obs[obs > 0] if truncated else obs


# alpha * mu = 2.6e-5 takes the series branch of the alpha-score
@pytest.mark.parametrize("alpha", [0.7, 1e-5], ids=["inside", "series"])
@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "truncated"])
def test_negbin_score_matches_central_differences(truncated, alpha):
    obs = _negbin_gaps(truncated)
    nll = lambda y: _negbin_nll_score(y, _gap_stats(obs), truncated)
    x = [2.6, alpha]
    value, grad = nll(x)
    # the value is the logpmf of NegativeBinomial(1 / alpha, 1 / (1 + alpha mu)),
    # checked at a moderate size: at r = 1e5, lgamma(k + r) - lgamma(r) in
    # logpmf loses its last digits
    if alpha == 0.7:
        law = NegativeBinomial(1.0 / alpha, 1.0 / (1.0 + x[0] * alpha))
        direct = np.sum(law.logpmf(obs))
        if truncated:
            direct -= obs.size * np.log1p(-np.exp(law.logpmf(0)))
        assert_allclose(value, -direct, rtol=1e-12)
    fd = _central_difference(lambda y: nll(y)[0], x)
    assert_allclose(grad, fd, rtol=1e-6)


@pytest.mark.parametrize("truncated", [False, True], ids=["poisson", "zero_truncated_poisson"])
def test_negbin_score_at_the_poisson_edge(truncated):
    # alpha = 0 is the Poisson (zero-truncated, the zero-truncated Poisson
    # fit's objective); the alpha-score is the one-sided derivative there
    obs = _negbin_gaps(truncated)
    nll = lambda y: _negbin_nll_score(y, _gap_stats(obs), truncated)
    mu = 2.6
    value, grad = nll([mu, 0.0])
    law = Poisson(mu)
    direct = np.sum(law.logpmf(obs)) - (obs.size * np.log1p(-np.exp(-mu)) if truncated else 0)
    assert_allclose(value, -direct, rtol=1e-12)
    h = 1e-6
    d_mu = (nll([mu + h, 0.0])[0] - nll([mu - h, 0.0])[0]) / (2.0 * h)
    assert_allclose(grad[0], d_mu, rtol=1e-6)
    h = 1e-7
    d_alpha = (nll([mu, h])[0] - value) / h
    assert_allclose(grad[1], d_alpha, rtol=1e-5)


def test_gamma_score_matches_central_differences():
    x = np.random.default_rng(29).gamma(2.0, 3.0, 3000)
    params = [1.8, 3.4]
    value, grad = _gamma_nll_score(params, x)
    assert value == -np.sum(GammaSeverity(*params).logpdf(x))
    fd = _central_difference(lambda y: _gamma_nll_score(y, x)[0], params)
    assert_allclose(grad, fd, rtol=1e-6)


PROC = CountProcess(ExponentialDecay(3.0, 1.2))


def _copula_data(spec, seed, m=2000):
    """Delay scores, horizons and count brackets of pairs coupled by spec.

    u is clipped to [1e-9, 1 - 1e-9] as fit_copula clips it. The first five
    pairs have horizon 0, so q_hi = 1 and q_lo = 0 there.
    """
    rng = np.random.default_rng(seed)
    u = np.clip(rng.random(m), 1e-9, 1.0 - 1e-9)
    horizon = rng.uniform(0.5, 3.0, m)
    horizon[:5] = 0.0
    n = conditional_count_quantile(u, rng.random(m), horizon, PROC, spec)
    return u, horizon, PROC.count_cdf(horizon, n), PROC.count_cdf(horizon, n - 1)


def _bracket_nll(fam, u, q_hi, q_lo, theta):
    """-sum log of the fam.h bracket, floored at 1e-300."""
    bracket = fam.h(u, q_hi, theta) - fam.h(u, q_lo, theta)
    return -np.sum(np.log(np.clip(bracket, 1e-300, None)))


# (family, theta drawing the pairs, theta the score is evaluated at)
STATIC_CASES = {
    "clayton": ("clayton", 2.0, 2.4),
    "gumbel": ("gumbel", 2.0, 1.7),
    "frank": ("frank", 5.0, 6.0),
    "frank_negative": ("frank", -5.0, -4.0),
    "gaussian": ("gaussian", 0.5, 0.6),
    "gaussian_negative": ("gaussian", -0.5, -0.4),
}


@pytest.mark.parametrize("case", sorted(STATIC_CASES))
def test_copula_score_matches_central_differences(case):
    name, truth, theta = STATIC_CASES[case]
    fam = FAMILIES[name]
    u, _, q_hi, q_lo = _copula_data(CopulaSpec(name, theta=truth), 21)
    assert np.all(q_hi[:5] == 1.0) and np.all(q_lo[:5] == 0.0)
    score = _bracket_score(fam, u, q_hi, q_lo)
    value, grad = score(theta)
    assert value == _bracket_nll(fam, u, q_hi, q_lo, theta)
    assert grad.shape == u.shape and np.all(np.isfinite(grad))
    assert np.all(grad[:5] == 0.0)
    fd = _central_difference(lambda y: score(y[0])[0], [theta])
    assert_allclose(grad.sum(), fd[0], rtol=1e-6)


def test_copula_score_skips_floored_brackets():
    # at the 1e-9 clip of u, Clayton's h(u, q) rounds to 1 for any count
    # cdf well inside (0, 1): those brackets are 0 and sit on the floor
    fam = FAMILIES["clayton"]
    u, _, q_hi, q_lo = _copula_data(CopulaSpec("clayton", theta=2.0), 22)
    u[5:205] = 1e-9
    score = _bracket_score(fam, u, q_hi, q_lo)
    value, grad = score(2.4)
    floored = fam.h(u, q_hi, 2.4) - fam.h(u, q_lo, 2.4) <= 1e-300
    assert np.sum(floored) > 100 and np.all(grad[floored] == 0.0)
    assert value == _bracket_nll(fam, u, q_hi, q_lo, 2.4)
    fd = _central_difference(lambda y: score(y[0])[0], [2.4])
    assert_allclose(grad.sum(), fd[0], rtol=1e-6)


# (family, theta drawing the pairs, (eta_inf, delta, kappa) with eta0 inside
# the family's upper link bound, the same past it by 0.1: the penalty branch)
TV_CASES = {
    "clayton": ("clayton", 2.0, [math.log(1.5), 0.6, 0.8]),
    "gumbel": ("gumbel", 2.0, [math.log(0.7), 0.5, 1.2]),
    "frank": ("frank", 5.0, [4.0, 2.0, 0.7]),
    "gaussian": ("gaussian", -0.5, [-0.6, 0.3, 1.5]),
}


@pytest.mark.parametrize("capped", [False, True], ids=["inside", "penalty"])
@pytest.mark.parametrize("case", sorted(TV_CASES))
def test_time_varying_copula_score_matches_central_differences(case, capped):
    name, truth, x = TV_CASES[case]
    fam = FAMILIES[name]
    link_hi = float(fam.link(fam.theta_bounds[1]))
    if capped:  # eta0 held at link_hi; a fast decay keeps theta moderate
        x = [x[0], link_hi + 0.1 - x[0], 5.0]
    u, horizon, q_hi, q_lo = _copula_data(CopulaSpec(name, theta=truth), 23)
    score = _bracket_score(fam, u, q_hi, q_lo)
    nll = lambda y: _tv_nll_score(y, score, fam, horizon, link_hi)
    value, grad = nll(np.array(x))
    eta0 = min(x[0] + x[1], link_hi)
    theta = fam.link_inv(x[0] + (eta0 - x[0]) * np.exp(-x[2] * horizon))
    pen = 1e5 * (x[0] + x[1] - link_hi) ** 2 if capped else 0.0
    assert value == _bracket_nll(fam, u, q_hi, q_lo, theta) + pen
    assert grad.shape == (3,) and np.all(np.isfinite(grad))
    fd = _central_difference(lambda y: nll(y)[0], x)
    assert_allclose(grad, fd, rtol=1e-6)
