"""Closed-form scores of the reporting-delay and payment-intensity likelihoods.

Each objective returns (negative log-likelihood, gradient). The value is
checked against the likelihood written from the Weibull survival or the
intensity's rate and cumulative, and the gradient against central
differences of that value. The standard errors read off the gradient are
checked against the function-difference path.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from granres import ExponentialDecay, PowerDecay, WeibullDelayModel
from granres.daycount import years_since_epoch
from granres.delays import _interval_nll_score
from granres.fitutil import standard_errors
from granres.payments import _intensity_nll_score, fit_intensity

from helpers import intensity_rate, payment_taus


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
    cov_g, se_g = standard_errors(nll, x, names, jac=True)
    cov_f, se_f = standard_errors(lambda y: nll(y)[0], x, names)
    assert se_g == fit.se
    assert_allclose(cov_g, cov_f, rtol=1e-5)
    assert_allclose([se_g[n] for n in names], [se_f[n] for n in names], rtol=1e-6)
