"""Payment-count process: decaying intensities, Poisson counts, placement, fits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from granres import CountProcess, ExponentialDecay, PowerDecay
from granres.daycount import DAYS_PER_YEAR
from granres.payments import fit_intensity, intensity_from_dict
from granres.reserving import _place_payments

from helpers import intensity_rate, payment_taus


def test_cumulative_intensity_closed_forms():
    assert_allclose(PowerDecay(3.0, 2.5).cumulative(1.0), 1.2928932188134525, rtol=1e-15)
    assert_allclose(ExponentialDecay(3.0, 1.2).cumulative(2.0), 2.273205116776469, rtol=1e-15)
    assert_allclose(ExponentialDecay(2.0, 0.5).cumulative(np.inf), 4.0)
    assert_allclose(PowerDecay(2.0, 3.0).cumulative(np.inf), 1.0)
    # rate is the derivative of the cumulative
    for inten in (ExponentialDecay(3.0, 1.2), PowerDecay(3.0, 2.5)):
        h = 1e-6
        fd = (inten.cumulative(0.8 + h) - inten.cumulative(0.8 - h)) / (2 * h)
        assert_allclose(fd, intensity_rate(inten, 0.8), rtol=1e-8)


def test_cumulative_inverse_round_trip():
    for inten in (ExponentialDecay(3.0, 1.2), PowerDecay(3.0, 2.5)):
        x = np.linspace(0.01, 0.95, 25) * inten.cumulative(np.inf)
        assert_allclose(inten.cumulative(inten.cumulative_inv(x)), x, rtol=1e-12)


def test_intensity_validation():
    with pytest.raises(ValueError):
        ExponentialDecay(0.0, 1.0)
    with pytest.raises(ValueError):
        ExponentialDecay(1.0, 0.0)
    with pytest.raises(ValueError):
        PowerDecay(1.0, 1.0)
    with pytest.raises(ValueError, match="unknown intensity family"):
        intensity_from_dict({"family": "gamma", "lam0": 1.0, "beta": 2.0})
    for inten in (ExponentialDecay(1.5, 0.7), PowerDecay(1.5, 1.7)):
        assert intensity_from_dict(inten.to_dict()) == inten


def test_count_pmf_normalizes_and_cdf_matches():
    # the count law is Poisson at Lambda(tau): its pmf, from scipy.stats,
    # accumulates to count_cdf
    proc = CountProcess(ExponentialDecay(3.0, 1.2))
    n = np.arange(0, 60)
    pmf = stats.poisson.pmf(n, proc.intensity.cumulative(1.7))
    assert_allclose(pmf.sum(), 1.0, atol=1e-12)
    assert_allclose(np.cumsum(pmf), proc.count_cdf(1.7, n), atol=1e-12)
    assert proc.count_cdf(1.7, -1) == 0.0
    # no time, no payments: all the mass sits at 0
    assert proc.count_cdf(0.0, 0) == 1.0
    assert proc.count_cdf(0.0, 3) == 1.0


def test_count_cdf_time_derivative_matches_finite_differences():
    for proc in (CountProcess(ExponentialDecay(3.0, 1.2)), CountProcess(PowerDecay(3.0, 2.5))):
        tau, h = 1.3, 1e-5
        for n in (0, 2, 4, 9):
            fd = (proc.count_cdf(tau + h, n) - proc.count_cdf(tau - h, n)) / (2 * h)
            # dQ_tau(n)/dtau = -rate(tau) * P[N(tau) = n]
            pmf = stats.poisson.pmf(n, proc.intensity.cumulative(tau))
            exact = -intensity_rate(proc.intensity, tau) * pmf
            assert_allclose(exact, fd, atol=1e-9)
            assert fd <= 0.0


def test_placed_payments_have_poisson_counts():
    inten = ExponentialDecay(2.0, 1.0)
    rng = np.random.default_rng(101)
    taus, hz = payment_taus(inten, np.full(2000, 3.0), rng)
    year = 365 / DAYS_PER_YEAR
    # the count by any claim time tau is Poisson at Lambda(tau)
    for tau, seen in ((hz[0], taus.size), (year, np.sum(taus <= year))):
        mu = float(inten.cumulative(tau))
        z = (seen / hz.size - mu) / np.sqrt(mu / hz.size)
        assert abs(z) < 4.0


def test_placed_payments_respect_window():
    # IBNR geometry: claims reported in (a, b] pay on (r, b], times on (0, h]
    proc = CountProcess(ExponentialDecay(2.0, 1.0))
    a, b = 365, 1095
    r = np.array([366, 500, 800, 1094, 1095], dtype=np.int64)
    lam_hi = proc.intensity.cumulative((b - r) / DAYS_PER_YEAR)
    rng = np.random.default_rng(5)
    n = rng.poisson(50.0 * lam_hi)
    n[-2] = 3  # one day left: every payment lands on b
    assert np.all(n[:-1] > 0) and n[-1] == 0  # reported on b: no time left
    idx, days = _place_payments(proc.intensity, n, r, lam_hi, b, rng.random(n.sum()))
    assert np.array_equal(idx, np.repeat(np.arange(r.size), n))
    assert np.all((days > r[idx]) & (days <= b))
    taus = (days - r[idx]) / DAYS_PER_YEAR
    assert np.all(taus <= ((b - r) / DAYS_PER_YEAR)[idx])
    for i in range(r.size):
        assert np.all(np.diff(days[idx == i]) >= 0)  # claim-major, sorted
    assert np.all(days[idx == r.size - 2] == b)
    none = _place_payments(proc.intensity, np.zeros(5, dtype=int), r, lam_hi, b, np.empty(0))
    assert none[0].size == 0 and none[1].size == 0
    # times at the interval's lower edge still land after the reporting day
    _, edge = _place_payments(
        proc.intensity, np.ones(4, dtype=int), r[:-1], np.zeros(4), b, rng.random(4)
    )
    assert np.all(edge == r[:-1] + 1)


def test_stored_factor_draw_is_numpys_svd_draw():
    """CountProcess factors its covariance once and redraws from the factor:
    bit for bit rng.multivariate_normal(estimate, cov, method="svd")."""
    rs = np.random.default_rng(0)
    for law in (ExponentialDecay(2.5, 1.1), PowerDecay(3.0, 2.5)):
        for _ in range(10):
            a = rs.normal(size=(2, 2)) * rs.uniform(1e-3, 0.1, size=2)
            cov = a @ a.T
            proc = CountProcess(law, cov=tuple(map(tuple, cov.tolist())))
            for seed in range(40):
                got = proc.perturbed(np.random.default_rng(seed)).intensity
                want = np.random.default_rng(seed).multivariate_normal(
                    [law.lam0, law.beta], cov, method="svd"
                )
                assert [got.lam0, got.beta] == want.tolist()


def test_covariance_that_is_not_psd_is_refused():
    d = CountProcess(ExponentialDecay(2.5, 1.1)).to_dict()
    d["cov"] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(ValueError, match=r"ExponentialDecay \(lam0, beta\) covariance is not"):
        CountProcess.from_dict(d)


def test_exponential_fit_recovers_truth():
    truth = ExponentialDecay(3.0, 2.0)
    rng = np.random.default_rng(17)
    taus, hz = payment_taus(truth, rng.uniform(0.5, 6.0, 5000), rng)
    fit, _ = fit_intensity(taus, hz, "exponential")
    assert abs(fit.intensity.lam0 - 3.0) < 3 * fit.se["lam0"]
    assert abs(fit.intensity.beta - 2.0) < 3 * fit.se["beta"]
    assert len(fit.cov) == 2 and np.all(np.isfinite(fit.cov))


def test_power_fit_recovers_truth():
    truth = PowerDecay(3.0, 2.2)
    rng = np.random.default_rng(19)
    taus, hz = payment_taus(truth, rng.uniform(0.5, 6.0, 5000), rng)
    fit, _ = fit_intensity(taus, hz, "power")
    assert abs(fit.intensity.lam0 - 3.0) < 3 * fit.se["lam0"]
    assert abs(fit.intensity.beta - 2.2) < 3 * fit.se["beta"]


def test_longer_empty_exposure_lowers_expected_total():
    # same events, doubled horizons: the fit must expect fewer future payments
    for fam, truth in (
        ("exponential", ExponentialDecay(3.0, 2.0)),
        ("power", PowerDecay(3.0, 2.2)),
    ):
        rng = np.random.default_rng(23)
        taus, hz = payment_taus(truth, np.full(800, 2.0), rng)
        short, _ = fit_intensity(taus, hz, fam)
        long, _ = fit_intensity(taus, hz * 2.0, fam)
        assert long.intensity.cumulative(np.inf) < short.intensity.cumulative(np.inf)


def test_fit_intensity_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        fit_intensity([0.5], [-1.0])
    with pytest.raises(ValueError, match="no payment events"):
        fit_intensity([], [1.0, 2.0])
    with pytest.raises(ValueError, match="zero total exposure"):
        fit_intensity([0.0], [0.0])
    with pytest.raises(ValueError, match="unknown intensity family"):
        fit_intensity([0.5], [1.0], "weibull")


def test_fit_at_bound_warns_and_flags_se():
    with pytest.warns(UserWarning, match="parameter bound"):
        fit, _ = fit_intensity([1e-6] * 5, [10.0] * 5, "exponential")
    assert np.isnan(fit.se["lam0"]) and np.isnan(fit.se["beta"])
    assert fit.cov == ()


def test_count_process_dict_round_trip():
    cp = CountProcess(
        ExponentialDecay(2.5, 1.1),
        {"lam0": 0.1, "beta": 0.05},
        ((0.01, 0.001), (0.001, 0.0025)),
    )
    assert CountProcess.from_dict(cp.to_dict()) == cp
