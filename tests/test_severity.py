"""Severity models: iid families and the order-autoregressive payment chain."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from granres import (
    ClaimRecord,
    GammaSeverity,
    LogNormalSeverity,
    OrderARSeverity,
    PaymentEvent,
)
from granres.severity import (
    fit_gamma,
    fit_lognormal,
    fit_order_ar,
    fit_severity,
    severity_from_dict,
    simulate_amounts,
)
from helpers import records_portfolio


def test_lognormal_logpdf_matches_scipy():
    m = LogNormalSeverity(1.0, 0.5)
    x = np.array([0.1, 1.0, 5.0, 40.0])
    ref = stats.lognorm(0.5, scale=np.exp(1.0)).logpdf(x)
    assert_allclose(m.logpdf(x), ref, rtol=1e-12)
    assert m.logpdf(0.0) == -np.inf and m.logpdf(-2.0) == -np.inf
    assert_allclose(m.mean(), np.exp(1.0 + 0.125), rtol=1e-14)
    with pytest.raises(ValueError):
        LogNormalSeverity(0.0, 0.0)


def test_gamma_logpdf_matches_scipy():
    m = GammaSeverity(2.0, 3.0)
    x = np.array([0.5, 2.0, 10.0])
    assert_allclose(m.logpdf(x), stats.gamma(2.0, scale=3.0).logpdf(x), rtol=1e-12)
    assert m.logpdf(0.0) == -np.inf
    assert m.mean() == 6.0
    with pytest.raises(ValueError):
        GammaSeverity(-1.0, 2.0)


def test_fit_lognormal_closed_form():
    rng = np.random.default_rng(1)
    x = rng.lognormal(2.0, 0.7, 400)
    fit = fit_lognormal(x)
    logs = np.log(x)
    assert fit.mu == float(np.mean(logs))
    assert fit.sigma == float(np.std(logs))
    assert_allclose(fit.se["mu"], fit.sigma / 20.0, rtol=1e-12)
    assert_allclose(fit.se["sigma"], fit.sigma / np.sqrt(800.0), rtol=1e-12)


def test_fit_gamma_recovers_truth():
    rng = np.random.default_rng(50)
    x = rng.gamma(2.0, 3.0, 5000)
    fit = fit_gamma(x)
    assert abs(fit.shape - 2.0) < 3 * fit.se["shape"]
    assert abs(fit.scale - 3.0) < 3 * fit.se["scale"]


def test_fit_input_guards():
    with pytest.raises(ValueError, match="at least 50 positive"):
        fit_lognormal(np.ones(49) * 2.0)
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.lognormal(1.0, 0.3, 60), [-1.0, 0.0]])
    with pytest.warns(UserWarning, match="dropping 2 non-positive"):
        fit_lognormal(x)
    with pytest.raises(ValueError, match="degenerate"):
        fit_lognormal(np.full(60, 3.0))
    with pytest.raises(ValueError, match="degenerate"):
        fit_gamma(np.full(60, 3.0))


def test_alpha_order_mapping():
    m = OrderARSeverity(LogNormalSeverity(1.0, 0.5), (0.5, 0.3), 0.0)
    rng = np.random.default_rng(0)
    # payment 1 to 2 takes alpha_1, every later order the deepest coefficient
    out = m.continue_flat(np.array([3, 2]), np.array([1, 8]), np.array([100.0, 10.0]), rng)
    assert_allclose(out, [50.0, 15.0, 4.5, 3.0, 0.9], rtol=1e-12)
    with pytest.raises(ValueError, match="at least one"):
        OrderARSeverity(LogNormalSeverity(1.0, 0.5), (), 0.0)


def test_noiseless_chain_is_geometric():
    m = OrderARSeverity(LogNormalSeverity(4.0, 0.3), (0.5,), 0.0)
    chain = simulate_amounts(m, np.array([4]), np.random.default_rng(3))
    assert_allclose(chain[1:], chain[0] * np.array([0.5, 0.25, 0.125]), rtol=1e-12)
    # zero coefficient with zero noise lands on the floor
    z = OrderARSeverity(LogNormalSeverity(4.0, 0.3), (0.0,), 0.0)
    chain = simulate_amounts(z, np.array([3]), np.random.default_rng(3))
    assert_array_equal(chain[1:], [0.01, 0.01])


def test_simulate_flat_is_claim_major():
    m = OrderARSeverity(LogNormalSeverity(2.0, 0.4), (1.0,), 0.0)
    counts = np.array([3, 1, 2])
    flat = simulate_amounts(m, counts, np.random.default_rng(9))
    assert flat.shape == (6,)
    assert_allclose(flat[0:3], flat[0])  # alpha 1, no noise: constant chain
    assert_allclose(flat[4:6], flat[4])
    assert flat[0] != flat[3] and flat[3] != flat[4]
    assert simulate_amounts(m, np.array([0, 0]), np.random.default_rng(9)).size == 0


def test_continue_flat_deterministic_history():
    m = OrderARSeverity(LogNormalSeverity(2.0, 0.4), (0.5,), 0.0)
    out = m.continue_flat(np.array([2]), np.array([1]), np.array([100.0]), np.random.default_rng(0))
    assert_allclose(out, [50.0, 25.0], rtol=1e-12)
    # unreported history: chain restarts from the base distribution
    rng = np.random.default_rng(11)
    fresh = m.continue_flat(np.array([1]), np.array([0]), np.array([0.0]), rng)
    expect = LogNormalSeverity(2.0, 0.4).sample(1, np.random.default_rng(11))
    assert_allclose(fresh, expect)


def test_fit_order_ar_recovers_coefficients():
    truth = OrderARSeverity(LogNormalSeverity(3.0, 0.4), (0.6, 0.4), 2.0)
    rng = np.random.default_rng(27)
    counts = rng.integers(1, 6, 3000)
    fit = fit_order_ar(simulate_amounts(truth, counts, rng), counts, "lognormal")
    assert abs(fit.alphas[0] - 0.6) < 3 * fit.se["alpha_1"]
    assert abs(fit.alphas[1] - 0.4) < 3 * fit.se["alpha_2"]
    assert abs(fit.base.mu - 3.0) < 3 * fit.base.se["mu"]
    assert abs(fit.sigma_eps - 2.0) < 0.2  # floor truncation biases it slightly low


def test_fit_order_ar_pools_sparse_interior_orders():
    rng = np.random.default_rng(60)
    counts = np.repeat([2, 3, 4], [200, 10, 30])
    amounts = np.concatenate([rng.lognormal(3.0, 0.4, n) + 0.1 for n in counts])
    fit = fit_order_ar(amounts, counts, "lognormal")
    assert len(fit.alphas) == 3
    assert fit.alphas[1] == fit.alphas[2]  # orders 2 and 3 share one coefficient
    with pytest.raises(ValueError, match="no multi-payment"):
        fit_order_ar(rng.lognormal(3.0, 0.4, 60), np.ones(60, dtype=int))


def _two_payment_portfolio(n=80, seed=7):
    rng = np.random.default_rng(seed)
    claims = []
    for i in range(n):
        acc = int(rng.integers(0, 300))
        amounts = rng.lognormal(2.0, 0.5, 2)
        claims.append(
            ClaimRecord(
                f"c{i}", "material_damage", acc, acc + 5,
                (PaymentEvent(acc + 30, float(amounts[0])), PaymentEvent(acc + 90, float(amounts[1]))),
            )
        )
    return records_portfolio(claims, 600)


def test_fit_severity_structures():
    sub = _two_payment_portfolio().by_type("material_damage")
    iid = fit_severity(sub, "lognormal", "iid")
    assert isinstance(iid, LogNormalSeverity)
    chain = fit_severity(sub, "lognormal", "order_ar")
    assert isinstance(chain, OrderARSeverity)
    assert len(chain.alphas) == 1  # 80 claims of two payments: one order
    with pytest.raises(ValueError, match="unknown severity structure"):
        fit_severity(sub, "lognormal", "markov")


def test_simulate_amounts_dispatches():
    iid = LogNormalSeverity(1.0, 0.5)
    out = simulate_amounts(iid, np.array([2, 3]), np.random.default_rng(1))
    assert out.shape == (5,) and np.all(out > 0)
    chain = OrderARSeverity(iid, (0.5,), 0.0)
    out = simulate_amounts(chain, np.array([2, 3]), np.random.default_rng(1))
    assert out.shape == (5,) and np.all(out > 0)


def test_severity_dict_round_trips():
    for m in (
        LogNormalSeverity(1.2, 0.4),
        GammaSeverity(2.0, 1.5),
        OrderARSeverity(GammaSeverity(2.0, 1.5), (0.7, 0.2), 1.0),
    ):
        assert severity_from_dict(m.to_dict()) == m
    with pytest.raises(ValueError, match="unknown severity family"):
        severity_from_dict({"family": "pareto"})
