"""Bivariate copula families, generators, and the dependence-decay spec."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats

from granres import CopulaSpec
from granres.copulas import families
from granres.copulas.dynamics import TimeVaryingParam, copula_from_dict
from granres.copulas.families import (
    ARCHIMEDEAN,
    CLAYTON,
    FAMILIES,
    FRANK,
    GAUSSIAN,
    GUMBEL,
    invert_increasing,
)
from helpers import copula_cdf

SPOT = [
    (CLAYTON, 2.0),
    (GUMBEL, 2.5),
    (FRANK, 4.0),
    (FRANK, -3.0),
    (GAUSSIAN, 0.6),
    (GAUSSIAN, -0.4),
]


def test_h_boundary_identities():
    g = np.array([0.15, 0.4, 0.85])
    for fam, th in SPOT:
        assert_array_equal(fam.h(g, np.zeros(3), th), 0.0)
        assert_array_equal(fam.h(g, np.ones(3), th), 1.0)
        assert np.isnan(fam.h(g, np.full(3, np.nan), th)).all()


def test_cdf_closed_form_values():
    # the Archimedean cdf is psi(phi(u) + phi(v)): these pin the generators
    assert_allclose(copula_cdf("clayton", 0.3, 0.7, 2.0), 0.28686490250570257, rtol=1e-13)
    assert_allclose(copula_cdf("gumbel", 0.4, 0.6, 2.0), 0.3502660706959186, rtol=1e-13)
    # hand-checked: (0.3^-2 + 0.7^-2 - 1)^-0.5
    assert_allclose(
        copula_cdf("clayton", 0.3, 0.7, 2.0),
        (0.3**-2 + 0.7**-2 - 1.0) ** -0.5,
        rtol=1e-14,
    )
    assert_allclose(copula_cdf("independence", 0.3, 0.7), 0.21, rtol=1e-14)


def test_h_is_cdf_partial_derivative():
    e = 1e-6
    for fam, th in SPOT:
        for u, v in [(0.3, 0.6), (0.7, 0.2), (0.5, 0.5)]:
            fd = (copula_cdf(fam.name, u + e, v, th) - copula_cdf(fam.name, u - e, v, th)) / (2 * e)
            assert_allclose(fam.h(u, v, th), fd, atol=2e-6)


def test_density_is_h_partial_derivative():
    # the Archimedean density psi''(phi(u) + phi(v)) phi'(u) phi'(v), the
    # mixed derivative hac_sample takes, against dh/dv
    e = 1e-6
    for fam, th in SPOT[:4]:
        for u, v in [(0.3, 0.6), (0.7, 0.2)]:
            fd = (fam.h(u, v + e, th) - fam.h(u, v - e, th)) / (2 * e)
            x = fam.gen(u, th) + fam.gen(v, th)
            density = fam.gen_inv_d2(x, th) * fam.gen_d1(u, th) * fam.gen_d1(v, th)
            assert_allclose(density, fd, atol=5e-5)


def test_hinv_round_trip_all_families():
    # every family with an h-inverse: the Archimedean ones, which nest
    u = np.array([0.2, 0.5, 0.8])
    v = np.array([0.35, 0.6, 0.15])
    for fam, th in SPOT[:4]:
        p = fam.h(u, v, th)
        assert_allclose(fam.hinv(u, p, th), v, atol=1e-7)
    p = GUMBEL.h(0.4, 0.7, 3.0)
    assert_allclose(GUMBEL.hinv(0.4, float(p), 3.0), 0.7, atol=1e-8)


@pytest.mark.parametrize("theta", [1.0 + 1e-12, 1.0 + 1e-6, 1.001, 17.0])
def test_gumbel_hinv_round_trip_near_independence_and_at_the_bound(theta):
    # the Wright omega closed form, near theta = 1 where K / (theta - 1) is
    # large and at the upper bound 17
    rng = np.random.default_rng(17)
    u, v = rng.uniform(0.01, 0.99, 2_000), rng.uniform(0.01, 0.99, 2_000)
    p = GUMBEL.h(u, v, theta)
    back = GUMBEL.h(u, GUMBEL.hinv(u, p, theta), theta)
    assert_allclose(back, np.clip(p, 1e-9, 1.0 - 1e-9), rtol=0, atol=1e-11)  # hinv clips p
    inside = (p > 1e-6) & (p < 1.0 - 1e-6)  # where h is not flat in v
    assert_allclose(GUMBEL.hinv(u, p, theta)[inside], v[inside], rtol=0, atol=1e-9)


def test_gumbel_hinv_at_theta_one_is_the_identity():
    # theta = 1 is independence: h(u, v) = v, so v = p (clipped as h's
    # inverse always clips p), in a row of its own or among other rows
    u = np.array([0.1, 0.5, 0.9, 0.3])
    p = np.array([0.2, 0.7, 1e-12, 0.4])
    theta = np.array([1.0, 1.0, 1.0, 2.0])
    v = GUMBEL.hinv(u, p, theta)
    assert_array_equal(v[:3], [0.2, 0.7, 1e-9])
    assert_allclose(GUMBEL.h(u[3], v[3], 2.0), 0.4, rtol=1e-12)


def test_invert_increasing_refuses_a_nan_target():
    with pytest.raises(ValueError, match="NaN target"):
        invert_increasing(lambda x: x, np.array([0.5, np.nan]), 0.0, 1.0)


def test_invert_increasing_raises_on_rows_open_at_its_step_cap(monkeypatch):
    # x^3 = 0.3 takes 7 steps from [0, 1]; the target below f(0) takes 0 at once
    monkeypatch.setattr(families, "_MAX_STEPS", 6)
    with pytest.raises(ValueError, match="1 of 2 rows still open after 6 steps"):
        invert_increasing(lambda x: x**3, np.array([-1.0, 0.3]), 0.0, 1.0)
    monkeypatch.setattr(families, "_MAX_STEPS", 7)
    x = invert_increasing(lambda x: x**3, np.array([-1.0, 0.3]), 0.0, 1.0)
    assert x[0] == 0.0 and abs(x[1] ** 3 - 0.3) < 1e-15


def test_kendall_tau_closed_forms():
    assert CLAYTON.tau(2.0) == 0.5
    assert GUMBEL.tau(2.0) == 0.5
    assert_allclose(FRANK.tau(5.0), 0.4567009581601169, rtol=1e-12)
    assert_allclose(FRANK.tau(-3.0), -0.3072469594307238, rtol=1e-12)
    assert_allclose(FRANK.tau(2.0), 0.21389456921962013, rtol=1e-12)
    # cross-check against a direct Debye-style integral
    d1 = integrate.quad(lambda x: x / np.expm1(x), 0.0, 5.0)[0] / 5.0
    assert_allclose(FRANK.tau(5.0), 1.0 + 4.0 * (d1 - 1.0) / 5.0, rtol=1e-12)


def test_theta_from_tau_inverts_tau():
    for name, tau in [("clayton", 0.4), ("gumbel", 0.4), ("frank", 0.4)]:
        fam = FAMILIES[name]
        assert_allclose(fam.tau(fam.theta_from_tau(tau)), tau, atol=1e-9)
    assert CLAYTON.theta_from_tau(0.5) == 2.0
    assert GUMBEL.theta_from_tau(0.5) == 2.0


def test_samples_match_target_tau():
    frank5 = FRANK.tau(5.0)
    for fam, th, target in [
        (CLAYTON, 2.0, 0.5),
        (GUMBEL, 2.0, 0.5),
        (FRANK, 5.0, frank5),
    ]:
        rng = np.random.default_rng(41)
        u = rng.random(4000)
        v = fam.hinv(u, rng.random(4000), th)
        assert np.all((u > 0) & (u < 1) & (v > 0) & (v < 1))
        assert abs(stats.kendalltau(u, v).statistic - target) < 0.03


def test_frank_is_continuous_through_zero():
    assert_allclose(copula_cdf("frank", 0.3, 0.7, 1e-7), 0.21, atol=1e-6)
    assert_allclose(FRANK.hinv(0.4, 0.55, 1e-7), 0.55, atol=1e-5)


def _frank_tau_series(theta):
    """Kendall's tau of Frank's copula by the Taylor series of
    1 + 4 (D1(theta) - 1) / theta: 4 sum_k B_2k theta^(2k-1) / ((2k + 1) (2k)!),
    four terms, exact in double precision for |theta| <= 1e-4."""
    b = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)
    return sum(
        4.0 * bk * theta ** (2 * k - 1) / ((2 * k + 1) * math.factorial(2 * k))
        for k, bk in enumerate(b, start=1)
    )


@pytest.mark.parametrize("theta", [1e-10, 1e-8, 1e-6, 1e-4])
def test_frank_tau_at_small_theta(theta):
    # the quadrature's difference cancels here: at 1e-8 it gave -3.8e-8
    for t in (theta, -theta):
        tau = FRANK.tau(t)
        assert np.sign(tau) == np.sign(t)
        assert_allclose(tau, _frank_tau_series(t), rtol=1e-14)


def test_frank_tau_is_continuous_between_its_branches():
    # the series below |theta| 0.05 meets the quadrature above it
    for edge in (0.05, -0.05):
        below = FRANK.tau(np.nextafter(edge, 0.0))
        assert_allclose(below, FRANK.tau(edge), rtol=1e-12)
        assert_allclose(FRANK.tau(edge), _frank_tau_series(edge), rtol=1e-12)


def test_generator_identities():
    t = np.array([0.1, 0.35, 0.6, 0.9])
    u, v = 0.3, 0.65
    for name, th in [("clayton", 2.0), ("gumbel", 2.5), ("frank", 4.0)]:
        fam = FAMILIES[name]
        assert name in ARCHIMEDEAN
        assert_allclose(fam.gen_inv(fam.gen(t, th), th), t, rtol=1e-10)
        # the closed-form h is dC/du = psi'(phi(u) + phi(v)) phi'(u)
        x = fam.gen(u, th) + fam.gen(v, th)
        assert_allclose(fam.h(u, v, th), fam.gen_inv_d1(x, th) * fam.gen_d1(u, th), rtol=1e-10)
        e = 1e-6
        fd = (fam.gen(t + e, th) - fam.gen(t - e, th)) / (2 * e)
        assert_allclose(fam.gen_d1(t, th), fd, rtol=1e-6)
        fd = (fam.gen_d1(t + e, th) - fam.gen_d1(t - e, th)) / (2 * e)
        assert_allclose(fam.gen_d2(t, th), fd, rtol=1e-5)
        x = np.array([0.2, 0.8, 1.5, 3.0])
        fd = (fam.gen_inv(x + e, th) - fam.gen_inv(x - e, th)) / (2 * e)
        assert_allclose(fam.gen_inv_d1(x, th), fd, rtol=1e-6)
        fd = (fam.gen_inv_d1(x + e, th) - fam.gen_inv_d1(x - e, th)) / (2 * e)
        assert_allclose(fam.gen_inv_d2(x, th), fd, rtol=1e-5)
        fd = (fam.gen_inv_d2(x + e, th) - fam.gen_inv_d2(x - e, th)) / (2 * e)
        assert_allclose(fam.gen_inv_d3(x, th), fd, rtol=1e-4)


def test_copula_spec_validation():
    with pytest.raises(ValueError, match="unknown copula family"):
        CopulaSpec("vine", theta=1.0)
    with pytest.raises(ValueError, match="no parameter"):
        CopulaSpec("independence", theta=1.0)
    with pytest.raises(ValueError, match="exactly one"):
        CopulaSpec("clayton", theta=2.0, dynamics=TimeVaryingParam(1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="exactly one"):
        CopulaSpec("clayton")
    with pytest.raises(ValueError, match="outside"):
        CopulaSpec("clayton", theta=40.0)
    with pytest.raises(ValueError, match="outside"):
        CopulaSpec("gumbel", dynamics=TimeVaryingParam(4.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="kappa"):
        TimeVaryingParam(1.0, 0.0, -0.5)
    with pytest.raises(ValueError, match=">= long-run"):
        TimeVaryingParam(0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="finite"):
        TimeVaryingParam(np.inf, 0.0, 0.5)


def test_spec_parameter_decay():
    dyn = TimeVaryingParam(np.log(4.0), 0.0, 0.7)
    spec = CopulaSpec("clayton", dynamics=dyn)
    assert_allclose(spec.theta_at(0.0), 4.0, rtol=1e-12)
    assert_allclose(spec.theta_at(1.0), np.exp(np.log(4.0) * np.exp(-0.7)), rtol=1e-12)
    assert_allclose(spec.min_tau(), 1.0 / 3.0, rtol=1e-12)
    xs = np.linspace(0.0, 10.0, 40)
    assert np.all(np.diff(spec.theta_at(xs)) < 0)

    static = CopulaSpec("gumbel", theta=2.0)
    assert_allclose(static.theta_at(np.array([0.0, 3.0])), 2.0)
    assert static.min_tau() == 0.5

    indep = CopulaSpec("independence")
    assert indep.min_tau() == 0.0
    assert_allclose(indep.theta_at(np.array([0.0, 1.0])), 0.0)


def test_spec_dict_round_trips():
    for spec in (
        CopulaSpec("independence"),
        CopulaSpec("frank", theta=-2.5),
        CopulaSpec("clayton", dynamics=TimeVaryingParam(1.2, 0.1, 0.8)),
    ):
        assert copula_from_dict(spec.to_dict()) == spec
