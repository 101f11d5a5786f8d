"""Bivariate copula families, generators, and the dependence-decay spec."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats

from granres import CopulaSpec
from granres.copulas.dynamics import TimeVaryingParam, copula_from_dict, static_from_tau
from granres.copulas.families import (
    ARCHIMEDEAN,
    CLAYTON,
    FRANK,
    GAUSSIAN,
    GUMBEL,
    INDEPENDENCE,
    bvn_cdf,
    family,
)

SPOT = [
    (INDEPENDENCE, None),
    (CLAYTON, 2.0),
    (GUMBEL, 2.5),
    (FRANK, 4.0),
    (FRANK, -3.0),
    (GAUSSIAN, 0.6),
    (GAUSSIAN, -0.4),
]


def test_cdf_boundary_identities():
    g = np.array([0.15, 0.4, 0.85])
    for fam, th in SPOT:
        assert_allclose(fam.cdf(g, np.zeros(3), th), 0.0, atol=1e-12)
        assert_allclose(fam.cdf(np.zeros(3), g, th), 0.0, atol=1e-12)
        assert_allclose(fam.cdf(g, np.ones(3), th), g, atol=1e-12)
        assert_allclose(fam.cdf(np.ones(3), g, th), g, atol=1e-12)
        assert_array_equal(fam.h(g, np.zeros(3), th), 0.0)
        assert_array_equal(fam.h(g, np.ones(3), th), 1.0)
        nan = np.full(3, np.nan)
        assert np.isnan(fam.cdf(nan, g, th)).all()
        assert np.isnan(fam.cdf(g, nan, th)).all()
        assert np.isnan(fam.h(g, nan, th)).all()


def test_cdf_closed_form_values():
    assert_allclose(CLAYTON.cdf(0.3, 0.7, 2.0), 0.28686490250570257, rtol=1e-13)
    assert_allclose(GUMBEL.cdf(0.4, 0.6, 2.0), 0.3502660706959186, rtol=1e-13)
    # hand-checked: (0.3^-2 + 0.7^-2 - 1)^-0.5
    assert_allclose(
        CLAYTON.cdf(0.3, 0.7, 2.0),
        (0.3**-2 + 0.7**-2 - 1.0) ** -0.5,
        rtol=1e-14,
    )
    assert_allclose(INDEPENDENCE.cdf(0.3, 0.7), 0.21, rtol=1e-14)


def test_h_is_cdf_partial_derivative():
    e = 1e-6
    for fam, th in SPOT:
        for u, v in [(0.3, 0.6), (0.7, 0.2), (0.5, 0.5)]:
            fd = (fam.cdf(u + e, v, th) - fam.cdf(u - e, v, th)) / (2 * e)
            assert_allclose(fam.h(u, v, th), fd, atol=2e-6)


def test_density_is_h_partial_derivative():
    e = 1e-6
    for fam, th in SPOT:
        for u, v in [(0.3, 0.6), (0.7, 0.2)]:
            fd = (fam.h(u, v + e, th) - fam.h(u, v - e, th)) / (2 * e)
            assert_allclose(fam.density(u, v, th), fd, atol=5e-5)


def test_hinv_round_trip_all_families():
    u = np.array([0.2, 0.5, 0.8])
    v = np.array([0.35, 0.6, 0.15])
    for fam, th in SPOT:
        p = fam.h(u, v, th)
        assert_allclose(fam.hinv(u, p, th), v, atol=1e-7)
    # scalar path of the numeric inverse (no closed form for this family)
    p = GUMBEL.h(0.4, 0.7, 3.0)
    assert_allclose(GUMBEL.hinv(0.4, float(p), 3.0), 0.7, atol=1e-8)


def test_kendall_tau_closed_forms():
    assert CLAYTON.tau(2.0) == 0.5
    assert GUMBEL.tau(2.0) == 0.5
    assert_allclose(GAUSSIAN.tau(0.5), 1.0 / 3.0, rtol=1e-14)
    assert INDEPENDENCE.tau() == 0.0
    assert_allclose(FRANK.tau(5.0), 0.4567009581601169, rtol=1e-12)
    assert_allclose(FRANK.tau(-3.0), -0.3072469594307238, rtol=1e-12)
    assert_allclose(FRANK.tau(2.0), 0.21389456921962013, rtol=1e-12)
    # cross-check against a direct Debye-style integral
    d1 = integrate.quad(lambda x: x / np.expm1(x), 0.0, 5.0)[0] / 5.0
    assert_allclose(FRANK.tau(5.0), 1.0 + 4.0 * (d1 - 1.0) / 5.0, rtol=1e-12)


def test_theta_from_tau_inverts_tau():
    for name, tau in [("clayton", 0.4), ("gumbel", 0.4), ("frank", 0.4), ("gaussian", 0.4)]:
        fam = family(name)
        assert_allclose(fam.tau(fam.theta_from_tau(tau)), tau, atol=1e-9)
    assert CLAYTON.theta_from_tau(0.5) == 2.0
    assert GUMBEL.theta_from_tau(0.5) == 2.0


def test_samples_match_target_tau():
    frank5 = FRANK.tau(5.0)
    for fam, th, target in [
        (CLAYTON, 2.0, 0.5),
        (GUMBEL, 2.0, 0.5),
        (FRANK, 5.0, frank5),
        (GAUSSIAN, 0.5, 1.0 / 3.0),
    ]:
        rng = np.random.default_rng(41)
        u = rng.random(4000)
        v = fam.hinv(u, rng.random(4000), th)
        assert np.all((u > 0) & (u < 1) & (v > 0) & (v < 1))
        assert abs(stats.kendalltau(u, v).statistic - target) < 0.03


def test_bvn_cdf_matches_scipy():
    xs = np.array([-2.0, -0.5, 0.0, 1.0])
    for rho in (-0.9, -0.3, 0.0, 0.6, 0.95):
        for x in xs:
            for y in xs:
                ref = stats.multivariate_normal(cov=[[1.0, rho], [rho, 1.0]]).cdf([x, y])
                assert_allclose(bvn_cdf(np.array(x), np.array(y), np.array(rho)), ref, atol=1e-7)


def test_frank_is_continuous_through_zero():
    assert_allclose(FRANK.cdf(0.3, 0.7, 1e-7), 0.21, atol=1e-6)
    assert FRANK.tau(1e-9) == 0.0
    assert_allclose(FRANK.hinv(0.4, 0.55, 1e-7), 0.55, atol=1e-5)


def test_generator_identities():
    t = np.array([0.1, 0.35, 0.6, 0.9])
    u, v = 0.3, 0.65
    for name, th in [("clayton", 2.0), ("gumbel", 2.5), ("frank", 4.0)]:
        fam = family(name)
        assert name in ARCHIMEDEAN
        assert_allclose(fam.gen_inv(fam.gen(t, th), th), t, rtol=1e-10)
        assert_allclose(fam.cdf(u, v, th), fam.gen_inv(fam.gen(u, th) + fam.gen(v, th), th), rtol=1e-10)
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
    assert spec.is_time_varying and spec.is_archimedean
    assert_allclose(spec.theta_at(0.0), 4.0, rtol=1e-12)
    assert_allclose(spec.theta_at(1.0), np.exp(np.log(4.0) * np.exp(-0.7)), rtol=1e-12)
    assert_allclose(spec.tau_at(0.0), 4.0 / 6.0, rtol=1e-12)
    assert_allclose(spec.min_tau(), 1.0 / 3.0, rtol=1e-12)
    xs = np.linspace(0.0, 10.0, 40)
    assert np.all(np.diff(spec.theta_at(xs)) < 0)

    static = CopulaSpec("gumbel", theta=2.0)
    assert not static.is_time_varying
    assert_allclose(static.theta_at(np.array([0.0, 3.0])), 2.0)
    assert static.min_tau() == 0.5

    indep = CopulaSpec("independence")
    assert indep.tau_at(1.0) == 0.0 and indep.min_tau() == 0.0
    assert_allclose(indep.theta_at(np.array([0.0, 1.0])), 0.0)


def test_spec_dict_round_trips():
    for spec in (
        CopulaSpec("independence"),
        CopulaSpec("frank", theta=-2.5),
        CopulaSpec("clayton", dynamics=TimeVaryingParam(1.2, 0.1, 0.8)),
    ):
        assert copula_from_dict(spec.to_dict()) == spec


def test_static_from_tau():
    assert static_from_tau("clayton", 0.5) == CopulaSpec("clayton", theta=2.0)
    assert static_from_tau("gumbel", 0.5) == CopulaSpec("gumbel", theta=2.0)
    assert static_from_tau("clayton", 0.0) == CopulaSpec("independence")
    assert static_from_tau("independence", 0.3) == CopulaSpec("independence")
    spec = static_from_tau("frank", 0.3)
    assert_allclose(FRANK.tau(spec.theta), 0.3, atol=1e-8)
