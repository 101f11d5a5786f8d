"""Day-gap count distributions, per-year occurrence fits, arrival simulation."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import optimize

from granres import (
    ClaimRecord,
    GranularModel,
    NegativeBinomial,
    OccurrenceModel,
    PhaseError,
    Poisson,
    default_model,
    fit_model,
    parse_iso,
    synthesize,
)
from granres.claims import PaymentEvent
from granres.frequency import (
    ZeroModified,
    _gap_stats,
    _negbin_nll_score,
    date_differences,
    dist_from_dict,
    fit_count_mle,
    fit_occurrence,
    simulate_arrivals,
)
from helpers import records_portfolio, zero_modified_pmf


def test_poisson_pmf_closed_form():
    d = Poisson(1.0)
    assert_allclose(d.logpmf([0, 1, 2]), [-1.0, -1.0, -1.0 - np.log(2.0)], rtol=1e-14)
    assert d.mean() == 1.0


def test_negbin_pmf_is_geometric_at_unit_size():
    d = NegativeBinomial(1.0, 0.5)
    assert_allclose(d.logpmf([0, 1, 2, 3]), np.log([0.5, 0.25, 0.125, 0.0625]), rtol=1e-13)
    assert_allclose(d.mean(), 1.0)


def test_count_validation_errors():
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        NegativeBinomial(0.0, 0.5)
    with pytest.raises(ValueError):
        NegativeBinomial(1.0, 0.0)
    with pytest.raises(ValueError):
        NegativeBinomial(1.0, 1.0)
    with pytest.raises(ValueError):
        ZeroModified(Poisson(1.0), 1.0)
    with pytest.raises(ValueError):
        ZeroModified(Poisson(1.0), -0.1)


def test_zero_modified_mass_and_normalization():
    zm = ZeroModified(Poisson(2.0), 0.5)
    assert zero_modified_pmf(zm, 0) == 0.5
    k = np.arange(0, 80)
    assert_allclose(zero_modified_pmf(zm, k).sum(), 1.0, atol=1e-12)
    assert_allclose(zm.mean(), np.sum(k * zero_modified_pmf(zm, k)), atol=1e-10)


def test_zero_modified_reduces_to_base_at_natural_mass():
    base = Poisson(2.0)
    zm = ZeroModified(base, float(np.exp(base.logpmf(0))))
    k = np.arange(0, 26)
    assert_allclose(zero_modified_pmf(zm, k), np.exp(base.logpmf(k)), atol=1e-14)
    assert_allclose(zm.mean(), base.mean(), atol=1e-12)


def test_zero_modified_sampling_moments():
    zm = ZeroModified(Poisson(3.0), 0.4)
    rng = np.random.default_rng(7)
    x = zm.sample(rng, size=200_000)
    assert_allclose(np.mean(x == 0), 0.4, atol=4 * np.sqrt(0.4 * 0.6 / x.size))
    k = np.arange(80)
    var = np.sum(k**2 * zero_modified_pmf(zm, k)) - zm.mean() ** 2
    assert_allclose(np.mean(x), zm.mean(), atol=4 * np.sqrt(var / x.size))


def test_dist_dict_round_trips():
    dists = [
        Poisson(2.5),
        NegativeBinomial(1.7, 0.3),
        ZeroModified(Poisson(4.0), 0.2),
        ZeroModified(NegativeBinomial(2.0, 0.6), 0.35),
    ]
    for d in dists:
        assert dist_from_dict(d.to_dict()) == d
    with pytest.raises(ValueError, match="unknown count family"):
        dist_from_dict({"family": "binomial"})


def test_poisson_fit_closed_form():
    obs = np.array([0, 1, 2, 3, 4] * 4)
    fit = fit_count_mle(obs, "poisson")
    assert fit.dist.mu == 2.0
    assert_allclose(fit.se["mu"], np.sqrt(2.0 / 20.0), rtol=1e-14)
    assert_allclose(fit.loglik, float(np.sum(Poisson(2.0).logpmf(obs))), rtol=1e-13)


def test_fit_input_validation():
    with pytest.raises(ValueError, match="at least 10"):
        fit_count_mle([1] * 9, "poisson")
    with pytest.raises(ValueError, match="nonnegative"):
        fit_count_mle([-1] + [1] * 19, "poisson")
    with pytest.raises(ValueError, match="unknown count family"):
        fit_count_mle([1] * 20, "geometric")
    with pytest.raises(ValueError, match="degenerate"):
        fit_count_mle([0] * 12, "poisson")
    with pytest.raises(ValueError, match="too few positive"):
        fit_count_mle([0] * 18 + [1, 2], "zm_poisson")


def test_negbin_fit_recovers_truth():
    rng = np.random.default_rng(11)
    obs = NegativeBinomial(2.0, 0.4).sample(rng, size=20_000)  # mu 3, alpha 0.5
    fit = fit_count_mle(obs, "negbin")
    assert abs(fit.dist.mean() - 3.0) < 3 * fit.se["mu"]
    assert abs(1.0 / fit.dist.r - 0.5) < 3 * fit.se["alpha"]


def test_zm_poisson_fit_recovers_truth():
    rng = np.random.default_rng(5)
    obs = ZeroModified(Poisson(3.0), 0.55).sample(rng, size=20_000)
    fit = fit_count_mle(obs, "zm_poisson")
    assert abs(fit.dist.p0 - 0.55) < 3 * fit.se["p0"]
    assert abs(fit.dist.base.mu - 3.0) < 3 * fit.se["mu"]


def test_zm_poisson_fit_fails_when_every_positive_gap_is_one():
    # the zero-truncated likelihood then rises as mu falls to 0: no maximum
    with pytest.raises(ValueError, match="every positive gap is 1"):
        fit_count_mle([0] * 30 + [1] * 20, "zm_poisson")
    # as for a type with claims on every day, two a day here
    days = np.repeat(np.arange(6000, 6050), 2).tolist()
    claims = [ClaimRecord(f"c{i}", "material_damage", d, d) for i, d in enumerate(days)]
    message = r"phase 1 \(occurrence, material_damage\) failed: .*positive gap is 1"
    with pytest.raises(PhaseError, match=message):
        fit_model(records_portfolio(claims, 6100), {"occurrence_family": "zm_poisson"})


def test_zm_negbin_fit_recovers_truth():
    rng = np.random.default_rng(9)
    # base mu 2, alpha 0.5
    obs = ZeroModified(NegativeBinomial(2.0, 0.5), 0.3).sample(rng, size=20_000)
    fit = fit_count_mle(obs, "zm_negbin")
    assert abs(fit.dist.p0 - 0.3) < 3 * fit.se["p0"]
    assert abs(fit.dist.base.mean() - 2.0) < 3 * fit.se["mu"]
    assert abs(1.0 / fit.dist.base.r - 0.5) < 3 * fit.se["alpha"]


def _zm_log_edge_gaps(seed):
    """150 zero-modified gaps from NB(0.5, 0.5)'s positive part, zero mass 0.3."""
    rng = np.random.default_rng(seed)
    base = rng.negative_binomial(0.5, 0.5, 600)
    pos = base[base > 0]
    return np.where(rng.random(150) < 0.3, 0, pos[:150])


EDGE = "zero-truncated negative binomial likelihood has no finite maximum"


@pytest.mark.parametrize("seed", [0, 15])
def test_zm_negbin_fit_warns_on_the_logarithmic_series_edge(seed):
    # the truncated likelihood keeps rising, nearly flat, towards alpha ->
    # infinity, and the optimizer stops near r = 1e-3: the logarithmic
    # series, that limit, fits at least as well
    with pytest.warns(UserWarning, match=EDGE) as caught:
        fit = fit_count_mle(_zm_log_edge_gaps(seed), "zm_negbin")
    assert len(caught) == 1
    assert fit.dist.base.r < 1e-3  # the estimate is kept


@pytest.mark.parametrize("seed", [1, 2])
def test_zm_negbin_fit_with_an_interior_optimum_does_not_warn(seed):
    # warnings fail this suite
    fit = fit_count_mle(_zm_log_edge_gaps(seed), "zm_negbin")
    assert 0.2 < fit.dist.base.r < 0.35


def test_fit_model_records_the_zm_negbin_edge_under_occurrence():
    # one type, its 150 gaps in 2016 those of seed 0
    rng = np.random.default_rng(4)
    days = parse_iso("2016-01-01") + np.concatenate([[0], np.cumsum(_zm_log_edge_gaps(0))])
    claims = []
    for i, d in enumerate(days.tolist()):
        r = d + int(rng.geometric(1 / 30))
        pays = sorted(r + rng.integers(0, 400, rng.poisson(2)))
        events = tuple(PaymentEvent(int(p), float(rng.lognormal(7.0, 1.0))) for p in pays)
        claims.append(ClaimRecord(f"c{i}", "material_damage", d, r, events))
    port = records_portfolio(claims, int(days[-1]) + 800)
    recipe = {"occurrence_family": "zm_negbin", "copula_family": "independence", "hac_outer": None}
    _, report = fit_model(port, recipe)
    edge = [w for w in report["warnings"] if EDGE in w["message"]]
    assert [(w["phase"], w["claim_type"]) for w in edge] == [("occurrence", "material_damage")]
    assert edge[0]["message"].startswith("occurrence years (2016,): ")


def test_negbin_fit_of_an_underdispersed_sample_is_the_poisson_edge():
    # variance 2/3 below the mean 2: the likelihood rises to its Poisson
    # limit, alpha = 0, and the fit is that Poisson, without a warning
    # (warnings fail this suite); the zero-truncated fit stops on the same
    # edge, so zm_negbin is the zm_poisson fit
    obs = np.array([1, 2, 3] * 10)
    assert fit_count_mle(obs, "negbin") == fit_count_mle(obs, "poisson")
    assert fit_count_mle(obs, "negbin").dist == Poisson(2.0)
    assert fit_count_mle(obs, "zm_negbin") == fit_count_mle(obs, "zm_poisson")


def test_negbin_occurrence_years_on_the_poisson_edge_round_trip(tmp_path):
    # Poisson gaps: about half the years are not overdispersed, and each of
    # those stores Poisson(mean gap) in the negbin occurrence model
    start, end = parse_iso("2016-01-01"), parse_iso("2019-12-31")
    port = synthesize(
        default_model(1500, start, end, "independence"), start, end, np.random.default_rng(42)
    )
    recipe = {"occurrence_family": "negbin", "copula_family": "independence", "hac_outer": None}
    model, report = fit_model(port, recipe)
    assert report["warnings"] == []
    edges = 0
    for ctype, tm in model.types.items():
        assert tm.occurrence.family == "negbin"
        years, gaps = date_differences(port.by_type(ctype))
        years, gaps = years[1:], gaps[1:]
        for year, dist in tm.occurrence.by_year.items():
            g = gaps[years == year]
            if np.var(g) <= np.mean(g):
                assert dist == Poisson(float(np.mean(g)))
                assert dist.to_dict()["family"] == "poisson"
                edges += 1
            else:
                assert isinstance(dist, NegativeBinomial)
    assert edges >= 2
    model.save(tmp_path / "model.json")
    assert GranularModel.load(tmp_path / "model.json") == model


def _profile_optimum(obs):
    """The negative binomial log-likelihood maximized over alpha >= 0 at mu
    the sample mean: a grid in log alpha, refined around its best point."""
    stats, m = _gap_stats(obs), float(np.mean(obs))
    f = lambda t: _negbin_nll_score((m, np.exp(t)), stats)[0]
    grid = np.linspace(-20.0, 4.0, 49)
    i = int(np.argmin([f(t) for t in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return -min(res.fun, _negbin_nll_score((m, 0.0), stats)[0])


@pytest.mark.parametrize("size", [150, 1000])
@pytest.mark.parametrize("mean", [0.8, 2.0, 5.0])
def test_negbin_fit_reaches_the_profile_optimum_on_poisson_gaps(mean, size):
    # Poisson gaps, the generator's own occurrence law: half the samples sit
    # on the Poisson edge, the others just inside it
    rng = np.random.default_rng(int(10 * mean) + size)
    for _ in range(20):
        obs = rng.poisson(mean, size)
        fit = fit_count_mle(obs, "negbin")
        alpha = 0.0 if isinstance(fit.dist, Poisson) else 1.0 / fit.dist.r
        assert (alpha > 0) == (np.var(obs) > np.mean(obs))
        ll = -_negbin_nll_score((fit.dist.mean(), alpha), _gap_stats(obs))[0]
        assert_allclose(fit.loglik, ll, rtol=1e-12)
        assert ll >= _profile_optimum(obs) - 1e-8


def test_date_differences_anchors_first_gap_at_origin():
    claims = [
        ClaimRecord("a", "material_damage", 5, 5),
        ClaimRecord("b", "material_damage", 5, 6),
        ClaimRecord("c", "material_damage", 8, 8),
        ClaimRecord("d", "bodily_injury", 3, 4),
    ]
    port = records_portfolio(claims, 10)
    years, gaps = date_differences(port.by_type("material_damage"))
    assert_array_equal(gaps, [5, 0, 3])
    assert_array_equal(years, [2000, 2000, 2000])
    years_b, gaps_b = date_differences(port.by_type("bodily_injury"))
    assert_array_equal(gaps_b, [3])
    assert_array_equal(years_b, [2000])


def test_occurrence_year_lookup_clamps_and_backfills():
    om = OccurrenceModel("poisson", {2001: Poisson(1.0), 2003: Poisson(2.0)})
    assert om.dist_for(100) == Poisson(1.0)  # before the first fitted year
    assert om.dist_for(800) == Poisson(1.0)  # 2002 backfills from 2001
    assert om.dist_for(1900) == Poisson(2.0)  # after the last fitted year
    with pytest.raises(ValueError, match="at least one fitted year"):
        OccurrenceModel("poisson", {})
    rt = OccurrenceModel.from_dict(om.to_dict())
    assert rt.by_year == om.by_year and rt.family == om.family


class _ConstGap:
    """Degenerate day-gap law: every gap equals two days."""

    def mean(self):
        return 2.0

    def sample(self, rng, size=None):
        n = 1 if size is None else int(size)
        return np.full(n, 2, dtype=np.int64)


class _ZeroGap(_ConstGap):
    def mean(self):
        return 0.0


def test_arrivals_with_constant_gaps_are_a_lattice():
    om = OccurrenceModel("poisson", {2000: _ConstGap()})
    arr = simulate_arrivals(om, 0, 10, np.random.default_rng(0))
    assert_array_equal(arr, [2, 4, 6, 8, 10])
    assert simulate_arrivals(om, 5, 4, np.random.default_rng(0)).size == 0
    with pytest.raises(ValueError, match="zero mean gap"):
        simulate_arrivals(
            OccurrenceModel("poisson", {2000: _ZeroGap()}), 0, 10, np.random.default_rng(0)
        )


def test_arrivals_match_renewal_rate_for_geometric_gaps():
    # memoryless gaps: arrivals on 100 days total NegBin(100, 1/2), mean 100
    om = OccurrenceModel("negbin", {2000: NegativeBinomial(1.0, 0.5)})
    rng = np.random.default_rng(123)
    counts = np.array(
        [simulate_arrivals(om, 0, 99, rng).size for _ in range(400)], dtype=float
    )
    z = (counts.mean() - 100.0) / np.sqrt(200.0 / counts.size)
    assert abs(z) < 4.0


def test_arrivals_stay_in_window_and_are_deterministic():
    om = OccurrenceModel(
        "poisson", {2000: Poisson(5.0), 2001: Poisson(50.0)}
    )
    a = simulate_arrivals(om, 0, 730, np.random.default_rng(77))
    b = simulate_arrivals(om, 0, 730, np.random.default_rng(77))
    assert_array_equal(a, b)
    assert np.all(np.diff(a) >= 0)
    assert a.min() >= 0 and a.max() <= 730


def test_fit_occurrence_recovers_single_year_mean():
    rng = np.random.default_rng(21)
    gaps = rng.poisson(3.0, 60)
    days = np.cumsum(gaps) + 1
    claims = [
        ClaimRecord(f"c{i}", "bodily_injury", int(d), int(d))
        for i, d in enumerate(days)
    ]
    occ = fit_occurrence(records_portfolio(claims, int(days[-1]) + 1), "poisson")
    mu = occ.by_year[2000].mu
    assert abs(mu - 3.0) < 4 * np.sqrt(3.0 / 59)


def test_fit_occurrence_merges_thin_trailing_year():
    claims = [
        ClaimRecord(f"m{i}", "material_damage", 10 * i, 10 * i)
        for i in range(1, 16)
    ]
    claims += [
        ClaimRecord("m16", "material_damage", 370, 370),
        ClaimRecord("m17", "material_damage", 380, 380),
    ]
    with pytest.warns(UserWarning, match="material_damage: occurrence years .* merged"):
        om = fit_occurrence(records_portfolio(claims, 400), "poisson")
    assert sorted(om.by_year) == [2000, 2001]
    assert om.by_year[2001] is om.by_year[2000]
