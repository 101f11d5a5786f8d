"""Accident-arrival frequency: day-gap distributions and the occurrence model.

Consecutive accident days form gaps V_i = T_i - T_(i-1) with T_0 = day 0; the
gaps are nonnegative integers (ties allowed) following a Poisson, negative
binomial, or zero-modified count distribution whose parameters may change by
calendar year.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .daycount import year_of, year_start
from .fitutil import mle, standard_errors, warn_unconverged


@dataclass(frozen=True)
class Poisson:
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("Poisson mean must be positive")

    def logpmf(self, k):
        k = np.asarray(k)
        return k * np.log(self.mu) - self.mu - special.gammaln(k + 1.0)

    def cdf(self, k):
        return special.pdtr(k, self.mu)

    def mean(self):
        return self.mu

    def sample(self, rng, size):
        return rng.poisson(self.mu, size=size)

    def to_dict(self):
        return {"family": "poisson", "mu": self.mu}


@dataclass(frozen=True)
class NegativeBinomial:
    """Size r > 0, success probability p in (0, 1); pmf(k) = C(k+r-1, k) p^r (1-p)^k."""

    r: float
    p: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("negative binomial size must be positive")
        if not 0.0 < self.p < 1.0:
            raise ValueError("negative binomial success probability must be in (0, 1)")

    def logpmf(self, k):
        k = np.asarray(k)
        return (
            special.gammaln(k + self.r)
            - special.gammaln(self.r)
            - special.gammaln(k + 1.0)
            + self.r * np.log(self.p)
            + k * np.log1p(-self.p)
        )

    def cdf(self, k):
        # the regularized incomplete beta I_p(r, k + 1); nbdtr would truncate r
        return special.betainc(self.r, np.asarray(k) + 1.0, self.p)

    def mean(self):
        return self.r * (1.0 - self.p) / self.p

    def sample(self, rng, size):
        return rng.negative_binomial(self.r, self.p, size=size)

    def to_dict(self):
        return {"family": "negbin", "r": self.r, "p": self.p}


def _cdf_quantile(cdf, u):
    """Smallest k >= 0 with cdf(k) >= u, for each u, from one table of the cdf.

    The table doubles until it reaches the largest u. It stops short only
    where the cdf has flattened out below u near 1 in floating point; such a
    u gets the table's last k.
    """
    top = float(np.max(u))
    table = cdf(np.arange(64))
    while table[-1] < top and (table[-1] < 0.5 or table[-1] > table[table.size // 2 - 1]):
        table = cdf(np.arange(2 * table.size))
    idx = np.searchsorted(np.maximum.accumulate(table), u, side="left")
    return np.minimum(idx, table.size - 1)


@dataclass(frozen=True)
class ZeroModified:
    """Free mass p0 at zero; positive values follow the base pmf renormalized."""

    base: object
    p0: float

    def __post_init__(self):
        if not 0.0 <= self.p0 < 1.0:
            raise ValueError("zero mass p0 must be in [0, 1)")

    def _base_p0(self):
        return float(np.exp(self.base.logpmf(0)))

    def mean(self):
        b0 = self._base_p0()
        return (1.0 - self.p0) / (1.0 - b0) * self.base.mean()

    def sample(self, rng, size):
        out = np.zeros(int(size), dtype=np.int64)
        pos = rng.random(out.size) >= self.p0
        npos = int(pos.sum())
        if npos:
            b0 = self._base_p0()
            u = b0 + rng.random(npos) * (1.0 - b0)
            out[pos] = _cdf_quantile(self.base.cdf, u)
        return out

    def to_dict(self):
        return {"family": "zm_" + self.base.to_dict()["family"], "p0": self.p0, "base": self.base.to_dict()}


FAMILIES = ("poisson", "negbin", "zm_poisson", "zm_negbin")


def dist_from_dict(d):
    fam = d["family"]
    if fam == "poisson":
        return Poisson(d["mu"])
    if fam == "negbin":
        return NegativeBinomial(d["r"], d["p"])
    if fam in ("zm_poisson", "zm_negbin"):
        return ZeroModified(dist_from_dict(d["base"]), d["p0"])
    raise ValueError(f"unknown count family {fam!r}")


@dataclass(frozen=True)
class CountFit:
    dist: object
    loglik: float
    se: dict


def _fit_poisson(obs):
    mu = float(np.mean(obs))
    if mu <= 0:
        raise ValueError("degenerate sample: all zeros, Poisson mean not identifiable")
    d = Poisson(mu)
    ll = float(np.sum(d.logpmf(obs)))
    return CountFit(d, ll, {"mu": float(np.sqrt(mu / obs.size))})


def _negbin(mu, alpha):
    """The negative binomial of mean mu and dispersion alpha > 0."""
    return NegativeBinomial(float(1.0 / alpha), float(1.0 / (1.0 + alpha * mu)))


def _gap_stats(obs):
    """The sufficient statistics of the count likelihoods, from the gap
    counts: n, the sum of the gaps, tail[j] = #{gaps > j} for j below the
    largest gap, and the sum of lgamma(gap + 1)."""
    counts = np.bincount(obs)
    k = np.arange(counts.size)
    tail = obs.size - np.cumsum(counts)[:-1]
    return obs.size, float(k @ counts), tail, float(special.gammaln(k + 1.0) @ counts)


def _phi(a):
    """(log1p(a) - a / (1 + a)) / a^2, by its series where the difference
    loses its digits (1/2 at a = 0)."""
    if abs(a) < 1e-4:
        return 0.5 - a * (2.0 / 3.0 - 0.75 * a)
    return (math.log1p(a) - a / (1.0 + a)) / (a * a)


def _negbin_nll_score(x, stats, truncated=False):
    """Negative log-likelihood of the gaps under the negative binomial of
    mean mu and dispersion alpha, var = mu + alpha mu^2, and its gradient in
    x = (mu, alpha), or in x = (mu,) at alpha = 0. With S the sum of the n
    gaps k,

        log L = sum_(j<k) log1p(alpha j) + S log mu
                - (S + n / alpha) log1p(alpha mu) - sum lgamma(k + 1),

    exact at alpha = 0, the Poisson. truncated conditions every gap on being
    positive: log L - n log(1 - P(0)), -log P(0) = log1p(alpha mu) / alpha.
    """
    mu, alpha = x[0], (x[1] if len(x) > 1 else 0.0)
    n, total, tail, const = stats
    j = np.arange(tail.size)
    a = alpha * mu
    q = math.log1p(a) / alpha if alpha else mu
    ll = tail @ np.log1p(alpha * j) + total * (math.log(mu) - math.log1p(a)) - n * q - const
    d_mu = (total - n * mu) / (mu * (1.0 + a))
    d_alpha = tail @ (j / (1.0 + alpha * j)) - total * mu / (1.0 + a) + n * mu * mu * _phi(a)
    if truncated:  # dq/dmu = 1 / (1 + a), dq/dalpha = -mu^2 phi(a)
        w = n / math.expm1(q)
        ll -= n * math.log(-math.expm1(-q))
        d_mu -= w / (1.0 + a)
        d_alpha += w * mu * mu * _phi(a)
    return -ll, -np.array([d_mu, d_alpha][: len(x)])


def _fit_negbin(obs):
    """mu is the sample mean at any alpha. The alpha-score is n (v - m) / 2
    at alpha = 0 and negative for large alpha: v > m puts alpha at its one
    root, and any other sample sits on the Poisson edge, fitted as Poisson."""
    m, v = float(np.mean(obs)), float(np.var(obs))
    if v <= m:
        return _fit_poisson(obs)
    stats = _gap_stats(obs)
    nll = lambda y: _negbin_nll_score(y, stats)
    t = optimize.brentq(lambda t: nll((m, math.exp(t)))[1][1], math.log(1e-12), math.log(1e12))
    x = (m, math.exp(t))
    _, se = standard_errors(nll, x, ("mu", "alpha"))
    return CountFit(_negbin(*x), -nll(x)[0], se)


def _logseries_loglik(pos):
    """The maximized log-likelihood of the logarithmic series P(k) = p^k /
    (k y), y = -log(1 - p), the alpha -> infinity limit of the zero-truncated
    negative binomial: its mean expm1(y) / y is the sample mean, above 1."""
    m = float(np.mean(pos))
    y = optimize.brentq(lambda y: math.expm1(y) / y - m, 1e-10, 50.0 + math.log(m))
    return float(pos.sum() * math.log(-math.expm1(-y)) - pos.size * math.log(y) - np.log(pos).sum())


def _fit_truncated_negbin(pos):
    """The zero-truncated negative binomial by mle in (mu, alpha >= 0); an
    optimum on alpha = 0 is the zero-truncated Poisson's. The likelihood can
    keep rising towards alpha -> infinity, nearly flat, where mle stops at
    some large alpha: the fit warns when that limit fits at least as well."""
    stats = _gap_stats(pos)
    nll = lambda y: _negbin_nll_score(y, stats, truncated=True)
    m, v = float(np.mean(pos)), float(np.var(pos))
    opt = mle(nll, [[m, max(v / (m * m), 0.1)]], [(1e-8, 1e6), (0.0, 1e6)])
    warn_unconverged(opt, "zero-truncated negative binomial fit")
    if opt.at_bound[1]:
        return _fit_truncated_poisson(pos)
    if m > 1.0 and _logseries_loglik(pos) >= opt.loglik:
        warnings.warn(
            "zero-truncated negative binomial likelihood has no finite maximum: the "
            f"logarithmic series (alpha -> infinity) fits as well; kept alpha {opt.x[1]:.4g}"
        )
    _, se = standard_errors(nll, opt.x, ("mu", "alpha"))
    return CountFit(_negbin(*opt.x), opt.loglik, se)


def _fit_truncated_poisson(pos):
    """MLE of a zero-truncated Poisson (positive observations only)."""
    m = float(np.mean(pos))
    if m == 1.0:
        # the likelihood rises as mu falls to 0: no maximum to report
        raise ValueError("zero-truncated Poisson has no MLE: every positive gap is 1")
    # the score equation mu / (1 - exp(-mu)) = m has one root in (0, m)
    mu = optimize.brentq(lambda mu: mu / (1.0 - np.exp(-mu)) - m, 1e-8, m)
    stats = _gap_stats(pos)
    nll = lambda y: _negbin_nll_score(y, stats, truncated=True)  # at alpha = 0
    _, se = standard_errors(nll, [mu], ("mu",))
    return CountFit(Poisson(float(mu)), -nll([mu])[0], se)


def fit_count_mle(obs, family: str) -> CountFit:
    """Maximum-likelihood fit of a day-gap distribution.

    The Poisson mean and the zero mass are closed form, the zero-truncated
    Poisson mean and the negative binomial alpha one root each of their
    scores; only the zero-truncated negative binomial runs mle. Standard
    errors are named mu and alpha for the base law, p0 for the zero mass.
    """
    obs = np.asarray(obs, dtype=np.int64)
    if obs.size < 10:
        raise ValueError(f"need at least 10 observations, got {obs.size}")
    if np.any(obs < 0):
        raise ValueError("gap observations must be nonnegative integers")
    if family == "poisson":
        return _fit_poisson(obs)
    if family == "negbin":
        return _fit_negbin(obs)
    if family in ("zm_poisson", "zm_negbin"):
        n0 = int(np.sum(obs == 0))
        p0 = n0 / obs.size
        pos = obs[obs > 0]
        if pos.size < 5:
            raise ValueError("too few positive observations for a zero-modified fit")
        fit_pos = (_fit_truncated_poisson if family == "zm_poisson" else _fit_truncated_negbin)(pos)
        ll = fit_pos.loglik + (n0 * np.log(p0) if n0 else 0.0) + pos.size * np.log1p(-p0)
        se = {"p0": float(np.sqrt(p0 * (1.0 - p0) / obs.size)), **fit_pos.se}
        return CountFit(ZeroModified(fit_pos.dist, p0), float(ll), se)
    raise ValueError(f"unknown count family {family!r}")


def date_differences(sub):
    """The accident-day gaps of one claim type's claims, tagged by the
    calendar year of the earlier day.

    Returns (years array, gaps array) with the T_0 = 0 convention (the first
    gap is measured from day 0 and tagged with its year).
    """
    days = sub.accident_days  # ascending
    prev = np.concatenate(([0], days[:-1]))
    return year_of(prev), days - prev


@dataclass(frozen=True)
class OccurrenceModel:
    """Piecewise-constant-by-calendar-year day-gap model for one claim type."""

    family: str
    by_year: dict  # year -> distribution

    def __post_init__(self):
        if not self.by_year:
            raise ValueError("occurrence model needs at least one fitted year")

    def dist_for(self, day: int):
        years = sorted(self.by_year)
        y = min(max(year_of(day), years[0]), years[-1])
        while y not in self.by_year:
            y -= 1
        return self.by_year[y]

    def to_dict(self):
        return {
            "family": self.family,
            "by_year": {str(y): d.to_dict() for y, d in sorted(self.by_year.items())},
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["family"], {int(y): dist_from_dict(v) for y, v in d["by_year"].items()})


def fit_occurrence(sub, family: str) -> OccurrenceModel:
    """Fit per-year gap distributions to one claim type's claims.

    The gap of the earliest claim is anchored at the time origin, not at an
    observed arrival, so it is excluded from fitting. Years with fewer than
    10 gap observations are merged into a neighboring year's cohort (warning);
    the merged year inherits that fit. A warning of a year group's fit names
    the group: "occurrence years (2019,): ...".
    """
    years, gaps = date_differences(sub)
    years, gaps = years[1:], gaps[1:]  # ascending years
    groups, carry = [], ()
    for y in np.unique(years).tolist():
        carry += (y,)
        if np.count_nonzero(years == y) >= 10:
            groups.append(carry)
            carry = ()
    if carry:  # trailing small cohort joins the previous group
        groups = groups[:-1] + [(groups[-1] if groups else ()) + carry]

    by_year = {}
    for ys in groups:
        if len(ys) > 1:
            warnings.warn(
                f"{'/'.join(sub.claim_types)}: occurrence years {ys} merged "
                "(fewer than 10 gaps)",
                stacklevel=2,
            )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_count_mle(gaps[np.isin(years, ys)], family)
        for w in caught:
            warnings.warn(f"occurrence years {ys}: {w.message}", w.category, stacklevel=2)
        for y in ys:
            by_year[y] = fit.dist
    return OccurrenceModel(family, by_year)


def simulate_arrivals(model: OccurrenceModel, from_day: int, to_day: int, rng) -> np.ndarray:
    """Simulate accident days on [from_day, to_day] by accumulating gap draws.

    Each gap is drawn from the distribution of the calendar year of the
    previous point (starting at from_day); accumulation stops with the first
    point past to_day. Draws are blocked for speed; a block is cut at the
    first gap whose predecessor crossed into a later calendar year, so every
    kept gap comes from its predecessor's year.
    """
    if to_day < from_day:
        return np.array([], dtype=np.int64)
    out = []
    t = int(from_day)
    done = False
    while not done:
        dist = model.dist_for(t)
        mean_gap = float(dist.mean())
        if mean_gap <= 0:
            raise ValueError("zero mean gap: arrival process does not terminate")
        year_end = _year_end(t)
        span = min(year_end, to_day) - t
        block = int(min(span / mean_gap * 1.5 + 16, 2_000_000))
        gaps = np.asarray(dist.sample(rng, size=block), dtype=np.int64)
        days = t + np.cumsum(gaps)
        pred = np.concatenate(([t], days[:-1]))
        crossed = np.flatnonzero(pred > year_end)
        cut = int(crossed[0]) if crossed.size else block
        prefix = days[:cut]
        over = np.flatnonzero(prefix > to_day)
        if over.size:
            out.append(prefix[: over[0]])
            done = True
        else:
            out.append(prefix)
            t = int(prefix[-1])
    return np.concatenate(out) if out else np.array([], dtype=np.int64)


def _year_end(day: int) -> int:
    return year_start(year_of(day) + 1) - 1
