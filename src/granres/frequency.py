"""Accident-arrival frequency: day-gap distributions and the occurrence model.

Consecutive accident days form gaps V_i = T_i - T_(i-1) with T_0 = day 0; the
gaps are nonnegative integers (ties allowed) following a Poisson, negative
binomial, or zero-modified count distribution whose parameters may change by
calendar year.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special, stats

from .daycount import year_of, year_start
from .fitutil import observed_info_se


@dataclass(frozen=True)
class Poisson:
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("Poisson mean must be positive")

    def logpmf(self, k):
        k = np.asarray(k)
        return k * np.log(self.mu) - self.mu - special.gammaln(k + 1.0)

    def pmf(self, k):
        return np.exp(self.logpmf(k))

    def mean(self):
        return self.mu

    def var(self):
        return self.mu

    def sample(self, rng, size=None):
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

    def pmf(self, k):
        return np.exp(self.logpmf(k))

    def mean(self):
        return self.r * (1.0 - self.p) / self.p

    def var(self):
        return self.r * (1.0 - self.p) / self.p**2

    def sample(self, rng, size=None):
        return rng.negative_binomial(self.r, self.p, size=size)

    def to_dict(self):
        return {"family": "negbin", "r": self.r, "p": self.p}


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

    def pmf(self, k):
        k = np.asarray(k)
        b0 = self._base_p0()
        scale = (1.0 - self.p0) / (1.0 - b0)
        vals = np.where(k == 0, self.p0, scale * self.base.pmf(k))
        return vals if vals.shape else float(vals)

    def logpmf(self, k):
        with np.errstate(divide="ignore"):
            return np.log(self.pmf(k))

    def mean(self):
        b0 = self._base_p0()
        return (1.0 - self.p0) / (1.0 - b0) * self.base.mean()

    def var(self):
        b0 = self._base_p0()
        scale = (1.0 - self.p0) / (1.0 - b0)
        m2_base = self.base.var() + self.base.mean() ** 2
        m = self.mean()
        return scale * m2_base - m**2

    def sample(self, rng, size=None):
        n = 1 if size is None else int(size)
        out = np.zeros(n, dtype=np.int64)
        pos = rng.random(n) >= self.p0
        npos = int(pos.sum())
        if npos:
            b0 = self._base_p0()
            u = b0 + rng.random(npos) * (1.0 - b0)
            if isinstance(self.base, Poisson):
                out[pos] = stats.poisson.ppf(u, self.base.mu).astype(np.int64)
            else:
                out[pos] = stats.nbinom.ppf(u, self.base.r, self.base.p).astype(np.int64)
        return int(out[0]) if size is None else out

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


def _truncated_negloglik_negbin(params, obs):
    r, p = params
    d = NegativeBinomial(r, p)
    # zero-truncated log-likelihood
    return -float(np.sum(d.logpmf(obs)) - obs.size * np.log1p(-d.pmf(0)))


def _fit_negbin(obs, truncated=False):
    if np.all(obs == 0):
        raise ValueError("degenerate sample: all zeros, negative binomial not identifiable")
    m = float(np.mean(obs))
    v = float(np.var(obs))
    if v <= m:
        v = m * 1.25  # moment init needs overdispersion; nudge and let the optimizer move
    p0 = min(max(m / v, 1e-3), 1.0 - 1e-3)
    r0 = max(m * p0 / (1.0 - p0), 1e-2)
    bounds = [(1e-6, 1e6), (1e-9, 1.0 - 1e-9)]

    if truncated:
        nll = lambda x: _truncated_negloglik_negbin(x, obs)
    else:
        nll = lambda x: -float(np.sum(NegativeBinomial(*x).logpmf(obs)))
    res = optimize.minimize(nll, x0=[r0, p0], method="L-BFGS-B", bounds=bounds)
    r, p = res.x
    se = observed_info_se(nll, res.x)
    return NegativeBinomial(float(r), float(p)), -float(res.fun), {"r": float(se[0]), "p": float(se[1])}


def _fit_truncated_poisson(obs):
    """MLE of a zero-truncated Poisson (positive observations only)."""
    m = float(np.mean(obs))

    def score(mu):
        return mu / (1.0 - np.exp(-mu)) - m

    lo, hi = 1e-8, max(m, 1e-6)
    mu = optimize.brentq(score, lo, hi) if score(lo) * score(hi) < 0 else m
    nll = lambda x: -float(
        np.sum(Poisson(x[0]).logpmf(obs)) - obs.size * np.log1p(-np.exp(-x[0]))
    )
    se = observed_info_se(nll, [mu])
    return Poisson(float(mu)), -nll([mu]), {"mu": float(se[0])}


def fit_count_mle(obs, family: str) -> CountFit:
    """Maximum-likelihood fit of a day-gap distribution.

    Poisson and the zero-modified zero mass are closed form; the rest is
    bounded numerical maximization. Standard errors come from the observed
    information.
    """
    obs = np.asarray(obs, dtype=np.int64)
    if obs.size < 10:
        raise ValueError(f"need at least 10 observations, got {obs.size}")
    if np.any(obs < 0):
        raise ValueError("gap observations must be nonnegative integers")
    if family == "poisson":
        return _fit_poisson(obs)
    if family == "negbin":
        d, ll, se = _fit_negbin(obs)
        return CountFit(d, ll, se)
    if family in ("zm_poisson", "zm_negbin"):
        n0 = int(np.sum(obs == 0))
        p0 = n0 / obs.size
        pos = obs[obs > 0]
        if pos.size < 5:
            raise ValueError("too few positive observations for a zero-modified fit")
        if family == "zm_poisson":
            base, ll_pos, se_base = _fit_truncated_poisson(pos)
        else:
            base, ll_pos, se_base = _fit_negbin(pos, truncated=True)
        ll = ll_pos + (n0 * np.log(p0) if n0 else 0.0) + pos.size * np.log1p(-p0)
        se = {"p0": float(np.sqrt(p0 * (1.0 - p0) / obs.size))}
        se.update(se_base)
        return CountFit(ZeroModified(base, p0), float(ll), se)
    raise ValueError(f"unknown count family {family!r}")


def date_differences(portfolio):
    """Per-type accident-day gaps tagged by the calendar year of the earlier day.

    Returns {claim_type: (years array, gaps array)} with the T_0 = 0 convention
    (the first gap is measured from day 0 and tagged with its year).
    """
    out = {}
    for ctype in portfolio.claim_types:
        days = portfolio.by_type(ctype).accident_days  # ascending
        prev = np.concatenate(([0], days[:-1]))
        out[ctype] = (year_of(prev), days - prev)
    return out


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


def fit_occurrence(portfolio, family: str = "poisson") -> dict:
    """Fit per-year gap distributions for each claim type present.

    The gap of the earliest claim is anchored at the time origin, not at an
    observed arrival, so it is excluded from fitting. Years with fewer than
    10 gap observations are merged into a neighboring year's cohort (warning);
    the merged year inherits that fit.
    """
    diffs = date_differences(portfolio)
    out = {}
    for ctype, (years, gaps) in diffs.items():
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
                    f"{ctype}: occurrence years {ys} merged (fewer than 10 gaps)",
                    stacklevel=2,
                )
            fit = fit_count_mle(gaps[np.isin(years, ys)], family)
            for y in ys:
                by_year[y] = fit.dist
        out[ctype] = OccurrenceModel(family, by_year)
    return out


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
            if cut < block:
                t = int(days[cut - 1])  # first point of the next calendar year
            else:
                t = int(prefix[-1])  # block exhausted mid-segment; keep going
    return np.concatenate(out) if out else np.array([], dtype=np.int64)


def _year_end(day: int) -> int:
    return year_start(year_of(day) + 1) - 1
