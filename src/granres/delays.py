"""Reporting-delay models.

The parametric model is a Weibull with constant shape and a log-linear scale
in accident time, scale(t) = exp(c0 + c1 * t_years) with c1 <= 0 so the mean
delay cannot grow over calendar time. Delays are continuous in days; observed
delays are day-censored, so the fit likelihood uses interval masses
H_t(w+1) - H_t(w).

The nonparametric alternative is a per-accident-year empirical cohort.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .daycount import year_of, years_since_epoch
from .fitutil import observed_info_se, redraw


@dataclass(frozen=True)
class WeibullDelayModel:
    """shape > 0; scale(t) = exp(c0 + c1 * years_since_epoch(t)), c1 <= 0."""

    shape: float
    c0: float
    c1: float
    se: dict = field(default_factory=dict)

    REDRAW_BOUNDS = {"shape": (0.05, math.inf), "c0": (-math.inf, math.inf),
                     "c1": (-math.inf, 0.0)}

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError("Weibull shape must be positive")
        if self.c1 > 0:
            raise ValueError("scale trend c1 must be <= 0 (delays cannot lengthen)")

    def scale(self, t):
        return np.exp(self.c0 + self.c1 * years_since_epoch(np.asarray(t, dtype=float)))

    def cdf(self, t, w):
        w = np.asarray(w, dtype=float)
        lam = self.scale(t)
        out = -np.expm1(-np.power(np.maximum(w, 0.0) / lam, self.shape))
        return np.where(w <= 0.0, 0.0, out)

    def density(self, t, w):
        w = np.asarray(w, dtype=float)
        lam = self.scale(t)
        k = self.shape
        z = np.maximum(w, 1e-300) / lam
        out = (k / lam) * np.power(z, k - 1.0) * np.exp(-np.power(z, k))
        return np.where(w < 0.0, 0.0, out)

    def quantile(self, t, u):
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u >= 1)):
            raise ValueError("quantile level must be in [0, 1)")
        return self.scale(t) * np.power(-np.log1p(-u), 1.0 / self.shape)

    def mean(self, t):
        return self.scale(t) * math.gamma(1.0 + 1.0 / self.shape)

    def perturbed(self, rng):
        return redraw(self, rng, self.se)

    def to_dict(self):
        return {
            "variant": "weibull_tv",
            "shape": self.shape,
            "c0": self.c0,
            "c1": self.c1,
            "se": dict(self.se),
        }


@dataclass(frozen=True)
class EmpiricalDelayModel:
    """Per-accident-year empirical delay distribution (days, resampling)."""

    cohorts: dict  # year -> sorted np.ndarray of observed delays (days)

    def __post_init__(self):
        if not self.cohorts:
            raise ValueError("empirical delay model needs at least one cohort")

    def _cohort_for(self, t):
        years = sorted(self.cohorts)
        y = min(max(year_of(int(t)), years[0]), years[-1])
        if y not in self.cohorts:
            near = min(years, key=lambda yy: abs(yy - y))
            warnings.warn(
                f"no delay cohort for accident year {y}; using {near}", stacklevel=3
            )
            y = near
        return self.cohorts[y]

    def cdf(self, t, w):
        sample = self._cohort_for(t)
        w = np.asarray(w, dtype=float)
        return np.searchsorted(sample, w, side="right") / sample.size

    def density(self, t, w):
        raise ValueError(
            "empirical cohorts have no density; fit the weibull_tv variant "
            "for a smooth delay model"
        )

    def quantile(self, t, u):
        sample = self._cohort_for(t)
        u = np.asarray(u, dtype=float)
        idx = np.minimum((u * sample.size).astype(int), sample.size - 1)
        return sample[idx].astype(float)

    def mean(self, t):
        return float(np.mean(self._cohort_for(t)))

    def perturbed(self, rng):
        """Cohorts are the data themselves: no parameter to redraw."""
        return self

    def to_dict(self):
        return {
            "variant": "empirical_cohort",
            "cohorts": {str(y): np.asarray(v).tolist() for y, v in sorted(self.cohorts.items())},
        }


def _per_year(model, t, values, method):
    """Evaluate a per-cohort method over vector accident days, grouped by year."""
    t = np.atleast_1d(np.asarray(t))
    values = np.broadcast_to(np.asarray(values, dtype=float), t.shape)
    years = year_of(t)
    out = np.empty(t.shape, dtype=float)
    for y in np.unique(years):
        m = years == y
        anchor = int(t[m].flat[0])
        out[m] = getattr(model, method)(anchor, values[m])
    return out


def delay_cdf(model, t, w):
    """H_t(w), vectorized over accident days for either model variant."""
    if isinstance(model, WeibullDelayModel):
        return model.cdf(np.asarray(t), np.asarray(w, dtype=float))
    return _per_year(model, t, w, "cdf")


def delay_density(model, t, w):
    """dH_t/dw, vectorized over accident days (smooth variant only)."""
    if isinstance(model, WeibullDelayModel):
        return model.density(np.asarray(t), np.asarray(w, dtype=float))
    return model.density(t, w)  # raises: cohorts carry no density


def delay_quantile(model, t, u):
    """H_t^{-1}(u), vectorized over accident days for either model variant."""
    if isinstance(model, WeibullDelayModel):
        return model.quantile(np.asarray(t), np.asarray(u, dtype=float))
    return _per_year(model, t, u, "quantile")


def delay_model_from_dict(d):
    if d["variant"] == "weibull_tv":
        return WeibullDelayModel(d["shape"], d["c0"], d["c1"], d.get("se", {}))
    if d["variant"] == "empirical_cohort":
        return EmpiricalDelayModel(
            {int(y): np.sort(np.asarray(v, dtype=float)) for y, v in d["cohorts"].items()}
        )
    raise ValueError(f"unknown delay variant {d['variant']!r}")


def _interval_negloglik(params, t_years, w_days, fix_c1):
    k, c0 = params[0], params[1]
    c1 = 0.0 if fix_c1 else params[2]
    if k <= 0:
        return np.inf
    with np.errstate(over="ignore"):
        lam = np.exp(c0 + c1 * t_years)
        z_lo = (w_days / lam) ** k
        z_hi = ((w_days + 1.0) / lam) ** k
        # P[w <= W < w+1] = exp(-z_lo) - exp(-z_hi), in log space
        mass = np.exp(-z_lo) - np.exp(-z_hi)
    mass = np.maximum(mass, 1e-300)
    return -float(np.sum(np.log(mass)))


def fit_delay(portfolio, variant: str = "weibull_tv", min_cohort: int = 30):
    """Fit a reporting-delay model on the reported claims of a portfolio.

    weibull_tv: interval-censored ML over (shape, c0, c1) with c1 <= 0 enforced
    by the optimizer bounds (boundary projection). A single-accident-year
    portfolio cannot identify c1; it is fixed to 0 with a warning.

    empirical_cohort: per-accident-year delay samples. A year with fewer
    than min_cohort claims merges forward with the years after it until the
    group reaches min_cohort; a short tail of years joins the group before
    it. Every year of a group shares the group's delays; merges warn.
    """
    if len(portfolio) < 100:
        raise ValueError(f"need at least 100 reported claims, got {len(portfolio)}")
    t_days = portfolio.accident_days.astype(float)
    w_days = (portfolio.reporting_days - portfolio.accident_days).astype(float)
    years = year_of(portfolio.accident_days)

    if variant == "empirical_cohort":
        groups, pending, n = [], [], 0
        uniq, counts = np.unique(years, return_counts=True)
        for y, count in zip(uniq.tolist(), counts.tolist()):
            pending.append(y)
            n += count
            if n >= min_cohort:
                if len(pending) > 1:
                    warnings.warn(
                        f"delay cohorts {pending} merged (fewer than {min_cohort} claims)",
                        stacklevel=2,
                    )
                groups.append(pending)
                pending, n = [], 0
        if pending and groups:
            warnings.warn(
                f"delay cohorts {pending} merged into previous year group "
                f"{groups[-1]} (fewer than {min_cohort} claims)",
                stacklevel=2,
            )
            groups[-1] = groups[-1] + pending
        elif pending:
            groups.append(pending)
        cohorts = {}
        for group in groups:
            merged = np.sort(w_days[np.isin(years, group)])
            cohorts.update(dict.fromkeys(group, merged))
        return EmpiricalDelayModel(cohorts)

    if variant != "weibull_tv":
        raise ValueError(f"unknown delay variant {variant!r}")

    t_years = t_days / 365.25
    single_year = np.unique(years).size == 1
    if single_year:
        warnings.warn(
            "single accident year: delay trend c1 not identifiable, fixed to 0",
            stacklevel=2,
        )

    w_mean = max(float(np.mean(w_days)) + 0.5, 1.0)
    x0 = [1.0, math.log(w_mean)]
    bounds = [(1e-2, 50.0), (-10.0, 15.0)]
    if not single_year:
        x0.append(-1e-3)
        bounds.append((-5.0, 0.0))

    nll = lambda x: _interval_negloglik(x, t_years, w_days, single_year)
    res = optimize.minimize(nll, x0=x0, method="L-BFGS-B", bounds=bounds)
    k, c0 = float(res.x[0]), float(res.x[1])
    c1 = 0.0 if single_year else float(res.x[2])
    se_vals = observed_info_se(nll, res.x)
    se = {"shape": float(se_vals[0]), "c0": float(se_vals[1])}
    if not single_year:
        se["c1"] = float(se_vals[2])
    return WeibullDelayModel(k, c0, c1, se)
