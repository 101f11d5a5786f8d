"""Reporting-delay model.

The model is a Weibull with constant shape and a log-linear scale in accident
time, scale(t) = exp(c0 + c1 * t_years) with c1 <= 0 so the mean delay
cannot grow over calendar time. Delays are continuous in days; observed
delays are day-censored, so the fit likelihood uses interval masses
H_t(w+1) - H_t(w).
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
    """shape > 0; scale(t) = exp(c0 + c1 * years_since_epoch(t)), c1 <= 0.

    The parameters may also be arrays that broadcast against t and u, one
    value per row: the reserve engine evaluates the redrawn models of a
    batch of scenarios that way.
    """

    shape: float
    c0: float
    c1: float
    se: dict = field(default_factory=dict)

    REDRAW_BOUNDS = {"shape": (0.05, math.inf), "c0": (-math.inf, math.inf),
                     "c1": (-math.inf, 0.0)}

    def __post_init__(self):
        if not np.all(self.shape > 0):
            raise ValueError("Weibull shape must be positive")
        if np.any(self.c1 > 0):
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


def delay_score(model, t, w):
    """The uniform score H_t(w + 0.5) of delays observed as w whole days: the
    cdf at the midpoint of the day each delay was censored to."""
    return model.cdf(t, np.asarray(w, dtype=float) + 0.5)


def delay_quantile(model, t, u):
    """H_t^{-1}(u), vectorized over accident days."""
    return model.quantile(t, u)


def delay_model_from_dict(d):
    if d["variant"] != "weibull_tv":
        raise ValueError(f"unknown delay variant {d['variant']!r}")
    return WeibullDelayModel(d["shape"], d["c0"], d["c1"], d.get("se", {}))


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


def fit_delay(portfolio):
    """Fit the reporting-delay model on the reported claims of a portfolio.

    Interval-censored ML over (shape, c0, c1) with c1 <= 0 enforced by the
    optimizer bounds (boundary projection). A single-accident-year portfolio
    cannot identify c1; it is fixed to 0 with a warning.
    """
    if len(portfolio) < 100:
        raise ValueError(f"need at least 100 reported claims, got {len(portfolio)}")
    t_days = portfolio.accident_days.astype(float)
    w_days = (portfolio.reporting_days - portfolio.accident_days).astype(float)
    years = year_of(portfolio.accident_days)
    t_years = years_since_epoch(t_days)
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
    if not res.success:
        raise ValueError(f"Weibull delay fit did not converge: {res.message}")
    k, c0 = float(res.x[0]), float(res.x[1])
    c1 = 0.0 if single_year else float(res.x[2])
    se_vals = observed_info_se(nll, res.x)
    se = {"shape": float(se_vals[0]), "c0": float(se_vals[1])}
    if not single_year:
        se["c1"] = float(se_vals[2])
    return WeibullDelayModel(k, c0, c1, se)
