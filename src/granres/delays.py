"""Reporting-delay model.

The model is a Weibull with constant shape and a log-linear scale in accident
time, scale(t) = exp(c0 + c1 * t_years) with c1 <= 0 so the mean delay
cannot grow over calendar time. Delays are continuous in days; observed
delays are day-censored, so the fit likelihood uses interval masses
H_t(w+1) - H_t(w), and returns its closed-form score in (shape, c0, c1) with
its value for the optimizer and the observed information.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .daycount import year_of, years_since_epoch
from .fitutil import mle, redraw, standard_errors


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


# interval masses are floored here; a floored mass adds nothing to the score
_MASS_FLOOR = 1e-300
# log z is capped here: exp(-z) is 0 long before, and z * log(z) stays finite
_LOG_Z_CAP = 600.0


def _interval_nll_score(params, t_years, log_w, log_w1):
    """The negative log-likelihood of day-censored delays and its gradient in
    (shape, c0[, c1]), in one pass; without c1 the trend is fixed to 0.

    log_w and log_w1 are log(w) and log(w + 1) of the whole-day delays w
    (log 0 = -inf). With z = (w / scale)^shape and d = z_hi - z_lo, each
    claim's mass P[w <= W < w+1] = exp(-z_lo) - exp(-z_hi) is taken as
    exp(-z_lo) * (1 - exp(-d)), which keeps its precision when both z are
    small, and its log has the derivative -z_lo' + (z_hi' - z_lo') / expm1(d),
    where z' = -shape * z in c0, -shape * z * t in c1 and z * log(w / scale)
    in shape.
    """
    k, c0 = params[0], params[1]
    c1 = params[2] if len(params) > 2 else 0.0
    log_lam = c0 + c1 * t_years
    x_lo, x_hi = log_w - log_lam, log_w1 - log_lam  # log(w / scale), log((w + 1) / scale)
    z_lo = np.exp(np.minimum(k * x_lo, _LOG_Z_CAP))  # 0 at w = 0
    z_hi = np.exp(np.minimum(k * x_hi, _LOG_Z_CAP))
    d = z_hi - z_lo
    mass = np.exp(-z_lo) * -np.expm1(-d)
    live = mass > _MASS_FLOOR
    with np.errstate(over="ignore"):  # expm1(d) = inf gives r = 0
        r = np.where(live, 1.0 / np.where(live, np.expm1(d), 1.0), 0.0)
    with np.errstate(invalid="ignore"):  # 0 * -inf at w = 0, dropped by the where
        s_lo = np.where(z_lo > 0.0, z_lo * x_lo, 0.0)
    s_hi = z_hi * x_hi
    d_shape = np.where(live, (s_hi - s_lo) * r - s_lo, 0.0)
    d_c0 = np.where(live, k * (z_lo - d * r), 0.0)
    grad = [-float(np.sum(d_shape)), -float(np.sum(d_c0))]
    if len(params) > 2:
        grad.append(-float(np.sum(d_c0 * t_years)))
    return -float(np.sum(np.log(np.maximum(mass, _MASS_FLOOR)))), np.array(grad)


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

    log_w = np.log(w_days, out=np.full_like(w_days, -np.inf), where=w_days > 0)
    log_w1 = np.log1p(w_days)
    nll = lambda x: _interval_nll_score(x, t_years, log_w, log_w1)
    opt = mle(nll, [x0], bounds)
    if not opt.success:
        raise ValueError(f"Weibull delay fit did not converge: {opt.message}")
    k, c0 = float(opt.x[0]), float(opt.x[1])
    c1 = 0.0 if single_year else float(opt.x[2])
    _, se = standard_errors(nll, opt.x, ("shape", "c0", "c1")[: opt.x.size])
    return WeibullDelayModel(k, c0, c1, se)
