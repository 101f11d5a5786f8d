"""Within-claim payment counts: an inhomogeneous Poisson process in claim time.

Claim time tau is measured in years since the reporting date. Both intensity
families decay monotonically, payments thin out as the claim ages:

* exponential: rate(tau) = lam0 * exp(-beta * tau)
* power:       rate(tau) = lam0 * (1 + tau)^(-beta), beta > 1

Both have closed-form cumulative intensities with closed-form inverses, and
both take parameter arrays that broadcast against tau, one value per row, as
the reserve engine's batches of redrawn models use them. The
simulation engine places a new claim's payment times given its count through
the inverse (reserving._place_payments), and reads the RBNS means of each
calendar period off the cumulative at the period's edges
(reserving._bucket_means). The fit (fit_intensity) reads the payment times
only through two sufficient statistics of the rate, and optimizes with the
likelihood's closed-form score.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .fitutil import cov_factor, mle, redraw, standard_errors, warn_unconverged


@dataclass(frozen=True)
class ExponentialDecay:
    lam0: float
    beta: float

    REDRAW_BOUNDS = {"lam0": (1e-6, math.inf), "beta": (1e-6, math.inf)}

    def __post_init__(self):
        if not (np.all(self.lam0 > 0) and np.all(self.beta > 0)):
            raise ValueError("exponential decay needs lam0 > 0 and beta > 0")

    def cumulative(self, tau):
        tau = np.asarray(tau, dtype=float)
        return self.lam0 * -np.expm1(-self.beta * tau) / self.beta

    def cumulative_inv(self, x):
        x = np.asarray(x, dtype=float)
        return -np.log1p(-self.beta * x / self.lam0) / self.beta

    def to_dict(self):
        return {"family": "exponential", "lam0": self.lam0, "beta": self.beta}


@dataclass(frozen=True)
class PowerDecay:
    lam0: float
    beta: float

    REDRAW_BOUNDS = {"lam0": (1e-6, math.inf), "beta": (1.0 + 1e-6, math.inf)}

    def __post_init__(self):
        if not (np.all(self.lam0 > 0) and np.all(self.beta > 1)):
            raise ValueError("power decay needs lam0 > 0 and beta > 1 (finite total)")

    def cumulative(self, tau):
        tau = np.asarray(tau, dtype=float)
        return self.lam0 * (np.power(1.0 + tau, 1.0 - self.beta) - 1.0) / (1.0 - self.beta)

    def cumulative_inv(self, x):
        x = np.asarray(x, dtype=float)
        return np.power(1.0 - x * (self.beta - 1.0) / self.lam0, 1.0 / (1.0 - self.beta)) - 1.0

    def to_dict(self):
        return {"family": "power", "lam0": self.lam0, "beta": self.beta}


INTENSITY_FAMILIES = {"exponential": ExponentialDecay, "power": PowerDecay}


def intensity_from_dict(d):
    cls = INTENSITY_FAMILIES.get(d["family"])
    if cls is None:
        raise ValueError(f"unknown intensity family {d['family']!r}")
    return cls(d["lam0"], d["beta"])


@dataclass(frozen=True)
class CountProcess:
    """Poisson payment-count law N(tau) with mean Lambda(tau)."""

    intensity: object
    se: dict = field(default_factory=dict)
    cov: tuple = ()  # (lam0, beta) covariance rows from the observed information
    # cov's redraw factor (fitutil.cov_factor), built once with the process;
    # None when cov is empty or not finite, and the redraw uses se
    factor: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.factor is None and self.cov and np.all(np.isfinite(self.cov)):
            label = f"{type(self.intensity).__name__} (lam0, beta)"
            object.__setattr__(self, "factor", cov_factor(self.cov, label))

    def perturbed(self, rng):
        """The intensity redrawn from the joint covariance, or from se without one."""
        return replace(self, intensity=redraw(self.intensity, rng, self.se, self.factor))

    def count_cdf(self, tau, n):
        """Q_tau(n) = P[N(tau) <= n]; n = -1 gives 0."""
        n = np.asarray(n, dtype=float)
        lam = self.intensity.cumulative(tau)
        out = special.pdtr(np.maximum(n, 0.0), np.maximum(lam, 0.0))
        return np.where(n < 0, 0.0, out)

    def to_dict(self):
        return {
            "intensity": self.intensity.to_dict(),
            "se": dict(self.se),
            "cov": [list(row) for row in self.cov],
        }

    @classmethod
    def from_dict(cls, d):
        cov = tuple(tuple(row) for row in d.get("cov", []))
        return cls(intensity_from_dict(d["intensity"]), d.get("se", {}), cov)


def _intensity_nll_score(params, n_events, event_stat, horizons, power):
    """The negative log-likelihood of a payment intensity and its gradient in
    (lam0, beta), in one pass over the horizons.

    The event term sum(log rate(tau)) reduces to n_events * log(lam0) -
    beta * event_stat, event_stat being sum(tau) for the exponential and
    sum(log1p(tau)) for the power family. Both cumulatives are
    lam0 * g(b, x) with g(b, x) = (1 - exp(-b x)) / b: b = beta and x the
    horizon for the exponential, b = beta - 1 and x = log1p(horizon) for the
    power family, so horizons are passed as x.
    """
    lam0, beta = params[0], params[1]
    b = beta - 1.0 if power else beta
    bx = b * horizons
    e = np.exp(-bx)
    g = -np.expm1(-bx) / b
    cum = float(np.sum(g))
    d_cum = float(np.sum(horizons * e - g)) / b  # sum of d g / d b
    nll = -n_events * math.log(lam0) + beta * event_stat + lam0 * cum
    return nll, np.array([cum - n_events / lam0, event_stat + lam0 * d_cum])


def _intensity_optimum(n_events, event_stat, horizons, family, lam0_hint):
    """The L-BFGS-B optimum of one family and its objective."""
    power = family == "power"
    x = np.log1p(horizons) if power else horizons
    nll = lambda p: _intensity_nll_score(p, n_events, event_stat, x, power)
    lo = 1.0 + 1e-6 if power else 1e-6
    x0 = [lam0_hint * 2.0, 2.0 if power else 1.0]
    opt = mle(nll, [x0], [(1e-8, 1e4), (lo, 60.0)])
    return opt, nll


def fit_intensity(events, horizons, family: str = "exponential"):
    """ML fit of a decaying payment intensity.

    Parameters
    ----------
    events : array
        Every claim's payment times in years since its reporting, flat.
    horizons : array
        Per-claim observation horizons (years from reporting to the cutoff).
    family : "exponential", "power" or "auto"

    The log-likelihood is sum(log rate(tau_event)) - sum(Lambda(horizon)).
    Its event term depends on the events only through two sufficient
    statistics, their count and sum(tau) (exponential) or sum(log1p(tau))
    (power), taken once, so each evaluation reads only the horizons; the
    optimizer gets the closed-form gradient. "auto" fits both families and
    keeps the lower AIC (both have two parameters, so the higher
    log-likelihood; the first family on a tie).

    Returns (CountProcess, aic), aic mapping each family fitted to its AIC.
    The process carries observed-information standard errors; a boundary
    solution of the kept family flags the fit with se NaN and a warning.
    """
    events = np.asarray(events, dtype=float)
    horizons = np.asarray(horizons, dtype=float)
    if np.any(horizons < 0):
        raise ValueError("horizons must be nonnegative")
    if events.size == 0:
        raise ValueError("no payment events: intensity not identifiable")
    if horizons.sum() <= 0:
        raise ValueError("zero total exposure: intensity not identifiable")
    if family != "auto" and family not in INTENSITY_FAMILIES:
        raise ValueError(f"unknown intensity family {family!r}")

    lam0_hint = max(events.size / horizons.sum(), 1e-6)
    stats = {"exponential": np.sum(events), "power": np.sum(np.log1p(events))}
    names = tuple(INTENSITY_FAMILIES) if family == "auto" else (family,)
    fits = {}
    for name in names:
        opt, nll = _intensity_optimum(events.size, stats[name], horizons, name, lam0_hint)
        warn_unconverged(opt, f"{name} intensity fit")
        fits[name] = opt, nll
    aic = {name: 4.0 - 2.0 * opt.loglik for name, (opt, _) in fits.items()}
    family = min(aic, key=aic.get)
    opt, nll = fits[family]
    x = opt.x
    if opt.at_bound.any():
        warnings.warn(
            f"{family} intensity fit at parameter bound (lam0={x[0]:.4g}, beta={x[1]:.4g}); "
            "estimates flagged, standard errors unreliable",
            stacklevel=2,
        )
        cov, se = None, {"lam0": float("nan"), "beta": float("nan")}
    else:
        cov, se = standard_errors(nll, x, ("lam0", "beta"))
    cov_t = () if cov is None else tuple(tuple(float(v) for v in row) for row in cov)
    cls = INTENSITY_FAMILIES[family]
    return CountProcess(cls(float(x[0]), float(x[1])), se, cov_t), aic
