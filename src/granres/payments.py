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
(reserving._bucket_means).
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

    def rate(self, tau):
        tau = np.asarray(tau, dtype=float)
        return self.lam0 * np.exp(-self.beta * tau)

    def cumulative(self, tau):
        tau = np.asarray(tau, dtype=float)
        return self.lam0 * -np.expm1(-self.beta * tau) / self.beta

    def cumulative_inv(self, x):
        x = np.asarray(x, dtype=float)
        return -np.log1p(-self.beta * x / self.lam0) / self.beta

    def total(self):
        return self.lam0 / self.beta

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

    def rate(self, tau):
        tau = np.asarray(tau, dtype=float)
        return self.lam0 * np.power(1.0 + tau, -self.beta)

    def cumulative(self, tau):
        tau = np.asarray(tau, dtype=float)
        return self.lam0 * (np.power(1.0 + tau, 1.0 - self.beta) - 1.0) / (1.0 - self.beta)

    def cumulative_inv(self, x):
        x = np.asarray(x, dtype=float)
        return np.power(1.0 - x * (self.beta - 1.0) / self.lam0, 1.0 / (1.0 - self.beta)) - 1.0

    def total(self):
        return self.lam0 / (self.beta - 1.0)

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

    def count_logpmf(self, tau, n):
        lam = self.intensity.cumulative(tau)
        n = np.asarray(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                n < 0,
                -np.inf,
                np.where(
                    lam > 0,
                    n * np.log(np.maximum(lam, 1e-300)) - lam - special.gammaln(n + 1.0),
                    np.where(n == 0, 0.0, -np.inf),
                ),
            )
        return out

    def perturbed(self, rng):
        """The intensity redrawn from the joint covariance, or from se without one."""
        return replace(self, intensity=redraw(self.intensity, rng, self.se, self.factor))

    def count_pmf(self, tau, n):
        return np.exp(self.count_logpmf(tau, n))

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


def fit_intensity(events, horizons, family: str = "exponential"):
    """ML fit of a decaying payment intensity.

    Parameters
    ----------
    events : array
        Every claim's payment times in years since its reporting, flat.
    horizons : array
        Per-claim observation horizons (years from reporting to the cutoff).
    family : "exponential" or "power"

    The log-likelihood is sum(log rate(tau_event)) - sum(Lambda(horizon)),
    which needs no grouping of events by claim. Returns a CountProcess with
    observed-information standard errors; a boundary solution flags the fit
    with se NaN and a warning.
    """
    events = np.asarray(events, dtype=float)
    horizons = np.asarray(horizons, dtype=float)
    if np.any(horizons < 0):
        raise ValueError("horizons must be nonnegative")
    if events.size == 0:
        raise ValueError("no payment events: intensity not identifiable")
    if horizons.sum() <= 0:
        raise ValueError("zero total exposure: intensity not identifiable")
    cls = INTENSITY_FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"unknown intensity family {family!r}")

    lam0_hint = max(events.size / horizons.sum(), 1e-6)
    if family == "exponential":
        bounds = [(1e-8, 1e4), (1e-6, 60.0)]
        x0 = [lam0_hint * 2.0, 1.0]
    else:
        bounds = [(1e-8, 1e4), (1.0 + 1e-6, 60.0)]
        x0 = [lam0_hint * 2.0, 2.0]

    def nll(x):
        inten = cls(x[0], x[1])
        return -float(
            np.sum(np.log(np.maximum(inten.rate(events), 1e-300)))
            - np.sum(inten.cumulative(horizons))
        )

    opt = mle(nll, [x0], bounds)
    warn_unconverged(opt, "intensity fit")
    x = opt.x
    if opt.at_bound.any():
        warnings.warn(
            f"intensity fit at parameter bound (lam0={x[0]:.4g}, beta={x[1]:.4g}); "
            "estimates flagged, standard errors unreliable",
            stacklevel=2,
        )
        cov, se = None, {"lam0": float("nan"), "beta": float("nan")}
    else:
        cov, se = standard_errors(nll, x, ("lam0", "beta"))
    cov_t = () if cov is None else tuple(tuple(float(v) for v in row) for row in cov)
    return CountProcess(cls(float(x[0]), float(x[1])), se, cov_t)

