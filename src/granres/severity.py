"""Payment amount models: iid severities and an order-autoregressive chain.

The iid variants draw every payment of a claim from one distribution. The
order-autoregressive variant draws the first payment from a base
distribution and each later payment as a damped multiple of its predecessor
plus additive noise on the original scale,

    X_j = alpha_j * X_{j-1} + eps_j,   eps_j ~ Normal(0, sigma_eps),

floored at a small positive amount. alpha_j is estimated separately per
payment order with sparse tail orders pooled; the last coefficient extends
to all deeper orders. With sigma_eps = 0 and all alpha_j = a the chain is a
deterministic geometric run-off, which is handy for calibration checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize, special

from .fitutil import redraw, standard_errors


class _IidSeverity:
    """Every payment of a claim drawn independently from one law."""

    def perturbed(self, rng):
        return redraw(self, rng, self.se)

    def continue_flat(self, counts, k_obs, last_obs, rng) -> np.ndarray:
        """Future amounts, claim-major; independent draws ignore the history."""
        return self.sample(int(np.sum(counts)), rng)


@dataclass(frozen=True)
class LogNormalSeverity(_IidSeverity):
    mu: float
    sigma: float
    se: dict = field(default_factory=dict, compare=False)

    REDRAW_BOUNDS = {"mu": (-math.inf, math.inf), "sigma": (1e-3, math.inf)}

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def mean(self) -> float:
        return float(np.exp(self.mu + 0.5 * self.sigma**2))

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (np.log(x) - self.mu) / self.sigma
            out = -np.log(x * self.sigma * np.sqrt(2 * np.pi)) - 0.5 * z * z
        return np.where(x > 0, out, -np.inf)

    def sample(self, n, rng):
        return rng.lognormal(self.mu, self.sigma, n)

    def to_dict(self) -> dict:
        return {"family": "lognormal", "mu": float(self.mu), "sigma": float(self.sigma),
                "se": dict(self.se)}


@dataclass(frozen=True)
class GammaSeverity(_IidSeverity):
    shape: float
    scale: float
    se: dict = field(default_factory=dict, compare=False)

    REDRAW_BOUNDS = {"shape": (1e-6, math.inf), "scale": (1e-9, math.inf)}

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")

    def mean(self) -> float:
        return float(self.shape * self.scale)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (
                (self.shape - 1.0) * np.log(x)
                - x / self.scale
                - special.gammaln(self.shape)
                - self.shape * np.log(self.scale)
            )
        return np.where(x > 0, out, -np.inf)

    def sample(self, n, rng):
        return rng.gamma(self.shape, self.scale, n)

    def to_dict(self) -> dict:
        return {"family": "gamma", "shape": float(self.shape), "scale": float(self.scale),
                "se": dict(self.se)}


def fit_lognormal(amounts) -> LogNormalSeverity:
    x = _positive(amounts, "lognormal")
    logs = np.log(x)
    mu = float(np.mean(logs))
    sigma = float(np.std(logs))
    if sigma <= 0:
        raise ValueError("amounts are constant; lognormal fit is degenerate")
    n = x.size
    return LogNormalSeverity(
        mu, sigma, se={"mu": sigma / np.sqrt(n), "sigma": sigma / np.sqrt(2.0 * n)}
    )


def _gamma_nll_score(params, x):
    """-sum GammaSeverity(shape, scale).logpdf(x) and its gradient in
    (shape, scale)."""
    shape, scale = params
    value = -float(np.sum(GammaSeverity(shape, scale).logpdf(x)))
    d_shape = np.sum(np.log(x)) - x.size * (special.digamma(shape) + np.log(scale))
    d_scale = np.sum(x) / scale**2 - x.size * shape / scale
    return value, -np.array([d_shape, d_scale])


def fit_gamma(amounts) -> GammaSeverity:
    x = _positive(amounts, "gamma")
    m = float(np.mean(x))
    s = float(np.log(m) - np.mean(np.log(x)))  # > 0 unless the amounts are constant
    if not s > 0:
        raise ValueError("amounts are constant; gamma fit is degenerate")
    # the shape solves the profile score log k - digamma(k) = s; as
    # 1/(2k) < log k - digamma(k) < 1/k, the root lies in (1/(2s), 1/s)
    f = lambda t: t - special.digamma(math.exp(t)) - s
    k = math.exp(optimize.brentq(f, math.log(0.25 / s), -math.log(s), xtol=1e-15))
    _, se = standard_errors(lambda p: _gamma_nll_score(p, x), [k, m / k], ("shape", "scale"))
    return GammaSeverity(k, m / k, se=se)


def _positive(amounts, label):
    x = np.asarray(amounts, dtype=float)
    bad = ~(x > 0)
    if bad.any():
        warnings.warn(
            f"dropping {int(bad.sum())} non-positive amounts from the {label} fit"
        )
        x = x[~bad]
    if x.size < 50:
        raise ValueError("need at least 50 positive amounts")
    return x


IID_SEVERITIES = {"lognormal": fit_lognormal, "gamma": fit_gamma}


# the smallest amount a chained payment can take
_AR_FLOOR = 0.01


@dataclass(frozen=True)
class OrderARSeverity:
    """First payment from ``base``; later payments damped plus centered normal
    noise of scale sigma_eps, floored at _AR_FLOOR."""

    base: LogNormalSeverity | GammaSeverity
    alphas: tuple
    sigma_eps: float
    se: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.alphas) == 0:
            raise ValueError("need at least one autoregressive coefficient")
        if self.sigma_eps < 0:
            raise ValueError("sigma_eps must be >= 0")

    def _innov(self, k: int, rng) -> np.ndarray:
        if self.sigma_eps > 0:
            return rng.normal(0.0, self.sigma_eps, k)
        return np.zeros(k)

    def perturbed(self, rng):
        """Parameter risk redraws the first-payment law; the chain stays put."""
        return replace(self, base=self.base.perturbed(rng))

    def continue_flat(self, counts, k_obs, last_obs, rng) -> np.ndarray:
        """Future amounts for claims with observed payment history.

        counts[i] future payments for claim i; k_obs[i] payments already
        made; last_obs[i] the most recent observed amount (ignored when
        k_obs[i] = 0, where the chain starts fresh from the base
        distribution). k_obs and last_obs broadcast against counts. The
        flat output lists claim 0's payments first, then claim 1's, and so
        on; runtime scales with the deepest chain, not the number of claims.
        """
        counts = np.asarray(counts, dtype=np.int64)
        k_obs = np.broadcast_to(np.asarray(k_obs, dtype=np.int64), counts.shape)
        last_obs = np.broadcast_to(np.asarray(last_obs, dtype=float), counts.shape)
        total = int(counts.sum())
        flat = np.empty(total)
        if total == 0:
            return flat
        offsets = np.cumsum(counts) - counts
        cur = np.where(k_obs > 0, last_obs, 0.0)
        alpha_arr = np.asarray(self.alphas)
        max_n = int(counts.max())
        for j in range(1, max_n + 1):
            active = counts >= j
            fresh = active & (k_obs == 0) & (j == 1)
            if fresh.any():
                cur[fresh] = self.base.sample(int(fresh.sum()), rng)
            cont = active & ~fresh
            if cont.any():
                order = k_obs[cont] + j - 1  # global order of the predecessor
                a = alpha_arr[np.minimum(order, alpha_arr.size) - 1]
                nxt = a * cur[cont] + self._innov(int(cont.sum()), rng)
                cur[cont] = np.maximum(nxt, _AR_FLOOR)
            flat[offsets[active] + (j - 1)] = cur[active]
        return flat

    def to_dict(self) -> dict:
        return {
            "family": "order_ar",
            "base": self.base.to_dict(),
            "alphas": [float(a) for a in self.alphas],
            "sigma_eps": float(self.sigma_eps),
            "se": dict(self.se),
        }


def simulate_amounts(model, counts, rng) -> np.ndarray:
    """Flat claim-major amounts for new claims, either severity structure."""
    return model.continue_flat(counts, 0, 0.0, rng)


# order-AR pooling: orders from _MAX_ORDER on share one coefficient, and an
# order with fewer than _MIN_OBS transitions pools with the next ones
_MAX_ORDER = 5
_MIN_OBS = 50


def fit_order_ar(amounts, counts, base_family: str = "lognormal") -> OrderARSeverity:
    """Least-squares coefficients per payment order, pooled noise scale.

    amounts lists the payments claim by claim in payment-time order, counts[i]
    of them for claim i. Transitions at order j (payment j to j+1) with fewer
    than _MIN_OBS observations pool forward with the next orders until the
    pooled bucket holds _MIN_OBS; the deepest order closes the last bucket
    whatever its size. Orders from _MAX_ORDER on share one bucket, so
    _MAX_ORDER caps the number of distinct coefficients.
    """
    counts = np.asarray(counts, dtype=np.int64)
    flat = np.asarray(amounts, dtype=float)
    # order[k] = j for the payment j places after its claim's first
    order = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    base = IID_SEVERITIES[base_family](flat[order == 0])
    later = np.flatnonzero(order > 0)
    if not later.size:
        raise ValueError("no multi-payment claims; cannot fit the chain")
    prev, nxt, order = flat[later - 1], flat[later], order[later]

    deepest = int(order.max())
    buckets = []  # list of boolean masks, one per fitted coefficient
    pending = np.zeros(order.size, dtype=bool)
    for j in range(1, deepest + 1):
        mask = pending | (order == j)
        if j < deepest and (j >= _MAX_ORDER or int(mask.sum()) < _MIN_OBS):
            pending = mask
            continue
        buckets.append(mask)
        pending = np.zeros(order.size, dtype=bool)

    coefs, denoms, resid = [], [], []
    for mask in buckets:
        xp, xn = prev[mask], nxt[mask]
        denom = float(np.sum(xp * xp))
        a = float(np.sum(xp * xn) / denom)
        coefs.append(a)
        denoms.append(denom)
        resid.append(xn - a * xp)
    resid = np.concatenate(resid)
    dof = max(resid.size - len(coefs), 1)
    sigma_eps = float(np.sqrt(np.sum(resid**2) / dof))

    # expand bucket coefficients to one alpha per order, so pooling of a
    # sparse interior order can never shift deeper orders' coefficients
    per_order = np.empty(min(deepest, _MAX_ORDER), dtype=float)
    per_order_den = np.empty(per_order.size, dtype=float)
    for a, denom, mask in zip(coefs, denoms, buckets):
        covered = np.unique(order[mask])
        covered = covered[covered <= per_order.size] - 1
        per_order[covered], per_order_den[covered] = a, denom
    se = {
        f"alpha_{j + 1}": (
            sigma_eps / np.sqrt(per_order_den[j]) if per_order_den[j] > 0 else np.nan
        )
        for j in range(per_order.size)
    }
    se["sigma_eps"] = sigma_eps / np.sqrt(2.0 * dof)
    return OrderARSeverity(base, tuple(float(a) for a in per_order), sigma_eps, se=se)


def fit_severity(sub, family: str, structure: str):
    """Fit a severity model to the payments of one claim type's claims."""
    if structure == "iid":
        return IID_SEVERITIES[family](sub.pay_amounts)
    if structure == "order_ar":
        return fit_order_ar(sub.pay_amounts, np.diff(sub.pay_ptr), base_family=family)
    raise ValueError(f"unknown severity structure {structure!r}")


def severity_from_dict(d: dict):
    fam = d["family"]
    if fam == "lognormal":
        return LogNormalSeverity(d["mu"], d["sigma"], d.get("se", {}))
    if fam == "gamma":
        return GammaSeverity(d["shape"], d["scale"], d.get("se", {}))
    if fam == "order_ar":
        return OrderARSeverity(
            base=severity_from_dict(d["base"]),
            alphas=tuple(d["alphas"]),
            sigma_eps=d["sigma_eps"],
            se=d.get("se", {}),
        )
    raise ValueError(f"unknown severity family {fam!r}")

