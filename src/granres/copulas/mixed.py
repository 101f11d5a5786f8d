"""Joint model for (reporting delay, paid-claim count at a development horizon).

The delay W is continuous with accident-time-dependent cdf H_t; the count
N(x) at development horizon x is discrete with cdf Q_x. A copula C couples
the two margins. Because the count margin is discrete, the joint density in
w with the count fixed at n is a difference of conditional copula cdfs:

    f(w, n) = dens_t(w) * [ h(H_t(w), Q_x(n)) - h(H_t(w), Q_x(n - 1)) ]

where h(u, v) = dC(u, v)/du. Summing over n collapses the bracket to one, so
the w-margin is recovered exactly whatever the copula.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize, stats

from ..daycount import DAYS_PER_YEAR
from ..delays import delay_cdf, delay_density
from ..fitutil import observed_info_se
from .dynamics import CopulaSpec, TimeVaryingParam
from .families import FAMILIES, family

_FLOOR = 1e-300


def sklar_joint_cdf(delay_model, count_process, spec, t, w, horizon, n):
    """P[W <= w, N(horizon) <= n] for a claim from accident day t."""
    n = np.asarray(n)
    u = np.asarray(delay_cdf(delay_model, t, w), dtype=float)
    q = count_process.count_cdf(horizon, np.maximum(n, 0))
    fam = family(spec.family)
    theta = spec.theta_at(np.asarray(horizon, dtype=float))
    out = np.asarray(fam.cdf(u, q, theta), dtype=float)
    return np.where(n < 0, 0.0, out)


def mixed_density(delay_model, count_process, spec, t, w, horizon, n):
    """Joint density in w with the count fixed at n (see module docstring)."""
    w = np.asarray(w, dtype=float)
    n = np.asarray(n)
    u = np.asarray(delay_cdf(delay_model, t, w), dtype=float)
    q_hi = count_process.count_cdf(horizon, n)
    q_lo = count_process.count_cdf(horizon, n - 1)
    fam = family(spec.family)
    theta = spec.theta_at(np.asarray(horizon, dtype=float))
    bracket = fam.h(u, q_hi, theta) - fam.h(u, q_lo, theta)
    dens = np.asarray(delay_density(delay_model, t, w), dtype=float)
    return dens * np.clip(bracket, 0.0, None)


def count_quantile(u, horizon, count_process):
    """Smallest n with Q_horizon(n) >= u, vectorized."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    lam = np.asarray(count_process.intensity.cumulative(horizon), dtype=float)
    n = stats.poisson.ppf(np.clip(u, 1e-300, 1.0 - 1e-16), np.maximum(lam, 0.0))
    return np.maximum(np.nan_to_num(n, nan=0.0), 0.0).astype(np.int64)


def conditional_count_quantile(u, v, horizon, count_process, spec):
    """Smallest n with h(u, Q_horizon(n)) >= v, vectorized.

    This inverts the conditional count cdf given the delay's uniform score u,
    which is exactly how the coupled pair (W, N) is simulated. Under the
    independence copula h(u, q) = q, so it is the count quantile of v.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    horizon = np.broadcast_to(np.asarray(horizon, dtype=float), u.shape)
    if spec.family == "independence":
        return count_quantile(v, horizon, count_process)
    fam = family(spec.family)
    theta = np.broadcast_to(spec.theta_at(horizon), u.shape)
    lam = np.asarray(count_process.intensity.cumulative(horizon), dtype=float)
    out = np.zeros(u.shape, dtype=np.int64)
    todo = np.ones(u.shape, dtype=bool)
    cap = np.maximum(lam + 10.0 * np.sqrt(lam) + 20.0, 8.0).astype(np.int64)
    for _ in range(40):
        if not todo.any():
            break
        idx = np.flatnonzero(todo)
        hi = int(cap[idx].max())
        ns = np.arange(hi + 1)
        q = stats.poisson.cdf(ns[None, :], lam[idx, None])
        hmat = fam.h(u[idx, None], q, theta[idx, None])
        ok = hmat >= v[idx, None]
        found = ok.any(axis=1)
        out[idx[found]] = np.argmax(ok[found], axis=1)
        todo[idx[found]] = False
        cap[idx[~found]] *= 2
    else:
        out[todo] = cap[todo]
    return out


def copula_pairs(portfolio, claim_type=None):
    """Raw pairs (t, w, horizon, count) for copula estimation.

    One row per reported claim: accident day, observed delay in days, years
    from reporting to the data cutoff (the count's observation horizon), and
    the number of payments by the cutoff. Claims reported on the cutoff day
    itself carry no count information and are dropped.
    """
    sub = portfolio if claim_type is None else portfolio.by_type(claim_type)
    t = sub.accident_days
    w = sub.reporting_days - t
    horizon = (sub.data_cutoff - sub.reporting_days) / DAYS_PER_YEAR
    n = np.diff(sub.pay_ptr)
    keep = horizon > 0
    return t[keep], w[keep], horizon[keep], n[keep]


@dataclass(frozen=True)
class CopulaFit:
    spec: CopulaSpec
    loglik: float
    aic: float
    n_obs: int
    se: dict = field(default_factory=dict)
    aic_table: dict = field(default_factory=dict)


def _pair_loglik(u, q_hi, q_lo, fam, theta):
    bracket = fam.h(u, q_hi, theta) - fam.h(u, q_lo, theta)
    return float(np.sum(np.log(np.clip(bracket, _FLOOR, None))))


def fit_copula(
    pairs, delay_model, count_process, family_name="auto", time_varying=False
):
    """Maximum likelihood copula fit, margins held fixed (multistage style).

    pairs is the (t, w, horizon, n) tuple from copula_pairs. The delay enters
    through its marginal score at the censoring interval's midpoint,
    u = H_t(w + 0.5). family_name "auto" compares every family (independence
    included) by AIC on constant-parameter fits. With time_varying=True the
    selected family is refit with the link-scale decay map; the extra two
    parameters are kept only when they improve AIC.
    """
    t, w, horizon, n = pairs
    u = np.clip(
        np.asarray(
            delay_cdf(delay_model, np.asarray(t), np.asarray(w, dtype=float) + 0.5),
            dtype=float,
        ),
        1e-9,
        1 - 1e-9,
    )
    horizon = np.asarray(horizon, dtype=float)
    n = np.asarray(n)
    if u.size < 20:
        raise ValueError("need at least 20 pairs to fit a copula")
    q_hi = count_process.count_cdf(horizon, n)
    q_lo = count_process.count_cdf(horizon, n - 1)

    def static_fit(name):
        fam = FAMILIES[name]
        if name == "independence":
            ll = _pair_loglik(u, q_hi, q_lo, fam, None)
            return CopulaFit(CopulaSpec("independence"), ll, -2.0 * ll, u.size)
        lo, hi = fam.theta_bounds
        if name == "frank":
            starts = [-2.0, 2.0]
        elif name == "gumbel":
            starts = [1.5, 4.0]
        else:
            starts = [0.5, 3.0]

        def nll(x):
            th = float(x[0])
            if not lo <= th <= hi:  # information probes can step past a bound
                return np.inf
            return -_pair_loglik(u, q_hi, q_lo, fam, th)

        best = None
        for s in starts:
            res = optimize.minimize(
                nll, np.array([s]), method="L-BFGS-B", bounds=[(lo, hi)]
            )
            if best is None or res.fun < best.fun:
                best = res
        theta = float(best.x[0])
        ll = -float(best.fun)
        se = observed_info_se(nll, best.x)
        return CopulaFit(
            CopulaSpec(name, theta=theta),
            ll,
            2.0 - 2.0 * ll,
            u.size,
            se={"theta": float(se[0])},
        )

    if family_name == "auto":
        fits, caught = {}, {}
        for nm in FAMILIES:
            with warnings.catch_warnings(record=True) as caught[nm]:
                warnings.simplefilter("always")
                fits[nm] = static_fit(nm)
        table = {nm: f.aic for nm, f in fits.items()}
        chosen = min(table, key=table.get)
        # the candidates not chosen leave no trace: only the pick's warnings
        for w in caught[chosen]:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        base = replace(fits[chosen], aic_table=table)
    else:
        base = static_fit(family_name)
        base = replace(base, aic_table={family_name: base.aic})

    if not time_varying or base.spec.family == "independence":
        return base

    fam = FAMILIES[base.spec.family]
    lo, hi = fam.theta_bounds
    link_lo = float(fam.link(lo))
    link_hi = float(fam.link(hi))
    eta_hat = float(fam.link(base.spec.theta))

    def tv_nll(x):
        eta_inf, delta, kappa = x
        eta0 = eta_inf + delta
        pen = 0.0
        if eta0 > link_hi:
            pen = 1e5 * (eta0 - link_hi) ** 2
            eta0 = link_hi
        theta = fam.link_inv(eta_inf + (eta0 - eta_inf) * np.exp(-kappa * horizon))
        return -_pair_loglik(u, q_hi, q_lo, fam, theta) + pen

    span = link_hi - link_lo
    x0 = np.array([eta_hat, min(0.25 * span, 0.5), 1.0])
    res = optimize.minimize(
        tv_nll,
        x0,
        method="L-BFGS-B",
        bounds=[(link_lo, link_hi), (0.0, span), (0.0, 20.0)],
    )
    ll_tv = -float(res.fun)
    aic_tv = 6.0 - 2.0 * ll_tv
    if aic_tv >= base.aic:
        return base
    eta_inf, delta, kappa = (float(v) for v in res.x)
    se_vec = observed_info_se(tv_nll, res.x)
    if np.any(np.isnan(se_vec)):
        warnings.warn("time-varying copula information matrix not positive definite")
    dyn = TimeVaryingParam(
        eta0=min(eta_inf + delta, link_hi), eta_inf=eta_inf, kappa=kappa
    )
    spec = CopulaSpec(base.spec.family, dynamics=dyn)
    table = dict(base.aic_table)
    table[base.spec.family + "_tv"] = aic_tv
    return CopulaFit(
        spec,
        ll_tv,
        aic_tv,
        u.size,
        se={"eta_inf": float(se_vec[0]), "delta": float(se_vec[1]), "kappa": float(se_vec[2])},
        aic_table=table,
    )
