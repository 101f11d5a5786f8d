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

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from ..daycount import DAYS_PER_YEAR
from ..delays import delay_score
from ..fitutil import mle, standard_errors, warn_unconverged
from .dynamics import CopulaSpec, TimeVaryingParam
from .families import FAMILIES

_FLOOR = 1e-300


def _finite_intensity(count_process, horizon):
    """Lambda(horizon), floored at 0; a count search cannot end at a
    non-finite Lambda, so it raises there."""
    lam = np.asarray(count_process.intensity.cumulative(horizon), dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("count search needs a finite cumulative intensity")
    return np.maximum(lam, 0.0)


def count_quantile(u, horizon, count_process):
    """Smallest n >= 0 with Q_horizon(n) >= u, vectorized; a NaN u gives 0.

    u is clipped to [1e-300, 1 - 1e-16], as scipy's Poisson quantile takes
    it. The search starts from the Cornish-Fisher normal guess
    floor(lam + z sqrt(lam) + (z^2 - 1) / 6), z the normal quantile of u, and
    walks the Poisson cdf a step at a time: up while Q(n) < u, then down
    while Q(n - 1) >= u, on the rows not yet settled. This is scipy's answer
    too, except within a few ulps of 1 at lambda of a few hundred, where the
    rounded cdf is flat over several n and scipy's is not the smallest.
    """
    u = np.clip(np.atleast_1d(np.asarray(u, dtype=float)), 1e-300, 1.0 - 1e-16)
    lam = _finite_intensity(count_process, horizon)
    lam, u = np.broadcast_arrays(lam, u)
    z = special.ndtri(u)
    n = np.maximum(np.floor(lam + z * np.sqrt(lam) + (z * z - 1.0) / 6.0), 0.0)
    low = special.pdtr(n, lam) < u
    up = np.flatnonzero(low)
    while up.size:
        n[up] += 1.0
        up = up[special.pdtr(n[up], lam[up]) < u[up]]
    down = np.flatnonzero(~low & (n > 0.0))
    while down.size:
        down = down[special.pdtr(n[down] - 1.0, lam[down]) >= u[down]]
        n[down] -= 1.0
        down = down[n[down] > 0.0]
    n[np.isnan(u)] = 0.0
    return n.astype(np.int64)


def conditional_count_quantile(u, v, horizon, count_process, spec):
    """Smallest n with h(u, Q_horizon(n)) >= v, vectorized.

    This inverts the conditional count cdf given the delay's uniform score u,
    which is exactly how the coupled pair (W, N) is simulated. Under the
    independence copula h(u, q) = q, so it is the count quantile of v.

    Otherwise the first n is searched in blocks of columns n, h not being
    assumed monotone in n: in floating point it is not, near 1 (Frank theta
    3.5, u 0, v 1, Lambda 797: h reaches 1 at n = 1029, falls an ulp below
    and reaches 1 again at 1042, where a walk from a normal guess stops).
    The first block is lam + 4 sqrt(lam) + 4 wide (the largest lam of the
    rows), and the rows not settled continue from the last column searched
    in a block twice as wide. A row whose count cdf reaches 1 in a block
    without h reaching v can never settle; the search raises there. NaN u, v
    or theta and a non-finite Lambda raise too.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.isnan(u).any() or np.isnan(v).any():
        raise ValueError("conditional count quantile of a NaN score")
    horizon = np.broadcast_to(np.asarray(horizon, dtype=float), u.shape)
    if spec.family == "independence":
        return count_quantile(v, horizon, count_process)
    fam = FAMILIES[spec.family]
    theta = np.broadcast_to(spec.theta_at(horizon), u.shape)
    if np.isnan(theta).any():
        raise ValueError("conditional count quantile at a NaN copula parameter")
    lam = _finite_intensity(count_process, horizon)
    out = np.zeros(u.shape, dtype=np.int64)
    idx = np.arange(u.size)
    start = 0
    width = int(np.max(lam + 4.0 * np.sqrt(lam), initial=0.0)) + 4
    while idx.size:
        ns = np.arange(start, start + width, dtype=float)
        q = special.pdtr(ns[None, :], lam[idx, None])
        ok = fam.h(u[idx, None], q, theta[idx, None]) >= v[idx, None]
        found = ok.any(axis=1)
        out[idx[found]] = start + np.argmax(ok[found], axis=1)
        stuck = ~found & (q[:, -1] == 1.0)
        if stuck.any():
            i = idx[stuck][0]
            raise ValueError(f"no count reaches h >= {v[i]} at u = {u[i]}, theta = {theta[i]}")
        idx = idx[~found]
        start += width
        width *= 2
    return out


def copula_pairs(sub):
    """One claim type's count observation: copula pairs and payment times.

    The pairs (t, w, horizon, n) hold one row per reported claim: accident
    day, observed delay in days, years from reporting to the data cutoff (the
    count's observation horizon), and the number of payments by the cutoff.
    Claims reported on the cutoff day itself carry no count information and
    are dropped. Returns (pairs, taus), taus the claim times (years since
    reporting) of the kept claims' payments, flat and claim-major.
    """
    r = sub.reporting_days
    horizon = (sub.data_cutoff - r) / DAYS_PER_YEAR
    keep = horizon > 0
    paid = keep[sub.pay_owner]
    taus = (sub.pay_days[paid] - r[sub.pay_owner[paid]]) / DAYS_PER_YEAR
    t = sub.accident_days[keep]
    return (t, r[keep] - t, horizon[keep], np.diff(sub.pay_ptr)[keep]), taus


@dataclass(frozen=True)
class CopulaFit:
    spec: CopulaSpec
    loglik: float
    aic: float
    n_obs: int
    se: dict = field(default_factory=dict)
    aic_table: dict = field(default_factory=dict)


def _bracket_score(fam, u, q_hi, q_lo):
    """The pair likelihood's score function: theta -> (nll, per-pair gradient).

    nll is -sum log(h(u, q_hi) - h(u, q_lo)), each bracket floored at
    _FLOOR; the gradient holds d nll / d theta of each pair, 0 on a floored
    bracket. theta is a scalar or one value per pair. The theta-free
    transforms are computed here, once.
    """
    hi, lo = fam.h_prepare(u, q_hi), fam.h_prepare(u, q_lo)

    def score(theta):
        h_hi, d_hi = fam.h_dtheta(hi, theta)
        h_lo, d_lo = fam.h_dtheta(lo, theta)
        bracket = h_hi - h_lo
        live = bracket > _FLOOR
        grad = np.divide(d_lo - d_hi, bracket, out=np.zeros_like(bracket), where=live)
        return -float(np.sum(np.log(np.maximum(bracket, _FLOOR)))), grad

    return score


def _tv_nll_score(x, score, fam, horizon, link_hi):
    """(nll, gradient) of the time-varying fit at x = (eta_inf, delta, kappa).

    Each pair's theta is link_inv(eta_inf + (eta0 - eta_inf) exp(-kappa h)),
    h its horizon and eta0 = eta_inf + delta; an eta0 past link_hi is held
    there, and the excess pays a quadratic penalty.
    """
    eta_inf, delta, kappa = x
    eta0 = eta_inf + delta
    pen, dpen = 0.0, 0.0
    capped = eta0 > link_hi
    if capped:
        pen, dpen = 1e5 * (eta0 - link_hi) ** 2, 2e5 * (eta0 - link_hi)
        eta0 = link_hi
    decay = np.exp(-kappa * horizon)
    eta = eta_inf + (eta0 - eta_inf) * decay
    value, grad = score(fam.link_inv(eta))
    grad_eta = grad * fam.link_inv_d1(eta)  # d nll / d eta, per pair
    d_inf = np.sum(grad_eta * (1.0 - decay)) if capped else np.sum(grad_eta)
    d_delta = 0.0 if capped else np.sum(grad_eta * decay)
    d_kappa = -(eta0 - eta_inf) * np.sum(grad_eta * horizon * decay)
    return value + pen, np.array([d_inf + dpen, d_delta + dpen, d_kappa])


def fit_copula(
    pairs, delay_model, count_process, family_name="auto", time_varying=False
):
    """Maximum likelihood copula fit, margins held fixed (multistage style).

    pairs is the (t, w, horizon, n) tuple from copula_pairs. The delay enters
    through its score u = H_t(w + 0.5) (delays.delay_score). family_name
    "auto" compares every family (independence included) by AIC on
    constant-parameter fits; only the chosen family gets a standard error.
    With time_varying=True the selected family is refit with the link-scale
    decay map; the extra two parameters are kept only when they improve AIC.
    Every fit and standard error runs on the closed-form score
    (_bracket_score, chained through the link in _tv_nll_score).
    """
    t, w, horizon, n = pairs
    u = np.clip(delay_score(delay_model, t, w), 1e-9, 1 - 1e-9)
    horizon = np.asarray(horizon, dtype=float)
    n = np.asarray(n)
    if u.size < 20:
        raise ValueError("need at least 20 pairs to fit a copula")
    q_hi = count_process.count_cdf(horizon, n)
    q_lo = count_process.count_cdf(horizon, n - 1)

    def static_fit(name):
        """A constant-parameter fit and its (nll, gradient) objective in theta."""
        fam = FAMILIES[name]
        score = _bracket_score(fam, u, q_hi, q_lo)
        if name == "independence":
            ll = -score(None)[0]
            return CopulaFit(CopulaSpec("independence"), ll, -2.0 * ll, u.size), None
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
                return np.inf, np.full(1, np.nan)
            value, grad = score(th)
            return value, np.array([np.sum(grad)])

        opt = mle(nll, [[s] for s in starts], [(lo, hi)])
        warn_unconverged(opt, f"{name} copula fit")
        spec = CopulaSpec(name, theta=float(opt.x[0]))
        return CopulaFit(spec, opt.loglik, 2.0 - 2.0 * opt.loglik, u.size), nll

    names = FAMILIES if family_name == "auto" else (family_name,)
    fits = {nm: static_fit(nm) for nm in names}
    table = {nm: f.aic for nm, (f, _) in fits.items()}
    base, nll = fits[min(table, key=table.get)]
    se = {} if nll is None else standard_errors(nll, [base.spec.theta], ("theta",))[1]
    base = replace(base, se=se, aic_table=table)

    if not time_varying or base.spec.family == "independence":
        return base

    fam = FAMILIES[base.spec.family]
    lo, hi = fam.theta_bounds
    link_lo = float(fam.link(lo))
    link_hi = float(fam.link(hi))
    eta_hat = float(fam.link(base.spec.theta))
    score = _bracket_score(fam, u, q_hi, q_lo)

    def tv_nll(x):
        return _tv_nll_score(x, score, fam, horizon, link_hi)

    span = link_hi - link_lo
    x0 = np.array([eta_hat, min(0.25 * span, 0.5), 1.0])
    opt = mle(tv_nll, [x0], [(link_lo, link_hi), (0.0, span), (0.0, 20.0)])
    warn_unconverged(opt, f"time-varying {base.spec.family} copula fit")
    aic_tv = 6.0 - 2.0 * opt.loglik
    if aic_tv >= base.aic:
        return base
    eta_inf, delta, kappa = (float(v) for v in opt.x)
    _, se = standard_errors(tv_nll, opt.x, ("eta_inf", "delta", "kappa"))
    dyn = TimeVaryingParam(
        eta0=min(eta_inf + delta, link_hi), eta_inf=eta_inf, kappa=kappa
    )
    spec = CopulaSpec(base.spec.family, dynamics=dyn)
    table = dict(base.aic_table)
    table[base.spec.family + "_tv"] = aic_tv
    return CopulaFit(spec, opt.loglik, aic_tv, u.size, se=se, aic_table=table)
