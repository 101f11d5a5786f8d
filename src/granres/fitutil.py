"""The one maximum-likelihood core of the fitters, and the parameter-risk
redraw of a fitted component.

Every likelihood a fitter hands to this module returns its negative value
and that value's gradient (the score, negated) in one call. mle minimizes
it with that gradient, and standard_errors inverts the observed information
at the estimate, the central difference of the gradient. The reporting
delay, payment intensity, delay/count copula, count (negative binomial,
zero-truncated Poisson) and gamma fits all take this one path.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy import optimize

# central-difference step, relative to max(1, |x|) per coordinate
_REL_STEP = 1e-4


def standard_errors(negloglik, x, names):
    """(cov, {name: se}) from the observed information at the estimate x.

    negloglik returns (value, gradient). The information is the symmetrized
    central difference of the gradient, 2k gradient calls for k parameters.
    When it is not positive definite (boundary solutions and the like), cov
    is None and every se NaN, with a warning.
    """
    x = np.asarray(x, dtype=float)
    h = _REL_STEP * np.maximum(1.0, np.abs(x))
    grad = lambda y: negloglik(y)[1]
    hess = np.column_stack([(grad(x + e) - grad(x - e)) / (2 * hi) for hi, e in zip(h, np.diag(h))])
    hess = 0.5 * (hess + hess.T)
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:  # singular: fails the check below
        cov = np.full((len(names), len(names)), np.nan)
    diag = np.diag(cov)
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        warnings.warn(
            "observed information not positive definite; standard errors unavailable",
            stacklevel=2,
        )
        return None, {name: float("nan") for name in names}
    return cov, {name: float(np.sqrt(cov[i, i])) for i, name in enumerate(names)}


def mle(negloglik, starts, bounds):
    """Minimize a negative log-likelihood by L-BFGS-B from each start in order.

    negloglik returns (value, gradient), and the optimizer uses that
    gradient. Returns the lowest optimum, the first one on ties: scipy's
    result, whose success and message are the optimizer's convergence flag
    and message, with its log-likelihood as loglik and which coordinates
    sit on a bound as at_bound.
    """
    best = None
    for x0 in starts:
        res = optimize.minimize(negloglik, x0, method="L-BFGS-B", jac=True, bounds=bounds)
        if best is None or res.fun < best.fun:
            best = res
    lo, hi = np.array(bounds, dtype=float).T
    best.loglik = -float(best.fun)
    best.at_bound = np.isclose(best.x, lo) | np.isclose(best.x, hi)
    return best


def warn_unconverged(opt, label):
    """Warn '<label> did not converge: <message>' for an mle result that did not."""
    if not opt.success:
        warnings.warn(f"{label} did not converge: {opt.message}", stacklevel=2)


def cov_factor(cov, label):
    """The factor u * sqrt(s) of numpy's svd draw, (u, s, vh) = svd(cov).

    z @ factor.T + mean, z standard normal, is bit for bit what
    rng.multivariate_normal(mean, cov, method="svd") returns for the same z.
    numpy's positive-semidefinite check runs here, once; a cov that fails it
    raises a ValueError naming label.
    """
    cov = np.asarray(cov, dtype=float)
    u, s, vh = np.linalg.svd(cov)
    if not np.allclose(np.dot(vh.T * s, vh), cov, rtol=1e-8, atol=1e-8):
        raise ValueError(f"{label} covariance is not symmetric positive-semidefinite")
    return u * np.sqrt(s)


def redraw(component, rng, se, factor=None):
    """A copy of a fitted component with its parameters drawn around the estimate.

    The component's class lists its parameters in REDRAW_BOUNDS, an ordered
    map from name to (lo, hi). A covariance factor (cov_factor) gives one
    joint normal draw in that order; otherwise each parameter draws alone
    from se[name], with a missing or non-finite standard error counting as 0.
    Either way one standard_normal call draws every parameter's variate.
    Each value is then clipped into its bounds.
    """
    bounds = type(component).REDRAW_BOUNDS
    est = np.array([getattr(component, name) for name in bounds], dtype=float)
    z = rng.standard_normal(est.size)
    if factor is not None:
        values = (z @ factor.T + est).tolist()
    else:
        s = np.array([float(se.get(name, 0.0)) for name in bounds])
        values = (est + np.where(np.isfinite(s), s, 0.0) * z).tolist()
    return dataclasses.replace(
        component,
        **{name: min(max(x, lo), hi) for x, (name, (lo, hi)) in zip(values, bounds.items())},
    )
