"""Shared fitting utilities: numeric observed information, standard errors,
and the parameter-risk redraw of a fitted component."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

# central-difference step, relative to max(1, |x|) per coordinate
_REL_STEP = 1e-4


def numeric_hessian(f, x):
    """Central-difference Hessian of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    k = x.size
    h = _REL_STEP * np.maximum(1.0, np.abs(x))
    steps = np.diag(h)  # row i steps coordinate i alone
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            ei, ej = steps[i], steps[j]
            if i == j:
                d = (f(x + ei) - 2.0 * f(x) + f(x - ei)) / h[i] ** 2
            else:
                d = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4.0 * h[i] * h[j])
            hess[i, j] = d
            hess[j, i] = d
    return hess


def observed_info_cov(negloglik, x):
    """Covariance matrix from the observed information, or None if singular."""
    hess = numeric_hessian(negloglik, x)
    try:
        cov = np.linalg.inv(hess)
        diag = np.diag(cov)
        if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
            return None
        return cov
    except np.linalg.LinAlgError:
        return None


def observed_info_se(negloglik, x):
    """Standard errors from the observed information of a negative log-likelihood.

    Returns an array of per-parameter standard errors; entries are NaN when the
    information matrix is not positive definite (boundary solutions and the
    like), with a warning.
    """
    cov = observed_info_cov(negloglik, x)
    if cov is None:
        warnings.warn(
            "observed information not positive definite; standard errors unavailable",
            stacklevel=2,
        )
        return np.full(np.asarray(x).size, np.nan)
    return np.sqrt(np.diag(cov))


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
