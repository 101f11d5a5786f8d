"""Shared fitting utilities: numeric observed information, standard errors,
and the parameter-risk redraw of a fitted component."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np


def numeric_hessian(f, x, rel_step=1e-4):
    """Central-difference Hessian of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    k = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            ei = np.zeros(k)
            ej = np.zeros(k)
            ei[i] = h[i]
            ej[j] = h[j]
            if i == j:
                d = (f(x + ei) - 2.0 * f(x) + f(x - ei)) / h[i] ** 2
            else:
                d = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4.0 * h[i] * h[j])
            hess[i, j] = d
            hess[j, i] = d
    return hess


def observed_info_cov(negloglik, x, rel_step=1e-4):
    """Covariance matrix from the observed information, or None if singular."""
    hess = numeric_hessian(negloglik, x, rel_step)
    try:
        cov = np.linalg.inv(hess)
        diag = np.diag(cov)
        if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
            return None
        return cov
    except np.linalg.LinAlgError:
        return None


def observed_info_se(negloglik, x, rel_step=1e-4):
    """Standard errors from the observed information of a negative log-likelihood.

    Returns an array of per-parameter standard errors; entries are NaN when the
    information matrix is not positive definite (boundary solutions and the
    like), with a warning.
    """
    cov = observed_info_cov(negloglik, x, rel_step)
    if cov is None:
        warnings.warn(
            "observed information not positive definite; standard errors unavailable",
            stacklevel=2,
        )
        return np.full(np.asarray(x).size, np.nan)
    return np.sqrt(np.diag(cov))


def redraw(component, rng, se, cov=()):
    """A copy of a fitted component with its parameters drawn around the estimate.

    The component's class lists its parameters in REDRAW_BOUNDS, an ordered
    map from name to (lo, hi). A finite cov gives one joint normal draw in
    that order; otherwise each parameter draws alone from se[name], with a
    missing or non-finite standard error counting as 0. Each value is then
    clipped into its bounds.
    """
    bounds = type(component).REDRAW_BOUNDS
    est = [getattr(component, name) for name in bounds]
    cov = np.asarray(cov, dtype=float)
    if cov.size and np.all(np.isfinite(cov)):
        values = rng.multivariate_normal(est, cov, method="svd").tolist()
    else:
        values = []
        for name, x in zip(bounds, est):
            s = float(se.get(name, 0.0))
            values.append(float(x) + (s if math.isfinite(s) else 0.0) * rng.standard_normal())
    return dataclasses.replace(
        component,
        **{name: min(max(x, lo), hi) for x, (name, (lo, hi)) in zip(values, bounds.items())},
    )
