"""Shared fitting utilities: numeric observed information and standard errors."""

from __future__ import annotations

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
