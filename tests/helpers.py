"""Test data drawn through the engine's own samplers."""

import numpy as np

from granres import CountProcess
from granres.daycount import DAYS_PER_YEAR
from granres.reserving import _place_payments


def payment_taus(intensity, horizons, rng):
    """Per-claim payment times on (0, h] as the engine draws them.

    Claims are reported on whole days before a common cutoff, h days on the
    day grid; each draws a Poisson count at Lambda(h), placed by
    _place_payments. Returns the times read back from the payment days, as
    the fit reads a portfolio, and the horizons on the day grid.
    """
    cut = int(np.ceil(np.max(horizons) * DAYS_PER_YEAR))
    r = cut - np.floor(np.asarray(horizons) * DAYS_PER_YEAR).astype(np.int64)
    hz = (cut - r) / DAYS_PER_YEAR
    lam = np.asarray(intensity.cumulative(hz), dtype=float)
    n = rng.poisson(lam)
    idx, days = _place_payments(CountProcess(intensity), n, r, 0.0, lam, 0, cut, rng)
    taus = (days - r[idx]) / DAYS_PER_YEAR
    return np.split(taus, np.cumsum(n)[:-1]), hz
