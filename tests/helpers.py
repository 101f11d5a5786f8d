"""Test data drawn through the engine's own samplers."""

import numpy as np

from granres import CountProcess
from granres.daycount import DAYS_PER_YEAR
from granres.reserving import _place_payments


def payment_taus(intensity, horizons, rng):
    """Payment times on (0, h] as the engine draws them, flat.

    Claims are reported on whole days before a common cutoff, h days on the
    day grid; each draws a Poisson count at Lambda(h), placed by
    _place_payments. Returns every claim's times read back from the payment
    days, claim by claim, as the fit reads a portfolio, and the horizons on
    the day grid.
    """
    cut = int(np.ceil(np.max(horizons) * DAYS_PER_YEAR))
    r = cut - np.floor(np.asarray(horizons) * DAYS_PER_YEAR).astype(np.int64)
    hz = (cut - r) / DAYS_PER_YEAR
    lam = np.asarray(intensity.cumulative(hz), dtype=float)
    n = rng.poisson(lam)
    idx, days = _place_payments(CountProcess(intensity), n, r, lam, cut, rng)
    taus = (days - r[idx]) / DAYS_PER_YEAR
    return taus, hz
