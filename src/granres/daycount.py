"""Calendar helpers.

All dates are stored as integer day counts from the epoch 2000-01-01 (day 0).
Continuous durations (delay scales, claim time) are measured in years of
365.25 days.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

EPOCH = dt.date(2000, 1, 1)
_EPOCH64 = np.datetime64(EPOCH, "D")
DAYS_PER_YEAR = 365.25


def to_day(date: dt.date) -> int:
    return (date - EPOCH).days


def to_date(day: int) -> dt.date:
    return EPOCH + dt.timedelta(days=int(day))


def parse_iso(text: str) -> int:
    return to_day(dt.date.fromisoformat(text))


def iso(day):
    """YYYY-MM-DD of a day number, or an array of them for an array of days."""
    text = np.datetime_as_string(_EPOCH64 + np.asarray(day, dtype=np.int64))
    return text if np.ndim(text) else str(text)


def year_of(day):
    """Calendar year of a day number, or an int64 array of them for an array."""
    # the scalar path is the arrival simulator's, once per simulated block
    if not isinstance(day, (np.ndarray, list, tuple)):
        return to_date(day).year
    dates = _EPOCH64 + np.asarray(day, dtype=np.int64)
    return dates.astype("datetime64[Y]").astype(np.int64) + 1970


def year_start(year: int) -> int:
    return to_day(dt.date(year, 1, 1))


def years_since_epoch(day: float) -> float:
    """Continuous time in years for a (possibly fractional) day count."""
    return day / DAYS_PER_YEAR
