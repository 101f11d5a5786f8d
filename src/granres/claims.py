"""Claim-level data model, CSV ingestion, portfolio splits, and run-off triangles.

The CSV schema is one payment per row::

    claim_id,claim_type,accident_date,reporting_date,payment_date,amount

Dates are ISO (YYYY-MM-DD) and amounts use a dot decimal separator with up to
two decimal places; an amount must be finite and nonzero. A claim with no
payments is a single row with empty payment_date and amount fields. Rows that
fail validation are rejected and reported as line-oriented text on the
diagnostic stream; they never reach the data model.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .daycount import iso, parse_iso, year_of

CLAIM_TYPES = ("bodily_injury", "material_damage")
# each type's name, also without its underscore
_TYPE_ALIASES = {a: t for t in CLAIM_TYPES for a in (t, t.replace("_", ""))}
_HEADER = ["claim_id", "claim_type", "accident_date", "reporting_date", "payment_date", "amount"]


@dataclass(frozen=True, order=True)
class PaymentEvent:
    """One paid amount on one day. Zero and non-finite amounts are not
    representable."""

    day: int
    amount: float

    def __post_init__(self):
        if not math.isfinite(self.amount):
            raise ValueError("payment amount must be finite")
        if self.amount == 0.0:
            raise ValueError("payment amount must be nonzero")


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    claim_type: str
    accident_day: int
    reporting_day: int
    payments: tuple[PaymentEvent, ...] = ()

    def __post_init__(self):
        if self.claim_type not in CLAIM_TYPES:
            raise ValueError(f"unknown claim_type {self.claim_type!r}")
        if self.reporting_day < self.accident_day:
            raise ValueError(
                f"claim {self.claim_id}: reporting day {self.reporting_day} "
                f"before accident day {self.accident_day}"
            )
        days = [p.day for p in self.payments]
        if any(d < self.reporting_day for d in days):
            raise ValueError(f"claim {self.claim_id}: payment before reporting day")
        if days != sorted(days):
            object.__setattr__(self, "payments", tuple(sorted(self.payments)))

    def delay_days(self) -> int:
        return self.reporting_day - self.accident_day


_COLUMNS = ("claim_ids", "type_codes", "accident_days", "reporting_days")
_PAYMENTS = ("pay_ptr", "pay_days", "pay_amounts")


def _type_codes(claim_types) -> np.ndarray:
    """Codes into CLAIM_TYPES from type names or from codes; unknown ones raise."""
    values = np.asarray(claim_types).reshape(-1)
    known = np.arange(len(CLAIM_TYPES)) if values.dtype.kind in "iu" else CLAIM_TYPES
    match = values[:, None] == np.asarray(known)
    bad = ~match.any(axis=1)
    if bad.any():
        raise ValueError(f"unknown claim_type {values[bad][0].item()!r}")
    return match.argmax(axis=1).astype(np.int8)


def records_from_columns(ids, codes, accident, reporting, counts, days, amounts) -> list:
    """ClaimRecords, in column order, from claim columns and the payments
    listed claim by claim, counts[i] of them for claim i."""
    days, amounts = np.asarray(days).tolist(), np.asarray(amounts).tolist()
    bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.int64))).tolist()
    rows = (np.asarray(x).tolist() for x in (ids, codes, accident, reporting))
    return [
        ClaimRecord(
            cid, CLAIM_TYPES[k], t, r, tuple(map(PaymentEvent, days[i:j], amounts[i:j]))
        )
        for cid, k, t, r, i, j in zip(*rows, bounds, bounds[1:])
    ]


class Portfolio:
    """Immutable claim data with a data cutoff day, stored as columns.

    Per claim: claim_ids (str), type_codes (int8 codes into CLAIM_TYPES),
    accident_days and reporting_days (int64). Payments in CSR form: claim
    i's payments are pay_days[pay_ptr[i]:pay_ptr[i + 1]] (int64) and the
    pay_amounts (float64) at the same positions; pay_owner holds the claim
    index of each payment.

    Claims are ordered by (accident_day, claim_id) so that downstream output
    is reproducible regardless of input row order; a claim whose payment
    days step back has its payments sorted by (day, amount), as ClaimRecord
    sorts them. `claims` is a ClaimRecord view built on first use.
    """

    def __init__(self, claims, data_cutoff):
        claims = tuple(claims)
        fields = ("claim_id", "claim_type", "accident_day", "reporting_day")
        columns = [[getattr(c, name) for c in claims] for name in fields]
        pays = [p for c in claims for p in c.payments]
        counts = [len(c.payments) for c in claims]
        days, amounts = [p.day for p in pays], [p.amount for p in pays]
        self._fill(*columns, counts, days, amounts, data_cutoff)

    @classmethod
    def _from_columns(cls, *columns) -> "Portfolio":
        """The one constructor from arrays; takes the arguments of _fill."""
        self = cls.__new__(cls)
        self._fill(*columns)
        return self

    def _fill(self, ids, claim_types, accident, reporting, counts, days, amounts, cutoff):
        """Sort, check and store the columns; claim_types are names or codes,
        counts[i] is the number of claim i's payments in days and amounts."""
        ids, codes = np.asarray(ids, dtype=str), _type_codes(claim_types)
        acc, rep = np.asarray(accident, np.int64), np.asarray(reporting, np.int64)
        counts = np.asarray(counts, np.int64)
        days, amounts = np.asarray(days, np.int64), np.asarray(amounts, float)
        step = np.diff(acc)
        if not np.all((step > 0) | ((step == 0) & (ids[1:] >= ids[:-1]))):
            order = np.lexsort((ids, acc))
            take = np.argsort(np.repeat(np.argsort(order), counts), kind="stable")
            ids, codes, acc, rep, counts = (x[order] for x in (ids, codes, acc, rep, counts))
            days, amounts = days[take], amounts[take]
        owner = np.repeat(np.arange(ids.size), counts)
        # ClaimRecord's rule: only a claim whose days step back is re-sorted
        back = owner[1:][(days[1:] < days[:-1]) & (owner[1:] == owner[:-1])]
        if back.size:
            sel = np.flatnonzero(np.isin(owner, back))
            take = np.arange(days.size)
            take[sel] = sel[np.lexsort((amounts[sel], days[sel], owner[sel]))]
            days, amounts = days[take], amounts[take]

        cutoff = int(cutoff)
        if np.any(rep < acc):
            i = np.flatnonzero(rep < acc)[0]
            raise ValueError(
                f"claim {ids[i]}: reporting day {rep[i]} before accident day {acc[i]}"
            )
        if np.any(days < rep[owner]):
            i = owner[np.flatnonzero(days < rep[owner])[0]]
            raise ValueError(f"claim {ids[i]}: payment before reporting day")
        if not np.all(np.isfinite(amounts)):
            raise ValueError("payment amount must be finite")
        if np.any(amounts == 0.0):
            raise ValueError("payment amount must be nonzero")
        last = rep.copy()
        np.maximum.at(last, owner, days)
        if np.any(last > cutoff):
            i = np.flatnonzero(last > cutoff)[0]
            raise ValueError(f"claim {ids[i]}: date {last[i]} beyond data cutoff {cutoff}")

        ptr = np.concatenate(([0], np.cumsum(counts)))
        self._store((ids, codes, acc, rep, ptr, days, amounts, owner), cutoff)

    def _store(self, columns, cutoff):
        """Keep sorted, checked columns as read-only views, in the order of
        _COLUMNS, _PAYMENTS and pay_owner."""
        for name, column in zip(_COLUMNS + _PAYMENTS + ("pay_owner",), columns):
            column = column.view()
            column.flags.writeable = False
            setattr(self, name, column)
        self.data_cutoff = cutoff

    @functools.cached_property
    def claims(self) -> tuple[ClaimRecord, ...]:
        payments = (np.diff(self.pay_ptr), self.pay_days, self.pay_amounts)
        return tuple(records_from_columns(*(getattr(self, k) for k in _COLUMNS), *payments))

    def _select(self, keep, pay_keep=True, data_cutoff=None) -> "Portfolio":
        """The claims where keep holds, with their payments where pay_keep holds.

        A subset of sorted, checked columns is sorted and valid itself, so it
        is stored without _fill's sort and checks; a data_cutoff given must
        not fall before any date kept.
        """
        pays = keep[self.pay_owner] & pay_keep
        counts = np.bincount(self.pay_owner[pays], minlength=len(self))[keep]
        sub = Portfolio.__new__(Portfolio)
        sub._store(
            (
                *(getattr(self, k)[keep] for k in _COLUMNS),
                np.concatenate(([0], np.cumsum(counts))),
                self.pay_days[pays],
                self.pay_amounts[pays],
                np.repeat(np.arange(counts.size), counts),
            ),
            self.data_cutoff if data_cutoff is None else int(data_cutoff),
        )
        return sub

    def __len__(self):
        return self.claim_ids.size

    def __eq__(self, other):
        if not isinstance(other, Portfolio):
            return NotImplemented
        return self.data_cutoff == other.data_cutoff and all(
            np.array_equal(getattr(self, k), getattr(other, k))
            for k in _COLUMNS + _PAYMENTS
        )

    def by_type(self, *claim_types: str) -> "Portfolio":
        """The sub-portfolio of the claims of the given types."""
        codes = [k for k, name in enumerate(CLAIM_TYPES) if name in claim_types]
        return self._select(np.isin(self.type_codes, codes))

    @property
    def claim_types(self) -> tuple[str, ...]:
        return tuple(CLAIM_TYPES[k] for k in np.unique(self.type_codes).tolist())


@dataclass
class IngestReport:
    """Counts of what ingestion kept, rejected, and flagged."""

    rows: int = 0
    claims: int = 0
    rejected_rows: int = 0
    rejected_claims: int = 0
    negative_amounts: int = 0
    duplicate_rows: int = 0
    messages: list[str] = field(default_factory=list)


@contextlib.contextmanager
def _text_stream(target, mode):
    """Open a path (str or os.PathLike) for the block and close it after it;
    any other target is taken as an open text stream and left open."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, newline="") as stream:
            yield stream
    else:
        yield target


def ingest_csv(source, cutoff=None, diagnostics=None) -> Portfolio:
    """Parse a payments CSV into a Portfolio.

    Parameters
    ----------
    source : path, text, bytes, or text stream
    cutoff : int or None
        Data cutoff day; defaults to the latest date seen in the file.
    diagnostics : text stream or None
        Receives one line per rejected row / flagged condition
        (default sys.stderr). Use ingest_csv_report to also get the
        structured counts.
    """
    p, _ = ingest_csv_report(source, cutoff=cutoff, diagnostics=diagnostics)
    return p


def ingest_csv_report(source, cutoff=None, diagnostics=None):
    """Like ingest_csv but also returns the IngestReport."""
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str) and "\n" in source:
        source = io.StringIO(source)
    diag = diagnostics if diagnostics is not None else sys.stderr
    report = IngestReport()

    def note(msg):
        report.messages.append(msg)
        print(msg, file=diag)

    def reject(msg):
        note(f"line {lineno}: {msg} (row rejected)")
        report.rejected_rows += 1

    with _text_stream(source, "r") as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty input: missing CSV header")
        if [h.strip() for h in header] != _HEADER:
            raise ValueError(f"unexpected CSV header {header!r}; expected {_HEADER!r}")

        # claim_id -> dict(type, accident, reporting, payments list)
        pending: dict[str, dict] = {}
        bad_claims: set[str] = set()
        seen_rows: set[tuple] = set()
        max_day = None
        # a claim's dates repeat on each of its rows: parse each string once
        days: dict[str, int] = {}

        def day_of(text):
            day = days.get(text)
            if day is None:
                day = days[text] = parse_iso(text)
            return day

        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            report.rows += 1
            if len(row) != 6:
                reject(f"expected 6 fields, got {len(row)}")
                continue
            cid, ctype_raw, acc_s, rep_s, pay_s, amt_s = map(str.strip, row)
            ctype = _TYPE_ALIASES.get(ctype_raw.replace(" ", "_").lower())
            if not cid:
                reject("empty claim_id")
                continue
            if ctype is None:
                reject(f"unknown claim_type {ctype_raw!r}")
                continue
            try:
                acc = day_of(acc_s)
                rep = day_of(rep_s)
            except ValueError:
                reject("malformed date")
                continue
            if rep < acc:
                reject(f"reporting_date {rep_s} before accident_date {acc_s}")
                continue

            key = (cid, ctype, acc, rep, pay_s, amt_s)
            if key in seen_rows:
                note(f"line {lineno}: duplicate row for claim {cid} (kept)")
                report.duplicate_rows += 1
            seen_rows.add(key)

            # payment fields validated before the claim is registered, so a
            # rejected row cannot leave behind a phantom paymentless claim
            event = None
            if not (pay_s == "" and amt_s == ""):
                try:
                    pay = day_of(pay_s)
                    amt = float(amt_s)
                except ValueError:
                    amt = math.nan  # rejected below with the non-finite amounts
                if not math.isfinite(amt):
                    reject("malformed payment fields")
                    continue
                if pay < rep:
                    reject(f"payment_date {pay_s} before reporting_date {rep_s}")
                    continue
                if amt == 0.0:
                    reject("zero amount")
                    continue
                if amt < 0.0:
                    note(f"line {lineno}: negative amount {amt_s} for claim {cid} (kept, flagged)")
                    report.negative_amounts += 1
                event = (pay, amt)

            rec = pending.setdefault(
                cid, {"type": ctype, "acc": acc, "rep": rep, "pays": []}
            )
            if (rec["type"], rec["acc"], rec["rep"]) != (ctype, acc, rep):
                note(
                    f"line {lineno}: claim {cid} has inconsistent type or dates "
                    f"across rows (claim rejected)"
                )
                bad_claims.add(cid)
                report.rejected_rows += 1
                continue

            if event is not None:
                rec["pays"].append(event)
                max_day = pay if max_day is None else max(max_day, pay)
            max_day = rep if max_day is None else max(max_day, rep)

    report.rejected_claims = len(bad_claims)
    kept = [(cid, rec) for cid, rec in pending.items() if cid not in bad_claims]
    report.claims = len(kept)
    pays = [e for _, rec in kept for e in rec["pays"]]
    if cutoff is None:
        cutoff = max_day if max_day is not None else 0
    portfolio = Portfolio._from_columns(
        [cid for cid, _ in kept],
        [rec["type"] for _, rec in kept],
        [rec["acc"] for _, rec in kept],
        [rec["rep"] for _, rec in kept],
        [len(rec["pays"]) for _, rec in kept],
        [day for day, _ in pays],
        [amount for _, amount in pays],
        cutoff,
    )
    return portfolio, report


def write_csv(portfolio: Portfolio, dest) -> None:
    """Inverse of ingest_csv: one row per payment, a marker row for paymentless claims."""
    n_pays = np.diff(portfolio.pay_ptr)
    owner = np.repeat(np.arange(len(portfolio)), np.maximum(n_pays, 1))
    paid = n_pays[owner] > 0
    day, amount = np.full((2, owner.size), "", dtype=object)
    day[paid] = iso(portfolio.pay_days)
    amount[paid] = [f"{a:.2f}" for a in portfolio.pay_amounts.tolist()]
    claim = (
        portfolio.claim_ids,
        np.asarray(CLAIM_TYPES)[portfolio.type_codes],
        iso(portfolio.accident_days),
        iso(portfolio.reporting_days),
    )
    with _text_stream(dest, "w") as stream:
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(_HEADER)
        w.writerows(zip(*(c[owner].tolist() for c in claim), day.tolist(), amount.tolist()))


def censor(portfolio: Portfolio, valuation_day: int) -> Portfolio:
    """The portfolio as it would have been observed at valuation_day: the
    claims reported by then, with their payments made by then."""
    a = int(valuation_day)
    return portfolio._select(portfolio.reporting_days <= a, portfolio.pay_days <= a, a)


@dataclass(frozen=True)
class RunOffTriangle:
    """Cumulative paid amounts by origin year x development period.

    Cells beyond the data cutoff diagonal are NaN (absent, not zero).
    """

    origin_years: tuple[int, ...]
    granularity: int
    cells: np.ndarray

    def to_csv(self, dest) -> None:
        with _text_stream(dest, "w") as stream:
            w = csv.writer(stream, lineterminator="\n")
            w.writerow(["origin"] + [f"dev_{j}" for j in range(self.cells.shape[1])])
            for year, row in zip(self.origin_years, self.cells):
                w.writerow([year] + ["" if np.isnan(v) else f"{v:.2f}" for v in row])


def aggregate_triangle(portfolio: Portfolio, granularity: int = 1) -> RunOffTriangle:
    """Aggregate payments into a cumulative run-off triangle.

    Origin periods are calendar accident years grouped `granularity` at a time;
    the development index of a payment is (payment year - origin year) //
    granularity. A cell is observable when its whole development period lies
    within the cutoff year.
    """
    if granularity < 1:
        raise ValueError("granularity must be a positive integer (years)")
    if not len(portfolio):
        raise ValueError("empty portfolio: nothing to aggregate")
    acc_years = year_of(portfolio.accident_days)
    y0 = int(acc_years.min())
    cutoff_year = year_of(portfolio.data_cutoff)
    n_origin = (cutoff_year - y0) // granularity + 1
    origin_years = y0 + np.arange(n_origin) * granularity
    row = ((acc_years - y0) // granularity)[portfolio.pay_owner]
    col = (year_of(portfolio.pay_days) - origin_years[row]) // granularity
    inc = np.zeros((n_origin, n_origin))
    np.add.at(inc, (row, col), portfolio.pay_amounts)
    cells = np.cumsum(inc, axis=1)
    period_end = origin_years[:, None] + (np.arange(n_origin) + 1) * granularity - 1
    cells[period_end > cutoff_year] = np.nan
    origins = tuple(origin_years.tolist())
    return RunOffTriangle(origins, granularity, cells)
