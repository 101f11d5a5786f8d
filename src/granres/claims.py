"""Claim-level data model, CSV ingestion, portfolio splits, and run-off triangles.

The CSV schema is one payment per row::

    claim_id,claim_type,accident_date,reporting_date,payment_date,amount

Files are UTF-8, with or without a byte-order mark. Dates are YYYY-MM-DD.
Ingest reads an amount in Python's float syntax (a dot decimal separator, any
number of decimals) and requires it to be finite and nonzero; write_csv writes
two decimals. Fields are stripped of edge whitespace. A claim with no payments
is a single row with empty payment_date and amount fields. Rows that fail
validation are rejected and reported as line-oriented text on the diagnostic
stream; they never reach the data model.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .daycount import iso, parse_iso, year_of

CLAIM_TYPES = ("bodily_injury", "material_damage")
# each type's code under its name, also without its underscore
_TYPE_CODES = {a: k for k, t in enumerate(CLAIM_TYPES) for a in (t, t.replace("_", ""))}
_HEADER = ["claim_id", "claim_type", "accident_date", "reporting_date", "payment_date", "amount"]


@dataclass(frozen=True)
class PaymentEvent:
    """One paid amount on one day: a row of Portfolio.claims."""

    day: int
    amount: float


@dataclass(frozen=True)
class ClaimRecord:
    """One claim and its payments in day order: a row of Portfolio.claims,
    built from the checked columns."""

    claim_id: str
    claim_type: str
    accident_day: int
    reporting_day: int
    payments: tuple[PaymentEvent, ...] = ()

    def delay_days(self) -> int:
        return self.reporting_day - self.accident_day


_COLUMNS = ("claim_ids", "type_codes", "accident_days", "reporting_days")
_PAYMENTS = ("pay_ptr", "pay_days", "pay_amounts")


def records_from_columns(ids, codes, accident, reporting, counts, days, amounts) -> list:
    """ClaimRecords, in column order, from checked claim columns and the
    payments listed claim by claim, counts[i] of them for claim i."""
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
    days step back has its payments sorted by (day, amount). `claims` is a
    read-only ClaimRecord view built on first use.
    """

    def __init__(self, ids, type_codes, accident, reporting, counts, days, amounts, cutoff):
        """Sort, check and store the columns: type_codes index CLAIM_TYPES,
        counts[i] is the number of claim i's payments in days and amounts."""
        ids, codes = np.asarray(ids, dtype=str), np.asarray(type_codes, np.int64)
        acc, rep = np.asarray(accident, np.int64), np.asarray(reporting, np.int64)
        counts = np.asarray(counts, np.int64)
        days, amounts = np.asarray(days, np.int64), np.asarray(amounts, float)
        unknown = (codes < 0) | (codes >= len(CLAIM_TYPES))
        if unknown.any():
            raise ValueError(f"unknown claim_type {codes[unknown][0]}")
        codes = codes.astype(np.int8)
        step = np.diff(acc)
        if not np.all((step > 0) | ((step == 0) & (ids[1:] >= ids[:-1]))):
            order = np.lexsort((ids, acc))
            take = np.argsort(np.repeat(np.argsort(order), counts), kind="stable")
            ids, codes, acc, rep, counts = (x[order] for x in (ids, codes, acc, rep, counts))
            days, amounts = days[take], amounts[take]
        owner = np.repeat(np.arange(ids.size), counts)
        # only a claim whose days step back is re-sorted
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
        is stored without the constructor's sort and checks; a data_cutoff
        given must not fall before any date kept.
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
        unknown = [t for t in claim_types if t not in CLAIM_TYPES]
        if unknown:
            raise ValueError(f"unknown claim types {unknown}; known: {list(CLAIM_TYPES)}")
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
    """Open a path (str or os.PathLike) as UTF-8 for the block and close it
    after it, reading past a byte-order mark; any other target is taken as
    an open text stream and left open."""
    if isinstance(target, (str, os.PathLike)):
        encoding = "utf-8-sig" if mode == "r" else "utf-8"
        with open(target, mode, newline="", encoding=encoding) as stream:
            yield stream
    else:
        yield target


# why a row is rejected, by rule code in order of precedence; code 0 keeps it
_REJECT = ("", "empty claim_id", "unknown claim_type {raw_type!r}", "malformed date",
           "reporting_date {rep} before accident_date {acc}", "malformed payment fields",
           "payment_date {pay} before reporting_date {rep}", "zero amount")
_NO_DAY = np.iinfo(np.int64).min
_CHUNK = 4096  # rows read before they are coded
# the table that codes each of the six fields: ids, types, dates, amounts
_TABLE = (0, 1, 2, 2, 2, 3)


def _read_coded(reader):
    """Each row's field count, 0 for a blank or whitespace-only row; each
    row's first line in the input; four tables, each mapping a distinct
    stripped string to its code, the count of the table's fields read before
    it first appeared; and the six fields of the rows with six, coded. Only
    the distinct strings outlive their chunk.
    """
    width, tables, columns = [], ({}, {}, {}, {}), [[np.zeros(0, np.int64)] for _ in _HEADER]
    first, seen = [np.zeros(0, np.int64)], reader.line_num
    counters = [itertools.count() for _ in tables]
    while rows := list(itertools.islice(reader, _CHUNK)):
        if reader.line_num - seen == len(rows):
            first.append(np.arange(seen + 1, reader.line_num + 1))
        else:
            # some quoted field holds a line break: \n, \r\n or a lone \r
            text = list(map(",".join, rows))
            span = [1 + t.count("\n") + t.count("\r") - t.count("\r\n") for t in text]
            first.append(seen + 1 + np.cumsum([0] + span[:-1]))
        seen = reader.line_num
        full = map(bool, map(str.strip, map("".join, rows)))
        fields = list(map(operator.mul, map(len, rows), full))
        width += fields
        rows = list(itertools.compress(rows, map((6).__eq__, fields)))
        for column, t, values in zip(columns, _TABLE, zip(*rows)):
            codes = map(tables[t].setdefault, map(str.strip, values), counters[t])
            column.append(np.fromiter(codes, np.int64, len(values)))
    width = np.array(width, np.int64)
    return width, np.concatenate(first), tables, [np.concatenate(c) for c in columns]


def _decoded(table, parse=None, bad=None, dtype=object) -> np.ndarray:
    """Each string of a _read_coded table, or parse of it (bad where parse
    raises ValueError), at the string's code: index it by the codes."""

    def one(text):
        try:
            return parse(text)
        except ValueError:
            return bad

    values = np.full(max(table.values(), default=-1) + 1, bad, dtype)
    parsed = list(table) if parse is None else np.fromiter(map(one, table), dtype, len(table))
    values[list(table.values())] = parsed
    return values


def ingest_csv_report(source, cutoff=None, diagnostics=None):
    """Parse a payments CSV into a Portfolio and the IngestReport.

    Parameters
    ----------
    source : path (str or os.PathLike) or open text stream
    cutoff : int or None
        Data cutoff day; defaults to the latest date seen in the file.
    diagnostics : text stream or None
        Receives one line per rejected row / flagged condition
        (default sys.stderr), numbered by the row's first line in the input.

    The rows are read once, coded a chunk at a time, and checked as columns.
    """
    diag = diagnostics if diagnostics is not None else sys.stderr
    with _text_stream(source, "r") as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty input: missing CSV header")
        if [h.strip() for h in header] != _HEADER:
            raise ValueError(f"unexpected CSV header {header!r}; expected {_HEADER!r}")
        claims, report = _checked(*_read_coded(reader), cutoff)
    for msg in report.messages:
        print(msg, file=diag)
    return Portfolio(*claims), report


def _checked(width, start, tables, columns, cutoff):
    """The arguments of the Portfolio constructor and the IngestReport, from
    what _read_coded returns; each rule of _REJECT is a boolean array over
    the rows. README's Ingest step states the rules. The arrays here are
    freed before the Portfolio's are allocated, so they leave no hole that
    the Portfolio pins in the heap.
    """
    ids, types, dates, amounts = tables
    id_k, type_k, acc_k, rep_k, pay_k, amt_k = columns
    misfit = np.flatnonzero((width > 0) & (width != 6))
    line = start[width == 6]  # the first line of each row with six fields
    m = line.size
    type_of = _decoded(types, lambda t: _TYPE_CODES.get(t.replace(" ", "_").lower(), -1), -1, int)
    ctype = type_of[type_k]
    day = _decoded(dates, parse_iso, _NO_DAY, np.int64)
    acc, rep, pay = day[acc_k], day[rep_k], day[pay_k]
    amt = _decoded(amounts, float, math.nan, float)[amt_k]
    no_pay = (pay_k == dates.get("", -1)) & (amt_k == amounts.get("", -1))

    rule = np.select(
        [
            id_k == ids.get("", -1),
            ctype < 0,
            (acc == _NO_DAY) | (rep == _NO_DAY),
            rep < acc,
            no_pay,  # a claim without payments: codes 5-7 do not apply
            (pay == _NO_DAY) | ~np.isfinite(amt),
            pay < rep,
            amt == 0.0,
        ],
        [1, 2, 3, 4, 0, 5, 6, 7],
    )
    # duplicates among the rows past codes 1-4, by one stable sort on their keys
    live = np.flatnonzero((rule == 0) | (rule > 4))
    key = [k[live] for k in (amt_k, pay_k, rep, acc, ctype, id_k)]
    order = np.lexsort(key)
    dup = live[order[1:][np.all([k[order[1:]] == k[order[:-1]] for k in key], axis=0)]]
    # a claim registers at its first row past every rule; its later rows
    # must agree with that row
    reg = np.flatnonzero(rule == 0)
    first = np.full(m, m)
    np.minimum.at(first, id_k[reg], reg)
    head = first[id_k[reg]]
    agree = (ctype[head] == ctype[reg]) & (acc[head] == acc[reg]) & (rep[head] == rep[reg])
    odd, good = reg[~agree], reg[agree]
    bad = np.zeros(m, bool)
    bad[id_k[odd]] = True
    kept = np.flatnonzero((first < m) & ~bad)
    negative = reg[amt[reg] < 0.0]

    # a line's notes sort by step: duplicate 0, payment rule or negative
    # amount 1, inconsistent claim 2
    cid, raw_type, date, amount = map(_decoded, tables)
    notes = [(start[i], 0, f"expected 6 fields, got {width[i]} (row rejected)") for i in misfit]
    for i in np.flatnonzero(rule):
        why = _REJECT[rule[i]].format(
            raw_type=raw_type[type_k[i]], acc=date[acc_k[i]], rep=date[rep_k[i]], pay=date[pay_k[i]]
        )
        notes.append((line[i], int(rule[i] > 4), f"{why} (row rejected)"))
    for step, rows, text in (
        (0, dup, "duplicate row for claim {cid} (kept)"),
        (1, negative, "negative amount {amount} for claim {cid} (kept, flagged)"),
        (2, odd, "claim {cid} has inconsistent type or dates across rows (claim rejected)"),
    ):
        notes += [
            (line[i], step, text.format(cid=cid[id_k[i]], amount=amount[amt_k[i]])) for i in rows
        ]
    report = IngestReport(
        rows=int(np.count_nonzero(width)),
        claims=kept.size,
        rejected_rows=int(misfit.size + np.count_nonzero(rule) + odd.size),
        rejected_claims=int(np.count_nonzero(bad)),
        negative_amounts=negative.size,
        duplicate_rows=dup.size,
        messages=[f"line {n}: {text}" for n, _, text in sorted(notes)],
    )
    if cutoff is None:
        # the agreeing rows of a rejected claim count towards the latest date
        seen = np.concatenate((rep[good], pay[good[~no_pay[good]]]))
        cutoff = seen.max() if seen.size else 0
    paid = good[~no_pay[good] & ~bad[id_k[good]]]
    paid = paid[np.argsort(id_k[paid], kind="stable")]
    head = first[kept]
    counts = np.bincount(id_k[paid], minlength=m)[kept]
    claims = (cid[kept], ctype[head], acc[head], rep[head], counts, pay[paid], amt[paid], cutoff)
    return claims, report


def write_csv(portfolio: Portfolio, dest) -> None:
    """Inverse of ingest_csv_report: one row per payment, a marker row for paymentless claims."""
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
