"""Claim-level data model, CSV ingestion, portfolio splits, and run-off triangles.

The CSV schema is one payment per row::

    claim_id,claim_type,accident_date,reporting_date,payment_date,amount

Dates are ISO (YYYY-MM-DD) and amounts use a dot decimal separator with up to
two decimal places. A claim with no payments is a single row with empty
payment_date and amount fields. Rows that fail validation are rejected and
reported as line-oriented text on the diagnostic stream; they never reach the
data model.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .daycount import iso, parse_iso, year_of

CLAIM_TYPES = ("bodily_injury", "material_damage")
_TYPE_ALIASES = {
    "bodily_injury": "bodily_injury",
    "bodilyinjury": "bodily_injury",
    "material_damage": "material_damage",
    "materialdamage": "material_damage",
}
_HEADER = ["claim_id", "claim_type", "accident_date", "reporting_date", "payment_date", "amount"]


@dataclass(frozen=True, order=True)
class PaymentEvent:
    """One paid amount on one day. Zero amounts are not representable."""

    day: int
    amount: float

    def __post_init__(self):
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

    @property
    def paid(self) -> float:
        return float(sum(p.amount for p in self.payments))

    def delay_days(self) -> int:
        return self.reporting_day - self.accident_day


@dataclass(frozen=True)
class Portfolio:
    """Immutable collection of claims with a data cutoff day.

    Claims are ordered by (accident_day, claim_id) so that downstream output is
    reproducible regardless of input row order.
    """

    claims: tuple[ClaimRecord, ...]
    data_cutoff: int

    def __post_init__(self):
        ordered = tuple(sorted(self.claims, key=lambda c: (c.accident_day, c.claim_id)))
        object.__setattr__(self, "claims", ordered)
        for c in self.claims:
            last = max([c.reporting_day] + [p.day for p in c.payments])
            if last > self.data_cutoff:
                raise ValueError(
                    f"claim {c.claim_id}: date {last} beyond data cutoff {self.data_cutoff}"
                )

    def __len__(self):
        return len(self.claims)

    def by_type(self, claim_type: str) -> tuple[ClaimRecord, ...]:
        return tuple(c for c in self.claims if c.claim_type == claim_type)

    @property
    def claim_types(self) -> tuple[str, ...]:
        present = {c.claim_type for c in self.claims}
        return tuple(t for t in CLAIM_TYPES if t in present)


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

        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            report.rows += 1
            if len(row) != 6:
                note(f"line {lineno}: expected 6 fields, got {len(row)} (row rejected)")
                report.rejected_rows += 1
                continue
            cid, ctype_raw, acc_s, rep_s, pay_s, amt_s = (f.strip() for f in row)
            ctype = _TYPE_ALIASES.get(ctype_raw.replace(" ", "_").lower())
            if not cid:
                note(f"line {lineno}: empty claim_id (row rejected)")
                report.rejected_rows += 1
                continue
            if ctype is None:
                note(f"line {lineno}: unknown claim_type {ctype_raw!r} (row rejected)")
                report.rejected_rows += 1
                continue
            try:
                acc = parse_iso(acc_s)
                rep = parse_iso(rep_s)
            except ValueError:
                note(f"line {lineno}: malformed date (row rejected)")
                report.rejected_rows += 1
                continue
            if rep < acc:
                note(
                    f"line {lineno}: reporting_date {rep_s} before accident_date "
                    f"{acc_s} (row rejected)"
                )
                report.rejected_rows += 1
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
                    pay = parse_iso(pay_s)
                    amt = float(amt_s)
                except ValueError:
                    note(f"line {lineno}: malformed payment fields (row rejected)")
                    report.rejected_rows += 1
                    continue
                if pay < rep:
                    note(
                        f"line {lineno}: payment_date {pay_s} before reporting_date "
                        f"{rep_s} (row rejected)"
                    )
                    report.rejected_rows += 1
                    continue
                if amt == 0.0:
                    note(f"line {lineno}: zero amount (row rejected)")
                    report.rejected_rows += 1
                    continue
                if amt < 0.0:
                    note(f"line {lineno}: negative amount {amt_s} for claim {cid} (kept, flagged)")
                    report.negative_amounts += 1
                event = PaymentEvent(pay, amt)

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
                max_day = event.day if max_day is None else max(max_day, event.day)
            max_day = rep if max_day is None else max(max_day, rep)

        claims = []
        for cid, rec in pending.items():
            if cid in bad_claims:
                report.rejected_claims += 1
                continue
            claims.append(
                ClaimRecord(cid, rec["type"], rec["acc"], rec["rep"], tuple(rec["pays"]))
            )
        report.claims = len(claims)

        if cutoff is None:
            cutoff = max_day if max_day is not None else 0
        p = Portfolio(tuple(claims), int(cutoff))
        return p, report


def write_csv(portfolio: Portfolio, dest) -> None:
    """Inverse of ingest_csv: one row per payment, a marker row for paymentless claims."""
    with _text_stream(dest, "w") as stream:
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(_HEADER)
        for c in portfolio.claims:
            base = [c.claim_id, c.claim_type, iso(c.accident_day), iso(c.reporting_day)]
            if not c.payments:
                w.writerow(base + ["", ""])
            for p in c.payments:
                w.writerow(base + [iso(p.day), f"{p.amount:.2f}"])


def split_rbns_ibnr(portfolio: Portfolio, valuation_day: int):
    """Split claims at a valuation day.

    Returns (rbns, unreported): rbns claims are reported by the valuation day
    with payments censored to it; unreported claims have accident on or before
    the valuation day but a later reporting day. Claims with accident after the
    valuation day appear in neither.
    """
    a = int(valuation_day)
    rbns = []
    unreported = []
    for c in portfolio.claims:
        if c.accident_day > a:
            continue
        if c.reporting_day <= a:
            kept = tuple(p for p in c.payments if p.day <= a)
            rbns.append(
                ClaimRecord(c.claim_id, c.claim_type, c.accident_day, c.reporting_day, kept)
            )
        else:
            unreported.append(c)
    return tuple(rbns), tuple(unreported)


def censor(portfolio: Portfolio, valuation_day: int) -> Portfolio:
    """The portfolio as it would have been observed at valuation_day."""
    rbns, _ = split_rbns_ibnr(portfolio, valuation_day)
    return Portfolio(rbns, int(valuation_day))


@dataclass(frozen=True)
class RunOffTriangle:
    """Cumulative paid amounts by origin year x development period.

    Cells beyond the data cutoff diagonal are NaN (absent, not zero).
    """

    origin_years: tuple[int, ...]
    granularity: int
    cells: np.ndarray

    def latest(self) -> np.ndarray:
        """Last observed cumulative value per origin row."""
        out = np.empty(len(self.origin_years))
        for i, row in enumerate(self.cells):
            obs = np.flatnonzero(~np.isnan(row))
            if obs.size == 0:
                raise ValueError(f"origin {self.origin_years[i]}: no observed cells")
            out[i] = row[obs[-1]]
        return out

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
    if not portfolio.claims:
        raise ValueError("empty portfolio: nothing to aggregate")
    acc_years = np.array([year_of(c.accident_day) for c in portfolio.claims])
    y0 = int(acc_years.min())
    cutoff_year = year_of(portfolio.data_cutoff)
    n_origin = (cutoff_year - y0) // granularity + 1
    n_dev = n_origin
    inc = np.zeros((n_origin, n_dev))
    for c, ay in zip(portfolio.claims, acc_years):
        i = (ay - y0) // granularity
        origin_year = y0 + i * granularity
        for p in c.payments:
            j = (year_of(p.day) - origin_year) // granularity
            inc[i, j] += p.amount
    cells = np.cumsum(inc, axis=1)
    for i in range(n_origin):
        origin_year = y0 + i * granularity
        for j in range(n_dev):
            if origin_year + (j + 1) * granularity - 1 > cutoff_year:
                cells[i, j] = np.nan
    origins = tuple(y0 + i * granularity for i in range(n_origin))
    return RunOffTriangle(origins, granularity, cells)
