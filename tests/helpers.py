"""Test data drawn through the engine's own samplers, portfolios built from
hand-written claim records, and the row-by-row CSV ingest kept as the
reference for the columnar one."""

import csv
import math
import sys

import numpy as np

from granres.claims import _HEADER, CLAIM_TYPES, IngestReport, Portfolio, _text_stream
from granres.daycount import DAYS_PER_YEAR, parse_iso
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
    idx, days = _place_payments(intensity, n, r, lam, cut, rng.random(n.sum()))
    taus = (days - r[idx]) / DAYS_PER_YEAR
    return taus, hz


def records_portfolio(claims, cutoff) -> Portfolio:
    """The Portfolio of the given ClaimRecords, through the column constructor.

    A claim_type that is not a name in CLAIM_TYPES is passed on as the
    claim's type code, for the constructor to check."""
    claims = tuple(claims)
    pays = [p for c in claims for p in c.payments]
    codes = {t: k for k, t in enumerate(CLAIM_TYPES)}
    return Portfolio(
        [c.claim_id for c in claims],
        [codes.get(c.claim_type, c.claim_type) for c in claims],
        [c.accident_day for c in claims],
        [c.reporting_day for c in claims],
        [len(c.payments) for c in claims],
        [p.day for p in pays],
        [p.amount for p in pays],
        cutoff,
    )


# each type's code under its name, also without its underscore
_TYPE_CODES = {a: k for k, t in enumerate(CLAIM_TYPES) for a in (t, t.replace("_", ""))}


def ingest_csv_report_loop(source, cutoff=None, diagnostics=None):
    """The row-by-row ingest that `ingest_csv_report` replaced, kept as its
    reference: the same Portfolio, IngestReport and diagnostic text. A row's
    line is the csv reader's line count before the row, plus one."""
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

        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not "".join(row).strip():
                continue
            report.rows += 1
            if len(row) != 6:
                reject(f"expected 6 fields, got {len(row)}")
                continue
            cid, ctype_raw, acc_s, rep_s, pay_s, amt_s = map(str.strip, row)
            ctype = _TYPE_CODES.get(ctype_raw.replace(" ", "_").lower())
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
    portfolio = Portfolio(
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
