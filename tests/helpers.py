"""Test data drawn through the engine's own samplers, portfolios built from
hand-written claim records and compared column by column, the payment
rates the intensity fit reduces to sufficient statistics, the row-by-row
CSV ingest kept as the reference for the columnar one, the brute-force
greedy that the cross-type day matching is checked against, the
zero-modified pmf, the function difference Hessian that the
gradient-difference information is checked against, and the reference laws
the engine's draws and fits are checked against: the bivariate copula cdf,
the nested copula's cdf and the delay/count copula's joint cdf and mixed
density."""

import csv
import math
import sys

import numpy as np
from scipy import special, stats

from granres.claims import (
    _COLUMNS,
    _HEADER,
    _PAYMENTS,
    CLAIM_TYPES,
    IngestReport,
    Portfolio,
    _text_stream,
)
from granres.copulas.families import FAMILIES
from granres.daycount import DAYS_PER_YEAR, parse_iso
from granres.reserving import _place_payments


def intensity_rate(intensity, tau):
    """The payment rate of an intensity: lam0 * exp(-beta * tau) for the
    exponential family, lam0 * (1 + tau)^(-beta) for the power family."""
    tau = np.asarray(tau, dtype=float)
    if intensity.to_dict()["family"] == "exponential":
        return intensity.lam0 * np.exp(-intensity.beta * tau)
    return intensity.lam0 * np.power(1.0 + tau, -intensity.beta)


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


def zero_modified_pmf(zm, k):
    """The pmf of a ZeroModified law: p0 at 0, the base pmf renormalized above."""
    k = np.asarray(k)
    b0 = np.exp(zm.base.logpmf(0))
    return np.where(k == 0, zm.p0, (1.0 - zm.p0) / (1.0 - b0) * np.exp(zm.base.logpmf(k)))


def function_difference_hessian(f, x, rel=1e-4):
    """Central-difference Hessian of a scalar function at x, k^2 function
    differences at the step rel * max(1, |x|) per coordinate."""
    x = np.asarray(x, dtype=float)
    h = rel * np.maximum(1.0, np.abs(x))
    steps = np.diag(h)
    hess = np.empty((x.size, x.size))
    for i in range(x.size):
        for j in range(i, x.size):
            ei, ej = steps[i], steps[j]
            if i == j:
                d = (f(x + ei) - 2.0 * f(x) + f(x - ei)) / h[i] ** 2
            else:
                d = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (
                    4.0 * h[i] * h[j]
                )
            hess[i, j] = hess[j, i] = d
    return hess


def _bvn_cdf(x, y, rho):
    """P[X <= x, Y <= y] of the standard bivariate normal of correlation rho,
    by Owen's T: Phi(x)/2 + Phi(y)/2 - T(x, a_x) - T(y, a_y) - beta, with
    a_x = (y - rho x) / (x sqrt(1 - rho^2)), and beta 1/2 where x and y have
    opposite signs. A zero coordinate is taken as its limit from above."""
    x, y, rho = np.broadcast_arrays(*(np.asarray(z, dtype=float) for z in (x, y, rho)))
    x, y = (np.where(z == 0.0, 1e-300, z) for z in (x, y))
    r = np.sqrt(1.0 - rho * rho)
    out = 0.5 * (special.ndtr(x) + special.ndtr(y))
    out -= special.owens_t(x, (y - rho * x) / (x * r)) + special.owens_t(y, (x - rho * y) / (y * r))
    return out - np.where(x * y < 0.0, 0.5, 0.0)


def copula_cdf(family, u, v, theta=None):
    """The bivariate copula cdf C(u, v): psi(phi(u) + phi(v)) from the
    family's generators for the Archimedean families, u v for independence,
    and the bivariate normal cdf at the normal quantiles for the Gaussian.
    On and beyond the edges of the unit square it is C(0, v) = C(u, 0) = 0,
    C(1, v) = v and C(u, 1) = u."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if family == "independence":
        out = u * v
    elif family == "gaussian":
        z = (special.ndtri(np.clip(x, 1e-300, 1.0 - 1e-16)) for x in (u, v))
        out = _bvn_cdf(*z, theta)
    else:
        fam = FAMILIES[family]
        out = fam.gen_inv(fam.gen(u, theta) + fam.gen(v, theta), theta)
    out = np.where((u <= 0.0) | (v <= 0.0), 0.0, out)
    out = np.where(u >= 1.0, np.clip(v, 0.0, 1.0), out)
    return np.where(v >= 1.0, np.clip(u, 0.0, 1.0), out)


def hac_cdf(outer_family, outer_theta, inner_a, inner_b, u1, u2, u3, u4):
    """The nested copula's cdf D(C_A(u1, u2), C_B(u3, u4)) by copula_cdf,
    each inner parameter read at development time 0, as hac_sample reads it
    without theta maps. The outer copula is a family name and a parameter,
    so that a parameter HacSpec refuses (tau 0, the independence edge) is
    evaluated too."""
    s = copula_cdf(inner_a.family, u1, u2, inner_a.theta_at(0.0))
    t = copula_cdf(inner_b.family, u3, u4, inner_b.theta_at(0.0))
    return copula_cdf(outer_family, s, t, outer_theta)


def sklar_joint_cdf(delay_model, count_process, spec, t, w, horizon, n):
    """P[W <= w, N(horizon) <= n] for a claim from accident day t: the copula
    at the delay cdf and the count cdf."""
    n = np.asarray(n)
    u = delay_model.cdf(t, w)
    q = count_process.count_cdf(horizon, np.maximum(n, 0))
    theta = spec.theta_at(np.asarray(horizon, dtype=float))
    return np.where(n < 0, 0.0, copula_cdf(spec.family, u, q, theta))


def mixed_density(delay_model, count_process, spec, t, w, horizon, n):
    """Joint density in w with the count fixed at n:
    dens_t(w) [h(H_t(w), Q(n)) - h(H_t(w), Q(n - 1))], dens_t the Weibull
    density from scipy.stats."""
    w = np.asarray(w, dtype=float)
    n = np.asarray(n)
    u = delay_model.cdf(t, w)
    q_hi = count_process.count_cdf(horizon, n)
    q_lo = count_process.count_cdf(horizon, n - 1)
    if spec.family == "independence":  # h(u, q) = q
        bracket = q_hi - q_lo
    else:
        theta = spec.theta_at(np.asarray(horizon, dtype=float))
        fam = FAMILIES[spec.family]
        bracket = fam.h(u, q_hi, theta) - fam.h(u, q_lo, theta)
    dens = stats.weibull_min.pdf(w, delay_model.shape, scale=delay_model.scale(t))
    return dens * np.clip(bracket, 0.0, None)


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


def assert_same_portfolio(p, q):
    """p and q hold the same data cutoff and every claim and payment column."""
    assert isinstance(p, Portfolio) and isinstance(q, Portfolio), (type(p), type(q))
    assert p.data_cutoff == q.data_cutoff, (p.data_cutoff, q.data_cutoff)
    for name in _COLUMNS + _PAYMENTS:
        np.testing.assert_array_equal(getattr(p, name), getattr(q, name), err_msg=name)


def nearest_unused_pairs(days_a, days_b, max_gap):
    """Brute-force reference for match_days: (idx_a, idx_b) of the pairs.

    The days of a are visited in ascending order, stable among equal days.
    Each scans every day of b and takes the nearest unused one within
    max_gap; on a tie, the earlier day, then the first in stable order.
    """
    days_a, days_b = np.asarray(days_a), np.asarray(days_b)
    order_b = np.argsort(days_b, kind="stable")
    sorted_b = days_b[order_b]
    used = np.zeros(sorted_b.size, dtype=bool)
    ia, ib = [], []
    for i in np.argsort(days_a, kind="stable"):
        gap = np.abs(sorted_b - days_a[i])
        free = np.flatnonzero(~used & (gap <= max_gap))
        if free.size:
            k = free[np.argmin(gap[free])]  # the first minimum: earliest day and position
            used[k] = True
            ia.append(i)
            ib.append(order_b[k])
    return np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)


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
