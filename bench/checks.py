"""Correctness checks on the pipeline's outputs, computed apart from the program.

Each check raises CheckFailed with a reason when the output is wrong. The
reference values are worked out here: the CSV is parsed with the stdlib csv
module, closed forms are written out from the fitted parameters, and the
program is used only for the model definitions (its fitted parameters and the
day-count convention). Tolerances are stated where they are set.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass

import numpy as np

DAYS_PER_YEAR = 365.25  # granres.daycount's year length
EPOCH_ORDINAL = 730120  # date(2000, 1, 1).toordinal(): granres day 0

# A correct program passes each statistical check on any seed: the bounds sit
# at six standard errors, where a two-sided normal tail has mass 2e-9.
Z_MAX = 6.0


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def _day(iso: str) -> int:
    return datetime.date.fromisoformat(iso).toordinal() - EPOCH_ORDINAL


def _cents(amount: str) -> int:
    """Exact cents of a two-decimal amount string such as '-12.05'."""
    sign = -1 if amount.startswith("-") else 1
    whole, _, frac = amount.lstrip("+-").partition(".")
    return sign * (int(whole or "0") * 100 + int((frac + "00")[:2]))


@dataclass(frozen=True)
class CsvFacts:
    """What the stdlib csv module reads from a portfolio CSV."""

    claims: int
    payments: int
    paid_cents: int
    rows: list  # (accident day, payment day or None, cents) per row


def read_csv_facts(path) -> CsvFacts:
    claim_ids = set()
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)  # header
        for cid, _ctype, acc, _rep, pay, amt in reader:
            claim_ids.add(cid)
            if pay:
                rows.append((_day(acc), _day(pay), _cents(amt)))
            else:
                rows.append((_day(acc), None, 0))
    paid = [r for r in rows if r[1] is not None]
    return CsvFacts(
        claims=len(claim_ids),
        payments=len(paid),
        paid_cents=sum(r[2] for r in paid),
        rows=rows,
    )


def check_ingest(facts: CsvFacts, portfolio, report) -> None:
    """Ingest kept every claim, payment and cent of the file, rejecting nothing."""
    if report.rejected_rows or report.rejected_claims:
        raise CheckFailed(
            f"ingest rejected {report.rejected_rows} rows, "
            f"{report.rejected_claims} claims of a well-formed file"
        )
    n_pay = sum(len(c.payments) for c in portfolio.claims)
    cents = sum(round(p.amount * 100) for c in portfolio.claims for p in c.payments)
    got = (len(portfolio.claims), n_pay, cents)
    want = (facts.claims, facts.payments, facts.paid_cents)
    if got != want:
        raise CheckFailed(
            f"ingest (claims, payments, cents paid) = {got}, the CSV holds {want}"
        )


def check_conservation(dist) -> None:
    """totals == rbns + ibnr == sum over types == sum over periods, per scenario.

    The program adds the same amounts in different orders for each split, so
    equality is up to float rounding: relative 1e-12, far below one cent.
    """
    totals = np.asarray(dist.totals, dtype=float)
    splits = {
        "rbns + ibnr": np.asarray(dist.rbns) + np.asarray(dist.ibnr),
        "sum by type": np.sum([dist.by_type[t] for t in dist.claim_types], axis=0),
        "sum by period": np.asarray(dist.by_period).sum(axis=1),
    }
    for name, value in splits.items():
        if value.shape != totals.shape or not np.allclose(
            value, totals, rtol=1e-12, atol=1e-6
        ):
            worst = float(np.max(np.abs(value - totals))) if value.shape == totals.shape else math.inf
            raise CheckFailed(f"reserve not conserved: totals != {name} (off by {worst})")


def cumulative_intensity(intensity: dict, tau):
    """Lambda(tau) of a fitted intensity, from its parameters alone."""
    tau = np.asarray(tau, dtype=float)
    lam0, beta = intensity["lam0"], intensity["beta"]
    if intensity["family"] == "exponential":
        return lam0 * (1.0 - np.exp(-beta * tau)) / beta
    if intensity["family"] == "power":
        return lam0 * ((1.0 + tau) ** (1.0 - beta) - 1.0) / (1.0 - beta)
    raise ValueError(f"no closed form for intensity {intensity['family']!r}")


def severity_mean(severity: dict) -> float:
    if severity["family"] == "lognormal":
        return math.exp(severity["mu"] + 0.5 * severity["sigma"] ** 2)
    if severity["family"] == "gamma":
        return severity["shape"] * severity["scale"]
    raise ValueError(f"no closed form for severity {severity['family']!r}")


def weibull_cdf(delay: dict, t_day, w):
    """H_t(w) of a fitted time-varying Weibull delay, from its parameters."""
    scale = np.exp(delay["c0"] + delay["c1"] * np.asarray(t_day, dtype=float) / DAYS_PER_YEAR)
    w = np.maximum(np.asarray(w, dtype=float), 0.0)
    return 1.0 - np.exp(-((w / scale) ** delay["shape"]))


def rbns_closed_form(model, portfolio, a_day: int, b_day: int) -> float:
    """E[RBNS paid in (a, b]] = sum over claims reported by a of
    (Lambda(tau_b) - Lambda(tau_a)) * E[X]."""
    total = 0.0
    for ctype, tm in model.types.items():
        r = np.array(
            [c.reporting_day for c in portfolio.claims
             if c.claim_type == ctype and c.reporting_day <= a_day],
            dtype=float,
        )
        inten = tm.counts.intensity.to_dict()
        inc = cumulative_intensity(inten, (b_day - r) / DAYS_PER_YEAR) - cumulative_intensity(
            inten, (a_day - r) / DAYS_PER_YEAR
        )
        total += float(np.sum(inc)) * severity_mean(tm.severity.to_dict())
    return total


def check_rbns_mean(rbns_draws, expected: float) -> float:
    """The simulated RBNS mean lies within Z_MAX standard errors of the closed form."""
    x = np.asarray(rbns_draws, dtype=float)
    se = float(np.std(x, ddof=1)) / math.sqrt(x.size)
    z = (float(np.mean(x)) - expected) / se if se > 0 else math.inf
    if not abs(z) <= Z_MAX:
        raise CheckFailed(
            f"RBNS mean {np.mean(x):.2f} is {z:+.1f} standard errors from the "
            f"closed form {expected:.2f}"
        )
    return z


def ibnr_count_analytic(model, a_day: int, b_day: int, lookback: dict) -> float:
    """Expected IBNR payment count over (a, b] under independence.

    Sum over accident days d in the lookback and integer delays w with
    a < d + w <= b of rate(d) * P[w <= W < w + 1] * Lambda((b - d - w) / year).
    rate(d) is one over the mean day gap of d's year: the renewal
    approximation. It ignores the start-up of the gap process at the lookback's
    first day, where the reporting probability is below the lookback's 1e-4
    tail, and the switch of gap law at each new year.
    """
    total = 0.0
    for ctype, tm in model.types.items():
        delay = tm.delay.to_dict()
        inten = tm.counts.intensity.to_dict()
        for d in range(a_day - lookback[ctype], a_day + 1):
            rate = 1.0 / float(tm.occurrence.dist_for(d).mean())
            w = np.arange(a_day - d + 1, b_day - d + 1, dtype=float)
            mass = weibull_cdf(delay, d, w + 1.0) - weibull_cdf(delay, d, w)
            left = cumulative_intensity(inten, (b_day - d - w) / DAYS_PER_YEAR)
            total += rate * float(np.sum(mass * left))
    return total


# share of the analytic IBNR count allowed for the renewal approximation
RENEWAL_TOL = 0.005


def check_ibnr_count(counts, expected: float) -> None:
    """Simulated IBNR payment-count mean within Z_MAX standard errors plus the
    renewal approximation's RENEWAL_TOL share of the analytic value."""
    x = np.asarray(counts, dtype=float)
    se = float(np.std(x, ddof=1)) / math.sqrt(x.size)
    tol = Z_MAX * se + RENEWAL_TOL * expected
    if not abs(float(np.mean(x)) - expected) <= tol:
        raise CheckFailed(
            f"IBNR payment-count mean {np.mean(x):.2f} differs from the analytic "
            f"{expected:.2f} by more than {tol:.2f}"
        )


def holdout_cents(facts: CsvFacts, a_day: int, b_day: int) -> int:
    """Cents paid in (a, b] on claims with accident on or before a."""
    return sum(
        cents
        for acc, pay, cents in facts.rows
        if pay is not None and acc <= a_day and a_day < pay <= b_day
    )


def check_backtest_actual(actual: float, cents: int) -> None:
    if not abs(actual - cents / 100.0) < 0.005:
        raise CheckFailed(
            f"backtest actual {actual:.2f} != holdout from the CSV {cents / 100.0:.2f}"
        )


def check_parallel_matches_serial(parallel, serial) -> None:
    """The first scenarios of a multi-worker run equal a serial run bitwise."""
    k = serial.rbns.size
    pairs = [
        ("rbns", parallel.rbns[:k], serial.rbns),
        ("ibnr", parallel.ibnr[:k], serial.ibnr),
        ("by_period", parallel.by_period[:k], serial.by_period),
    ]
    pairs += [
        (f"by_type[{t}]", parallel.by_type[t][:k], serial.by_type[t])
        for t in serial.claim_types
    ]
    for name, x, y in pairs:
        if not np.array_equal(x, y):
            raise CheckFailed(f"parallel {name} differs from the serial run")


def check_same_draws(first, other) -> None:
    """Repeating a seeded reserve run reproduces it bitwise."""
    if not (
        np.array_equal(first.rbns, other.rbns)
        and np.array_equal(first.ibnr, other.ibnr)
        and np.array_equal(first.by_period, other.by_period)
    ):
        raise CheckFailed("a repeated seeded reserve run gave different scenarios")


# --- fitted parameters against the generator ---------------------------------

# Kendall's tau half-width for the copulas. The fit sees counts at the
# valuation date, a shorter horizon than the generator coupled them at, which
# thins the dependence (about 0.03 in tau on the 5k nested portfolio); the
# seed-to-seed spread there is about 0.02.
TAU_TOL = 0.10
# Relative half-width for the delay scale at a mid-portfolio date. The
# (c0, c1) pair is fitted on claims reported by the valuation date without a
# truncation correction, so each alone sits a few standard errors off its
# truth on large portfolios; their product at the data's centre does not.
SCALE_TOL = 0.10
SCALE_DATE = "2018-07-01"
OCCURRENCE_YEARS = range(2016, 2020)  # years all but fully reported by a


def _z_check(failures, label, est, truth, se):
    z = (est - truth) / se if se and math.isfinite(se) and se > 0 else math.inf
    if not abs(z) <= Z_MAX:
        failures.append(f"{label}: fitted {est:.5g}, truth {truth:.5g}, z {z:+.1f}")


def check_parameters(fitted, truth, report) -> None:
    """Fitted parameters whose family matches the generator's lie near its truth.

    Standard-error bounds at Z_MAX where the fit reports errors; the stated
    tolerances above where it does not, or where the fit on censored data is
    biased by design.
    """
    failures = []
    for ctype, tm in fitted.types.items():
        gen = truth.types[ctype]
        d, dg = tm.delay.to_dict(), gen.delay.to_dict()
        _z_check(failures, f"{ctype} delay shape", d["shape"], dg["shape"], tm.delay.se.get("shape"))
        years = _day(SCALE_DATE) / DAYS_PER_YEAR
        rel = math.exp(d["c0"] - dg["c0"] + (d["c1"] - dg["c1"]) * years) - 1.0
        if not abs(rel) <= SCALE_TOL:
            failures.append(f"{ctype} delay scale at {SCALE_DATE} off by {rel:+.1%}")
        inten, inten_g = tm.counts.intensity.to_dict(), gen.counts.intensity.to_dict()
        if inten["family"] == inten_g["family"]:
            for k in ("lam0", "beta"):
                _z_check(
                    failures, f"{ctype} intensity {k}", inten[k], inten_g[k], tm.counts.se.get(k)
                )
        sev, sev_g = tm.severity.to_dict(), gen.severity.to_dict()
        if sev["family"] == sev_g["family"]:
            for k in ("mu", "sigma"):
                _z_check(failures, f"{ctype} severity {k}", sev[k], sev_g[k], tm.severity.se.get(k))
        if tm.occurrence.family == gen.occurrence.family == "poisson":
            for y in OCCURRENCE_YEARS:
                mu, mu_g = tm.occurrence.by_year[y].mu, gen.occurrence.by_year[y].mu
                gaps = 365.0 / mu_g
                _z_check(failures, f"{ctype} {y} mean day gap", mu, mu_g, math.sqrt(mu / gaps))
        if gen.copula.family != "independence":
            if tm.copula.family != gen.copula.family:
                failures.append(
                    f"{ctype} copula: chose {tm.copula.family}, generator is {gen.copula.family}"
                )
            elif not abs(tm.copula.min_tau() - gen.copula.min_tau()) <= TAU_TOL:
                failures.append(
                    f"{ctype} {tm.copula.family} tau {tm.copula.min_tau():.3f}, "
                    f"truth {gen.copula.min_tau():.3f}"
                )
    if truth.hac is not None and truth.hac.outer_family != "independence":
        if fitted.hac is None:
            failures.append(f"no cross-type nesting fitted: {report.get('hac')}")
        elif not abs(fitted.hac.outer_tau() - truth.hac.outer_tau()) <= TAU_TOL:
            failures.append(
                f"outer tau {fitted.hac.outer_tau():.3f}, truth {truth.hac.outer_tau():.3f}"
            )
    if failures:
        raise CheckFailed("; ".join(failures))
