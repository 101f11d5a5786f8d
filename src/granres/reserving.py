"""Reserve prediction engine.

One kernel draws the claim law claim by claim, in three stages: arrivals
from the day-gap model and cross-type matching by accident day, with four
copula uniforms per matched pair (_draw_arrivals); the nested copula solve
for the matched pairs (_solve_pairs); the reporting delay, the payment count
at the claim's horizon, payment placement and amounts (_finish_claims).
_draw_claims runs the three in turn for one draw. The kernel has two views:

* synth.synthesize: arrivals on [start, end], every claim that reports by
  end kept, horizon end; the observed history.
* ibnr_simulate (and _ibnr_draw, the engine's stage 3): arrivals over the
  lookback (a - lookback, a], kept if they report inside (a, b], horizon b;
  the IBNR reserve.

The RBNS reserve (_rbns_scenario) continues the claims reported by a on
(a, b]. It keeps only per-period flows, so it places no payment days: each
period's count over all claims is one Poisson draw (superposition), its mean
read at the period edges by the ceiling-day rule of _place_payments.

Scenario i draws from a generator seeded with the i-th child of
SeedSequence(master). A worker runs its chunk of scenarios in batches of up
to _BATCH_SCENARIOS, stage by stage: each scenario's parameter redraw, RBNS
flows and IBNR arrivals; then a single nested copula solve over the matched
pairs of the whole batch, each scenario's inner parameters set by its own
model; then each scenario's delays, counts, placement and amounts. Every
draw comes from its scenario's own generator in the same order as running
the scenario alone, and the solve is elementwise, so output is bitwise the
same for any batch size and worker count, and merges by scenario index.
Without the nested copula the batch skips the joint solve.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .claims import CLAIM_TYPES, censor, records_from_columns
from .copulas import (
    CopulaSpec,
    HacSpec,
    conditional_count_quantile,
    copula_from_dict,
    copula_pairs,
    fit_copula,
    fit_hac_outer,
    hac_from_dict,
    hac_sample,
    matched_delay_scores,
)
from .copulas.hac import MATCH_GAP_DAYS, hac_uniforms, match_days
# bench/tracing.py patches this name to count the matched pairs kept
from .copulas.mixed import count_quantile as _count_marginal_quantile
from .daycount import DAYS_PER_YEAR, to_date, to_day, year_of, year_start
from .delays import WeibullDelayModel, delay_model_from_dict, delay_quantile, fit_delay
from .frequency import OccurrenceModel, fit_occurrence, simulate_arrivals
from .payments import CountProcess, fit_intensity
from .severity import OrderARSeverity, fit_severity, severity_from_dict, simulate_amounts


@dataclass(frozen=True)
class ValuationWindow:
    """Valuation date a and horizon end b, both day numbers, a < b."""

    a_day: int
    b_day: int

    def __post_init__(self):
        if self.b_day <= self.a_day:
            raise ValueError("window needs b > a")

    @classmethod
    def one_year(cls, a_day: int) -> "ValuationWindow":
        """(a, the same calendar date a year later]; Feb 29 ends on Feb 28."""
        a = to_date(a_day)
        day = 28 if (a.month, a.day) == (2, 29) else a.day
        return cls(a_day, to_day(a.replace(year=a.year + 1, day=day)))

    @classmethod
    def ultimate(cls, a_day: int, runoff_years: float = 15.0) -> "ValuationWindow":
        return cls(a_day, a_day + int(round(runoff_years * DAYS_PER_YEAR)))


@dataclass(frozen=True)
class TypeModel:
    """All fitted components for one claim type."""

    occurrence: OccurrenceModel
    delay: WeibullDelayModel
    counts: CountProcess
    severity: object
    copula: CopulaSpec

    def to_dict(self) -> dict:
        return {
            "occurrence": self.occurrence.to_dict(),
            "delay": self.delay.to_dict(),
            "counts": self.counts.to_dict(),
            "severity": self.severity.to_dict(),
            "copula": self.copula.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TypeModel":
        return cls(
            occurrence=OccurrenceModel.from_dict(d["occurrence"]),
            delay=delay_model_from_dict(d["delay"]),
            counts=CountProcess.from_dict(d["counts"]),
            severity=severity_from_dict(d["severity"]),
            copula=copula_from_dict(d["copula"]),
        )


# the slack of the nesting rule's tau comparison
_NESTING_TOL = 1e-9


@dataclass(frozen=True)
class GranularModel:
    """Per-type component bundles plus the optional cross-type coupling.

    hac, when set, is the outer copula of a nesting whose inner copulas are
    the two types' own copulas, in type_names() order; None means the types
    are independent.
    """

    types: dict  # claim type -> TypeModel
    hac: HacSpec | None = None

    def __post_init__(self):
        if not self.types:
            raise ValueError("model needs at least one claim type")
        unknown = sorted(set(self.types) - set(CLAIM_TYPES))
        if unknown:
            raise ValueError(f"unknown claim types {unknown}; known: {list(CLAIM_TYPES)}")
        if self.hac is None:
            return
        if len(self.types) != 2:
            raise ValueError("a nested copula needs exactly two claim types")
        outer_tau = self.hac.outer_tau()
        for label, name in zip(("first", "second"), self.type_names()):
            inner_tau = self.types[name].copula.min_tau()
            if outer_tau > inner_tau + _NESTING_TOL:
                raise ValueError(
                    "nesting violated: outer tau "
                    f"{outer_tau:.4f} exceeds the {label} inner copula's "
                    f"minimum tau {inner_tau:.4f}"
                )

    def type_names(self) -> list:
        return [t for t in CLAIM_TYPES if t in self.types]

    def to_dict(self) -> dict:
        out = {"types": {t: m.to_dict() for t, m in sorted(self.types.items())}}
        if self.hac is not None:
            out["hac"] = self.hac.to_dict()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "GranularModel":
        return cls(
            types={t: TypeModel.from_dict(m) for t, m in d["types"].items()},
            hac=hac_from_dict(d["hac"]) if d.get("hac") else None,
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "GranularModel":
        with open(path) as f:
            return cls.from_dict(json.load(f))


DEFAULT_RECIPE = {
    "occurrence_family": "poisson",
    "intensity_family": "exponential",
    "severity_family": "lognormal",
    "severity_structure": "iid",
    "copula_family": "auto",
    "copula_time_varying": False,
    "hac_outer": "gumbel",
}


class PhaseError(RuntimeError):
    """A stage of the multistage fit failed; the message names the phase."""


def _per_type(cfg, key, ctype):
    """Recipe values may be a single setting or a {claim_type: setting} map."""
    val = cfg[key]
    if isinstance(val, dict):
        if ctype not in val:
            raise ValueError(f"recipe {key} has no entry for claim type {ctype!r}")
        return val[ctype]
    return val


def _phase(label, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PhaseError:
        raise
    except Exception as e:
        raise PhaseError(f"{label}: {e}") from e


def fit_model(portfolio, recipe=None):
    """Multistage fit: margins phase by phase, then copulas, then the nesting.

    Returns (GranularModel, report). The report carries per-type likelihood
    and selection details plus any warnings raised during fitting.
    """
    cfg = dict(DEFAULT_RECIPE)
    if recipe:
        unknown = set(recipe) - set(DEFAULT_RECIPE)
        if unknown:
            raise ValueError(f"unknown recipe keys: {sorted(unknown)}")
        cfg.update(recipe)

    report = {"types": {}, "warnings": []}
    subs = {ctype: portfolio.by_type(ctype) for ctype in portfolio.claim_types}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        occurrence = {
            ctype: _phase(
                "phase 1 (occurrence) failed", fit_occurrence, sub, cfg["occurrence_family"]
            )
            for ctype, sub in subs.items()
        }
        types = {}
        for ctype, sub in subs.items():
            delay = _phase(f"phase 2 (reporting delay, {ctype}) failed", fit_delay, sub)
            pairs, taus = copula_pairs(sub)
            counts = _phase(
                f"phase 3 (payment counts, {ctype}) failed",
                fit_intensity,
                taus,
                pairs[2],  # the observation horizons
                _per_type(cfg, "intensity_family", ctype),
            )
            severity = _phase(
                f"phase 4 (severity, {ctype}) failed",
                fit_severity,
                sub,
                _per_type(cfg, "severity_family", ctype),
                _per_type(cfg, "severity_structure", ctype),
            )
            cop = _phase(
                f"phase 5 (dependence, {ctype}) failed",
                fit_copula,
                pairs,
                delay,
                counts,
                family_name=_per_type(cfg, "copula_family", ctype),
                time_varying=cfg["copula_time_varying"],
            )
            types[ctype] = TypeModel(
                occurrence=occurrence[ctype],
                delay=delay,
                counts=counts,
                severity=severity,
                copula=cop.spec,
            )
            report["types"][ctype] = {
                "copula_family": cop.spec.family,
                "copula_loglik": cop.loglik,
                "copula_aic": dict(cop.aic_table),
                "intensity": counts.to_dict(),
                "delay_se": dict(delay.se),
            }

        hac = None
        names = list(types)  # in CLAIM_TYPES order, as portfolio.claim_types
        if cfg["hac_outer"] and len(names) >= 2:
            sa, sb = matched_delay_scores(
                subs[names[0]], subs[names[1]], types[names[0]].delay, types[names[1]].delay
            )
            if sa.size >= 20:
                hac = _phase(
                    "phase 5 (cross-type nesting) failed",
                    fit_hac_outer,
                    sa,
                    sb,
                    types[names[0]].copula,
                    types[names[1]].copula,
                    outer_family=cfg["hac_outer"],
                )
                report["hac"] = {
                    "outer_family": hac.outer_family if hac else "independence",
                    "outer_theta": hac.outer_theta if hac else None,
                    "matched_pairs": int(sa.size),
                }
            else:
                report["hac"] = {"skipped": "fewer than 20 matched pairs"}
        elif len(names) < 2:
            report["hac"] = {"skipped": "fewer than two claim types"}
        report["warnings"] = sorted({str(w.message) for w in caught})
    return GranularModel(types=types, hac=hac), report


# the delay tail mass that default_lookback leaves beyond its lookback
_LOOKBACK_TAIL = 1e-4


def default_lookback(delay_model, a_day: int) -> int:
    """Days of pre-valuation occurrence history worth simulating.

    Two passes of the 1 - _LOOKBACK_TAIL delay quantile: delays may lengthen
    for older accident dates, so the quantile is re-evaluated at the start of
    the first guess's window.
    """
    top = 1.0 - _LOOKBACK_TAIL
    q1 = float(np.max(delay_quantile(delay_model, a_day, top)))
    q2 = float(np.max(delay_quantile(delay_model, a_day - int(math.ceil(q1)), top)))
    return int(math.ceil(max(q1, q2))) + 1


def _place_payments(counts, n_vec, r_vec, lam_hi, last_day, rng):
    """Payment days for n_vec[i] payments of claim i, claim-major and sorted.

    Given the count, claim i's payment times are Lambda-inverse transformed
    order statistics on the cumulative-intensity interval (0, lam_hi[i]];
    days use the ceiling convention, r + ceil(tau * year), and are clipped
    into (r_vec[i], last_day].

    The order statistics come from one int64 sort of the keys
    claim * total + rank, rank being each uniform's place in sorted order;
    the keys stay below 2**63 while claims * payments does.
    """
    n_vec = np.asarray(n_vec, dtype=np.int64)
    total = int(n_vec.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    idx = np.repeat(np.arange(n_vec.size), n_vec)
    u = rng.random(total)
    order = np.argsort(u)
    key = np.sort(idx[order] * total + np.arange(total))
    u = u[order][key % total]
    taus = counts.intensity.cumulative_inv(u * lam_hi[idx])
    r = r_vec[idx]
    days = r + np.ceil(taus * DAYS_PER_YEAR).astype(np.int64)
    return idx, np.clip(days, r + 1, last_day)


def _inner_theta(tm, t_days, horizon_end: int):
    """The inner copula parameters as a function of the pairs' delay scores.

    A claim's dependence parameter is read at its own horizon: horizon_end
    less the reporting day that its delay score u1 implies.
    """

    def theta_fn(u1):
        w = np.floor(np.asarray(delay_quantile(tm.delay, t_days, u1), dtype=float))
        h = np.maximum((horizon_end - t_days - w) / DAYS_PER_YEAR, 0.0)
        return tm.copula.theta_at(h)

    return theta_fn


def _draw_arrivals(model, from_day_by_type, to_day, rng):
    """Stage 1 of the claim law: accident days, and for a coupled model the
    cross-type match and each matched pair's four copula uniforms.

    Returns (arrivals, match, uniforms): arrivals per type, and match_days'
    output and the (pairs, 4) uniforms, both None when the model is not
    coupled.
    """
    names = model.type_names()
    arrivals = {
        t: simulate_arrivals(model.types[t].occurrence, from_day_by_type[t], to_day, rng)
        for t in names
    }
    if model.hac is None:
        return arrivals, None, None
    match = match_days(arrivals[names[0]], arrivals[names[1]], MATCH_GAP_DAYS)
    return arrivals, match, hac_uniforms(rng, match[0].size)


def _solve_pairs(drawn, horizon_end):
    """Stage 2: the nested copula rows of every matched pair of a batch.

    drawn lists (model, stage-1 draw) for draws of one coupled model that may
    differ only in their redrawn margins. A single hac_sample solves every
    pair at once, its inner families the types' copulas; each draw's inner
    parameters come from its own model. The solve is elementwise, so each
    draw's rows are bit for bit those of solving it alone. Returns one
    (pairs, 4) row array per draw, or one None per draw when the model is
    not coupled.
    """
    model = drawn[0][0]
    if model.hac is None:
        return [None] * len(drawn)
    ends = np.cumsum([draw[2].shape[0] for _, draw in drawn]).tolist()
    spans = list(zip([0] + ends[:-1], ends))

    def segmented(k):
        # inner pair k's theta map: each draw's rows through its own model
        maps = []
        for m, (arrivals, match, _) in drawn:
            name = m.type_names()[k]
            days = arrivals[name][match[k]]
            maps.append(_inner_theta(m.types[name], days, horizon_end))

        def theta_fn(u):
            return np.concatenate([f(u[lo:hi]) for f, (lo, hi) in zip(maps, spans)])

        return theta_fn

    rows = hac_sample(
        model.hac,
        *(model.types[name].copula for name in model.type_names()),
        uniforms=np.concatenate([draw[2] for _, draw in drawn]),
        theta_a_fn=segmented(0),
        theta_b_fn=segmented(1),
    )
    return [rows[lo:hi] for lo, hi in spans]


def _finish_claims(model, draw, rows, report_after, horizon_end, rng):
    """Stage 3 of the claim law, given stage 1's draw and the pairs' rows.

    A claim is kept if it reports in (report_after, horizon_end]. Its
    payment count over (0, horizon_end - r] comes from the count margin at
    u2 (matched) or the copula conditional given u1 (free); payments are
    placed in (r, horizon_end] and amounts drawn per claim.

    Returns {claim_type: dict of arrays}: accident days t, reporting days r,
    counts n, plus flat claim-major payment (idx, day, amount) arrays.
    """
    names = model.type_names()
    arrivals, match, _ = draw
    pairs = {t: (np.empty(0, dtype=np.int64), np.empty((0, 2))) for t in names}
    free = arrivals
    if match is not None:
        na, nb = names
        ta, tb = arrivals[na], arrivals[nb]
        ia, ib, rest_a, rest_b = match
        pairs = {na: (ta[ia], rows[:, :2]), nb: (tb[ib], rows[:, 2:])}
        free = {na: ta[rest_a], nb: tb[rest_b]}

    out = {}
    for ctype in names:
        tm = model.types[ctype]
        t_pair, u_pair = pairs[ctype]
        t_free = free[ctype]
        t_all = np.concatenate([t_pair, t_free]).astype(np.int64)
        u1 = np.concatenate([u_pair[:, 0], rng.random(t_free.size)])
        w = np.floor(np.asarray(delay_quantile(tm.delay, t_all, u1), dtype=float))
        r = t_all + w.astype(np.int64)
        keep = (r > report_after) & (r <= horizon_end)
        paired = (np.arange(t_all.size) < t_pair.size)[keep]
        u2 = u_pair[keep[: t_pair.size], 1]
        t, r, u1 = t_all[keep], r[keep], u1[keep]
        horizon = (horizon_end - r) / DAYS_PER_YEAR

        n = np.zeros(t.size, dtype=np.int64)
        if paired.any():
            n[paired] = _count_marginal_quantile(u2, horizon[paired], tm.counts)
        alone = ~paired
        if alone.any():
            v = rng.random(int(alone.sum()))
            n[alone] = conditional_count_quantile(
                u1[alone], v, horizon[alone], tm.counts, tm.copula
            )

        lam_hi = np.asarray(tm.counts.intensity.cumulative(horizon), dtype=float)
        idx, days = _place_payments(tm.counts, n, r, lam_hi, horizon_end, rng)
        out[ctype] = {
            "t": t,
            "r": r,
            "n": n,
            "pay_idx": idx,
            "pay_day": days,
            "pay_amount": simulate_amounts(tm.severity, n, rng),
        }
    return out


def _draw_claims(model, from_day_by_type, to_day, report_after, horizon_end, rng):
    """One draw of the claim law, vectorized per type: the three stages in turn.

    Accident days come from each type's arrival process started at
    from_day_by_type[type] and run to to_day. When the model couples the two
    types, their accidents are matched by day and each matched pair draws
    (u1, u2, u3, u4) from the nested copula; other claims draw their delay
    score alone. Stage 3 (_finish_claims) keeps, counts and pays the claims.
    """
    draw = _draw_arrivals(model, from_day_by_type, to_day, rng)
    rows = _solve_pairs([(model, draw)], horizon_end)[0]
    return _finish_claims(model, draw, rows, report_after, horizon_end, rng)


def _ibnr_start_days(model, a_day):
    """Each type's first IBNR accident day: a less the type's default_lookback."""
    return {t: a_day - default_lookback(tm.delay, a_day) for t, tm in model.types.items()}


def _ibnr_draw(model, window, draw, rows, rng):
    """Stage 3 of one IBNR scenario: of the accidents drawn over the lookback
    (a - lookback, a], keep those reporting inside (a, b], horizon b.

    bench/tracing.py patches this name to time and count each scenario's
    IBNR claims.
    """
    return _finish_claims(model, draw, rows, window.a_day, window.b_day, rng)


def ibnr_simulate(model, window, rng) -> list:
    """One scenario of IBNR claims as ClaimRecord objects.

    Occurrences are continued over (a - lookback, a], lookback each type's
    default_lookback; each draws a delay and survives only if it reports
    inside (a, b]. Counts come from the copula conditional given the drawn
    delay (or the coupled nested draw for cross-type matched pairs), times
    from the count-conditional placement, amounts from the severity model.
    """
    a = window.a_day
    starts = _ibnr_start_days(model, a)
    draw = _draw_claims(model, starts, a, a, window.b_day, rng)
    records = []
    for ctype, d in draw.items():
        n = d["t"].size
        ids = [f"ibnr_{ctype}_{k:06d}" for k in range(1, n + 1)]
        codes = np.full(n, CLAIM_TYPES.index(ctype))
        columns = (d["t"], d["r"], d["n"], d["pay_day"], d["pay_amount"])
        records += records_from_columns(ids, codes, *columns)
    return records


def _period_edges(window):
    """Calendar-year bucket edges for (a, b]; returns (edges, year labels)."""
    y0 = year_of(window.a_day + 1)
    y1 = year_of(window.b_day)
    years = list(range(y0, y1 + 1))
    edges = [max(year_start(y), window.a_day + 1) for y in years]
    edges.append(window.b_day + 1)
    return np.asarray(edges, dtype=np.int64), years


@dataclass(frozen=True)
class _RbnsPrep:
    """One claim type's claims reported by a, grouped by reporting day: the
    distinct days, ascending, and the number of claims on each. No model
    parameter enters, so every scenario shares it. An order-AR severity also
    reads each claim's payment count k_obs and last amount last_amt by a,
    claims in reporting-day order; for an iid severity both are None."""

    days: np.ndarray
    n_claims: np.ndarray
    k_obs: np.ndarray | None = None
    last_amt: np.ndarray | None = None


def _prepare_rbns(model, portfolio, window):
    a = window.a_day
    prep = {}
    for ctype in model.type_names():
        sub = portfolio.by_type(ctype)
        reported = sub.reporting_days <= a
        r = sub.reporting_days[reported]
        days, n_claims = np.unique(r, return_counts=True)
        if not isinstance(model.types[ctype].severity, OrderARSeverity):
            prep[ctype] = _RbnsPrep(days, n_claims)
            continue
        # payment days ascend within a claim, so those made by a come first
        k = np.bincount(sub.pay_owner[sub.pay_days <= a], minlength=len(sub))[reported]
        last = np.zeros(r.size)
        last[k > 0] = sub.pay_amounts[(sub.pay_ptr[:-1][reported] + k - 1)[k > 0]]
        order = np.argsort(r, kind="stable")
        prep[ctype] = _RbnsPrep(days, n_claims, k[order], last[order])
    return prep


def _perturb_model(model, rng):
    """Estimation-risk draw: each component redraws its own parameters.

    Covers delays, payment intensities, and severity laws (the levers of the
    reserve mean); occurrence and dependence parameters stay at the point
    estimate. Draw order is fixed so scenarios stay reproducible: per type,
    delay, then counts, then severity.
    """
    types = {}
    for ctype in model.type_names():
        tm = model.types[ctype]
        types[ctype] = TypeModel(
            occurrence=tm.occurrence,
            delay=tm.delay.perturbed(rng),
            counts=tm.counts.perturbed(rng),
            severity=tm.severity.perturbed(rng),
            copula=tm.copula,
        )
    return GranularModel(types=types, hac=model.hac)


def _bucket_means(intensity, days, edges):
    """(P, days) expected payments in each bucket of a claim reported on
    each of days: Lambda(tau_{d,j+1}) - Lambda(tau_{d,j}).

    Bucket j holds the payment days [edges[j], edges[j+1]); by the ceiling-day
    rule of _place_payments, day r + ceil(tau * year), those are the claim
    times (tau_{d,j}, tau_{d,j+1}], tau_{d,j} = (edges[j] - d - 1) / year.
    For d <= a the buckets cover (tau_a, tau_b], payment days (a, b].
    """
    taus = (edges[:, None] - days - 1) / DAYS_PER_YEAR
    lam = np.asarray(intensity.cumulative(taus), dtype=float)
    return np.maximum(np.diff(lam, axis=0), 0.0)


def _split_over_claims(p, means, m, rng):
    """Each bucket's payment count m[j] split over the claims of prep p.

    A payment of bucket j goes to reporting-day group g with probability
    means[j, g] / sum(means[j]), by one searchsorted on the cumulative means,
    then to one of the group's claims uniformly: the multinomial split, which
    leaves each claim's bucket counts independent Poisson, as drawn claim by
    claim. Returns the paying claims, their counts and each payment's bucket,
    claim-major with buckets ascending: the order of continue_flat's chains.
    """
    n_periods, n_days = means.shape
    bucket = np.repeat(np.arange(n_periods), m)
    cum = np.cumsum(means.ravel())
    top = cum[n_days - 1 :: n_days]
    bottom = np.concatenate([[0.0], top[:-1]])
    target = bottom[bucket] + rng.random(bucket.size) * (top - bottom)[bucket]
    # a bucket's payments are exchangeable, and sorted targets keep each
    # bucket's block in place while searchsorted walks cum once
    flat = np.searchsorted(cum, np.sort(target), side="right")
    # rounding can put a target on its bucket's top, past the last group
    group = np.minimum(flat - bucket * n_days, n_days - 1)
    first = np.cumsum(p.n_claims) - p.n_claims
    claim = first[group] + rng.integers(0, p.n_claims[group])
    key = np.sort(claim * n_periods + bucket)
    owners, counts = np.unique(key // n_periods, return_counts=True)
    return owners, counts, key % n_periods


def _rbns_scenario(model, prep, window, edges, rng):
    """One scenario of RBNS payments; returns per-type period flows.

    Claims pay independent Poisson counts per bucket (_bucket_means), so a
    bucket's count over all claims is one Poisson draw at their sum (Norberg
    1993): one rng.poisson call per type. An iid severity needs only that
    count. An order-AR severity reads each claim's history: the counts are
    split over the claims, and earlier buckets take a chain's earlier links.
    """
    n_periods = edges.size - 1
    flows = {}
    for ctype in model.type_names():
        tm = model.types[ctype]
        p = prep[ctype]
        if p.days.size == 0:
            flows[ctype] = np.zeros(n_periods)
            continue
        means = _bucket_means(tm.counts.intensity, p.days, edges) * p.n_claims
        m = rng.poisson(means.sum(axis=1))
        if p.k_obs is None:
            bucket = np.repeat(np.arange(n_periods), m)
            amounts = tm.severity.continue_flat(m, 0, 0.0, rng)
        else:
            owners, counts, bucket = _split_over_claims(p, means, m, rng)
            amounts = tm.severity.continue_flat(
                counts, p.k_obs[owners], p.last_amt[owners], rng
            )
        flows[ctype] = np.bincount(bucket, weights=amounts, minlength=n_periods)
    return flows


@dataclass(frozen=True)
class _Scenarios:
    """What every scenario of one simulate_reserves call shares.

    prep holds no model parameter. starts (each type's first IBNR accident
    day) holds the point model's values; with parameter_risk a scenario
    recomputes them from its redrawn model.
    """

    model: GranularModel
    prep: dict
    starts: dict
    window: ValuationWindow
    edges: np.ndarray
    parameter_risk: bool


def _start_scenario(sc, seed_child):
    """Stage 1 of a scenario, on its own generator: the parameter redraw, the
    RBNS flows (one Poisson count per type and period bucket) and the IBNR
    arrivals, match and pair uniforms."""
    rng = np.random.default_rng(seed_child)
    model, starts = sc.model, sc.starts
    if sc.parameter_risk:
        model = _perturb_model(model, rng)
        starts = _ibnr_start_days(model, sc.window.a_day)
    rbns_flows = _rbns_scenario(model, sc.prep, sc.window, sc.edges, rng)
    draw = _draw_arrivals(model, starts, sc.window.a_day, rng)
    return model, rng, rbns_flows, draw


def _finish_scenario(sc, started, rows):
    """Stage 3 of a scenario: its IBNR claims, then both flows per type."""
    model, rng, rbns_flows, draw = started
    ibnr = _ibnr_draw(model, sc.window, draw, rows, rng)
    n_periods = sc.edges.size - 1
    row = {}
    for ctype in model.type_names():
        d = ibnr[ctype]
        buckets = np.searchsorted(sc.edges, d["pay_day"], side="right") - 1
        ibnr_flow = np.bincount(
            buckets, weights=d["pay_amount"], minlength=n_periods
        )
        row[ctype] = (rbns_flows[ctype], ibnr_flow)
    return row


# Scenarios per batch, and so per joint nested-copula solve: enough to spread
# numpy's per-call cost over many pairs, few enough that a long run holds a
# bounded number of half-drawn scenarios. Output does not depend on it.
_BATCH_SCENARIOS = 64


def _scenario_batch(sc, children):
    """The rows of the scenarios seeded by children, in order, stage by stage.

    Every scenario of a batch runs stage 1 on its own generator; one
    hac_sample then solves the nested copula for the matched pairs of all of
    them (stage 2, skipped without the nested copula); every scenario
    finishes on its own generator (stage 3).
    """
    rows = []
    for k in range(0, len(children), _BATCH_SCENARIOS):
        started = [_start_scenario(sc, c) for c in children[k : k + _BATCH_SCENARIOS]]
        drawn = [(model, draw) for model, _, _, draw in started]
        solved = _solve_pairs(drawn, sc.window.b_day)
        rows += [_finish_scenario(sc, s, r) for s, r in zip(started, solved)]
    return rows


@dataclass(frozen=True)
class ReserveDistribution:
    """Simulated reserve scenarios with per-type and per-period splits."""

    window: ValuationWindow
    claim_types: tuple
    period_years: tuple
    rbns: np.ndarray  # (S,)
    ibnr: np.ndarray  # (S,)
    by_type: dict  # type -> (S,)
    by_period: np.ndarray  # (S, P) combined flows
    master_seed: int

    @property
    def totals(self) -> np.ndarray:
        return self.rbns + self.ibnr


def simulate_reserves(
    model,
    portfolio,
    window,
    n_scenarios: int,
    seed: int,
    workers: int = 1,
    parameter_risk: bool = False,
) -> ReserveDistribution:
    """Monte Carlo reserve distribution over the window (a, b].

    Every reported claim contributes RBNS payments; IBNR claims are simulated
    afresh each scenario. Scenario i is driven by the i-th spawned child of
    SeedSequence(seed), so output is identical for any worker count. With
    parameter_risk, each scenario first redraws fitted parameters from their
    reported standard errors, widening the predictive to include estimation
    uncertainty.
    """
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    if window.a_day > portfolio.data_cutoff:
        raise ValueError("valuation date is past the data cutoff")
    names = model.type_names()
    edges, years = _period_edges(window)
    sc = _Scenarios(
        model=model,
        prep=_prepare_rbns(model, portfolio, window),
        starts=_ibnr_start_days(model, window.a_day),
        window=window,
        edges=edges,
        parameter_risk=parameter_risk,
    )
    children = np.random.SeedSequence(seed).spawn(n_scenarios)

    if workers <= 1 or n_scenarios < 4:
        rows = _scenario_batch(sc, children)
    else:
        chunks = [
            [children[i] for i in chunk]
            for chunk in np.array_split(np.arange(n_scenarios), workers * 4)
            if chunk.size
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_scenario_batch, [sc] * len(chunks), chunks)
            rows = [row for part in parts for row in part]

    n_periods = edges.size - 1
    rbns = np.zeros(n_scenarios)
    ibnr = np.zeros(n_scenarios)
    by_type = {t: np.zeros(n_scenarios) for t in names}
    by_period = np.zeros((n_scenarios, n_periods))
    for i, row in enumerate(rows):
        for ctype in names:
            rb, ib = row[ctype]
            rbns[i] += rb.sum()
            ibnr[i] += ib.sum()
            by_type[ctype][i] = rb.sum() + ib.sum()
            by_period[i] += rb + ib
    return ReserveDistribution(
        window=window,
        claim_types=tuple(names),
        period_years=tuple(years),
        rbns=rbns,
        ibnr=ibnr,
        by_type=by_type,
        by_period=by_period,
        master_seed=int(seed),
    )


# the quantile levels of every reserve and backtest summary
LEVELS = (0.5, 0.75, 0.95, 0.995)


def _block_summary(x):
    x = np.asarray(x, dtype=float)
    out = {
        "mean": float(np.mean(x)),
        "sd": float(np.std(x, ddof=1)) if x.size > 1 else 0.0,
    }
    for q in LEVELS:
        out[f"q{q:g}"] = float(np.quantile(x, q, method="midpoint"))
    return out


def reserve_summary(dist) -> dict:
    """Mean, sd, and the LEVELS quantiles for the total and each block."""
    if dist.rbns.size == 0:
        raise ValueError("no scenarios to summarize")
    out = {
        "n_scenarios": int(dist.rbns.size),
        "seed": dist.master_seed,
        "window": {"a_day": dist.window.a_day, "b_day": dist.window.b_day},
        "total": _block_summary(dist.totals),
        "rbns": _block_summary(dist.rbns),
        "ibnr": _block_summary(dist.ibnr),
        "by_type": {t: _block_summary(dist.by_type[t]) for t in dist.claim_types},
        "expected_cash_flow": {
            str(y): float(np.mean(dist.by_period[:, j]))
            for j, y in enumerate(dist.period_years)
        },
    }
    return out


def chain_ladder_reserve(tri) -> dict:
    """Classical development-factor projection on a cumulative triangle."""
    cells = np.asarray(tri.cells, dtype=float)
    n_origin, n_dev = cells.shape
    if n_origin < 2:
        raise ValueError("need at least two origin periods")
    factors = []
    for j in range(n_dev - 1):
        both = ~np.isnan(cells[:, j]) & ~np.isnan(cells[:, j + 1])
        denom = cells[both, j].sum()
        if not both.any() or denom == 0.0:
            raise ValueError(f"development column {j} has zero exposure")
        factors.append(float(cells[both, j + 1].sum() / denom))
    latest_col = np.array(
        [int(np.max(np.flatnonzero(~np.isnan(cells[i])))) for i in range(n_origin)]
    )
    reserves, ultimates = {}, {}
    for i, origin in enumerate(tri.origin_years):
        j = latest_col[i]
        ult = cells[i, j]
        for f in factors[j:]:
            ult *= f
        ultimates[origin] = float(ult)
        reserves[origin] = float(ult - cells[i, j])
    return {
        "factors": factors,
        "ultimate_by_origin": ultimates,
        "reserve_by_origin": reserves,
        "total_reserve": float(sum(reserves.values())),
    }


@dataclass(frozen=True)
class BacktestResult:
    distribution: ReserveDistribution
    actual: float
    quantile_of_actual: float
    coverage: dict  # level -> actual <= predicted quantile at level
    in_band_90: bool
    fit_report: dict = field(default_factory=dict, compare=False)


def backtest(
    portfolio,
    recipe,
    a_day: int,
    b_day: int,
    n_scenarios: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> BacktestResult:
    """Fit on data up to a, predict (a, b], compare with realized payments.

    The holdout total counts payments in (a, b] of claims incurred by a: the
    reserve's scope. The predictive includes estimation risk, so
    out-of-sample coverage is honest about parameter uncertainty; coverage
    is reported at the LEVELS quantiles.
    """
    if a_day >= portfolio.data_cutoff:
        raise ValueError("no holdout: valuation date must precede the data cutoff")
    if b_day > portfolio.data_cutoff:
        raise ValueError("horizon end exceeds the data cutoff")
    window = ValuationWindow(a_day, b_day)
    train = censor(portfolio, a_day)
    model, report = fit_model(train, recipe)
    dist = simulate_reserves(
        model, train, window, n_scenarios, seed, workers=workers, parameter_risk=True
    )
    incurred = (portfolio.accident_days <= a_day)[portfolio.pay_owner]
    days = portfolio.pay_days
    # summed in claim and payment order, left to right
    actual = float(
        sum(portfolio.pay_amounts[incurred & (a_day < days) & (days <= b_day)].tolist())
    )
    totals = dist.totals
    rank = float(np.mean(totals < actual) + 0.5 * np.mean(totals == actual))
    coverage = {
        f"{q:g}": bool(actual <= np.quantile(totals, q, method="midpoint"))
        for q in LEVELS
    }
    lo = np.quantile(totals, 0.05, method="midpoint")
    hi = np.quantile(totals, 0.95, method="midpoint")
    return BacktestResult(
        distribution=dist,
        actual=actual,
        quantile_of_actual=rank,
        coverage=coverage,
        in_band_90=bool(lo < actual <= hi),
        fit_report=report,
    )
