"""Reserve prediction engine.

One kernel, _draw_claims, draws the claim law claim by claim: arrivals from
the day-gap model, cross-type matching by accident day, the nested copula
draw for matched pairs, the reporting delay, the payment count at the
claim's horizon, payment placement and amounts. It has three views:

* synth.synthesize: arrivals on [start, end], every claim that reports by
  end kept, horizon end; the observed history.
* _ibnr_draw (and ibnr_simulate, its ClaimRecord form): arrivals over the
  lookback (a - lookback, a], kept if they report inside (a, b], horizon b;
  the IBNR reserve.
* _rbns_scenario: claims reported by a continue their payment process on
  (a, b] through the same placement, _place_payments; the RBNS reserve.

The Monte Carlo scenario loop is embarrassingly parallel. Scenario i draws
from a generator seeded with the i-th child of SeedSequence(master), so
results are identical for any worker count and merge by scenario index.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .claims import CLAIM_TYPES, ClaimRecord, PaymentEvent, Portfolio, censor
from .copulas import (
    CopulaSpec,
    HacSpec,
    conditional_count_quantile,
    copula_from_dict,
    copula_pairs,
    family as copula_family,
    fit_copula,
    fit_hac_outer,
    hac_from_dict,
    hac_sample,
    matched_delay_scores,
)
from .copulas.hac import match_days
from .daycount import DAYS_PER_YEAR, year_of, year_start
from .delays import delay_cdf, delay_model_from_dict, delay_quantile, fit_delay
from .frequency import OccurrenceModel, fit_occurrence, simulate_arrivals
from .payments import CountProcess, fit_intensity
from .severity import (
    OrderARSeverity,
    fit_severity,
    severity_from_dict,
    simulate_amounts,
)


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
        return cls(a_day, a_day + 365)

    @classmethod
    def ultimate(cls, a_day: int, runoff_years: float = 15.0) -> "ValuationWindow":
        return cls(a_day, a_day + int(round(runoff_years * DAYS_PER_YEAR)))

    @property
    def horizon_years(self) -> float:
        return (self.b_day - self.a_day) / DAYS_PER_YEAR


@dataclass(frozen=True)
class TypeModel:
    """All fitted components for one claim type."""

    occurrence: OccurrenceModel
    delay: object
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


@dataclass(frozen=True)
class GranularModel:
    """Per-type component bundles plus the optional cross-type coupling."""

    types: dict  # claim type -> TypeModel
    hac: HacSpec | None = None

    def __post_init__(self):
        if not self.types:
            raise ValueError("model needs at least one claim type")
        unknown = sorted(set(self.types) - set(CLAIM_TYPES))
        if unknown:
            raise ValueError(f"unknown claim types {unknown}; known: {list(CLAIM_TYPES)}")

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
    "delay_variant": "weibull_tv",
    "intensity_family": "exponential",
    "severity_family": "lognormal",
    "severity_structure": "iid",
    "copula_family": "auto",
    "copula_time_varying": False,
    "hac_outer": "gumbel",
    "match_gap_days": 7,
}


def _payment_taus(portfolio, claim_type):
    """Per-claim internal payment times and observation horizons (years)."""
    cut = portfolio.data_cutoff
    taus, horizons = [], []
    for c in portfolio.by_type(claim_type):
        h = (cut - c.reporting_day) / DAYS_PER_YEAR
        if h <= 0:
            continue
        taus.append(
            np.array(
                [(p.day - c.reporting_day) / DAYS_PER_YEAR for p in c.payments],
                dtype=float,
            )
        )
        horizons.append(h)
    return taus, np.asarray(horizons, dtype=float)


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        occurrence = _phase(
            "phase 1 (occurrence) failed",
            fit_occurrence,
            portfolio,
            cfg["occurrence_family"],
        )
        types = {}
        for ctype in portfolio.claim_types:
            sub = Portfolio(
                claims=portfolio.by_type(ctype), data_cutoff=portfolio.data_cutoff
            )
            delay = _phase(
                f"phase 2 (reporting delay, {ctype}) failed",
                fit_delay,
                sub,
                cfg["delay_variant"],
            )
            taus, horizons = _payment_taus(portfolio, ctype)
            counts = _phase(
                f"phase 3 (payment counts, {ctype}) failed",
                fit_intensity,
                taus,
                horizons,
                _per_type(cfg, "intensity_family", ctype),
            )
            severity = _phase(
                f"phase 4 (severity, {ctype}) failed",
                fit_severity,
                portfolio,
                ctype,
                family=_per_type(cfg, "severity_family", ctype),
                structure=_per_type(cfg, "severity_structure", ctype),
            )
            cop = _phase(
                f"phase 5 (dependence, {ctype}) failed",
                fit_copula,
                copula_pairs(portfolio, ctype),
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
                "delay_se": dict(getattr(delay, "se", {})),
            }

        hac = None
        names = [t for t in CLAIM_TYPES if t in types]
        if cfg["hac_outer"] and len(names) >= 2:
            sa, sb = matched_delay_scores(
                portfolio,
                {t: types[t].delay for t in names},
                max_gap_days=cfg["match_gap_days"],
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
                    "outer_family": hac.outer_family,
                    "outer_theta": hac.outer_theta,
                    "matched_pairs": int(sa.size),
                }
            else:
                report["hac"] = {"skipped": "fewer than 20 matched pairs"}
        elif len(names) < 2:
            report["hac"] = {"skipped": "fewer than two claim types"}
        report["warnings"] = sorted({str(w.message) for w in caught})
    return GranularModel(types=types, hac=hac), report


def reporting_prob_window(delay_model, window, t):
    """P[a < T + W <= b | T = t]: the delay cdf increment over the window."""
    t_arr = np.asarray(t)
    hi = delay_cdf(delay_model, t_arr, np.asarray(window.b_day - t_arr, dtype=float))
    lo = delay_cdf(delay_model, t_arr, np.asarray(window.a_day - t_arr, dtype=float))
    return hi - lo


def ibnr_count_conditional(model, window, t, w, n, claim_type=None):
    """P[N = n | accident at t, delay w, reported inside the window].

    The copula's conditional count bracket at horizon b - t - w, divided by
    the window reporting probability. Integrating this against the delay
    density over admissible w and summing over n gives 1 for each t.
    """
    if isinstance(model, TypeModel):
        tm = model
    elif claim_type is not None:
        tm = model.types[claim_type]
    else:
        raise TypeError("pass a TypeModel, or a GranularModel with claim_type")
    if not (window.a_day < t + w <= window.b_day):
        raise ValueError("(t, w) must report inside the window")
    horizon = (window.b_day - t - w) / DAYS_PER_YEAR
    u = np.asarray(delay_cdf(tm.delay, t, w), dtype=float).item()
    q_hi = tm.counts.count_cdf(horizon, n)
    q_lo = tm.counts.count_cdf(horizon, np.asarray(n) - 1)
    fam = copula_family(tm.copula.family)
    theta = tm.copula.theta_at(np.asarray(horizon, dtype=float))
    bracket = np.clip(fam.h(u, q_hi, theta) - fam.h(u, q_lo, theta), 0.0, None)
    win = np.asarray(reporting_prob_window(tm.delay, window, t), dtype=float).item()
    if win <= 0:
        raise ValueError("window has zero reporting probability at this t")
    return bracket / win


def default_lookback(delay_model, a_day: int, tail: float = 1e-4) -> int:
    """Days of pre-valuation occurrence history worth simulating.

    Two passes of the high quantile: delays may lengthen for older accident
    dates, so the quantile is re-evaluated at the start of the first guess's
    window.
    """
    q1 = float(np.max(delay_quantile(delay_model, a_day, 1.0 - tail)))
    q2 = float(
        np.max(delay_quantile(delay_model, a_day - int(math.ceil(q1)), 1.0 - tail))
    )
    return int(math.ceil(max(q1, q2))) + 1


def _count_marginal_quantile(u, horizon, counts):
    """Smallest n with Q_horizon(n) >= u, vectorized."""
    from scipy import stats

    u = np.atleast_1d(np.asarray(u, dtype=float))
    lam = np.asarray(counts.intensity.cumulative(horizon), dtype=float)
    n = stats.poisson.ppf(np.clip(u, 1e-300, 1.0 - 1e-16), np.maximum(lam, 0.0))
    return np.maximum(np.nan_to_num(n, nan=0.0), 0.0).astype(np.int64)


def _place_payments(counts, n_vec, r_vec, lam_lo, lam_hi, after_day, last_day, rng):
    """Payment days for n_vec[i] payments of claim i, claim-major and sorted.

    Given the count, claim i's payment times are Lambda-inverse transformed
    order statistics on the cumulative-intensity interval (lam_lo, lam_hi]
    (lam_lo may be a scalar); days use the ceiling convention and are
    clipped into (max(r_vec[i], after_day), last_day].
    """
    n_vec = np.asarray(n_vec, dtype=np.int64)
    total = int(n_vec.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    idx = np.repeat(np.arange(n_vec.size), n_vec)
    u = rng.random(total)
    u = u[np.lexsort((u, idx))]
    lam_lo = np.broadcast_to(lam_lo, lam_hi.shape)
    taus = counts.intensity.cumulative_inv(lam_lo[idx] + u * (lam_hi - lam_lo)[idx])
    r = r_vec[idx]
    days = r + np.ceil(taus * DAYS_PER_YEAR).astype(np.int64)
    return idx, np.clip(days, np.maximum(r, after_day) + 1, last_day)


def _inner_theta(tm, t_day: int, horizon_end: int):
    """The inner copula parameter as a function of the pair's delay score.

    A claim's dependence parameter is read at its own horizon: horizon_end
    less the reporting day that the delay score u1 implies.
    """

    def theta_fn(u1):
        w = math.floor(float(delay_quantile(tm.delay, t_day, u1)))
        h = max((horizon_end - t_day - w) / DAYS_PER_YEAR, 0.0)
        return float(tm.copula.theta_at(np.asarray(h)))

    return theta_fn


def _draw_claims(
    model, from_day_by_type, to_day, report_after, horizon_end, rng, match_gap_days
):
    """One draw of the claim law, vectorized per type.

    Accident days come from each type's arrival process started at
    from_day_by_type[type] and run to to_day. When the model couples the two
    types, their accidents are matched by day and each matched pair draws
    (u1, u2, u3, u4) from the nested copula; other claims draw their delay
    score alone. A claim is kept if it reports in (report_after,
    horizon_end]. Its payment count over (0, horizon_end - r] comes from the
    count margin at u2 (matched) or the copula conditional given u1 (free);
    payments are placed in (r, horizon_end] and amounts drawn per claim.

    Returns {claim_type: dict of arrays}: accident days t, reporting days r,
    counts n, plus flat claim-major payment (idx, day, amount) arrays.
    """
    names = model.type_names()
    arrivals = {
        t: simulate_arrivals(model.types[t].occurrence, from_day_by_type[t], to_day, rng)
        for t in names
    }
    pairs = {t: (np.empty(0, dtype=np.int64), np.empty((0, 2))) for t in names}
    free = arrivals
    hac = model.hac
    if hac is not None and hac.outer_family != "independence" and len(names) >= 2:
        na, nb = names
        ta, tb = arrivals[na], arrivals[nb]
        ia, ib, rest_a, rest_b = match_days(ta, tb, match_gap_days)
        rows = np.empty((ia.size, 4))
        for m in range(ia.size):
            rows[m] = hac_sample(
                hac,
                rng,
                size=1,
                theta_a_fn=_inner_theta(model.types[na], int(ta[ia[m]]), horizon_end),
                theta_b_fn=_inner_theta(model.types[nb], int(tb[ib[m]]), horizon_end),
            )[0]
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
        idx, days = _place_payments(
            tm.counts, n, r, 0.0, lam_hi, report_after, horizon_end, rng
        )
        out[ctype] = {
            "t": t,
            "r": r,
            "n": n,
            "pay_idx": idx,
            "pay_day": days,
            "pay_amount": simulate_amounts(tm.severity, n, rng),
        }
    return out


def _claim_records(claim_type, d, id_prefix, order=None) -> list:
    """ClaimRecords from one type's kernel arrays.

    order permutes the claims (default: kernel order); ids number them in
    output order as {id_prefix}_{claim_type}_{k:06d}.
    """
    t, r = d["t"].tolist(), d["r"].tolist()
    days, amounts = d["pay_day"].tolist(), d["pay_amount"].tolist()
    bounds = np.concatenate(([0], np.cumsum(d["n"]))).tolist()
    return [
        ClaimRecord(
            claim_id=f"{id_prefix}_{claim_type}_{pos + 1:06d}",
            claim_type=claim_type,
            accident_day=t[i],
            reporting_day=r[i],
            payments=tuple(
                map(
                    PaymentEvent,
                    days[bounds[i] : bounds[i + 1]],
                    amounts[bounds[i] : bounds[i + 1]],
                )
            ),
        )
        for pos, i in enumerate(range(len(t)) if order is None else order)
    ]


def _ibnr_draw(model, window, rng, lookback=None, match_gap_days=7):
    """One scenario of IBNR claims: the claim-law kernel over the lookback.

    Accidents arrive on (a - lookback, a] (default_lookback per type when
    lookback is None) and are kept if they report inside (a, b].
    """
    a = window.a_day
    from_day = {
        t: a - (lookback if lookback is not None else default_lookback(tm.delay, a))
        for t, tm in model.types.items()
    }
    return _draw_claims(model, from_day, a, a, window.b_day, rng, match_gap_days)


def ibnr_simulate(model, window, rng, lookback=None, match_gap_days=7) -> list:
    """One scenario of IBNR claims as ClaimRecord objects.

    Occurrences are continued over (a - lookback, a]; each draws a delay and
    survives only if it reports inside (a, b]. Counts come from the copula
    conditional given the drawn delay (or the coupled nested draw for
    cross-type matched pairs), times from the count-conditional placement,
    amounts from the severity model.
    """
    draw = _ibnr_draw(model, window, rng, lookback, match_gap_days)
    return [c for ctype, d in draw.items() for c in _claim_records(ctype, d, "ibnr")]


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
    """Read-only per-type arrays for the scenario loop."""

    r: np.ndarray
    tau_a: np.ndarray
    tau_b: np.ndarray
    k_obs: np.ndarray
    last_amt: np.ndarray


def _prepare_rbns(model, portfolio, window):
    prep = {}
    for ctype in model.type_names():
        claims = [
            c for c in portfolio.by_type(ctype) if c.reporting_day <= window.a_day
        ]
        r = np.array([c.reporting_day for c in claims], dtype=np.int64)
        k = np.array(
            [sum(1 for p in c.payments if p.day <= window.a_day) for c in claims],
            dtype=np.int64,
        )
        last = np.array(
            [
                next(
                    (p.amount for p in reversed(c.payments) if p.day <= window.a_day),
                    0.0,
                )
                for c in claims
            ],
            dtype=float,
        )
        prep[ctype] = _RbnsPrep(
            r=r,
            tau_a=(window.a_day - r) / DAYS_PER_YEAR,
            tau_b=(window.b_day - r) / DAYS_PER_YEAR,
            k_obs=k,
            last_amt=last,
        )
    return prep


def _normal_shift(rng, value, se, lo=None, hi=None):
    se = float(se)
    if not math.isfinite(se):
        se = 0.0
    x = float(value) + se * rng.standard_normal()
    if lo is not None:
        x = max(x, lo)
    if hi is not None:
        x = min(x, hi)
    return x


def _perturb_counts(counts, rng):
    from .payments import intensity_from_dict

    d = counts.intensity.to_dict()
    cov = np.asarray(counts.cov, dtype=float) if counts.cov else None
    if cov is not None and np.all(np.isfinite(cov)):
        lam0, beta = rng.multivariate_normal(
            [d["lam0"], d["beta"]], cov, method="svd"
        )
    else:
        lam0 = _normal_shift(rng, d["lam0"], counts.se.get("lam0", 0.0))
        beta = _normal_shift(rng, d["beta"], counts.se.get("beta", 0.0))
    d["lam0"] = max(lam0, 1e-6)
    d["beta"] = max(beta, 1.0 + 1e-6) if d["family"] == "power" else max(beta, 1e-6)
    return CountProcess(intensity_from_dict(d), se=counts.se, cov=counts.cov)


def _perturb_severity(sev, rng):
    from .severity import GammaSeverity, LogNormalSeverity

    if isinstance(sev, LogNormalSeverity):
        return LogNormalSeverity(
            mu=_normal_shift(rng, sev.mu, sev.se.get("mu", 0.0)),
            sigma=_normal_shift(rng, sev.sigma, sev.se.get("sigma", 0.0), lo=1e-3),
            se=sev.se,
        )
    if isinstance(sev, GammaSeverity):
        return GammaSeverity(
            shape=_normal_shift(rng, sev.shape, sev.se.get("shape", 0.0), lo=1e-6),
            scale=_normal_shift(rng, sev.scale, sev.se.get("scale", 0.0), lo=1e-9),
            se=sev.se,
        )
    if isinstance(sev, OrderARSeverity):
        from dataclasses import replace

        return replace(sev, base=_perturb_severity(sev.base, rng))
    return sev


def _perturb_delay(delay, rng):
    from .delays import WeibullDelayModel

    if not isinstance(delay, WeibullDelayModel):
        return delay
    return WeibullDelayModel(
        shape=_normal_shift(rng, delay.shape, delay.se.get("shape", 0.0), lo=0.05),
        c0=_normal_shift(rng, delay.c0, delay.se.get("c0", 0.0)),
        c1=_normal_shift(rng, delay.c1, delay.se.get("c1", 0.0), hi=0.0),
        se=delay.se,
    )


def _perturb_model(model, rng):
    """Estimation-risk draw: resample parameters from their reported SEs.

    Covers delays, payment intensities, and severity laws (the levers of the
    reserve mean); occurrence and dependence parameters stay at the point
    estimate. Draw order is fixed so scenarios stay reproducible.
    """
    types = {}
    for ctype in model.type_names():
        tm = model.types[ctype]
        types[ctype] = TypeModel(
            occurrence=tm.occurrence,
            delay=_perturb_delay(tm.delay, rng),
            counts=_perturb_counts(tm.counts, rng),
            severity=_perturb_severity(tm.severity, rng),
            copula=tm.copula,
        )
    return GranularModel(types=types, hac=model.hac)


def _rbns_scenario(model, prep, window, edges, rng):
    """One scenario of RBNS payments; returns per-type (period flows, total)."""
    flows = {}
    for ctype in model.type_names():
        tm = model.types[ctype]
        p = prep[ctype]
        n_periods = edges.size - 1
        if p.r.size == 0:
            flows[ctype] = np.zeros(n_periods)
            continue
        lam_a = np.asarray(tm.counts.intensity.cumulative(p.tau_a), dtype=float)
        lam_b = np.asarray(tm.counts.intensity.cumulative(p.tau_b), dtype=float)
        m = rng.poisson(np.maximum(lam_b - lam_a, 0.0))
        total = int(m.sum())
        if total == 0:
            flows[ctype] = np.zeros(n_periods)
            continue
        _, days = _place_payments(
            tm.counts, m, p.r, lam_a, lam_b, window.a_day, window.b_day, rng
        )
        if isinstance(tm.severity, OrderARSeverity):
            amounts = tm.severity.continue_flat(m, p.k_obs, p.last_amt, rng)
        else:
            amounts = tm.severity.sample(total, rng)
        buckets = np.searchsorted(edges, days, side="right") - 1
        flows[ctype] = np.bincount(buckets, weights=amounts, minlength=n_periods)
    return flows


def _one_scenario(
    model, prep, window, edges, seed_child, lookback, match_gap_days, parameter_risk
):
    rng = np.random.default_rng(seed_child)
    if parameter_risk:
        model = _perturb_model(model, rng)
    n_periods = edges.size - 1
    rbns_flows = _rbns_scenario(model, prep, window, edges, rng)
    ibnr = _ibnr_draw(model, window, rng, lookback, match_gap_days)
    row = {}
    for ctype in model.type_names():
        d = ibnr[ctype]
        buckets = np.searchsorted(edges, d["pay_day"], side="right") - 1
        ibnr_flow = np.bincount(
            buckets, weights=d["pay_amount"], minlength=n_periods
        )
        row[ctype] = (rbns_flows[ctype], ibnr_flow)
    return row


def _scenario_batch(args):
    model, prep, window, edges, children, lookback, match_gap_days, prisk = args
    out = []
    for child in children:
        out.append(
            _one_scenario(
                model, prep, window, edges, child, lookback, match_gap_days, prisk
            )
        )
    return out


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

    def summary(self, levels=(0.5, 0.75, 0.95, 0.995)) -> dict:
        return reserve_summary(self, levels)


def simulate_reserves(
    model,
    portfolio,
    window,
    n_scenarios: int,
    seed: int,
    workers: int = 1,
    lookback=None,
    match_gap_days: int = 7,
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
    prep = _prepare_rbns(model, portfolio, window)
    children = np.random.SeedSequence(seed).spawn(n_scenarios)

    rows = [None] * n_scenarios
    if workers <= 1 or n_scenarios < 4:
        for i, child in enumerate(children):
            rows[i] = _one_scenario(
                model,
                prep,
                window,
                edges,
                child,
                lookback,
                match_gap_days,
                parameter_risk,
            )
    else:
        chunks = np.array_split(np.arange(n_scenarios), workers * 4)
        tasks = [
            (
                model,
                prep,
                window,
                edges,
                [children[i] for i in chunk],
                lookback,
                match_gap_days,
                parameter_risk,
            )
            for chunk in chunks
            if chunk.size
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk, result in zip(
                [c for c in chunks if c.size], pool.map(_scenario_batch, tasks)
            ):
                for i, row in zip(chunk, result):
                    rows[i] = row

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


def _block_summary(x, levels):
    x = np.asarray(x, dtype=float)
    out = {
        "mean": float(np.mean(x)),
        "sd": float(np.std(x, ddof=1)) if x.size > 1 else 0.0,
    }
    for q in levels:
        out[f"q{q:g}"] = float(np.quantile(x, q, method="midpoint"))
    return out


def reserve_summary(dist, levels=(0.5, 0.75, 0.95, 0.995)) -> dict:
    """Mean, sd, and quantiles for the total and each decomposition block."""
    if dist.rbns.size == 0:
        raise ValueError("no scenarios to summarize")
    levels = tuple(sorted(levels))
    out = {
        "n_scenarios": int(dist.rbns.size),
        "seed": dist.master_seed,
        "window": {"a_day": dist.window.a_day, "b_day": dist.window.b_day},
        "total": _block_summary(dist.totals, levels),
        "rbns": _block_summary(dist.rbns, levels),
        "ibnr": _block_summary(dist.ibnr, levels),
        "by_type": {
            t: _block_summary(dist.by_type[t], levels) for t in dist.claim_types
        },
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
    levels=(0.5, 0.75, 0.95, 0.995),
    parameter_risk: bool = True,
) -> BacktestResult:
    """Fit on data up to a, predict (a, b], compare with realized payments.

    The holdout total counts payments in (a, b] of claims incurred by a: the
    reserve's scope. The predictive includes estimation risk by default so
    out-of-sample coverage is honest about parameter uncertainty.
    """
    if a_day >= portfolio.data_cutoff:
        raise ValueError("no holdout: valuation date must precede the data cutoff")
    if b_day > portfolio.data_cutoff:
        raise ValueError("horizon end exceeds the data cutoff")
    window = ValuationWindow(a_day, b_day)
    train = censor(portfolio, a_day)
    model, report = fit_model(train, recipe)
    dist = simulate_reserves(
        model,
        train,
        window,
        n_scenarios,
        seed,
        workers=workers,
        parameter_risk=parameter_risk,
    )
    actual = float(
        sum(
            p.amount
            for c in portfolio.claims
            if c.accident_day <= a_day
            for p in c.payments
            if a_day < p.day <= b_day
        )
    )
    totals = dist.totals
    rank = float(np.mean(totals < actual) + 0.5 * np.mean(totals == actual))
    coverage = {
        f"{q:g}": bool(actual <= np.quantile(totals, q, method="midpoint"))
        for q in levels
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
