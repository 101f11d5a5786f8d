"""Reserve prediction engine.

One kernel draws the claim law claim by claim, in three stages: arrivals
from the day-gap model and cross-type matching by accident day, with four
copula uniforms per matched pair (_draw_arrivals); the nested copula solve
for the matched pairs (_solve_pairs); the reporting delay, the payment count
at the claim's horizon, payment placement and amounts (_finish_claims). The
last two take a batch of draws; _draw_claims runs the three on a batch of
one. The kernel has two views:

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
SeedSequence(master). A worker runs its chunk of scenarios scenario-major,
in batches of up to _BATCH_SCENARIOS (_run_batch). Every draw is a phase:
each scenario of the batch makes one draw call on its own generator, in the
order of running the scenario alone (its parameter redraw, RBNS counts and
amounts, arrivals and pair uniforms, then per type its delay scores, count
scores, placement uniforms and amounts). Between the phases each
deterministic transform runs once over the whole batch, its rows tagged by
scenario: the lookbacks, the RBNS bucket means, the nested copula solve,
the delay quantile and window filter, both count quantiles, the placement
sort and the period-bucket sums. A row takes its scenario's parameters from
the delay and intensity stacked over the batch (_stacked), which for the
point model are its own. Every transform is elementwise or keeps each
scenario's rows apart, so output is bitwise the same for any batch size and
worker count. A batch returns its (scenarios, periods) flow arrays per type,
and simulate_reserves concatenates them in scenario order.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .claims import CLAIM_TYPES, censor, records_from_columns
from .copulas.dynamics import CopulaSpec, copula_from_dict
from .copulas.families import ARCHIMEDEAN
from .copulas.families import FAMILIES as COPULA_FAMILIES
from .copulas.hac import (
    MATCH_GAP_DAYS,
    MIN_MATCHED_PAIRS,
    HacSpec,
    check_nesting,
    fit_hac_outer,
    hac_from_dict,
    hac_sample,
    hac_uniforms,
    match_days,
    matched_delay_scores,
)
from .copulas.mixed import conditional_count_quantile, copula_pairs, fit_copula
# bench/tracing.py patches this name to count the matched pairs kept
from .copulas.mixed import count_quantile as _count_marginal_quantile
from .daycount import DAYS_PER_YEAR, to_date, to_day, year_of, year_start
from .delays import WeibullDelayModel, delay_model_from_dict, delay_quantile, fit_delay
from .frequency import FAMILIES as OCCURRENCE_FAMILIES
from .frequency import OccurrenceModel, fit_occurrence, simulate_arrivals
from .payments import INTENSITY_FAMILIES, CountProcess, fit_intensity
from .severity import (
    IID_SEVERITIES,
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


@dataclass(frozen=True)
class GranularModel:
    """Per-type component bundles plus the optional cross-type coupling.

    hac, when set, is the outer copula of a nesting whose inner copulas are
    the two types' own copulas, in type_names() order, under the nesting
    rule of hac.check_nesting; None means the types are independent.
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
        check_nesting(self.hac, *(self.types[t].copula for t in self.type_names()))

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
    "intensity_family": "auto",
    "severity_family": "lognormal",
    "severity_structure": "iid",
    "copula_family": "auto",
    "copula_time_varying": False,
    "hac_outer": "gumbel",
}


class PhaseError(RuntimeError):
    """A stage of the multistage fit failed; the message names the phase."""


class RecipeError(ValueError):
    """A fit recipe key or value that fit_model does not take."""


# every value each recipe key takes; the _PER_TYPE_KEYS also take a
# {claim_type: value} map
_RECIPE_VALUES = {
    "occurrence_family": OCCURRENCE_FAMILIES,
    "intensity_family": ("auto", *INTENSITY_FAMILIES),
    "severity_family": tuple(IID_SEVERITIES),
    "severity_structure": ("iid", "order_ar"),
    "copula_family": ("auto", *COPULA_FAMILIES),
    "copula_time_varying": (False, True),
    "hac_outer": (None, *ARCHIMEDEAN),
}
_PER_TYPE_KEYS = ("intensity_family", "severity_family", "severity_structure", "copula_family")


def _checked_recipe(recipe, claim_types):
    """DEFAULT_RECIPE updated by recipe, every value checked before any phase
    runs: a per-type map must name each of claim_types, and only those of
    CLAIM_TYPES. A value must equal an allowed one of the same type, so 1 is
    not True."""
    cfg = dict(DEFAULT_RECIPE)
    if recipe:
        unknown = set(recipe) - set(DEFAULT_RECIPE)
        if unknown:
            raise RecipeError(f"unknown recipe keys: {sorted(unknown)}")
        cfg.update(recipe)
    for key, allowed in _RECIPE_VALUES.items():
        values = [cfg[key]]
        if key in _PER_TYPE_KEYS and isinstance(cfg[key], dict):
            missing = [t for t in claim_types if t not in cfg[key]]
            if missing:
                raise RecipeError(f"recipe {key} has no entry for claim type {missing[0]!r}")
            unknown = sorted(set(cfg[key]) - set(CLAIM_TYPES))
            if unknown:
                raise RecipeError(f"recipe {key} names unknown claim types {unknown}")
            values = list(cfg[key].values())
        for v in values:
            if not any(type(v) is type(a) and v == a for a in allowed):
                raise RecipeError(f"recipe {key} must be one of {list(allowed)}, got {v!r}")
    return cfg


def _per_type(cfg, key, ctype):
    """Recipe values may be a single setting or a {claim_type: setting} map."""
    val = cfg[key]
    return val[ctype] if isinstance(val, dict) else val


# each fit phase's number, by the name a PhaseError and report["warnings"] use
_PHASES = {
    "occurrence": 1,
    "reporting delay": 2,
    "payment counts": 3,
    "severity": 4,
    "dependence": 5,
    "cross-type nesting": 5,
}


def _phase(warned, phase, ctype, fn, *args, **kwargs):
    """fn(*args, **kwargs) run as one fit phase of claim type ctype (None for
    the cross-type layer).

    Each warning it raises is appended to warned as {phase, claim_type,
    message}, in the order raised; a failure raises PhaseError naming the
    phase and the type.
    """
    where = phase if ctype is None else f"{phase}, {ctype}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args, **kwargs)
        except PhaseError:
            raise
        except Exception as e:
            raise PhaseError(f"phase {_PHASES[phase]} ({where}) failed: {e}") from e
    warned.extend({"phase": phase, "claim_type": ctype, "message": str(w.message)} for w in caught)
    return out


def fit_model(portfolio, recipe=None):
    """Multistage fit: margins phase by phase, then copulas, then the nesting.

    Returns (GranularModel, report). The report carries per-type likelihood
    and selection details, and report["warnings"] lists every warning raised
    during fitting as {phase, claim_type, message}, in the order raised
    (claim_type None for the cross-type nesting). A recipe key or value it
    does not take raises RecipeError before phase 1.
    """
    cfg = _checked_recipe(recipe, portfolio.claim_types)
    warned = []
    report = {"types": {}, "warnings": warned}
    subs = {ctype: portfolio.by_type(ctype) for ctype in portfolio.claim_types}
    occurrence = {
        ctype: _phase(warned, "occurrence", ctype, fit_occurrence, sub, cfg["occurrence_family"])
        for ctype, sub in subs.items()
    }
    types = {}
    for ctype, sub in subs.items():
        delay = _phase(warned, "reporting delay", ctype, fit_delay, sub)
        pairs, taus = copula_pairs(sub)
        counts, intensity_aic = _phase(
            warned,
            "payment counts",
            ctype,
            fit_intensity,
            taus,
            pairs[2],  # the observation horizons
            _per_type(cfg, "intensity_family", ctype),
        )
        severity = _phase(
            warned,
            "severity",
            ctype,
            fit_severity,
            sub,
            _per_type(cfg, "severity_family", ctype),
            _per_type(cfg, "severity_structure", ctype),
        )
        cop = _phase(
            warned,
            "dependence",
            ctype,
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
            "intensity_family": counts.intensity.to_dict()["family"],
            "intensity_aic": intensity_aic,
            "intensity": counts.to_dict(),
            "delay_se": dict(delay.se),
        }

    hac = None
    names = list(types)  # in CLAIM_TYPES order, as portfolio.claim_types
    if cfg["hac_outer"] and len(names) >= 2:
        sa, sb = matched_delay_scores(
            subs[names[0]], subs[names[1]], types[names[0]].delay, types[names[1]].delay
        )
        if sa.size >= MIN_MATCHED_PAIRS:
            hac = _phase(
                warned,
                "cross-type nesting",
                None,
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
            report["hac"] = {"skipped": f"fewer than {MIN_MATCHED_PAIRS} matched pairs"}
    elif len(names) < 2:
        report["hac"] = {"skipped": "fewer than two claim types"}
    return GranularModel(types=types, hac=hac), report


# the delay tail mass that default_lookback leaves beyond its lookback
_LOOKBACK_TAIL = 1e-4


def default_lookback(delay_model, a_day: int):
    """Days of pre-valuation occurrence history worth simulating.

    Two passes of the 1 - _LOOKBACK_TAIL delay quantile: delays may lengthen
    for older accident dates, so the quantile is re-evaluated at the start of
    the first guess's window. A delay model stacked over scenarios
    (_stacked) gives one lookback per scenario.
    """
    top = 1.0 - _LOOKBACK_TAIL
    q1 = delay_quantile(delay_model, a_day, top)
    q2 = delay_quantile(delay_model, a_day - np.ceil(q1), top)
    return np.ceil(np.maximum(q1, q2)).astype(np.int64) + 1


def _stacked(components):
    """One component standing for a batch's scenarios, components[s] being
    scenario s's: components[0] itself when every scenario shares it (the
    point model), otherwise a copy whose REDRAW_BOUNDS parameters are arrays,
    entry s holding scenario s's value."""
    first = components[0]
    if all(c is first for c in components):
        return first
    return replace(
        first,
        **{
            name: np.array([getattr(c, name) for c in components])
            for name in type(first).REDRAW_BOUNDS
        },
    )


def _take(component, rows):
    """A stacked component with its parameter arrays indexed by rows; a
    component of scalar parameters as it is.

    The laws are elementwise in their parameters, so each row's value is bit
    for bit what its scenario's own component gives.
    """
    names = type(component).REDRAW_BOUNDS
    if np.ndim(getattr(component, next(iter(names)))) == 0:
        return component
    return replace(component, **{name: getattr(component, name)[rows] for name in names})


@dataclass(frozen=True)
class _Batch:
    """Scenarios drawn together, in order: each one's model and generator,
    and per claim type the delay and payment intensity stacked over them
    (_stacked). The models differ only in their redrawn margins."""

    models: list
    rngs: list
    delay: dict  # claim type -> stacked WeibullDelayModel
    intensity: dict  # claim type -> stacked payment intensity


def _batch(models, rngs):
    names = models[0].type_names()
    return _Batch(
        models,
        rngs,
        {t: _stacked([m.types[t].delay for m in models]) for t in names},
        {t: _stacked([m.types[t].counts.intensity for m in models]) for t in names},
    )


def _uniforms(rngs, sizes):
    """One phase of draws: sizes[s] uniforms from scenario s's generator, the
    scenarios in order, concatenated."""
    return np.concatenate([rng.random(k) for rng, k in zip(rngs, sizes)])


def _place_payments(intensity, n_vec, r_vec, lam_hi, last_day, u):
    """Payment days for n_vec[i] payments of claim i, claim-major and sorted.

    u holds the n_vec.sum() placement uniforms, claim i's block after claim
    i - 1's. Given the count, claim i's payment times are Lambda-inverse
    transformed order statistics of its block on the cumulative-intensity
    interval (0, lam_hi[i]]; days use the ceiling convention,
    r + ceil(tau * year), and are clipped into (r_vec[i], last_day].
    intensity is one law, or one stacked over a batch's scenarios and taken
    per claim (_take).

    The order statistics come from one int64 sort of the keys
    claim * total + rank, rank being each uniform's place in sorted order;
    the keys stay below 2**63 while claims * payments does.
    """
    n_vec = np.asarray(n_vec, dtype=np.int64)
    total = int(n_vec.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    idx = np.repeat(np.arange(n_vec.size), n_vec)
    order = np.argsort(u)
    key = np.sort(idx[order] * total + np.arange(total))
    u = u[order][key % total]
    taus = _take(intensity, idx).cumulative_inv(u * lam_hi[idx])
    r = r_vec[idx]
    days = r + np.ceil(taus * DAYS_PER_YEAR).astype(np.int64)
    return idx, np.clip(days, r + 1, last_day)


def _draw_arrivals(model, from_day_by_type, to_day, rng):
    """Stage 1 of the claim law: accident days, matched across the two types
    by day for a coupled model, and each matched pair's four copula uniforms.

    Returns (days, uniforms): days[type] is (the matched accident days in
    match order, the free accident days), and uniforms the (pairs, 4) copula
    uniforms. An uncoupled model has zero matched pairs.
    """
    names = model.type_names()
    arrivals = {
        t: simulate_arrivals(model.types[t].occurrence, from_day_by_type[t], to_day, rng)
        for t in names
    }
    if model.hac is None:
        return {t: (a[:0], a) for t, a in arrivals.items()}, np.empty((0, 4))
    na, nb = names
    ia, ib, rest_a, rest_b = match_days(arrivals[na], arrivals[nb], MATCH_GAP_DAYS)
    days = {
        na: (arrivals[na][ia], arrivals[na][rest_a]),
        nb: (arrivals[nb][ib], arrivals[nb][rest_b]),
    }
    return days, hac_uniforms(rng, ia.size)


def _solve_pairs(batch, draws, horizon_end):
    """Stage 2: the nested copula rows of every matched pair of a batch.

    draws[s] is scenario s's stage-1 draw. A single hac_sample solves every
    pair at once, its inner families the types' copulas. An inner pair's
    parameter is read at its claim's horizon: horizon_end less the reporting
    day that its delay score u1 implies under the scenario's own delay, taken
    per pair from the stacked delay. The solve is elementwise, so each
    scenario's rows are bit for bit those of solving it alone. Returns one
    (pairs, 4) row array per scenario; an uncoupled model's are its empty
    uniforms.
    """
    model = batch.models[0]
    if model.hac is None:
        return [uniforms for _, uniforms in draws]
    names = model.type_names()
    sizes = [uniforms.shape[0] for _, uniforms in draws]
    scen = np.repeat(np.arange(len(draws)), sizes)

    def theta_fn(k):
        days = np.concatenate([d[names[k]][0] for d, _ in draws])
        delay = _take(batch.delay[names[k]], scen)
        copula = model.types[names[k]].copula

        def fn(u1):
            w = np.floor(np.asarray(delay_quantile(delay, days, u1), dtype=float))
            return copula.theta_at(np.maximum((horizon_end - days - w) / DAYS_PER_YEAR, 0.0))

        return fn

    rows = hac_sample(
        model.hac,
        *(model.types[name].copula for name in names),
        uniforms=np.concatenate([uniforms for _, uniforms in draws]),
        theta_a_fn=theta_fn(0),
        theta_b_fn=theta_fn(1),
    )
    return np.split(rows, np.cumsum(sizes)[:-1])


def _finish_claims(batch, draws, rows, report_after, horizon_end):
    """Stage 3 of the claim law for a batch, given each scenario's stage-1
    draw and pair rows, type k's pair columns being rows[:, 2k:2k+2].

    A claim is kept if it reports in (report_after, horizon_end]. Its
    payment count over (0, horizon_end - r] comes from the count margin at
    u2 (matched) or the copula conditional given u1 (free); payments are
    placed in (r, horizon_end] and amounts drawn per claim.

    Type by type, each draw is a phase: every scenario draws in turn from
    its own generator (the free claims' delay scores u1, the conditional
    count scores v, the placement uniforms, the amounts), so each generator
    sees the draws of running its scenario alone, in the same order. Between
    the phases the delay quantile, the window filter, both count quantiles
    and the placement run once over the batch's claims, scenario-major, each
    row with its scenario's parameters (_take).

    Returns {claim_type: dict of arrays}: accident days t, reporting days r,
    counts n and scenarios scen per claim, plus flat claim-major payment
    (idx, day, amount) arrays, idx numbering the batch's claims of the type.
    """
    size = len(draws)
    out = {}
    for k, ctype in enumerate(batch.models[0].type_names()):
        t_parts, u1_parts, u2_parts, paired_parts, n_all = [], [], [], [], []
        for rng, (days, _), pair_rows in zip(batch.rngs, draws, rows):
            (t_pair, t_free), u_pair = days[ctype], pair_rows[:, 2 * k : 2 * k + 2]
            t_parts += [t_pair, t_free]
            u1_parts += [u_pair[:, 0], rng.random(t_free.size)]
            u2_parts.append(u_pair[:, 1])
            paired_parts += [np.ones(t_pair.size, bool), np.zeros(t_free.size, bool)]
            n_all.append(t_pair.size + t_free.size)
        t_all = np.concatenate(t_parts).astype(np.int64)
        u1 = np.concatenate(u1_parts)
        paired = np.concatenate(paired_parts)
        scen = np.repeat(np.arange(size), n_all)

        w = np.floor(
            np.asarray(delay_quantile(_take(batch.delay[ctype], scen), t_all, u1), dtype=float)
        )
        r = t_all + w.astype(np.int64)
        keep = (r > report_after) & (r <= horizon_end)
        u2 = np.concatenate(u2_parts)[keep[paired]]
        t, r, u1, scen, paired = t_all[keep], r[keep], u1[keep], scen[keep], paired[keep]
        horizon = (horizon_end - r) / DAYS_PER_YEAR
        intensity = _take(batch.intensity[ctype], scen)

        n = np.zeros(t.size, dtype=np.int64)
        if paired.any():
            n[paired] = _count_marginal_quantile(
                u2, horizon[paired], CountProcess(_take(intensity, paired))
            )
        alone = ~paired
        v = _uniforms(batch.rngs, np.bincount(scen[alone], minlength=size))
        if alone.any():
            n[alone] = conditional_count_quantile(
                u1[alone],
                v,
                horizon[alone],
                CountProcess(_take(intensity, alone)),
                batch.models[0].types[ctype].copula,
            )

        lam_hi = np.asarray(intensity.cumulative(horizon), dtype=float)
        pays = np.bincount(scen, weights=n, minlength=size).astype(np.int64)
        idx, days = _place_payments(
            intensity, n, r, lam_hi, horizon_end, _uniforms(batch.rngs, pays)
        )
        per_scenario = np.split(n, np.cumsum(np.bincount(scen, minlength=size))[:-1])
        amounts = [
            simulate_amounts(m.types[ctype].severity, n_s, rng)
            for m, rng, n_s in zip(batch.models, batch.rngs, per_scenario)
        ]
        out[ctype] = {
            "t": t,
            "r": r,
            "n": n,
            "scen": scen,
            "pay_idx": idx,
            "pay_day": days,
            "pay_amount": np.concatenate(amounts),
        }
    return out


def _draw_claims(model, from_day_by_type, to_day, report_after, horizon_end, rng):
    """One draw of the claim law, vectorized per type: the three stages in
    turn on a batch of one.

    Accident days come from each type's arrival process started at
    from_day_by_type[type] and run to to_day. When the model couples the two
    types, their accidents are matched by day and each matched pair draws
    (u1, u2, u3, u4) from the nested copula; other claims draw their delay
    score alone. Stage 3 (_finish_claims) keeps, counts and pays the claims.
    """
    batch = _batch([model], [rng])
    draws = [_draw_arrivals(model, from_day_by_type, to_day, rng)]
    rows = _solve_pairs(batch, draws, horizon_end)
    return _finish_claims(batch, draws, rows, report_after, horizon_end)


def _ibnr_start_days(delays, a_day):
    """Each type's first IBNR accident day, a less its delay's
    default_lookback: one per scenario for a stacked delay."""
    return {t: a_day - default_lookback(d, a_day) for t, d in delays.items()}


def _ibnr_draw(batch, window, draws, rows):
    """Stage 3 of a batch of IBNR scenarios: of the accidents drawn over the
    lookback (a - lookback, a], keep those reporting inside (a, b], horizon
    b.

    bench/tracing.py patches this name to time and count the IBNR claims.
    """
    return _finish_claims(batch, draws, rows, window.a_day, window.b_day)


def ibnr_simulate(model, window, rng) -> list:
    """One scenario of IBNR claims as ClaimRecord objects.

    Occurrences are continued over (a - lookback, a], lookback each type's
    default_lookback; each draws a delay and survives only if it reports
    inside (a, b]. Counts come from the copula conditional given the drawn
    delay (or the coupled nested draw for cross-type matched pairs), times
    from the count-conditional placement, amounts from the severity model.
    """
    a = window.a_day
    starts = _ibnr_start_days({t: tm.delay for t, tm in model.types.items()}, a)
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
    Parameters of shape (S, 1, 1) give (S, P, days), one block per scenario.
    """
    taus = (edges[:, None] - days - 1) / DAYS_PER_YEAR
    lam = np.asarray(intensity.cumulative(taus), dtype=float)
    return np.maximum(np.diff(lam, axis=-2), 0.0)


def _rbns_means(intensities, prep, edges):
    """{claim type: expected payments per bucket and reporting-day group},
    the group's claims together: (P, days) for one intensity per type, and
    (S, P, days) for one stacked over S scenarios."""
    return {
        t: _bucket_means(_take(intensities[t], (..., None, None)), p.days, edges) * p.n_claims
        for t, p in prep.items()
    }


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


def _rbns_scenario(model, prep, means, n_periods, rng):
    """One scenario of RBNS payments; returns per-type period flows.

    Claims pay independent Poisson counts per bucket, means[type] their
    (P, days) bucket means (_rbns_means), so a bucket's count over all
    claims is one Poisson draw at their sum (Norberg 1993): one rng.poisson
    call per type. An iid severity needs only that count. An order-AR
    severity reads each claim's history: the counts are split over the
    claims, and earlier buckets take a chain's earlier links.
    """
    flows = {}
    for ctype in model.type_names():
        tm = model.types[ctype]
        p = prep[ctype]
        if p.days.size == 0:
            flows[ctype] = np.zeros(n_periods)
            continue
        m = rng.poisson(means[ctype].sum(axis=1))
        if p.k_obs is None:
            bucket = np.repeat(np.arange(n_periods), m)
            amounts = tm.severity.continue_flat(m, 0, 0.0, rng)
        else:
            owners, counts, bucket = _split_over_claims(p, means[ctype], m, rng)
            amounts = tm.severity.continue_flat(
                counts, p.k_obs[owners], p.last_amt[owners], rng
            )
        flows[ctype] = np.bincount(bucket, weights=amounts, minlength=n_periods)
    return flows


# Scenarios per batch, and so per joint nested-copula solve and per pass of
# each stage-3 transform: enough to spread numpy's per-call cost over many
# claims, few enough that a long run holds a bounded number of half-drawn
# scenarios. Output does not depend on it.
_BATCH_SCENARIOS = 64


def _run_batch(model, prep, window, parameter_risk, children):
    """{claim type: (RBNS flows, IBNR flows)} of the scenarios seeded by
    children, each an (S, P) array with one row per scenario, in order.

    Stage 1 runs scenario by scenario, each on its own generator: the
    parameter redraw; then, once the batch's IBNR lookbacks and RBNS bucket
    means are read off the stacked margins, the RBNS flows and the IBNR
    arrivals, match and pair uniforms. One hac_sample solves the matched
    pairs of the whole batch (stage 2), and one pass of stage 3 keeps,
    counts and pays its IBNR claims.
    """
    rngs = [np.random.default_rng(c) for c in children]
    size = len(rngs)
    models = [model] * size
    if parameter_risk:
        models = [_perturb_model(model, rng) for rng in rngs]
    batch = _batch(models, rngs)
    a = window.a_day
    edges, _ = _period_edges(window)
    n_periods = edges.size - 1
    means = {
        t: np.broadcast_to(m, (size,) + m.shape[-2:])
        for t, m in _rbns_means(batch.intensity, prep, edges).items()
    }
    starts = {t: np.broadcast_to(d, size) for t, d in _ibnr_start_days(batch.delay, a).items()}
    rbns, draws = [], []
    for s, (m, rng) in enumerate(zip(models, rngs)):
        rbns.append(_rbns_scenario(m, prep, {t: x[s] for t, x in means.items()}, n_periods, rng))
        draws.append(_draw_arrivals(m, {t: int(d[s]) for t, d in starts.items()}, a, rng))
    ibnr = _ibnr_draw(batch, window, draws, _solve_pairs(batch, draws, window.b_day))
    flows = {}
    for ctype, d in ibnr.items():
        bucket = np.searchsorted(edges, d["pay_day"], side="right") - 1
        ibnr_flows = np.bincount(
            d["scen"][d["pay_idx"]] * n_periods + bucket,
            weights=d["pay_amount"],
            minlength=size * n_periods,
        ).reshape(size, n_periods)
        flows[ctype] = (np.stack([r[ctype] for r in rbns]), ibnr_flows)
    return flows


def _scenario_batch(model, prep, window, parameter_risk, children):
    """_run_batch's flows of the scenarios seeded by children, in order, one
    entry per batch of up to _BATCH_SCENARIOS."""
    return [
        _run_batch(model, prep, window, parameter_risk, children[k : k + _BATCH_SCENARIOS])
        for k in range(0, len(children), _BATCH_SCENARIOS)
    ]


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
    uncertainty. A portfolio claim of a type the model has no law for raises
    ValueError.
    """
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    if window.a_day > portfolio.data_cutoff:
        raise ValueError("valuation date is past the data cutoff")
    names = model.type_names()
    unmodelled = [t for t in portfolio.claim_types if t not in names]
    if unmodelled:
        raise ValueError(f"the model has no law for the portfolio's claim types {unmodelled}")
    _, years = _period_edges(window)
    prep = _prepare_rbns(model, portfolio, window)
    run = partial(_scenario_batch, model, prep, window, parameter_risk)
    children = np.random.SeedSequence(seed).spawn(n_scenarios)

    if workers <= 1 or n_scenarios < 4:
        batches = run(children)
    else:
        chunks = [
            [children[i] for i in chunk]
            for chunk in np.array_split(np.arange(n_scenarios), workers * 4)
            if chunk.size
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = [b for part in pool.map(run, chunks) for b in part]

    rb = {t: np.concatenate([b[t][0] for b in batches]) for t in names}
    ib = {t: np.concatenate([b[t][1] for b in batches]) for t in names}
    # each scenario's totals summed from 0 in type order
    return ReserveDistribution(
        window=window,
        claim_types=tuple(names),
        period_years=tuple(years),
        rbns=sum(rb[t].sum(axis=1) for t in names),
        ibnr=sum(ib[t].sum(axis=1) for t in names),
        by_type={t: rb[t].sum(axis=1) + ib[t].sum(axis=1) for t in names},
        by_period=sum(rb[t] + ib[t] for t in names),
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
