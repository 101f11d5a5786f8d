"""Synthetic portfolio generation from a fully specified GranularModel.

synthesize is the observed-history view of the claim-law kernel in
reserving (_draw_claims), the same draw the reserve engine's IBNR view
makes: arrivals on [start, end], every claim that reports by the cutoff end
kept, payments placed up to end. Claims reporting after the cutoff are
dropped: the file represents what an insurer would hold in its systems on
the cutoff date. Amounts are rounded to cents here.
"""

from __future__ import annotations

import math

import numpy as np

from .claims import CLAIM_TYPES, Portfolio
from .copulas import CopulaSpec, HacSpec
from .copulas import hac_sample  # noqa: F401  bench/tracing.py patches this name
from .daycount import parse_iso, year_of
from .delays import WeibullDelayModel
from .frequency import OccurrenceModel, Poisson
from .payments import CountProcess, ExponentialDecay, PowerDecay
from .reserving import GranularModel, TypeModel, _draw_claims
from .severity import LogNormalSeverity


def default_model(
    n_claims: int,
    start_day: int,
    end_day: int,
    dependence: str = "independence",
) -> GranularModel:
    """A two-type generator scaled so the period yields about n_claims total.

    dependence="independence" gives exactly factorizing phases (the engine's
    analytic special cases hold); "archimedean" turns on within-claim copulas
    and the cross-type nesting.
    """
    if n_claims < 2:
        raise ValueError("need at least two claims")
    if end_day <= start_day:
        raise ValueError("need end after start")
    if dependence not in ("independence", "archimedean"):
        raise ValueError(f"unknown dependence preset: {dependence}")
    period = end_day - start_day
    shares = {"bodily_injury": 0.4, "material_damage": 0.6}
    years = range(year_of(start_day), year_of(end_day) + 1)
    dep = dependence == "archimedean"

    def occ(share):
        mean_gap = period / (n_claims * share)
        return OccurrenceModel(
            family="poisson", by_year={y: Poisson(mu=mean_gap) for y in years}
        )

    types = {
        "bodily_injury": TypeModel(
            occurrence=occ(shares["bodily_injury"]),
            delay=WeibullDelayModel(shape=1.3, c0=math.log(40.0), c1=-0.02),
            counts=CountProcess(ExponentialDecay(lam0=2.5, beta=1.1)),
            severity=LogNormalSeverity(mu=7.5, sigma=1.0),
            copula=CopulaSpec("clayton", theta=1.5)
            if dep
            else CopulaSpec("independence"),
        ),
        "material_damage": TypeModel(
            occurrence=occ(shares["material_damage"]),
            delay=WeibullDelayModel(shape=1.6, c0=math.log(12.0), c1=-0.01),
            counts=CountProcess(PowerDecay(lam0=3.0, beta=2.5)),
            severity=LogNormalSeverity(mu=6.5, sigma=0.8),
            copula=CopulaSpec("gumbel", theta=1.4)
            if dep
            else CopulaSpec("independence"),
        ),
    }
    hac = None
    if dep:
        hac = HacSpec(
            outer_family="gumbel",
            outer_theta=1.2,
            inner_a=types["bodily_injury"].copula,
            inner_b=types["material_damage"].copula,
        )
    return GranularModel(types=types, hac=hac)


def synthesize(model: GranularModel, start_day: int, end_day: int, rng) -> Portfolio:
    """Draw a complete observed portfolio on [start, end] with cutoff end."""
    names = model.type_names()
    # every claim reports on or after its accident day, so reporting after
    # start - 1 is no bound at all
    draw = _draw_claims(
        model,
        dict.fromkeys(names, start_day),
        end_day,
        start_day - 1,
        end_day,
        rng,
    )
    ids, codes = [], []
    for ctype, d in draw.items():
        # ids number each type's claims in accident-day order
        rank = np.argsort(np.argsort(d["t"], kind="stable")) + 1
        ids += [f"syn_{ctype}_{k:06d}" for k in rank.tolist()]
        codes += [CLAIM_TYPES.index(ctype)] * rank.size
    t, r, n, days, amounts = (
        np.concatenate([d[k] for d in draw.values()])
        for k in ("t", "r", "n", "pay_day", "pay_amount")
    )
    amounts = np.maximum(np.round(amounts, 2), 0.01)
    return Portfolio._from_columns(ids, codes, t, r, n, days, amounts, end_day)


def synth_portfolio(config: dict, rng) -> tuple:
    """Portfolio plus its generator truth from a plain config dict.

    Keys: n_claims (default 5000), start/end (ISO dates), dependence preset,
    or a full "model" dict overriding the preset entirely.
    """
    n_claims = int(config.get("n_claims", 5000))
    start = parse_iso(config.get("start", "2016-01-01"))
    end = parse_iso(config.get("end", "2021-12-31"))
    if "model" in config:
        model = GranularModel.from_dict(config["model"])
    else:
        model = default_model(
            n_claims, start, end, config.get("dependence", "independence")
        )
    return synthesize(model, start, end, rng), model
