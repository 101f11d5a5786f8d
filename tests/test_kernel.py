"""Seeded-output pins for the claim-law kernel.

Synthesis, IBNR simulation and the reserve engine all draw from one seeded
generator stream. These digests pin their output bit for bit, so a change
that reorders, adds or drops a draw anywhere in the pipeline fails here.
A change that alters the draws on purpose records new digests and says why.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from granres import (
    CopulaSpec,
    GranularModel,
    OrderARSeverity,
    ValuationWindow,
    default_model,
    fit_model,
    ibnr_simulate,
    parse_iso,
    simulate_reserves,
    synthesize,
)
from granres.copulas.dynamics import TimeVaryingParam
from granres.copulas.families import FAMILIES
from granres.reserving import _perturb_model

START, END = parse_iso("2016-01-01"), parse_iso("2018-12-31")
WINDOW = ValuationWindow.one_year(parse_iso("2017-12-31"))

SYNTH = {
    "independence": "76b963723854cc435dabfdfcb6c59f5af5fa5ad6683bd5aef8d0f3c65a2f1415",
    "archimedean": "018b8d1899f49c254663ee47ddf7411117e7b97d9cb8dea78084b1a04dd9775d",
}
IBNR_ARCHIMEDEAN = "1eea2aa9d49930ad07485c736d23d73b7601504348bb93fd8c448215368cf5ae"
RESERVES = {
    "independence": "d237a39b43f763b014cdb0284089ce30a11029d4aeae21e637507e27bf78eae6",
    "archimedean": "45f675c30da2c27149429100c2689756fa9a51dadef53c73c1d6f27558acd431",
    "archimedean_parameter_risk": "9427154b5ae5acc822febc4c0ffde4e93b22cf2efbaf74e18b65c4cd1a80dffe",
    "order_ar_parameter_risk": "9402520eb010a57d03bf606c5cde37af787cd4dd38246c9e857690c6e2c9b7f9",
}
# parameter-risk draws around fitted estimates: every component family with
# its fitted standard errors, and the counts' joint covariance. The digests
# cover the fitted estimates too, so a change to a fitter records new ones.
PERTURB_RECIPES = {
    "weibull": {
        "intensity_family": {"bodily_injury": "exponential", "material_damage": "power"},
        "severity_family": {"bodily_injury": "lognormal", "material_damage": "gamma"},
    },
    "weibull_order_ar": {
        "intensity_family": {"bodily_injury": "power", "material_damage": "exponential"},
        "severity_family": {"bodily_injury": "gamma", "material_damage": "lognormal"},
        "severity_structure": "order_ar",
    },
}
PERTURB = {
    "weibull": "973b8beb879a03e0f650437954a732faa0e9ebe5a0206b1747fa89e8ab7202bc",
    "weibull_order_ar": "bf5def62dda8c7cf31337182f0c4cf43d12c0e7074f0ca2da83249e5b2082675",
}


def _claims_digest(claims) -> str:
    h = hashlib.sha256()
    for c in claims:
        h.update(f"{c.claim_id}|{c.claim_type}|{c.accident_day}|{c.reporting_day}".encode())
        for p in c.payments:
            h.update(f"|{p.day}:{float(p.amount).hex()}".encode())
        h.update(b"\n")
    return h.hexdigest()


def _arrays_digest(*arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x, dtype=float).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def drawn():
    """Generator truth and its seed-3 portfolio, per preset."""
    out = {}
    for preset in SYNTH:
        truth = default_model(2000, START, END, preset)
        out[preset] = truth, synthesize(truth, START, END, np.random.default_rng(3))
    return out


@pytest.mark.parametrize("preset", sorted(SYNTH))
def test_synthesize_is_pinned(drawn, preset):
    _, portfolio = drawn[preset]
    assert _claims_digest(portfolio.claims) == SYNTH[preset]


def test_ibnr_simulate_is_pinned(drawn):
    truth, _ = drawn["archimedean"]
    claims = ibnr_simulate(truth, WINDOW, np.random.default_rng(11))
    assert len(claims) > 0
    assert _claims_digest(claims) == IBNR_ARCHIMEDEAN


def _decaying(spec):
    """spec made time-varying: one link unit more dependence at x = 0, relaxing
    to spec's own level."""
    eta = float(FAMILIES[spec.family].link(spec.theta))
    return CopulaSpec(spec.family, dynamics=TimeVaryingParam(eta + 1.0, eta, 1.0))


def _reserve_case(drawn, case):
    """(model, portfolio, parameter_risk) for one pinned reserve run."""
    if case == "archimedean_parameter_risk":
        # each scenario's redrawn delays set its matched pairs' horizons and so
        # their time-varying inner parameters
        truth, portfolio = drawn["archimedean"]
        se = {"shape": 0.15, "c0": 0.3, "c1": 0.015}
        types = {
            t: replace(tm, delay=replace(tm.delay, se=se), copula=_decaying(tm.copula))
            for t, tm in truth.types.items()
        }
        return GranularModel(types=types, hac=truth.hac), portfolio, True
    if case != "order_ar_parameter_risk":
        return (*drawn[case], False)
    # chained amounts continue from the observed history; parameters redrawn
    truth, portfolio = drawn["independence"]
    types = {
        t: replace(tm, severity=OrderARSeverity(tm.severity, (0.5,), 0.3))
        for t, tm in truth.types.items()
    }
    return GranularModel(types=types, hac=truth.hac), portfolio, True


@pytest.mark.parametrize("case", sorted(RESERVES))
@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_reserves_is_pinned(drawn, case, workers):
    model, portfolio, prisk = _reserve_case(drawn, case)
    dist = simulate_reserves(
        model, portfolio, WINDOW, 8, seed=17, workers=workers, parameter_risk=prisk
    )
    assert _arrays_digest(dist.rbns, dist.ibnr, dist.by_period) == RESERVES[case]


@pytest.mark.parametrize("case", sorted(PERTURB))
def test_perturb_model_draws_are_pinned(drawn, case):
    _, portfolio = drawn["independence"]
    recipe = dict(PERTURB_RECIPES[case], copula_family="independence", hac_outer=None)
    model, _ = fit_model(portfolio, recipe)
    for tm in model.types.values():
        assert len(tm.counts.cov) == 2
        assert tm.severity.se
    rng = np.random.default_rng(21)
    h = hashlib.sha256()
    for _ in range(5):
        drawn_model = _perturb_model(model, rng).to_dict()
        assert drawn_model != model.to_dict()
        h.update(json.dumps(drawn_model, sort_keys=True).encode())
    assert h.hexdigest() == PERTURB[case]
