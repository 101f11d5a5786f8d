"""Seeded-output pins for the claim-law kernel.

Synthesis, IBNR simulation and the reserve engine all draw from one seeded
generator stream. These digests pin their output bit for bit, so a change
that reorders, adds or drops a draw anywhere in the pipeline fails here.
A change that alters the draws on purpose records new digests and says why.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from granres import (
    GranularModel,
    OrderARSeverity,
    ValuationWindow,
    default_model,
    ibnr_simulate,
    parse_iso,
    simulate_reserves,
    synthesize,
)

START, END = parse_iso("2016-01-01"), parse_iso("2018-12-31")
WINDOW = ValuationWindow.one_year(parse_iso("2017-12-31"))

SYNTH = {
    "independence": "76b963723854cc435dabfdfcb6c59f5af5fa5ad6683bd5aef8d0f3c65a2f1415",
    "archimedean": "018b8d1899f49c254663ee47ddf7411117e7b97d9cb8dea78084b1a04dd9775d",
}
IBNR_ARCHIMEDEAN = "1eea2aa9d49930ad07485c736d23d73b7601504348bb93fd8c448215368cf5ae"
RESERVES = {
    "independence": "7ad830e2a1d897f72a20df9b807ef2ed3b94468e9ef3d87dca41e9b1fb4ce533",
    "archimedean": "169cc0c322dbccc751b1a87429ad439bc1d76654f1a29b9e738219bd445cf25c",
    "order_ar_parameter_risk": "42a0cb17bf9871e7eb7767e1de4c2218d84046730346f9f062b587d166599111",
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


def _reserve_case(drawn, case):
    """(model, portfolio, parameter_risk) for one pinned reserve run."""
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
