"""Synthetic portfolio generator: presets, reproducibility, containment."""

import io

import numpy as np
import pytest

from granres import default_model, parse_iso, synthesize, write_csv
from granres.cli import synth_portfolio

START, END = parse_iso("2016-01-01"), parse_iso("2018-12-31")


@pytest.fixture(scope="module")
def synth1k():
    model = default_model(1000, START, END)
    return synthesize(model, START, END, np.random.default_rng(5)), model


def test_default_model_validation():
    with pytest.raises(ValueError, match="n_claims must be at least 2, got 1"):
        default_model(1, START, END)
    with pytest.raises(ValueError, match="end_day must fall after start_day"):
        default_model(100, END, START)
    with pytest.raises(ValueError, match="dependence must be independence or archimedean"):
        default_model(100, START, END, dependence="comonotone")
    assert default_model(100, START, END).hac is None
    arch = default_model(100, START, END, dependence="archimedean")
    assert arch.hac is not None and arch.hac.outer_family == "gumbel"


def test_claim_volume_tracks_target(synth1k):
    portfolio, _ = synth1k
    assert 850 <= len(portfolio.claims) <= 1150
    counts = {t: len(portfolio.by_type(t)) for t in portfolio.claim_types}
    # preset splits arrivals 40/60 between the types
    assert counts["bodily_injury"] < counts["material_damage"]
    assert sum(len(c.payments) for c in portfolio.claims) > len(portfolio.claims)


def test_generated_records_are_consistent(synth1k):
    portfolio, _ = synth1k
    cutoff = portfolio.data_cutoff
    assert cutoff == END
    for c in portfolio.claims:
        assert c.accident_day <= c.reporting_day <= cutoff
        for p in c.payments:
            assert c.reporting_day < p.day <= cutoff
            assert p.amount >= 0.01
            assert p.amount == round(p.amount, 2)


def test_ids_ordered_by_accident_day(synth1k):
    portfolio, _ = synth1k
    for t in portfolio.claim_types:
        claims = portfolio.by_type(t).claims
        assert [c.claim_id for c in claims] == sorted(c.claim_id for c in claims)
        accs = [c.accident_day for c in claims]
        assert accs == sorted(accs)
        assert claims[0].claim_id == f"syn_{t}_000001"


def test_reporting_delays_reflect_the_preset(synth1k):
    portfolio, _ = synth1k
    mean_delay = {
        t: np.mean([c.reporting_day - c.accident_day for c in portfolio.by_type(t).claims])
        for t in portfolio.claim_types
    }
    # the injury preset reports far slower than the damage preset
    assert mean_delay["bodily_injury"] > 2 * mean_delay["material_damage"]


def test_same_seed_reproduces_the_csv(synth1k):
    portfolio, model = synth1k
    again = synthesize(model, START, END, np.random.default_rng(5))
    assert again.claims == portfolio.claims
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_csv(portfolio, buf1)
    write_csv(again, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    other = synthesize(model, START, END, np.random.default_rng(6))
    assert other.claims != portfolio.claims


def test_synth_portfolio_config(synth1k):
    portfolio, model = synth1k
    pc, mc = synth_portfolio(
        {"n_claims": 400, "start": "2016-01-01", "end": "2017-12-31"},
        np.random.default_rng(1),
    )
    assert 300 <= len(pc.claims) <= 500
    assert set(mc.types) == {"bodily_injury", "material_damage"}
    pm, mm = synth_portfolio(
        {"model": model.to_dict(), "start": "2016-01-01", "end": "2018-12-31"},
        np.random.default_rng(5),
    )
    assert mm.to_dict() == model.to_dict()
    assert pm.claims == portfolio.claims


def test_archimedean_preset_generates():
    model = default_model(800, START, END, dependence="archimedean")
    portfolio = synthesize(model, START, END, np.random.default_rng(9))
    assert 650 <= len(portfolio.claims) <= 950
    assert set(portfolio.claim_types) == {"bodily_injury", "material_damage"}
    assert all(
        c.reporting_day <= portfolio.data_cutoff for c in portfolio.claims
    )
