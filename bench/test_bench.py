"""Tests of the benchmark itself: every correctness check fails on a wrong
input, and every workload's pipeline passes all checks at a tiny size.

Run from the repository root: python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# small enough for a test, large enough that the fits clear the tolerances
TINY = {
    "volume": dict(n_claims=3000, scenarios=24, serial_check_scenarios=5, ibnr_check_scenarios=200),
    "nested": dict(n_claims=1500, scenarios=6),
    "estimation": dict(n_claims=2500, scenarios=8),
}


def _round(name, tmp_path, seed=3):
    ctx = pipeline.setup(name, seed, **TINY[name])
    csv_path = str(tmp_path / f"{name}.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rnd = pipeline.run_round(ctx, csv_path, ctx.workload.workers)
    assert rnd.error is None, rnd.error
    return ctx, rnd, csv_path


@pytest.fixture(scope="module")
def volume(tmp_path_factory):
    return _round("volume", tmp_path_factory.mktemp("volume"))


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_passes_every_check_at_a_tiny_size(name, tmp_path):
    ctx, rnd, csv_path = _round(name, tmp_path)
    failures, details = run.verify(ctx, [rnd], csv_path, ctx.workload.workers)
    assert failures == []
    assert "parameters" in details and "rbns mean z" in details
    if name == "volume":
        assert details["parallel equals serial"] == "ok"
        assert details["ibnr payment count"] == "ok"


def test_traced_round_matches_untraced_and_spans_cover_each_stage(tmp_path):
    ctx, plain, csv_path = _round("nested", tmp_path)
    tracer = tracing.Tracer()
    with tracing.traced(tracer) as api:
        rnd = pipeline.run_round(ctx, csv_path, 1, api=api, tracer=tracer)
    assert rnd.error is None, rnd.error
    checks.check_same_draws(plain.outputs["dist"], rnd.outputs["dist"])
    metrics, failures = run.trace_metrics([plain], [(rnd, tracer)])
    assert failures == []
    for stage in pipeline.STAGES:
        assert rnd.traced_self[stage] == pytest.approx(rnd.wall(stage), abs=5e-3)
    assert metrics["copulas.hac_draws_per_scenario"] > 0
    assert 0 < metrics["copulas.hac_draws_kept_ratio"] < 1
    assert 0 < metrics["reserving.ibnr_keep_ratio"] < 1
    assert metrics["reserving.rbns_payments_per_scenario"] > 0
    # the program is untouched once the with-block ends
    import granres.reserving

    assert granres.reserving.hac_sample is granres.hac_sample


def test_ingest_check_fails_on_a_dropped_row(volume, tmp_path):
    ctx, rnd, csv_path = volume
    lines = Path(csv_path).read_text().splitlines(keepends=True)
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:5] + lines[6:]))
    facts = checks.read_csv_facts(csv_path)
    checks.check_ingest(facts, rnd.outputs["ingested"], rnd.outputs["ingest_report"])
    import granres

    dropped, report = granres.ingest_csv_report(str(short))
    with pytest.raises(checks.CheckFailed):
        checks.check_ingest(facts, dropped, report)


def test_ingest_check_fails_on_rejected_rows(volume):
    ctx, rnd, csv_path = volume
    facts = checks.read_csv_facts(csv_path)
    report = replace(rnd.outputs["ingest_report"], rejected_rows=1)
    with pytest.raises(checks.CheckFailed):
        checks.check_ingest(facts, rnd.outputs["ingested"], report)


def test_conservation_check_fails_when_a_split_loses_money(volume):
    dist = volume[1].outputs["dist"]
    checks.check_conservation(dist)
    by_period = dist.by_period.copy()
    by_period[3, 0] += 0.01
    with pytest.raises(checks.CheckFailed):
        checks.check_conservation(replace(dist, by_period=by_period))
    by_type = dict(dist.by_type)
    by_type["bodily_injury"] = by_type["bodily_injury"] * (1 + 1e-9)
    with pytest.raises(checks.CheckFailed):
        checks.check_conservation(replace(dist, by_type=by_type))


def test_rbns_check_fails_on_a_shifted_mean(volume):
    ctx, rnd, _ = volume
    out = rnd.outputs
    expected = checks.rbns_closed_form(out["fitted"], out["train"], ctx.window.a_day, ctx.window.b_day)
    draws = out["dist"].rbns
    checks.check_rbns_mean(draws, expected)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    with pytest.raises(checks.CheckFailed):
        checks.check_rbns_mean(draws + 8.0 * se, expected)


def test_ibnr_count_check_fails_on_a_shifted_mean():
    rng = np.random.default_rng(0)
    counts = rng.poisson(400.0, 200)
    checks.check_ibnr_count(counts, 400.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_ibnr_count(counts, 400.0 * 1.05)


def test_ibnr_analytic_sum_matches_the_program_acceptance_figure():
    """The independent sum reproduces the analytic mean of the program's own
    acceptance test (negbin gaps, Weibull delay, exponential intensity)."""
    import math

    import granres

    a_day, b_day = granres.parse_iso("2016-12-31"), granres.parse_iso("2017-12-31")
    tm = granres.TypeModel(
        occurrence=granres.OccurrenceModel("negbin", {2016: granres.NegativeBinomial(1.0, 0.2)}),
        delay=granres.WeibullDelayModel(1.5, math.log(30.0), 0.0),
        counts=granres.CountProcess(granres.ExponentialDecay(3.0, 1.2)),
        severity=granres.LogNormalSeverity(3.0, 0.4),
        copula=granres.CopulaSpec("independence"),
    )
    model = granres.GranularModel(types={"material_damage": tm})
    got = checks.ibnr_count_analytic(model, a_day, b_day, {"material_damage": 250})
    assert got == pytest.approx(11.25505872353753, rel=1e-9)


def test_backtest_check_fails_one_cent_off(volume):
    ctx, rnd, csv_path = volume
    facts = checks.read_csv_facts(csv_path)
    cents = checks.holdout_cents(facts, ctx.window.a_day, ctx.window.b_day)
    actual = rnd.outputs["backtest"].actual
    checks.check_backtest_actual(actual, cents)
    with pytest.raises(checks.CheckFailed):
        checks.check_backtest_actual(actual + 0.01, cents)


def test_parameter_check_fails_against_a_different_truth(volume):
    ctx, rnd, _ = volume
    fitted, report = rnd.outputs["fitted"], rnd.outputs["fit_report"]
    checks.check_parameters(fitted, ctx.truth, report)
    tm = ctx.truth.types["material_damage"]
    for wrong in (
        replace(tm, severity=replace(tm.severity, mu=tm.severity.mu + 0.3)),
        replace(tm, delay=replace(tm.delay, c0=tm.delay.c0 + 0.2)),
    ):
        truth = replace(ctx.truth, types=dict(ctx.truth.types, material_damage=wrong))
        with pytest.raises(checks.CheckFailed):
            checks.check_parameters(fitted, truth, report)


def test_parallel_check_fails_when_one_scenario_differs(volume):
    ctx, rnd, _ = volume
    dist = rnd.outputs["dist"]
    k = ctx.workload.serial_check_scenarios
    serial = replace(
        dist, rbns=dist.rbns[:k].copy(), ibnr=dist.ibnr[:k],
        by_period=dist.by_period[:k], by_type={t: v[:k] for t, v in dist.by_type.items()},
    )
    checks.check_parallel_matches_serial(dist, serial)
    serial.rbns[2] = np.nextafter(serial.rbns[2], np.inf)
    with pytest.raises(checks.CheckFailed):
        checks.check_parallel_matches_serial(dist, serial)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_draws(dist, replace(dist, rbns=np.roll(dist.rbns, 1)))


def test_cents_parse_exactly():
    assert checks._cents("12.05") == 1205
    assert checks._cents("-0.5") == -50
    assert checks._cents("7") == 700
