"""One benchmark round: the reserving pipeline an actuary runs, stage by stage.

A round synthesizes the workload's portfolio and writes its CSV, then runs
the valuation chain (ingest, censor and fit, simulate reserves, summarize)
and a backtest. Every round of a run repeats the same seeded work, so rounds
can be compared and their outputs must agree bitwise.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import granres
from workloads import END, HORIZON_END, START, VALUATION, WORKLOADS

# the operations of one round, in order
STAGES = ("synth", "ingest", "fit", "reserve", "summary", "backtest")


@dataclass(frozen=True)
class Context:
    """Everything built before the first timed stage."""

    workload: object
    seed: int
    start: int
    end: int
    window: object  # ValuationWindow (a, b]
    truth: object  # the generator's GranularModel


def setup(name: str, seed: int, **resize) -> Context:
    """Build the workload's context; resize overrides Workload fields (tests)."""
    wl = replace(WORKLOADS[name], **resize)
    start, end = granres.parse_iso(START), granres.parse_iso(END)
    window = granres.ValuationWindow(
        granres.parse_iso(VALUATION), granres.parse_iso(HORIZON_END)
    )
    truth = granres.default_model(wl.n_claims, start, end, wl.preset)
    return Context(wl, seed, start, end, window, truth)


@dataclass
class Round:
    """Outputs and per-stage wall times of one round."""

    stamps: dict = field(default_factory=dict)  # stage -> (start, end) perf_counter
    traced_self: dict = field(default_factory=dict)  # stage -> sum of span self times
    outputs: dict = field(default_factory=dict)
    error: str | None = None  # traceback of the stage that raised

    def trim(self) -> None:
        """Drop the outputs later checks do not read, so that rounds kept for
        their timings do not grow the heap the next rounds run in."""
        keep = ("dist", "ingest_report")
        self.outputs = {k: v for k, v in self.outputs.items() if k in keep}

    @property
    def completed(self) -> int:
        return len(self.stamps)

    def wall(self, stage) -> float:
        t0, t1 = self.stamps[stage]
        return t1 - t0

    @property
    def valuation_s(self) -> float:
        return self.stamps["summary"][1] - self.stamps["ingest"][0]


def run_round(ctx: Context, csv_path: str, workers: int, api=granres, tracer=None) -> Round:
    """Run the stages in order; api is granres or its traced stand-in.

    The valuation chain's four stages run back to back, so valuation_s is the
    wall time from the start of ingest to the end of the summary.
    """
    wl, a, b = ctx.workload, ctx.window.a_day, ctx.window.b_day
    rnd = Round()
    out = rnd.outputs

    def synth():
        out["portfolio"] = api.synthesize(
            ctx.truth, ctx.start, ctx.end, np.random.default_rng(ctx.seed)
        )
        api.write_csv(out["portfolio"], csv_path)

    def ingest():
        # the CSV holds no as-of date, so pass the data cutoff, as the CLI's
        # "cutoff" setting does; the file's last date may fall before it
        out["ingested"], out["ingest_report"] = api.ingest_csv_report(
            csv_path, cutoff=ctx.end
        )

    def fit():
        out["train"] = api.censor(out["ingested"], a)
        out["fitted"], out["fit_report"] = api.fit_model(out["train"], wl.recipe)

    def reserve():
        out["dist"] = api.simulate_reserves(
            out["fitted"], out["train"], ctx.window, wl.scenarios, ctx.seed, workers=workers
        )

    def summary():
        out["summary"] = api.reserve_summary(out["dist"])

    def backtest():
        out["backtest"] = api.backtest(
            out["ingested"], wl.recipe, a, b,
            n_scenarios=wl.scenarios, seed=ctx.seed, workers=workers,
        )

    steps = dict(zip(STAGES, (synth, ingest, fit, reserve, summary, backtest)))
    for stage in STAGES:
        spans0 = tracer.total_self_s() if tracer else 0.0
        t0 = time.perf_counter()
        try:
            steps[stage]()
        except Exception:
            rnd.error = f"stage {stage} failed:\n{traceback.format_exc()}"
            break
        rnd.stamps[stage] = (t0, time.perf_counter())
        if tracer:
            rnd.traced_self[stage] = tracer.total_self_s() - spans0
    return rnd


def end_to_end(rounds, scenarios: int) -> dict:
    """Median over rounds of each end-to-end stage figure."""

    def med(values):
        return float(np.median(values))

    return {
        "synth_s": med([r.wall("synth") for r in rounds]),
        "ingest_s": med([r.wall("ingest") for r in rounds]),
        "fit_s": med([r.wall("fit") for r in rounds]),
        "reserve_scenarios_per_s": scenarios / med([r.wall("reserve") for r in rounds]),
        "backtest_s": med([r.wall("backtest") for r in rounds]),
        "valuation_s": med([r.valuation_s for r in rounds]),
    }
