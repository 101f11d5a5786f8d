"""Benchmark of the granres reserving pipeline, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload volume --seed 1 --seconds 20 --trace 0

It repeats rounds of the pipeline (synthesize and write the CSV, ingest, fit
on the data censored at the valuation date, simulate reserves, summarize,
backtest) on the workload's seeded portfolio until --seconds have passed,
checks the outputs, and prints each metric by name and unit. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 rounds run on one worker, alternating untraced and traced, and the
metrics are the per-layer ones. Metric names and units come from
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import os

# One numeric-library thread per process: with two pool workers that is two
# busy threads on a two-core machine. Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3
# a traced stage's span self times must add up to its wall time within this
TRACE_GAP_S, TRACE_GAP_SHARE = 0.005, 0.02

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import pipeline
pipeline.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def setup_seconds(name: str, seed: int) -> float:
    """Import granres and build the workload's set-up in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, name, str(seed)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any child it waited for
    (pool workers and set-up interpreters)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports kB


def verify(ctx, rounds, csv_path, workers) -> tuple[list, dict]:
    """Run every correctness check on the last round; returns (failures, details)."""
    import numpy as np

    import checks
    import granres

    wl, a, b = ctx.workload, ctx.window.a_day, ctx.window.b_day
    out = rounds[-1].outputs
    failures, details = [], {}

    def attempt(name, fn):
        try:
            value = fn()
        except checks.CheckFailed as e:
            failures.append(f"{name}: {e}")
        else:
            details[name] = "ok" if value is None else value

    facts = checks.read_csv_facts(csv_path)
    attempt("ingest", lambda: checks.check_ingest(facts, out["ingested"], out["ingest_report"]))
    attempt("conservation", lambda: checks.check_conservation(out["dist"]))
    attempt(
        "backtest conservation",
        lambda: checks.check_conservation(out["backtest"].distribution),
    )
    rbns_expected = checks.rbns_closed_form(out["fitted"], out["train"], a, b)
    attempt("rbns mean z", lambda: checks.check_rbns_mean(out["dist"].rbns, rbns_expected))
    attempt(
        "backtest actual",
        lambda: checks.check_backtest_actual(
            out["backtest"].actual, checks.holdout_cents(facts, a, b)
        ),
    )
    attempt(
        "parameters",
        lambda: checks.check_parameters(out["fitted"], ctx.truth, out["fit_report"]),
    )
    for other in rounds[:-1]:
        attempt(
            "rounds repeat bitwise",
            lambda: checks.check_same_draws(other.outputs["dist"], out["dist"]),
        )
    if wl.ibnr_check_scenarios:
        fitted = out["fitted"]
        lookback = {
            t: granres.default_lookback(tm.delay, a) for t, tm in fitted.types.items()
        }
        expected = checks.ibnr_count_analytic(fitted, a, b, lookback)
        rng = np.random.default_rng(ctx.seed)
        counts = [
            sum(len(c.payments) for c in granres.ibnr_simulate(fitted, ctx.window, rng))
            for _ in range(wl.ibnr_check_scenarios)
        ]
        attempt("ibnr payment count", lambda: checks.check_ibnr_count(counts, expected))
        details["ibnr payment count mean"] = [float(np.mean(counts)), expected]
    if wl.serial_check_scenarios and workers > 1:
        serial = granres.simulate_reserves(
            out["fitted"], out["train"], ctx.window, wl.serial_check_scenarios,
            ctx.seed, workers=1,
        )
        attempt(
            "parallel equals serial",
            lambda: checks.check_parallel_matches_serial(out["dist"], serial),
        )
    return failures, details


def trace_metrics(untraced, traced) -> tuple[dict, list]:
    """Per-layer medians over the traced rounds and the tracing overhead,
    plus failures: a stage whose span self times do not add up to its wall
    time, or a traced round whose draws differ from the untraced ones."""
    import checks
    import tracing

    per_round = [
        tracing.layer_metrics(tracer, rnd.outputs["ingest_report"].rows)
        for rnd, tracer in traced
    ]
    metrics = {k: statistics.median(p[k] for p in per_round) for k in per_round[0]}

    def round_wall(rnd):
        return sum(rnd.wall(s) for s in rnd.stamps)

    gaps, failures = [], []
    for rnd, _ in traced:
        gap = 0.0
        for stage, self_s in rnd.traced_self.items():
            wall = rnd.wall(stage)
            gap += wall - self_s
            if abs(wall - self_s) > max(TRACE_GAP_S, TRACE_GAP_SHARE * wall):
                failures.append(
                    f"trace: stage {stage} spans add to {self_s:.4f} s of {wall:.4f} s"
                )
        gaps.append(gap)
    try:
        checks.check_same_draws(untraced[-1].outputs["dist"], traced[-1][0].outputs["dist"])
    except checks.CheckFailed as e:
        failures.append(f"traced round: {e}")
    metrics["trace.unattributed_s"] = statistics.median(gaps)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(round_wall(r) for r, _ in traced)
        / statistics.median(round_wall(r) for r in untraced)
        - 1.0
    )
    return metrics, failures


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "granres" / "__init__.py").is_file():
        print(f"bench: no granres package under {SRC}", file=sys.stderr)
        return 2
    units = _metric_units(args.trace)
    sys.path.insert(0, str(SRC))

    setup_samples = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]

    import pipeline
    import tracing

    ctx = pipeline.setup(args.workload, args.seed)
    wl = ctx.workload
    workers = 1 if args.trace else wl.workers
    work = BENCH / "work"
    work.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work)
    csv_path = os.path.join(tmp, "portfolio.csv")
    untraced, traced = [], []
    try:
        # the first round always runs; another starts only if a round as long
        # as the last one still ends within --seconds
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            if untraced:
                untraced[-1].trim()
            untraced.append(pipeline.run_round(ctx, csv_path, workers))
            if untraced[-1].error:
                break
            if args.trace:
                if traced:
                    traced[-1][0].trim()
                tracer = tracing.Tracer()
                with tracing.traced(tracer) as api:
                    rnd = pipeline.run_round(ctx, csv_path, workers, api=api, tracer=tracer)
                traced.append((rnd, tracer))
                if rnd.error:
                    break
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
        executed = untraced + [r for r, _ in traced]
        attempted = len(pipeline.STAGES) * len(executed)
        failed = sum(len(pipeline.STAGES) - r.completed for r in executed)
        for rnd in executed:
            if rnd.error:
                print(rnd.error, file=sys.stderr)
        complete = [r for r in untraced if not r.error]
        good = [(r, t) for r, t in traced if not r.error]
        if not complete or (args.trace and not good):
            print("bench: no round completed", file=sys.stderr)
            return 1
        failures, details = verify(ctx, complete, csv_path, workers)
        if args.trace:
            metrics, trace_failures = trace_metrics(complete, good)
            failures += trace_failures
        else:
            metrics = pipeline.end_to_end(complete, wl.scenarios)
            metrics["setup_s"] = statistics.median(setup_samples)
            metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    _report(args, wl, result, executed, setup_samples, details)
    print(json.dumps(result))
    return 0


def _report(args, wl, result, rounds, setup_samples, details) -> None:
    """Print the metrics as a table and keep the run's detail in bench/results."""
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  attempted {result['attempted']}  failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"  checks: {'all passed' if result['correct'] else 'FAILED'}")
    detail = dict(
        result,
        workload=wl.name,
        seed=args.seed,
        trace=args.trace,
        setup_samples_s=setup_samples,
        rounds=[{s: r.wall(s) for s in r.stamps} for r in rounds],
        checks=details,
    )
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())
