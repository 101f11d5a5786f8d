"""Span tracing of the reserving pipeline from outside the program.

The program has no tracing of its own, so the traced run replaces, for the
duration of one round, the module attributes through which granres.reserving
and granres.synth reach each layer with timing wrappers. Each wrapper opens a
span; a span's self time is its duration minus the time of the spans opened
inside it, so the self times of every span opened during a stage add up to
the stage's traced wall time. Counters are recorded at the same boundaries.
Calls are looked up on the module at call time, so patching the attribute is
enough; everything is restored when the round ends.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import types
from collections import Counter, defaultdict

import numpy as np

import granres

# the functions the benchmark itself calls, one per stage step
API = (
    ("synthesize", "synth.synthesize"),
    ("write_csv", "claims.write_csv"),
    ("ingest_csv_report", "claims.ingest"),
    ("censor", "claims.censor"),
    ("fit_model", "reserving.fit_model"),
    ("simulate_reserves", "reserving.simulate_reserves"),
    ("reserve_summary", "reserving.reserve_summary"),
    ("backtest", "reserving.backtest"),
)


class Tracer:
    """Per-label self time and call counts, plus named counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # child time accumulated by each open span

    @contextlib.contextmanager
    def span(self, label):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            self.self_s[label] += dur - child
            self.calls[label] += 1
            if self._stack:
                self._stack[-1] += dur

    def wrap(self, label, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(label):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, out)
            return out

        return traced

    def total_self_s(self) -> float:
        return float(sum(self.self_s.values()))


class _CountingRng:
    """Forwards to a numpy Generator and tallies its Poisson draws.

    The RBNS step draws each claim's future payment count with one
    rng.poisson call per claim type, so the tally is the RBNS payment count.
    The wrapped generator is the one drawing, so the stream is unchanged.
    """

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def poisson(self, *args, **kwargs):
        m = self._rng.poisson(*args, **kwargs)
        self._tracer.counts["rbns_payments"] += int(np.sum(m))
        return m

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _count_arrivals(tracer, out):
    tracer.counts["arrivals"] += int(np.size(out))


def _count_ibnr(tracer, out):
    for d in out.values():
        tracer.counts["ibnr_claims"] += int(d["t"].size)
        tracer.counts["ibnr_payments"] += int(d["n"].sum())


def _count_hac(tracer, out):
    tracer.counts["hac_draws"] += len(out)


def _count_delay_quantile(tracer, out):
    tracer.counts["delay_quantile_calls"] += 1


def _count_kept_pairs(tracer, out):
    # the engine calls this for exactly the paired claims that survived the
    # reporting-window filter
    tracer.counts["hac_pairs_kept"] += int(np.size(out))


# (module, attribute, layer label, counter). The label names the layer the
# called function belongs to; None opens no span. Synthesis is one layer:
# only its HAC draws get a span of their own, so the other layers' figures
# are the fit's, the reserve engine's and the backtest's alone.
PATCHES = (
    ("granres.reserving", "censor", "claims.censor", None),
    ("granres.reserving", "fit_model", "reserving.fit_model", None),
    ("granres.reserving", "simulate_reserves", "reserving.simulate_reserves", None),
    ("granres.reserving", "fit_occurrence", "frequency.fit_occurrence", None),
    ("granres.reserving", "fit_delay", "delays.fit_delay", None),
    ("granres.reserving", "fit_intensity", "payments.fit_intensity", None),
    ("granres.reserving", "fit_severity", "severity.fit_severity", None),
    ("granres.reserving", "fit_copula", "copulas.fit_copula", None),
    ("granres.reserving", "matched_delay_scores", "copulas.matched_delay_scores", None),
    ("granres.reserving", "fit_hac_outer", "copulas.fit_hac_outer", None),
    ("granres.reserving", "_perturb_model", "reserving.perturb", None),
    ("granres.reserving", "_rbns_scenario", "reserving.rbns", None),
    ("granres.reserving", "_ibnr_draw", "reserving.ibnr", _count_ibnr),
    ("granres.reserving", "simulate_arrivals", "frequency.simulate_arrivals", _count_arrivals),
    ("granres.reserving", "hac_sample", "copulas.hac_sample", _count_hac),
    ("granres.reserving", "delay_quantile", "delays.delay_quantile", _count_delay_quantile),
    ("granres.reserving", "_count_marginal_quantile", None, _count_kept_pairs),
    ("granres.reserving", "conditional_count_quantile", "copulas.conditional_count_quantile", None),
    ("granres.reserving", "_place_payments", "payments.place_payments", None),
    ("granres.reserving", "simulate_amounts", "severity.simulate_amounts", None),
    ("granres.synth", "hac_sample", "synth.hac_sample", None),
)


def _patched(tracer, modname, attr, label, after, fn):
    if label is None:

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(tracer, out)
            return out

        return counted
    if (modname, attr) == ("granres.reserving", "_rbns_scenario"):

        def rbns(model, prep, window, edges, rng):
            tracer.counts["scenarios"] += 1
            with tracer.span(label):
                return fn(model, prep, window, edges, _CountingRng(rng, tracer))

        return rbns
    return tracer.wrap(label, fn, after)


@contextlib.contextmanager
def traced(tracer):
    """Patch every layer entry point for the body of the with-block.

    Yields the namespace of traced public functions the pipeline calls.
    """
    saved = []
    try:
        for modname, attr, label, after in PATCHES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _patched(tracer, modname, attr, label, after, fn))
        api = types.SimpleNamespace(
            **{
                name: tracer.wrap(label, getattr(granres, name))
                for name, label in API
            }
        )
        yield api
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def layer_metrics(tracer, rows_ingested) -> dict:
    """Per-layer figures of one traced round, keyed by BENCHMARK.json name."""
    s, c = tracer.self_s, tracer.counts
    scen = max(c["scenarios"], 1)
    drawn_pairs = 2 * c["hac_draws"]  # one claim of each type per draw
    out = {
        "claims.ingest_rows_per_s": rows_ingested * tracer.calls["claims.ingest"]
        / s["claims.ingest"],
        "claims.write_csv_s": s["claims.write_csv"],
        "claims.censor_s": s["claims.censor"],
        "synth.synthesize_s": s["synth.synthesize"],
        "synth.hac_sample_s": s["synth.hac_sample"],
        "synth.hac_sample_calls": tracer.calls["synth.hac_sample"]
        / max(tracer.calls["synth.synthesize"], 1),
        "frequency.fit_occurrence_s": s["frequency.fit_occurrence"],
        "frequency.simulate_arrivals_s": s["frequency.simulate_arrivals"],
        "frequency.arrivals_per_scenario": c["arrivals"] / scen,
        "delays.fit_delay_s": s["delays.fit_delay"],
        "delays.delay_quantile_s": s["delays.delay_quantile"],
        "delays.delay_quantile_calls_per_scenario": c["delay_quantile_calls"] / scen,
        "payments.fit_intensity_s": s["payments.fit_intensity"],
        "payments.place_payments_s": s["payments.place_payments"],
        "severity.fit_severity_s": s["severity.fit_severity"],
        "severity.simulate_amounts_s": s["severity.simulate_amounts"],
        "copulas.fit_copula_s": s["copulas.fit_copula"],
        "copulas.matched_delay_scores_s": s["copulas.matched_delay_scores"],
        "copulas.fit_hac_outer_s": s["copulas.fit_hac_outer"],
        "copulas.conditional_count_quantile_s": s["copulas.conditional_count_quantile"],
        "copulas.hac_sample_s": s["copulas.hac_sample"],
        "copulas.hac_draws_per_scenario": c["hac_draws"] / scen,
        "copulas.hac_draws_kept_ratio": c["hac_pairs_kept"] / drawn_pairs
        if drawn_pairs
        else 0.0,
        "reserving.fit_model_s": s["reserving.fit_model"],
        "reserving.rbns_s": s["reserving.rbns"],
        "reserving.ibnr_s": s["reserving.ibnr"],
        "reserving.perturb_s": s["reserving.perturb"],
        "reserving.simulate_reserves_s": s["reserving.simulate_reserves"],
        "reserving.backtest_s": s["reserving.backtest"],
        "reserving.reserve_summary_s": s["reserving.reserve_summary"],
        "reserving.rbns_payments_per_scenario": c["rbns_payments"] / scen,
        "reserving.ibnr_claims_per_scenario": c["ibnr_claims"] / scen,
        "reserving.ibnr_payments_per_scenario": c["ibnr_payments"] / scen,
        "reserving.ibnr_keep_ratio": c["ibnr_claims"] / max(c["arrivals"], 1),
    }
    return {k: float(v) for k, v in out.items()}
