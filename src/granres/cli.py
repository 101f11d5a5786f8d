"""Command line surface: synth, fit, reserve, backtest, triangle.

Configuration comes from an optional JSON file (--config) with individual
flags taking precedence. Every randomized command prints the effective seed
and, at a fixed seed, writes byte-identical artifacts.

Exit codes: 0 success, 1 model or numeric failure, 2 I/O or config failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .claims import Portfolio, aggregate_triangle, censor, ingest_csv_report, write_csv
from .daycount import iso, parse_iso
from .reserving import (
    GranularModel,
    RecipeError,
    ValuationWindow,
    backtest,
    chain_ladder_reserve,
    fit_model,
    reserve_summary,
    simulate_reserves,
)
from .synth import default_model, synthesize

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_IO = 2


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


def _write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _load_config(path) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as f:
            cfg = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


# config keys the commands read as numbers, with the conversion each takes
_NUMBER_KEYS = {"seed": int, "scenarios": int, "workers": int, "n_claims": int,
                "granularity": int, "runoff_years": float}


def _effective_config(args) -> dict:
    cfg = _load_config(args.config)
    for key, val in vars(args).items():
        if val is not None and key not in ("command", "config", "func"):
            cfg[key] = val
    cfg.setdefault("seed", 0)
    cfg.setdefault("out", ".")
    for key, convert in _NUMBER_KEYS.items():
        if cfg.get(key) is not None:
            try:
                convert(cfg[key])
            except (TypeError, ValueError, OverflowError) as e:
                raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from e
    if int(cfg["seed"]) < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']!r}")
    if int(cfg.get("scenarios", 1)) < 1:
        raise ConfigError("scenarios must be at least 1")
    return cfg


def _out_dir(cfg) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _require(cfg, key, hint) -> object:
    if key not in cfg or cfg[key] in (None, ""):
        raise ConfigError(f"missing {hint} (flag --{key.replace('_', '-')})")
    return cfg[key]


def _iso_day(key, text) -> int:
    try:
        return parse_iso(text)
    except ValueError as e:
        raise ConfigError(f"{key} must be an ISO date: {text!r}") from e


def _read_portfolio(cfg) -> Portfolio:
    path = _require(cfg, "input", "input portfolio CSV")
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    # the CSV carries no observation-end marker, so a config "cutoff" (ISO
    # date) can assert it; default is the latest date seen in the file
    cut = cfg.get("cutoff")
    cut_day = _iso_day("cutoff", str(cut)) if cut else None
    portfolio, report = ingest_csv_report(path)
    if cut_day is not None:
        if cut_day < portfolio.data_cutoff:
            latest = iso(portfolio.data_cutoff)
            raise ConfigError(f"cutoff {cut} falls before {latest}, the latest date in {path}")
        portfolio = censor(portfolio, cut_day)
    keep_types = cfg.get("claim_types")
    if isinstance(keep_types, str):
        keep_types = [keep_types]
    if not isinstance(keep_types, (list, type(None))):
        raise ConfigError(f"claim_types must be a claim type or a list of them, got {keep_types!r}")
    if keep_types:
        try:
            portfolio = portfolio.by_type(*keep_types)
        except ValueError as e:
            raise ConfigError(f"claim_types: {e}") from e
        if not len(portfolio):
            raise ConfigError(f"no claims left after claim_types={keep_types}")
    if report.rejected_rows:
        print(f"ingest: {report.rejected_rows} rows rejected", file=sys.stderr)
    return portfolio


def _window(cfg) -> ValuationWindow:
    """The valuation window (a, b]; a window that cannot be built is a config
    error, raised before any portfolio is read or fitted."""
    text = str(_require(cfg, "valuation_date", "valuation date (ISO)"))
    a = _iso_day("valuation_date", text)
    choice = str(cfg.get("horizon", "one-year"))
    if choice == "one-year":
        try:
            return ValuationWindow.one_year(a)
        except ValueError as e:
            raise ConfigError(f"valuation_date has no date a year later: {text!r} ({e})") from e
    if choice == "ultimate":
        years = float(cfg.get("runoff_years", 15.0))
        try:
            return ValuationWindow.ultimate(a, years)
        except (ValueError, OverflowError) as e:
            raise ConfigError(
                f"runoff_years must give a horizon after valuation_date: {years!r} ({e})"
            ) from e
    try:
        b = parse_iso(choice)
    except ValueError as e:
        raise ConfigError(
            f"horizon must be one-year, ultimate, or an ISO date: {choice!r}"
        ) from e
    if b <= a:
        raise ConfigError(f"horizon {choice} must fall after valuation_date {text}")
    return ValuationWindow(a, b)


def _model_from(source, read, arg):
    """read(arg) as a GranularModel; a model it cannot build is a config error
    that names its source."""
    try:
        return read(arg)
    except (KeyError, ValueError, TypeError) as e:
        why = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ConfigError(f"{source} is not a readable model: {why}") from e


def synth_portfolio(cfg, rng) -> tuple:
    """Portfolio plus its generator truth from a synth config.

    Keys: n_claims (default 5000), start/end (ISO dates), dependence preset,
    or a full "model" dict overriding the preset entirely. A value that
    none of them can take is a config error, raised before any draw.
    """
    start = _iso_day("start", str(cfg.get("start", "2016-01-01")))
    end = _iso_day("end", str(cfg.get("end", "2021-12-31")))
    if end <= start:
        raise ConfigError(f"end {iso(end)} must fall after start {iso(start)}")
    if "model" in cfg:
        model = _model_from("config key model", GranularModel.from_dict, cfg["model"])
    else:
        n_claims = int(cfg.get("n_claims", 5000))
        try:
            model = default_model(n_claims, start, end, cfg.get("dependence", "independence"))
        except ValueError as e:  # the message names the n_claims or dependence key
            raise ConfigError(str(e)) from e
    return synthesize(model, start, end, rng), model


def cmd_synth(cfg) -> int:
    out = _out_dir(cfg)
    seed = int(cfg["seed"])
    rng = np.random.default_rng(seed)
    portfolio, model = synth_portfolio(cfg, rng)
    csv_path = os.path.join(out, "portfolio.csv")
    write_csv(portfolio, csv_path)
    truth_path = os.path.join(out, "truth.json")
    _write_json(truth_path, {"model": model.to_dict(), "seed": seed})
    print(f"seed: {seed}")
    print(f"claims: {len(portfolio)}")
    print(f"wrote {csv_path}")
    print(f"wrote {truth_path}")
    return EXIT_OK


def cmd_fit(cfg) -> int:
    out = _out_dir(cfg)
    portfolio = _read_portfolio(cfg)
    model, report = fit_model(portfolio, cfg.get("recipe"))
    model_path = os.path.join(out, "model.json")
    model.save(model_path)
    report_path = os.path.join(out, "fit_report.json")
    _write_json(report_path, report)
    print(f"claims: {len(portfolio)}")
    print(f"wrote {model_path}")
    print(f"wrote {report_path}")
    return EXIT_OK


def _scenario_csv(path, dist) -> None:
    names = list(dist.claim_types)
    with open(path, "w") as f:
        f.write(",".join(["scenario", "total", "rbns", "ibnr"] + names) + "\n")
        totals = dist.totals
        for i in range(totals.size):
            row = [str(i), f"{totals[i]:.2f}", f"{dist.rbns[i]:.2f}", f"{dist.ibnr[i]:.2f}"]
            row += [f"{dist.by_type[t][i]:.2f}" for t in names]
            f.write(",".join(row) + "\n")


def _cashflow_csv(path, dist) -> None:
    mean_flow = dist.by_period.mean(axis=0)
    with open(path, "w") as f:
        f.write("period,expected_paid\n")
        for year, v in zip(dist.period_years, mean_flow):
            f.write(f"{year},{v:.2f}\n")


def cmd_reserve(cfg) -> int:
    out = _out_dir(cfg)
    seed = int(cfg["seed"])
    window = _window(cfg)
    portfolio = _read_portfolio(cfg)
    if cfg.get("model"):
        if not isinstance(cfg["model"], str):
            raise ConfigError("model must be a model.json path for reserve")
        if not os.path.exists(cfg["model"]):
            raise ConfigError(f"model file not found: {cfg['model']}")
        model = _model_from(f"model file {cfg['model']}", GranularModel.load, cfg["model"])
    else:
        model, report = fit_model(portfolio, cfg.get("recipe"))
        _write_json(os.path.join(out, "fit_report.json"), report)
    dist = simulate_reserves(
        model,
        portfolio,
        window,
        n_scenarios=int(cfg.get("scenarios", 1000)),
        seed=seed,
        workers=int(cfg.get("workers") or os.cpu_count() or 1),
    )
    summary = reserve_summary(dist)
    summary["window"]["a"] = iso(window.a_day)
    summary["window"]["b"] = iso(window.b_day)
    summary_path = os.path.join(out, "summary.json")
    _write_json(summary_path, summary)
    _scenario_csv(os.path.join(out, "scenarios.csv"), dist)
    _cashflow_csv(os.path.join(out, "cashflow.csv"), dist)
    print(f"seed: {seed}")
    print(f"mean reserve: {summary['total']['mean']:.2f}")
    print(f"q0.995: {summary['total']['q0.995']:.2f}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def cmd_backtest(cfg) -> int:
    out = _out_dir(cfg)
    seed = int(cfg["seed"])
    window = _window(cfg)
    portfolio = _read_portfolio(cfg)
    result = backtest(
        portfolio,
        cfg.get("recipe"),
        window.a_day,
        window.b_day,
        n_scenarios=int(cfg.get("scenarios", 1000)),
        seed=seed,
        workers=int(cfg.get("workers") or os.cpu_count() or 1),
    )
    report = {
        "seed": seed,
        "window": {
            "a": iso(window.a_day),
            "b": iso(window.b_day),
            "a_day": window.a_day,
            "b_day": window.b_day,
        },
        "actual_paid": result.actual,
        "quantile_of_actual": result.quantile_of_actual,
        "coverage": result.coverage,
        "in_band_90": result.in_band_90,
        "predicted": reserve_summary(result.distribution),
    }
    path = os.path.join(out, "backtest.json")
    _write_json(path, report)
    print(f"seed: {seed}")
    print(f"actual: {result.actual:.2f}")
    print(f"quantile of actual: {result.quantile_of_actual:.3f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_triangle(cfg) -> int:
    out = _out_dir(cfg)
    portfolio = _read_portfolio(cfg)
    tri = aggregate_triangle(portfolio, granularity=int(cfg.get("granularity", 1)))
    tri_path = os.path.join(out, "triangle.csv")
    tri.to_csv(tri_path)
    cl = chain_ladder_reserve(tri)
    cl_path = os.path.join(out, "chain_ladder.json")
    _write_json(cl_path, cl)
    print(f"chain-ladder reserve: {cl['total_reserve']:.2f}")
    print(f"wrote {tri_path}")
    print(f"wrote {cl_path}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="granres",
        description="Claim-by-claim stochastic reserving: simulate, fit, project.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    specs = {
        "synth": (cmd_synth, "generate a synthetic portfolio CSV plus its truth"),
        "fit": (cmd_fit, "fit the five-phase model to a portfolio CSV"),
        "reserve": (cmd_reserve, "simulate the reserve distribution"),
        "backtest": (cmd_backtest, "fit on data up to the valuation date, score the holdout"),
        "triangle": (cmd_triangle, "aggregate a run-off triangle and chain-ladder it"),
    }
    for name, (fn, help_text) in specs.items():
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--input", help="portfolio CSV path")
        q.add_argument("--config", help="JSON config file; flags override it")
        q.add_argument("--seed", type=int, help="master seed (default 0)")
        q.add_argument("--scenarios", type=int, help="Monte Carlo scenario count")
        q.add_argument("--valuation-date", dest="valuation_date", help="ISO date a")
        q.add_argument(
            "--horizon",
            help="one-year, ultimate, or an explicit ISO end date (default one-year)",
        )
        q.add_argument("--workers", type=int, help="parallel scenario workers")
        q.add_argument("--out", help="output directory (default .)")
        q.set_defaults(func=fn)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        return args.func(cfg)
    except (ConfigError, RecipeError) as e:  # a recipe is configuration
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:
        print(f"model error: {e}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
