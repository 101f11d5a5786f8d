"""End-to-end command line round trip on a temporary directory."""

import json
import os

import numpy as np
import pytest

from granres import GranularModel
from granres.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """synth then fit, shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {"n_claims": 600, "start": "2017-01-01", "end": "2019-12-31"}
    (root / "synth.json").write_text(json.dumps(cfg))
    rc = main(
        ["synth", "--config", str(root / "synth.json"), "--seed", "1",
         "--out", str(root / "s")]
    )
    assert rc == 0
    rc = main(
        ["fit", "--input", str(root / "s" / "portfolio.csv"), "--out", str(root / "f")]
    )
    assert rc == 0
    (root / "res.json").write_text(
        json.dumps({"model": str(root / "f" / "model.json"), "cutoff": "2019-12-31"})
    )
    return root


def _reserve(workdir, out, workers):
    return main(
        ["reserve", "--config", str(workdir / "res.json"),
         "--input", str(workdir / "s" / "portfolio.csv"),
         "--valuation-date", "2019-12-31", "--horizon", "one-year",
         "--scenarios", "50", "--seed", "9", "--workers", str(workers),
         "--out", str(workdir / out)]
    )


def test_synth_writes_portfolio_and_truth(workdir):
    csv_path = workdir / "s" / "portfolio.csv"
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "claim_id,claim_type,accident_date,reporting_date,payment_date,amount"
    assert len(rows) > 600
    truth = json.loads((workdir / "s" / "truth.json").read_text())
    assert truth["seed"] == 1
    model = GranularModel.from_dict(truth["model"])
    assert set(model.types) == {"bodily_injury", "material_damage"}


def test_fit_writes_model_and_report(workdir):
    model = GranularModel.load(workdir / "f" / "model.json")
    assert set(model.types) == {"bodily_injury", "material_damage"}
    report = json.loads((workdir / "f" / "fit_report.json").read_text())
    assert set(report["types"]) == {"bodily_injury", "material_damage"}
    assert "hac" in report


def test_reserve_outputs(workdir):
    assert _reserve(workdir, "r1", workers=1) == 0
    summary = json.loads((workdir / "r1" / "summary.json").read_text())
    assert summary["window"]["a"] == "2019-12-31"
    # one year on from 2019-12-31 is 2020-12-31, 366 days across Feb 29
    assert summary["window"]["b"] == "2020-12-31"
    assert summary["window"]["b_day"] - summary["window"]["a_day"] == 366
    assert summary["n_scenarios"] == 50 and summary["seed"] == 9
    assert summary["total"]["q0.995"] >= summary["total"]["q0.5"]
    lines = (workdir / "r1" / "scenarios.csv").read_text().splitlines()
    assert lines[0] == "scenario,total,rbns,ibnr,bodily_injury,material_damage"
    assert len(lines) == 51
    totals = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert abs(totals.mean() - summary["total"]["mean"]) < 0.01
    cash = (workdir / "r1" / "cashflow.csv").read_text().splitlines()
    assert cash[0] == "period,expected_paid"
    assert len(cash) == 1 + len(summary["expected_cash_flow"])


def test_reserve_reproducible_across_workers(workdir):
    assert _reserve(workdir, "r1", workers=1) == 0
    assert _reserve(workdir, "r2", workers=2) == 0
    for name in ("summary.json", "scenarios.csv", "cashflow.csv"):
        assert (workdir / "r1" / name).read_bytes() == (workdir / "r2" / name).read_bytes()


def test_reserve_can_fit_inline(workdir, tmp_path):
    cfg = {
        "cutoff": "2019-12-31",
        "recipe": {"copula_family": "independence", "hac_outer": None},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc = main(
        ["reserve", "--config", str(tmp_path / "cfg.json"),
         "--input", str(workdir / "s" / "portfolio.csv"),
         "--valuation-date", "2019-12-31", "--scenarios", "20", "--seed", "2",
         "--workers", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "fit_report.json").exists()
    assert (tmp_path / "summary.json").exists()


def test_triangle_outputs(workdir, capsys):
    rc = main(
        ["triangle", "--input", str(workdir / "s" / "portfolio.csv"),
         "--out", str(workdir / "t")]
    )
    assert rc == 0
    lines = (workdir / "t" / "triangle.csv").read_text().splitlines()
    assert lines[0] == "origin,dev_0,dev_1,dev_2"
    assert len(lines) == 4
    assert lines[3].startswith("2019,") and lines[3].endswith(",,")
    cl = json.loads((workdir / "t" / "chain_ladder.json").read_text())
    assert set(cl) == {"factors", "ultimate_by_origin", "reserve_by_origin", "total_reserve"}
    assert cl["total_reserve"] > 0
    assert "chain-ladder reserve:" in capsys.readouterr().out


def test_backtest_outputs(workdir, capsys):
    cfg = {
        "cutoff": "2019-12-31",
        "recipe": {"copula_family": "independence", "hac_outer": None},
    }
    (workdir / "bt.json").write_text(json.dumps(cfg))
    rc = main(
        ["backtest", "--config", str(workdir / "bt.json"),
         "--input", str(workdir / "s" / "portfolio.csv"),
         "--valuation-date", "2018-12-31", "--horizon", "2019-12-31",
         "--scenarios", "30", "--seed", "4", "--workers", "1",
         "--out", str(workdir / "b")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed: 4" in out and "quantile of actual:" in out
    bt = json.loads((workdir / "b" / "backtest.json").read_text())
    assert bt["window"] == {"a": "2018-12-31", "b": "2019-12-31", "a_day": 6939, "b_day": 7304}
    assert bt["actual_paid"] > 0
    assert 0.0 <= bt["quantile_of_actual"] <= 1.0
    assert set(bt["coverage"]) == {"0.5", "0.75", "0.95", "0.995"}
    assert bt["predicted"]["n_scenarios"] == 30


def test_seed_is_echoed(workdir, tmp_path, capsys):
    cfg = {"n_claims": 80, "start": "2018-01-01", "end": "2018-12-31"}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc = main(["synth", "--config", str(tmp_path / "cfg.json"), "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed: 3" in out and "claims:" in out


def test_config_errors_exit_2(workdir, tmp_path, capsys):
    port = str(workdir / "s" / "portfolio.csv")

    assert main(["fit", "--input", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path)]) == 2
    assert "config error: input file not found" in capsys.readouterr().err

    (tmp_path / "bad.json").write_text("{nope")
    assert main(["fit", "--config", str(tmp_path / "bad.json"), "--input", port,
                 "--out", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    (tmp_path / "list.json").write_text("[1, 2]")
    assert main(["synth", "--config", str(tmp_path / "list.json"),
                 "--out", str(tmp_path)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err

    assert main(["reserve", "--config", str(workdir / "res.json"), "--input", port,
                 "--valuation-date", "2019-12-31", "--horizon", "someday",
                 "--scenarios", "5", "--out", str(tmp_path)]) == 2
    assert "horizon must be one-year, ultimate, or an ISO date" in capsys.readouterr().err

    assert main(["reserve", "--config", str(workdir / "res.json"), "--input", port,
                 "--valuation-date", "2019-12-31", "--scenarios", "0",
                 "--out", str(tmp_path)]) == 2
    assert "scenarios must be at least 1" in capsys.readouterr().err

    assert main(["fit", "--out", str(tmp_path)]) == 2
    assert "missing input portfolio CSV" in capsys.readouterr().err

    # a value the command cannot read as a number is a config error too
    for key, value in (("scenarios", "many"), ("seed", "abc"), ("runoff_years", [15])):
        (tmp_path / "typed.json").write_text(json.dumps({key: value}))
        assert main(["reserve", "--config", str(tmp_path / "typed.json"), "--input", port,
                     "--valuation-date", "2019-12-31", "--out", str(tmp_path)]) == 2
        assert f"config error: {key} must be a number" in capsys.readouterr().err

    # a window that cannot be built fails before the portfolio is read or fitted
    ultimate = ["--valuation-date", "2019-12-31", "--horizon", "ultimate"]
    for i, (command, flags, cfg, message) in enumerate((
        ("reserve", ["--valuation-date", "2020-13-45"], {},
         "valuation_date must be an ISO date"),
        ("reserve", ["--valuation-date", "9999-06-01"], {},
         "valuation_date has no date a year later"),
        ("backtest", ["--valuation-date", "2020-12-31", "--horizon", "2019-01-01"], {},
         "horizon 2019-01-01 must fall after valuation_date"),
        ("reserve", ultimate, {"runoff_years": -1}, "runoff_years must give a horizon"),
        ("reserve", ultimate, {"runoff_years": 1e308}, "runoff_years must give a horizon"),
        ("backtest", ultimate, {"runoff_years": -1}, "runoff_years must give a horizon"),
        # only YYYY-MM-DD dates, whichever forms the interpreter's parser takes
        ("reserve", ["--valuation-date", "20191231"], {}, "valuation_date must be an ISO date"),
        ("backtest", ["--valuation-date", "2018-12-31", "--horizon", "2019-W52-1"], {},
         "horizon must be one-year, ultimate, or an ISO date"),
    )):
        (tmp_path / "window.json").write_text(json.dumps(cfg))
        out = tmp_path / f"window{i}"
        assert main([command, "--config", str(tmp_path / "window.json"), "--input", port,
                     *flags, "--scenarios", "5", "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (out / "fit_report.json").exists()

    # a config cutoff must be a YYYY-MM-DD date on or after every date read
    for i, (cutoff, message) in enumerate((
        ("20191231", "cutoff must be an ISO date: '20191231'"),
        ("2019-06-30", "cutoff 2019-06-30 falls before 2019-12-"),
    )):
        (tmp_path / "cutoff.json").write_text(json.dumps({"cutoff": cutoff}))
        out = tmp_path / f"cutoff{i}"
        assert main(["fit", "--config", str(tmp_path / "cutoff.json"), "--input", port,
                     "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (out / "fit_report.json").exists()

    # a synth config value that no portfolio can be drawn from names its key
    for i, (cfg, message) in enumerate((
        ({"start": "20160101"}, "start must be an ISO date: '20160101'"),
        ({"start": "2018-01-01", "end": "2017-12-31"},
         "end 2017-12-31 must fall after start 2018-01-01"),
        ({"n_claims": 1}, "n_claims must be at least 2, got 1"),
        ({"dependence": "gaussian"},
         "dependence must be independence or archimedean, got 'gaussian'"),
        ({"model": {"types": {"bodily_injury": {}}}},
         "config key model is not a readable model: missing key 'occurrence'"),
        ({"model": {"types": {}}},
         "config key model is not a readable model: model needs at least one claim type"),
    )):
        (tmp_path / "synth.json").write_text(json.dumps(cfg))
        out = tmp_path / f"synth{i}"
        assert main(["synth", "--config", str(tmp_path / "synth.json"), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (out / "portfolio.csv").exists()

    # a model file that no longer loads is a config error naming the file
    fitted = json.loads((workdir / "f" / "model.json").read_text())
    fitted["types"]["bodily_injury"]["delay"] = {
        "variant": "empirical_cohort", "cohorts": {"2017": [1.0, 2.0]}
    }
    old_model = tmp_path / "old_model.json"
    old_model.write_text(json.dumps(fitted))
    (tmp_path / "old.json").write_text(json.dumps({"model": str(old_model)}))
    out = tmp_path / "old"
    assert main(["reserve", "--config", str(tmp_path / "old.json"), "--input", port,
                 "--valuation-date", "2019-12-31", "--scenarios", "5", "--out", str(out)]) == 2
    assert (f"config error: model file {old_model} is not a readable model: "
            "unknown delay variant 'empirical_cohort'") in capsys.readouterr().err
    assert not (out / "summary.json").exists()

    # so is a saved independence outer copula: independent types have no hac
    fitted = json.loads((workdir / "f" / "model.json").read_text())
    fitted["hac"] = {"outer_family": "independence"}
    old_model.write_text(json.dumps(fitted))
    assert main(["reserve", "--config", str(tmp_path / "old.json"), "--input", port,
                 "--valuation-date", "2019-12-31", "--scenarios", "5", "--out", str(out)]) == 2
    assert (f"config error: model file {old_model} is not a readable model: "
            "outer family must be Archimedean") in capsys.readouterr().err
    assert not (out / "summary.json").exists()

    # and an outer parameter with no positive dependence
    fitted["hac"] = {"outer_family": "gumbel", "outer_theta": 0.5}
    old_model.write_text(json.dumps(fitted))
    assert main(["reserve", "--config", str(tmp_path / "old.json"), "--input", port,
                 "--valuation-date", "2019-12-31", "--scenarios", "5", "--out", str(out)]) == 2
    assert (f"config error: model file {old_model} is not a readable model: "
            "gumbel outer parameter 0.5 is no nesting") in capsys.readouterr().err
    assert not (out / "summary.json").exists()

    # and a Gaussian inner copula, which has no generator to nest
    fitted["hac"] = {"outer_family": "gumbel", "outer_theta": 1.05}
    fitted["types"]["bodily_injury"]["copula"] = {"family": "gaussian", "theta": 0.9}
    old_model.write_text(json.dumps(fitted))
    assert main(["reserve", "--config", str(tmp_path / "old.json"), "--input", port,
                 "--valuation-date", "2019-12-31", "--scenarios", "5", "--out", str(out)]) == 2
    assert (f"config error: model file {old_model} is not a readable model: "
            "the first inner copula is gaussian") in capsys.readouterr().err
    assert not (out / "summary.json").exists()

    # reserve reads its model from a file; a model dict is synth's form
    (tmp_path / "dict.json").write_text(json.dumps({"model": {"types": {}}}))
    assert main(["reserve", "--config", str(tmp_path / "dict.json"), "--input", port,
                 "--valuation-date", "2019-12-31", "--scenarios", "5", "--out", str(out)]) == 2
    assert ("config error: model must be a model.json path for reserve"
            in capsys.readouterr().err)
    assert not (out / "summary.json").exists()

    # a misspelt claim type selects nothing: it is refused, not skipped
    (tmp_path / "types.json").write_text(
        json.dumps({"claim_types": ["bodily_injury", "materal_damage"]})
    )
    assert main(["fit", "--config", str(tmp_path / "types.json"), "--input", port,
                 "--out", str(tmp_path / "types")]) == 2
    assert ("config error: claim_types: unknown claim types ['materal_damage']"
            in capsys.readouterr().err)
    assert not (tmp_path / "types" / "model.json").exists()

    # claim_types is a name or a list of names: a number or a map is refused
    for i, value in enumerate((5, {"bodily_injury": 1})):
        (tmp_path / "types.json").write_text(json.dumps({"claim_types": value}))
        out = tmp_path / f"types{i}"
        assert main(["fit", "--config", str(tmp_path / "types.json"), "--input", port,
                     "--out", str(out)]) == 2
        assert ("config error: claim_types must be a claim type or a list of them, got "
                f"{value!r}") in capsys.readouterr().err
        assert not (out / "model.json").exists()


def test_recipe_errors_exit_2(workdir, tmp_path, capsys):
    # fit_model checks the recipe before fitting: a bad key or value is
    # configuration, for fit and backtest alike
    for cmd, recipe, message in (
        ("fit", {"bogus": 1}, "unknown recipe keys: ['bogus']"),
        ("fit", {"hac_outer": "independence"}, "recipe hac_outer must be one of"),
        ("backtest", {"intensity_family": "weibull"}, "recipe intensity_family must be"),
    ):
        cfg = {"cutoff": "2019-12-31", "recipe": recipe}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main([cmd, "--config", str(tmp_path / "cfg.json"),
                     "--input", str(workdir / "s" / "portfolio.csv"),
                     "--valuation-date", "2018-12-31", "--horizon", "2019-12-31",
                     "--out", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


def test_model_errors_exit_1(workdir, tmp_path, capsys):
    rc = main(["reserve", "--config", str(workdir / "res.json"),
               "--input", str(workdir / "s" / "portfolio.csv"),
               "--valuation-date", "2025-01-01", "--scenarios", "5",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "model error: valuation date is past the data cutoff" in capsys.readouterr().err

    # a model with no law for some of the portfolio's claims cannot reserve them
    fitted = json.loads((workdir / "f" / "model.json").read_text())
    del fitted["types"]["material_damage"]
    fitted.pop("hac", None)
    (tmp_path / "bi_model.json").write_text(json.dumps(fitted))
    (tmp_path / "bi.json").write_text(json.dumps({"model": str(tmp_path / "bi_model.json")}))
    rc = main(["reserve", "--config", str(tmp_path / "bi.json"),
               "--input", str(workdir / "s" / "portfolio.csv"),
               "--valuation-date", "2019-06-30", "--scenarios", "5",
               "--out", str(tmp_path / "bi")])
    assert rc == 1
    assert ("model error: the model has no law for the portfolio's claim types "
            "['material_damage']") in capsys.readouterr().err
    assert not (tmp_path / "bi" / "summary.json").exists()
