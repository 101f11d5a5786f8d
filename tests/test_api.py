"""The public API: the exported names, every name the benchmark and the
demos reach through the package, and a traced production tour that enters
every function in it."""

import ast
import importlib
import importlib.util
import json
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

import granres
from granres import cli
from granres.reserving import _RECIPE_VALUES, DEFAULT_RECIPE

ROOT = Path(__file__).resolve().parents[1]

GRANRES_ALL = [
    "CLAIM_TYPES",
    "ClaimRecord",
    "PaymentEvent",
    "Portfolio",
    "IngestReport",
    "RunOffTriangle",
    "aggregate_triangle",
    "censor",
    "ingest_csv_report",
    "write_csv",
    "parse_iso",
    "iso",
    "CopulaSpec",
    "HacSpec",
    "OccurrenceModel",
    "Poisson",
    "NegativeBinomial",
    "WeibullDelayModel",
    "CountProcess",
    "ExponentialDecay",
    "PowerDecay",
    "LogNormalSeverity",
    "GammaSeverity",
    "OrderARSeverity",
    "TypeModel",
    "GranularModel",
    "fit_model",
    "PhaseError",
    "ValuationWindow",
    "simulate_reserves",
    "ReserveDistribution",
    "reserve_summary",
    "backtest",
    "BacktestResult",
    "chain_ladder_reserve",
    "default_lookback",
    "ibnr_simulate",
    "hac_sample",
    "synthesize",
    "default_model",
]

def _scripts():
    return sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _is_submodule(name):
    return importlib.util.find_spec(f"granres.{name}") is not None


def _attribute_chain(node):
    """['granres', 'reserving', 'hac_sample'] for granres.reserving.hac_sample."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id] + parts[::-1]
    return []


def _tuple_table(tree, name):
    """The leading string fields of each row of a module-level tuple table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return [
                tuple(e.value for e in row.elts if isinstance(e, ast.Constant))
                for row in node.value.elts
            ]
    raise AssertionError(f"no {name} table")


def test_exports_are_pinned():
    assert granres.__all__ == GRANRES_ALL
    assert len(granres.__all__) == len(set(granres.__all__))


def test_every_export_resolves():
    for name in granres.__all__:
        assert getattr(granres, name) is not None, name


def test_copula_layer_package_binds_no_names():
    # granres.copulas holds only its docstring: each copula name has one
    # import path, through its submodule
    tree = ast.parse((ROOT / "src" / "granres" / "copulas" / "__init__.py").read_text())
    assert len(tree.body) == 1 and isinstance(tree.body[0], ast.Expr), ast.dump(tree)


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes about 0.6 s to import; the engine calls the
    # scipy.special kernels it wraps instead
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, granres, granres.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_bench_and_demos_use_only_exported_names():
    for path in _scripts():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "granres":
                for alias in node.names:
                    assert alias.name in granres.__all__, (path.name, alias.name)
            chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else []
            if len(chain) < 2 or chain[0] != "granres":
                continue
            if _is_submodule(chain[1]):
                # a submodule attribute such as granres.reserving.hac_sample
                obj = importlib.import_module(f"granres.{chain[1]}")
                for attr in chain[2:]:
                    assert hasattr(obj, attr), (path.name, ".".join(chain))
                    obj = getattr(obj, attr)
            else:
                assert chain[1] in granres.__all__, (path.name, ".".join(chain))


def test_tracer_targets_exist():
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for modname, attr, *_ in _tuple_table(tree, "PATCHES"):
        assert hasattr(importlib.import_module(modname), attr), (modname, attr)
    for name, _label in _tuple_table(tree, "API"):
        assert name in granres.__all__, name


def test_readme_recipe_lists_the_default_recipe_keys():
    # each bullet of README's "Fit recipe" section opens with its key
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Fit recipe\n", 1)[1].split("\n#", 1)[0]
    keys = re.findall(r"^- `(\w+)`", section, flags=re.M)
    assert sorted(keys) == sorted(DEFAULT_RECIPE)


def test_readme_dotted_names_resolve():
    # each `granres.…` name in README.md resolves: the longest prefix that is
    # a module is imported, and the rest are attributes walked from it
    readme = (ROOT / "README.md").read_text()
    names = re.findall(r"`(granres(?:\.\w+)+)", readme)
    assert names
    for name in names:
        parts = name.split(".")
        k = max(i for i in range(1, len(parts) + 1) if _is_module(".".join(parts[:i])))
        obj = importlib.import_module(".".join(parts[:k]))
        for attr in parts[k:]:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:  # name's parent is a module, not a package
        return False


# fit recipes that between them take every value of every recipe key. On
# the tour's seeded data the second keeps a time-varying Clayton (fitted to
# claims drawn with one), the third nests Frank in Frank, the fourth fits a
# time-varying Gaussian and the last nests Gumbel in Gumbel
TOUR_RECIPES = [
    {},
    {
        "occurrence_family": "negbin",
        "intensity_family": "exponential",
        "severity_family": "gamma",
        "severity_structure": "order_ar",
        "copula_family": {"bodily_injury": "clayton", "material_damage": "gumbel"},
        "copula_time_varying": True,
        "hac_outer": "clayton",
    },
    {
        "occurrence_family": "zm_poisson",
        "intensity_family": "power",
        "copula_family": "frank",
        "copula_time_varying": True,
        "hac_outer": "frank",
    },
    {
        "occurrence_family": "zm_negbin",
        "copula_family": {"bodily_injury": "gaussian", "material_damage": "independence"},
        "copula_time_varying": True,
        "hac_outer": None,
    },
    {"copula_family": "gumbel", "hac_outer": "gumbel"},
]


def _package_defs(package):
    """{(file, first line): label} of every def under the package directory,
    nested ones and dunders included. The first line is that of the first
    decorator, as in the code object's co_firstlineno."""
    out = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in node.decorator_list] + [node.lineno])
                out[(str(path), line)] = f"{path.relative_to(package.parent)}:{line} {node.name}"
    return out


def _cli(*argv):
    code = cli.main([str(a) for a in argv])
    assert code == 0, argv


def _production_tour():
    """The CLI's five commands, the calls bench/ makes beyond them, and the
    demos, in the working directory: about 1,500 claims over 2016-2019."""
    span = {"n_claims": 1500, "start": "2016-01-01", "end": "2019-12-31"}
    for preset in ("independence", "archimedean"):
        Path(f"{preset}.json").write_text(json.dumps({**span, "dependence": preset}))
        _cli("synth", "--config", f"{preset}.json", "--seed", 3, "--out", preset)
    # a model config dict: the archimedean truth with a time-varying Clayton
    truth = json.loads(Path("archimedean/truth.json").read_text())["model"]
    truth["types"]["bodily_injury"]["copula"] = {
        "family": "clayton",
        "dynamics": {"eta0": 1.4, "eta_inf": -0.7, "kappa": 1.5},
    }
    Path("varying.json").write_text(json.dumps({**span, "model": truth}))
    _cli("synth", "--config", "varying.json", "--seed", 4, "--out", "varying")

    valuation = ["--valuation-date", "2018-12-31", "--scenarios", 8, "--workers", 1]
    _cli("reserve", "--input", "independence/portfolio.csv", *valuation, "--out", "reserve")
    for k, recipe in enumerate(TOUR_RECIPES):
        data = ("varying" if k == 1 else "archimedean") + "/portfolio.csv"
        Path(f"recipe{k}.json").write_text(json.dumps({"recipe": recipe}))
        Path(f"model{k}.json").write_text(json.dumps({"model": f"fit{k}/model.json"}))
        _cli("fit", "--config", f"recipe{k}.json", "--input", data, "--out", f"fit{k}")
        # the fitted model read back from its file, so every *_from_dict loads
        horizon = "ultimate" if k % 2 else "2020-06-30"
        _cli("reserve", "--config", f"model{k}.json", "--input", data, *valuation,
             "--horizon", horizon, "--out", f"reserve{k}")
        # parameter risk: the order-AR recipe reaches OrderARSeverity.perturbed
        _cli("backtest", "--config", f"recipe{k}.json", "--input", data, *valuation,
             "--out", f"backtest{k}")
    _cli("triangle", "--input", "archimedean/portfolio.csv", "--out", "triangle")

    granres.ingest_csv_report("archimedean/portfolio.csv", cutoff=granres.parse_iso("2019-12-31"))
    model = granres.GranularModel.load("fit0/model.json")
    window = granres.ValuationWindow.one_year(granres.parse_iso("2018-12-31"))
    granres.ibnr_simulate(model, window, np.random.default_rng(1))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def test_every_function_is_entered_by_the_production_tour(tmp_path, monkeypatch):
    # a def in src/granres that the tour never enters is dead code, with no
    # exemptions. One worker: the profiler does not follow worker processes.
    # Warnings are recorded, not raised: other tests check them
    taken = {key: set() for key in DEFAULT_RECIPE}
    for recipe in TOUR_RECIPES:
        for key, value in {**DEFAULT_RECIPE, **recipe}.items():
            taken[key] |= set(value.values()) if isinstance(value, dict) else {value}
    assert taken == {key: set(values) for key, values in _RECIPE_VALUES.items()}

    package = Path(granres.__file__).resolve().parent
    monkeypatch.chdir(tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            _production_tour()
    finally:
        sys.setprofile(previous)
    resolved = {f: str(Path(f).resolve()) for f, _ in entered}
    entered = {(resolved[f], line) for f, line in entered}
    defs = _package_defs(package)
    unreached = sorted(label for key, label in defs.items() if key not in entered)
    assert not unreached, "never entered:\n" + "\n".join(unreached)
