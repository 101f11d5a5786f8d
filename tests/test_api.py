"""The public API: the exported names, and every name the benchmark and the
demos reach through the package."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import granres
from granres.reserving import DEFAULT_RECIPE

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


def _foreign_modules(tree):
    """The names a file binds to modules outside granres, such as np, math
    and special: their attributes are never granres functions or methods."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names |= {
                a.asname or a.name.split(".")[0]
                for a in n.names
                if a.name.split(".")[0] != "granres"
            }
        elif isinstance(n, ast.ImportFrom) and n.level == 0 and n.module != "granres":
            names |= {
                a.asname or a.name for a in n.names if _is_module(f"{n.module}.{a.name}")
            }
    return names


def _uses(node, method, modules):
    """Counts of the names used under node, leaving out the attributes of the
    modules named in modules. A method is reached only as an attribute or by
    a string (getattr), so for methods only those count."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            if not (isinstance(n.value, ast.Name) and n.value.id in modules):
                out[n.attr] += 1
        elif method and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
        elif not method and isinstance(n, ast.Name):
            out[n.id] += 1
        elif not method and isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
    return out


def test_every_function_has_a_production_caller():
    # a top-level function or a non-dunder method that only tests call is
    # dead code: each is named in src/, bench/ or demos/ outside its own
    # definition
    files = [p for d in ("src", "bench", "demos") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = [(path, ast.parse(path.read_text())) for path in files]
    modules = {path: _foreign_modules(tree) for path, tree in trees}
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []  # (path, definition, is a method)
    for path, tree in trees:
        if not path.is_relative_to(ROOT / "src" / "granres"):
            continue
        for node in tree.body:
            if isinstance(node, funcs):
                defs.append((path, node, False))
            elif isinstance(node, ast.ClassDef):
                defs += [
                    (path, m, True)
                    for m in node.body
                    if isinstance(m, funcs) and not m.name.startswith("__")
                ]
    uses = {
        m: sum((_uses(tree, m, modules[path]) for path, tree in trees), Counter())
        for m in (False, True)
    }
    unused = [
        f"{path.relative_to(ROOT)}:{node.name}"
        for path, node, method in defs
        if uses[method][node.name] <= _uses(node, method, modules[path])[node.name]
    ]
    assert unused == []
