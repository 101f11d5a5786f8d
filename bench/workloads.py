"""The three benchmark workloads: what each one feeds the pipeline, and why.

Every workload shares one calendar: a portfolio of accidents from START to
END, valued at VALUATION with a one-year horizon ending at HORIZON_END. The
horizon end equals the data cutoff, so the backtest can score the holdout
year against payments that are in the file.
"""

from __future__ import annotations

from dataclasses import dataclass

START = "2016-01-01"
END = "2021-12-31"
VALUATION = "2020-12-31"
HORIZON_END = "2021-12-31"

# intensity families that match the generator (synth.default_model)
GENERATOR_INTENSITIES = {"bodily_injury": "exponential", "material_damage": "power"}


@dataclass(frozen=True)
class Workload:
    name: str
    n_claims: int
    preset: str  # synth.default_model dependence preset
    recipe: dict | None  # fit_model recipe; None is the program's default recipe
    scenarios: int  # simulate_reserves and backtest scenario count
    workers: int  # worker processes for the untraced runs
    why: str
    # scenarios of the parallel reserve compared bitwise with a serial run
    serial_check_scenarios: int = 0
    # scenarios of ibnr_simulate behind the analytic IBNR payment-count check
    ibnr_check_scenarios: int = 0


WORKLOADS = {
    "volume": Workload(
        name="volume",
        n_claims=50_000,
        preset="independence",
        recipe={
            "copula_family": "independence",
            "hac_outer": None,
            "intensity_family": GENERATOR_INTENSITIES,
        },
        scenarios=200,
        workers=2,
        why="50k independent claims on 2 workers: claim I/O, object scans, RBNS, "
        "count quantile, payment placement and the pool carry the cost",
        serial_check_scenarios=8,
        ibnr_check_scenarios=200,
    ),
    "nested": Workload(
        name="nested",
        n_claims=5_000,
        preset="archimedean",
        recipe=None,
        scenarios=20,
        workers=1,
        why="5k claims under the nested Archimedean copula: per-pair HAC draws in "
        "synthesis and IBNR dominate, claim I/O is small",
    ),
    "estimation": Workload(
        name="estimation",
        n_claims=20_000,
        preset="independence",
        recipe={
            "occurrence_family": "negbin",
            "severity_family": "gamma",
            "copula_family": "auto",
            "copula_time_varying": True,
            "hac_outer": None,
            "intensity_family": GENERATOR_INTENSITIES,
        },
        scenarios=50,
        workers=1,
        why="20k claims with a fit-heavy recipe: negbin and gamma MLEs, the "
        "five-family copula AIC search and time-varying refit outweigh Monte Carlo",
    ),
}
