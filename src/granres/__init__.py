"""Claim-by-claim stochastic loss reserving.

Five model phases per claim type: accident-day gaps, reporting delays,
payment-count processes in internal claim time, payment severities, and
copula dependence between delay and count (nested across claim types).
A seeded Monte Carlo engine turns a fitted model into RBNS and IBNR
reserve distributions; a chain-ladder projection is kept as the baseline.
"""

from .claims import (
    CLAIM_TYPES,
    ClaimRecord,
    IngestReport,
    PaymentEvent,
    Portfolio,
    RunOffTriangle,
    aggregate_triangle,
    censor,
    ingest_csv_report,
    write_csv,
)
from .copulas.dynamics import CopulaSpec
from .copulas.hac import HacSpec, hac_sample
from .daycount import iso, parse_iso
from .delays import WeibullDelayModel
from .frequency import NegativeBinomial, OccurrenceModel, Poisson
from .payments import CountProcess, ExponentialDecay, PowerDecay
from .reserving import (
    BacktestResult,
    GranularModel,
    PhaseError,
    ReserveDistribution,
    TypeModel,
    ValuationWindow,
    backtest,
    chain_ladder_reserve,
    default_lookback,
    fit_model,
    ibnr_simulate,
    reserve_summary,
    simulate_reserves,
)
from .severity import GammaSeverity, LogNormalSeverity, OrderARSeverity
from .synth import default_model, synthesize

__version__ = "0.1.0"

# grouped by pipeline stage; every other name is imported from its submodule
__all__ = [
    # claim data and I/O
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
    # model components, to build a GranularModel by hand
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
    # fitting, simulation and backtesting
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
