from .dynamics import CopulaSpec, copula_from_dict
from .families import family
from .hac import (
    HacSpec,
    fit_hac_outer,
    hac_from_dict,
    hac_sample,
    matched_delay_scores,
)
from .mixed import conditional_count_quantile, copula_pairs, fit_copula

__all__ = [
    "CopulaSpec",
    "HacSpec",
    "conditional_count_quantile",
    "copula_from_dict",
    "copula_pairs",
    "family",
    "fit_copula",
    "fit_hac_outer",
    "hac_from_dict",
    "hac_sample",
    "matched_delay_scores",
]
