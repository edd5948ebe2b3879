"""Analysis: urn models, trace summaries, statistics, theory."""

from .convergence import per_phase_ratio_growth, ratio_trace, spread_trace, synchrony_summary, time_to_fraction
from .meanfield import (
    MEAN_FIELD_MAPS,
    iterate_map,
    rounds_to_dominance,
    three_majority_map,
    two_choices_map,
    undecided_state_map,
    voter_map,
)
from .polya import PolyaUrn, limit_beta_parameters, limit_fraction_variance
from .statistics import (
    SuccessEstimate,
    bootstrap_mean_ci,
    estimate_success,
    fit_log_slope,
    fit_power_law,
    ks_permutation_test,
    summarize,
    wilson_interval,
)
from . import theory

__all__ = [
    "per_phase_ratio_growth",
    "ratio_trace",
    "spread_trace",
    "synchrony_summary",
    "time_to_fraction",
    "PolyaUrn",
    "MEAN_FIELD_MAPS",
    "iterate_map",
    "rounds_to_dominance",
    "three_majority_map",
    "two_choices_map",
    "undecided_state_map",
    "voter_map",
    "limit_beta_parameters",
    "limit_fraction_variance",
    "SuccessEstimate",
    "bootstrap_mean_ci",
    "estimate_success",
    "fit_log_slope",
    "fit_power_law",
    "ks_permutation_test",
    "summarize",
    "wilson_interval",
    "theory",
]
