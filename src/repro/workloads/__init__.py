"""Workload generators: initial configurations and sweep grids."""

from .initial import (
    additive_gap,
    balanced,
    benchmark_split,
    dirichlet_random,
    multiplicative_bias,
    near_consensus_start,
    power_law,
    theorem_1_1_gap,
    two_colors,
)
from .robustness import (
    critical_rates,
    fault_axis,
    phase_map,
    robustness_campaign,
    zipf_robustness_campaign,
)
from .sweeps import convergence_time_sweep, linear_ints, log_spaced_ints, powers_of_two

__all__ = [
    "additive_gap",
    "balanced",
    "dirichlet_random",
    "multiplicative_bias",
    "near_consensus_start",
    "power_law",
    "theorem_1_1_gap",
    "two_colors",
    "benchmark_split",
    "convergence_time_sweep",
    "critical_rates",
    "fault_axis",
    "linear_ints",
    "log_spaced_ints",
    "phase_map",
    "powers_of_two",
    "robustness_campaign",
    "zipf_robustness_campaign",
]
