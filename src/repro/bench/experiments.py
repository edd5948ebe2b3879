"""Experiment registry: DESIGN.md's per-experiment index, executable.

Usage::

    from repro.bench import run_experiment, QUICK
    report = run_experiment("T6", QUICK)
    print(report.format())

or from the command line::

    python -m repro run T6
    python -m repro run all --scale full --store results/
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.exceptions import ExperimentError
from .experiments_ablations import (
    experiment_a1_clock_skew,
    experiment_a2_sync_samples,
    experiment_a3_delta_factor,
    experiment_a4_bp_length,
)
from .experiments_async import (
    experiment_t6_async_runtime,
    experiment_t7_sync_gadget,
    experiment_t8_bit_propagation_polya,
    experiment_t9_endgame,
    experiment_t10_model_equivalence,
    experiment_t12_response_delays,
)
from .experiments_substrate import experiment_s1_rumor_spreading
from .experiments_sync import (
    experiment_t1_two_choices_runtime,
    experiment_t2_two_choices_lower_bound,
    experiment_t3_bias_threshold,
    experiment_t4_one_extra_bit,
    experiment_t5_quadratic_growth,
    experiment_t11_protocol_comparison,
)
from .harness import FULL, QUICK, ExperimentReport, ExperimentScale
from .store import ResultStore

__all__ = ["EXPERIMENTS", "experiment_ids", "run_experiment"]

EXPERIMENTS: Dict[str, Callable[[ExperimentScale], ExperimentReport]] = {
    "T1": experiment_t1_two_choices_runtime,
    "T2": experiment_t2_two_choices_lower_bound,
    "T3": experiment_t3_bias_threshold,
    "T4": experiment_t4_one_extra_bit,
    "T5": experiment_t5_quadratic_growth,
    "T6": experiment_t6_async_runtime,
    "T7": experiment_t7_sync_gadget,
    "T8": experiment_t8_bit_propagation_polya,
    "T9": experiment_t9_endgame,
    "T10": experiment_t10_model_equivalence,
    "T11": experiment_t11_protocol_comparison,
    "T12": experiment_t12_response_delays,
    # Ablations of the protocol's design constants (DESIGN.md section 4).
    "A1": experiment_a1_clock_skew,
    "A2": experiment_a2_sync_samples,
    "A3": experiment_a3_delta_factor,
    "A4": experiment_a4_bp_length,
    # Substrate validation (S-series).
    "S1": experiment_s1_rumor_spreading,
}


_GROUP_ORDER = {"T": 0, "A": 1, "S": 2}


def experiment_ids() -> List[str]:
    """All registered experiment ids: theorem experiments first (T1..),
    then the design-constant ablations (A1..), then substrate checks (S1..)."""
    return sorted(EXPERIMENTS, key=lambda eid: (_GROUP_ORDER.get(eid[0], 9), int(eid[1:])))


def run_experiment(
    experiment_id: str,
    scale: ExperimentScale = QUICK,
    store: Optional[ResultStore] = None,
) -> ExperimentReport:
    """Run one experiment; optionally persist its payload."""
    try:
        fn = EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; valid ids: {', '.join(experiment_ids())}"
        ) from None
    report = fn(scale)
    if store is not None:
        store.save(report.experiment_id, report.to_dict())
    return report

