"""The normalized output of :func:`repro.api.simulate`.

Whatever the dispatcher routed under the hood — one ``engine.run`` call,
an ensemble-vectorised ``run_ensemble`` pass, or a looped replication —
the caller sees one :class:`SimulationResult`: the spec that produced
it, the per-replication :class:`~repro.core.results.RunResult` list in
replication order, and the convergence-time statistics every experiment
summarizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from ..core.results import RunResult
from .spec import SimulationSpec

__all__ = ["SimulationResult"]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def _std(values: List[float]) -> float:
    if len(values) < 2:
        return float("nan")
    mean = _mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


@dataclass
class SimulationResult:
    """Aggregate of one replicated simulation.

    Attributes
    ----------
    spec:
        The spec that produced this result (round-trippable).
    runs:
        One :class:`RunResult` per replication, in replication order —
        identical values whether the ensemble or the looped path ran.
    engine:
        Class name of the engine the dispatcher selected (e.g.
        ``"CountsSequentialEngine"``).
    elapsed_seconds:
        Wall-clock time of the whole replicated run.
    """

    spec: SimulationSpec
    runs: List[RunResult] = field(default_factory=list)
    engine: str = ""
    elapsed_seconds: float = 0.0

    # -- convergence-time statistics ----------------------------------
    @property
    def reps(self) -> int:
        return len(self.runs)

    @property
    def n_converged(self) -> int:
        return sum(1 for r in self.runs if r.converged)

    @property
    def converged_rate(self) -> float:
        return self.n_converged / self.reps if self.runs else float("nan")

    @property
    def plurality_rate(self) -> float:
        """Fraction of replications where the initial plurality won."""
        if not self.runs:
            return float("nan")
        return sum(1 for r in self.runs if r.plurality_preserved) / self.reps

    def convergence_times(self) -> List[float]:
        """Parallel times of the converged replications."""
        return [r.parallel_time for r in self.runs if r.converged]

    @property
    def mean_parallel_time(self) -> float:
        """Mean parallel time over converged replications (nan if none)."""
        return _mean(self.convergence_times())

    @property
    def std_parallel_time(self) -> float:
        return _std(self.convergence_times())

    @property
    def mean_rounds(self) -> float:
        """Mean native step count over converged replications."""
        return _mean([float(r.rounds) for r in self.runs if r.converged])

    def summary(self) -> Dict[str, Any]:
        """The statistics block of :meth:`to_dict`, as plain scalars."""
        times = self.convergence_times()
        return {
            "reps": self.reps,
            "converged": self.n_converged,
            "converged_rate": self.converged_rate,
            "plurality_rate": self.plurality_rate,
            "mean_rounds": self.mean_rounds,
            "mean_parallel_time": self.mean_parallel_time,
            "std_parallel_time": self.std_parallel_time,
            "min_parallel_time": min(times) if times else float("nan"),
            "max_parallel_time": max(times) if times else float("nan"),
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload: spec + per-rep results + statistics."""
        return {
            "spec": self.spec.to_dict(),
            "engine": self.engine,
            "elapsed_seconds": self.elapsed_seconds,
            "summary": self.summary(),
            "runs": [r.to_dict() for r in self.runs],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output.

        The summary block is not stored back — every statistic is a
        property recomputed from the rebuilt runs, so a payload edited
        by hand cannot disagree with itself.  This is the deserialiser
        the campaign :class:`~repro.api.cache.ResultCache` and the
        process executor round-trip every result through.
        """
        return cls(
            spec=SimulationSpec.from_dict(payload["spec"]),
            runs=[RunResult.from_dict(r) for r in payload["runs"]],
            engine=payload.get("engine", ""),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        )
