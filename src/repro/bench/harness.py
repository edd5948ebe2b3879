"""Experiment harness: trial replication and report assembly.

An *experiment* is a function ``(scale: ExperimentScale) -> ExperimentReport``;
the registry in :mod:`repro.bench.experiments` maps the ids T1..T12 from
DESIGN.md's per-experiment index onto those functions.  Scales keep the
same workload *shapes* while trading trial counts and sizes for wall
time:

* ``quick`` — seconds per experiment; what the pytest benchmarks run.
* ``full``  — minutes per experiment; tighter confidence intervals, the
  numbers EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from ..api import CampaignSpec, SimulationSpec, SweepSpec, run_campaign, simulate
from ..core.rng import SeedLike, spawn_seed_sequences, spawn_seeds
from .tables import format_table

__all__ = [
    "ExperimentScale",
    "ExperimentReport",
    "run_trials",
    "campaign_grid",
    "spec_trials",
    "QUICK",
    "FULL",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Size/effort knob shared by all experiments."""

    name: str
    trials: int
    size_factor: float = 1.0
    seed: int = 20170725  # PODC'17 conference date — fixed for reproducibility

    def scaled(self, base: int, minimum: int = 2) -> int:
        """Scale a base size (e.g. ``n``) by the factor, with a floor."""
        return max(minimum, int(round(base * self.size_factor)))


QUICK = ExperimentScale(name="quick", trials=5, size_factor=0.5)
FULL = ExperimentScale(name="full", trials=25, size_factor=1.0)


@dataclass
class ExperimentReport:
    """One experiment's rendered outcome.

    ``checks`` holds named boolean shape-assertions (who wins, slopes in
    range, ...) so the benchmark targets and EXPERIMENTS.md read the
    verdicts mechanically.
    """

    experiment_id: str
    title: str
    claim: str
    headers: Sequence[str]
    rows: List[Sequence]
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    params: Dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def format(self) -> str:
        lines = [
            f"=== {self.experiment_id}: {self.title} ===",
            f"claim: {self.claim}",
            "",
            format_table(self.headers, self.rows),
        ]
        if self.checks:
            lines.append("")
            for name, passed in self.checks.items():
                lines.append(f"check {name}: {'PASS' if passed else 'FAIL'}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"({self.elapsed_seconds:.1f}s)")
        return "\n".join(lines)

    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> Dict:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "claim": self.claim,
            "headers": list(self.headers),
            "rows": [list(r) for r in self.rows],
            "checks": dict(self.checks),
            "notes": list(self.notes),
            "params": dict(self.params),
            "elapsed_seconds": self.elapsed_seconds,
        }


def run_trials(fn: Callable[[object], object], trials: int, seed: SeedLike) -> List[object]:
    """Run ``fn(trial_seed)`` *trials* times with independent streams.

    Trial *i* receives child *i* of
    ``np.random.SeedSequence(master).spawn(trials)`` (see the seeding
    contract in DESIGN.md, "Ensemble semantics"): the children are
    provably independent, a pure function of the master seed, and any
    individual trial can be replayed in isolation.  ``fn`` may pass the
    child anywhere a ``seed`` argument is accepted.
    """
    return [fn(s) for s in spawn_seed_sequences(seed, trials)]


def campaign_grid(base: SimulationSpec, cells: List[Dict], name: str) -> List:
    """Run one zipped campaign over explicit per-cell overrides.

    *cells* are override dicts (sweep coordinates plus the historical
    per-cell ``"seed"``), zipped into axes so the expansion order is
    the cell order.  The serial executor keeps the drivers
    value-for-value with their pre-campaign form; per-point
    ``SimulationResult``s come back in cell order.
    """
    axes = {key: [cell[key] for cell in cells] for key in cells[0]}
    campaign = CampaignSpec(base=base, sweep=SweepSpec(axes=axes, mode="zip"), name=name)
    return [point.result for point in run_campaign(campaign, executor="serial").points]


def spec_trials(spec: SimulationSpec, trials: int, seed: int) -> List:
    """*trials* runs of *spec* from the master *seed*.

    An untraced spec is one ``simulate(spec.replace(reps=trials,
    seed=seed))``; on an agent route that loops the spawn children of
    *seed*, :func:`run_trials`' stream.  A traced spec (``reps == 1``)
    runs as the one-rep points of a serial campaign over
    ``spawn_seeds(seed, trials)``, which keeps each trace in the
    driver process.
    """
    if not spec.record_trace:
        return simulate(spec.replace(reps=trials, seed=seed)).runs
    cells = [{"seed": trial_seed} for trial_seed in spawn_seeds(seed, trials)]
    return [sim.runs[0] for sim in campaign_grid(spec, cells, name=f"trials/{spec.protocol}")]


class timed:
    """Context manager stamping ``report.elapsed_seconds``."""

    def __init__(self):
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "timed":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.start
