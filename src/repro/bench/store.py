"""JSON result store and the shared bench plumbing.

Each experiment run can be persisted as ``<dir>/<experiment_id>.json``
so EXPERIMENTS.md's paper-vs-measured numbers are regenerable and the
CLI can re-print past results without re-running the sweep.

It also hosts what every perf suite shares: the environment stamp, the
``BENCH_*.json`` emission, and the :class:`Bench` declaration with the
one runner behind ``python -m repro bench NAME``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.exceptions import ConfigurationError, ExperimentError
from ..core.hazard_kernel import active_kernel_name

__all__ = [
    "Bench",
    "Gate",
    "ResultStore",
    "add_bench_arguments",
    "bench_environment",
    "bench_main",
    "run_bench",
    "save_bench_payload",
    "warn_skipped_criterion",
]


def bench_environment() -> Dict[str, object]:
    """The environment stamp embedded in every ``BENCH_*.json`` payload:
    interpreter, numpy, machine, CPU count and the ``REPRO_KERNEL``
    tick kernel the process resolved."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "kernel": active_kernel_name(),
    }


def warn_skipped_criterion(name: str, reason: str) -> None:
    """Loudly record that a perf criterion was measured but not asserted.

    A speedup gate that silently no-ops on an undersized box looks
    exactly like a pass in CI logs; this prints a GitHub-Actions
    ``::warning`` annotation (surfaced on the run summary page).  It
    goes to stderr, so a suite's stdout stays its payload alone.
    """
    print(f"::warning::perf criterion {name!r} recorded but NOT asserted: {reason}", file=sys.stderr)


def save_bench_payload(payload: Dict, path: str) -> None:
    """Write a bench payload as indented JSON (insertion key order,
    trailing newline) — the on-disk convention of the repo-root
    ``BENCH_*.json`` perf-trajectory files."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


@dataclass(frozen=True)
class Gate:
    """One asserted criterion: ``payload["criteria"][key]`` must be truthy
    (or ``holds(payload)``, for checks over rows no criterion records).
    While criterion *applicable* is falsy the runner warns with *reason*,
    formatted with the payload's environment and criteria, instead."""

    key: str
    applicable: Optional[str] = None
    reason: str = ""
    holds: Optional[Callable[[Dict], bool]] = None


@dataclass(frozen=True)
class Bench:
    """A perf suite: its own options, ``run(args) -> payload``, its table
    and its gates.  The runner owns ``--quick``, ``--out`` and ``--trials``."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], Dict]
    format: Callable[[Dict, argparse.Namespace], str]
    gates: Sequence[Gate] = ()
    options: Callable[[argparse.ArgumentParser], None] = lambda parser: None
    quick_help: str = "CI scale"
    #: default of the runner-owned ``--trials`` option; None: no such option
    trials: Optional[int] = None


def add_bench_arguments(parser: argparse.ArgumentParser, bench: Bench) -> None:
    """Register the runner's options and *bench*'s own on *parser*."""
    parser.add_argument("--quick", action="store_true", help=bench.quick_help)
    parser.add_argument("--out", default=None, help="write the JSON payload to this path")
    if bench.trials is not None:
        parser.add_argument("--trials", type=int, default=bench.trials, help="timed runs per row")
    bench.options(parser)
    parser.set_defaults(bench=bench)


def check_gates(bench: Bench, payload: Dict) -> Dict[str, str]:
    """Each gate's verdict on *payload*: ``held``, ``skipped`` (warned) or ``FAILED``."""
    criteria = payload["criteria"]
    verdicts = {}
    for gate in bench.gates:
        if gate.applicable is not None and not criteria.get(gate.applicable):
            context = {**payload["environment"], **criteria}
            warn_skipped_criterion(gate.key, gate.reason.format(**context) or f"{gate.applicable} is false")
            verdicts[gate.key] = "skipped"
        elif gate.holds(payload) if gate.holds else criteria.get(gate.key):
            verdicts[gate.key] = "held"
        else:
            verdicts[gate.key] = "FAILED"
    return verdicts


def run_bench(bench: Bench, args: argparse.Namespace, error: Callable[[str], None]) -> int:
    """Run *bench*: 0 when no gate failed, else 1.  *error* (the parser's,
    exit 2) reports bad input, which ``run`` raises as ``ConfigurationError``."""
    if bench.trials is not None and args.trials < 1:
        error(f"--trials must be >= 1, got {args.trials}")
    try:
        payload = bench.run(args)
    except ConfigurationError as exc:
        error(str(exc))
    print(bench.format(payload, args))
    if args.out:
        save_bench_payload(payload, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    verdicts = check_gates(bench, payload)
    failed = [key for key, verdict in verdicts.items() if verdict == "FAILED"]
    for key in failed:
        print(f"repro bench {bench.name}: gate {key} FAILED", file=sys.stderr)
    tally = ", ".join(f"{list(verdicts.values()).count(v)} {v.lower()}" for v in ("held", "skipped", "FAILED"))
    print(f"repro bench {bench.name}: gates {tally}", file=sys.stderr)
    return 1 if failed else 0


def parse_int_list(text: str, flag: str) -> List[int]:
    """Parse a comma-separated integer option such as ``--ns``."""
    try:
        return [int(value) for value in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"{flag} must be comma-separated integers, got {text!r}") from None


def bench_main(bench: Bench, argv: Optional[List[str]] = None) -> int:
    """Script entry point: parse *argv* for *bench* alone and run it."""
    parser = argparse.ArgumentParser(description=bench.help)
    add_bench_arguments(parser, bench)
    return run_bench(bench, parser.parse_args(argv), parser.error)


class ResultStore:
    """Directory-backed key-value store for experiment payloads."""

    def __init__(self, directory: str = "results"):
        self.directory = Path(directory)

    def save(self, experiment_id: str, payload: Dict) -> Path:
        """Persist *payload* under the experiment id (overwrites)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(experiment_id)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        return path

    def load(self, experiment_id: str) -> Dict:
        path = self._path(experiment_id)
        if not path.exists():
            raise ExperimentError(f"no stored result for {experiment_id!r} in {self.directory}")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def exists(self, experiment_id: str) -> bool:
        return self._path(experiment_id).exists()

    def list_ids(self) -> List[str]:
        if not self.directory.exists():
            return []
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def _path(self, experiment_id: str) -> Path:
        safe = experiment_id.replace("/", "_")
        if not safe:
            raise ExperimentError("experiment id must be non-empty")
        return self.directory / f"{safe}.json"
