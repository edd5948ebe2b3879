"""Output checks applied to every timed op.

They hold for any correct engine, so they survive routing changes:
no check pins a per-seed value across commits.  Only repeats *within*
one run are compared value for value.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from ops import canonical

#: Fault wrappers that freeze ``floor(fraction * n)`` nodes, which the
#: honest-only counts leave out.
FREEZING_FAULTS = ("stubborn", "byzantine")


def honest_nodes(spec: Dict[str, Any]) -> int:
    n = spec["n"]
    frozen = sum(int(math.floor(f["params"]["fraction"] * n))
                 for f in spec.get("faults") or () if f["name"] in FREEZING_FAULTS)
    return n - frozen


def payload_problems(payload: Dict[str, Any]) -> List[str]:
    """Why *payload* is not a valid ``simulate()`` result (empty if it is)."""
    from repro.api import SimulationResult

    problems = []
    expected = honest_nodes(payload["spec"])
    runs = payload["runs"]
    if len(runs) != payload["spec"]["reps"]:
        problems.append(f"{len(runs)} runs for reps={payload['spec']['reps']}")
    for index, run in enumerate(runs):
        initial, final = run["initial_counts"], run["final_counts"]
        if sum(initial) != expected or sum(final) != expected:
            problems.append(f"run {index}: counts sum {sum(initial)}/{sum(final)}, expected {expected}")
        if run["converged"]:
            held = [colour for colour, count in enumerate(final) if count]
            if len(held) != 1 or held[0] != run["winner"] or not initial[held[0]]:
                problems.append(f"run {index}: converged to {held} (winner {run['winner']})")
    if canonical(SimulationResult.from_dict(payload).to_dict()) != canonical(payload):
        problems.append("payload does not round-trip through SimulationResult.from_dict")
    return problems


def value(payload: Dict[str, Any]) -> str:
    """Canonical payload without the wall-clock field, for value equality."""
    return canonical({key: v for key, v in payload.items() if key != "elapsed_seconds"})
