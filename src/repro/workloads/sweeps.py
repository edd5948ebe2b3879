"""Parameter-grid helpers and replicated sweeps for the experiments."""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..core.exceptions import ConfigurationError
from ..core.rng import SeedLike, spawn_seeds

__all__ = ["log_spaced_ints", "powers_of_two", "linear_ints", "convergence_time_sweep"]


def log_spaced_ints(low: int, high: int, count: int) -> List[int]:
    """*count* distinct integers, geometrically spaced in ``[low, high]``.

    Used for ``n`` sweeps where the theorems predict logarithmic or
    power-law behaviour — equal spacing in log-space gives every decade
    equal weight in the slope fits.
    """
    if low < 1 or high < low:
        raise ConfigurationError(f"need 1 <= low <= high, got {low}..{high}")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    if count == 1:
        return [low]
    ratio = (high / low) ** (1.0 / (count - 1))
    values = []
    for i in range(count):
        value = int(round(low * ratio**i))
        if not values or value > values[-1]:
            values.append(value)
    values[-1] = high
    return sorted(set(values))


def powers_of_two(low: int, high: int) -> List[int]:
    """All powers of two in ``[low, high]``."""
    if low < 1 or high < low:
        raise ConfigurationError(f"need 1 <= low <= high, got {low}..{high}")
    exponent = max(0, math.ceil(math.log2(low)))
    values = []
    while 2**exponent <= high:
        values.append(2**exponent)
        exponent += 1
    if not values:
        raise ConfigurationError(f"no power of two in [{low}, {high}]")
    return values


def linear_ints(low: int, high: int, step: int) -> List[int]:
    """Arithmetic grid ``low, low+step, ... <= high``."""
    if step < 1:
        raise ConfigurationError(f"step must be >= 1, got {step}")
    if high < low:
        raise ConfigurationError(f"need low <= high, got {low}..{high}")
    return list(range(low, high + 1, step))


def convergence_time_sweep(
    protocol: str,
    ns: List[int],
    reps: int,
    model: str = "sequential",
    seed: SeedLike = 20170725,
    initial: str = "benchmark-split",
    initial_params: Optional[Dict] = None,
    executor: str = "serial",
    cache=None,
    workers: Optional[int] = None,
) -> Dict[int, list]:
    """Replicated convergence-time sweep over an ``n``-grid on ``K_n``.

    For every ``n`` in *ns* this runs *reps* independent replications
    of the registered *protocol* under *model* — the whole T-series
    workload shape ("estimate a convergence time distribution at each
    grid point") at the cost of one run per grid point.  Returns
    ``{n: [RunResult, ...]}`` in replication order.

    The whole ``n``-grid is one :class:`~repro.api.campaign.CampaignSpec`
    (an ``n`` axis zipped with the per-point seeds ``spawn_seeds(seed,
    len(ns))``, so every point consumes an independent stream of the
    master *seed* and its spec stays serializable), run through
    :func:`repro.api.run_campaign`; *initial* / *initial_params* name
    the initial condition.  The campaign routing is value-for-value
    with the pre-campaign spec path (asserted in
    ``tests/test_sweeps.py``).

    *executor*, *cache* and *workers* are forwarded to
    :func:`repro.api.run_campaign` — ``cache`` gives skip-completed
    resume across invocations, ``executor="process"`` fans grid points
    over worker processes.  The defaults (serial, no cache) keep the
    sweep in one process.
    """
    from ..api import CampaignSpec, SimulationSpec, SweepSpec, run_campaign

    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    if not ns:
        return {}
    base = SimulationSpec(
        protocol=protocol,
        n=int(ns[0]),
        model=model,
        initial=initial,
        initial_params=dict(initial_params or {}),
        reps=reps,
    )
    # The historical per-grid-point seeds, pinned as an explicit
    # zipped axis so the campaign reproduces the pre-campaign spec
    # path value-for-value (seed derivation included).
    campaign = CampaignSpec(
        base=base,
        sweep=SweepSpec(
            axes={"n": [int(n) for n in ns], "seed": spawn_seeds(seed, len(ns))},
            mode="zip",
        ),
        seed=int(seed) if isinstance(seed, int) else 0,
        name=f"convergence-time-sweep/{protocol}/{model}",
    )
    result = run_campaign(campaign, executor=executor, cache=cache, workers=workers)
    return {int(point.overrides["n"]): point.result.runs for point in result.points}
