"""Parameter-grid helpers and replicated sweeps for the experiments."""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.rng import SeedLike, spawn_seed_sequences
from .initial import benchmark_split

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
    protocol,
    ns: List[int],
    reps: int,
    model: str = "sequential",
    make_config: Optional[Callable[[int], ColorConfiguration]] = None,
    seed: SeedLike = 20170725,
    initial: str = "benchmark-split",
    initial_params: Optional[Dict] = None,
    executor: str = "serial",
    cache=None,
    workers: Optional[int] = None,
) -> Dict[int, list]:
    """Replicated convergence-time sweep over an ``n``-grid on ``K_n``.

    For every ``n`` in *ns* this runs *reps* independent replications
    of *protocol* under *model* — the whole T-series workload shape
    ("estimate a convergence time distribution at each grid point") at
    the cost of one run per grid point.  Returns
    ``{n: [RunResult, ...]}`` in replication order; each grid point
    consumes an independent child stream of the master *seed*.

    *protocol* may be a registered protocol *name* (the declarative
    path: the whole ``n``-grid becomes one
    :class:`~repro.api.campaign.CampaignSpec` — an ``n`` axis zipped
    with explicit per-point seeds — run through
    :func:`repro.api.run_campaign`, with *initial* / *initial_params*
    naming the initial condition) or a protocol *object* (the original
    PR-2 path, kept as a value-for-value shim: routed through
    :func:`repro.engine.dispatch.fastest_engine` with ``n_reps=reps``
    so eligible (protocol, ``K_n``) pairs take a counts engine's
    ``run_ensemble``, with *make_config* mapping ``n`` to the
    configuration).  Both paths draw every replication from the same
    law; the spec path derives per-grid-point integer seeds (so its
    specs stay serializable) while the object path spawns
    ``SeedSequence`` children, so only the object path replays pre-API
    sweeps bit-for-bit (except ``reps=1`` on a counts route, which
    takes the ensemble stream; DESIGN.md §2.1b).  The campaign routing is value-for-value with the
    pre-campaign spec path (asserted in ``tests/test_sweeps.py``).

    *executor*, *cache* and *workers* apply to the spec path only and
    are forwarded to :func:`repro.api.run_campaign` — ``cache`` gives
    skip-completed resume across invocations, ``executor="process"``
    fans grid points over worker processes.  The defaults (serial, no
    cache) preserve the historical single-process behaviour.

    *make_config* maps ``n`` to the initial configuration (default: a
    60/40 two-colour split, the engine benchmark workload); passing it
    forces the object path.
    """
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    spec_initial_requested = initial != "benchmark-split" or initial_params is not None
    if spec_initial_requested and (make_config is not None or not isinstance(protocol, str)):
        # The object path builds configurations through make_config and
        # would silently ignore these; refuse rather than sweep the
        # wrong workload.
        raise ConfigurationError(
            "initial/initial_params apply to the spec path only (string protocol, "
            "no make_config); pass make_config to shape the object path"
        )

    if isinstance(protocol, str) and make_config is None:
        from ..api import CampaignSpec, SimulationSpec, SweepSpec, run_campaign
        from ..core.rng import spawn_seeds

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

    from ..engine.dispatch import fastest_engine
    from ..engine.ensemble import run_replicated
    from ..graphs.complete import CompleteGraph

    if isinstance(protocol, str):
        from ..api import PROTOCOLS

        protocol = PROTOCOLS.get(protocol).build(model)
    if make_config is None:
        make_config = benchmark_split
    out = {}
    for n, child in zip(ns, spawn_seed_sequences(seed, len(ns))):
        engine = fastest_engine(protocol, CompleteGraph(n), model=model, n_reps=reps)
        out[int(n)] = run_replicated(engine, make_config(n), reps, seed=child)
    return out
