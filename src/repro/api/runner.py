"""``simulate(spec)``: the one front door over protocols, topologies,
engines and ensembles.

The runner resolves a :class:`~repro.api.spec.SimulationSpec` against
the registries (:func:`resolve`), routes it through
:func:`repro.engine.dispatch.fastest_engine` with ``n_reps=spec.reps``,
and normalizes whatever came back — a single :class:`RunResult` or an
ensemble list — into one :class:`~repro.api.results.SimulationResult`.

Exactness
---------
``simulate`` adds no randomness of its own:

* ``reps == 1`` calls ``engine.run(initial, seed=spec.seed, ...)``
  directly, so the result is value-for-value what hand-wiring the
  dispatcher produces (asserted across all registered protocols in
  ``tests/test_api.py``);
* ``reps > 1`` goes through
  :func:`repro.engine.ensemble.run_replicated` with the master seed,
  i.e. the PR-2 seeding contract (``SeedSequence.spawn`` children on
  the looped path, the ``"ensemble"`` child stream on the vectorised
  path) byte-for-byte as the experiments used before this API existed.

Engine imports happen inside the functions: the registering modules
(protocols, graphs, workloads) import :mod:`repro.api.registry` at
module level, and a module-level engine import here would close that
cycle while :mod:`repro.engine` is still initialising.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.exceptions import ConfigurationError
from ..core.rng import split
from .registry import DELAYS, FAULTS, INITIALS, PROTOCOLS, STOPS, TOPOLOGIES
from .results import SimulationResult
from .spec import SimulationSpec

__all__ = ["simulate", "resolve", "ResolvedSimulation"]


@dataclass
class ResolvedSimulation:
    """The concrete objects a spec names, plus the routed engine.

    Exposed so callers that need a component the aggregate does not
    carry (e.g. the initial configuration for a theory prediction, or
    the engine instance for introspection) can share the registry
    resolution instead of re-wiring it by hand.
    """

    spec: SimulationSpec
    protocol: Any
    topology: Any
    initial: Any
    delay_model: Optional[Any]
    stop: Callable
    engine: Any

    def run_kwargs(self) -> dict:
        """Engine ``run`` keyword arguments the spec implies."""
        kwargs: dict = {"stop": self.stop}
        if self.spec.model == "synchronous":
            if self.spec.max_steps is not None:
                kwargs["max_rounds"] = self.spec.max_steps
        elif self.spec.model == "sequential":
            if self.spec.max_steps is not None:
                kwargs["max_ticks"] = self.spec.max_steps
        else:  # continuous
            if self.spec.max_time is not None:
                kwargs["max_time"] = self.spec.max_time
        return kwargs

    def trace_kwargs(self) -> dict:
        """``record_trace`` keywords, translated to the engine's names."""
        if not self.spec.record_trace:
            return {}
        kwargs: dict = {"record_trace": True}
        if self.spec.trace_every is not None:
            # The engines name the cadence differently: rounds for the
            # synchronous family, parallel time for the tick engines.
            if self.spec.model == "synchronous":
                kwargs["trace_every"] = int(self.spec.trace_every)
            elif self.spec.model == "sequential":
                kwargs["trace_every_parallel"] = float(self.spec.trace_every)
            else:
                kwargs["trace_every"] = float(self.spec.trace_every)
        return kwargs


def _seeded(spec: SimulationSpec, registry, name: str, params: dict, seed_param: str) -> dict:
    """*params*, plus *seed_param* drawn from a tagged child of
    ``spec.seed`` when the entry declares it and the spec leaves it
    unset.  The derived value never enters the spec, so cache keys are
    unchanged; an unseeded spec stays unseeded."""
    if spec.seed is None or seed_param in params:
        return params
    if all(p.name != seed_param for p in registry.get(name).params):
        return params
    child = split(spec.seed, f"{registry.kind}.{seed_param}")
    return {**params, seed_param: int(child.integers(2**63 - 1))}


def resolve(spec: SimulationSpec) -> ResolvedSimulation:
    """Turn a spec's names into objects and route the fastest engine.

    A random graph without ``graph_seed``, or a sampled initial state
    without ``init_seed``, draws that seed from a tagged child of
    ``spec.seed``, so a seeded spec is a pure function of the spec.
    """
    from ..engine.dispatch import fastest_engine

    topology_params = _seeded(spec, TOPOLOGIES, spec.topology, spec.topology_params, "graph_seed")
    topology = TOPOLOGIES.build(spec.topology, topology_params, spec.n)
    protocol = PROTOCOLS.get(spec.protocol).build(
        spec.model, spec.protocol_params, on_complete=topology.is_complete()
    )
    # Fault wrappers compose around the resolved protocol, first entry
    # innermost; the spec layer already rejected them for the
    # synchronous model, so the build always receives a tick protocol.
    for entry in spec.faults:
        protocol = FAULTS.build(entry["name"], entry["params"], protocol)
    initial_params = _seeded(spec, INITIALS, spec.initial, spec.initial_params, "init_seed")
    initial = INITIALS.build(spec.initial, initial_params, spec.n)
    delay_model = None if spec.delay is None else DELAYS.build(spec.delay, spec.delay_params)
    stop = STOPS.build(spec.stop, spec.stop_params)
    engine = fastest_engine(
        protocol, topology, model=spec.model, delay_model=delay_model, n_reps=spec.reps
    )
    return ResolvedSimulation(
        spec=spec,
        protocol=protocol,
        topology=topology,
        initial=initial,
        delay_model=delay_model,
        stop=stop,
        engine=engine,
    )


def simulate(spec: SimulationSpec) -> SimulationResult:
    """Run *spec* to completion and aggregate the replications.

    See the module docstring for the exactness guarantees; the routing
    table itself lives in :func:`repro.engine.dispatch.fastest_engine`.
    """
    from ..engine.ensemble import run_replicated

    if not isinstance(spec, SimulationSpec):
        raise ConfigurationError(
            f"simulate() takes a SimulationSpec, got {type(spec).__name__}"
        )
    resolved = resolve(spec)
    run_kwargs = {**resolved.run_kwargs(), **resolved.trace_kwargs()}
    start = time.perf_counter()
    if spec.reps == 1:
        runs = [resolved.engine.run(resolved.initial, seed=spec.seed, **run_kwargs)]
    else:
        runs = run_replicated(
            resolved.engine, resolved.initial, spec.reps, seed=spec.seed, **run_kwargs
        )
    elapsed = time.perf_counter() - start
    return SimulationResult(
        spec=spec,
        runs=runs,
        engine=type(resolved.engine).__name__,
        elapsed_seconds=elapsed,
    )
