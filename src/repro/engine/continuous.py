"""Continuous-time asynchronous engine (Poisson clocks).

Implements the paper's primary model: every node has a rate-1 Poisson
clock and acts when it ticks.  Two execution paths:

* **Instantaneous responses** (the base model) — the block loop of
  :mod:`repro.engine.sequential` on the Poisson clock.  By
  superposition the next tick in the whole system arrives after
  ``Exp(n)`` time at a uniformly random node, which is *equal in law*
  to maintaining ``n`` independent clocks and needs no heap.
* **Delayed responses** (the Discussion-section extension) — a real
  event queue interleaves clock ticks with read/apply events.  When a
  node ticks it issues read requests to its sampled targets; each
  response arrives after a delay drawn from the
  :class:`~repro.engine.delays.DelayModel`, observing the target's
  colour *at response time*; once the last response is in, the node
  applies its update.  While a request is in flight the node's clock
  keeps ticking but the node performs no new protocol action (it is
  busy waiting) — the modelling choice is documented in DESIGN.md.
  This path shares the run setup and the result assembly of the block
  loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.results import RunResult
from ..core.rng import SeedLike
from ..graphs.topology import Topology
from ..protocols.base import SequentialProtocol
from .base import StopCondition, consensus_reached, require_static_topology
from .delays import DelayModel, NoDelay
from .events import EventQueue
from .sequential import _AgentTickEngine

__all__ = ["ContinuousEngine"]


@dataclass
class _PendingRequest:
    """A tick whose responses have not all arrived yet."""

    node: int
    observed: List[int] = field(default_factory=list)
    outstanding: int = 0


class ContinuousEngine(_AgentTickEngine):
    """Driver for the Poisson-clock model: the block loop of
    :class:`~repro.engine.sequential.SequentialEngine` on the Poisson
    clock, or an event queue when responses are delayed."""

    _engine_name = "continuous"
    _continuous = True
    _block = 4096

    def __init__(self, protocol: SequentialProtocol, topology: Topology, delay_model: Optional[DelayModel] = None):
        require_static_topology(topology, "continuous")
        super().__init__(protocol, topology)
        self.delay_model = delay_model if delay_model is not None else NoDelay()

    def _metadata(self) -> dict:
        return {**super()._metadata(), "delay": repr(self.delay_model)}

    def run(
        self,
        initial: Union[ColorConfiguration, np.ndarray],
        max_time: Optional[float] = None,
        stop: StopCondition = consensus_reached,
        record_trace: bool = False,
        trace_every: float = 1.0,
        check_every: Optional[int] = None,
        seed: SeedLike = None,
    ) -> RunResult:
        """Run until *stop* holds or continuous time *max_time* passes.

        ``parallel_time`` in the result is the continuous clock time at
        which the stop condition was first observed; ``rounds`` counts
        processed tick events.
        """
        loop = self._run_blocks if self.delay_model.is_zero() else self._run_delayed
        return self._run(loop, initial, math.inf, max_time, stop, record_trace, trace_every, check_every, seed)

    # ------------------------------------------------------------------
    # extension model: event queue with read/apply events
    # ------------------------------------------------------------------
    def _run_delayed(self, state, max_ticks, max_time, stop, trace, trace_every, check_every, rng):
        """Process tick, read and apply events until *stop* holds at a
        check, the state is absorbed or *max_time* passes."""
        n = state.n
        protocol = self.protocol
        topology = self.topology
        queue = EventQueue()
        for node in range(n):
            queue.push(rng.exponential(1.0), ("tick", node))
        pending: Dict[int, _PendingRequest] = {}
        busy = np.zeros(n, dtype=bool)
        next_request_id = 0

        time = 0.0
        ticks = 0
        events = 0
        next_trace = trace_every
        converged = stop(state.counts())
        while queue and not converged:
            event_time, payload = queue.pop()
            if event_time >= max_time:
                time = max_time
                break
            time = event_time
            kind = payload[0]
            if kind == "tick":
                node = payload[1]
                queue.push(time + rng.exponential(1.0), ("tick", node))
                ticks += 1
                if not busy[node]:
                    targets = protocol.tick_targets(state, node, topology, rng)
                    if len(targets) == 0:
                        protocol.tick_apply(state, node, np.empty(0, dtype=np.int64))
                    else:
                        request = _PendingRequest(node=node, outstanding=len(targets))
                        request_id = next_request_id
                        next_request_id += 1
                        pending[request_id] = request
                        busy[node] = True
                        for target in targets:
                            delay = self.delay_model.sample(rng)
                            queue.push(time + delay, ("read", request_id, int(target)))
            elif kind == "read":
                request_id, target = payload[1], payload[2]
                request = pending.get(request_id)
                if request is None:
                    continue
                request.observed.append(int(state.colors[target]))
                request.outstanding -= 1
                if request.outstanding == 0:
                    del pending[request_id]
                    busy[request.node] = False
                    protocol.tick_apply(state, request.node, np.asarray(request.observed, dtype=np.int64))
            events += 1
            # As in the block loop, the trace cadence is independent of
            # the stop-check cadence.
            if trace is not None and time >= next_trace:
                trace.record(time, state.counts(), protocol.trace_fields(state))
                while next_trace <= time:
                    next_trace += trace_every
            if events % check_every == 0:
                if stop(state.counts()):
                    converged = True
                # Reads made before absorption may still be applied.
                elif protocol.is_absorbed(state) and not any(r.observed for r in pending.values()):
                    break
        return converged, ticks, time
