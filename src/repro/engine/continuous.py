"""Continuous-time asynchronous engine (Poisson clocks).

Implements the paper's primary model: every node has a rate-1 Poisson
clock and acts when it ticks.  Two execution paths:

* **Instantaneous responses** (the base model) — simulated through the
  superposition property: the next tick in the whole system arrives
  after ``Exp(n)`` time at a uniformly random node.  This is *equal in
  law* to maintaining ``n`` independent clocks and needs no heap.
* **Delayed responses** (the Discussion-section extension) — a real
  event queue interleaves clock ticks with read/apply events.  When a
  node ticks it issues read requests to its sampled targets; each
  response arrives after a delay drawn from the
  :class:`~repro.engine.delays.DelayModel`, observing the target's
  colour *at response time*; once the last response is in, the node
  applies its update.  While a request is in flight the node's clock
  keeps ticking but the node performs no new protocol action (it is
  busy waiting) — the modelling choice is documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..core.rng import SeedLike, as_generator
from ..graphs.topology import Topology
from ..protocols.base import SequentialProtocol
from .base import StopCondition, build_result, consensus_reached, materialize_initial
from .delays import DelayModel, NoDelay
from .events import EventQueue

__all__ = ["ContinuousEngine"]


@dataclass
class _PendingRequest:
    """A tick whose responses have not all arrived yet."""

    node: int
    observed: List[int] = field(default_factory=list)
    outstanding: int = 0


class ContinuousEngine:
    """Event-driven driver for the Poisson-clock model."""

    def __init__(self, protocol: SequentialProtocol, topology: Topology, delay_model: Optional[DelayModel] = None):
        self.protocol = protocol
        self.topology = topology
        self.delay_model = delay_model if delay_model is not None else NoDelay()

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
        if record_trace and not trace_every > 0:
            raise ConfigurationError(f"trace_every must be positive, got {trace_every}")
        rng = as_generator(seed)
        colors, k = materialize_initial(initial, rng)
        n = colors.size
        if n != self.topology.n:
            raise ConfigurationError(
                f"initial configuration has {n} nodes but topology has {self.topology.n}"
            )
        if max_time is None:
            max_time = self.protocol.default_budget(n)
        if check_every is None:
            check_every = n
        check_every = max(1, int(check_every))

        state = self.protocol.make_state(colors, k)
        initial_counts = state.counts()
        if self.delay_model.is_zero():
            return self._run_instantaneous(
                state, initial_counts, max_time, stop, record_trace, trace_every, check_every, rng
            )
        return self._run_delayed(
            state, initial_counts, max_time, stop, record_trace, trace_every, check_every, rng
        )

    # ------------------------------------------------------------------
    # base model: superposed Poisson process, no heap needed
    # ------------------------------------------------------------------
    def _run_instantaneous(self, state, initial_counts, max_time, stop, record_trace, trace_every, check_every, rng):
        n = state.n
        protocol = self.protocol
        topology = self.topology
        trace = Trace() if record_trace else None
        counts = state.counts()
        if trace is not None:
            trace.record(0.0, counts, protocol.trace_fields(state))
        time = 0.0
        next_trace = trace_every
        ticks = 0
        converged = stop(counts)
        batch = 4096
        while not converged and time < max_time:
            # Blocks end on stop-check boundaries (same cadence as the
            # historical per-tick loop); the clock gaps for the whole
            # block come from one exponential draw, the protocol work
            # from one seq_tick_batch call.
            to_check = check_every - ticks % check_every
            block = min(batch, to_check)
            if trace is not None and time < next_trace:
                # End the block near the next trace boundary (expected
                # tick count to reach it) so trace_every is honoured
                # even when check_every is large.
                expected = int((next_trace - time) * n) + 1
                block = min(block, max(1, expected))
            gaps = rng.exponential(1.0 / n, size=block)
            nodes = rng.integers(0, n, size=block)
            tick_times = time + np.cumsum(gaps)
            if tick_times[-1] >= max_time:
                # A tick happening at or after max_time is not applied.
                fits = int(np.searchsorted(tick_times, max_time, side="right"))
                nodes = nodes[:fits]
                time = max_time
            else:
                time = float(tick_times[-1])
            protocol.seq_tick_batch(state, nodes, topology, rng)
            ticks += len(nodes)
            # Trace cadence is independent of the stop-check cadence:
            # trace_every is honoured (to block granularity) even when
            # check_every is large.
            if trace is not None and time >= next_trace:
                trace.record(time, state.counts(), protocol.trace_fields(state))
                while next_trace <= time:
                    next_trace += trace_every
            if len(nodes) == block and ticks % check_every == 0:
                counts = state.counts()
                if stop(counts):
                    converged = True
                elif protocol.is_absorbed(state):
                    break
            if time >= max_time:
                break
        counts = state.counts()
        converged = converged or stop(counts)
        if trace is not None:
            trace.record(time, counts, protocol.trace_fields(state))
        return build_result(
            converged=converged,
            initial_counts=initial_counts,
            final_counts=counts,
            rounds=ticks,
            parallel_time=time,
            trace=trace,
            metadata={"engine": "continuous", "protocol": protocol.name, "delay": repr(self.delay_model)},
        )

    # ------------------------------------------------------------------
    # extension model: event queue with read/apply events
    # ------------------------------------------------------------------
    def _run_delayed(self, state, initial_counts, max_time, stop, record_trace, trace_every, check_every, rng):
        n = state.n
        protocol = self.protocol
        topology = self.topology
        trace = Trace() if record_trace else None
        counts = state.counts()
        if trace is not None:
            trace.record(0.0, counts, protocol.trace_fields(state))

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
        converged = stop(counts)
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
            # As on the instantaneous path, the trace cadence is
            # independent of the stop-check cadence.
            if trace is not None and time >= next_trace:
                trace.record(time, state.counts(), protocol.trace_fields(state))
                while next_trace <= time:
                    next_trace += trace_every
            if events % check_every == 0:
                counts = state.counts()
                if stop(counts):
                    converged = True
                # Reads made before absorption may still be applied.
                elif protocol.is_absorbed(state) and not any(r.observed for r in pending.values()):
                    break
        counts = state.counts()
        converged = converged or stop(counts)
        if trace is not None:
            trace.record(time, counts, protocol.trace_fields(state))
        return build_result(
            converged=converged,
            initial_counts=initial_counts,
            final_counts=counts,
            rounds=ticks,
            parallel_time=time,
            trace=trace,
            metadata={"engine": "continuous", "protocol": protocol.name, "delay": repr(self.delay_model)},
        )
