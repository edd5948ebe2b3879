"""The agent tick loop, and the sequential engine that runs it.

The paper analyses the asynchronous Poisson-clock process in the
*sequential model*: discrete time is given by the sequence of clock
ticks, and at each tick a node chosen uniformly at random performs its
update.  Both models share this jump chain (one uniformly random actor
per tick) and differ only in the clock, so one block loop,
:class:`_AgentTickEngine`, drives both; each engine declares its clock
as class attributes:

* **sequential clock** (:class:`SequentialEngine`): parallel time is
  ``ticks / n`` — in one unit of continuous time each Poisson clock
  ticks once in expectation, so ``n`` sequential ticks are one unit of
  parallel time.  Blocks of 8192 ticks, a tick budget, and cuts at the
  trace grid and at :class:`~repro.graphs.topology.DynamicTopology`
  epochs.
* **Poisson clock** (:class:`~repro.engine.continuous.ContinuousEngine`):
  by superposition the next tick in the whole system arrives after
  ``Exp(n)`` time at a uniformly random node, so each block draws its
  gaps before its actors.  Blocks of 4096 ticks, cut at the time
  budget.

Block sizes and the order of the RNG calls fix every seeded value.
The two models have the same run time (the paper cites Mosk-Aoyama &
Shah); experiment T10 measures the equivalence.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..core.rng import SeedLike, as_generator
from ..graphs.topology import DynamicTopology, Topology
from ..protocols.base import SequentialProtocol
from .base import StopCondition, build_result, consensus_reached, materialize_initial

__all__ = ["SequentialEngine"]


class _AgentTickEngine:
    """The run setup, block loop and result assembly of both agent
    tick engines.

    Subclasses declare the clock (``_continuous``, ``_block``) and a
    thin ``run`` entry point.  A run loop takes the prepared state and
    returns ``(converged, ticks, time)``; :meth:`_run` wraps it with the
    shared setup and the final stop check, trace point and result.
    """

    _engine_name = "sequential"
    #: False: the sequential clock ``ticks / n``; True: Poisson clocks.
    _continuous = False
    #: ticks drawn per block (amortises RNG call cost).
    _block = 8192

    def __init__(self, protocol: SequentialProtocol, topology: Topology):
        self.protocol = protocol
        self.topology = topology

    def _metadata(self) -> dict:
        return {"engine": self._engine_name, "protocol": self.protocol.name}

    def _run(self, loop, initial, max_ticks, max_time, stop, record_trace, trace_every, check_every, seed) -> RunResult:
        if record_trace and not trace_every > 0:
            raise ConfigurationError(f"the trace cadence must be positive, got trace_every={trace_every}")
        rng = as_generator(seed)
        colors, k = materialize_initial(initial, rng)
        n = colors.size
        if n != self.topology.n:
            raise ConfigurationError(
                f"initial configuration has {n} nodes but topology has {self.topology.n}"
            )
        protocol = self.protocol
        if max_ticks is None:
            max_ticks = int(protocol.default_budget(n) * n)
        if max_time is None:
            max_time = protocol.default_budget(n)
        check_every = n if check_every is None else max(1, int(check_every))
        state = protocol.make_state(colors, k)
        initial_counts = state.counts()
        trace = Trace() if record_trace else None
        if trace is not None:
            trace.record(0.0, initial_counts, protocol.trace_fields(state))

        converged, ticks, time = loop(state, max_ticks, max_time, stop, trace, trace_every, check_every, rng)
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
            metadata=self._metadata(),
        )

    def _run_blocks(self, state, max_ticks, max_time, stop, trace, trace_every, check_every, rng):
        """Apply blocks of ticks through ``seq_tick_batch`` until *stop*
        holds at a check, the state is absorbed or a budget runs out."""
        n = state.n
        protocol = self.protocol
        topology = self.topology
        continuous = self._continuous
        # The trace grid is in ticks on the sequential clock and in
        # time on the Poisson clock.
        trace_step = trace_every if continuous else max(1, int(trace_every * n))
        next_trace = trace_step
        # Dynamic topologies change their edge set on a fixed epoch
        # clock; blocks additionally end on epoch boundaries so every
        # tick of a block presamples from the graph of its own epoch
        # (tick t reads epoch t // epoch_ticks), and the run starts
        # from a deterministic epoch-0 reset so replications sharing
        # one topology object stay independent.
        dynamic = isinstance(topology, DynamicTopology)
        if dynamic:
            epoch_ticks = topology.epoch_ticks
            topology.advance_to(0)
        ticks = 0
        time = 0.0
        converged = stop(state.counts())
        while not converged and ticks < max_ticks and time < max_time:
            # Blocks end on stop-check boundaries, so the check cadence
            # is that of a per-tick loop, and near the next trace point
            # (on the Poisson clock: the expected tick count to reach
            # it), so the trace cadence holds whatever check_every is.
            block = min(self._block, max_ticks - ticks, check_every - ticks % check_every)
            if trace is not None:
                block = min(block, int((next_trace - time) * n) + 1 if continuous else next_trace - ticks)
            if dynamic:
                topology.advance_to(ticks // epoch_ticks)
                block = min(block, epoch_ticks - ticks % epoch_ticks)
            gaps = rng.exponential(1.0 / n, size=block) if continuous else None
            nodes = rng.integers(0, n, size=block)
            if continuous:
                tick_times = time + np.cumsum(gaps)
                time = float(tick_times[-1])
                if time >= max_time:
                    # A tick happening after max_time is not applied.
                    nodes = nodes[: int(np.searchsorted(tick_times, max_time, side="right"))]
                    time = max_time
            protocol.seq_tick_batch(state, nodes, topology, rng)
            ticks += len(nodes)
            if not continuous:
                time = ticks / n
            clock = time if continuous else ticks
            if trace is not None and clock >= next_trace:
                trace.record(time, state.counts(), protocol.trace_fields(state))
                while next_trace <= clock:
                    next_trace += trace_step
            if len(nodes) == block and ticks % check_every == 0:
                if stop(state.counts()):
                    converged = True
                elif protocol.is_absorbed(state):
                    break
        return converged, ticks, time


class SequentialEngine(_AgentTickEngine):
    """Tick-based driver: one uniformly random node acts per tick."""

    def run(
        self,
        initial: Union[ColorConfiguration, np.ndarray],
        max_ticks: Optional[int] = None,
        stop: StopCondition = consensus_reached,
        record_trace: bool = False,
        trace_every_parallel: float = 1.0,
        check_every: Optional[int] = None,
        seed: SeedLike = None,
    ) -> RunResult:
        """Run ticks until *stop* holds or *max_ticks* is exhausted.

        Parameters
        ----------
        initial:
            Counts vector (random node assignment) or explicit colours.
        max_ticks:
            Tick budget; default ``n`` ticks per unit of the protocol's
            :meth:`~repro.protocols.base.SequentialProtocol.default_budget`
            (``50 ln n`` unless the protocol's schedule needs longer).
        stop:
            Counts-level predicate, evaluated every *check_every* ticks.
        record_trace / trace_every_parallel:
            Record counts every ``trace_every_parallel`` units of
            parallel time (i.e. every ``trace_every_parallel * n``
            ticks).
        check_every:
            Stop-condition cadence in ticks (default ``n``); counts are
            maintained incrementally so checks are O(k).
        """
        return self._run(
            self._run_blocks, initial, max_ticks, math.inf, stop, record_trace, trace_every_parallel, check_every, seed
        )
