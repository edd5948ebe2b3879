"""Sequential asynchronous engine.

The paper analyses the asynchronous Poisson-clock process in the
*sequential model*: discrete time is given by the sequence of clock
ticks, and at each tick a node chosen uniformly at random performs its
update.  The two views have the same run time (the paper cites
Mosk-Aoyama & Shah); :mod:`repro.engine.continuous` implements the
continuous view so the equivalence can be measured (experiment T10).

Parallel time is ``ticks / n``: in one unit of continuous time each
Poisson clock ticks once in expectation, so ``n`` sequential ticks are
one unit of parallel time.
"""

from __future__ import annotations

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

#: how many node choices to draw per batch (amortises RNG call cost).
_BATCH = 8192


class SequentialEngine:
    """Tick-based driver: one uniformly random node acts per tick."""

    def __init__(self, protocol: SequentialProtocol, topology: Topology):
        self.protocol = protocol
        self.topology = topology

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
        rng = as_generator(seed)
        colors, k = materialize_initial(initial, rng)
        n = colors.size
        if n != self.topology.n:
            raise ConfigurationError(
                f"initial configuration has {n} nodes but topology has {self.topology.n}"
            )
        if max_ticks is None:
            max_ticks = int(self.protocol.default_budget(n) * n)
        if check_every is None:
            check_every = n
        check_every = max(1, int(check_every))

        state = self.protocol.make_state(colors, k)
        counts = state.counts()
        initial_counts = counts.copy()
        trace = Trace() if record_trace else None
        trace_interval = max(1, int(trace_every_parallel * n))
        protocol = self.protocol
        if trace is not None:
            trace.record(0.0, counts, protocol.trace_fields(state))

        topology = self.topology
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
        next_trace = trace_interval
        converged = stop(counts)
        while not converged and ticks < max_ticks:
            # Blocks end on stop-check boundaries so the check cadence
            # is identical to the historical per-tick loop; within a
            # block the protocol batches its neighbour sampling.  When
            # tracing, blocks also end on trace boundaries so the trace
            # cadence is honoured regardless of check_every.
            to_check = check_every - ticks % check_every
            block = min(_BATCH, max_ticks - ticks, to_check)
            if trace is not None:
                block = min(block, next_trace - ticks)
            if dynamic:
                topology.advance_to(ticks // epoch_ticks)
                block = min(block, epoch_ticks - ticks % epoch_ticks)
            nodes = rng.integers(0, n, size=block)
            protocol.seq_tick_batch(state, nodes, topology, rng)
            ticks += block
            if trace is not None and ticks >= next_trace:
                trace.record(ticks / n, state.counts(), protocol.trace_fields(state))
                while next_trace <= ticks:
                    next_trace += trace_interval
            if ticks % check_every == 0:
                counts = state.counts()
                if stop(counts):
                    converged = True
                elif protocol.is_absorbed(state):
                    break
        counts = state.counts()
        converged = converged or stop(counts)
        if trace is not None:
            trace.record(ticks / n, counts, protocol.trace_fields(state))

        return build_result(
            converged=converged,
            initial_counts=initial_counts,
            final_counts=counts,
            rounds=ticks,
            parallel_time=ticks / n,
            trace=trace,
            metadata={"engine": "sequential", "protocol": protocol.name},
        )
