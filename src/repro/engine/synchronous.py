"""Agent-based synchronous round engine.

Drives any :class:`~repro.protocols.base.SynchronousProtocol` on any
:class:`~repro.graphs.topology.Topology`.  This engine is the faithful
(one array slot per node) realisation of the paper's synchronous model;
for large-``n`` work on ``K_n`` prefer :class:`~repro.engine.counts.CountsEngine`,
which draws the identical round law from multinomials.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..core.rng import SeedLike, as_generator, split
from ..graphs.topology import Topology
from ..protocols.base import SynchronousProtocol
from .base import StopCondition, build_result, consensus_reached, materialize_initial

__all__ = ["SynchronousEngine"]


class SynchronousEngine:
    """Round-based driver for agent-level protocols.

    Parameters
    ----------
    protocol:
        The round-update policy.
    topology:
        The communication graph (defaults to nothing — pass it to
        :meth:`run` per call or here once).
    """

    def __init__(self, protocol: SynchronousProtocol, topology: Topology):
        self.protocol = protocol
        self.topology = topology

    def run(
        self,
        initial: Union[ColorConfiguration, np.ndarray],
        max_rounds: int = 1_000_000,
        stop: StopCondition = consensus_reached,
        record_trace: bool = False,
        trace_every: int = 1,
        seed: SeedLike = None,
    ) -> RunResult:
        """Execute rounds until *stop* holds or *max_rounds* is hit.

        Parameters
        ----------
        initial:
            Either a :class:`ColorConfiguration` (nodes are assigned
            colours in a uniformly random arrangement) or an explicit
            per-node colour array.
        max_rounds:
            Hard budget; exceeding it yields ``converged=False``.
        stop:
            Counts-level predicate checked after every round.
        record_trace / trace_every:
            Record a counts snapshot every *trace_every* rounds.
        seed:
            Seed or generator; assignment and round randomness use
            split child streams so traces are reproducible.
        """
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be non-negative, got {max_rounds}")
        if record_trace and trace_every < 1:
            raise ConfigurationError(f"trace_every must be at least one round, got {trace_every}")
        rng = as_generator(seed)
        colors, k = materialize_initial(initial, rng)
        if colors.size != self.topology.n:
            raise ConfigurationError(
                f"initial configuration has {colors.size} nodes but topology has {self.topology.n}"
            )
        state = self.protocol.make_state(colors, k)
        trace = Trace() if record_trace else None
        counts = state.counts()
        initial_counts = counts.copy()
        if trace is not None:
            trace.record(0, counts)

        rounds = 0
        converged = stop(counts)
        while not converged and rounds < max_rounds:
            self.protocol.round_update(state, self.topology, rng)
            rounds += 1
            counts = state.counts()
            if trace is not None and rounds % trace_every == 0:
                trace.record(rounds, counts)
            converged = stop(counts)
            if not converged and self.protocol.is_absorbed(state):
                break
        if trace is not None and (rounds % trace_every != 0):
            trace.record(rounds, counts)

        return build_result(
            converged=converged,
            initial_counts=initial_counts,
            final_counts=counts,
            rounds=rounds,
            parallel_time=float(rounds),
            trace=trace,
            metadata={"engine": "synchronous", "protocol": self.protocol.name},
        )
