"""Exact counts-based synchronous engine for ``K_n``.

On the complete graph with uniform sampling (with replacement), every
node's round behaviour depends on the *colour histogram* only, and the
joint transition of the histogram is a sum of independent per-group
multinomials.  Sampling those multinomials reproduces the agent-based
round law **exactly** — not a mean-field approximation — while costing
O(k) per round instead of O(n).  That is what makes the paper-scale
sweeps (``n`` up to ``10^9``) feasible in Python.

The one modelling difference from the agent engine is self-sampling: the
agent engine excludes the caller from its own sample (neighbours of
``u`` on ``K_n``), so sample probabilities are ``c_j - [own colour]``
over ``n - 1``.  The counts engine accounts for that exactly by using
per-group sampling distributions.

:class:`CountsEngine` has one round loop and two entry points.  The loop
advances ``R`` replications as one ``(R, m)`` state matrix through the
protocol's one round hook,
:meth:`~repro.protocols.base.CountsProtocol.step_ensemble`; ``run`` is
its one-replication case, plus tracing, and ``run_ensemble`` its
``R``-replication case (see :mod:`repro.engine.ensemble` for the
exactness contract between the two).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..core.rng import SeedLike, as_generator
from ..protocols.base import CountsProtocol
from .base import StopCondition, build_result, consensus_reached
from .counts_async import _stop_flags
from .ensemble import _tag_replications

__all__ = ["CountsEngine"]


class CountsEngine:
    """Round-based driver for exact counts-level protocols on ``K_n``.

    :meth:`_run` advances ``n_reps`` replications as one ``(R, m)``
    state matrix, one synchronous round per
    :meth:`~repro.protocols.base.CountsProtocol.step_ensemble` call,
    and retires each replication as soon as its stop condition holds,
    it reaches an absorbing non-stop state, or the round budget runs
    out.
    """

    _engine_name = "counts"

    def __init__(self, protocol: CountsProtocol):
        if not isinstance(protocol, CountsProtocol):
            raise ConfigurationError(
                f"{getattr(protocol, 'name', protocol)!r} has no counts round hook"
            )
        self.protocol = protocol

    def run(
        self,
        initial: ColorConfiguration,
        max_rounds: int = 1_000_000,
        stop: StopCondition = consensus_reached,
        record_trace: bool = False,
        trace_every: int = 1,
        seed: SeedLike = None,
    ) -> RunResult:
        """Execute rounds until *stop* holds or *max_rounds* is hit."""
        [result] = self._run(initial, 1, max_rounds, stop, seed, trace_every if record_trace else None)
        return result

    def run_ensemble(
        self,
        initial: ColorConfiguration,
        n_reps: int,
        max_rounds: int = 1_000_000,
        stop: StopCondition = consensus_reached,
        seed: SeedLike = None,
    ) -> List[RunResult]:
        """Run *n_reps* replications to completion; results in rep order."""
        return _tag_replications(self._run(initial, n_reps, max_rounds, stop, seed))

    def _run(
        self,
        initial: ColorConfiguration,
        n_reps: int,
        max_rounds: int,
        stop: StopCondition,
        seed: SeedLike,
        trace_every: Optional[int] = None,
    ) -> List[RunResult]:
        """Run *n_reps* replications; results in replication order.

        A *trace_every* (rounds) records a trace; only :meth:`run`
        passes one.
        """
        if not isinstance(initial, ColorConfiguration):
            raise ConfigurationError(f"{type(self).__name__} requires a ColorConfiguration initial state")
        if n_reps < 1:
            raise ConfigurationError(f"n_reps must be positive, got {n_reps}")
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be non-negative, got {max_rounds}")
        if trace_every is not None and trace_every < 1:
            raise ConfigurationError(f"trace_every must be at least one round, got {trace_every}")
        rng = as_generator(seed)
        protocol = self.protocol
        states = np.asarray(protocol.init_ensemble(initial, n_reps), dtype=np.int64)
        counts = protocol.color_counts_ensemble(states)
        initial_counts = counts[0].copy()
        results: List[Optional[RunResult]] = [None] * n_reps
        rep_ids = np.arange(n_reps)
        metadata = {"engine": self._engine_name, "protocol": protocol.name}
        trace = None
        if trace_every is not None:
            trace = Trace()
            trace.record(0, counts[0])

        def retire(local: np.ndarray, counts_now: np.ndarray, flags, rounds: int) -> None:
            if trace is not None and rounds % trace_every:
                trace.record(rounds, counts_now[0])
            for i, flag in zip(local, flags):
                results[int(rep_ids[i])] = build_result(
                    converged=bool(flag),
                    initial_counts=initial_counts,
                    final_counts=counts_now[i],
                    rounds=rounds,
                    parallel_time=float(rounds),
                    trace=trace,
                    metadata=dict(metadata),
                )

        rounds = 0
        stops = _stop_flags(stop, counts)
        done = stops
        while True:
            if done.any():
                finished = np.flatnonzero(done)
                retire(finished, counts, stops[finished], rounds)
                states, rep_ids = states[~done], rep_ids[~done]
            if not rep_ids.size or rounds >= max_rounds:
                break
            states = protocol.step_ensemble(states, rng)
            rounds += 1
            counts = protocol.color_counts_ensemble(states)
            if trace is not None and rounds % trace_every == 0:
                trace.record(rounds, counts[0])
            stops = _stop_flags(stop, counts)
            done = stops | protocol.is_absorbed_ensemble(states)
        if rep_ids.size:
            counts = protocol.color_counts_ensemble(states)
            retire(np.arange(rep_ids.size), counts, np.zeros(rep_ids.size, dtype=bool), rounds)
        return results  # type: ignore[return-value]
