"""Ensemble-vectorised counts engines: R replications per numpy batch.

Every paper experiment estimates a *distribution* of convergence times,
so the unit of work is not one run but R independent replications of
one run.  PR 1 made a single counts-level run fast; the replication
loop around it then dominates every sweep, because each of its ~256
batches per unit parallel time is a handful of numpy calls on O(k)
data — pure Python overhead.  The engines here amortise that overhead
across the whole ensemble: the state is an ``(R, m)`` matrix of label
histograms, one batch advances *every still-running replication* with
the same number of numpy calls a single run would spend, and the numpy
calls are stacked multinomials whose rows are drawn independently.

Exactness contract
------------------
Each replication's marginal law is *identical* to the corresponding
single-run engine — not merely close:

* row ``r`` of every stacked ``Generator.multinomial`` /
  ``binomial`` / ``gamma`` call is an independent draw from exactly the
  distribution the single-run engine would use for that replication's
  state, and
* there is one loop per time unit, and a single run is its ``R = 1``
  case: the tick loop in :mod:`repro.engine.counts_async` and the
  round loop here (``_CountsRoundEngine``), of which
  :class:`~repro.engine.counts.CountsEngine` is the one-replication,
  tracing declaration.  A one-replication ensemble therefore
  reproduces ``CountsEngine`` / ``CountsSequentialEngine`` /
  ``CountsContinuousEngine`` results value-for-value from a shared
  seed.  ``tests/test_ensemble.py`` enforces both clauses.

Every round protocol has one hook,
:meth:`~repro.protocols.base.CountsProtocol.step_ensemble`, which draws
all colour classes of all rows in one class-major call.

The grid invariants of the single-run tick engines carry over
unchanged: sequential parallel time is exactly ``ticks / n`` (the same
float grid as :class:`~repro.engine.sequential.SequentialEngine`), and
stop conditions are evaluated on the ``check_every = n`` tick grid.

Masking and compaction
----------------------
Replications finish at different times.  A replication is *retired* —
its :class:`~repro.core.results.RunResult` is recorded and its row is
compacted out of the state matrix — as soon as its stop condition
holds (after any round, or at a tick grid check), it reaches an
absorbing non-stop state, or its tick/time/round budget runs out.  The
active set therefore shrinks as the ensemble drains, and the per-batch
cost falls with it; the engine returns when the last replication
retires.  All replications advance
in lockstep on the shared tick grid (they run the same protocol on the
same ``n``), which is what makes one stacked draw per batch possible.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..core.rng import SeedLike, as_generator, spawn_seed_sequences, split
from ..protocols.base import CountsProtocol
from .base import StopCondition, build_result, consensus_reached
from .counts_async import _CountsTickEngine, _stop_flags

__all__ = [
    "EnsembleCountsEngine",
    "EnsembleCountsSequentialEngine",
    "EnsembleCountsContinuousEngine",
    "run_replicated",
]


def _tag_replications(results: List[RunResult]) -> List[RunResult]:
    """Stamp ensemble metadata (``n_reps``, ``replication``) on *results*."""
    for rep, result in enumerate(results):
        result.metadata.update(n_reps=len(results), replication=rep)
    return results


class _CountsRoundEngine:
    """The round loop shared by :class:`~repro.engine.counts.CountsEngine`
    and :class:`EnsembleCountsEngine`.

    :meth:`_run` advances ``n_reps`` replications as one ``(R, m)``
    state matrix, one synchronous round per
    :meth:`~repro.protocols.base.CountsProtocol.step_ensemble` call,
    and retires each replication as soon as its stop condition holds,
    it reaches an absorbing non-stop state, or the round budget runs
    out.  A single run is the ``R = 1`` case, plus tracing.
    """

    _engine_name = "counts-round"

    def __init__(self, protocol: CountsProtocol):
        if not isinstance(protocol, CountsProtocol):
            raise ConfigurationError(
                f"{getattr(protocol, 'name', protocol)!r} has no counts round hook"
            )
        self.protocol = protocol

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

        A *trace_every* (rounds) records a trace; only the single-run
        entry point passes one.
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


class EnsembleCountsEngine(_CountsRoundEngine):
    """Round-based ensemble driver for ``K_n`` counts protocols.

    Advances R independent replications of
    :class:`~repro.engine.counts.CountsEngine`'s chain in lockstep, one
    synchronous round per step for every active replication.
    """

    _engine_name = "ensemble-counts"

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


class EnsembleCountsSequentialEngine(_CountsTickEngine):
    """Ensemble twin of :class:`~repro.engine.counts_async.CountsSequentialEngine`.

    All replications share the deterministic sequential clock, so every
    reported ``parallel_time`` lies exactly on the ``ticks / n`` float
    grid of the agent engine.
    """

    _engine_name = "ensemble-counts-sequential"

    def run_ensemble(
        self,
        initial: ColorConfiguration,
        n_reps: int,
        max_ticks: Optional[int] = None,
        stop: StopCondition = consensus_reached,
        check_every: Optional[int] = None,
        seed: SeedLike = None,
    ) -> List[RunResult]:
        """Run *n_reps* replications until each stops or exhausts
        *max_ticks* (parameters mirror
        :meth:`CountsSequentialEngine.run <repro.engine.counts_async.CountsSequentialEngine.run>`,
        minus tracing)."""
        results = self._run(initial, n_reps, max_ticks, None, stop, check_every, seed)
        return _tag_replications(results)


class EnsembleCountsContinuousEngine(_CountsTickEngine):
    """Ensemble twin of :class:`~repro.engine.counts_async.CountsContinuousEngine`.

    Each replication carries its own Poisson wall clock: one stacked
    ``Gamma(B) / n`` draw per batch advances every active clock by its
    own exact superposition gap sum.
    """

    _engine_name = "ensemble-counts-continuous"
    _continuous = True

    def run_ensemble(
        self,
        initial: ColorConfiguration,
        n_reps: int,
        max_time: Optional[float] = None,
        stop: StopCondition = consensus_reached,
        check_every: Optional[int] = None,
        seed: SeedLike = None,
    ) -> List[RunResult]:
        """Run *n_reps* replications until each stops or its clock
        reaches *max_time* (default ``50 ln n``, like the single-run
        engine)."""
        results = self._run(initial, n_reps, None, max_time, stop, check_every, seed)
        return _tag_replications(results)


def run_replicated(
    engine,
    initial: ColorConfiguration,
    n_reps: int,
    seed: SeedLike = None,
    **run_kwargs,
) -> List[RunResult]:
    """Collect *n_reps* independent :class:`RunResult`\\ s from *engine*.

    The transparent replication front door: ensemble engines run all
    replications in one vectorised pass on the stream
    ``split(seed, "ensemble")``; plain engines fall back to the looped
    path, trial *i* on child *i* of ``SeedSequence(master).spawn``.
    Both paths draw every replication from the same law (the ensemble
    exactness contract above), so callers may treat the routing as a
    pure wall-clock optimisation.  The two paths consume different —
    mutually independent — streams, so only the *distribution* of
    results is shared, not the values; see DESIGN.md for the seeding
    contract.
    """
    if hasattr(engine, "run_ensemble"):
        return engine.run_ensemble(initial, n_reps=n_reps, seed=split(seed, "ensemble"), **run_kwargs)
    return [
        engine.run(initial, seed=child, **run_kwargs)
        for child in spawn_seed_sequences(seed, n_reps)
    ]
