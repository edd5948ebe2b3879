"""Batched counts-level engines for the *asynchronous* models on ``K_n``.

The paper's headline theorems live in the sequential / Poisson-clock
model, yet simulating that model one tick at a time costs O(1) Python
work per tick — ``Theta(n log n)`` ticks per run — which caps agent-level
sweeps around ``n ~ 10^5``.  On the complete graph, however, a tick's
conditional law given the colour histogram ``c`` factors exactly:

1. the acting node carries label ``i`` with probability ``c_i / n``;
2. given ``i``, it ends the tick with label ``j`` with probability
   ``P[i, j](c)`` (the protocol's
   :meth:`~repro.protocols.base.SequentialCountsProtocol.tick_transition_matrices`).

The engines here advance that histogram chain in *batches* of ``B``
ticks: the batch's acting-node labels come from one multinomial over
``c / n``, and each label class's outcomes from one multinomial over
its transition row — O(k^2) numpy work per batch instead of O(B)
Python work.

One loop, two clocks, any replication count
-------------------------------------------
The sequential model and the Poisson-clock model share this jump
chain; they differ only in the clock.  The sequential clock is
``ticks / n`` (the same float grid as
:class:`~repro.engine.sequential.SequentialEngine`).  The Poisson clock
advances by ``Gamma(B) / n`` per batch — the sum of ``B`` i.i.d.
``Exp(n)`` superposition gaps — drawn exactly, once per active
replication.  The loop itself runs ``R`` independent replications as an
``(R, m)`` state matrix whose rows are drawn by stacked multinomials
(numpy draws stacked arguments row by row, so every row is an
independent exact draw); a single run is the ``R = 1`` case, plus
tracing.  The four public classes are short declarations of a clock
and an entry point: ``run`` for :class:`CountsSequentialEngine` /
:class:`CountsContinuousEngine`, ``run_ensemble`` for their
:mod:`repro.engine.ensemble` twins.

Batch exactness
---------------
With ``B = 1`` the batch *is* the exact single-tick chain: the actor
label is drawn from ``c / n`` and its outcome from ``P[i]``, which is
the factorisation above.  For ``B > 1`` the batch freezes the rates at
the batch-start histogram, while the true chain lets every tick see the
updates of the ticks before it.  Within a batch the histogram moves by
at most ``B`` units, so each per-tick probability drifts by ``O(B / n)``
and the batch law agrees with the tick chain up to a relative error of
order ``B / n`` — the default ``B = round(n / 256)`` keeps that error
around 0.4%, far below the run-to-run noise of any convergence-time
statistic (the cross-engine KS tests in ``tests/test_counts_async.py``
verify the agreement distributionally, and exactly at ``B = 1``).
Three guard rails keep the frozen-rate draw lawful:

* a batch that would overdraw a small label class (``c_i - out_i +
  in_i < 0`` for some ``i``) is discarded and re-drawn as two half
  batches with refreshed rates, recursing down to the always-valid
  ``B = 1``;
* stop conditions are still checked on the same ``check_every`` tick
  cadence as :class:`~repro.engine.sequential.SequentialEngine`, so
  recorded convergence times are quantised identically across engines;
* a Poisson-clock batch that would carry a replication's clock from
  ``t`` to ``T >= max_time`` is cut at the budget: given the batch's
  total, the first ``B - 1`` arrival times are uniform order statistics
  on ``[t, T]``, so ``Binomial(B - 1, (max_time - t) / (T - t))`` of
  them land before ``max_time``.  That many ticks are re-drawn from the
  pre-batch state and the clock stops at exactly ``max_time``; the
  jump chain is independent of the clock, so the discarded draw
  carries no bias.  Like
  :class:`~repro.engine.continuous.ContinuousEngine`, no tick at or
  after ``max_time`` is applied.

Because the number of batches per run is ``~ 256 * parallel_time``
*independent of n*, asynchronous Two-Choices at ``n = 10^8`` converges
in seconds (see ``python -m repro bench engines --headline``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..core.rng import SeedLike, as_generator
from ..protocols.base import SequentialCountsProtocol
from .base import StopCondition, build_result, consensus_reached

__all__ = ["CountsSequentialEngine", "CountsContinuousEngine"]

#: default batch size as a fraction of n (see the exactness note above).
_BATCH_FRACTION = 1.0 / 256.0


def _stop_flags(stop: StopCondition, counts: np.ndarray) -> np.ndarray:
    """Evaluate a (scalar) stop condition on every row of *counts*."""
    return np.fromiter((bool(stop(row)) for row in counts), dtype=bool, count=len(counts))


def _draw_batch(
    protocol: SequentialCountsProtocol,
    states: np.ndarray,
    b: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance every row of the ``(A, m)`` *states* by *b* ticks.

    Exact for ``b == 1``; for larger *b* the rates are frozen at the
    batch start (error ``O(b / n)``, see the module docstring).  Rows
    that would leave a label class negative are re-drawn as two half
    batches with refreshed rates — ``b == 1`` can never overdraw, so
    the recursion terminates.  One active row draws with 1-D
    arguments: numpy draws stacked rows in order, so the values are
    those of the stacked call, at a fraction of its cost; with
    ``b <= 2`` it draws only the rows of the classes that act.
    """
    transition = protocol.tick_transition_matrices(states)
    empty = states == 0
    if empty.any():
        # Empty classes never act, but every row must still be a valid
        # probability vector for the multinomial call.
        transition[empty] = 0.0
        rows, labels = np.nonzero(empty)
        transition[rows, labels, labels] = 1.0
    if states.shape[0] == 1:
        actors = rng.multinomial(b, states[0] / n)
        if b <= 2:
            # At most two classes act; a class without actors draws
            # nothing, so one 1-D call per acting class gives the values
            # of the broadcast call without its fixed overhead.
            moved_sum = np.zeros_like(actors)
            for i in actors.nonzero()[0].tolist():
                moved_sum += rng.multinomial(actors[i], transition[0, i])
        else:
            moved_sum = rng.multinomial(actors, transition[0]).sum(axis=0)
        new_states = (states[0] - actors + moved_sum)[None, :]
    else:
        actors = rng.multinomial(b, states / n)
        moved = rng.multinomial(actors, transition)
        new_states = states - actors + moved.sum(axis=1)
    if new_states.min() >= 0:
        return new_states
    bad = new_states.min(axis=1) < 0
    half = b // 2
    redo = _draw_batch(protocol, states[bad], half, n, rng)
    new_states[bad] = _draw_batch(protocol, redo, b - half, n, rng)
    return new_states


class _CountsTickEngine:
    """The batched tick loop shared by the four counts tick engines.

    Subclasses declare the clock (``_continuous``) and the public entry
    point; :meth:`_run` advances ``n_reps`` replications as one
    ``(R, m)`` state matrix and retires each replication — records its
    :class:`~repro.core.results.RunResult` and compacts its row away —
    as soon as its stop condition holds at a grid check, it reaches an
    absorbing non-stop state, or its tick/time budget runs out.
    """

    _engine_name = "counts-tick"
    #: False: the sequential clock ``ticks / n``; True: Poisson clocks.
    _continuous = False

    def __init__(self, protocol: SequentialCountsProtocol, batch_ticks: Optional[int] = None):
        if batch_ticks is not None and batch_ticks < 1:
            raise ConfigurationError(f"batch_ticks must be positive, got {batch_ticks}")
        self.protocol = protocol
        self.batch_ticks = batch_ticks

    def _run(
        self,
        initial: ColorConfiguration,
        n_reps: int,
        max_ticks: Optional[int],
        max_time: Optional[float],
        stop: StopCondition,
        check_every: Optional[int],
        seed: SeedLike,
        trace_every: Optional[float] = None,
    ) -> List[RunResult]:
        """Run *n_reps* replications; results in replication order.

        The initial state must be a :class:`ColorConfiguration` — the
        engine never materialises per-node colours.  ``rounds`` in each
        result is its tick count.  A *trace_every* (parallel time)
        records a trace; only the single-run entry points pass one.
        """
        if not isinstance(initial, ColorConfiguration):
            raise ConfigurationError(f"{type(self).__name__} requires a ColorConfiguration initial state")
        if n_reps < 1:
            raise ConfigurationError(f"n_reps must be positive, got {n_reps}")
        n = initial.n
        if n < 2:
            raise ConfigurationError("counts tick engines need at least 2 nodes")
        continuous = self._continuous
        if max_ticks is None:
            max_ticks = int(50 * n * max(np.log(n), 1.0))
        if max_time is None:
            max_time = 50.0 * max(np.log(n), 1.0) if continuous else float("inf")
        if max_time < 0:
            raise ConfigurationError(f"max_time must be non-negative, got {max_time}")
        if check_every is None:
            check_every = n
        check_every = max(1, int(check_every))
        batch = self.batch_ticks or max(1, int(round(n * _BATCH_FRACTION)))
        rng = as_generator(seed)

        protocol = self.protocol
        states = np.asarray(protocol.init_ensemble(initial, n_reps), dtype=np.int64)
        counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
        initial_counts = counts[0].copy()
        results: List[Optional[RunResult]] = [None] * n_reps
        rep_ids = np.arange(n_reps)
        times = np.zeros(n_reps)
        ticks = 0
        next_check = check_every
        metadata = {"engine": self._engine_name, "protocol": protocol.name, "batch_ticks": batch}

        trace = None
        if trace_every is not None:
            trace = Trace()
            trace_interval = max(1, int(trace_every * n))
            next_trace = trace_interval
            trace.record(0.0, counts[0])

        def retire(local: np.ndarray, counts_now: np.ndarray, flags, rounds) -> None:
            for i, flag, ticks_done in zip(local, flags, rounds):
                time = float(times[i]) if continuous else ticks_done / n
                if trace is not None:
                    trace.record(time, counts_now[i])
                results[int(rep_ids[i])] = build_result(
                    converged=bool(flag),
                    initial_counts=initial_counts,
                    final_counts=counts_now[i],
                    rounds=ticks_done,
                    parallel_time=time,
                    trace=trace,
                    metadata=dict(metadata),
                )

        def compact(keep: np.ndarray) -> None:
            nonlocal states, rep_ids, times
            states, rep_ids, times = states[keep], rep_ids[keep], times[keep]

        stops = _stop_flags(stop, counts)
        if stops.any():
            done = np.flatnonzero(stops)
            retire(done, counts, stops[done], [0] * done.size)
            compact(~stops)
        while rep_ids.size and ticks < max_ticks:
            b = min(batch, max_ticks - ticks, next_check - ticks)
            before = states
            states = _draw_batch(protocol, states, b, n, rng)
            ticks += b
            if continuous:
                ends = times + rng.gamma(b, size=times.size) / n
                if ends.max() >= max_time:
                    expired = ends >= max_time
                    # Cut each expiring row's batch at the budget (see
                    # the module docstring) and retire it there.
                    done = np.flatnonzero(expired)
                    rounds = []
                    for i in done:
                        kept = int(rng.binomial(b - 1, (max_time - times[i]) / (ends[i] - times[i])))
                        states[i] = _draw_batch(protocol, before[i : i + 1], kept, n, rng)[0] if kept else before[i]
                        rounds.append(ticks - b + kept)
                    times = np.where(expired, max_time, ends)
                    counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
                    retire(done, counts, _stop_flags(stop, counts[done]), rounds)
                    compact(~expired)
                    if not rep_ids.size:
                        break
                else:
                    times = ends
            if trace is not None and ticks >= next_trace:
                time = float(times[0]) if continuous else ticks / n
                trace.record(time, protocol.color_counts_ensemble(states)[0])
                while next_trace <= ticks:
                    next_trace += trace_interval
            if ticks >= next_check:
                next_check += check_every
                counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
                stops = _stop_flags(stop, counts)
                done = stops | np.asarray(protocol.is_absorbed_ensemble(states), dtype=bool)
                if done.any():
                    finished = np.flatnonzero(done)
                    retire(finished, counts, stops[finished], [ticks] * finished.size)
                    compact(~done)
        if rep_ids.size:
            # Tick budget ran out between grid checks: one final stop
            # evaluation on the current counts.
            counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
            retire(np.arange(rep_ids.size), counts, _stop_flags(stop, counts), [ticks] * rep_ids.size)
        return results  # type: ignore[return-value]


class CountsSequentialEngine(_CountsTickEngine):
    """Batched counts-level driver for the sequential model on ``K_n``.

    Parallel time is ``ticks / n``, exactly as in
    :class:`~repro.engine.sequential.SequentialEngine`, whose ``run``
    signature this mirrors so the dispatcher can swap one for the
    other.
    """

    _engine_name = "counts-sequential"

    def run(
        self,
        initial: ColorConfiguration,
        max_ticks: Optional[int] = None,
        stop: StopCondition = consensus_reached,
        record_trace: bool = False,
        trace_every_parallel: float = 1.0,
        check_every: Optional[int] = None,
        seed: SeedLike = None,
    ) -> RunResult:
        """Run until *stop* holds or *max_ticks* is exhausted
        (parameters mirror :class:`~repro.engine.sequential.SequentialEngine`)."""
        trace_every = trace_every_parallel if record_trace else None
        [result] = self._run(initial, 1, max_ticks, None, stop, check_every, seed, trace_every)
        return result


class CountsContinuousEngine(_CountsTickEngine):
    """Batched counts-level driver for the Poisson-clock model on ``K_n``.

    The tick *sequence* has the sequential model's law; the clock
    advances by an exact ``Gamma(B) / n`` per batch and stops at
    *max_time* (see the module docstring).
    """

    _engine_name = "counts-continuous"
    _continuous = True

    def run(
        self,
        initial: ColorConfiguration,
        max_time: Optional[float] = None,
        stop: StopCondition = consensus_reached,
        record_trace: bool = False,
        trace_every: float = 1.0,
        check_every: Optional[int] = None,
        seed: SeedLike = None,
    ) -> RunResult:
        """Run until *stop* holds or continuous time *max_time* passes
        (parameters mirror :class:`~repro.engine.continuous.ContinuousEngine`,
        so the dispatcher can swap one for the other).  The default
        time budget is ``50 ln n`` like the reference engine's; trace
        points land on tick-grid crossings of *trace_every*.
        """
        trace_every = trace_every if record_trace else None
        [result] = self._run(initial, 1, None, max_time, stop, check_every, seed, trace_every)
        return result
